"""Mixed selections, truncated defects, certification, swaps, hereditary scan."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectlab.exact import BudgetExceeded, InvariantViolation, SparseVector, biorthogonal
from defectlab.families import SystemFamily, check_biorthogonal
from defectlab.heads import (
    DefectPairFamily,
    E1PlusEkFamily,
    FiniteDefectSetFamily,
    HeadFamily,
    YoungFamily,
)
from defectlab.indexsets import EventuallyPeriodicSet, parse_set
from defectlab.infiniteset import InfiniteDefectSetFamily
from defectlab.mixed import (
    INCONCLUSIVE,
    classify_defect,
    distance_profile,
    mixed_vectors,
    witness_check,
)
from defectlab.oracle import RandomFiniteFamily, hereditary_scan
from conftest import (
    WrongSide,
    count_calls,
    defect_truncated,
    oracle_biorthogonal,
    oracle_dist_sq,
    oracle_nullspace_dim,
    random_eventually_periodic,
    random_sparse_vector,
    swap_move,
)
from defectlab.mixed import _probe_passes

Q = Fraction


class TestMixedVectors:
    def test_worked_examples(self):
        fam = E1PlusEkFamily()
        assert mixed_vectors(fam, parse_set("all"), 2) == [
            fam.vector(1), fam.vector(2),
        ]
        assert mixed_vectors(fam, parse_set("none"), 2) == [
            SparseVector.unit(2), SparseVector.unit(3),
        ]
        assert mixed_vectors(fam, parse_set("fin(1)"), 2) == [
            fam.vector(1), SparseVector.unit(3),
        ]


class TestDefectTruncated:
    def test_basis_family_always_complete(self):
        fam = RandomFiniteFamily(4, 4, seed=3)
        for text in ("none", "all", "fin(2,4)"):
            assert defect_truncated(fam, parse_set(text), 4) == 0

    def test_e1_plus_ek_sigma_all(self):
        fam = E1PlusEkFamily()
        for n in (2, 4, 6):
            assert defect_truncated(fam, parse_set("all"), n) == 1

    def test_defect_pair_worked_example(self):
        fam = DefectPairFamily(2)
        assert defect_truncated(fam, parse_set("none"), 5) == 2


class TestMixedRankInvariant:
    """The duals are biorthogonal, so a truncated mixed family's Gram
    matrix is block-diagonal with full-rank blocks."""

    def test_defect_is_ambient_minus_mixed_count(self):
        families = [E1PlusEkFamily(), YoungFamily(2), DefectPairFamily(3),
                    RandomFiniteFamily(6, 4, seed=3, dual_style="perturbed")]
        for fam in families:
            for text in ("all", "none", "res(2;1)", "fin(1,3)"):
                sigma = parse_set(text)
                assert defect_truncated(fam, sigma, 5) == (
                    fam.ambient(5) - len(mixed_vectors(fam, sigma, 5)))

    def test_rank_deficient_selection_is_invariant_violation(self):
        # x_1 = x_2, so the selection of both has rank 1 and no dual can be
        # biorthogonal to the pair
        e1, e2 = SparseVector.unit(1), SparseVector.unit(2)
        fam = ListFamily([e1, e1], [e1, e2], 2)
        assert defect_truncated(fam, parse_set("all"), 2) == 1
        with pytest.raises(InvariantViolation, match="not biorthogonal"):
            check_biorthogonal(fam, 2)
        fam = RandomFiniteFamily(3, 3, seed=1)
        fam._vectors[1] = fam._vectors[0]
        with pytest.raises(InvariantViolation, match="not biorthogonal"):
            hereditary_scan(fam)


class ListFamily(SystemFamily):
    """Given x_k and x_k*, biorthogonal or not."""

    def __init__(self, xs, duals, dim):
        self.xs, self.duals, self.dim = xs, duals, dim

    def vector(self, k):
        return self.xs[k - 1]

    def dual(self, k):
        return self.duals[k - 1]

    def ambient(self, n):
        return self.dim


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 5), st.integers(1, 5))
def test_biorthogonal_matches_sympy_on_list_families(rng, last, dim):
    """Over vectors drawn from unit vectors, random vectors and zero, so
    that both answers occur, the check is sympy's V D^T == I."""
    pool = [SparseVector.unit(i) for i in range(1, dim + 1)]
    pool += [random_sparse_vector(rng, dim), SparseVector.from_ints({})]
    fam = ListFamily([rng.choice(pool) for _ in range(last)],
                     [rng.choice(pool) for _ in range(last)], dim)
    assert biorthogonal(fam.xs, fam.duals) == oracle_biorthogonal(fam.xs, fam.duals, dim)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 999),
       st.sampled_from(["span", "perturbed"]), st.data())
def test_biorthogonal_matches_sympy_on_random_draws(dim, count, seed, dual, data):
    """Every random draw is biorthogonal; a dual moved by c e_i stays so,
    by the check and by sympy, exactly when e_i is orthogonal to every x_j."""
    fam = RandomFiniteFamily(dim, min(count, dim), seed=seed, dual_style=dual)
    xs, duals = fam._vectors, list(fam._duals)
    assert biorthogonal(xs, duals) and oracle_biorthogonal(xs, duals, dim)
    if duals:
        k = data.draw(st.integers(0, len(duals) - 1))
        shift = {data.draw(st.integers(1, dim)): data.draw(st.integers(-2, 2))}
        if 0 not in shift.values():
            duals[k] += SparseVector.from_ints(shift)
        assert biorthogonal(xs, duals) == oracle_biorthogonal(xs, duals, dim)


def test_budget_is_checked_on_every_entry_read():
    # 1000 needs 10 bits: it fits a budget of 3 digits, not one of 2.  In
    # the first pair no dual uses x_2's coordinate 3; in the second it is
    # x_2*'s denominator.
    e1, e2 = SparseVector.unit(1), SparseVector.unit(2)
    for x2, d2 in [(SparseVector.from_ints({2: 1, 3: 1000}), e2),
                   (SparseVector.from_ints({2: 1000}), SparseVector.from_ints({2: 1}, 1000))]:
        assert biorthogonal([e1, x2], [e1, d2], 3)
        with pytest.raises(BudgetExceeded):
            biorthogonal([e1, x2], [e1, d2], 2)


class TestWitnessCheck:
    def test_defect_pair_clean(self):
        fam = DefectPairFamily(2)
        witnesses = [SparseVector.unit(1), SparseVector.unit(2)]
        ok, exceptional = witness_check(fam, parse_set("none"), 8, witnesses)
        assert ok and exceptional == frozenset()

    def test_defect_pair_exceptional(self):
        fam = DefectPairFamily(2)
        witnesses = [SparseVector.unit(1), SparseVector.unit(2)]
        ok, exceptional = witness_check(fam, parse_set("fin(3)"), 8, witnesses)
        assert exceptional == frozenset({3})
        assert ok  # the finite sigma itself is the predicted exceptional set

    def test_finite_set_residue_class(self):
        fam = FiniteDefectSetFamily((0, 1, 3))
        ok, exceptional = witness_check(
            fam, parse_set("res(3;2)"), 30, [SparseVector.unit(1)])
        assert ok and exceptional == frozenset()


class TestDistanceProfile:
    def test_e1_plus_ek_decay_law(self):
        fam = E1PlusEkFamily()
        rows = distance_profile(fam, parse_set("all"), [SparseVector.unit(1)],
                                [2, 9, 99])
        assert [d for _, _, d in rows] == [Q(1, 3), Q(1, 10), Q(1, 100)]

    def test_defect_pair_probe_stuck_at_one(self):
        fam = DefectPairFamily(2)
        rows = distance_profile(fam, parse_set("none"), [SparseVector.unit(1)],
                                [3, 6, 9])
        assert all(d == 1 for _, _, d in rows)

    def test_young_probe_stuck_at_one(self):
        fam = YoungFamily(2)
        rows = distance_profile(fam, parse_set("none"), [SparseVector.unit(1)],
                                [4, 8])
        assert all(d == 1 for _, _, d in rows)

    def test_monotone_nonincreasing(self):
        fam = FiniteDefectSetFamily((0, 1, 3))
        rows = distance_profile(fam, parse_set("res(3;1)"),
                                [SparseVector.unit(i) for i in range(1, 4)],
                                [10, 20, 30])
        per_probe = {}
        for label, n, d in rows:
            per_probe.setdefault(label, []).append(d)
        for vals in per_probe.values():
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("family, sigma", [
        (E1PlusEkFamily(), "all"),
        (DefectPairFamily(3), "all"),
        (DefectPairFamily(3), "none"),
        (FiniteDefectSetFamily((0, 1, 3)), "res(3;2)"),
        (YoungFamily(2), "all"),
    ])
    def test_matches_sympy_on_certify_families(self, family, sigma):
        sigma = parse_set(sigma)
        n_list = [1, 4, 9]
        witnesses = family.witness_space(sigma, 9, window=3)
        probes = [SparseVector.unit(i) for i in range(1, 4)]
        rows = distance_profile(family, sigma, probes, n_list,
                                taken=[min(w.coords) for w in witnesses])
        expected = []
        for idx, p in enumerate(probes):
            for n in n_list:
                gens = witnesses + mixed_vectors(family, sigma, n)
                ambient = max(i for v in gens + probes for i in v.coords)
                expected.append((f"probe[{idx + 1}]", n, oracle_dist_sq(p, gens, ambient)))
        assert rows == expected

    def test_rejects_unsorted_n_list(self):
        fam = E1PlusEkFamily()
        with pytest.raises(ValueError):
            distance_profile(fam, parse_set("all"), [SparseVector.unit(1)], [5, 2])


class TestProbePasses:
    def test_zero_tail_passes(self):
        assert _probe_passes([Q(1), Q(0)], Q(1, 100), 4)

    def test_needs_enough_strict_drops(self):
        vals = [Q(1, 2), Q(1, 3), Q(1, 200), Q(1, 200)]
        assert not _probe_passes(vals, Q(1, 100), 4)
        vals = [Q(1, 2), Q(1, 3), Q(1, 150), Q(1, 200)]
        assert _probe_passes(vals, Q(1, 100), 4)

    def test_above_threshold_fails(self):
        assert not _probe_passes([Q(1), Q(1, 2), Q(1, 3), Q(1, 4)], Q(1, 100), 4)


class TestClassifyDefect:
    def test_increasing_decay_is_invariant_violation(self, rising_decay):
        # a head family's complement route and infinite-set's Gram side
        for family in (E1PlusEkFamily(), InfiniteDefectSetFamily((0, 1))):
            with pytest.raises(InvariantViolation):
                classify_defect(family, parse_set("all"), [5, 10, 20, 30])

    def test_e1_plus_ek_sigma_empty(self):
        rep = classify_defect(E1PlusEkFamily(), parse_set("none"), [5, 10, 20, 30])
        assert rep.verdict == 1
        assert rep.witness_dim == 1
        assert rep.witness_ok

    def test_e1_plus_ek_sigma_all(self):
        rep = classify_defect(E1PlusEkFamily(), parse_set("all"), [2, 9, 49, 99],
                              decay_threshold=Q(1, 50))
        assert rep.verdict == 0

    def test_defect_pair_3(self):
        rep = classify_defect(DefectPairFamily(3), parse_set("none"), [10, 20, 30, 40])
        assert rep.verdict == 3

    def test_verdict_never_contradicts_witness_dim(self):
        rep = classify_defect(E1PlusEkFamily(), parse_set("none"), [5, 20],
                              min_points=6)
        assert rep.verdict in (rep.witness_dim, INCONCLUSIVE, math.inf)

    def test_infinite_verdict(self):
        fam = InfiniteDefectSetFamily((0,))
        rep = classify_defect(fam, parse_set("fin(1,2,3)"), [10, 20, 30])
        assert rep.verdict == math.inf
        assert rep.verdict_str() == "inf"

    def test_unbounded_witnesses_are_built_once(self, monkeypatch):
        # the wide list is built and certified once; its first probe_window
        # witnesses are the narrow list
        fam, sigma = InfiniteDefectSetFamily((0, 2)), parse_set("fin(1,2,3,4,5)")
        narrow = fam.witness_space(sigma, 12, window=3)
        windows, real = [], fam.witness_space
        monkeypatch.setattr(fam, "witness_space",
                            lambda s, n, window=None: windows.append(window) or real(s, n, window))
        rep = classify_defect(fam, sigma, [4, 8, 12], probe_window=3)
        assert windows == [4]
        assert real(sigma, 12, window=4)[:3] == narrow
        assert (rep.witness_dim, rep.verdict, rep.witness_ok) == (3, math.inf, True)

    @pytest.mark.parametrize("probe_window", [1, 2, 5])
    def test_unbounded_generator_is_read_one_witness_past_the_window(
            self, monkeypatch, probe_window):
        # witness_space returns min(window, n) witnesses, so one witness
        # past the window is there exactly when n > probe_window
        fam, sigma = InfiniteDefectSetFamily((0, 1)), parse_set("fin(2,3)")
        windows, real = [], fam.witness_space
        monkeypatch.setattr(fam, "witness_space",
                            lambda s, n, window=None: windows.append(window) or real(s, n, window))
        for n in range(1, 8):
            del windows[:]
            rep = classify_defect(fam, sigma, [n], probe_window=probe_window)
            assert windows == [probe_window + 1]
            assert rep.witness_dim == min(probe_window, n)
            assert rep.verdict == (math.inf if n > probe_window else INCONCLUSIVE), n

    def test_no_witness_builds_no_vector(self, monkeypatch):
        # sigma infinite has no witness, so the audit builds no mixed
        # vector, and a head family's distances read only the head parts
        fam, sigma, n_list = YoungFamily(2), parse_set("all"), [10, 20, 30, 40]
        expected = classify_defect(fam, sigma, n_list)

        def refuse(self, k):
            raise AssertionError(f"x_{k} was built")

        monkeypatch.setattr(HeadFamily, "vector", refuse)
        rep = classify_defect(fam, sigma, n_list)
        assert rep == expected
        assert (rep.witness_dim, rep.verdict, rep.exceptional_indices) == (0, 0, frozenset())


class TestSwapMove:
    def test_worked_examples(self):
        assert swap_move(parse_set("none"), 3, "in") == parse_set("fin(3)")
        assert swap_move(parse_set("all"), 2, "out") == parse_set("all-2")

    def test_double_move_is_identity(self):
        sigma = parse_set("res(2;0)+3")
        assert swap_move(swap_move(sigma, 5, "in"), 5, "out") == sigma

    def test_wrong_side(self):
        with pytest.raises(WrongSide):
            swap_move(parse_set("all"), 2, "in")
        with pytest.raises(WrongSide):
            swap_move(parse_set("none"), 2, "out")
        with pytest.raises(ValueError):
            swap_move(parse_set("none"), 2, "sideways")

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 30))
    def test_matches_set_algebra(self, rng, k0):
        sigma = random_eventually_periodic(rng)
        single = EventuallyPeriodicSet.finite([k0])
        inside = sigma.contains(k0)
        if inside:
            assert swap_move(sigma, k0, "out") == sigma.difference(single)
        else:
            assert swap_move(sigma, k0, "in") == sigma.union(single)
        with pytest.raises(WrongSide):
            swap_move(sigma, k0, "in" if inside else "out")

    def test_swap_invariance_random_instances(self):
        rng = random.Random(99)
        for _ in range(30):
            dim = rng.randint(2, 8)
            count = rng.randint(1, dim)
            fam = RandomFiniteFamily(dim, count, seed=rng.randrange(1 << 30),
                                     dual_style=rng.choice(["span", "perturbed"]))
            sigma = parse_set("none")
            base = defect_truncated(fam, sigma, count)
            for k0 in range(1, count + 1):
                moved = swap_move(sigma, k0, "in")
                assert defect_truncated(fam, moved, count) == base


class TestHereditaryScan:
    def test_basis_families_scan_to_zero(self):
        for seed in range(10):
            fam = RandomFiniteFamily(3, 3, seed=seed)
            assert hereditary_scan(fam) == 0

    def test_incomplete_system_detected(self):
        fam = RandomFiniteFamily(4, 2, seed=5)
        assert hereditary_scan(fam) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 999),
           st.sampled_from(["span", "perturbed"]))
    def test_matches_brute_force_sympy(self, dim, count, seed, dual):
        count = min(count, dim)
        fam = RandomFiniteFamily(dim, count, seed=seed, dual_style=dual)
        worst = max(
            oracle_nullspace_dim([fam.vector(k) if mask >> (k - 1) & 1 else fam.dual(k)
                                  for k in range(1, count + 1)], dim)
            for mask in range(1 << count))
        assert hereditary_scan(fam) == worst

    def test_checks_the_family_once_and_ranks_nothing(self, monkeypatch):
        import defectlab.exact as exact
        import defectlab.families as families

        family = RandomFiniteFamily(6, 6, seed=6)
        checks = count_calls(monkeypatch, "biorthogonal", families)
        passes = count_calls(monkeypatch, "bareiss_pass", exact)
        assert hereditary_scan(family) == 0
        assert (len(checks), passes) == (1, [])
