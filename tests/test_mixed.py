"""Mixed selections, truncated defects, certification, swaps, hereditary scan."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectlab.exact import SparseVector
from defectlab.families import (
    DefectPairFamily,
    E1PlusEkFamily,
    FiniteDefectSetFamily,
    SystemFamily,
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
from defectlab.oracle import RandomFiniteFamily, TooLarge, hereditary_scan
from defectlab.ranks import defect_truncated_many, selection_key
from conftest import (
    WrongSide,
    count_calls,
    defect_truncated,
    oracle_dist_sq,
    oracle_nullspace_dim,
    oracle_rank,
    random_eventually_periodic,
    random_sparse_vector,
    swap_move,
)
from defectlab.exact import BudgetExceeded, InvariantViolation, echelon
from defectlab.mixed import _probe_passes
from defectlab.ranks import _mixed_ranks

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

    def test_dropped_generator_is_invariant_violation(self, dropped_generator):
        fam, sigma = DefectPairFamily(2), parse_set("res(2;1)")
        with pytest.raises(InvariantViolation):
            defect_truncated(fam, sigma, 6)
        with pytest.raises(InvariantViolation):
            hereditary_scan(RandomFiniteFamily(3, 3, seed=1))


@st.composite
def random_batches(draw):
    """A random family, a truncation and an unsorted list of finite and
    periodic selections with repeats, with or without a digit budget."""
    dim = draw(st.integers(1, 6))
    fam = RandomFiniteFamily(dim, draw(st.integers(0, dim)), seed=draw(st.integers(0, 999)),
                             dual_style=draw(st.sampled_from(["span", "perturbed"])))
    rng = draw(st.randoms(use_true_random=False))
    pool = [random_eventually_periodic(rng) for _ in range(draw(st.integers(1, 4)))]
    pool += [EventuallyPeriodicSet.finite(draw(st.lists(st.integers(1, 7), max_size=4)))]
    sigmas = draw(st.lists(st.sampled_from(pool), max_size=12))
    budget = draw(st.one_of(st.none(), st.integers(1, 4)))
    return fam, sigmas, draw(st.integers(0, dim + 1)), budget


@settings(max_examples=150, deadline=None)
@given(random_batches())
def test_batch_defects_match_sequential_echelon_and_sympy(case):
    """Each batch defect is the ambient dimension minus the rank that a
    fresh echelon pass and sympy give its selection; with a digit budget
    the batch trips exactly when one of those passes trips."""
    fam, sigmas, n, budget = case
    gens = [mixed_vectors(fam, sigma, n) for sigma in sigmas]
    keys = [selection_key(sigma, fam.truncation(n)) for sigma in sigmas]
    ambient = fam.ambient(n)
    try:
        ranks = [len(echelon(g, budget)) for g in gens]
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            defect_truncated_many(fam, keys, n, budget)
        return
    assert ranks == [oracle_rank(g, ambient) for g in gens]
    assert defect_truncated_many(fam, keys, n, budget) == [ambient - r for r in ranks]
    assert [defect_truncated(fam, sigma, n, budget) for sigma in sigmas] == [
        ambient - r for r in ranks]


class ListFamily(SystemFamily):
    """Given x_k and x_k*, not biorthogonal, so the mixed ranks vary."""

    def __init__(self, xs, duals, dim):
        self.xs, self.duals, self.dim = xs, duals, dim

    def vector(self, k):
        return self.xs[k - 1]

    def dual(self, k):
        return self.duals[k - 1]

    def ambient(self, n):
        return self.dim


def _keyed_vectors(fam, last, key):
    return [fam.vector(k) if key >> (last - k) & 1 else fam.dual(k)
            for k in range(1, last + 1)]


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 5), st.integers(1, 5),
       st.data())
def test_shared_prefix_ranks_match_fresh_passes(rng, last, dim, data):
    """Over vectors with planted zeros and repeats, and keys unsorted and
    repeated, each rank is the rank of a fresh echelon pass and of sympy;
    with a digit budget the pass trips exactly when a fresh pass trips."""
    pool = [random_sparse_vector(rng, dim) for _ in range(3)] + [SparseVector.from_ints({})]
    fam = ListFamily([rng.choice(pool) for _ in range(last)],
                     [rng.choice(pool) for _ in range(last)], dim)
    keys = data.draw(st.lists(st.integers(0, (1 << last) - 1), max_size=10))
    budget = data.draw(st.one_of(st.none(), st.integers(1, 3)))
    try:
        expected = [len(echelon(_keyed_vectors(fam, last, key), budget)) for key in keys]
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            list(_mixed_ranks(fam, last, keys, budget))
        return
    assert list(_mixed_ranks(fam, last, keys, budget)) == expected
    assert expected == [oracle_rank(_keyed_vectors(fam, last, key), dim) for key in keys]


def test_budget_is_checked_only_on_selected_candidates():
    # x_1* = 10^9 e_1 exceeds a budget of 3 digits, but the key 0b11
    # selects x_1 and x_2 only
    e1, e2 = SparseVector.unit(1), SparseVector.unit(2)
    fam = ListFamily([e1, e2], [SparseVector.from_ints({1: 10 ** 9}), e2], 2)
    assert list(_mixed_ranks(fam, 2, [0b11], 3)) == [2]
    with pytest.raises(BudgetExceeded):
        list(_mixed_ranks(fam, 2, [0b11, 0b01], 3))


def test_first_deficit_in_input_order_raises():
    # x_1 = x_2 = 0: sigma = {1, 2} has rank 0, sigma = {2} has rank 1 and
    # is ranked first, as its key 0b01 is the smaller
    e1, e2 = SparseVector.unit(1), SparseVector.unit(2)
    fam = ListFamily([SparseVector.from_ints({})] * 2, [e1, e2], 2)
    keys = [selection_key(EventuallyPeriodicSet.finite(m), 2) for m in ([1, 2], [2])]
    assert keys == [0b11, 0b01]
    with pytest.raises(InvariantViolation, match="of 2 vectors has rank 0"):
        defect_truncated_many(fam, keys, 2)
    with pytest.raises(InvariantViolation, match="of 2 vectors has rank 1"):
        defect_truncated_many(fam, keys[::-1], 2)
    assert defect_truncated_many(fam, [0b00] * 2, 2) == [0, 0]


@pytest.mark.parametrize("key", [-1, 0b100])
def test_key_outside_truncation_is_rejected(key):
    with pytest.raises(ValueError, match=r"lies in 0..2\^2 - 1"):
        defect_truncated_many(E1PlusEkFamily(), [0b01, key], 2)


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

    @pytest.mark.parametrize("n", range(6))
    def test_one_step_per_nonempty_prefix(self, monkeypatch, n):
        import defectlab.ranks as ranks

        steps = count_calls(monkeypatch, "echelon_step", ranks)
        hereditary_scan(RandomFiniteFamily(n + 1, n, seed=n))
        assert len(steps) == 2 ** (n + 1) - 2

    @pytest.mark.parametrize("n, reductions",
                             [(1, 0), (2, 4), (3, 14), (4, 42), (5, 100), (6, 224)])
    def test_each_candidate_is_reduced_once_per_shared_prefix(self, monkeypatch, n,
                                                              reductions):
        import defectlab.exact as exact

        calls = count_calls(monkeypatch, "_reduce", exact)
        hereditary_scan(RandomFiniteFamily(n, n, seed=n))
        assert len(calls) == reductions

    def test_entries_past_the_next_shared_prefix_are_dropped(self, monkeypatch):
        # none, fin(1) and all share at most one leading index, so between
        # steps each chain holds at most two entries: the rows held grow
        # linearly in last = 40 (about last^2 / 2 if every entry were kept)
        import defectlab.ranks as ranks

        real, chains, held = ranks.echelon_step, {}, []

        def step(chain, pivots, digit_budget=None):
            chains[id(chain)] = chain
            held.append(sum(map(len, chains.values())))
            return real(chain, pivots, digit_budget)

        monkeypatch.setattr(ranks, "echelon_step", step)
        keys = [selection_key(parse_set(text), 40) for text in ("none", "fin(1)", "all")]
        assert defect_truncated_many(E1PlusEkFamily(), keys, 40) == [1, 1, 1]
        assert len(held) == 3 * 40 - 1
        assert max(held) <= 2 * (2 * 40)

    def test_too_large(self):
        fam = RandomFiniteFamily(25, 21, seed=0)
        with pytest.raises(TooLarge):
            hereditary_scan(fam)
