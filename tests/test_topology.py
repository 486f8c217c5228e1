"""Certified projector metrics, chains, convergence probes."""
import contextlib
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectlab.families import parse_family
from defectlab.heads import DefectPairFamily, E1PlusEkFamily
from defectlab.indexsets import EventuallyPeriodicSet, parse_set, rho
from defectlab.oracle import RandomFiniteFamily
from defectlab.topology import (
    IntervalValue,
    convergence_probe,
    intersection_chain,
    projector_metrics,
    sqrt_enclosure,
)
from defectlab.cli import main
from defectlab.exact import SparseVector, project_many
from conftest import (
    count_calls,
    eventually_periodic_sets,
    interval_contains,
    oracle_convergence,
    oracle_intersection_chain,
    oracle_projector_metrics,
    random_eventually_periodic,
    union_sigma_m,
)
import defectlab.exact as exact
import defectlab.families as families
import defectlab.heads as heads
import defectlab.topology as topology

Q = Fraction


class TestIntervalValue:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntervalValue(Q(1), Q(0))

    def test_value_semantics_and_pickle(self):
        a = IntervalValue(Q(1, 3), Q(1, 2))
        assert a == IntervalValue(Q(1, 3), Q(1, 2)) and a != IntervalValue(Q(1, 3), Q(1))
        assert hash(a) == hash(IntervalValue(Q(1, 3), Q(1, 2)))
        assert repr(a) == "IntervalValue(lo=Fraction(1, 3), hi=Fraction(1, 2))"
        assert pickle.loads(pickle.dumps(a)) == a

    def test_arithmetic(self):
        a = IntervalValue(Q(1), Q(2))
        assert a.width() == Q(1)
        assert interval_contains(IntervalValue(Q(0), Q(3)), a)
        assert (a.lo + a.hi) / 2 == Q(3, 2)


class TestSqrtEnclosure:
    @given(st.fractions(min_value=0, max_value=100, max_denominator=50),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=120, deadline=None)
    def test_encloses_and_is_narrow(self, r, prec):
        iv = sqrt_enclosure(r, prec)
        assert iv.lo >= 0
        assert iv.lo * iv.lo <= r <= iv.hi * iv.hi
        assert iv.width() <= Q(1, 2 ** prec)

    @given(st.fractions(min_value=0, max_value=100, max_denominator=50),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=80, deadline=None)
    def test_nesting_under_precision_doubling(self, r, prec):
        coarse = sqrt_enclosure(r, prec)
        fine = sqrt_enclosure(r, 2 * prec)
        assert interval_contains(coarse, fine)

    def test_exact_cases(self):
        assert sqrt_enclosure(Q(0), 10) == IntervalValue(Q(0), Q(0))
        iv = sqrt_enclosure(Q(4), 10)
        assert iv.lo <= 2 <= iv.hi

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_enclosure(Q(-1), 10)


_ROOT_TERMS = st.lists(st.tuples(
    st.one_of(st.just(Q(0)), st.integers(1, 30).map(lambda x: Q(x * x)),
              st.fractions(min_value=0, max_value=100, max_denominator=50)),
    st.integers(0, 40)), max_size=10)


class TestRootSum:
    @given(_ROOT_TERMS, st.integers(0, 200),
           st.fractions(min_value=0, max_value=2, max_denominator=64))
    @settings(max_examples=100, deadline=None)
    def test_sum_of_one_term_enclosures(self, terms, prec, tail):
        got = topology._root_sum(terms, prec, tail)
        lo = hi = Q(0)
        for r, e in terms:
            iv = sqrt_enclosure(r, prec)
            lo += iv.lo / 2 ** e
            hi += iv.hi / 2 ** e
        assert got == IntervalValue(lo, hi + tail)
        scale = 2 ** (prec + 1)
        assert got.width() == sum((Q(1, 2 ** e * scale) for r, e in terms if r), tail)

    @given(_ROOT_TERMS, _ROOT_TERMS,
           st.fractions(max_value=0, max_denominator=50).filter(lambda r: r < 0),
           st.integers(0, 40), st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_negative_term_rejected(self, before, after, r, e, prec):
        with pytest.raises(ValueError, match="negative"):
            topology._root_sum(before + [(r, e)] + after, prec, Q(0))


class TestMetrics:
    def test_identical_projectors_only_tail(self):
        fam = E1PlusEkFamily()
        sig = parse_set("res(2;1)")
        ds, _ = projector_metrics(fam, sig, sig, 8, 6, 32)
        assert ds.lo == 0 and ds.hi == Q(2, 2 ** 6)

    def test_ds_all_vs_empty_near_one(self):
        fam = E1PlusEkFamily()
        ds, _ = projector_metrics(fam, parse_set("all"), parse_set("none"), 10, 8, 32)
        # each normalized term is exactly 2^-k, so the sum approaches 1
        assert ds.lo <= 1 <= ds.hi
        assert ds.lo > Q(9, 10)

    def test_widths_within_certified_bound(self):
        fam = E1PlusEkFamily()
        for K, prec in [(6, 16), (10, 32)]:
            ds, dw = projector_metrics(fam, parse_set("res(2;0)"), parse_set("fin(1)"),
                                       10, K, prec)
            bound = Q(2, 2 ** K) + Q(K, 2 ** prec)
            assert ds.width() <= bound
            assert dw.width() <= bound

    def test_dw_below_ds_upper(self):
        fam = E1PlusEkFamily()
        ds, dw = projector_metrics(fam, parse_set("all"), parse_set("none"), 10, 8, 48)
        assert dw.lo <= ds.hi

    def test_nesting_under_precision_doubling(self):
        fam = E1PlusEkFamily()
        coarse = projector_metrics(fam, parse_set("all"), parse_set("fin(2)"), 8, 6, 16)
        fine = projector_metrics(fam, parse_set("all"), parse_set("fin(2)"), 8, 6, 32)
        assert interval_contains(coarse[0], fine[0])
        assert interval_contains(coarse[1], fine[1])

    def test_dw_term_identity_when_p_fixed(self):
        # <(P - Q) x_p, x_p> = ||x_p - Q x_p||^2 whenever P x_p = x_p
        fam = E1PlusEkFamily()
        sigma, tau, p, n = parse_set("all"), parse_set("none"), 2, 6
        xp = fam.vector(p)
        sig_gens = [fam.vector(k) for k in sigma.truncate(n)]
        tau_gens = [fam.vector(k) for k in tau.truncate(n)]
        [p_sig] = project_many([xp], sig_gens)
        [p_tau] = project_many([xp], tau_gens)
        assert p_sig == xp
        assert (p_sig - p_tau).dot(xp) == (xp - p_tau).norm_sq()

    def test_one_elimination_per_span(self, monkeypatch, capsys):
        # d_s and d_w share the projections of each span, one pass each
        elims = count_calls(monkeypatch, "bareiss_pass", exact, heads)
        code = main(["metric", "--family", "e1-plus-ek", "--sigma", "res(2;1)",
                     "--tau", "all", "--n", "16", "--terms", "10"])
        capsys.readouterr()
        assert code == 0
        assert len(elims) == 2


class TestIntersectionChain:
    def test_dims_nonincreasing(self):
        fam = E1PlusEkFamily()
        dims, _ = intersection_chain(fam, parse_set("fin(2)"), 5, 8)
        assert all(b <= a for a, b in zip(dims, dims[1:]))

    def test_sigma_all_chain_collapses_to_h_sigma(self):
        fam = E1PlusEkFamily()
        dims, equal = intersection_chain(fam, parse_set("all"), 4, 8)
        assert equal

    def test_sigma_empty_chain_strictly_larger(self):
        # the truncated chain limit contains e_1 while H_empty is zero
        fam = E1PlusEkFamily()
        dims, equal = intersection_chain(fam, parse_set("none"), 4, 8)
        assert not equal
        assert dims[-1] > 0

    def test_depth_bound(self):
        with pytest.raises(ValueError):
            intersection_chain(E1PlusEkFamily(), parse_set("all"), 5, 4)

    @given(eventually_periodic_sets(), st.integers(1, 30), st.integers(1, 34),
           st.sampled_from([E1PlusEkFamily(), RandomFiniteFamily(6, 5, seed=1)]))
    @settings(max_examples=50, deadline=None)
    def test_nested_order_matches_the_sigma_m_blocks(self, sigma, n, depth, family):
        # the reference truncates each sigma_m, built by set algebra, and
        # takes what it adds as the next block; converge's m-max may exceed n
        last = family.truncation(n)
        blocks = [sigma.truncate(last)]
        placed = set(blocks[0])
        for m in range(depth, 0, -1):
            block = [k for k in union_sigma_m(sigma, m).truncate(last) if k not in placed]
            blocks.append(block)
            placed.update(block)
        assert topology._sigma_m_blocks(family, sigma, depth, n) == blocks

    @pytest.mark.parametrize("family, sigma, depth, n", [
        (DefectPairFamily(2), "res(2;1)", 8, 24),
        (RandomFiniteFamily(6, 5, seed=2, dual_style="perturbed"), "fin(1,2)", 3, 5),
    ], ids=["defect-pair", "random"])
    def test_counts_without_building_a_vector(self, monkeypatch, family, sigma, depth, n):
        # the dimensions are counts of indices: no vector, no elimination
        sigma = parse_set(sigma)
        expected = intersection_chain(family, sigma, depth, n)
        vectors = []
        monkeypatch.setattr(family, "vector", lambda k: vectors.append(k))
        elims = count_calls(monkeypatch, "bordered_elimination", exact, families)
        assert intersection_chain(family, sigma, depth, n) == expected
        assert vectors == elims == []


_CHAIN_FAMILIES = ["e1-plus-ek", "defect-pair(m=2)", "defect-pair(m=3)", "young(w=2)",
                   "finite-set(0,1,3)", "infinite-set(0,1,inf)"]
_CHAIN_SIGMAS = ["all", "none", "fin(1,4)", "res(3;1)", "all-2", "res(2;0)|fin(3)",
                 "~fin(2)", "res(3;0,2)&~fin(6)"]


@st.composite
def _chain_cases(draw):
    if draw(st.booleans()):
        family = parse_family(draw(st.sampled_from(_CHAIN_FAMILIES)))
        n = draw(st.integers(min_value=1, max_value=10))
    else:
        dim = draw(st.integers(min_value=1, max_value=6))
        count = draw(st.integers(min_value=1, max_value=dim))
        family = RandomFiniteFamily(dim, count, seed=draw(st.integers(0, 10 ** 6)),
                                    dual_style=draw(st.sampled_from(["span", "perturbed"])))
        n = draw(st.integers(min_value=1, max_value=count + 3))
    sigma = draw(st.one_of(
        st.sampled_from(_CHAIN_SIGMAS).map(parse_set),
        st.integers(0, 10 ** 6).map(lambda seed: random_eventually_periodic(random.Random(seed))),
    ))
    depth = draw(st.integers(min_value=1, max_value=n))
    return family, sigma, depth, n


@given(_chain_cases())
@settings(max_examples=150, deadline=None)
def test_intersection_chain_matches_iterated_intersection(case):
    assert intersection_chain(*case) == oracle_intersection_chain(*case)


@st.composite
def _convergence_cases(draw):
    family, sigma, _, n = draw(_chain_cases())
    n = min(n, 8)
    m_max = draw(st.integers(min_value=1, max_value=n + 3))
    K = draw(st.integers(min_value=1, max_value=10))
    return family, sigma, m_max, n, K, draw(st.integers(min_value=1, max_value=40))


@given(_convergence_cases())
@settings(max_examples=40, deadline=None)
def test_convergence_probe_matches_span_projections(case):
    assert convergence_probe(*case) == oracle_convergence(*case)


@given(_convergence_cases(), st.one_of(
    st.sampled_from(_CHAIN_SIGMAS).map(parse_set),
    st.integers(0, 10 ** 6).map(lambda seed: random_eventually_periodic(random.Random(seed))),
))
@settings(max_examples=40, deadline=None)
def test_projector_metrics_match_span_projections(case, tau):
    family, sigma, _, n, K, precision = case
    assert (projector_metrics(family, sigma, tau, n, K, precision)
            == oracle_projector_metrics(family, sigma, tau, n, K, precision))


class TestConvergenceProbe:
    def test_rho_and_pointwise_shrink(self):
        fam = E1PlusEkFamily()
        sigma = parse_set("none")
        rows, _ = convergence_probe(fam, sigma, 6, 12, 8, 32)
        rhos = [row["rho"] for row in rows]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))
        assert rhos == [rho(union_sigma_m(sigma, m), sigma) for m in range(1, 7)]
        for row in rows:
            assert len(row["pointwise"]) == 5
            assert all(iv.lo >= 0 for iv in row["pointwise"])

    def test_sigma_m_names_build_no_set(self, monkeypatch):
        # each row names its sigma_m from sigma, so the set algebra a probe
        # does is the same at every m-max
        fam, sigma = E1PlusEkFamily(), parse_set("res(3;1)")
        real, made = EventuallyPeriodicSet.make, []

        def make(*args, **kwargs):
            made.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(EventuallyPeriodicSet, "make", staticmethod(make))
        counts = []
        for m_max in (7, 300):
            made.clear()
            rows, _ = convergence_probe(fam, sigma, m_max, 12, 4, 16)
            counts.append(len(made))
            assert [row["sigma_m"] for row in rows] == [
                union_sigma_m(sigma, m).describe() for m in range(1, m_max + 1)]
        assert counts[0] == counts[1]

    def test_constant_sequence_is_tail_only(self):
        # sigma_m(all, m) = all, so every row equals the limit
        fam = E1PlusEkFamily()
        rows, limit = convergence_probe(fam, parse_set("all"), 3, 8, 6, 32)
        for row in rows:
            assert row["rho"] == 0
            assert row["ds_to_zero"] == limit
            assert all(iv == IntervalValue(Q(0), Q(0)) for iv in row["pointwise"])


def _arbitrary_projections(seed):
    """A stand-in for span_projections: seeded vectors unrelated to any span."""
    rng = random.Random(seed)

    def projections(self, primal, targets, digit_budget=None):
        return [SparseVector.from_pairs(
            (rng.randint(1, 12), Q(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(rng.randint(0, 4))) for _ in targets]
    return projections


def _monotone_table(seed):
    """A stand-in for span_dist_sq: per probe, seeded distances in
    [0, ||probe||^2] that fall from the first block to the last, so
    convergence_probe's monotone check passes; ties are frequent."""
    rng = random.Random(seed)

    def span_dist_sq(self, blocks, probes, taken=(), digit_budget=None):
        den = rng.choice([1, 2, 3, 64])
        columns = [sorted((p.norm_sq() * Q(rng.randint(0, den), den) for _ in blocks),
                          reverse=True) for p in probes]
        return [list(row) for row in zip(*columns)]
    return span_dist_sq


_SIGMAS = st.one_of(
    st.sampled_from(_CHAIN_SIGMAS).map(parse_set),
    st.integers(0, 10 ** 6).map(lambda seed: random_eventually_periodic(random.Random(seed))),
)


@given(_convergence_cases(), _SIGMAS, st.none() | st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_dw_lo_at_most_ds_hi(case, tau, seed):
    """By Cauchy-Schwarz, for any projections at all: with seed, the
    projections are arbitrary vectors."""
    family, sigma, _, n, K, precision = case
    with contextlib.ExitStack() as stack:
        if seed is not None:
            stack.enter_context(mock.patch.object(type(family), "span_projections",
                                                  _arbitrary_projections(seed)))
        d_s, d_w = projector_metrics(family, sigma, tau, n, K, precision)
    assert d_w.lo <= d_s.hi


class TestSemicontinuityProbe:
    @given(_convergence_cases(), st.none() | st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_every_row_at_or_above_the_limit(self, case, seed):
        """Each row's terms are at least the limit's once the distances
        pass the monotone check: with seed, the distance table is any
        table that passes it."""
        family = case[0]
        with contextlib.ExitStack() as stack:
            if seed is not None:
                stack.enter_context(mock.patch.object(type(family), "span_dist_sq",
                                                      _monotone_table(seed)))
            rows, limit = convergence_probe(*case)
        for row in rows:
            assert row["ds_to_zero"].hi >= limit.hi

    def test_given_rows_match_fresh_computation(self):
        # d_s(P_{sigma_m}, 0) and d_s(P_sigma, 0) from projections onto each span
        fam = E1PlusEkFamily()
        none = parse_set("none")
        for sig in ("none", "res(2;1)"):
            sigma = parse_set(sig)
            rows, limit = convergence_probe(fam, sigma, 5, 10, 6, 32)
            assert limit == projector_metrics(fam, sigma, none, 10, 6, 32)[0]
            for row in rows:
                fresh = projector_metrics(fam, union_sigma_m(sigma, row["m"]), none, 10, 6, 32)
                assert row["ds_to_zero"] == fresh[0]
