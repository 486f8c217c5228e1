"""Acceptance gate: ten certified criteria, one test (and one printed
pass/fail line) per criterion.

Every assertion below is an exact rational comparison; thresholds used by
the certification layer are configuration values and are asserted only as
such.  sympy never appears here: the oracles are closed-form values and
cross-checks between independent code paths.
"""
import itertools
import math
import random
import time
from fractions import Fraction

from conftest import (
    defect_truncated,
    dist_sq,
    interval_contains,
    oracle_rank,
    rho_partial,
    swap_move,
    union_sigma_m,
)
from defectlab.exact import SparseVector
from defectlab.heads import DefectPairFamily, E1PlusEkFamily, FiniteDefectSetFamily, YoungFamily
from defectlab.indexsets import EventuallyPeriodicSet, parse_set, rho
from defectlab.infiniteset import InfiniteDefectSetFamily
from defectlab.mixed import INCONCLUSIVE, classify_defect, witness_check
from defectlab.oracle import RandomFiniteFamily, hereditary_scan
from defectlab.topology import (
    convergence_probe,
    intersection_chain,
    projector_metrics,
)

Q = Fraction


def report(number, title):
    print(f"ACCEPTANCE {number:2d} {title}: PASS", flush=True)


def random_eps(rng):
    period = rng.randint(1, 4)
    residues = [r for r in range(period) if rng.random() < 0.5]
    added = [rng.randint(1, 12) for _ in range(rng.randint(0, 2))]
    return EventuallyPeriodicSet.make(period, residues, added, [])


ALL_FAMILIES = [
    ("e1-plus-ek", E1PlusEkFamily(), 50),
    ("young(w=0)", YoungFamily(0), 50),
    ("young(w=2)", YoungFamily(2), 50),
    ("young(w=5)", YoungFamily(5), 50),
    ("defect-pair(m=1)", DefectPairFamily(1), 50),
    ("defect-pair(m=2)", DefectPairFamily(2), 50),
    ("defect-pair(m=3)", DefectPairFamily(3), 50),
    ("finite-set(0,1,3)", FiniteDefectSetFamily((0, 1, 3)), 60),
    ("infinite-set(0,2,inf)", InfiniteDefectSetFamily((0, 2)), 30),
]


def test_criterion_01_biorthogonality():
    for name, family, n in ALL_FAMILIES:
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                expect = Q(1) if j == k else Q(0)
                assert family.vector(j).dot(family.dual(k)) == expect, (name, j, k)
    report(1, "biorthogonality is the exact identity for every family")


def test_criterion_02_swap_invariance():
    started = time.time()
    rng = random.Random(2024)
    instances = 500
    checks = 0
    for _ in range(instances):
        dim = rng.randint(2, 8)
        count = rng.randint(1, dim)
        family = RandomFiniteFamily(dim, count, seed=rng.randrange(1 << 30),
                                    dual_style=rng.choice(["span", "perturbed"]))
        base_members = frozenset(
            k for k in range(1, count + 1) if rng.random() < 0.5)
        sigma = EventuallyPeriodicSet.finite(base_members)
        base = defect_truncated(family, sigma, count)
        # every chain of <= 3 swaps ends at a toggle set of size <= 3, and
        # conversely each such toggle set is reached by some chain
        for size in (1, 2, 3):
            for toggles in itertools.combinations(range(1, count + 1), size):
                endpoint = EventuallyPeriodicSet.finite(
                    base_members ^ frozenset(toggles))
                checks += 1
                assert defect_truncated(family, endpoint, count) == base
        # spot-check that stepwise swap_move reaches the same endpoints
        for toggles in itertools.combinations(range(1, count + 1),
                                              min(3, count)):
            cur = sigma
            for k0 in toggles:
                direction = "out" if cur.contains(k0) else "in"
                cur = swap_move(cur, k0, direction)
            assert cur == EventuallyPeriodicSet.finite(
                base_members ^ frozenset(toggles))
    elapsed = time.time() - started
    assert checks >= 3000
    assert elapsed < 60
    report(2, f"defect invariant under {checks} swaps/chains on "
              f"{instances} systems ({elapsed:.1f}s)")


def test_criterion_03_finite_dimensional_hereditary_completeness():
    rng = random.Random(7)
    for _ in range(100):
        dim = rng.randint(1, 6)
        family = RandomFiniteFamily(dim, dim, seed=rng.randrange(1 << 30),
                                    dual_style=rng.choice(["span", "perturbed"]))
        assert hereditary_scan(family) == 0
    report(3, "100 random bases: all 2^D mixed selections have defect 0")


def test_criterion_04_defect_pair_verdicts():
    for m in (1, 2, 3):
        family = DefectPairFamily(m)
        for sigma_text in ("none", "fin(1,4,9)"):
            rep = classify_defect(family, parse_set(sigma_text), [10, 20, 30, 40])
            assert rep.verdict == m, (m, sigma_text, rep.verdict)
            assert rep.witness_dim == m
            assert rep.exceptional_indices <= frozenset({1, 4, 9})

    # sigma = all, m = 1: the exact 1/(n+1) law
    rep = classify_defect(DefectPairFamily(1), parse_set("all"), [2, 9, 49, 99],
                          decay_threshold=Q(1, 50))
    assert rep.verdict == 0
    table = {(label, n): d for label, n, d in rep.decay_table}
    assert table[("probe[1]", 2)] == Q(1, 3)
    assert table[("probe[1]", 9)] == Q(1, 10)
    assert table[("probe[1]", 99)] == Q(1, 100)

    # sigma = all, m in {2, 3}: strict monotone decay, verdict 0 or
    # inconclusive while trending to 0 (witness rank stays 0)
    for m in (2, 3):
        rep = classify_defect(DefectPairFamily(m), parse_set("all"),
                              [15, 30, 45, 60])
        assert rep.verdict in (0, INCONCLUSIVE)
        assert rep.witness_dim == 0
        per_probe = {}
        for label, n, d in rep.decay_table:
            per_probe.setdefault(label, []).append(d)
        for vals in per_probe.values():
            assert all(b < a for a, b in zip(vals, vals[1:]))

    # at the paper's scale m = 3 certifies 0 with the default threshold 1/100
    # and the CLI's default n_list for --n 1200
    rep = classify_defect(DefectPairFamily(3), parse_set("all"), range(200, 1201, 200))
    assert rep.verdict == 0
    report(4, "defect-pair verdicts m / 0 with the exact 1/(n+1) law")


def test_criterion_05_finite_defect_set():
    family = FiniteDefectSetFamily((0, 1, 3))
    # residue class of indices k with k-1 ≡ j (mod 3) carries defect k_j;
    # the 0-defect class decays polynomially, so its certification uses a
    # documented looser threshold (still an exact comparison)
    cases = [
        ("res(3;1)", 0, Q(1, 2)),
        ("res(3;2)", 1, Q(1, 100)),
        ("res(3;0)", 3, Q(1, 100)),
    ]
    realized = set()
    for sigma_text, expected, threshold in cases:
        sigma = parse_set(sigma_text)
        rep = classify_defect(family, sigma, [15, 30, 45, 60],
                              decay_threshold=threshold)
        assert rep.verdict == expected, (sigma_text, rep.verdict)
        assert rep.exceptional_indices == frozenset()
        witnesses = family.witness_space(sigma, 60)
        assert witnesses == [SparseVector.unit(i) for i in range(1, expected + 1)]
        assert oracle_rank(witnesses, family.ambient(60)) == expected
        realized.add(rep.verdict)
    assert realized == {0, 1, 3}

    # at the paper's scale the 0-defect class certifies with the default
    # threshold 1/100 and the CLI's default n_list for --n 3600
    rep = classify_defect(family, parse_set("res(3;1)"), range(600, 3601, 600))
    assert rep.verdict == 0
    report(5, "finite-set {0,1,3}: realized verdicts are exactly {0, 1, 3}")


def test_criterion_06_infinite_defect_set():
    for finite_part in [(0,), (0, 2)]:
        family = InfiniteDefectSetFamily(finite_part)
        sigma = parse_set("fin(1,2,3)")

        # witnesses f_j + x' pass exact orthogonality for j <= 5 at n = 30
        witnesses = family.witness_space(sigma, 30, window=5)
        assert len(witnesses) == 5
        assert witness_check(family, sigma, 30, witnesses) == frozenset()

        # witness rank grows with the window: evidence of verdict infinity
        narrow = oracle_rank(family.witness_space(sigma, 30, window=5), family.ambient(30))
        wide = oracle_rank(family.witness_space(sigma, 30, window=10), family.ambient(30))
        assert narrow == 5 and wide == 10
        rep = classify_defect(family, sigma, [10, 20, 30])
        assert rep.verdict == math.inf

        # sigma = all: completeness side, dist^2(f_1, span) strictly drops
        gens = {n: [family.vector(k) for k in range(1, n + 1)]
                for n in (10, 20, 30)}
        f1 = SparseVector.unit(1)
        distances = [dist_sq(f1, gens[n]) for n in (10, 20, 30)]
        assert distances[0] > distances[1] > distances[2] > 0
    report(6, "infinite-set witnesses certify unbounded rank; "
              "sigma=all decays strictly")


def test_criterion_07_rho_closed_form_and_axioms():
    rng = random.Random(41)
    pairs = [(random_eps(rng), random_eps(rng)) for _ in range(200)]
    for a, b in pairs:
        exact = rho(a, b)
        partial = rho_partial(a, b, 40)
        assert 0 <= exact - partial <= Q(1, 2 ** 39)
    triples = [(random_eps(rng), random_eps(rng), random_eps(rng))
               for _ in range(100)]
    for a, b, c in triples:
        assert rho(a, b) >= 0
        assert (rho(a, b) == 0) == (a == b)
        assert rho(a, b) == rho(b, a)
        assert rho(a, c) <= rho(a, b) + rho(b, c)
    report(7, "rho closed form matches 40-term sums; metric axioms exact")


def test_criterion_08_certified_metric_enclosures():
    family = E1PlusEkFamily()
    rng = random.Random(8)
    n, K, prec = 10, 8, 32
    bound = Q(2, 2 ** K) + Q(K, 2 ** prec)
    for _ in range(50):
        sigma, tau = random_eps(rng), random_eps(rng)
        ds, dw = projector_metrics(family, sigma, tau, n, K, prec)
        assert ds.width() <= bound
        assert dw.width() <= bound
        assert dw.lo <= ds.hi
        fine_ds, fine_dw = projector_metrics(family, sigma, tau, n, K, 2 * prec)
        assert interval_contains(ds, fine_ds)
        assert interval_contains(dw, fine_dw)
    report(8, "d_s/d_w widths within bound, nested under precision doubling")


def test_criterion_09_discontinuity_at_incomplete_mixed_system():
    family = E1PlusEkFamily()
    empty = parse_set("none")

    # rho(sigma_m, empty) = 2^-m -> 0, exactly
    for m in range(1, 20):
        assert rho(union_sigma_m(empty, m), empty) == Q(1, 2 ** m)

    # dist^2(e_1, span{x_k : m < k <= n}) = 1/(n - m + 1), exactly
    e1 = SparseVector.unit(1)
    samples = [(1, 2), (1, 10), (1, 60), (2, 9), (5, 20), (10, 40),
               (30, 60), (59, 60)]
    for m, n in samples:
        gens = [family.vector(k) for k in range(m + 1, n + 1)]
        assert dist_sq(e1, gens) == Q(1, n - m + 1), (m, n)

    # so the chain limit keeps e_1 while H_empty is trivial
    dims, equal = intersection_chain(family, empty, 6, 20)
    assert not equal and dims[-1] > 0

    # while sigma = all passes the completeness decay
    rep = classify_defect(family, parse_set("all"), [2, 9, 49, 99],
                          decay_threshold=Q(1, 50))
    assert rep.verdict == 0
    report(9, "projector map discontinuous at the incomplete mixed system")


def test_criterion_10_semicontinuity_probe():
    configurations = [
        (E1PlusEkFamily(), "none", 10),
        (E1PlusEkFamily(), "all", 10),
        (E1PlusEkFamily(), "fin(1,4,9)", 10),
        (YoungFamily(2), "none", 10),
        (YoungFamily(2), "all", 10),
        (YoungFamily(5), "res(2;0)", 10),
        (DefectPairFamily(1), "all", 10),
        (DefectPairFamily(2), "none", 10),
        (DefectPairFamily(3), "fin(1,4,9)", 10),
        (FiniteDefectSetFamily((0, 1, 3)), "res(3;0)", 10),
        (FiniteDefectSetFamily((0, 1, 3)), "res(3;1)", 10),
        (FiniteDefectSetFamily((0, 1, 3)), "res(3;2)", 10),
        (InfiniteDefectSetFamily((0, 2)), "fin(1,2,3)", 10),
        (InfiniteDefectSetFamily((0,)), "all", 10),
        (RandomFiniteFamily(5, 5, seed=11), "fin(2,4)", 5),
    ]
    for family, sigma_text, n in configurations:
        # every row at or above the limit leaves no certified violation
        rows, limit = convergence_probe(family, parse_set(sigma_text), 4, n, 6, 32)
        for row in rows:
            assert row["ds_to_zero"].hi >= limit.hi, (family.descriptor(), sigma_text)
    report(10, "no certified lower-semicontinuity violation anywhere")
