"""Family generators: exact construction values, biorthogonality, predictions."""
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_stored_form,
    count_calls,
    dist_sq,
    eventually_periodic_sets,
    oracle_random_family,
    oracle_rank,
    replay_random_family,
    to_dense,
)
from defectlab import oracle
from defectlab.exact import SparseVector
from defectlab.families import (
    FamilySyntaxError,
    MalformedDefectSet,
    UnsupportedFamily,
    parse_family,
)
from defectlab.heads import DefectPairFamily, E1PlusEkFamily, FiniteDefectSetFamily, YoungFamily
from defectlab.indexsets import MAX_PERIOD, EventuallyPeriodicSet, parse_set
from defectlab.infiniteset import InfiniteDefectSetFamily
from defectlab.oracle import RandomFiniteFamily

Q = Fraction


def dense(v, ambient):
    return to_dense(v, ambient)


def assert_biorthogonal(family, n):
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            expect = Q(1) if j == k else Q(0)
            assert family.vector(j).dot(family.dual(k)) == expect, (j, k)


class TestE1PlusEk:
    def test_worked_vectors(self):
        fam = E1PlusEkFamily()
        assert dense(fam.vector(1), 3) == [Q(1), Q(1), Q(0)]
        assert dense(fam.vector(2), 3) == [Q(1), Q(0), Q(1)]
        assert fam.dual(1) == SparseVector.unit(2)
        assert fam.dual(2) == SparseVector.unit(3)
        assert fam.index_offset == 1

    def test_biorthogonal_identity(self):
        assert_biorthogonal(E1PlusEkFamily(), 3)

    def test_dist_worked_example(self):
        fam = E1PlusEkFamily()
        gens = [fam.vector(1), fam.vector(2)]
        assert dist_sq(SparseVector.unit(1), gens) == Q(1, 3)

    def test_predicted_defect(self):
        fam = E1PlusEkFamily()
        assert fam.predicted_defect(parse_set("fin(1,2)")) == 1
        assert fam.predicted_defect(parse_set("all")) == 0
        assert fam.witness_space(parse_set("fin(2)"), 5) == [SparseVector.unit(1)]
        assert fam.witness_space(parse_set("all"), 5) == []


class TestYoung:
    def test_worked_vectors_width_2(self):
        fam = YoungFamily(2)
        # f-block occupies coordinates 1..2, e_k at 2+k
        assert dense(fam.vector(1), 5) == [Q(2), Q(0), Q(1), Q(0), Q(0)]
        assert dense(fam.vector(2), 5) == [Q(4), Q(2), Q(0), Q(1), Q(0)]
        assert dense(fam.vector(3), 5) == [Q(8), Q(8, 3), Q(0), Q(0), Q(1)]

    def test_biorthogonal_pairings(self):
        fam = YoungFamily(2)
        assert fam.vector(2).dot(fam.dual(3)) == 0
        assert fam.vector(3).dot(fam.dual(3)) == 1
        assert_biorthogonal(fam, 6)

    def test_width_zero_is_orthonormal(self):
        fam = YoungFamily(0)
        for k in range(1, 5):
            assert fam.vector(k) == SparseVector.unit(k)

    def test_predictions(self):
        fam = YoungFamily(2)
        assert fam.predicted_defect(parse_set("fin(3)")) == 2
        assert fam.predicted_defect(parse_set("res(2;0)")) == 0
        assert len(fam.witness_space(parse_set("none"), 10)) == 2


class TestDefectPair:
    def test_worked_vectors(self):
        fam = DefectPairFamily(2)
        assert dense(fam.vector(1), 3) == [Q(1), Q(1), Q(1)]
        assert dense(fam.vector(3), 5) == [Q(1), Q(3), Q(0), Q(0), Q(1)]

    def test_m1_matches_e1_plus_ek(self):
        pair = DefectPairFamily(1)
        base = E1PlusEkFamily()
        for k in range(1, 6):
            assert pair.vector(k) == base.vector(k)
            assert pair.dual(k) == base.dual(k)

    def test_biorthogonal(self):
        for m in (1, 2, 3):
            assert_biorthogonal(DefectPairFamily(m), 6)

    def test_predictions_and_witnesses(self):
        fam = DefectPairFamily(3)
        assert fam.predicted_defect(parse_set("fin(7)")) == 3
        assert fam.predicted_defect(parse_set("res(5;2)")) == 0
        fam2 = DefectPairFamily(2)
        assert fam2.witness_space(parse_set("none"), 8) == [
            SparseVector.unit(1), SparseVector.unit(2),
        ]

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            DefectPairFamily(0)


class TestFiniteDefectSet:
    def test_worked_vectors(self):
        fam = FiniteDefectSetFamily((0, 1, 3))
        assert dense(fam.vector(1), 4) == [Q(1), Q(1), Q(1), Q(1)]
        assert dense(fam.vector(2), 5) == [Q(0), Q(2), Q(4), Q(0), Q(1)]
        assert fam.vector(3) == SparseVector.unit(6)
        assert dense(fam.vector(4), 7) == [Q(1), Q(4), Q(16), Q(0), Q(0), Q(0), Q(1)]

    def test_biorthogonal(self):
        assert_biorthogonal(FiniteDefectSetFamily((0, 1, 3)), 6)

    def test_class_assignment(self):
        fam = FiniteDefectSetFamily((0, 1, 3))
        assert [fam.class_of(k) for k in range(1, 7)] == [0, 1, 2, 0, 1, 2]

    def test_predicted_defects_per_class(self):
        fam = FiniteDefectSetFamily((0, 1, 3))
        # class j collects indices k ≡ j+1 (mod 3); its defect is k_j
        assert fam.predicted_defect(parse_set("res(3;1)")) == 0
        assert fam.predicted_defect(parse_set("res(3;2)")) == 1
        assert fam.predicted_defect(parse_set("res(3;0)")) == 3
        assert fam.predicted_defect(parse_set("fin(1,2,3)")) == 3
        assert fam.predicted_defect(parse_set("all")) == 0
        # res(9973;1) meets every class mod 4, although the intersection with
        # a class has period 4 * 9973, above MAX_PERIOD
        assert fam.predicted_defect(parse_set("res(9973;1)")) == 0
        assert fam.predicted_defect(parse_set("res(9996;2)+3")) == 1

    @given(st.lists(st.integers(1, 12), max_size=7, unique=True), eventually_periodic_sets())
    @settings(max_examples=100, deadline=None)
    def test_leading_class_is_the_first_class_met_infinitely(self, positive, sigma):
        # the reference intersects sigma with each class's residue set
        fam = FiniteDefectSetFamily((0, *sorted(positive)))
        period = fam.s + 1
        assume(math.lcm(sigma.period, period) <= MAX_PERIOD)
        expect = next(
            (j for j in range(period)
             if not sigma.intersection(
                 EventuallyPeriodicSet.residue_class(period, [(j + 1) % period])).is_finite()),
            fam.s)
        assert fam._leading_class(sigma) == expect

    def test_witness_bases(self):
        fam = FiniteDefectSetFamily((0, 1, 3))
        assert fam.witness_space(parse_set("res(3;1)"), 30) == []
        assert fam.witness_space(parse_set("res(3;2)"), 30) == [SparseVector.unit(1)]
        assert fam.witness_space(parse_set("res(3;0)"), 30) == [
            SparseVector.unit(1), SparseVector.unit(2), SparseVector.unit(3),
        ]

    def test_rejects_malformed_sets(self):
        with pytest.raises(MalformedDefectSet):
            FiniteDefectSetFamily((1, 3))
        with pytest.raises(MalformedDefectSet):
            FiniteDefectSetFamily((0, 3, 3))
        with pytest.raises(MalformedDefectSet):
            FiniteDefectSetFamily(())


def _often(sigma, keep=lambda k: True):
    """Does sigma meet {k : keep(k)} infinitely often?  The exceptions of
    the sets tested below end by 5 and every period involved divides 6,
    so one window of 12 indices past 60 decides it."""
    return any(sigma.contains(k) and keep(k) for k in range(61, 73))


def _young(w):
    def head(k):
        return {j: Q(2 ** k, k ** (j - 1)) for j in range(1, min(k, w) + 1)}
    return w, head, lambda sigma: 0 if _often(sigma) else w


def _defect_pair(m):
    def head(k):
        return {j: Q(k ** (j - 1)) for j in range(1, m + 1)}
    return m, head, lambda sigma: 0 if _often(sigma) else m


def _finite_set(S):
    classes = len(S)

    def head(k):
        return {l: Q(k ** (l - 1)) for l in range(S[(k - 1) % classes] + 1, S[-1] + 1)}

    def defect(sigma):
        # x_k is in class j when k = j + 1 (mod s + 1); the defect is k_j
        # of the first class sigma meets infinitely often, else k_s
        return next((S[j] for j in range(classes)
                     if _often(sigma, lambda k: (k - 1) % classes == j)), S[-1])
    return S[-1], head, defect


# descriptor -> (head width, head coefficients of x_k, defect of sigma),
# written out from the paper's constructions
HEAD_CLOSED_FORMS = {
    "e1-plus-ek": (1, lambda k: {1: Q(1)}, lambda sigma: 0 if _often(sigma) else 1),
    **{f"young(w={w})": _young(w) for w in range(4)},
    **{f"defect-pair(m={m})": _defect_pair(m) for m in range(1, 4)},
    **{"finite-set(%s)" % ",".join(map(str, S)): _finite_set(S)
       for S in [(0,), (0, 1, 3), (0, 2, 5)]},
}


@pytest.mark.parametrize("descriptor", list(HEAD_CLOSED_FORMS))
def test_head_layout_matches_closed_forms(descriptor):
    """x_k = head coefficients + e_{head+k}, x_k* = e_{head+k}, ambient
    head + n, and the witnesses are the first defect(sigma) head units."""
    head, head_coeffs, defect = HEAD_CLOSED_FORMS[descriptor]
    fam = parse_family(descriptor)
    for k in range(1, 26):
        pairs = list(head_coeffs(k).items()) + [(head + k, Q(1))]
        assert fam.vector(k) == SparseVector.from_pairs(pairs), k
        assert fam.dual(k) == SparseVector.unit(head + k), k
        assert fam.ambient(k) == head + k
    for text in ("none", "all", "fin(2,5)", "res(3;2)"):
        sigma = parse_set(text)
        expect = [SparseVector.unit(j) for j in range(1, defect(sigma) + 1)]
        for n in range(1, 26):
            assert fam.witness_space(sigma, n) == expect, (text, n)


class TestInfiniteDefectSet:
    def test_superscript_pattern(self):
        fam = InfiniteDefectSetFamily((0,))
        assert [fam.superscript(n) for n in range(1, 7)] == [0, 0, 1, 0, 1, 2]
        assert [fam.superscript(n) for n in range(7, 11)] == [0, 1, 2, 3]

    def test_worked_vectors(self):
        fam = InfiniteDefectSetFamily((0,))
        # interleaved layout: f_1 at coordinate 1, e_1 at coordinate 2
        assert fam.vector(1) == SparseVector.from_pairs([(1, Q(2)), (2, Q(1))])
        fam2 = InfiniteDefectSetFamily((0, 2))
        # x_3 has superscript 1, so k_1 = 2 and only f_3 survives
        assert fam2.vector(3) == SparseVector.from_pairs([(5, Q(8, 9)), (6, Q(1))])

    def test_biorthogonal(self):
        assert_biorthogonal(InfiniteDefectSetFamily((0, 2)), 8)

    def test_witness_for_sigma_fin1(self):
        fam = InfiniteDefectSetFamily((0,))
        witnesses = fam.witness_space(parse_set("fin(1)"), 10, window=1)
        # f_1 - 2 e_1 kills the only sigma-member x_1 = 2 f_1 + e_1
        assert witnesses == [SparseVector.from_pairs([(1, Q(1)), (2, Q(-2))])]

    def test_predicted_defects(self):
        fam = InfiniteDefectSetFamily((0, 2))
        assert fam.predicted_defect(parse_set("fin(1,2,3)")) == math.inf
        assert fam.predicted_defect(parse_set("all")) == 0
        assert fam.witnesses_unbounded(parse_set("fin(2)"))
        assert not fam.witnesses_unbounded(parse_set("all"))

    @given(st.sampled_from([(0,), (0, 2), (0, 1, 3), (0, 1, 2, 5)]), st.integers(1, 12),
           st.sets(st.integers(0, 11)), st.sets(st.integers(1, 5000), max_size=4),
           st.sets(st.integers(1, 5000), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_finitely_many_changes_keep_the_defect(self, finite_part, period, residues,
                                                   added, removed):
        fam = InfiniteDefectSetFamily(finite_part)
        base = EventuallyPeriodicSet.make(period, residues)
        moved = EventuallyPeriodicSet.make(period, residues, added, removed - added)
        assert fam.predicted_defect(moved) == fam.predicted_defect(base)

    def test_far_exception_is_decided_at_once(self):
        # past the parser's element bound, as an API caller may build it
        fam = parse_family("infinite-set(0,1,inf)")
        sigma = EventuallyPeriodicSet.make(1, (0,), removed=[10 ** 16])
        assert fam.predicted_defect(sigma) == 0
        assert fam.predicted_defect(sigma.complement()) == math.inf

    def test_requires_infinity_marker(self):
        with pytest.raises(MalformedDefectSet):
            parse_family("infinite-set(0,2)")


class TestRandomFinite:
    def test_deterministic_per_seed(self):
        a = RandomFiniteFamily(5, 3, seed=42)
        b = RandomFiniteFamily(5, 3, seed=42)
        for k in range(1, 4):
            assert a.vector(k) == b.vector(k)
            assert a.dual(k) == b.dual(k)

    def test_biorthogonal_both_styles(self):
        for style in ("span", "perturbed"):
            fam = RandomFiniteFamily(6, 4, seed=7, dual_style=style)
            assert_biorthogonal(fam, 4)

    def test_independent(self):
        fam = RandomFiniteFamily(6, 5, seed=1)
        assert oracle_rank([fam.vector(k) for k in range(1, 6)], 6) == 5

    def test_count_exceeds_dim_rejected(self):
        with pytest.raises(ValueError):
            RandomFiniteFamily(3, 4, seed=0)

    def test_no_defect_prediction(self):
        fam = RandomFiniteFamily(4, 4, seed=0)
        with pytest.raises(UnsupportedFamily):
            fam.predicted_defect(parse_set("none"))

    def test_keywords_and_pickle(self):
        fam = RandomFiniteFamily(dim=5, count=3, seed=4, dual_style="perturbed")
        assert (fam.kind, fam.index_offset) == ("random", 0)
        assert (fam.truncation(2), fam.truncation(5)) == (2, 3)
        copy = pickle.loads(pickle.dumps(fam))
        assert copy.descriptor() == fam.descriptor()
        for k in range(1, 4):
            assert (copy.vector(k), copy.dual(k)) == (fam.vector(k), fam.dual(k))


# (dim, count, seed): every dim 0..9 and count 0..dim on five seeds, and
# four seeds whose first draw of vectors is dependent, so the family draws
# again: random(d=1,n=1,seed=9), (2,2,0), (3,3,20) and (6,6,154).
_RANDOM_DRAWS = [(dim, count, seed) for dim in range(10) for count in range(dim + 1)
                 for seed in range(5)] + [(1, 1, 9), (2, 2, 0), (3, 3, 20), (6, 6, 154)]


@pytest.mark.parametrize("style", ["span", "perturbed"])
def test_integer_build_matches_the_fraction_build(monkeypatch, style):
    """Every draw equals the build in plain Fraction arithmetic (G^-1 by
    Gauss-Jordan, one Fraction sum per dual, the shift's part orthogonal
    to the span), every
    entry is a Fraction, and every vector is in the stored form that its
    entries give."""
    for dim, count, seed in _RANDOM_DRAWS:
        fam = RandomFiniteFamily(dim, count, seed=seed, dual_style=style)
        vectors, duals = replay_random_family(dim, count, seed, style)
        assert (fam._vectors, fam._duals) == (vectors, duals), (dim, count, seed)
        for v in fam._vectors + fam._duals:
            assert all(type(x) is Fraction for _, x in v.entries)
            assert_stored_form(v)
            assert SparseVector.from_pairs(v.entries) == v
    solves = count_calls(monkeypatch, "bareiss_pass", oracle)
    units = count_calls(monkeypatch, "unit", SparseVector)
    for dim, count, seed in _RANDOM_DRAWS[-4:]:
        solves.clear()
        RandomFiniteFamily(dim, count, seed=seed, dual_style=style)
        assert len(solves) == 2  # one Gram solve per draw
    for dim, count, seed in _RANDOM_DRAWS:
        RandomFiniteFamily(dim, count, seed=seed, dual_style=style)
    assert units == []  # no unit probe: the border is V itself


@pytest.mark.parametrize("style", ["span", "perturbed"])
def test_random_build_matches_sympy(style):
    """The span duals are the rows of (x x^T)^-1 x and a perturbed dual adds
    (I - P) r for an integer vector r, retries included."""
    for dim, count, seed in _RANDOM_DRAWS + _RANDOM_DRAWS[-4:]:
        fam = RandomFiniteFamily(dim, count, seed=seed, dual_style=style)
        assert (fam._vectors, fam._duals) == oracle_random_family(dim, count, seed, style)


def test_perturbed_draw_makes_one_elimination(monkeypatch):
    """A perturbed draw with count < dim reads the complement off its one
    Gram solve: one `bareiss_pass`."""
    solves = count_calls(monkeypatch, "bareiss_pass", oracle)
    fam = RandomFiniteFamily(9, 4, seed=123, dual_style="perturbed")
    assert len(solves) == 1
    assert fam._duals != RandomFiniteFamily(9, 4, seed=123)._duals


def test_perturbed_duals_add_a_complement_vector():
    """For every perturbed draw with dim > count, x_k* minus the span dual
    is orthogonal to every x_j, <x_i, x_k*> = delta_ik exactly, and the
    duals equal the Fraction build.  With dim = count the span is the
    whole space, so (I - P) r = 0 and the duals are the span duals."""
    moved = 0
    for dim, count, seed in _RANDOM_DRAWS:
        fam = RandomFiniteFamily(dim, count, seed=seed, dual_style="perturbed")
        span = RandomFiniteFamily(dim, count, seed=seed)
        if dim == count:
            assert fam._duals == span._duals, (dim, seed)
            continue
        xs = fam.vectors(range(1, count + 1))
        for k in range(1, count + 1):
            shift = fam.dual(k) - span.dual(k)
            assert all(x.dot(shift) == 0 for x in xs), (dim, count, seed, k)
            assert [x.dot(fam.dual(k)) for x in xs] == [int(i == k) for i in range(1, count + 1)]
            moved += bool(shift.coords)
        assert fam._duals == replay_random_family(dim, count, seed, "perturbed")[1]
    assert moved


# the ranges of the oracle's batched draws: entries, shifts and flips
_DRAW_RANGES = [(-3, 3), (-2, 2)] + [(1, c) for c in range(1, 9)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64), st.sampled_from(_DRAW_RANGES), st.integers(0, 80))
def test_randints_draws_as_randint(seed, bounds, count):
    """The sampler gives randint's values in randint's order and leaves the
    generator where randint leaves it."""
    ours, theirs = random.Random(seed), random.Random(seed)
    assert oracle._randints(ours, *bounds, count) == [theirs.randint(*bounds)
                                                      for _ in range(count)]
    assert ours.getrandbits(32) == theirs.getrandbits(32)


class TestDescriptorGrammar:
    def test_round_trip(self):
        for text in [
            "e1-plus-ek",
            "young(w=2)",
            "defect-pair(m=3)",
            "finite-set(0,1,3)",
            "infinite-set(0,2,inf)",
            "random(d=5,n=3,seed=9,dual=perturbed)",
        ]:
            fam = parse_family(text)
            assert parse_family(fam.descriptor()).descriptor() == fam.descriptor()

    def test_errors(self):
        with pytest.raises(FamilySyntaxError):
            parse_family("nope(m=1)")
        with pytest.raises(FamilySyntaxError):
            parse_family("young(w=two)")
        with pytest.raises(FamilySyntaxError):
            parse_family("defect-pair")
        with pytest.raises(MalformedDefectSet):
            parse_family("finite-set(1,2)")
        with pytest.raises(MalformedDefectSet):
            parse_family("infinite-set(0,2)")

    @pytest.mark.parametrize("text, named", [
        ("random(d=3,n=2,sede=4)", "'sede=4'"),
        ("young(w=1,bogus=3)", "'bogus=3'"),
        ("e1-plus-ek(m=7)", "'m=7'"),
        ("e1-plus-ek(5)", "'5'"),
        ("defect-pair(m=2,w=1)", "'w=1'"),
        ("young(w=1,w=2)", "'w'"),
    ])
    def test_rejects_arguments_a_family_does_not_take(self, text, named):
        with pytest.raises(FamilySyntaxError, match=named):
            parse_family(text)
