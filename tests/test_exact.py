"""Exact linear algebra: worked values, sympy oracles, algebraic laws."""
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_stored_form,
    combination,
    complement_basis,
    dist_sq,
    independent_subset,
    intersect,
    oracle_dist_sq,
    oracle_greedy_kept,
    oracle_intersection_dim,
    oracle_nullspace,
    oracle_nullspace_dim,
    oracle_project,
    oracle_rank,
    random_sparse_vector,
    to_dense,
)
from defectlab.exact import (
    BudgetExceeded,
    SparseVector,
    bordered_elimination,
    project_many,
)
from defectlab.families import parse_family

Q = Fraction

E1 = SparseVector.unit(1)


def vec(*values):
    return SparseVector.from_pairs([(i + 1, Q(v)) for i, v in enumerate(values)])


class TestSparseVector:
    def test_from_pairs_merges_and_drops_zeros(self):
        v = SparseVector.from_pairs([(3, Q(1)), (3, Q(-1)), (1, Q(2))])
        assert v.entries == ((1, Q(2)),)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            SparseVector.from_pairs([(0, Q(1))])

    def test_dot_and_norm(self):
        v = vec(1, 2, 3)
        w = vec(0, 1, -1)
        assert v.dot(w) == Q(-1)
        assert v.norm_sq() == Q(14)

    def test_add_and_sub(self):
        v = vec(1, 2)
        w = vec(3, -2)
        assert (v + w).entries == ((1, Q(4)),)
        assert not (v - v).entries
        assert (v - w).entries == ((1, Q(-2)), (2, Q(4)))

    def test_to_dense_bounds(self):
        with pytest.raises(ValueError):
            to_dense(vec(0, 0, 1), 2)

    def test_value_semantics_and_pickle(self):
        v = vec(Q(1, 2), 0, 3)
        assert pickle.dumps(v) == pickle.dumps(vec(Q(1, 2), 0, 3))
        assert v == vec(Q(1, 2), 0, 3) and hash(v) == hash(vec(Q(1, 2), 0, 3))
        assert v != vec(Q(1, 2), 0, 2) and v != v.entries
        assert repr(v) == "SparseVector(entries=((1, Fraction(1, 2)), (3, Fraction(3, 1))))"
        assert pickle.loads(pickle.dumps(v)) == v


def rank(vectors):
    """dim span(vectors): the number of generators the elimination keeps."""
    return len(bordered_elimination(vectors).kept)


class TestRank:
    def test_rank_matches_sympy_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(40):
            ambient = rng.randint(1, 7)
            vectors = [random_sparse_vector(rng, ambient) for _ in range(rng.randint(1, 7))]
            assert rank(vectors) == oracle_rank(vectors, ambient)

    def test_empty_rank(self):
        assert rank([]) == 0

    def test_duplicated_rows(self):
        v = vec(1, 2, 3)
        assert rank([v, v, vec(5, 10, 15)]) == 1


class TestProjection:
    def test_dist_worked_example(self):
        # span{e1+e2, e1+e3}: squared distance of e1 is 1/3
        gens = [vec(1, 1, 0), vec(1, 0, 1)]
        assert dist_sq(E1, gens) == Q(1, 3)

    def test_projection_coefficients_residual_orthogonal(self):
        rng = random.Random(3)
        for _ in range(25):
            ambient = rng.randint(1, 6)
            gens = independent_subset(
                [random_sparse_vector(rng, ambient) for _ in range(rng.randint(1, 5))]
            )
            v = random_sparse_vector(rng, ambient)
            [p] = project_many([v], gens)
            for g in gens:
                assert (v - p).dot(g) == 0

    def test_project_idempotent(self):
        gens = [vec(1, 1, 0), vec(1, 0, 1)]
        [p] = project_many([vec(2, -1, 5)], gens)
        assert project_many([p], gens) == [p]

    def test_pythagoras(self):
        rng = random.Random(5)
        for _ in range(25):
            ambient = rng.randint(1, 6)
            gens = [random_sparse_vector(rng, ambient) for _ in range(rng.randint(1, 5))]
            v = random_sparse_vector(rng, ambient)
            [p] = project_many([v], gens)
            assert v.norm_sq() == p.norm_sq() + (v - p).norm_sq()
            assert dist_sq(v, gens) == (v - p).norm_sq()

    def test_dist_matches_sympy(self):
        rng = random.Random(13)
        for _ in range(20):
            ambient = rng.randint(1, 5)
            gens = [random_sparse_vector(rng, ambient) for _ in range(rng.randint(1, 4))]
            v = random_sparse_vector(rng, ambient)
            assert dist_sq(v, gens) == oracle_dist_sq(v, gens, ambient)

    def test_dist_monotone_in_generators(self):
        rng = random.Random(17)
        for _ in range(20):
            ambient = rng.randint(2, 6)
            gens = [random_sparse_vector(rng, ambient) for _ in range(4)]
            v = random_sparse_vector(rng, ambient)
            d_small = dist_sq(v, gens[:2])
            d_large = dist_sq(v, gens)
            assert d_large <= d_small

    def test_dist_zero_iff_in_span(self):
        gens = [vec(1, 1, 0), vec(0, 1, 1)]
        inside = vec(1, 2, 1)
        assert dist_sq(inside, gens) == 0
        assert dist_sq(vec(0, 0, 1), gens) > 0


class TestComplementAndIntersection:
    def test_complement_worked_example(self):
        # span{e1+e2, e2+e3} in dim 3 has complement spanned by (1, -1, 1)
        gens = [vec(1, 1, 0), vec(0, 1, 1)]
        basis = complement_basis(gens, 3)
        assert len(basis) == 1
        w = basis[0]
        for g in gens:
            assert w.dot(g) == 0
        dense = to_dense(w, 3)
        scaled = [x / dense[0] for x in dense]
        assert scaled == [Q(1), Q(-1), Q(1)]

    def test_complement_canonical_examples(self):
        assert complement_basis([E1, SparseVector.unit(2)], 3) == [SparseVector.unit(3)]
        basis = complement_basis([vec(1, 1, 0), vec(1, 0, 1)], 3)
        assert len(basis) == 1
        dense = to_dense(basis[0], 3)
        scaled = [x / dense[0] for x in dense]
        assert scaled == [Q(1), Q(-1), Q(-1)]
        assert complement_basis([vec(1, 0), vec(1, 1)], 2) == []
        assert len(complement_basis([], 4)) == 4

    def test_intersect_canonical_examples(self):
        e = SparseVector.unit
        assert intersect([e(1), e(2)], [e(2), e(3)], 3) == [e(2)]
        assert intersect([e(1)], [e(2)], 3) == []
        basis = intersect([vec(1, 1, 0), vec(0, 0, 1)], [vec(1, 1, 1)], 3)
        assert len(basis) == 1
        dense = to_dense(basis[0], 3)
        scaled = [x / dense[0] for x in dense]
        assert scaled == [Q(1), Q(1), Q(1)]

    def test_complement_dimension_matches_sympy(self):
        rng = random.Random(23)
        for _ in range(25):
            ambient = rng.randint(1, 6)
            gens = [random_sparse_vector(rng, ambient) for _ in range(rng.randint(0, 5))]
            basis = complement_basis(gens, ambient)
            assert len(basis) == oracle_nullspace_dim(gens, ambient)
            for w in basis:
                assert all(w.dot(g) == 0 for g in gens)
            assert oracle_rank(basis, ambient) == len(basis)

    def test_intersect_worked_example(self):
        # span{e1+e2, e2+e3} ∩ span{e1+e3, e2} is the line through (1,2,1)
        a = [vec(1, 1, 0), vec(0, 1, 1)]
        b = [vec(1, 0, 1), vec(0, 1, 0)]
        basis = intersect(a, b, 3)
        assert len(basis) == 1
        dense = to_dense(basis[0], 3)
        scaled = [x / dense[0] for x in dense]
        assert scaled == [Q(1), Q(2), Q(1)]

    def test_intersection_dim_matches_sympy(self):
        rng = random.Random(29)
        for _ in range(25):
            ambient = rng.randint(1, 6)
            a = [random_sparse_vector(rng, ambient) for _ in range(rng.randint(0, 4))]
            b = [random_sparse_vector(rng, ambient) for _ in range(rng.randint(0, 4))]
            basis = intersect(a, b, ambient)
            assert len(basis) == oracle_intersection_dim(a, b, ambient)
            # every basis vector lies in both spans
            for w in basis:
                assert dist_sq(w, a) == 0
                assert dist_sq(w, b) == 0


class TestBudget:
    def test_budget_trips_on_huge_entries(self):
        big = SparseVector.from_pairs([(1, Q(10 ** 50))])
        with pytest.raises(BudgetExceeded):
            bordered_elimination([big], digit_budget=10)

    def test_budget_allows_small_entries(self):
        bordered_elimination([vec(1, 2, 3)], digit_budget=10)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                 min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rank_property_matches_sympy(rows):
    vectors = [SparseVector.from_pairs(list(enumerate(r, start=1))) for r in rows]
    assert rank(vectors) == oracle_rank(vectors, 3)


class TestBorderedElimination:
    def test_budget_trips_partway(self):
        # The Gram diagonal is 100 (7 bits), within a 3-digit (10-bit)
        # budget; after the first pivot the Schur diagonal entries are the
        # 2x2 leading minors 100^2 (14 bits), over it.
        gens = [SparseVector.from_pairs([(i, Q(10))]) for i in range(1, 5)]
        for g in gens:
            bordered_elimination([g], digit_budget=3)
        bordered_elimination(gens[:1], [E1], digit_budget=3)
        with pytest.raises(BudgetExceeded):
            bordered_elimination(gens, [E1], digit_budget=3)

    def test_rejects_bad_cuts(self):
        gens = [vec(1, 0), vec(0, 1)]
        for cuts in ([2, 1], [3], [-1]):
            with pytest.raises(ValueError):
                bordered_elimination(gens, [E1], cuts=cuts)

    def test_skips_dependent_and_zero_generators(self):
        gens = [vec(1, 1, 0), SparseVector.from_ints({}), vec(2, 2, 0), vec(0, 1, 1)]
        assert bordered_elimination(gens).kept == (0, 3)
        assert independent_subset(gens) == [gens[0], gens[3]]


_ENTRY = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def planted_spans(draw):
    """(ambient, generators, probes, cuts) with dependent and zero generators."""
    ambient = draw(st.integers(1, 5))
    row = st.lists(_ENTRY, min_size=ambient, max_size=ambient)
    gens = [SparseVector.from_pairs(enumerate(r, start=1))
            for r in draw(st.lists(row, max_size=5))]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(gens)))
        coeffs = draw(st.lists(_ENTRY, min_size=pos, max_size=pos))
        gens.insert(pos, combination(coeffs, gens[:pos]))
    probes = [SparseVector.from_pairs(enumerate(r, start=1))
              for r in draw(st.lists(row, min_size=1, max_size=3))]
    inner = draw(st.lists(st.integers(0, len(gens)), max_size=3))
    cuts = sorted([0, len(gens)] + inner)
    return ambient, gens, probes, cuts


@settings(max_examples=40, deadline=None)
@given(planted_spans())
def test_kernel_matches_sympy(span):
    ambient, gens, probes, cuts = span
    elim = bordered_elimination(gens, probes, cuts=cuts, solve=True)
    for cut, dists in zip(cuts, elim.dist_sq):
        assert dists == [oracle_dist_sq(p, gens[:cut], ambient) for p in probes]
    kept = [gens[i] for i in elim.kept]
    assert len(kept) == oracle_rank(gens, ambient)
    expected = [oracle_project(p, gens, ambient) for p in probes]
    assert project_many(probes, gens) == expected
    assert [
        SparseVector.from_pairs((i, Q(yr * x, den))
                                for yr, g in zip(y, kept) for i, x in g.coords.items())
        for den, y in elim.coefficients
    ] == expected


_FAMILIES = [parse_family(text) for text in (
    "young(w=2)", "infinite-set(0,1,inf)", "infinite-set(0,2,inf)", "defect-pair(m=3)",
    "finite-set(0,1,3)", "e1-plus-ek")]


@st.composite
def family_spans(draw, max_n=16):
    """(ambient, vectors): vectors and duals of a built-in family at
    n <= max_n in a drawn order, with planted zero and dependent vectors."""
    family = draw(st.sampled_from(_FAMILIES))
    n = draw(st.integers(1, max_n))
    picks = draw(st.lists(st.tuples(st.integers(1, n), st.booleans()), max_size=n))
    vectors = [family.vector(k) if primal else family.dual(k) for k, primal in picks]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(vectors)))
        coeffs = draw(st.lists(_ENTRY, min_size=pos, max_size=pos))
        vectors.insert(pos, combination(coeffs, vectors[:pos]))
    return family.ambient(n), vectors


_SPANS = st.one_of(planted_spans().map(lambda span: span[:2]), family_spans())


@settings(max_examples=80, deadline=None)
@given(_SPANS)
def test_elimination_keeps_the_greedy_independent_subset(span):
    ambient, vectors = span
    assert bordered_elimination(vectors).kept == oracle_greedy_kept(vectors, ambient)


@settings(max_examples=60, deadline=None)
@given(planted_spans(), st.data())
def test_combination_matches_fraction_sum(span, data):
    ambient, gens, _, _ = span
    coeffs = data.draw(st.lists(st.one_of(_ENTRY, st.integers(-3, 3)),
                                min_size=len(gens), max_size=len(gens)))
    total = combination(coeffs, gens)
    assert to_dense(total, ambient) == [
        sum((c * dict(g.entries).get(i, Q(0)) for c, g in zip(coeffs, gens)), Q(0))
        for i in range(1, ambient + 1)
    ]
    assert all(type(x) is Fraction for _, x in total.entries)


@settings(max_examples=60, deadline=None)
@given(_SPANS, st.booleans())
@example((3, []), False)
@example((3, [vec(1, 2, 0), vec(0, 1, 1)]), True)
def test_complement_matches_sympy_nullspace(span, full_rank):
    ambient, gens = span
    if full_rank:
        gens = gens + [SparseVector.unit(i) for i in range(1, ambient + 1)]
    assert complement_basis(gens, ambient) == oracle_nullspace(gens, ambient)


# -- the stored form against a dict-of-Fraction model --------------------------

_HUGE = 10 ** 40
_NUMERATOR = st.one_of(st.integers(-6, 6), st.integers(-_HUGE, _HUGE))
_DENOMINATOR = st.one_of(st.integers(-12, 12), st.integers(-_HUGE, _HUGE)).filter(bool)
_VALUE = st.builds(Fraction, _NUMERATOR, _DENOMINATOR)


@st.composite
def _pairs(draw):
    """(index, Fraction) pairs with repeated indices; some pairs come back
    negated, so that their sums cancel to zero."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 8), _VALUE), max_size=8))
    undone = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return pairs + [(i, -x) for i, x in undone]


def _model(pairs) -> dict:
    acc = {}
    for i, x in pairs:
        acc[i] = acc.get(i, 0) + x
    return {i: acc[i] for i in sorted(acc) if acc[i] != 0}


def _model_dot(a: dict, b: dict) -> Fraction:
    return sum((x * b[i] for i, x in a.items() if i in b), Q(0))


def _assert_matches(v, model):
    assert_stored_form(v)
    entries = tuple(model.items())
    assert v.entries == entries
    assert all(type(x) is Fraction for _, x in v.entries)
    assert v == SparseVector.from_pairs(entries) and hash(v) == hash(entries)
    assert repr(v) == f"SparseVector(entries={entries!r})"
    copy = pickle.loads(pickle.dumps(v))
    assert (copy.den, copy.coords) == (v.den, v.coords)


@settings(max_examples=100, deadline=None)
@given(_pairs(), _pairs(), _DENOMINATOR)
def test_stored_form_matches_a_fraction_model(a, b, den):
    ma, mb = _model(a), _model(b)
    v, w = SparseVector.from_pairs(a), SparseVector.from_pairs(b)
    _assert_matches(v, ma)
    _assert_matches(v + w, _model(list(ma.items()) + list(mb.items())))
    _assert_matches(v - w, _model(list(ma.items()) + [(i, -x) for i, x in mb.items()]))
    _assert_matches(SparseVector.from_ints(v.coords, den),
                    {i: Fraction(x, den) for i, x in v.coords.items()})
    assert v.dot(w) == _model_dot(ma, mb) and v.norm_sq() == _model_dot(ma, ma)
    assert (v == w) == (ma == mb)


@settings(max_examples=100, deadline=None)
@given(_pairs(), st.integers(-6, 6).filter(bool))
def test_from_pairs_equals_from_ints_over_a_common_denominator(pairs, scale):
    """from_pairs leaves out the gcd that from_ints divides by: over the
    unreduced denominator scale * (product of the pairs' denominators),
    negative when scale is, from_ints reduces to the same fields."""
    den = scale * math.prod(x.denominator for _, x in pairs)
    coords = {i: int(x * den) for i, x in _model(pairs).items()}
    v = SparseVector.from_pairs(pairs)
    w = SparseVector.from_ints(coords, den)
    assert_stored_form(v)
    assert (v.den, v.coords) == (w.den, w.coords)


@settings(max_examples=40, deadline=None)
@given(st.lists(_pairs(), min_size=2, max_size=4))
def test_project_many_matches_sympy_on_huge_entries(draws):
    target, *gens = [SparseVector.from_pairs(pairs) for pairs in draws]
    [p] = project_many([target], gens)
    assert_stored_form(p)
    assert p == oracle_project(target, gens, 8)
