"""Shared test helpers: independent sympy oracles and random generators.

sympy is used only here, as an oracle the production code never imports.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul

import pytest
import sympy
from hypothesis import strategies as st

from defectlab.exact import SparseVector, bordered_elimination
from defectlab.indexsets import EventuallyPeriodicSet

Q = Fraction


def to_dense(v, ambient):
    """v's coordinates 1..ambient as a list of Fractions."""
    dense = [Q(0)] * ambient
    for i, x in v.entries:
        if i > ambient:
            raise ValueError(f"support index {i} exceeds ambient {ambient}")
        dense[i - 1] = x
    return dense


def to_sympy_matrix(vectors, ambient):
    rows = [
        [sympy.Rational(x.numerator, x.denominator) for x in to_dense(v, ambient)]
        for v in vectors
    ]
    return sympy.Matrix(rows)


def oracle_rank(vectors, ambient):
    return to_sympy_matrix(vectors, ambient).rank()


def oracle_biorthogonal(xs, duals, ambient):
    """Is V D^T the identity, for V and D the matrices whose rows are xs
    and duals?"""
    product = to_sympy_matrix(xs, ambient) * to_sympy_matrix(duals, ambient).T
    return product == sympy.eye(len(xs))


def _to_fraction(r):
    r = sympy.Rational(r)
    return Q(int(r.p), int(r.q))


def _oracle_projector(generators, ambient):
    """The matrix of the orthogonal projector onto the generators' span.

    The normal equations are solved on sympy's exact column-space basis,
    so dependent and zero generators need no pseudo-inverse.
    """
    basis = to_sympy_matrix(generators, ambient).T.columnspace() if generators else []
    if not basis:
        return sympy.zeros(ambient, ambient)
    A = sympy.Matrix.hstack(*basis)
    return A * (A.T * A).inv() * A.T


def _oracle_projection(v, generators, ambient):
    """(b, P b) with P the projector onto the generators' span."""
    b = sympy.Matrix([sympy.Rational(x.numerator, x.denominator)
                      for x in to_dense(v, ambient)])
    return b, _oracle_projector(generators, ambient) * b


def oracle_project(v, generators, ambient):
    """Orthogonal projection of v onto span(generators), as a SparseVector."""
    _, proj = _oracle_projection(v, generators, ambient)
    return _from_sympy(proj)


def oracle_dist_sq(v, generators, ambient):
    """Squared distance via sympy least squares on the dense matrix."""
    b, proj = _oracle_projection(v, generators, ambient)
    return _to_fraction((b - proj).dot(b - proj))


def oracle_nullspace_dim(vectors, ambient):
    return ambient - oracle_rank(vectors, ambient)


def _from_sympy(column):
    return SparseVector.from_pairs((i + 1, _to_fraction(x)) for i, x in enumerate(column))


def oracle_nullspace(vectors, ambient):
    """sympy's canonical null-space basis of the matrix whose rows are the
    vectors: one vector per free column, from the reduced row echelon form."""
    matrix = to_sympy_matrix(vectors, ambient) if vectors else sympy.zeros(0, ambient)
    return [_from_sympy(column) for column in matrix.nullspace()]


def oracle_greedy_kept(vectors, ambient):
    """Indices of the vectors independent of those before them: the pivot
    columns of the matrix whose columns are the vectors."""
    matrix = to_sympy_matrix(vectors, ambient) if vectors else sympy.zeros(0, ambient)
    return tuple(matrix.T.rref()[1])


def oracle_random_family(dim, count, seed, dual_style="span"):
    """random(d=dim,n=count,seed=seed,dual=dual_style), replayed on sympy.

    Replays the family's seeded draws, a draw of dependent rows and its
    retry included: the span duals are the rows of (x x^T)^-1 x, and a
    perturbed dual adds (I - P) r for a random integer vector r, with P
    the projector x^T (x x^T)^-1 x onto the span.  Returns (vectors,
    duals) as SparseVectors.
    """
    from defectlab.oracle import RandomFiniteFamily

    rng = random.Random(seed)
    for _ in range(RandomFiniteFamily.MAX_RETRIES):
        x = sympy.Matrix(count, dim, [rng.randint(-3, 3) for _ in range(count * dim)])
        if x.rank() == count:
            break
    else:
        raise RuntimeError("failed to draw an independent system")
    span_duals = (x * x.T).inv() * x if count else x
    complement = sympy.eye(dim) - x.T * span_duals
    duals = []
    for k in range(count):
        target = span_duals.row(k).T
        if dual_style == "perturbed":
            target += complement * sympy.Matrix([rng.randint(-2, 2) for _ in range(dim)])
        duals.append(_from_sympy(target))
    return [_from_sympy(x.row(k)) for k in range(count)], duals


def _rref(matrix):
    """(rows, pivot columns): the reduced row echelon form of a list of
    Fraction rows, by plain Gauss-Jordan elimination."""
    rows = [list(row) for row in matrix]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def replay_random_family(dim, count, seed, dual_style="span"):
    """random(d=dim,n=count,seed=seed,dual=dual_style) rebuilt in plain
    Fraction arithmetic, without the package's kernels: Gauss-Jordan on
    [G | I], G = V V^T, gives G^-1; span dual k is the Fraction sum
    sum_j (G^-1)_kj x_j; a perturbed dual adds r - sum_j <x_j*, r> x_j,
    the part of its integer shift r orthogonal to the span, with x_j* the
    span duals.  Replays the seeded draws, a draw of dependent rows and
    its retry included.  Returns (vectors, duals)."""
    from defectlab.oracle import RandomFiniteFamily

    rng = random.Random(seed)
    for _ in range(RandomFiniteFamily.MAX_RETRIES):
        rows = [[Q(rng.randint(-3, 3)) for _i in range(dim)] for _k in range(count)]
        gram = [[sum(map(mul, a, b), Q(0)) for b in rows] for a in rows]
        reduced, pivots = _rref([g + [Q(int(i == k)) for i in range(count)]
                                 for k, g in enumerate(gram)])
        if pivots[:count] == list(range(count)):
            break
    else:
        raise RuntimeError("failed to draw an independent system")
    inverse = [row[count:] for row in reduced]
    span_duals = [[sum((inverse[k][j] * rows[j][c] for j in range(count)), Q(0))
                   for c in range(dim)] for k in range(count)]
    duals = []
    for dual in span_duals:
        if dual_style == "perturbed":
            r = [Q(rng.randint(-2, 2)) for _c in range(dim)]
            dual = [x + y for x, y in zip(dual, r)]
            for span_dual, row in zip(span_duals, rows):
                t = sum(map(mul, span_dual, r), Q(0))
                dual = [x - t * y for x, y in zip(dual, row)]
        duals.append(dual)

    def sparse(dense):
        return SparseVector.from_pairs(enumerate(dense, start=1))

    return [sparse(row) for row in rows], [sparse(dual) for dual in duals]


def combination(coeffs, vectors):
    """sum(c_i v_i), through `from_pairs`."""
    return SparseVector.from_pairs((i, c * x) for c, v in zip(coeffs, vectors)
                                   for i, x in v.entries)


def assert_stored_form(v):
    """The one stored form of a SparseVector: an int den > 0, nonzero int
    coordinates at strictly increasing positive indices, and
    gcd(den, coordinates) = 1."""
    assert type(v.den) is int and v.den > 0
    assert all(type(x) is int and x != 0 for x in v.coords.values())
    indices = list(v.coords)
    assert all(type(i) is int for i in indices)
    assert all(a < b for a, b in zip([0] + indices, indices))
    assert math.gcd(v.den, *v.coords.values()) == 1


def oracle_intersection_dim(gen_a, gen_b, ambient):
    """dim(span A ∩ span B) = rank A + rank B - rank [A; B]."""
    ra = oracle_rank(gen_a, ambient)
    rb = oracle_rank(gen_b, ambient)
    rab = oracle_rank(list(gen_a) + list(gen_b), ambient)
    return ra + rb - rab


def dist_sq(v, generators, digit_budget=None):
    """Exact squared distance from v to span(generators)."""
    return bordered_elimination(generators, [v], digit_budget=digit_budget).dist_sq[0][0]


def complement_basis(generators, ambient):
    """Exact basis of the orthogonal complement inside coordinates
    1..ambient: for each free coordinate f of the reduced row echelon form
    R of the generators, by `_rref`, e_f - sum_p R_p[f] e_p, the
    reduced-row-echelon null-space basis in order."""
    rows, pivots = _rref([to_dense(g, ambient) for g in generators])
    basis = []
    for f in range(ambient):
        if f not in pivots:
            w = [Q(int(c == f)) for c in range(ambient)]
            for row, p in zip(rows, pivots):
                w[p] -= row[f]
            basis.append(SparseVector.from_pairs(enumerate(w, start=1)))
    return basis


def defect_truncated(family, sigma, n):
    """ambient - rank of one truncated mixed family, the rank by `_rref`."""
    ambient = family.ambient(n)
    vectors = [family.vector(k) if sigma.contains(k) else family.dual(k)
               for k in range(1, family.truncation(n) + 1)]
    return ambient - len(_rref([to_dense(v, ambient) for v in vectors])[1])


class WrongSide(ValueError):
    """Raised when a swap moves an index that is not on the stated side."""


def swap_move(sigma, k0, direction):
    """Move index k0 across the partition; direction is 'in' or 'out'."""
    if direction == "in":
        if sigma.contains(k0):
            raise WrongSide(f"{k0} is already in sigma")
        added, removed = sigma.added | {k0}, sigma.removed - {k0}
    elif direction == "out":
        if not sigma.contains(k0):
            raise WrongSide(f"{k0} is not in sigma")
        added, removed = sigma.added - {k0}, sigma.removed | {k0}
    else:
        raise ValueError("direction must be 'in' or 'out'")
    return EventuallyPeriodicSet.make(sigma.period, sigma.residues, added, removed)


def min_element(s):
    """Smallest member of an eventually periodic set, or None if it is empty."""
    bound = max(s.added | s.removed, default=0) + s.period + 1
    return next((k for k in range(1, bound + 1) if s.contains(k)), None)


def interval_contains(outer, inner):
    """Does the interval outer contain the interval inner?"""
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def independent_subset(vectors):
    """Greedy maximal independent subset, scanning in the given order."""
    return [vectors[i] for i in bordered_elimination(vectors).kept]


def intersect(gen_a, gen_b, ambient):
    """Exact basis of span(gen_a) ∩ span(gen_b) inside 1..ambient,
    from the identity A ∩ B = (A⊥ + B⊥)⊥."""
    comp = complement_basis(gen_a, ambient) + complement_basis(gen_b, ambient)
    return complement_basis(comp, ambient)


def prefix_agreement(a, b):
    """Largest m with a ∩ [1:m] = b ∩ [1:m]; math.inf when a = b."""
    first = min_element(a.symmetric_difference(b))
    return math.inf if first is None else first - 1


def rho_partial(a, b, terms):
    """Partial sum of the rho series over k = 1..terms."""
    return sum((Q(1, 2 ** k) for k in range(1, terms + 1)
                if a.contains(k) != b.contains(k)), Q(0))


def oracle_intersection_chain(family, sigma, depth, n):
    """The iterated intersection itself: a basis of truncated H_{sigma_1},
    intersected with each later truncated H_{sigma_m} through
    `intersect`, then compared with truncated H_sigma by two sympy ranks."""
    last = family.truncation(n)

    def gens(s):
        return [family.vector(k) for k in s.truncate(last)]

    ambient = family.ambient(n)
    current = independent_subset(gens(union_sigma_m(sigma, 1)))
    dims = [len(current)]
    for m in range(2, depth + 1):
        current = intersect(current, gens(union_sigma_m(sigma, m)), ambient)
        dims.append(len(current))
    h_sigma = gens(sigma)
    h_rank = oracle_rank(h_sigma, ambient)
    equal = len(current) == h_rank and oracle_rank(h_sigma + current, ambient) == h_rank
    return dims, equal


def oracle_span_projections(family, sigma, n, targets):
    """Each target's projection onto truncated H_sigma, one sympy projector
    per span."""
    last = family.truncation(n)
    gens = [family.vector(k) for k in sigma.truncate(last)]
    ambient = max([i for v in targets + gens for i in v.coords], default=0) or 1
    projector = _oracle_projector(gens, ambient)
    return [_from_sympy(projector * to_sympy_matrix([t], ambient).T) for t in targets]


def _oracle_targets(family, K):
    K = family.truncation(K)
    return [family.vector(k) for k in range(1, K + 1)]


def _oracle_sum(terms, precision_bits, tail):
    """sum_i w_i sqrt(r_i) over the (r_i, w_i) pairs plus [0, tail], from
    each term's own `sqrt_enclosure` bounds added as Fractions."""
    from defectlab.topology import IntervalValue, sqrt_enclosure

    lo = hi = Q(0)
    for r, w in terms:
        iv = sqrt_enclosure(r, precision_bits)
        lo += iv.lo * w
        hi += iv.hi * w
    return IntervalValue(lo, hi + tail)


def _oracle_ds(diffs, targets, precision_bits):
    """sum_k ||diffs[k]|| / (||x_k|| 2^k), enclosed term by term, plus the
    tail [0, 2^{1-K}]."""
    terms = [(diff.norm_sq() / t.norm_sq(), Q(1, 2 ** k))
             for k, (diff, t) in enumerate(zip(diffs, targets), start=1)]
    return _oracle_sum(terms, precision_bits, Q(2, 2 ** len(targets)))


def oracle_projector_metrics(family, sigma, tau, n, K, precision_bits):
    """(d_s, d_w) summed from the coordinate projections of x_1..x_K onto
    truncated H_sigma and H_tau."""
    targets = _oracle_targets(family, K)
    p_sig = oracle_span_projections(family, sigma, n, targets)
    p_tau = oracle_span_projections(family, tau, n, targets)
    diffs = [a - b for a, b in zip(p_sig, p_tau)]
    terms = []
    for k, (diff, xk) in enumerate(zip(diffs, targets), start=1):
        for j, xj in enumerate(targets, start=1):
            ip = diff.dot(xj)
            if ip:
                terms.append((ip * ip / (xk.norm_sq() * xj.norm_sq()), Q(1, 2 ** (k + j))))
    K = len(targets)
    d_w = _oracle_sum(terms, precision_bits, Q(2, 2 ** K) - Q(1, 4 ** K))
    return _oracle_ds(diffs, targets, precision_bits), d_w


def oracle_convergence(family, sigma, m_max, n, K, precision_bits):
    """The convergence rows and the semicontinuity limit, rebuilt from the
    coordinate projections onto every truncated span H_{sigma_m} and
    H_sigma, each computed on its own."""
    from defectlab.indexsets import rho
    from defectlab.topology import sqrt_enclosure

    targets = _oracle_targets(family, K)
    window = targets[:family.default_probe_window()]
    p_limit = oracle_span_projections(family, sigma, n, targets)
    rows = []
    for m in range(1, m_max + 1):
        s = union_sigma_m(sigma, m)
        p_m = oracle_span_projections(family, s, n, targets)
        rows.append({
            "m": m,
            "sigma_m": s.describe(),
            "rho": rho(s, sigma),
            "ds_to_zero": _oracle_ds(p_m, targets, precision_bits),
            "pointwise": [sqrt_enclosure((a - b).norm_sq() / t.norm_sq(), precision_bits)
                          for a, b, t in zip(p_m, p_limit, window)],
        })
    return rows, _oracle_ds(p_limit, targets, precision_bits)


def count_calls(monkeypatch, name, *modules):
    """Replaces the function `name` in every module by one wrapper around
    the first module's version; returns the list its calls append to."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def random_sparse_vector(rng: random.Random, ambient: int) -> SparseVector:
    pairs = []
    for i in range(1, ambient + 1):
        if rng.random() < 0.6:
            num = rng.randint(-5, 5)
            if num:
                pairs.append((i, Q(num, rng.randint(1, 4))))
    return SparseVector.from_pairs(pairs)


def random_eventually_periodic(rng: random.Random) -> EventuallyPeriodicSet:
    period = rng.randint(1, 6)
    residues = [r for r in range(period) if rng.random() < 0.5]
    added = [rng.randint(1, 20) for _ in range(rng.randint(0, 3))]
    removed = [rng.randint(1, 20) for _ in range(rng.randint(0, 3))]
    removed = [k for k in removed if k not in added]
    return EventuallyPeriodicSet.make(period, residues, added, removed)


# near MAX_PERIOD: a prime, and two periods with many small divisors
LONG_PERIODS = (9973, 9996, 10000)


def random_long_period(rng: random.Random) -> EventuallyPeriodicSet:
    """Like random_eventually_periodic, with a period from LONG_PERIODS."""
    period = rng.choice(LONG_PERIODS)
    residues = rng.sample(range(period), rng.randint(0, 4))
    added = [rng.randint(1, 20) for _ in range(rng.randint(0, 3))]
    removed = [rng.randint(1, 20) for _ in range(rng.randint(0, 3))]
    removed = [k for k in removed if k not in added]
    return EventuallyPeriodicSet.make(period, residues, added, removed)


def eventually_periodic_sets():
    """Strategy: sets from random_eventually_periodic or random_long_period."""
    rngs = st.integers(0, 10 ** 6).map(random.Random)
    return st.one_of(rngs.map(random_eventually_periodic), rngs.map(random_long_period))


def union_sigma_m(sigma: EventuallyPeriodicSet, m: int) -> EventuallyPeriodicSet:
    """sigma_m by set algebra: sigma united with all minus {1..m}."""
    tail = EventuallyPeriodicSet.all().difference(EventuallyPeriodicSet.finite(range(1, m + 1)))
    return sigma.union(tail)


def _reverse_tables(monkeypatch):
    """Makes the distance tables of nested spans come out in reverse on
    both routes of `span_dist_sq`: the cuts of the Gram route's one
    elimination (`families.bordered_elimination`) and the per-span rows of
    `heads.HeadFamily.span_dist_sq`."""
    import defectlab.families as families
    import defectlab.heads as heads

    real, real_rows = families.bordered_elimination, heads.HeadFamily.span_dist_sq

    def reversed_cuts(*args, **kwargs):
        elim = real(*args, **kwargs)
        return elim._replace(dist_sq=elim.dist_sq[::-1])

    def reversed_rows(*args, **kwargs):
        return real_rows(*args, **kwargs)[::-1]

    monkeypatch.setattr(families, "bordered_elimination", reversed_cuts)
    monkeypatch.setattr(heads.HeadFamily, "span_dist_sq", reversed_rows)


@pytest.fixture
def rising_decay(monkeypatch):
    """Makes distance_profile's table come out with its cuts in reverse on
    both routes of `span_dist_sq`.  Every decay column that should fall
    then rises instead."""
    _reverse_tables(monkeypatch)


@pytest.fixture
def unnested_convergence(monkeypatch):
    """Makes convergence_probe's table come out in reverse on both routes
    of `span_dist_sq`.  The distances to the sigma_m spans then fall with
    m, where they should rise."""
    _reverse_tables(monkeypatch)


def _replace_first_dual(monkeypatch, make):
    """Replaces x_1* of every head family and every random family by
    make(x_1*)."""
    from defectlab.heads import HeadFamily
    from defectlab.oracle import RandomFiniteFamily

    for cls in (HeadFamily, RandomFiniteFamily):
        def dual(self, k, real=cls.dual):
            return make(real(self, k)) if k == 1 else real(self, k)

        monkeypatch.setattr(cls, "dual", dual)


@pytest.fixture
def zero_dual(monkeypatch):
    """Makes x_1* zero, so every truncated mixed family that selects x_1*
    loses one rank."""
    _replace_first_dual(monkeypatch, lambda d: SparseVector.from_ints({}))


@pytest.fixture
def moved_dual(monkeypatch):
    """Doubles x_1*, so <x_1, x_1*> = 2 while every truncated mixed family
    keeps its full rank."""
    _replace_first_dual(monkeypatch, lambda d: d + d)
