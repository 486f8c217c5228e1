"""Exact rational linear algebra over sparsely supported vectors.

Everything in this module is exact: scalars are `fractions.Fraction`,
and all elimination is fraction-free on integers.  Distances,
projections and Gram solves come from one Bareiss elimination of a
bordered integer Gram matrix, `bordered_elimination`; ranks and
orthogonal complements come from one sparse echelon pass on the
vectors' integer coordinates, `echelon`.  No floating point ever enters.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence


class BudgetExceeded(RuntimeError):
    """Raised when intermediate rationals exceed the configured digit budget."""


class InvariantViolation(RuntimeError):
    """A certified property that must always hold failed: this is a bug."""


Q = Fraction


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# Rough bits-per-decimal-digit bound; used only for the abort guard, so an
# over-approximation is fine.
_BITS_PER_DIGIT = Fraction(10, 3)


def _check_budget(values: Iterable, digit_budget: Optional[int]) -> None:
    if digit_budget is None:
        return
    limit = int(digit_budget * _BITS_PER_DIGIT)
    for v in values:
        if v.numerator.bit_length() > limit or v.denominator.bit_length() > limit:
            raise BudgetExceeded(
                f"rational entry exceeds digit budget of {digit_budget} digits"
            )


# Fractions of small integers, shared between vectors: a Fraction is immutable.
_SMALL = {x: Q(x) for x in range(-8, 9)}


class SparseVector:
    """Finitely supported vector over the ambient orthonormal basis.

    Entries are (index, value) pairs with strictly increasing positive
    indices and nonzero values; the zero vector has no entries.
    """

    __slots__ = ("entries", "_ints")

    def __init__(self, entries: tuple):
        prev = 0
        for idx, val in entries:
            if idx <= prev:
                raise ValueError("indices must be strictly increasing and positive")
            if val == 0:
                raise ValueError("stored values must be nonzero")
            prev = idx
        self.entries = entries
        self._ints = None

    def __reduce__(self):
        return SparseVector, (self.entries,)

    def __eq__(self, other):
        if other.__class__ is not SparseVector:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SparseVector(entries={self.entries!r})"

    @staticmethod
    def from_pairs(pairs) -> "SparseVector":
        acc = {}
        for idx, val in pairs:
            idx = int(idx)
            val = _as_fraction(val)
            acc[idx] = acc.get(idx, Q(0)) + val
        entries = tuple(
            (i, acc[i]) for i in sorted(acc) if acc[i] != 0
        )
        return SparseVector(entries)

    @staticmethod
    def from_ints(ints: dict) -> "SparseVector":
        """The vector with these integer coordinates, keyed in increasing
        index order and all nonzero; its integer coordinates are cached
        from the start, at scale 1."""
        v = SparseVector(tuple((i, _SMALL.get(x) or Q(x)) for i, x in ints.items()))
        v._ints = 1, ints
        return v

    @staticmethod
    def unit(index: int) -> "SparseVector":
        return SparseVector(((index, Q(1)),))

    @staticmethod
    def zero() -> "SparseVector":
        return SparseVector(())

    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def dot(self, other: "SparseVector") -> Fraction:
        a, b = self.entries, other.entries
        if len(a) > len(b):
            a, b = b, a
        lookup = dict(b)
        total = Q(0)
        for i, v in a:
            w = lookup.get(i)
            if w is not None:
                total += v * w
        return total

    def norm_sq(self) -> Fraction:
        return sum((v * v for _, v in self.entries), Q(0))

    def scale(self, c) -> "SparseVector":
        c = _as_fraction(c)
        if c == 0:
            return SparseVector.zero()
        return SparseVector(tuple((i, v * c) for i, v in self.entries))

    def __add__(self, other: "SparseVector") -> "SparseVector":
        return SparseVector.from_pairs(list(self.entries) + list(other.entries))

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scale(-1)


class Elimination(NamedTuple):
    """What one bordered elimination of a span answers.

    kept: indices of the generators that took a pivot, a maximal
    independent subset chosen greedily in generator order.
    dist_sq: for each cut, the exact dist^2 of every probe to the span of
    the generators before that cut.
    coefficients: with solve=True, for every probe and then every rhs
    column, the rational coefficients over the kept generators.
    """

    kept: tuple
    dist_sq: list
    coefficients: Optional[list] = None


def _integer_coords(v: SparseVector) -> tuple:
    """(s, {index: int}) with s the lcm of v's denominators: s*v is integral.
    Cached on v, so callers must not mutate the dict."""
    if v._ints is None:
        s = math.lcm(*(x.denominator for _, x in v.entries))
        v._ints = s, {i: x.numerator * (s // x.denominator) for i, x in v.entries}
    return v._ints


def _idot(a: dict, b: dict) -> int:
    if len(a) > len(b):
        a, b = b, a
    return sum(x * b[i] for i, x in a.items() if i in b)


def bordered_elimination(
    generators: Sequence[SparseVector],
    probes: Sequence[SparseVector] = (),
    rhs: Sequence[Sequence[Fraction]] = (),
    cuts: Optional[Sequence[int]] = None,
    solve: bool = False,
    digit_budget: Optional[int] = None,
) -> Elimination:
    """Symmetric fraction-free (Bareiss) elimination of [[G, B], [B^T, C]].

    G is the Gram matrix of the generators, B their inner products with
    the probes and C the probes' squared norms.  Every vector is first
    scaled by the lcm of its denominators, which leaves spans unchanged
    and makes the matrix integral.  Pivots are taken on the diagonal in
    generator order; G is positive semidefinite, so a zero pivot means the
    generator lies in the span of those before it, and it is skipped.  By
    Sylvester's identity, once the first k generators are eliminated a
    probe's trailing diagonal entry divided by the last pivot taken is its
    dist^2 to their span, so one pass reads off every ascending cut
    (default: all generators).  rhs columns are right-hand sides of
    G c = rhs given over the generators; with solve=True they and the
    probe columns are back-substituted after the forward pass.

    With a digit budget, every pivot and every diagonal entry is checked
    as it is produced; by Cauchy-Schwarz they bound all symmetric entries.
    """
    m = len(generators)
    cuts = [m] if cuts is None else list(cuts)
    gen_scale, gens = zip(*map(_integer_coords, generators)) if m else ((), ())
    probe_scale, prbs = zip(*map(_integer_coords, probes)) if probes else ((), ())
    col_scale = list(probe_scale)
    rhs_cols = []
    for col in rhs:
        scaled = [a * x for a, x in zip(gen_scale, col)]
        s = math.lcm(*(x.denominator for x in scaled))
        col_scale.append(s)
        rhs_cols.append([x.numerator * (s // x.denominator) for x in scaled])
    rows = [
        [0] * i
        + [_idot(gens[i], gens[j]) for j in range(i, m)]
        + [_idot(gens[i], p) for p in prbs]
        + [col[i] for col in rhs_cols]
        for i in range(m)
    ]
    diag = [_idot(p, p) for p in prbs]
    if digit_budget is not None:
        _check_budget([rows[i][i] for i in range(m)] + diag, digit_budget)

    prev = 1
    kept = []
    table = []
    cut_at = iter(cuts + [None])
    next_cut = next(cut_at)
    for r in range(m + 1):
        while next_cut == r:
            table.append([Fraction(d, prev * s * s) for d, s in zip(diag, probe_scale)])
            next_cut = next(cut_at)
        if r == m:
            break
        pivot_row = rows[r]
        piv = pivot_row[r]
        if piv == 0:
            continue
        for i in range(r + 1, m):
            a = pivot_row[i]
            row = rows[i]
            row[i:] = [(x * piv - a * y) // prev for x, y in zip(row[i:], pivot_row[i:])]
        diag = [(d * piv - b * b) // prev for d, b in zip(diag, pivot_row[m:])]
        if digit_budget is not None:
            _check_budget([piv] + [rows[i][i] for i in range(r + 1, m)] + diag, digit_budget)
        prev = piv
        kept.append(r)
    if next_cut is not None:
        raise ValueError("cuts must be ascending within 0..len(generators)")
    for dists in table:
        _check_budget(dists, digit_budget)

    coefficients = None
    if solve:
        # Fraction-free back substitution of every column at once:
        # y = prev * x is integral (Cramer).  ys[c] holds column c's y over
        # the kept rows solved so far, the last kept row first.
        ys = [[] for _ in col_scale]
        solved = []
        for r in reversed(kept):
            row = rows[r]
            a = [row[j] for j in solved]
            for y, b in zip(ys, row[m:]):
                y.append((prev * b - sum(map(mul, a, y))) // row[r])
            solved.append(r)
        coefficients = [
            [Q(yr * gen_scale[r], prev * s) for r, yr in zip(solved, y)][::-1]
            for y, s in zip(ys, col_scale)
        ]
    return Elimination(tuple(kept), table, coefficients)


def _reduce(row: dict, prow: dict, p: int) -> dict:
    """a*row - b*prow with coordinate p cancelled, divided by its content."""
    a, b = prow[p], row[p]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = {i: a * x for i, x in row.items()}
    for i, y in prow.items():
        x = out.get(i, 0) - b * y
        if x:
            out[i] = x
        else:
            out.pop(i, None)
    g = math.gcd(*out.values())
    return {i: x // g for i, x in out.items()} if g > 1 else out


def echelon_step(pivots: dict, v: SparseVector, digit_budget: Optional[int] = None) -> bool:
    """One step of the echelon pass: is v independent of the pivot rows?

    v's integer coordinates are reduced against the pivot rows in
    insertion order; a row that stays nonzero is added to pivots under
    its least coordinate.  A digit budget is checked on the input
    coordinates and on every reduced row.  Rows are never mutated, so a
    shallow copy of pivots is a separate echelon state.
    """
    row = _integer_coords(v)[1]
    if digit_budget is not None:
        _check_budget(row.values(), digit_budget)
    for p, prow in pivots.items():
        if p in row:
            row = _reduce(row, prow, p)
            if digit_budget is not None:
                _check_budget(row.values(), digit_budget)
    if row:
        pivots[min(row)] = row
    return bool(row)


def echelon(vectors: Sequence[SparseVector], digit_budget: Optional[int] = None) -> tuple:
    """Fraction-free sparse row echelon pass: (kept, pivots).

    Each vector takes one `echelon_step`.  The indices of the vectors
    independent of those before them go into kept (the greedy maximal
    independent subset); pivots maps each pivot row's least coordinate
    to the row, so its keys are the reduced-row-echelon pivot columns.
    """
    kept, pivots = [], {}
    for r, v in enumerate(vectors):
        if echelon_step(pivots, v, digit_budget):
            kept.append(r)
    return tuple(kept), pivots


def rank_of_vectors(vectors: Sequence[SparseVector], digit_budget: Optional[int] = None) -> int:
    """dim span(vectors): the number of vectors the echelon pass keeps."""
    return len(echelon(vectors, digit_budget)[0])


def combination(coeffs: Sequence[Fraction], vectors: Sequence[SparseVector]) -> SparseVector:
    """sum(c_i v_i) as a sparse vector, summed in integers over the common
    denominator lcm(den(c_i) * scale(v_i))."""
    terms = [(c, _integer_coords(v)) for c, v in zip(coeffs, vectors) if c]
    den = math.lcm(*(c.denominator * s for c, (s, _) in terms))
    acc = {}
    for c, (s, ints) in terms:
        m = c.numerator * (den // (c.denominator * s))
        for i, x in ints.items():
            acc[i] = acc.get(i, 0) + m * x
    return SparseVector(tuple((i, Fraction(acc[i], den)) for i in sorted(acc) if acc[i]))


def project_many(
    targets: Sequence[SparseVector],
    generators: Sequence[SparseVector],
    digit_budget: Optional[int] = None,
) -> list:
    """Exact orthogonal projections of every target onto span(generators)."""
    elim = bordered_elimination(generators, targets, solve=True, digit_budget=digit_budget)
    kept = [generators[i] for i in elim.kept]
    return [combination(c, kept) for c in elim.coefficients]


def reduced_echelon(vectors: Sequence[SparseVector]) -> dict:
    """The echelon pass's pivot rows, back-reduced to reduced row echelon
    form: {pivot: row}, largest pivot first.

    Each pivot row is reduced against the rows of the larger pivots, so
    the row R_p is zero at every other pivot.  The null space of the
    matrix whose rows are the vectors then has the basis
    e_f - sum_p (R_p[f] / R_p[p]) e_p, one vector per free coordinate f:
    the reduced-row-echelon null-space basis.
    """
    rows = {}
    for p, row in sorted(echelon(vectors)[1].items(), reverse=True):
        for q, qrow in rows.items():
            if q in row:
                row = _reduce(row, qrow, q)
        rows[p] = row
    return rows
