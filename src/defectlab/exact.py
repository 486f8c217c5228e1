"""Exact rational linear algebra over sparsely supported vectors.

Everything in this module is exact.  A vector is stored as integer
coordinates over one positive denominator, and all elimination is
fraction-free on those integers.  `fractions.Fraction` values are made,
and `fractions` is imported, only where a value leaves the kernels
(distances, inner products and `SparseVector.entries`) or enters them
(`SparseVector.from_pairs`), so a process whose values stay integers,
`oracle`'s among them, never loads it.  Distances, projections and Gram
solves come from one Bareiss elimination of a bordered integer Gram
matrix, `bareiss_pass`, which `bordered_elimination` feeds from vectors
and probes, and whose kept generators give ranks; `biorthogonal` checks
<x_j, x_k*> = delta_jk on the pairs that share a coordinate.  No
floating point ever enters.  The module's two exceptions are those of
the mathematics: a digit budget exceeded and an invariant violated.
"""
from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:  # annotations only: a process that makes no Fraction imports no fractions
    from fractions import Fraction


class BudgetExceeded(RuntimeError):
    """Raised when intermediate rationals exceed the configured digit budget."""


class InvariantViolation(RuntimeError):
    """A certified property that must always hold failed: this is a bug."""


def _check_budget(values: Iterable, digit_budget: Optional[int]) -> None:
    """Raises BudgetExceeded if a numerator or denominator of the values,
    ints or Fractions, has more bits than digit_budget * 10/3, rounded
    down: a rough bits-per-digit bound, used only for the abort guard, so
    an over-approximation is fine."""
    if digit_budget is None:
        return
    limit = digit_budget * 10 // 3
    for v in values:
        if v.numerator.bit_length() > limit or v.denominator.bit_length() > limit:
            raise BudgetExceeded(
                f"rational entry exceeds digit budget of {digit_budget} digits"
            )


class SparseVector:
    """Finitely supported vector over the ambient orthonormal basis.

    Stored exactly as integer coordinates over one denominator: coords
    maps strictly increasing positive indices to nonzero ints, den > 0
    and gcd(den, coords) = 1, so equal vectors have equal fields.  The
    kernels compute on these integers; `entries`, the (index, Fraction)
    pairs, is made on demand.  A vector is immutable: nothing may change
    den or coords after construction.  Vectors are made by `from_pairs`,
    `from_ints` and `unit`, which all end in `_stored`; only `from_ints`
    divides out a common factor, as `from_pairs` never makes one.
    """

    __slots__ = ("den", "coords")

    @property
    def entries(self) -> tuple:
        from fractions import Fraction

        den = self.den
        return tuple((i, Fraction(x, den)) for i, x in self.coords.items())

    def __eq__(self, other):
        if other.__class__ is not SparseVector:
            return NotImplemented
        return self.den == other.den and self.coords == other.coords

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SparseVector(entries={self.entries!r})"

    @staticmethod
    def from_pairs(pairs) -> "SparseVector":
        """The sum of the (index, value) pairs, for indices >= 1 and
        rational values: merged, zeros dropped, over the lcm of the
        reduced denominators.

        That lcm leaves no common factor: for each prime, the value whose
        reduced denominator holds its highest power has a coordinate that
        the prime does not divide."""
        from fractions import Fraction

        acc = {}
        for idx, val in pairs:
            idx = int(idx)
            if idx < 1:
                raise ValueError(f"index {idx} is not positive")
            acc[idx] = acc.get(idx, 0) + (val if isinstance(val, Fraction) else Fraction(val))
        values = {i: acc[i] for i in sorted(acc) if acc[i]}
        den = math.lcm(*(x.denominator for x in values.values()))
        return SparseVector._stored(
            {i: x.numerator * (den // x.denominator) for i, x in values.items()}, den)

    @staticmethod
    def from_ints(coords: dict, den: int = 1) -> "SparseVector":
        """The vector coords / den, for nonzero int coords keyed in
        increasing index order and a nonzero int den: divided by
        gcd(den, coords), with the sign of den, into the stored form."""
        g = math.gcd(den, *coords.values()) * (-1 if den < 0 else 1)
        if g != 1:
            coords = {i: x // g for i, x in coords.items()}
            den //= g
        return SparseVector._stored(coords, den)

    @staticmethod
    def unit(index: int) -> "SparseVector":
        return SparseVector._stored({index: 1}, 1)

    @staticmethod
    def _stored(coords: dict, den: int) -> "SparseVector":
        """The vector with exactly these fields, already in stored form."""
        v = object.__new__(SparseVector)
        v.den, v.coords = den, coords
        return v

    def dot(self, other: "SparseVector") -> Fraction:
        from fractions import Fraction

        return Fraction(_idot(self.coords, other.coords), self.den * other.den)

    def norm_sq(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(x * x for x in self.coords.values()), self.den * self.den)

    def __add__(self, other: "SparseVector") -> "SparseVector":
        den = math.lcm(self.den, other.den)
        return _combine(den, [(den // self.den, self.coords), (den // other.den, other.coords)])

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        den = math.lcm(self.den, other.den)
        return _combine(den, [(den // self.den, self.coords), (-den // other.den, other.coords)])


def _idot(a: dict, b: dict) -> int:
    if len(a) > len(b):
        a, b = b, a
    total = 0
    for i, x in a.items():
        if i in b:
            total += x * b[i]
    return total


def _combine(den: int, terms) -> SparseVector:
    """sum(m * coords for m, coords in terms) / den, for int multipliers m."""
    acc = {}
    for m, coords in terms:
        for i, x in coords.items():
            acc[i] = acc.get(i, 0) + m * x
    return SparseVector.from_ints({i: acc[i] for i in sorted(acc) if acc[i]}, den)


class Elimination(NamedTuple):
    """What one bordered elimination of a span answers.

    kept: indices of the generators that took a pivot, a maximal
    independent subset chosen greedily in generator order.
    dist_sq: for each cut, the exact dist^2 of every probe to the span of
    the generators before that cut.
    coefficients: with solve=True, one (den, y) per probe: integers y over
    the kept generators and one denominator, such that the projection of
    the probe onto the span is sum_r y_r g_r / den, where g_r is the
    integer coordinate dict `coords` of the r-th kept generator.
    """

    kept: tuple
    dist_sq: list
    coefficients: Optional[list] = None


def bordered_elimination(
    generators: Sequence[SparseVector],
    probes: Sequence[SparseVector] = (),
    cuts: Optional[Sequence[int]] = None,
    solve: bool = False,
    digit_budget: Optional[int] = None,
) -> Elimination:
    """Distances of the probes to every prefix of span(generators) and,
    with solve=True, their projections: `bareiss_pass` over the bordered
    Gram matrix [[G, B], [B^T, C]] that this function builds.

    G is the Gram matrix of the generators, B their inner products with
    the probes and C the probes' squared norms.  Every vector enters as
    its integer coordinates, that is scaled by its denominator, which
    leaves spans unchanged and makes the matrix integral; the pass
    divides each probe's denominator back out.
    """
    m = len(generators)
    gens = [g.coords for g in generators]
    prbs = [p.coords for p in probes]
    rows = [
        [0] * i
        + [_idot(gens[i], gens[j]) for j in range(i, m)]
        + [_idot(gens[i], p) for p in prbs]
        for i in range(m)
    ]
    return bareiss_pass(rows, [p.den for p in probes], [_idot(p, p) for p in prbs],
                        cuts, solve, digit_budget)


def bareiss_pass(
    rows: list,
    scales: Sequence[int],
    norms: Sequence[int] = (),
    cuts: Optional[Sequence[int]] = None,
    solve: bool = False,
    digit_budget: Optional[int] = None,
) -> Elimination:
    """Symmetric fraction-free (Bareiss) elimination of an integer
    bordered matrix [[G, B], [B^T, C]], with G positive semidefinite.

    rows[i] is row i of [G | B]; its entries left of the diagonal are
    never read, and the pass overwrites the rows.  B has one column per
    probe: scales[c] is the denominator of probe c, and norms, the
    diagonal of C, is empty when no distance is read.

    Pivots are taken on the diagonal in generator order; a zero pivot
    means the generator lies in the span of those before it, and it is
    skipped.  By Sylvester's identity, once the first k generators are
    eliminated a probe's trailing diagonal entry divided by the last
    pivot taken is its dist^2 to their span, so one pass reads off every
    ascending cut (default: all generators).  With solve=True the probe
    columns are back-substituted after the forward pass: by Cramer's
    rule the solution times the last pivot is integral, so each
    projection is one integer combination of the kept generators over
    one denominator.

    With a digit budget, every pivot and every diagonal entry is checked
    as it is produced; by Cauchy-Schwarz they bound all symmetric entries.
    """
    m = len(rows)
    cuts = [m] if cuts is None else list(cuts)
    diag = list(norms)
    if digit_budget is not None:
        _check_budget([rows[i][i] for i in range(m)] + diag, digit_budget)

    prev = 1
    kept = []
    table = []
    if cuts:  # the distances are the only Fractions the pass makes
        from fractions import Fraction
    cut_at = iter(cuts + [None])
    next_cut = next(cut_at)
    for r in range(m + 1):
        while next_cut == r:
            table.append([Fraction(d, prev * s * s) for d, s in zip(diag, scales)])
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
        ys = [[] for _ in scales]
        solved = []
        for r in reversed(kept):
            row = rows[r]
            a = [row[j] for j in solved]
            for y, b in zip(ys, row[m:]):
                y.append((prev * b - sum(map(mul, a, y))) // row[r])
            solved.append(r)
        coefficients = [(prev * s, y[::-1]) for y, s in zip(ys, scales)]
    return Elimination(tuple(kept), table, coefficients)


def biorthogonal(xs: Sequence[SparseVector], duals: Sequence[SparseVector],
                 digit_budget: Optional[int] = None) -> bool:
    """Is <xs[j], duals[k]> = delta_jk for every j and k, for xs and
    duals of equal length?

    Two vectors that share no coordinate are orthogonal, so an index from
    each coordinate to the duals that use it gives the only pairs that
    are computed: those that share a coordinate, and each pair (j, j).
    A head family then costs O(n * head), not O(n^2).  With a digit
    budget, every coordinate and denominator read is checked.
    """
    users = {}
    for k, d in enumerate(duals):
        if digit_budget is not None:
            _check_budget([d.den, *d.coords.values()], digit_budget)
        for i in d.coords:
            users.setdefault(i, []).append(k)
    for j, x in enumerate(xs):
        if digit_budget is not None:
            _check_budget([x.den, *x.coords.values()], digit_budget)
        near = {k for i in x.coords for k in users.get(i, ())}
        near.add(j)
        for k in near:
            d = duals[k]
            if _idot(x.coords, d.coords) != (x.den * d.den if k == j else 0):
                return False
    return True


def project_many(
    targets: Sequence[SparseVector],
    generators: Sequence[SparseVector],
    digit_budget: Optional[int] = None,
) -> list:
    """Exact orthogonal projections of every target onto span(generators)."""
    elim = bordered_elimination(generators, targets, solve=True, digit_budget=digit_budget)
    kept = [generators[i].coords for i in elim.kept]
    return [_combine(den, zip(y, kept)) for den, y in elim.coefficients]

