"""The head families: `e1-plus-ek`, `young(w=W)`, `defect-pair(m=M)` and
`finite-set(0,k_1,...,k_s)`.

They share one layout, `HeadFamily`: x_k is its head part h_k on the
shared coordinates 1..head plus its private coordinate e_{head+k}, and
x_k* = e_{head+k}.  A head family answers `span_dist_sq` and
`span_projections` from the closed-form orthogonal complement of its
spans (the complement route), whose head-sized Gram matrix it keeps as
running sums over a chain of nested spans, from the h_k alone.
`families.parse_family` imports this module only when a descriptor names
a head kind, so an `oracle` process, a `random(...)` family and an
`infinite-set(...)` family compile none of it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import SparseVector, _combine, bareiss_pass
from .families import (MAX_FINITE_SET_ELEMENT, MAX_PAIR_M, MAX_YOUNG_WIDTH, SystemFamily,
                       _check_defect_set)

if TYPE_CHECKING:  # annotations only: a process that parses no sigma compiles no indexsets
    from .indexsets import EventuallyPeriodicSet

Q = Fraction


class HeadFamily(SystemFamily):
    """x_k = sum of head_pairs(k) + e_{head+k} and x_k* = e_{head+k}.

    The head coordinates 1..head are shared by all vectors; each vector
    has one private coordinate after them.  The default prediction: a
    mixed system misses exactly the head directions when sigma is finite
    and none otherwise, so the defects are {0, head}.  The witnesses are
    the first predicted_defect(sigma) head unit vectors.
    """

    head = 0

    def head_pairs(self, k: int) -> list:
        """The (coordinate, Fraction) pairs of x_k on the head coordinates,
        each coordinate once and each value nonzero."""
        raise NotImplementedError

    def vector(self, k):
        return SparseVector.from_pairs(self.head_pairs(k) + [(self.head + k, Q(1))])

    def dual(self, k):
        return SparseVector.unit(self.head + k)

    def ambient(self, n):
        return self.head + n

    def default_probe_window(self):
        return max(self.head, 5)

    def predicted_defect(self, sigma):
        return 0 if not sigma.is_finite() else self.head

    def witness_space(self, sigma, n, window=None):
        return [SparseVector.unit(j) for j in range(1, self.predicted_defect(sigma) + 1)]

    def predicted_exceptional(self, sigma, n):
        if sigma.is_finite() and self.head > 0:
            return frozenset(sigma.truncate(n))
        return frozenset()

    def _moments(self, blocks, probes, taken, solve=False, digit_budget=None):
        """(elim, dens, rest) after each (primal, duals) block of new indices,
        for the span S of the blocks so far and the e_i, i in taken, a set
        of head coordinates.  (u, v) is orthogonal to x_k = h_k + e_{head+k}
        when v_k = -<u, h_k>, to x_k* = e_{head+k} when v_k = 0 and to e_i
        when u_i = 0, so S's complement is the span W of the w_i = e_i -
        sum_{k in primal} h_k[i] e_{head+k}, i outside taken, plus,
        orthogonal to W, the e_{head+k} with k in no block; rest is each
        probe's integer ||part||^2 on these.  elim is the `bareiss_pass` of
        the rows [G | B] that `bordered_elimination` builds from the w_i:
        d_i w_i is integral for d_i (dens) the lcm of the denominators of
        the h_k[i], and G_ij = d_i d_j (delta_ij + sum_k h_k[i] h_k[j]).
        G, B and rest are running sums; when d_i grows, G's row and column
        i and B's row i are scaled to match."""
        head = self.head
        slot = {i: r for r, i in enumerate(i for i in range(1, head + 1) if i not in taken)}
        dens = [1] * len(slot)
        gram = [[int(r == s) for s in slot.values()] for r in slot.values()]
        border = [[p.coords.get(i, 0) for p in probes] for i in slot]
        rest = [sum(x * x for i, x in p.coords.items() if i > head) for p in probes]
        norms = [sum(x * x for x in p.coords.values()) for p in probes]
        hits = {}  # each coordinate's (probe, value) pairs
        for c, p in enumerate(probes):
            for i, x in p.coords.items():
                hits.setdefault(i, []).append((c, x))
        for primal, duals in blocks:
            for k in (*primal, *duals):
                for c, x in hits.get(head + k, ()):
                    rest[c] -= x * x
            for k in primal:
                pairs = [(slot[i], h) for i, h in self.head_pairs(k) if i in slot]
                for r, h in pairs:
                    f = h.denominator // math.gcd(dens[r], h.denominator)
                    if f > 1:
                        dens[r] *= f
                        for row in gram:
                            row[r] *= f
                        gram[r], border[r] = [g * f for g in gram[r]], [b * f for b in border[r]]
                part = [(r, h.numerator * (dens[r] // h.denominator)) for r, h in pairs]
                for r, a in part:
                    for s, b in part:
                        gram[r][s] += a * b
                    for c, x in hits.get(head + k, ()):
                        border[r][c] -= a * x
            yield bareiss_pass([g + b for g, b in zip(gram, border)], [p.den for p in probes],
                               norms, solve=solve, digit_budget=digit_budget), dens, rest

    def span_dist_sq(self, blocks, probes, taken=(), digit_budget=None) -> list:
        """`SystemFamily.span_dist_sq` from the complement of each span
        (`_moments`): ||p||^2 - dist^2(p, W) + ||rest||^2.  A taken
        coordinate past the head takes the Gram route."""
        if any(i > self.head for i in taken):
            return super().span_dist_sq(blocks, probes, taken, digit_budget)
        norms = [p.norm_sq() for p in probes]
        return [[ns - d + Q(r, p.den ** 2)
                 for ns, d, r, p in zip(norms, elim.dist_sq[0], rest, probes)]
                for elim, _, rest in self._moments(blocks, probes, {*taken}, False, digit_budget)]

    def span_projections(self, primal, targets, digit_budget=None) -> list:
        """`SystemFamily.span_projections` from the complement (`_moments`)
        of H = span{x_k : k in primal}: P_H t = t - rest - P_W t, rest
        being t off the head and the head+k, k in primal, and P_W t =
        sum_i y_i g_i / den from the solve, g_i = d_i w_i.  The g_i are
        made once per span."""
        [(elim, dens, _)] = self._moments([(primal, ())], targets, (), True, digit_budget)
        head, gens = self.head, [{i: d} for i, d in enumerate(dens, start=1)]
        for k in primal:
            for i, h in self.head_pairs(k):
                gens[i - 1][head + k] = -h.numerator * (dens[i - 1] // h.denominator)
        inside = {*range(1, head + 1), *(head + k for k in primal)}
        return [_combine(den, [(den // t.den, {i: x for i, x in t.coords.items() if i in inside}),
                               *((-v, gens[r]) for r, v in zip(elim.kept, y))])
                for t, (den, y) in zip(targets, elim.coefficients)]


class YoungFamily(HeadFamily):
    """x_k = 2^k sum_{j<=min(k,W)} k^{1-j} f_j + e_k with the f-block first."""

    kind = "young"

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be nonnegative")
        if width > MAX_YOUNG_WIDTH:
            raise ValueError(f"w={width} exceeds the bound {MAX_YOUNG_WIDTH}")
        self.head = width

    def head_pairs(self, k):
        return [(j, Q(2 ** k) / Q(k ** (j - 1))) for j in range(1, min(k, self.head) + 1)]

    def descriptor(self):
        return f"young(w={self.head})"


class DefectPairFamily(HeadFamily):
    """x_k = e_1 + k e_2 + ... + k^{m-1} e_m + e_{m+k}; defects are {0, m}."""

    kind = "defect-pair"

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be positive")
        if m > MAX_PAIR_M:
            raise ValueError(f"m={m} exceeds the bound {MAX_PAIR_M}")
        self.head = m

    def head_pairs(self, k):
        return [(j, Q(k ** (j - 1))) for j in range(1, self.head + 1)]

    def descriptor(self):
        return f"defect-pair(m={self.head})"


class E1PlusEkFamily(DefectPairFamily):
    """x_i = e_1 + e_{i+1}, that is defect-pair(m=1); internal index 1 maps
    to the original start at 2."""

    kind = "e1-plus-ek"
    index_offset = 1

    def __init__(self):
        super().__init__(1)

    def descriptor(self):
        return "e1-plus-ek"


class FiniteDefectSetFamily(HeadFamily):
    """Interleaved family realizing a finite defect set S = {0=k_0,...,k_s}.

    x_k uses the variant with superscript j = (k-1) mod (s+1), whose head
    coordinates are k_j+1..k_s; the head is k_s wide.
    """

    kind = "finite-set"

    def __init__(self, defect_set: tuple):
        self.defect_set = tuple(_check_defect_set(defect_set, MAX_FINITE_SET_ELEMENT))
        self.head = self.defect_set[-1]

    @property
    def s(self):
        return len(self.defect_set) - 1

    def class_of(self, k: int) -> int:
        return (k - 1) % (self.s + 1)

    def head_pairs(self, k):
        kj = self.defect_set[self.class_of(k)]
        return [(l, Q(k ** (l - 1))) for l in range(kj + 1, self.head + 1)]

    def descriptor(self):
        return "finite-set(%s)" % ",".join(str(x) for x in self.defect_set)

    def _leading_class(self, sigma: EventuallyPeriodicSet) -> int:
        """Smallest class index meeting sigma infinitely often; s if none.

        Class j holds the k = j+1 mod s+1, so by the Chinese remainder
        theorem it meets the residue r mod sigma.period infinitely often
        exactly when r = j+1 mod gcd(sigma.period, s+1).
        """
        g = math.gcd(sigma.period, self.s + 1)
        hit = {r % g for r in sigma.residues}
        return next((j for j in range(self.s + 1) if (j + 1) % g in hit), self.s)

    def predicted_defect(self, sigma):
        return self.defect_set[self._leading_class(sigma)]

    def predicted_exceptional(self, sigma, n):
        kj1 = self.predicted_defect(sigma)
        return frozenset(
            k for k in sigma.truncate(n) if self.defect_set[self.class_of(k)] < kj1
        )
