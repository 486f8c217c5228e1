"""The triangular-block family that realizes an infinite defect set.

`families.parse_family` imports this module only for an
`infinite-set(...)` descriptor.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .exact import SparseVector
from .families import SystemFamily, _check_defect_set

if TYPE_CHECKING:  # annotations only
    from .indexsets import EventuallyPeriodicSet

Q = Fraction

INFINITE = math.inf

# Each finite element of infinite-set(...) is at most this, far above
# every documented use; the last one sets the default probe window.
MAX_INFINITE_SET_ELEMENT = 100


class InfiniteDefectSetFamily(SystemFamily):
    """Triangular-block family realizing S = {0=k_0,...,k_s, infinity}.

    Superscripts follow the pattern x_1^0, x_2^0, x_3^1, x_4^0, x_5^1,
    x_6^2, ... and are padded with k_j = k_s beyond the finite part.
    Layout interleaves the two blocks: f_j at coordinate 2j-1, e_n at 2n.
    """

    kind = "infinite-set"

    def __init__(self, finite_part: tuple):
        self.finite_part = tuple(_check_defect_set(finite_part, MAX_INFINITE_SET_ELEMENT))

    @property
    def s(self):
        return len(self.finite_part) - 1

    @staticmethod
    def superscript(n: int) -> int:
        t = math.isqrt(8 * (n - 1) + 1)
        m = (t - 1) // 2
        return n - m * (m + 1) // 2 - 1

    def effective_class(self, n: int) -> int:
        return min(self.superscript(n), self.s)

    def k_eff(self, n: int) -> int:
        return self.finite_part[self.effective_class(n)]

    def f_coord(self, j):
        return 2 * j - 1

    def e_coord(self, n):
        return 2 * n

    def vector(self, n):
        kj = self.k_eff(n)
        pairs = [
            (self.f_coord(j), Q(2 ** n) / Q(n ** (j - 1)))
            for j in range(kj + 1, n + 1)
        ]
        pairs.append((self.e_coord(n), Q(1)))
        return SparseVector.from_pairs(pairs)

    def dual(self, n):
        return SparseVector.unit(self.e_coord(n))

    def ambient(self, n):
        return 2 * n

    def descriptor(self):
        return "infinite-set(%s,inf)" % ",".join(str(x) for x in self.finite_part)

    def default_probe_window(self):
        return max(self.k_s_value(), 5)

    def k_s_value(self):
        return self.finite_part[-1]

    def _class_infinite(self, sigma: EventuallyPeriodicSet, j: int) -> bool:
        """Does sigma meet {n : effective class(n) = j} infinitely often?"""
        if j == self.s:
            return not sigma.is_finite()
        p = sigma.period
        # from this m on, n = m(m+1)/2 + j + 1 lies past every exception,
        # and m(m+1)/2 mod p has period 2p in m, so 2p steps decide
        m = max(j, math.isqrt(2 * sigma._exception_bound()) + 1)
        for step in range(2 * p):
            n = (m + step) * (m + step + 1) // 2 + j + 1
            if (n % p) in sigma.residues:
                return True
        return False

    def _leading_class(self, sigma: EventuallyPeriodicSet) -> Optional[int]:
        """Smallest effective class meeting sigma infinitely; None if all finite."""
        if sigma.is_finite():
            return None
        for j in range(self.s + 1):
            if self._class_infinite(sigma, j):
                return j
        return None

    def predicted_defect(self, sigma):
        j1 = self._leading_class(sigma)
        if j1 is None:
            return INFINITE
        return self.finite_part[j1]

    def witnesses_unbounded(self, sigma):
        return self._leading_class(sigma) is None

    def witness_space(self, sigma, n, window=None):
        j1 = self._leading_class(sigma)
        if j1 is not None:
            kj = self.finite_part[j1]
            return [SparseVector.unit(self.f_coord(j)) for j in range(1, kj + 1)]
        # Defect-infinity regime: one witness f_j + x' per f-direction, with
        # the exact correction c_n = -2^n / n^{j-1} over the finitely many
        # n in sigma whose expansion contains f_j.  x' lies on the
        # e-coordinates 2m, m >= j, past f_j's 2j - 1, so f_j is each
        # witness's least coordinate and no other witness meets it.
        if window is None:
            window = self.default_probe_window()
        members = sigma.truncate(n)
        witnesses = []
        for j in range(1, min(window, n) + 1):
            pairs = [(self.f_coord(j), Q(1))]
            for m in members:
                if self.k_eff(m) < j <= m:
                    pairs.append((self.e_coord(m), -Q(2 ** m) / Q(m ** (j - 1))))
            witnesses.append(SparseVector.from_pairs(pairs))
        return witnesses

    def predicted_exceptional(self, sigma, n):
        j1 = self._leading_class(sigma)
        if j1 is None:
            return frozenset()
        kj1 = self.finite_part[j1]
        return frozenset(
            m for m in sigma.truncate(n) if self.k_eff(m) < kj1
        )
