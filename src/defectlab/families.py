"""Generators for the vector families under study.

Each family produces, for any index k, the primal vector x_k and its
biorthogonal partner x_k* as exact SparseVectors, together with the
predicted limiting defect and an explicit witness basis for the
orthogonal complement of a mixed system.
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from operator import mul
from typing import List, Optional

from .exact import SparseVector, bordered_elimination, reduced_echelon
from .indexsets import EventuallyPeriodicSet

Q = Fraction

INFINITE = math.inf


class UnsupportedFamily(ValueError):
    """Raised when a family does not support defect prediction."""


class MalformedDefectSet(ValueError):
    """Raised for defect sets that are not strictly increasing from 0."""


class FamilySyntaxError(ValueError):
    """Raised on malformed family descriptors."""


class SystemFamily:
    """Base class: a rule-based (x_k, x_k*) generator with metadata."""

    kind = ""
    index_offset = 0

    def vector(self, k: int) -> SparseVector:
        raise NotImplementedError

    def dual(self, k: int) -> SparseVector:
        raise NotImplementedError

    def ambient(self, n: int) -> int:
        """Smallest coordinate window containing x_1..x_n and duals."""
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError

    def default_probe_window(self) -> int:
        return 5

    def truncation(self, n: int) -> int:
        """The last index of x_1..x_n that the family defines."""
        return n

    # -- defect prediction --------------------------------------------
    def predicted_defect(self, sigma: EventuallyPeriodicSet):
        raise UnsupportedFamily(f"{self.kind} supports no defect prediction")

    def witness_space(self, sigma: EventuallyPeriodicSet, n: int,
                      window: Optional[int] = None) -> List[SparseVector]:
        raise UnsupportedFamily(f"{self.kind} supports no witness generator")

    def witnesses_unbounded(self, sigma: EventuallyPeriodicSet) -> bool:
        return False

    def predicted_exceptional(self, sigma: EventuallyPeriodicSet, n: int) -> frozenset:
        """Indices k <= n that normalization moves across the partition."""
        raise UnsupportedFamily(f"{self.kind} supports no witness generator")

    def vectors(self, indices) -> List[SparseVector]:
        return [self.vector(k) for k in indices]


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
        """The (coordinate, value) pairs of x_k on the head coordinates."""
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

    def head_complement(self, sigma, n, taken=()) -> List[SparseVector]:
        """w_i = e_i - sum_{k in sigma, k <= n} h_k[i] e_{head+k}, one for
        each head coordinate i not in taken, h_k being x_k's head part.

        A vector (u, v) on coordinates 1..head+n is orthogonal to
        x_k = h_k + e_{head+k} exactly when v_k = -<u, h_k>, to
        x_k* = e_{head+k} when v_k = 0, and to e_i when u_i = 0.  So the
        w_i span the orthogonal complement, inside coordinates 1..head+n,
        of the mixed system at n together with the e_i, i in taken; for
        the span of the x_k, k in sigma, alone, the complement also holds
        the e_{head+k}, k not in sigma.  Their Gram matrix is
        I + sum h_k h_k^T on the head coordinates outside taken.
        """
        columns = {i: [(i, Q(1))] for i in range(1, self.head + 1) if i not in taken}
        for k in sigma.truncate(n):
            for i, x in self.head_pairs(k):
                if i in columns:
                    columns[i].append((self.head + k, -x))
        return [SparseVector.from_pairs(pairs) for pairs in columns.values()]


class YoungFamily(HeadFamily):
    """x_k = 2^k sum_{j<=min(k,W)} k^{1-j} f_j + e_k with the f-block first."""

    kind = "young"

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be nonnegative")
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


def _check_defect_set(finite_part) -> list:
    S = [int(x) for x in finite_part]
    if not S or S[0] != 0:
        raise MalformedDefectSet("defect set must start with 0")
    if any(a >= b for a, b in zip(S, S[1:])):
        raise MalformedDefectSet("defect set must be strictly increasing")
    return S


class FiniteDefectSetFamily(HeadFamily):
    """Interleaved family realizing a finite defect set S = {0=k_0,...,k_s}.

    x_k uses the variant with superscript j = (k-1) mod (s+1), whose head
    coordinates are k_j+1..k_s; the head is k_s wide.
    """

    kind = "finite-set"

    def __init__(self, defect_set: tuple):
        self.defect_set = tuple(_check_defect_set(defect_set))
        self.head = self.defect_set[-1]

    @property
    def s(self):
        return len(self.defect_set) - 1

    def class_of(self, k: int) -> int:
        return (k - 1) % (self.s + 1)

    def class_set(self, j: int) -> EventuallyPeriodicSet:
        period = self.s + 1
        return EventuallyPeriodicSet.residue_class(period, [(j + 1) % period])

    def head_pairs(self, k):
        kj = self.defect_set[self.class_of(k)]
        return [(l, Q(k ** (l - 1))) for l in range(kj + 1, self.head + 1)]

    def descriptor(self):
        return "finite-set(%s)" % ",".join(str(x) for x in self.defect_set)

    def _leading_class(self, sigma: EventuallyPeriodicSet) -> int:
        """Smallest class index meeting sigma infinitely often; s if none."""
        for j in range(self.s + 1):
            if not sigma.intersection(self.class_set(j)).is_finite():
                return j
        return self.s

    def predicted_defect(self, sigma):
        return self.defect_set[self._leading_class(sigma)]

    def predicted_exceptional(self, sigma, n):
        kj1 = self.predicted_defect(sigma)
        return frozenset(
            k for k in sigma.truncate(n) if self.defect_set[self.class_of(k)] < kj1
        )


class InfiniteDefectSetFamily(SystemFamily):
    """Triangular-block family realizing S = {0=k_0,...,k_s, infinity}.

    Superscripts follow the pattern x_1^0, x_2^0, x_3^1, x_4^0, x_5^1,
    x_6^2, ... and are padded with k_j = k_s beyond the finite part.
    Layout interleaves the two blocks: f_j at coordinate 2j-1, e_n at 2n.
    """

    kind = "infinite-set"

    def __init__(self, finite_part: tuple):
        self.finite_part = tuple(_check_defect_set(finite_part))

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
        # n in sigma whose expansion contains f_j.
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


# A random family is drawn and solved densely, so its size is bounded:
# d, the ambient dimension, and n, the number of vectors.
MAX_RANDOM_DIM = 100
MAX_RANDOM_COUNT = 50


class RandomFiniteFamily(SystemFamily):
    """Seeded random independent system in a finite ambient space.

    The biorthogonal family is the dual basis inside the span, optionally
    perturbed by exact components from the orthogonal complement (which
    preserves biorthogonality but exercises its non-uniqueness).

    The vectors are integer rows V.  The span duals are the rows of
    G^-1 V, G = V V^T: the coefficient of x_k in the projection of the
    unit probe e_c is (G^-1 V)_kc, so one Gram solve with probes
    e_1..e_dim gives every dual as one integer row over the solve's
    denominator.  A perturbed dual adds sum_f r_f n_f over the
    reduced-row-echelon null-space basis n_f of V, with integer r_f in
    -2..2: r_f at each free coordinate f and -sum_f r_f R_p[f] / R_p[p]
    at each pivot p of the reduced rows R_p, all as integers over the lcm
    of the solve's denominator and the R_p[p].
    """

    kind = "random"
    MAX_RETRIES = 50

    def __init__(self, dim: int, count: int, seed: int, dual_style: str = "span"):
        if count < 0:
            raise ValueError("count must not be negative")
        if dim > MAX_RANDOM_DIM:
            raise ValueError(f"d={dim} exceeds the bound {MAX_RANDOM_DIM}")
        if count > MAX_RANDOM_COUNT:
            raise ValueError(f"n={count} exceeds the bound {MAX_RANDOM_COUNT}")
        if count > dim:
            raise ValueError("count must not exceed ambient dimension")
        if dual_style not in ("span", "perturbed"):
            raise ValueError("dual_style must be 'span' or 'perturbed'")
        self.dim = dim
        self.count = count
        self.seed = seed
        self.dual_style = dual_style
        self._generate()

    def _generate(self):
        rng = random.Random(self.seed)
        coords = range(1, self.dim + 1)
        units = [SparseVector.unit(c) for c in coords]
        for _ in range(self.MAX_RETRIES):
            rows = [[rng.randint(-3, 3) for _i in coords] for _k in range(self.count)]
            vecs = [SparseVector.from_ints({i: x for i, x in zip(coords, row) if x})
                    for row in rows]
            elim = bordered_elimination(vecs, units, cuts=(), solve=True)
            if len(elim.kept) == self.count:
                break
        else:
            raise RuntimeError("failed to draw an independent system")
        # coordinate c of the k-th dual is y_kc over one denominator
        den = elim.coefficients[0][0] if coords else 1
        duals = [list(row) for row in zip(*(y for _, y in elim.coefficients))]
        if self.dual_style == "perturbed":
            reduced = reduced_echelon(vecs)
            free = [f for f in coords if f not in reduced]
            # each pivot p with R_p[p] and R_p at the free coordinates
            pivots = [(p, row[p], [row.get(f, 0) for f in free]) for p, row in reduced.items()]
            lcm = math.lcm(den, *(rp for _, rp, _ in pivots))
            for dual in duals:
                shifts = [rng.randint(-2, 2) for _f in free]
                dual[:] = [y * (lcm // den) for y in dual]
                for f, r in zip(free, shifts):
                    dual[f - 1] += r * lcm
                for p, rp, at_free in pivots:
                    dual[p - 1] -= sum(map(mul, shifts, at_free)) * (lcm // rp)
            den = lcm
        self._vectors = vecs
        self._duals = [SparseVector.from_ints({c: y for c, y in zip(coords, dual) if y}, den)
                       for dual in duals]

    def vector(self, k):
        return self._vectors[k - 1]

    def dual(self, k):
        return self._duals[k - 1]

    def ambient(self, n):
        return self.dim

    def truncation(self, n):
        return min(n, self.count)

    def descriptor(self):
        return (
            f"random(d={self.dim},n={self.count},seed={self.seed},dual={self.dual_style})"
        )


# -- descriptor grammar ------------------------------------------------------

_FAMILY_RE = re.compile(r"^\s*([a-z0-9\-]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_family(text: str) -> SystemFamily:
    """Parse a family descriptor, e.g. "defect-pair(m=3)" or "finite-set(0,1,3)"."""
    m = _FAMILY_RE.match(text)
    if not m:
        raise FamilySyntaxError(f"malformed family descriptor: {text!r}")
    name, argtext = m.group(1), m.group(2) or ""
    args = [a.strip() for a in argtext.split(",") if a.strip()]

    def kwargs(*keys):
        """The key=value arguments; a key outside keys, or given twice, is an error."""
        out = {}
        for a in args:
            key, eq, val = (part.strip() for part in a.partition("="))
            if key not in keys:
                raise FamilySyntaxError(f"{name} takes no argument {a!r}")
            if not eq:
                raise FamilySyntaxError(f"expected key=value in {text!r}")
            if key in out:
                raise FamilySyntaxError(f"argument {key!r} is given twice")
            out[key] = val
        return out

    try:
        if name == "e1-plus-ek":
            kwargs()
            return E1PlusEkFamily()
        if name == "young":
            return YoungFamily(width=int(kwargs("w")["w"]))
        if name == "defect-pair":
            return DefectPairFamily(m=int(kwargs("m")["m"]))
        if name == "finite-set":
            return FiniteDefectSetFamily(defect_set=tuple(int(a) for a in args))
        if name == "infinite-set":
            if not args or args[-1] != "inf":
                raise MalformedDefectSet("infinite-set must end with 'inf'")
            return InfiniteDefectSetFamily(
                finite_part=tuple(int(a) for a in args[:-1])
            )
        if name == "random":
            kw = kwargs("d", "n", "seed", "dual")
            return RandomFiniteFamily(
                dim=int(kw["d"]),
                count=int(kw["n"]),
                seed=int(kw.get("seed", "0")),
                dual_style=kw.get("dual", "span"),
            )
    except (KeyError, ValueError) as exc:
        if isinstance(exc, (MalformedDefectSet,)):
            raise
        raise FamilySyntaxError(f"bad arguments in {text!r}: {exc}") from exc
    raise FamilySyntaxError(f"unknown family kind {name!r}")
