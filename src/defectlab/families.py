"""Generators for the vector families under study.

Each family produces, for any index k, the primal vector x_k and its
biorthogonal partner x_k* as exact SparseVectors, the predicted
limiting defect and an explicit witness basis.  Every family answers the
span questions of `defect`, `metric` and `converge` through one method
pair, `span_dist_sq` and `span_projections`: the base class eliminates
the x_k and x_k* themselves (the Gram route), and a `HeadFamily`
answers both from the closed-form orthogonal complement of its spans
(the complement route), whose head-sized Gram matrix it keeps as running
sums over a chain of nested spans, from the head parts of the x_k
alone.  The `infinite-set` family lives in
`infiniteset` and the seeded `random` family in `oracle`;
`parse_family` imports either only when a descriptor names it.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional

from .exact import (InvariantViolation, SparseVector, _combine, bareiss_pass, biorthogonal,
                    bordered_elimination, project_many)

if TYPE_CHECKING:  # annotations only: a process that parses no sigma compiles no indexsets
    from .indexsets import EventuallyPeriodicSet

Q = Fraction

# Family arguments are bounded before any work, each far above every
# documented and benchmarked use; a larger value exits 2 with a message
# that names its key and bound.
MAX_YOUNG_WIDTH = 100  # young w, the head width
MAX_PAIR_M = 100  # defect-pair m, the head width
MAX_FINITE_SET_ELEMENT = 100  # each element of finite-set(...); the last is the head width
# An integer argument or bounded CLI flag of more than ECHO_DIGITS digits,
# far above every bound, is refused by its digit count before int() reads
# it, so that the message stays short; the sigma grammar keeps the rule.
ECHO_DIGITS = 20
# A message quotes a token of at most ECHO_CHARS characters in full, and a
# longer one by its first ECHO_CHARS characters and its length.
ECHO_CHARS = 40


def echo(token: str) -> str:
    """The token as a message quotes it, bounded by ECHO_CHARS."""
    if len(token) <= ECHO_CHARS:
        return repr(token)
    return f"{token[:ECHO_CHARS]!r}... ({len(token)} characters)"


class UnsupportedFamily(ValueError):
    """Raised when a family does not support defect prediction."""


class MalformedDefectSet(ValueError):
    """Raised for defect sets that are not strictly increasing from 0."""


class FamilySyntaxError(ValueError):
    """Raised on malformed family descriptors."""


class LongArgument(FamilySyntaxError):
    """Raised for an integer argument of more than ECHO_DIGITS digits; its
    message names the argument's digit count, not the descriptor."""


class SystemFamily:
    """Base class: a rule-based (x_k, x_k*) generator with metadata.

    Contract: x_1..x_truncation(n) are linearly independent for every n,
    so the dimension of a truncated span is the number of its indices;
    `chain` counts indices on this alone.  In a head family x_k is the
    only vector with a nonzero coordinate head+k, in `infinite-set` the
    only one with a nonzero coordinate 2k, and a `random` draw is
    redrawn until its elimination keeps every vector.
    """

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
        """Witnesses of the defect of the mixed family at n: each is 1 at
        its least coordinate and 0 at every other witness's least
        coordinate, which `classify_defect` checks, so they are
        independent.  Where `witnesses_unbounded`, the list for a window
        is the first window witnesses of the list for any wider one."""
        raise UnsupportedFamily(f"{self.kind} supports no witness generator")

    def witnesses_unbounded(self, sigma: EventuallyPeriodicSet) -> bool:
        return False

    def predicted_exceptional(self, sigma: EventuallyPeriodicSet, n: int) -> frozenset:
        """Indices k <= n that normalization moves across the partition."""
        raise UnsupportedFamily(f"{self.kind} supports no witness generator")

    def vectors(self, indices) -> List[SparseVector]:
        return [self.vector(k) for k in indices]

    # -- span distances and projections ---------------------------------
    def span_dist_sq(self, blocks, probes, taken=(), digit_budget=None) -> list:
        """dist^2 of every probe to each span of a nested chain, one row
        per block: row j is for span{e_i : i in taken} plus the x_k,
        k in primal, and the x_k*, k in duals, of each (primal, duals)
        of blocks[:j+1], a block naming only indices that no earlier
        block names.  One `bordered_elimination` of the e_i, then each
        block's vectors in ascending index order, with a cut at each
        block's end."""
        gens = [SparseVector.unit(i) for i in taken]
        cuts = []
        for primal, duals in blocks:
            duals = set(duals)
            gens += [self.dual(k) if k in duals else self.vector(k)
                     for k in sorted({*primal, *duals})]
            cuts.append(len(gens))
        return bordered_elimination(gens, probes, cuts=cuts, digit_budget=digit_budget).dist_sq

    def span_projections(self, primal, targets, digit_budget=None) -> list:
        """Exact projections of the targets onto span{x_k : k in primal}."""
        return project_many(targets, self.vectors(primal), digit_budget)


def check_biorthogonal(family: SystemFamily, last: int, digit_budget=None) -> None:
    """Raises InvariantViolation unless <x_j, x_k*> = delta_jk for j, k
    in 1..last.  Then every mixed family {x_k : k in sigma} and
    {x_k* : k not in sigma} of x_1..x_last has a block-diagonal Gram
    matrix with full-rank blocks: it has rank last."""
    indices = range(1, last + 1)
    if not biorthogonal(family.vectors(indices), [family.dual(k) for k in indices],
                        digit_budget):
        raise InvariantViolation(f"x_1..x_{last} and their duals are not biorthogonal")


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


def _check_defect_set(finite_part, bound: int) -> list:
    S = [int(x) for x in finite_part]
    if not S or S[0] != 0:
        raise MalformedDefectSet("defect set must start with 0")
    if any(a >= b for a, b in zip(S, S[1:])):
        raise MalformedDefectSet("defect set must be strictly increasing")
    if S[-1] > bound:
        raise ValueError(f"element {S[-1]} exceeds the bound {bound}")
    return S


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


# -- descriptor grammar ------------------------------------------------------

_FAMILY_RE = re.compile(r"^\s*([a-z0-9\-]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_family(text: str) -> SystemFamily:
    """Parse a family descriptor, e.g. "defect-pair(m=3)" or "finite-set(0,1,3)"."""
    m = _FAMILY_RE.match(text)
    if not m:
        raise FamilySyntaxError(f"malformed family descriptor: {echo(text)}")
    name, argtext = m.group(1), m.group(2) or ""
    args = [a.strip() for a in argtext.split(",") if a.strip()]

    def kwargs(*keys):
        """The key=value arguments; a key outside keys, or given twice, is an error."""
        out = {}
        for a in args:
            key, eq, val = (part.strip() for part in a.partition("="))
            if key not in keys:
                raise FamilySyntaxError(f"{name} takes no argument {echo(a)}")
            if not eq:
                raise FamilySyntaxError(f"expected key=value in {echo(text)}")
            if key in out:
                raise FamilySyntaxError(f"argument {echo(key)} is given twice")
            out[key] = val
        return out

    try:
        if name == "e1-plus-ek":
            kwargs()
            return E1PlusEkFamily()
        if name == "young":
            return YoungFamily(width=parse_integer("w", kwargs("w")["w"], MAX_YOUNG_WIDTH))
        if name == "defect-pair":
            return DefectPairFamily(m=parse_integer("m", kwargs("m")["m"], MAX_PAIR_M))
        if name == "finite-set":
            return FiniteDefectSetFamily(defect_set=tuple(
                parse_integer("element", a, MAX_FINITE_SET_ELEMENT) for a in args))
        if name == "infinite-set":
            if not args or args[-1] != "inf":
                raise MalformedDefectSet("infinite-set must end with 'inf'")
            from .infiniteset import MAX_INFINITE_SET_ELEMENT, InfiniteDefectSetFamily

            return InfiniteDefectSetFamily(finite_part=tuple(
                parse_integer("element", a, MAX_INFINITE_SET_ELEMENT) for a in args[:-1]))
        if name == "random":
            from .oracle import MAX_RANDOM_COUNT, MAX_RANDOM_DIM, RandomFiniteFamily

            kw = kwargs("d", "n", "seed", "dual")
            return RandomFiniteFamily(
                dim=parse_integer("d", kw["d"], MAX_RANDOM_DIM),
                count=parse_integer("n", kw["n"], MAX_RANDOM_COUNT),
                seed=parse_integer("seed", kw.get("seed", "0"), f"of {ECHO_DIGITS} digits"),
                dual_style=kw.get("dual", "span"),
            )
    except (KeyError, ValueError) as exc:
        if isinstance(exc, (MalformedDefectSet, LongArgument)):
            raise
        raise FamilySyntaxError(f"bad arguments in {echo(text)}: {exc}") from exc
    raise FamilySyntaxError(f"unknown family kind {echo(name)}")


def parse_integer(key: str, token: str, bound=None) -> int:
    """The integer of a token of key, a family argument or a CLI flag.
    With a bound, a token of more than ECHO_DIGITS digits is refused by
    its digit count before int() reads it; every message names the key,
    and the bound or the token."""
    digits = token.strip().lstrip("+-").replace("_", "").lstrip("0")
    if bound is not None and len(digits) > ECHO_DIGITS and digits.isdigit():
        raise LongArgument(f"{key} of {len(digits)} digits exceeds the bound {bound}")
    try:
        return int(token)
    except ValueError:
        raise FamilySyntaxError(f"{key} takes an integer, not {echo(token)}") from None
