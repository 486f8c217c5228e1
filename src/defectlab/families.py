"""The family contract, the biorthogonality check and the descriptor
grammar.

Each family produces, for any index k, the primal vector x_k and its
biorthogonal partner x_k* as exact SparseVectors, the predicted
limiting defect and an explicit witness basis.  Every family answers the
span questions of `defect`, `metric` and `converge` through one method
pair, `span_dist_sq` and `span_projections`: the base class
`SystemFamily` eliminates the x_k and x_k* themselves (the Gram route),
and a head family (`heads`) answers both from the closed-form orthogonal
complement of its spans (the complement route).  The head families live
in `heads`, the `infinite-set` family in `infiniteset` and the seeded
`random` family in `oracle`; `parse_family` imports each only when a
descriptor names one of its kinds.
"""
from __future__ import annotations

import re
from typing import TYPE_CHECKING, List, Optional

from .exact import (InvariantViolation, SparseVector, biorthogonal, bordered_elimination,
                    project_many)

if TYPE_CHECKING:  # annotations only: a process that parses no sigma compiles no indexsets
    from .indexsets import EventuallyPeriodicSet

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


def check_biorthogonal(family: SystemFamily, last: int, digit_budget=None) -> tuple:
    """Returns (x_1..x_last, their duals), and raises InvariantViolation
    unless <x_j, x_k*> = delta_jk for j, k in 1..last.  Then every mixed
    family {x_k : k in sigma} and {x_k* : k not in sigma} of x_1..x_last
    has a block-diagonal Gram matrix with full-rank blocks: it has rank
    last."""
    indices = range(1, last + 1)
    xs, duals = family.vectors(indices), [family.dual(k) for k in indices]
    if not biorthogonal(xs, duals, digit_budget):
        raise InvariantViolation(f"x_1..x_{last} and their duals are not biorthogonal")
    return xs, duals


def _check_defect_set(finite_part, bound: int) -> list:
    S = [int(x) for x in finite_part]
    if not S or S[0] != 0:
        raise MalformedDefectSet("defect set must start with 0")
    if any(a >= b for a, b in zip(S, S[1:])):
        raise MalformedDefectSet("defect set must be strictly increasing")
    if S[-1] > bound:
        raise ValueError(f"element {S[-1]} exceeds the bound {bound}")
    return S


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
        if name in ("e1-plus-ek", "young", "defect-pair", "finite-set"):
            from . import heads

        if name == "e1-plus-ek":
            kwargs()
            return heads.E1PlusEkFamily()
        if name == "young":
            return heads.YoungFamily(width=parse_integer("w", kwargs("w")["w"], MAX_YOUNG_WIDTH))
        if name == "defect-pair":
            return heads.DefectPairFamily(m=parse_integer("m", kwargs("m")["m"], MAX_PAIR_M))
        if name == "finite-set":
            return heads.FiniteDefectSetFamily(defect_set=tuple(
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
