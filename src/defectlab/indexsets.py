"""Eventually periodic subsets of the positive integers.

A set is a union of residue classes modulo a period, corrected by a
finite list of added and removed elements.  The class is closed under
complement, union and intersection, and carries the exact weighted
metric rho(A, B) = sum |1_A(k) - 1_B(k)| / 2^k.  The tail completions
sigma_m = sigma ∪ [m+1, ∞) are never built as sets: `topology` reads
them off sigma.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import FrozenSet, Iterable, NamedTuple

# A bound error quotes a token of at most ECHO_DIGITS digits; a longer
# one, far above every bound, is named by its digit count instead, and
# any other token is quoted by `echo`, as in the family descriptors.
from .families import ECHO_DIGITS, echo

Q = Fraction

# Every set's period is at most MAX_PERIOD, since complement and the
# binary operations take time linear in the period.
MAX_PERIOD = 10_000
# "(" and "~" nest at most MAX_NESTING deep in an expression.
MAX_NESTING = 100
# An expression names no element above MAX_ELEMENT, since rho holds
# 1/2^k exactly for every exception k.
MAX_ELEMENT = 100_000


class SetSyntaxError(ValueError):
    """Raised on malformed set expressions."""


def _check_period(period: int) -> None:
    if period > MAX_PERIOD:
        raise ValueError(f"period {period} exceeds the bound {MAX_PERIOD}")


def _min_period(period: int, residues: FrozenSet[int]) -> tuple:
    """Smallest divisor of `period` that reproduces the residue pattern."""
    for d in range(1, period + 1):
        if period % d:
            continue
        projected = frozenset(r % d for r in residues)
        if all((r in residues) == (r % d in projected) for r in range(period)):
            return d, projected
    return period, residues  # unreachable


class EventuallyPeriodicSet(NamedTuple):
    """Canonical representation: minimal period, exceptions split so that
    `added` misses the residue pattern and `removed` matches it."""

    period: int
    residues: FrozenSet[int]
    added: FrozenSet[int]
    removed: FrozenSet[int]

    @staticmethod
    def make(period: int, residues: Iterable[int], added: Iterable[int] = (),
             removed: Iterable[int] = ()) -> "EventuallyPeriodicSet":
        if period < 1:
            raise ValueError("period must be positive")
        _check_period(period)
        residues = frozenset(r % period for r in residues)
        added = frozenset(int(k) for k in added)
        removed = frozenset(int(k) for k in removed)
        if any(k < 1 for k in added | removed):
            raise ValueError("exception elements must be positive")
        period, residues = _min_period(period, residues)
        return EventuallyPeriodicSet(
            period, residues,
            frozenset(k for k in added if k % period not in residues),
            frozenset(k for k in removed - added if k % period in residues))

    # -- constructors -------------------------------------------------
    @staticmethod
    def empty() -> "EventuallyPeriodicSet":
        return EventuallyPeriodicSet.make(1, ())

    @staticmethod
    def all() -> "EventuallyPeriodicSet":
        return EventuallyPeriodicSet.make(1, (0,))

    @staticmethod
    def finite(elements: Iterable[int]) -> "EventuallyPeriodicSet":
        return EventuallyPeriodicSet.make(1, (), added=elements)

    @staticmethod
    def residue_class(period: int, residues: Iterable[int]) -> "EventuallyPeriodicSet":
        return EventuallyPeriodicSet.make(period, residues)

    # -- membership ----------------------------------------------------
    def contains(self, k: int) -> bool:
        if k < 1:
            return False
        if k in self.added:
            return True
        if k in self.removed:
            return False
        return (k % self.period) in self.residues

    __contains__ = contains

    def is_finite(self) -> bool:
        return not self.residues

    def truncate(self, n: int) -> list:
        """Sorted list of the members in [1:n]."""
        return [k for k in range(1, n + 1) if self.contains(k)]

    def _exception_bound(self) -> int:
        exc = self.added | self.removed
        return max(exc) if exc else 0

    # -- algebra ---------------------------------------------------------
    def complement(self) -> "EventuallyPeriodicSet":
        comp = frozenset(range(self.period)) - self.residues
        return EventuallyPeriodicSet.make(self.period, comp,
                                          added=self.removed, removed=self.added)

    def _combine(self, other: "EventuallyPeriodicSet", op) -> "EventuallyPeriodicSet":
        period = math.lcm(self.period, other.period)
        _check_period(period)
        residues = [
            r for r in range(period)
            if op((r % self.period) in self.residues, (r % other.period) in other.residues)
        ]
        exceptions = self.added | self.removed | other.added | other.removed
        added, removed = [], []
        for k in exceptions:
            truth = op(self.contains(k), other.contains(k))
            pat = (k % period) in residues
            if truth and not pat:
                added.append(k)
            elif not truth and pat:
                removed.append(k)
        return EventuallyPeriodicSet.make(period, residues, added, removed)

    def union(self, other: "EventuallyPeriodicSet") -> "EventuallyPeriodicSet":
        return self._combine(other, lambda a, b: a or b)

    def intersection(self, other: "EventuallyPeriodicSet") -> "EventuallyPeriodicSet":
        return self._combine(other, lambda a, b: a and b)

    def difference(self, other: "EventuallyPeriodicSet") -> "EventuallyPeriodicSet":
        return self.intersection(other.complement())

    def symmetric_difference(self, other: "EventuallyPeriodicSet") -> "EventuallyPeriodicSet":
        return self._combine(other, lambda a, b: a != b)

    def describe(self) -> str:
        if not self.residues:
            return "fin(%s)" % ",".join(map(str, sorted(self.added))) if self.added else "none"
        base = "all" if self.period == 1 else "res(%d;%s)" % (
            self.period, ",".join(map(str, sorted(self.residues))))
        return (base + "".join("+%d" % k for k in sorted(self.added))
                + "".join("-%d" % k for k in sorted(self.removed)))


def rho(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet) -> Fraction:
    """Exact value of sum_k |1_a(k) - 1_b(k)| / 2^k (closed form).

    Over the symmetric difference, of period p, a residue r adds
    2^{p-f} / (2^p - 1), f being r, or p for r = 0, and an exception k
    adds or removes 2^{-k}.  The residues sum as one integer over
    2^p - 1 and the exceptions as one integer over 2^t, t the largest
    exception, so one Fraction holds the value.
    """
    diff = a.symmetric_difference(b)
    p = diff.period
    periodic = sum(1 << (p - (r or p)) for r in diff.residues)
    t = diff._exception_bound()
    exceptions = sum(1 << (t - k) for k in diff.added) - sum(1 << (t - k) for k in diff.removed)
    cycle = (1 << p) - 1
    return Q((periodic << t) + exceptions * cycle, cycle << t)


# ---------------------------------------------------------------------------
# Expression grammar (shared with the CLI); see docs/sigma_grammar.ebnf.
#
#   expr    := term { "|" term }
#   term    := factor { "&" factor }
#   factor  := "~" factor | atom { ("+" | "-") integer }
#   atom    := "all" | "none" | "res(" p ";" r {"," r} ")"
#            | "fin(" [k {"," k}] ")" | "(" expr ")"
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(res|fin|all|none|\d+|[();,&|~+\-])")


def _tokenize(text: str) -> list:
    tokens = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SetSyntaxError(f"unexpected character at {echo(text[pos:])}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise SetSyntaxError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise SetSyntaxError(f"expected {expected!r}, got {echo(tok)}")
        self.pos += 1
        return tok

    def enter(self) -> None:
        """Opens one level of "(" or "~"; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SetSyntaxError(f"nesting deeper than {MAX_NESTING} levels")

    def int_token(self, what: str = "", bound: int = 0) -> int:
        """The next integer; with a bound, a token of more than ECHO_DIGITS
        digits is refused by its digit count before int() reads it."""
        tok = self.take()
        if not tok.isdigit():
            raise SetSyntaxError(f"expected integer, got {echo(tok)}")
        digits = len(tok.lstrip("0"))
        if bound and digits > ECHO_DIGITS:
            raise SetSyntaxError(f"{what} of {digits} digits exceeds the bound {bound}")
        return int(tok)

    def element(self) -> int:
        """An element of fin(...) or of a "+k" / "-k" correction."""
        k = self.int_token("element", MAX_ELEMENT)
        if k > MAX_ELEMENT:
            raise SetSyntaxError(f"element {k} exceeds the bound {MAX_ELEMENT}")
        return k

    def expr(self) -> EventuallyPeriodicSet:
        node = self.term()
        while self.peek() == "|":
            self.take()
            node = node.union(self.term())
        return node

    def term(self) -> EventuallyPeriodicSet:
        node = self.factor()
        while self.peek() == "&":
            self.take()
            node = node.intersection(self.factor())
        return node

    def factor(self) -> EventuallyPeriodicSet:
        if self.peek() == "~":
            self.take()
            self.enter()
            node = self.factor().complement()
            self.depth -= 1
            return node
        node = self.atom()
        while self.peek() in ("+", "-"):
            op = self.take()
            k = self.element()
            single = EventuallyPeriodicSet.finite([k])
            node = node.union(single) if op == "+" else node.difference(single)
        return node

    def atom(self) -> EventuallyPeriodicSet:
        tok = self.take()
        if tok == "all":
            return EventuallyPeriodicSet.all()
        if tok == "none":
            return EventuallyPeriodicSet.empty()
        if tok == "(":
            self.enter()
            node = self.expr()
            self.take(")")
            self.depth -= 1
            return node
        if tok == "res":
            self.take("(")
            period = self.int_token("period", MAX_PERIOD)
            self.take(";")
            residues = [self.int_token()]
            while self.peek() == ",":
                self.take()
                residues.append(self.int_token())
            self.take(")")
            if period < 1:
                raise SetSyntaxError("period must be positive")
            return EventuallyPeriodicSet.residue_class(period, residues)
        if tok == "fin":
            self.take("(")
            elements = []
            if self.peek() != ")":
                elements.append(self.element())
                while self.peek() == ",":
                    self.take()
                    elements.append(self.element())
            self.take(")")
            if any(k < 1 for k in elements):
                raise SetSyntaxError("fin() elements must be positive")
            return EventuallyPeriodicSet.finite(elements)
        raise SetSyntaxError(f"unexpected token {echo(tok)}")


def parse_set(text: str) -> EventuallyPeriodicSet:
    """Parse a set expression like "res(3;1)+2-4 | fin(9)"."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    if parser.peek() is not None:
        raise SetSyntaxError(f"trailing input at {echo(parser.peek())}")
    return node
