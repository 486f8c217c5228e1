"""Projector metric machinery with certified interval enclosures.

Ranks, squared distances, and the set metric rho stay exact rationals;
the only irrational quantities are norms, which are quarantined inside
IntervalValue enclosures produced by directed integer square roots.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Optional

from .exact import (
    SparseVector,
    bordered_elimination,
    combination,
    dist_sq,
    project_coefficients,
    project_many,
)
from .families import SystemFamily
from .indexsets import EventuallyPeriodicSet, rho, sigma_m

Q = Fraction


class ZeroVector(ValueError):
    """Raised when a family vector cannot be normalized."""


class IntervalValue:
    """Closed rational interval certified to contain the true value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("interval bounds out of order")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if other.__class__ is not IntervalValue:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"IntervalValue(lo={self.lo!r}, hi={self.hi!r})"

    @staticmethod
    def exact(x) -> "IntervalValue":
        x = Q(x)
        return IntervalValue(x, x)

    def __add__(self, other: "IntervalValue") -> "IntervalValue":
        return IntervalValue(self.lo + other.lo, self.hi + other.hi)

    def scale(self, c: Fraction) -> "IntervalValue":
        c = Q(c)
        if c < 0:
            return IntervalValue(self.hi * c, self.lo * c)
        return IntervalValue(self.lo * c, self.hi * c)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, other: "IntervalValue") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def sqrt_enclosure(r: Fraction, precision_bits: int) -> IntervalValue:
    """Certified enclosure of sqrt(r) with width <= 2^-precision_bits."""
    r = Q(r)
    if r < 0:
        raise ValueError("sqrt of a negative rational")
    if r == 0:
        return IntervalValue(Q(0), Q(0))
    scale = 1 << (precision_bits + 1)
    t = (r.numerator * scale * scale) // r.denominator
    root = math.isqrt(t)
    return IntervalValue(Q(root, scale), Q(root + 1, scale))


def _norms_sq(vectors) -> list:
    """Squared norms of x_1, x_2, ...; normalizing needs each to be nonzero."""
    norms = [v.norm_sq() for v in vectors]
    if 0 in norms:
        raise ZeroVector(f"x_{norms.index(0) + 1} is the zero vector")
    return norms


def _clamp_index(family: SystemFamily, k: int) -> int:
    """Cap a test-vector count at the last defined index of a finite family."""
    last = family.max_index()
    return k if last is None else min(k, last)


def _sigma_generators(family: SystemFamily, sigma: EventuallyPeriodicSet, n: int):
    return [family.vector(k) for k in sigma.truncate(_clamp_index(family, n))]


def project_sigma(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    v: SparseVector,
    n: int,
    digit_budget: Optional[int] = None,
) -> SparseVector:
    """Exact projection of v onto span{x_k : k in sigma ∩ [1:n]}.

    Raises DependentGenerators when the truncated sigma-generators are
    dependent.
    """
    gens = _sigma_generators(family, sigma, n)
    return combination(project_coefficients(v, gens, digit_budget=digit_budget), gens)


def _projection_table(family, sigma, n, targets, digit_budget=None):
    gens = _sigma_generators(family, sigma, n)
    return project_many(targets, gens, digit_budget=digit_budget)


def _ds_enclosure(diffs, norms, precision_bits):
    """Enclosure of sum_{k<=K} ||diffs[k-1]|| / (||x_k|| 2^k) plus tail, K = len(diffs).

    Tail interval [0, 2^{1-K}] is valid because each normalized term is
    bounded by 2 * 2^{-k}.
    """
    total = IntervalValue.exact(0)
    for k, (diff, ns) in enumerate(zip(diffs, norms), start=1):
        total = total + sqrt_enclosure(diff.norm_sq() / ns, precision_bits).scale(Q(1, 2 ** k))
    return total + IntervalValue(Q(0), Q(2, 2 ** len(diffs)))


def metric_ds(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    tau: EventuallyPeriodicSet,
    n: int,
    K: int,
    precision_bits: int,
    digit_budget: Optional[int] = None,
) -> IntervalValue:
    """Enclosure of sum_{k<=K} ||(P_sigma - P_tau) x̂_k|| / 2^k plus tail."""
    K = _clamp_index(family, K)
    targets = family.vectors(range(1, K + 1))
    p_sig = _projection_table(family, sigma, n, targets, digit_budget)
    p_tau = _projection_table(family, tau, n, targets, digit_budget)
    diffs = [a - b for a, b in zip(p_sig, p_tau)]
    return _ds_enclosure(diffs, _norms_sq(targets), precision_bits)


def metric_dw(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    tau: EventuallyPeriodicSet,
    n: int,
    K: int,
    precision_bits: int,
    digit_budget: Optional[int] = None,
) -> IntervalValue:
    """Enclosure of the weak-topology double sum over k, j <= K.

    Each term |<(P_sigma - P_tau) x̂_k, x̂_j>| is at most 1 because the
    difference of two orthogonal projections has operator norm <= 1, so
    the tail over pairs with max(k, j) > K is at most
    sum 2^{-k-j} = 2^{1-K} - 4^{-K}.
    """
    K = _clamp_index(family, K)
    targets = family.vectors(range(1, K + 1))
    p_sig = _projection_table(family, sigma, n, targets, digit_budget)
    p_tau = _projection_table(family, tau, n, targets, digit_budget)
    norms = _norms_sq(targets)
    total = IntervalValue.exact(0)
    for k in range(1, K + 1):
        diff = p_sig[k - 1] - p_tau[k - 1]
        for j in range(1, K + 1):
            ip = diff.dot(targets[j - 1])
            if ip == 0:
                continue
            r = ip * ip / (norms[k - 1] * norms[j - 1])
            total = total + sqrt_enclosure(r, precision_bits).scale(Q(1, 2 ** (k + j)))
    tail = IntervalValue(Q(0), Q(2, 2 ** K) - Q(1, 4 ** K))
    return total + tail


def metric_ds_to_zero(family, sigma, n, K, precision_bits, digit_budget=None):
    """d_s(P_sigma, 0): distance of the projector to the zero operator."""
    return metric_ds(family, sigma, EventuallyPeriodicSet.empty(), n, K,
                     precision_bits, digit_budget=digit_budget)


def separation_bound(family: SystemFamily, p: int, n: int,
                     digit_budget: Optional[int] = None) -> Fraction:
    """Exact positive lower bound dist^2(x̂_p, span{x̂_k : k != p}) / 2^{2p}.

    This is the quantity that separates projector images of index sets
    differing at p in the weak metric.
    """
    if p > n:
        raise ValueError("p must not exceed the truncation")
    others = [family.vector(k) for k in range(1, n + 1) if k != p]
    xp = family.vector(p)
    ns = xp.norm_sq()
    if ns == 0:
        raise ZeroVector(f"x_{p} is the zero vector")
    d = dist_sq(xp, others, digit_budget=digit_budget) / ns
    return d / Q(4 ** p)


def intersection_chain(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    depth: int,
    n: int,
    digit_budget: Optional[int] = None,
):
    """Iterated intersection of truncated H_{sigma_m}, m = 1..depth.

    Returns (dims, equal_to_h_sigma): the dimension after each
    intersection step and the exact equality test against truncated
    H_sigma.  sigma_{m+1} is a subset of sigma_m, so the truncated spans
    are nested and the intersection after step m is truncated
    H_{sigma_m} itself, which contains H_sigma.  Ordering the generators
    as sigma, then sigma_depth minus sigma, then sigma_{m-1} minus
    sigma_m for m = depth..2, makes every one of these spans a prefix, so
    one elimination gives each dimension as the number of generators it
    keeps before that prefix's end.
    """
    if not 1 <= depth <= n:
        raise ValueError("depth must lie between 1 and the truncation")
    last = _clamp_index(family, n)
    order = sigma.truncate(last)
    ends = [len(order)]
    for m in range(depth, 0, -1):
        placed = set(order)
        order += [k for k in sigma_m(sigma, m).truncate(last) if k not in placed]
        ends.append(len(order))
    kept = bordered_elimination(family.vectors(order), digit_budget=digit_budget).kept
    ranks = [bisect.bisect_left(kept, end) for end in ends]
    return ranks[1:][::-1], ranks[0] == ranks[1]


def convergence_probe(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    m_max: int,
    n: int,
    K: int,
    precision_bits: int,
    probe_count: Optional[int] = None,
    sequence=None,
    digit_budget: Optional[int] = None,
):
    """Finite-stage evidence for the projector-convergence criterion.

    For each m, tabulates the exact set distance rho(sigma^m, sigma), the
    enclosure of d_s(P_{sigma^m}, 0), and pointwise proxies
    ||(P_{sigma^m} - P_sigma) x̂_j|| for j in the probe window.  The default
    sequence is sigma^m = sigma ∪ [m+1, ∞).
    """
    if sequence is None:
        sequence = lambda m: sigma_m(sigma, m)
    if probe_count is None:
        probe_count = min(K, family.default_probe_window())
    probe_count = _clamp_index(family, probe_count)
    K = _clamp_index(family, K)
    # One elimination per sigma^m projects the targets of both d_s and the
    # pointwise proxies; the empty span of d_s(., 0) projects to zero.
    targets = family.vectors(range(1, max(K, probe_count) + 1))
    p_limit = _projection_table(family, sigma, n, targets[:probe_count], digit_budget)
    norms = _norms_sq(targets)
    rows = []
    for m in range(1, m_max + 1):
        sig_m = sequence(m)
        p_m = _projection_table(family, sig_m, n, targets, digit_budget)
        pointwise = []
        for j in range(1, probe_count + 1):
            diff = p_m[j - 1] - p_limit[j - 1]
            r = diff.norm_sq() / norms[j - 1]
            pointwise.append(sqrt_enclosure(r, precision_bits))
        rows.append({
            "m": m,
            "sigma_m": sig_m.describe(),
            "rho": rho(sig_m, sigma),
            "ds_to_zero": _ds_enclosure(p_m[:K], norms, precision_bits),
            "pointwise": pointwise,
        })
    return rows


def semicontinuity_probe(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    m_max: int,
    n: int,
    K: int,
    precision_bits: int,
    margin: Fraction = Q(0),
    sequence=None,
    digit_budget: Optional[int] = None,
    rows=None,
):
    """Checks the lower-semicontinuity of sigma -> d_s(P_sigma, 0).

    A certified violation (every late enclosure entirely below the limit
    value's lower bound, beyond the margin) signals a bug and must never
    occur.  rows may be the convergence_probe rows of the same arguments,
    computed with any probe_count; they are computed here otherwise.
    """
    if rows is None:
        rows = convergence_probe(
            family, sigma, m_max, n, K, precision_bits,
            probe_count=1, sequence=sequence, digit_budget=digit_budget,
        )
    limit = metric_ds_to_zero(family, sigma, n, K, precision_bits, digit_budget)
    tail_rows = rows[-min(3, len(rows)):]
    violation = all(
        row["ds_to_zero"].hi < limit.lo - margin for row in tail_rows
    )
    return {
        "rows": rows,
        "limit": limit,
        "violation": violation,
    }
