"""Projector metric machinery with certified interval enclosures.

Ranks, squared distances, and the set metric rho stay exact rationals;
the only irrational quantities are norms, which are quarantined inside
IntervalValue enclosures produced by directed integer square roots.
The `metric`, `chain` and `converge` subcommands run here, on the
inputs that `cli.check_inputs` parsed; `metric` and `converge` read
their spans through the family's `span_projections` and `span_dist_sq`,
which pick their own route.  `chain` and `converge` read every
truncated sigma_m = sigma ∪ [m+1, ∞) off sigma through
`_sigma_m_blocks`: `chain` counts the blocks, and `converge` names each
sigma_m from sigma, so neither builds a sigma_m set.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .exact import InvariantViolation
from .families import SystemFamily
from .indexsets import EventuallyPeriodicSet, rho
from .reports import emit, exact_value, interval_value

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

    def width(self) -> Fraction:
        return self.hi - self.lo


def _root_sum(terms, precision_bits: int, tail: Fraction) -> IntervalValue:
    """Certified enclosure of sum_i sqrt(r_i) / 2^{e_i} plus [0, tail]
    over the (r_i, e_i) pairs of terms.

    With scale = 2^{precision_bits+1}, each nonzero r_i adds
    floor(sqrt(r_i) scale) to an integer lower sum and 1 to an integer
    width, both over the one denominator scale 2^{max e_i}, so every term
    is enclosed with width 2^{-e_i} / scale; a zero r_i adds nothing.
    """
    top = max((e for _, e in terms), default=0)
    shift = 2 * (precision_bits + 1)
    low = width = 0
    for r, e in terms:
        if r < 0:
            raise ValueError("sqrt of a negative rational")
        if r:
            low += math.isqrt((r.numerator << shift) // r.denominator) << (top - e)
            width += 1 << (top - e)
    den = 1 << (precision_bits + 1 + top)
    return IntervalValue(Q(low, den), Q(low + width, den) + tail)


def sqrt_enclosure(r: Fraction, precision_bits: int) -> IntervalValue:
    """Certified enclosure of sqrt(r) with width <= 2^-precision_bits."""
    return _root_sum([(Q(r), 0)], precision_bits, 0)


def _norms_sq(vectors) -> list:
    """Squared norms of x_1, x_2, ...; normalizing needs each to be nonzero."""
    norms = [v.norm_sq() for v in vectors]
    if 0 in norms:
        raise ZeroVector(f"x_{norms.index(0) + 1} is the zero vector")
    return norms


def _ds_enclosure(diff_sqs, norms, precision_bits):
    """Enclosure of sum_{k<=K} ||d_k|| / (||x_k|| 2^k) plus tail, K = len(diff_sqs),
    from the exact squared norms ||d_k||^2.

    Tail interval [0, 2^{1-K}] is valid because each normalized term is
    bounded by 2 * 2^{-k}.
    """
    terms = [(dsq / ns, k) for k, (dsq, ns) in enumerate(zip(diff_sqs, norms), start=1)]
    return _root_sum(terms, precision_bits, Q(2, 2 ** len(diff_sqs)))


def projector_metrics(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    tau: EventuallyPeriodicSet,
    n: int,
    K: int,
    precision_bits: int,
    digit_budget: Optional[int] = None,
):
    """Enclosures (d_s, d_w) of the strong and weak distances of P_sigma and P_tau.

    d_s encloses sum_{k<=K} ||(P_sigma - P_tau) x̂_k|| / 2^k plus tail.
    d_w encloses the weak-topology double sum over k, j <= K.  Each of its
    terms |<(P_sigma - P_tau) x̂_k, x̂_j>| is at most 1 because the
    difference of two orthogonal projections has operator norm <= 1, so
    the tail over pairs with max(k, j) > K is at most
    sum 2^{-k-j} = 2^{1-K} - 4^{-K}.  Both read the projections of the
    targets from one elimination per span.  By Cauchy-Schwarz each d_w
    term is at most the d_s term of its k, for any projections, and the
    weights 2^{-j} sum below 1, so d_w.lo <= d_s.hi always.
    """
    K = family.truncation(K)
    targets = family.vectors(range(1, K + 1))
    last = family.truncation(n)
    p_sig = family.span_projections(sigma.truncate(last), targets, digit_budget)
    p_tau = family.span_projections(tau.truncate(last), targets, digit_budget)
    norms = _norms_sq(targets)
    diffs = [a - b for a, b in zip(p_sig, p_tau)]
    d_s = _ds_enclosure([diff.norm_sq() for diff in diffs], norms, precision_bits)
    terms = []
    for k, (diff, nk) in enumerate(zip(diffs, norms), start=1):
        for j, (target, nj) in enumerate(zip(targets, norms), start=1):
            ip = diff.dot(target)
            if ip:
                terms.append((ip * ip / (nk * nj), k + j))
    d_w = _root_sum(terms, precision_bits, Q(2, 2 ** K) - Q(1, 4 ** K))
    return d_s, d_w


def _sigma_m_blocks(family: SystemFamily, sigma: EventuallyPeriodicSet, depth: int,
                    n: int) -> list:
    """The blocks sigma, then [depth+1, last] minus sigma, then {m} minus
    sigma for m = depth..2, each truncated at last = truncation(n).

    sigma_m = sigma ∪ [m+1, ∞), so these blocks are sigma_depth minus
    sigma and each sigma_{m-1} minus sigma_m: the truncated span of sigma
    is that of the first block, and that of sigma_{depth+1-i} that of
    the first i+1 blocks.
    """
    last = family.truncation(n)
    blocks = [sigma.truncate(last), [k for k in range(depth + 1, last + 1) if k not in sigma]]
    blocks += [[m] if m <= last and m not in sigma else [] for m in range(depth, 1, -1)]
    return blocks


def intersection_chain(family: SystemFamily, sigma: EventuallyPeriodicSet, depth: int, n: int):
    """Iterated intersection of truncated H_{sigma_m}, m = 1..depth.

    Returns (dims, equal_to_h_sigma): the dimension after each
    intersection step and the exact equality test against truncated
    H_sigma.  sigma_{m+1} is a subset of sigma_m, so the truncated spans
    are nested and the intersection after step m is truncated
    H_{sigma_m} itself, which contains H_sigma.  Every one of these spans
    is a prefix of the sigma_m blocks, and x_1..x_truncation(n) are
    independent (the `SystemFamily` contract), so each dimension is the
    number of indices up to that prefix's end: no vector is built.
    """
    if not 1 <= depth <= n:
        raise ValueError("depth must lie between 1 and the truncation")
    ranks = list(itertools.accumulate(map(len, _sigma_m_blocks(family, sigma, depth, n))))
    return ranks[1:][::-1], ranks[0] == ranks[1]


def convergence_probe(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    m_max: int,
    n: int,
    K: int,
    precision_bits: int,
    digit_budget: Optional[int] = None,
):
    """Finite-stage evidence for the projector-convergence criterion.

    Returns (rows, limit).  For each m, a row tabulates the exact set
    distance rho(sigma_m, sigma), the enclosure of d_s(P_{sigma_m}, 0),
    and pointwise proxies ||(P_{sigma_m} - P_sigma) x̂_j|| for j in the
    probe window, where sigma_m = sigma ∪ [m+1, ∞); limit encloses
    d_s(P_sigma, 0).  The truncated spans are nested, H_sigma inside
    H_{sigma_m}, so P_{sigma_m} P_sigma = P_sigma and every norm is a
    difference of squared distances: ||P_S x||^2 = ||x||^2 - dist^2(x, S)
    and ||(P_{sigma_m} - P_sigma) x||^2
    = dist^2(x, H_sigma) - dist^2(x, H_{sigma_m}), which must rise with m
    up to dist^2(x, H_sigma) <= ||x||^2, or InvariantViolation is raised.
    Then each term of a row's d_s(P_{sigma_m}, 0) is at least the
    limit's, and `_root_sum` is monotone in each term, so no row's
    enclosure lies below the limit's: lower semicontinuity cannot fail.
    The family's `span_dist_sq` over the sigma_m blocks, with the targets
    as probes, gives all of them.  rho(sigma_m, sigma) is the sum of
    2^{-k} over the k > m outside sigma: rho(all, sigma) less 2^{-k} for
    each k <= m outside sigma.  sigma_m is all less those k, and its name
    is "all" followed by "-k" for each of them.
    """
    K = family.truncation(K)
    window = min(K, family.default_probe_window())
    targets = family.vectors(range(1, K + 1))
    blocks = _sigma_m_blocks(family, sigma, m_max, n)
    at_sigma, *table = family.span_dist_sq([(block, ()) for block in blocks], targets,
                                           digit_budget=digit_budget)
    table.reverse()
    norms = _norms_sq(targets)
    for k, column in enumerate(zip(*table, at_sigma, norms), start=1):
        if column[0] < 0 or any(b < a for a, b in zip(column, column[1:])):
            raise InvariantViolation(f"dist^2 of x_{k} is not monotone over the nested spans")

    def ds_to_zero(dists):
        return _ds_enclosure([ns - d for ns, d in zip(norms, dists)], norms, precision_bits)

    rows = []
    name, rho_m = "all", rho(EventuallyPeriodicSet.all(), sigma)
    for m, dists in enumerate(table, start=1):
        if m not in sigma:
            name += f"-{m}"
            rho_m -= Q(1, 2 ** m)
        rows.append({
            "m": m,
            "sigma_m": name,
            "rho": rho_m,
            "ds_to_zero": ds_to_zero(dists),
            "pointwise": [
                sqrt_enclosure((a - b) / ns, precision_bits)
                for a, b, ns in zip(at_sigma[:window], dists, norms)
            ],
        })
    return rows, ds_to_zero(at_sigma)


def cmd_metric(args, parsed) -> None:
    ds, dw = projector_metrics(parsed.family, parsed.sigma, parsed.tau, args.n, args.terms,
                               args.precision, digit_budget=args.digit_budget)
    results = {
        "rho": exact_value(rho(parsed.sigma, parsed.tau)),
        "d_s": interval_value(ds),
        "d_w": interval_value(dw),
    }
    config = {
        "family": args.family,
        "sigma": args.sigma,
        "tau": args.tau,
        "n": args.n,
        "K": args.terms,
        "precision": args.precision,
        "digit_budget": args.digit_budget,
    }
    emit(args, "metric", config, results)


def cmd_chain(args, parsed) -> None:
    dims, equal = intersection_chain(parsed.family, parsed.sigma, args.depth, args.n)
    config = {
        "family": args.family,
        "sigma": args.sigma,
        "depth": args.depth,
        "n": args.n,
        "digit_budget": args.digit_budget,
    }
    emit(args, "chain", config, {"dims": dims, "equal_to_h_sigma": equal})


def cmd_converge(args, parsed) -> None:
    rows, limit = convergence_probe(parsed.family, parsed.sigma, args.m_max, args.n, args.terms,
                                    args.precision, digit_budget=args.digit_budget)
    out_rows = [
        {
            "m": row["m"],
            "sigma_m": row["sigma_m"],
            "rho": exact_value(row["rho"]),
            "ds_to_zero": interval_value(row["ds_to_zero"]),
            "pointwise": [interval_value(iv) for iv in row["pointwise"]],
        }
        for row in rows
    ]
    results = {"rows": out_rows}
    if args.semicontinuity:
        # no row can lie below the limit: see convergence_probe
        results["semicontinuity"] = {"limit": interval_value(limit), "violation": False}
    config = {
        "family": args.family,
        "sigma": args.sigma,
        "m_max": args.m_max,
        "n": args.n,
        "K": args.terms,
        "precision": args.precision,
        "semicontinuity": args.semicontinuity,
        "digit_budget": args.digit_budget,
    }
    emit(args, "converge", config, results)
