"""Mixed systems and two-sided defect certification.

A mixed selection realizes {x_k : k in sigma} ∪ {x_k* : k not in sigma}
at a finite truncation.  Certification combines an exact witness basis
(lower bound on the defect) with monotone decay of probe distances
(completeness evidence); a verdict is only issued when both sides agree.
The probe distances come from the family's `span_dist_sq`, which picks
its own route.  `defect` and `sweep` run here on the inputs that
`cli.check_inputs` parsed.  `sweep` checks the family's biorthogonality
once, at its largest truncation: every mixed family then has full rank.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

from .exact import InvariantViolation, SparseVector, biorthogonal
from .families import SystemFamily, check_biorthogonal
from .indexsets import EventuallyPeriodicSet
from .reports import decay_csv, defect_report_json, emit, table_csv

Q = Fraction

INCONCLUSIVE = "inconclusive"


def mixed_vectors(family: SystemFamily, sigma: EventuallyPeriodicSet,
                  n: int) -> List[SparseVector]:
    """The truncated mixed family, in ascending index order, up to the
    family's truncation of n."""
    return [family.vector(k) if sigma.contains(k) else family.dual(k)
            for k in range(1, family.truncation(n) + 1)]


def witness_check(family: SystemFamily, sigma: EventuallyPeriodicSet, n: int,
                  witnesses: Sequence[SparseVector]):
    """Exact orthogonality audit of a witness list against the mixed family.

    Returns (ok, exceptional) where exceptional collects the indices whose
    mixed vector fails orthogonality to some witness; ok means the family's
    normalization predicted exactly those indices (a finite, n-independent
    set).  With no witness, no mixed vector is built.
    """
    if not witnesses:
        return True, frozenset()
    exceptional = {k for k, vec in enumerate(mixed_vectors(family, sigma, n), start=1)
                   if any(vec.dot(w) for w in witnesses)}
    predicted = family.predicted_exceptional(sigma, n)
    return exceptional <= predicted, frozenset(exceptional)


def distance_profile(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    probes: Sequence[SparseVector],
    n_list: Sequence[int],
    taken: Sequence[int] = (),
    digit_budget: Optional[int] = None,
):
    """Exact dist^2(probe, span(mixed at n) + span{e_i : i in taken}) for
    each probe and n.

    Returns a list of (probe_label, n, Fraction) rows; distances are
    nonincreasing in n because the truncated spans grow.  The mixed
    family at each n extends the one before it by one block of indices,
    so the family's `span_dist_sq` gives the whole table.
    """
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    blocks, done = [], 0
    for n in n_list:
        new = range(done + 1, family.truncation(n) + 1)
        blocks.append(([k for k in new if k in sigma], [k for k in new if k not in sigma]))
        done = max(done, family.truncation(n))
    table = family.span_dist_sq(blocks, probes, taken, digit_budget)
    return [(f"probe[{c + 1}]", n, dists[c])
            for c in range(len(probes)) for n, dists in zip(n_list, table)]


def _certified_dim(witnesses: Sequence[SparseVector], digit_budget: Optional[int]) -> int:
    """dim span(witnesses), which is len(witnesses) once the witnesses are
    biorthogonal to the unit vectors at their least coordinates: each is 1
    there and 0 at every other witness's least coordinate.  A system
    biorthogonal to another is independent.  Otherwise, or for a zero
    witness, raises InvariantViolation."""
    leads = [next(iter(w.coords), None) for w in witnesses]
    if None in leads or not biorthogonal(witnesses, [SparseVector.unit(i) for i in leads],
                                         digit_budget):
        raise InvariantViolation("the witnesses are not biorthogonal to the unit "
                                 "vectors at their least coordinates")
    return len(witnesses)


class DefectReport(NamedTuple):
    """Certified defect verdict with its evidence."""

    family: str
    sigma: str
    witness_dim: int
    witness_ok: bool
    exceptional_indices: frozenset
    decay_table: list  # (probe label, n, exact dist^2)
    verdict: object  # int, math.inf, or INCONCLUSIVE
    decay_threshold: Fraction = Q(1, 100)
    min_points: int = 4
    n_list: tuple = ()
    probe_window: int = 0

    def verdict_str(self) -> str:
        return "inf" if self.verdict == math.inf else str(self.verdict)


def _probe_passes(values: List[Fraction], threshold: Fraction, min_points: int) -> bool:
    last = values[-1]
    if last == 0:
        return True
    if last > threshold:
        return False
    strict_drops = sum(1 for a, b in zip(values, values[1:]) if b < a)
    return strict_drops >= min_points - 1


def classify_defect(
    family: SystemFamily,
    sigma: EventuallyPeriodicSet,
    n_list: Sequence[int],
    decay_threshold: Fraction = Q(1, 100),
    min_points: int = 4,
    probe_window: Optional[int] = None,
    digit_budget: Optional[int] = None,
) -> DefectReport:
    """Two-sided defect certification at truncation max(n_list).

    The verdict never contradicts the witness rank as a lower bound: it is
    the witness rank when every probe distance decays below the threshold,
    infinity when the witness generator keeps producing independent
    witnesses past the probe window, and inconclusive otherwise.  The rank
    is the number of witnesses, certified by `_certified_dim`.  A probe
    distance that grows with n is impossible over nested spans, and
    witnesses that fail their certificate are a generator bug, so both
    raise InvariantViolation instead of being reported.
    """
    n_list = sorted(n_list)
    n_max = n_list[-1]
    if probe_window is None:
        probe_window = family.default_probe_window()
    if probe_window < 1:
        raise ValueError("probe_window must be positive")

    unbounded = family.witnesses_unbounded(sigma)
    # an unbounded generator is read one witness past the window: its
    # first probe_window witnesses are the window's, a subsystem of a
    # biorthogonal system is biorthogonal, and one certified witness more
    # is all that the inf verdict needs
    wide = family.witness_space(sigma, n_max, window=probe_window + unbounded)
    wide_dim = _certified_dim(wide, digit_budget)
    witnesses = wide[:probe_window] if unbounded else wide
    witness_dim = len(witnesses)
    ok, exceptional = witness_check(family, sigma, n_max, witnesses)

    if unbounded:
        verdict = math.inf if ok and wide_dim > witness_dim else INCONCLUSIVE
        decay_rows = []
    else:
        last = min(probe_window, family.ambient(n_max))
        probes = [SparseVector.unit(i) for i in range(1, last + 1)]
        taken = [min(w.coords) for w in witnesses]
        if witnesses != [SparseVector.unit(i) for i in taken]:
            raise InvariantViolation("a witness of the decay table is not a unit vector")
        decay_rows = distance_profile(family, sigma, probes, n_list, taken, digit_budget)
        per_probe = {}
        for label, n, d in decay_rows:
            per_probe.setdefault(label, []).append(d)
        for label, vals in per_probe.items():
            if any(b > a for a, b in zip(vals, vals[1:])):
                raise InvariantViolation(f"dist^2 of {label} increased over nested spans")
        all_pass = ok and all(_probe_passes(vals, decay_threshold, min_points)
                              for vals in per_probe.values())
        verdict = witness_dim if all_pass else INCONCLUSIVE

    return DefectReport(
        family=family.descriptor(),
        sigma=sigma.describe(),
        witness_dim=witness_dim,
        witness_ok=ok,
        exceptional_indices=exceptional,
        decay_table=decay_rows,
        verdict=verdict,
        decay_threshold=decay_threshold,
        min_points=min_points,
        n_list=tuple(n_list),
        probe_window=probe_window,
    )


def cmd_defect(args, parsed) -> None:
    step = max(args.n // 6, 1)
    n_list = getattr(parsed, "n_list", None) or sorted({*range(step, args.n + 1, step), args.n})
    report = classify_defect(parsed.family, parsed.sigma, n_list, parsed.threshold,
                             args.min_points, args.probe_window, args.digit_budget)
    config = {
        "family": args.family,
        "sigma": args.sigma,
        "n": args.n,
        "n_list": n_list,
        "threshold": args.threshold,
        "min_points": args.min_points,
        "probe_window": report.probe_window,
        "digit_budget": args.digit_budget,
    }
    emit(args, "defect", config, defect_report_json(report),
         decay_csv(report) if args.csv else None)


def cmd_sweep(args, parsed) -> None:
    family, n_grid = parsed.family, parsed.n_grid
    # one biorthogonality check at the largest n; every mixed family then
    # has full rank at each prefix, so each cell is ambient(n) - truncation(n)
    check_biorthogonal(family, family.truncation(max(n_grid)), args.digit_budget)
    rows = [
        {"sigma": sigma_text, "n": n,
         "defect_truncated": family.ambient(n) - family.truncation(n)}
        for sigma_text in args.sigmas
        for n in n_grid
    ]
    config = {
        "family": args.family,
        "sigmas": args.sigmas,
        "n_grid": n_grid,
        "digit_budget": args.digit_budget,
    }
    emit(args, "sweep", config, {"grid": rows}, table_csv(
        ["sigma", "n", "defect_truncated"],
        [[r["sigma"], r["n"], r["defect_truncated"]] for r in rows],
    ) if args.csv else None)
