"""The oracle suites: seeded random finite systems, their hereditary
scan, and the swap-invariance and hereditary suites of the `oracle`
subcommand, run on the inputs that `cli.check_inputs` read.

`families.parse_family` imports this module for a `random(...)`
descriptor.  The suites and the scan check each drawn family's
biorthogonality once: its mixed families then all have full rank, so
every truncated defect is ambient - count and no selection is ranked.
An `oracle` process compiles no `mixed`.
"""
from __future__ import annotations

import random
from operator import mul
from typing import Optional

from .exact import SparseVector, bareiss_pass
from .families import SystemFamily, check_biorthogonal
from .reports import emit

# A random family is drawn and solved densely, so its size is bounded:
# d, the ambient dimension, and n, the number of vectors.
MAX_RANDOM_DIM = 100
MAX_RANDOM_COUNT = 50


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """count values of rng.randint(lo, hi), drawn as randint draws them,
    without its per-call checks: each is lo plus the first getrandbits(k)
    below the width hi - lo + 1, k being the width's bit length.  So the
    values, their order and the generator's state after them are
    randint's."""
    width = hi - lo + 1
    k, bits = width.bit_length(), rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        out.append(lo + r)
    return out


class RandomFiniteFamily(SystemFamily):
    """Seeded random independent system in a finite ambient space.

    The biorthogonal family is the dual basis inside the span, optionally
    perturbed by exact components from the orthogonal complement (which
    preserves biorthogonality but exercises its non-uniqueness).

    The vectors are integer rows V.  The span duals are the rows of
    G^-1 V, G = V V^T: the coefficient of x_k in the projection of the
    unit probe e_c is (G^-1 V)_kc.  V is the border that the probes
    e_1..e_dim give G, so one `bareiss_pass` over the integer rows
    [G | V] of a draw solves every dual as one integer row y_k over the
    pass's denominator, and no probe is made.  The solve also gives the
    projector onto the span, P = sum_j x_j x_j*^T, so a perturbed dual
    is x_k* + (I - P) r_k for an integer vector r_k drawn in -2..2:
    y_k + den r_k - sum_j (y_j . r_k) v_j over the same denominator.
    (I - P) r_k is orthogonal to every x_i, and zero when count = dim:
    then P = I, the perturbed duals are the span duals, and no r_k is
    drawn, as nothing draws from the generator after them.
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
        dim, count = self.dim, self.count
        coords = range(1, dim + 1)
        ones = [1] * dim
        for _ in range(self.MAX_RETRIES):
            draws = _randints(rng, -3, 3, count * dim)
            rows = [draws[k * dim:(k + 1) * dim] for k in range(count)]
            # [G | V]: row k of G = V V^T from the diagonal on, then row k of V
            bordered = [[0] * k + [sum(map(mul, row, other)) for other in rows[k:]] + row
                        for k, row in enumerate(rows)]
            elim = bareiss_pass(bordered, ones, cuts=(), solve=True)
            if len(elim.kept) == count:
                break
        else:
            raise RuntimeError("failed to draw an independent system")
        vecs = [SparseVector.from_ints({i: x for i, x in zip(coords, row) if x}) for row in rows]
        # coordinate c of the k-th dual is y_kc over one denominator
        den = elim.coefficients[0][0] if coords else 1
        duals = list(zip(*(y for _, y in elim.coefficients)))
        if self.dual_style == "perturbed" and count < dim:
            columns = list(zip(*rows))
            draws = _randints(rng, -2, 2, count * dim)
            spans, duals = duals, []
            for k, y in enumerate(spans):
                r = draws[k * dim:(k + 1) * dim]
                # P r = sum_j (y_j . r) v_j / den
                dots = [sum(map(mul, yj, r)) for yj in spans]
                duals.append([yc + den * rc - sum(map(mul, dots, col))
                              for yc, rc, col in zip(y, r, columns)])
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


# `oracle` runs min(--instances, HEREDITARY_SUITE_LIMIT) instances of the
# hereditary suite, each the scan of a basis of n <= 6 vectors.
HEREDITARY_SUITE_LIMIT = 100


def hereditary_scan(family: RandomFiniteFamily, digit_budget: Optional[int] = None) -> int:
    """Max truncated defect over all 2^n mixed selections of a finite
    random system.  Once the family is checked biorthogonal, every
    selection has rank n, so the maximum is ambient - n."""
    n = family.count
    check_biorthogonal(family, n, digit_budget)
    return family.ambient(n) - n


def _run_swap_suite(instances: int, seed: int, digit_budget=None) -> dict:
    """Each instance draws a family, a base selection and four chains of
    one to three flips.  Its count single flips and four chains are the
    checks: each moved selection has the base's truncated defect, as the
    family is checked biorthogonal, so a violation exits 4 there."""
    rng = random.Random(seed)
    checks = 0
    for i in range(instances):
        dim = rng.randint(2, 8)
        count = rng.randint(1, dim)
        dual = rng.choice(["span", "perturbed"])
        family = RandomFiniteFamily(dim=dim, count=count,
                                    seed=rng.randrange(1 << 30), dual_style=dual)
        check_biorthogonal(family, count, digit_budget)
        # the draws of the base selection's members and of the flip chains
        # keep each later instance's draws as they were
        for _k in range(count):
            rng.random()
        for _chain in range(4):
            _randints(rng, 1, count, rng.randint(1, 3))
        checks += count + 4
    return {"instances": instances, "checks": checks, "violations": 0}


def _run_hereditary_suite(instances: int, seed: int, digit_budget=None) -> dict:
    """Each instance draws a basis (count = dim) and scans it: a family
    that is not biorthogonal exits 4 there, and otherwise every selection
    spans the whole space, so no violation is left to count."""
    rng = random.Random(seed)
    for i in range(instances):
        dim = rng.randint(1, 6)
        family = RandomFiniteFamily(dim=dim, count=dim,
                                    seed=rng.randrange(1 << 30), dual_style="span")
        hereditary_scan(family, digit_budget)
    return {"instances": instances, "violations": 0}


def cmd_oracle(args, parsed) -> None:
    results = {}
    if args.suite in ("swap", "all"):
        results["swap"] = _run_swap_suite(args.instances, args.seed, args.digit_budget)
    if args.suite in ("hereditary", "all"):
        results["hereditary"] = _run_hereditary_suite(
            min(args.instances, HEREDITARY_SUITE_LIMIT), args.seed, args.digit_budget
        )
    config = {"suite": args.suite, "instances": args.instances, "seed": args.seed}
    emit(args, "oracle", config, results)
