"""Shared test helpers: independent sympy oracles and random generators.

sympy is used only here, as an oracle the production code never imports.
"""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy

from defectlab import EventuallyPeriodicSet, SparseVector

Q = Fraction


def to_sympy_matrix(vectors, ambient):
    rows = [
        [sympy.Rational(x.numerator, x.denominator) for x in v.to_dense(ambient)]
        for v in vectors
    ]
    return sympy.Matrix(rows)


def oracle_rank(vectors, ambient):
    return to_sympy_matrix(vectors, ambient).rank()


def _to_fraction(r):
    r = sympy.Rational(r)
    return Q(int(r.p), int(r.q))


def _oracle_projection(v, generators, ambient):
    """(b, P b) with P the projector onto the generators' column space.

    The normal equations are solved on sympy's exact column-space basis,
    so dependent and zero generators need no pseudo-inverse.
    """
    b = sympy.Matrix([sympy.Rational(x.numerator, x.denominator)
                      for x in v.to_dense(ambient)])
    basis = to_sympy_matrix(generators, ambient).T.columnspace() if generators else []
    if not basis:
        return b, sympy.zeros(ambient, 1)
    A = sympy.Matrix.hstack(*basis)
    return b, A * (A.T * A).inv() * A.T * b


def oracle_project(v, generators, ambient):
    """Orthogonal projection of v onto span(generators), as a SparseVector."""
    _, proj = _oracle_projection(v, generators, ambient)
    return SparseVector.from_pairs((i + 1, _to_fraction(x)) for i, x in enumerate(proj))


def oracle_dist_sq(v, generators, ambient):
    """Squared distance via sympy least squares on the dense matrix."""
    b, proj = _oracle_projection(v, generators, ambient)
    return _to_fraction((b - proj).dot(b - proj))


def oracle_nullspace_dim(vectors, ambient):
    return ambient - oracle_rank(vectors, ambient)


def oracle_intersection_dim(gen_a, gen_b, ambient):
    """dim(span A ∩ span B) = rank A + rank B - rank [A; B]."""
    ra = oracle_rank(gen_a, ambient)
    rb = oracle_rank(gen_b, ambient)
    rab = oracle_rank(list(gen_a) + list(gen_b), ambient)
    return ra + rb - rab


def random_sparse_vector(rng: random.Random, ambient: int) -> SparseVector:
    pairs = []
    for i in range(1, ambient + 1):
        if rng.random() < 0.6:
            num = rng.randint(-5, 5)
            if num:
                pairs.append((i, Q(num, rng.randint(1, 4))))
    return SparseVector.from_pairs(pairs)


def random_eventually_periodic(rng: random.Random) -> EventuallyPeriodicSet:
    period = rng.randint(1, 6)
    residues = [r for r in range(period) if rng.random() < 0.5]
    added = [rng.randint(1, 20) for _ in range(rng.randint(0, 3))]
    removed = [rng.randint(1, 20) for _ in range(rng.randint(0, 3))]
    removed = [k for k in removed if k not in added]
    return EventuallyPeriodicSet.make(period, residues, added, removed)


@pytest.fixture
def rising_decay(monkeypatch):
    """Makes the elimination behind distance_profile return its cuts in
    reverse, so every decay column that should fall rises instead."""
    import defectlab.mixed as mixed

    real = mixed.bordered_elimination

    def rising(*args, **kwargs):
        elim = real(*args, **kwargs)
        return dataclasses.replace(elim, dist_sq=elim.dist_sq[::-1])

    monkeypatch.setattr(mixed, "bordered_elimination", rising)
