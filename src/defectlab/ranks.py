"""The rank engine of mixed selections: many selections of one family
ranked over shared echelon prefixes.

Every family's duals are biorthogonal, so a truncated mixed family has
full rank and its truncated defect is ambient - size; the engine checks
that identity for each selection it ranks.  `sweep` and the `oracle`
suites and scan import this module when they run: an `oracle` process
then compiles no `mixed`, and a `defect` process no rank engine.
"""
from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional, Sequence

from .exact import InvariantViolation, echelon_step

if TYPE_CHECKING:  # annotations only
    from .families import SystemFamily
    from .indexsets import EventuallyPeriodicSet


def _check_mixed_rank(size: int, rank: int) -> int:
    """The rank of a truncated mixed family, which must be its size.

    The duals are biorthogonal, so <x_i, x_j*> = 0 for i in sigma and j
    not in sigma: the Gram matrix is block-diagonal with full-rank blocks.
    """
    if rank < size:
        raise InvariantViolation(
            f"a truncated mixed family of {size} vectors has rank {rank}")
    return rank


def selection_key(sigma: EventuallyPeriodicSet, last: int) -> int:
    """The key of sigma's mixed selection of x_1..x_last: bit last - k is
    set when k is in sigma, so the bit of k = 1 is the most significant."""
    key = 0
    for k in range(1, last + 1):
        key = key << 1 | sigma.contains(k)
    return key


def _mixed_ranks(family: SystemFamily, last: int, keys, digit_budget: Optional[int]):
    """The rank of the mixed family x_1..x_last selected by each key.

    Bit last - k of a key takes x_k when set and x_k* when clear, so two
    keys share their first d vectors when they share their top d bits.
    Each candidate x_k and x_k* keeps a reduction chain: entry i is its
    vector reduced against the pivot rows of depths 1..i of the key.  A
    key drops the entries after its prefix shared with the key before,
    then extends the chosen candidate's chain from its last valid entry,
    one `echelon_step` per depth; vectors are made when first selected.
    An entry past the prefix shared with the next key is never read
    again, so it is dropped as soon as its step is done.
    """
    chains = [[] for _ in range(2 * last + 2)]  # x_k* at 2k, x_k at 2k + 1
    pivots, ranks, depth = [], [0] * (last + 1), 0
    for key, after in itertools.pairwise(itertools.chain(keys, [None])):
        keep = 0 if after is None else last - (key ^ after).bit_length()
        del pivots[depth:]
        for chain in chains[2 * depth + 4:]:
            del chain[depth + 1:]
        for k in range(depth + 1, last + 1):
            bit = key >> (last - k) & 1
            chain = chains[2 * k + bit]
            if not chain:
                chain.append((family.vector(k) if bit else family.dual(k)).coords)
            ranks[k] = ranks[k - 1] + echelon_step(chain, pivots, digit_budget)
            del chain[keep + 1:]
        depth = keep
        yield ranks[last]


def defect_truncated_many(family: SystemFamily, keys: Sequence[int], n: int,
                          digit_budget: Optional[int] = None) -> list:
    """The truncated defect, ambient - rank, of the mixed family that each
    key selects at truncation n, in input order.

    A key selects among x_1..x_last, last = family.truncation(n), as
    `selection_key` builds it.  The distinct keys are ranked in ascending
    order, each candidate vector reduced once per shared prefix, so a
    digit-budget trip anywhere in the batch is raised before any rank is
    checked.  A rank below the family's size raises InvariantViolation,
    for the first such key in input order.
    """
    last = family.truncation(n)
    distinct = sorted(set(keys))
    if distinct and (distinct[0] < 0 or distinct[-1] >> last):
        raise ValueError(f"a key of {last} indices lies in 0..2^{last} - 1")
    rank_of = dict(zip(distinct, _mixed_ranks(family, last, distinct, digit_budget)))
    ambient = family.ambient(n)
    return [ambient - _check_mixed_rank(last, rank_of[key]) for key in keys]
