"""Redundant data placement over the tree, with exact size bookkeeping.

The recursion mirrors the two-phase allocation: the root's data set is
spread over the layer-1 subtrees by the per-group coded placement, each
worker keeps the first ``r * d`` points of its subtree's share (in global
index order) and passes the remainder down, and at the bottom layer the
share is exactly the local set.  Every cut in it (the n-way partition of
a pass-down set, the local pick) sits at a fixed rational multiple c * d,
and d0 = `granularity(n, L, s)` is the lcm of the denominators of every
such c.  So with k = d / d0 each cut c * d = (c * d0) * k is a multiple of
k, and the placement is built on d0 blocks of k points, one array pass per
tree layer.  Sizes are exact integers; floats appear only in combining
weights.  The code is the caller's: `cr_allocate` builds none.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Mapping

import numpy as np

from .codes import EncodingMatrix
from .topology import MASTER, NodeId, RegularTree

__all__ = [
    "WeightedSlice",
    "Assignment",
    "AllocationError",
    "r_cr",
    "r_gc",
    "granularity",
    "cr_allocate",
    "slice_count",
    "assignment_to_csv",
]


class AllocationError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class WeightedSlice:
    """Half-open range [start, stop) of global point indices with a combining weight."""

    start: int
    stop: int
    weight: float

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError(f"empty slice [{self.start}, {self.stop})")
        if self.weight == 0.0:
            raise ValueError("slice weight must be nonzero")

    @property
    def count(self) -> int:
        return self.stop - self.start


Slices = tuple[WeightedSlice, ...]


def slice_count(slices: Iterable[WeightedSlice]) -> int:
    return sum(s.count for s in slices)


@lru_cache(maxsize=256)
def r_cr(n: int, L: int, s: int) -> Fraction:
    """Per-node load fraction on an (n, L)-regular tree with s stragglers per parent:
    1 / sum_{l=1..L} (n/(s+1))^l, exact.  Cached by (n, L, s); invalid
    arguments raise on every call."""
    if not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n, got n={n}, s={s}")
    if L < 1:
        raise ValueError(f"need L >= 1, got {L}")
    ratio = Fraction(n, s + 1)
    return 1 / sum(ratio**l for l in range(1, L + 1))


def r_gc(N: int, S: int) -> Fraction:
    """Single-group coded load fraction (S+1)/N, exact."""
    if not 0 <= S < N:
        raise ValueError(f"need 0 <= S < N, got N={N}, S={S}")
    return Fraction(S + 1, N)


@lru_cache(maxsize=256)
def granularity(n: int, L: int, s: int) -> int:
    """Smallest dataset size d0 for which every split in the allocation
    recursion is integral; valid sizes are exactly the multiples of d0.
    Cached by (n, L, s); invalid arguments raise on every call.

    Integrality is required for the local pick r*d, and at each layer for the
    n-way partition of the remainder being passed down.  Every such quantity
    is a fixed rational multiple of d, so d0 is the lcm of the denominators.
    """
    load = r_cr(n, L, s)
    ratio = Fraction(s + 1, n)
    coeffs = [load]
    remainder = Fraction(1)  # master's pass-down set, as a multiple of d
    for _ in range(1, L + 1):
        coeffs.append(remainder / n)
        remainder = remainder * ratio - load
    assert remainder == 0, "allocation recursion must terminate with empty remainder"
    return lcm(*(c.denominator for c in coeffs))


def _runs(blocks: np.ndarray, weights: np.ndarray, k: int) -> list[Slices]:
    """Each row of a block array (ascending blocks of k points) and its
    weight array as merged slices: a run of consecutive blocks with one
    weight is one slice."""
    rows, cols = blocks.shape
    if not cols:
        return [()] * rows
    first = np.ones((rows, cols), dtype=bool)  # a block that starts a run
    first[:, 1:] = (np.diff(blocks) != 1) | (weights[:, 1:] != weights[:, :-1])
    start = np.flatnonzero(first)
    stop = np.append(start[1:], first.size)  # every row starts a run
    lo = blocks.ravel()[start] * k
    hi = lo + (stop - start) * k
    slices = list(map(WeightedSlice, lo.tolist(), hi.tolist(), weights.ravel()[start].tolist()))
    ends = np.cumsum(np.bincount(start // cols, minlength=rows)).tolist()
    return [tuple(slices[a:b]) for a, b in zip([0, *ends], ends)]


@dataclass(frozen=True)
class Assignment:
    """Every worker's local coded data set plus the per-subtree bookkeeping
    (subtree share and pass-down remainder) produced while building it.

    [0, d) is held as d0 = `granularity` blocks of k points, block b being
    [b*k, (b+1)*k); every cut of the recursion falls on this k-grid (see the
    module docstring).  `_shares[l-1]` holds layer l's subtree shares as a
    block array and a weight array in layer-major order, one row per node
    with its blocks ascending; a node keeps the first q0 = r*d0 of them as
    its local set and passes the rest down.  The slice mappings `local`,
    `subtree` and `passdown` are views of these arrays, built on first
    access: a run of consecutive blocks with one weight is one slice.
    """

    tree: RegularTree
    s: int
    d: int
    B: EncodingMatrix
    _k: int = field(repr=False)
    _shares: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    @property
    def points_per_node(self) -> int:
        return int(r_cr(self.tree.n, self.tree.L, self.s) * self.d)

    def _view(self, columns: slice) -> dict[NodeId, Slices]:
        shares = [
            share
            for blocks, weights in self._shares
            for share in _runs(blocks[:, columns], weights[:, columns], self._k)
        ]
        return dict(zip(self.tree.workers(), shares))

    @property
    def _q0(self) -> int:
        return self._shares[-1][0].shape[1]  # a leaf's share is its local set

    @cached_property
    def local(self) -> Mapping[NodeId, Slices]:
        return self._view(slice(None, self._q0))

    @cached_property
    def subtree(self) -> Mapping[NodeId, Slices]:
        return self._view(slice(None))

    @cached_property
    def passdown(self) -> Mapping[NodeId, Slices]:
        below = self._view(slice(self._q0, None))
        return {MASTER: (WeightedSlice(0, self.d, 1.0),), **below}

    @property
    def block_size(self) -> int:
        """k, the points in each of the d0 blocks every cut falls between."""
        return self._k

    @cached_property
    def _local_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Every worker's local blocks and their weights, (N, q0) each."""
        return tuple(
            np.concatenate([a[:, : self._q0] for a in arrays]) for arrays in zip(*self._shares)
        )

    def block_weights(self, c: np.ndarray) -> np.ndarray:
        """The per-block weights of w = sum_v c_v * W_v over the workers'
        local sets W_v, for worker weights c of shape (..., N) in
        layer-major order: (..., d0) entries from one bincount over the
        (N, q0) block matrix, each round's bins offset by d0."""
        blocks, weights = self._local_blocks
        d0 = self.d // self._k
        rounds = c.reshape(-1, c.shape[-1])
        bins = blocks.ravel() + d0 * np.arange(len(rounds))[:, None]
        sums = np.bincount(
            bins.ravel(), weights=(rounds[:, :, None] * weights).ravel(), minlength=len(rounds) * d0
        )
        return sums.reshape(c.shape[:-1] + (d0,))


def cr_allocate(tree: RegularTree, s: int, d: int, B: EncodingMatrix) -> Assignment:
    """Allocate d points across the tree; every worker ends with exactly r*d.

    The encoding matrix `B`, which must be an (n, s) code, is reused at
    every parent.  Which points a node keeps is pinned to "first in global index
    order" so the construction is deterministic.  Each layer is one array
    pass: every parent's pass-down set is reshaped into n equal parts, and
    child i gathers the parts of its row support in ascending part index
    (so its share stays in index order), times the row's entries.
    """
    n, L = tree.n, tree.L
    if not 0 <= s < n:
        raise AllocationError(f"need 0 <= s < n, got n={n}, s={s}")
    d0 = granularity(n, L, s)
    if d <= 0 or d % d0 != 0:
        raise AllocationError(
            f"dataset size {d} is not a positive multiple of the granularity {d0} "
            f"for (n={n}, L={L}, s={s})"
        )
    if B.n != n or B.s != s:
        raise AllocationError(
            f"encoding matrix is for (n={B.n}, s={B.s}), tree needs (n={n}, s={s})"
        )
    support = np.sort([B.row_support(i) for i in range(n)], axis=1)
    entries = np.take_along_axis(B.entries, support, axis=1)
    zero = np.flatnonzero(~entries.all(axis=1))
    if zero.size:
        raise AllocationError(
            f"encoding matrix row {zero[0]} has a zero on its cyclic support "
            f"{B.row_support(int(zero[0]))}"
        )
    q0 = int(r_cr(n, L, s) * d0)
    shares = []
    down = np.arange(d0)[None], np.ones((1, d0))  # the master's pass-down set
    for _ in range(L):
        parents, size = down[0].shape
        blocks, weights = (a.reshape(parents, n, size // n)[:, support] for a in down)
        weights = weights * entries[:, :, None]
        shares.append((blocks.reshape(parents * n, -1), weights.reshape(parents * n, -1)))
        down = tuple(a[:, q0:] for a in shares[-1])
    assert not down[0].size, "the leaves must pass nothing down"
    return Assignment(tree=tree, s=s, d=d, B=B, _k=d // d0, _shares=tuple(shares))


def assignment_to_csv(assignment: Assignment, path) -> None:
    """Dump as CSV rows: node_layer, node_index, range_start, range_end, weight."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_layer", "node_index", "range_start", "range_end", "weight"])
        for node in assignment.tree.workers():
            for s in assignment.local[node]:
                writer.writerow([node.layer, node.index, s.start, s.stop, repr(s.weight)])
