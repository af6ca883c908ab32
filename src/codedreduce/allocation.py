"""Redundant data placement over the tree, with exact size bookkeeping.

The recursion mirrors the two-phase allocation: the root's data set is
spread over the layer-1 subtrees by the per-group coded placement, each
worker keeps the first ``r * d`` points of its subtree's share (in global
index order) and passes the remainder down, and at the bottom layer the
share is exactly the local set.  All set sizes are tracked as exact
rationals times ``d``; floats appear only in combining weights.  A run's
point-weight map turns the round's per-worker weights into one weight per
data point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codes import EncodingMatrix, build_encoding
from .topology import MASTER, NodeId, RegularTree

__all__ = [
    "WeightedSlice",
    "Assignment",
    "AllocationError",
    "r_cr",
    "r_gc",
    "granularity",
    "comp_alloc",
    "cr_allocate",
    "uniform_partition",
    "slice_count",
    "take_points",
    "assignment_to_csv",
    "PointWeightMap",
    "point_weight_map",
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


def _normalize(slices: Iterable[WeightedSlice]) -> Slices:
    """Sort by start and merge adjacent ranges that share a weight."""
    out: list[WeightedSlice] = []
    for s in sorted(slices, key=lambda w: w.start):
        if out and out[-1].stop == s.start and out[-1].weight == s.weight:
            out[-1] = WeightedSlice(out[-1].start, s.stop, s.weight)
        else:
            out.append(s)
    return tuple(out)


def take_points(slices: Sequence[WeightedSlice], count: int) -> tuple[Slices, Slices]:
    """Split a slice list after `count` points (in index order), cutting slices
    at the boundary and preserving weights."""
    if count < 0 or count > slice_count(slices):
        raise ValueError(f"cannot take {count} of {slice_count(slices)} points")
    head: list[WeightedSlice] = []
    tail: list[WeightedSlice] = []
    remaining = count
    for s in sorted(slices, key=lambda w: w.start):
        if remaining >= s.count:
            head.append(s)
            remaining -= s.count
        elif remaining > 0:
            head.append(WeightedSlice(s.start, s.start + remaining, s.weight))
            tail.append(WeightedSlice(s.start + remaining, s.stop, s.weight))
            remaining = 0
        else:
            tail.append(s)
    return _normalize(head), _normalize(tail)


def uniform_partition(slices: Sequence[WeightedSlice], parts: int) -> list[Slices]:
    """Split into `parts` index-contiguous pieces of equal point count."""
    total = slice_count(slices)
    if total % parts != 0:
        raise AllocationError(f"{total} points do not split into {parts} equal parts")
    out = []
    rest: Slices = _normalize(slices)
    for _ in range(parts):
        piece, rest = take_points(rest, total // parts)
        out.append(piece)
    return out


def r_cr(n: int, L: int, s: int) -> Fraction:
    """Per-node load fraction on an (n, L)-regular tree with s stragglers per parent:
    1 / sum_{l=1..L} (n/(s+1))^l, exact."""
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


def granularity(n: int, L: int, s: int) -> int:
    """Smallest dataset size d0 for which every split in the allocation
    recursion is integral; valid sizes are exactly the multiples of d0.

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


def comp_alloc(
    data: Sequence[WeightedSlice], B: EncodingMatrix
) -> list[Slices]:
    """Coded placement of one group: partition `data` into n index-contiguous
    parts and hand worker i the parts in its row's support, each part's
    weights multiplied by the row entry."""
    parts = uniform_partition(data, B.k)
    out = []
    for i in range(B.n):
        coded: list[WeightedSlice] = []
        for kappa in B.row_support(i):
            b = float(B.entries[i, kappa])
            if b == 0.0:
                continue
            coded.extend(
                WeightedSlice(s.start, s.stop, s.weight * b) for s in parts[kappa]
            )
        out.append(_normalize(coded))
    return out


@dataclass(frozen=True)
class Assignment:
    """Every worker's local coded data set plus the per-subtree bookkeeping
    (subtree share and pass-down remainder) produced while building it."""

    tree: RegularTree
    s: int
    d: int
    B: EncodingMatrix
    local: Mapping[NodeId, Slices]
    subtree: Mapping[NodeId, Slices] = field(repr=False)
    passdown: Mapping[NodeId, Slices] = field(repr=False)

    @property
    def points_per_node(self) -> int:
        return int(r_cr(self.tree.n, self.tree.L, self.s) * self.d)


def cr_allocate(
    tree: RegularTree,
    s: int,
    d: int,
    seed: int = 0,
    B: EncodingMatrix | None = None,
) -> Assignment:
    """Allocate d points across the tree; every worker ends with exactly r*d.

    One encoding matrix (from `seed`, or the supplied `B`) is reused at every
    parent.  Which points a node keeps is pinned to "first in global index
    order" so the construction is deterministic.
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
    if B is None:
        B = build_encoding(n, s, seed)
    elif B.n != n or B.s != s:
        raise AllocationError(
            f"encoding matrix is for (n={B.n}, s={B.s}), tree needs (n={n}, s={s})"
        )
    per_node = r_cr(n, L, s) * d
    assert per_node.denominator == 1
    q = int(per_node)

    local: dict[NodeId, Slices] = {}
    subtree: dict[NodeId, Slices] = {}
    passdown: dict[NodeId, Slices] = {MASTER: (WeightedSlice(0, d, 1.0),)}
    for layer in range(1, L + 1):
        for parent in tree.layer_nodes(layer - 1):
            shares = comp_alloc(passdown[parent], B)
            for child, share in zip(tree.children(parent), shares):
                subtree[child] = share
        for node in tree.layer_nodes(layer):
            kept, rest = take_points(subtree[node], q)
            local[node] = kept
            passdown[node] = rest
            if layer == L and rest:
                raise AllocationError(
                    f"leaf {node} left with a {slice_count(rest)}-point remainder"
                )
    for node, slices in local.items():
        if slice_count(slices) != q:
            raise AllocationError(
                f"node {node} holds {slice_count(slices)} points, expected {q}"
            )
    return Assignment(
        tree=tree, s=s, d=d, B=B, local=local, subtree=subtree, passdown=passdown
    )


@dataclass(frozen=True)
class PointWeightMap:
    """Turns per-worker weights c (layer-major) into the per-point weights
    w = sum_v c_v * W_v of the workers' local sets W_v.

    [0, d) is cut at every slice boundary into elementary segments, on which
    every W_v is constant; an entry says that worker `worker[e]` holds all of
    segment `segment[e]` with weight `weight[e]`.
    """

    worker: np.ndarray = field(repr=False)
    segment: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)  # points per segment

    def point_weights(self, c: np.ndarray) -> np.ndarray:
        """w for the worker weights c: one bincount over the entries, then
        each segment's weight repeated over its points."""
        per_segment = np.bincount(
            self.segment, weights=c[self.worker] * self.weight, minlength=len(self.lengths)
        )
        return np.repeat(per_segment, self.lengths)


def point_weight_map(assignment: Assignment) -> PointWeightMap:
    """The point-weight map of an assignment's local sets."""
    owner, start, stop, weight = [], [], [], []
    for v, node in enumerate(assignment.tree.workers()):
        for s in assignment.local[node]:
            owner.append(v)
            start.append(s.start)
            stop.append(s.stop)
            weight.append(s.weight)
    edges = np.unique(np.concatenate([[0, assignment.d], start, stop]))
    first = np.searchsorted(edges, start)
    spans = np.searchsorted(edges, stop) - first  # segments per slice
    entry = np.repeat(np.arange(len(owner)), spans)
    offset = np.arange(len(entry)) - np.repeat(np.cumsum(spans) - spans, spans)
    return PointWeightMap(
        worker=np.asarray(owner)[entry],
        segment=first[entry] + offset,
        weight=np.asarray(weight)[entry],
        lengths=np.diff(edges),
    )


def assignment_to_csv(assignment: Assignment, path) -> None:
    """Dump as CSV rows: node_layer, node_index, range_start, range_end, weight."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_layer", "node_index", "range_start", "range_end", "weight"])
        for node in assignment.tree.workers():
            for s in assignment.local[node]:
                writer.writerow([node.layer, node.index, s.start, s.stop, repr(s.weight)])
