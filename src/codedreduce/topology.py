"""Regular aggregation trees and straggler-pattern enumeration.

A tree with fan-out ``n`` and ``L`` worker layers has a master at the root
and ``N = n + n^2 + ... + n^L`` workers.  Nodes are addressed as
``(layer, index)`` with the master at ``(0, 1)`` and 1-based indices within
each layer.  One cached layer-major table per (n, L), the master first and
then each layer in index order, answers every tree query: the children of
the node at position k are the entries k*n + 1 .. k*n + n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "NodeId",
    "MASTER",
    "RegularTree",
    "StragglerPattern",
    "build_tree",
    "check_tolerance",
    "enumerate_patterns",
]


@dataclass(frozen=True, order=True)
class NodeId:
    """Address of a tree node: layer 0 is the master, workers sit in 1..L."""

    layer: int
    index: int

    def __str__(self) -> str:
        return f"{self.layer}.{self.index}"


MASTER = NodeId(0, 1)


@dataclass(frozen=True)
class RegularTree:
    """Tree with `n` children per parent and `L` worker layers below the master."""

    n: int
    L: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"fan-out must be >= 1, got n={self.n}")
        if self.L < 1:
            raise ValueError(f"layer count must be >= 1, got L={self.L}")

    @property
    def num_workers(self) -> int:
        """Total worker count N = n + n^2 + ... + n^L."""
        return len(_layout(self.n, self.L)[1]) - 1

    def contains(self, node: object) -> bool:
        """Whether `node` is a `NodeId` of this tree; False for anything else."""
        return (
            isinstance(node, NodeId)
            and 0 <= node.layer <= self.L
            and 1 <= node.index <= self.n**node.layer
        )

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        """Children of `node`, in index order; empty for leaves."""
        if not self.contains(node):
            raise ValueError(f"node {node} not in ({self.n},{self.L})-regular tree")
        k = self.layer_offset(node.layer) + node.index - 1
        return self.layer_major_nodes()[k * self.n + 1 : (k + 1) * self.n + 1]

    def layer_offset(self, layer: int) -> int:
        """Number of nodes above `layer` (0..L+1).  In layer-major order, with
        the master at 0, node (layer, i) sits at layer_offset(layer) + i - 1
        and child j (0-based) of the node at k sits at k * n + 1 + j."""
        if not 0 <= layer <= self.L + 1:
            raise ValueError(f"layer {layer} outside [0, {self.L + 1}]")
        return _layout(self.n, self.L)[0][layer]

    @property
    def num_parents(self) -> int:
        """Nodes with children: the master plus layers 1..L-1."""
        return self.layer_offset(self.L)

    def layer_major_nodes(self) -> tuple[NodeId, ...]:
        """Every node in layer-major order, the master at 0."""
        return _layout(self.n, self.L)[1]

    def workers(self) -> Iterator[NodeId]:
        """All workers in layer-major order (layer 1 first)."""
        return iter(self.layer_major_nodes()[1:])

    def parents(self) -> Iterator[NodeId]:
        """Every node with children: the master plus layers 1..L-1."""
        return iter(self.layer_major_nodes()[: self.num_parents])


@lru_cache(maxsize=None)
def _layout(n: int, L: int) -> tuple[tuple[int, ...], tuple[NodeId, ...]]:
    """The (n, L) tree in layer-major order: the offset of layers 0..L+1
    (the last is the node count) and every node, the master at 0."""
    sizes = [n**layer for layer in range(L + 1)]
    offsets = tuple(itertools.accumulate(sizes, initial=0))
    nodes = tuple(NodeId(layer, i) for layer, size in enumerate(sizes) for i in range(1, size + 1))
    return offsets, nodes


def check_tolerance(parents, counts, s: int) -> None:
    """The straggler bound: counts[k] children straggle under parents[k], at
    most `s` each.  Raises ValueError naming the first parent over it."""
    for parent, count in zip(parents, counts):
        if count > s:
            raise ValueError(f"parent {parent} has {count} stragglers, tolerance is {s}")


@dataclass(frozen=True)
class StragglerPattern:
    """A straggler pattern named by node: each parent's straggling children
    (at most `s` under each parent)."""

    stragglers: Mapping[NodeId, frozenset[NodeId]]

    def positions(self, tree: RegularTree, s: int) -> np.ndarray:
        """The pattern as a (tree.num_parents, n) boolean array whose row k
        marks the straggling child positions of the layer-major parent k.
        Raises ValueError for a node outside the tree, a straggler that is
        not its parent's child, or more than `s` stragglers under a parent."""
        out = np.zeros((tree.num_parents, tree.n), dtype=bool)
        for parent, kids in self.stragglers.items():
            siblings = tree.children(parent)
            bad = [k for k in kids if k not in siblings]
            if bad:
                raise ValueError(f"{sorted(bad, key=str)} are not children of {parent}")
            check_tolerance([parent], [len(kids)], s)
            if kids:  # a leaf may map to no stragglers; it has no row
                row = tree.layer_offset(parent.layer) + parent.index - 1
                out[row, [siblings.index(k) for k in kids]] = True
        return out


def build_tree(n: int, L: int) -> RegularTree:
    """Construct an (n, L)-regular tree; rejects n = 0 or L = 0."""
    return RegularTree(n=n, L=L)


def enumerate_patterns(tree: RegularTree, s: int, cap: int, seed: int = 0) -> np.ndarray:
    """All straggler patterns with at most `s` stragglers per parent, as a
    read-only (count, tree.num_parents, n) boolean array of
    `StragglerPattern.positions` rows: each parent's choices by size, then
    `itertools.combinations`, and one choice per parent in
    `itertools.product` order.  Beyond `cap` patterns, a seeded sample of
    `cap`: all-empty, all-maximal (the lowest `s` children at every parent),
    then uniform choices per parent.
    """
    if not 0 <= s < tree.n:
        raise ValueError(f"straggler tolerance must satisfy 0 <= s < n, got s={s}")
    if cap < 1:
        raise ValueError(f"pattern cap must be >= 1, got cap={cap}")
    n, P = tree.n, tree.num_parents
    # one row per choice, marking its straggling children; row 0 is the empty one
    counts = [comb(n, size) for size in range(s + 1)]
    choices, k, start = np.zeros((sum(counts), n), dtype=bool), sum(counts), 1
    for size in range(1, s + 1):
        combos = itertools.chain.from_iterable(itertools.combinations(range(n), size))
        cols = np.fromiter(combos, np.min_scalar_type(n), counts[size] * size).reshape(-1, size)
        choices[np.arange(start, start + counts[size])[:, None], cols] = True
        start += counts[size]
    if k**P <= cap:
        # mixed radix: the last parent's choice varies fastest, as in product
        radix = np.array([k**e for e in range(P - 1, -1, -1)], dtype=np.int64)
        patterns = choices[np.arange(k**P)[:, None] // radix % k]
    else:
        maximal = sum(comb(n, size) for size in range(s))  # choice (0, ..., s-1)
        draws = np.random.default_rng(seed).integers(0, k, size=(max(cap - 2, 0), P))
        extremes = np.repeat(choices[[0, maximal], None], P, axis=1)
        patterns = np.concatenate([extremes, choices[draws]])[:cap]
    patterns.setflags(write=False)
    return patterns
