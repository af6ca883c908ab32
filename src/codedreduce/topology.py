"""Regular aggregation trees and straggler-pattern enumeration.

A tree with fan-out ``n`` and ``L`` worker layers has a master at the root
and ``N = n + n^2 + ... + n^L`` workers.  Nodes are addressed as
``(layer, index)`` with the master at ``(0, 1)`` and 1-based indices within
each layer, so parent/child relations are pure arithmetic.
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
        return sum(self.n**l for l in range(1, self.L + 1))

    def layer_size(self, layer: int) -> int:
        if not 0 <= layer <= self.L:
            raise ValueError(f"layer {layer} outside [0, {self.L}]")
        return 1 if layer == 0 else self.n**layer

    def contains(self, node: NodeId) -> bool:
        return 0 <= node.layer <= self.L and 1 <= node.index <= self.layer_size(node.layer)

    def _check(self, node: NodeId) -> None:
        if not self.contains(node):
            raise ValueError(f"node {node} not in ({self.n},{self.L})-regular tree")

    def is_leaf(self, node: NodeId) -> bool:
        self._check(node)
        return node.layer == self.L

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        """Children of `node`, in index order; empty for leaves."""
        self._check(node)
        if node.layer == self.L:
            return ()
        base = self.n * (node.index - 1)
        return tuple(NodeId(node.layer + 1, base + j) for j in range(1, self.n + 1))

    def parent(self, node: NodeId) -> NodeId:
        self._check(node)
        if node == MASTER:
            raise ValueError("master has no parent")
        return NodeId(node.layer - 1, (node.index - 1) // self.n + 1)

    def child_position(self, node: NodeId) -> int:
        """0-based position of a worker among its siblings."""
        self._check(node)
        if node == MASTER:
            raise ValueError("master has no siblings")
        return (node.index - 1) % self.n

    def layer_offset(self, layer: int) -> int:
        """Number of nodes above `layer`.  In layer-major order, with the
        master at 0, node (layer, i) sits at layer_offset(layer) + i - 1 and
        child j (0-based) of the node at k sits at k * n + 1 + j."""
        return sum(self.n**l for l in range(layer))

    @property
    def num_parents(self) -> int:
        """Nodes with children: the master plus layers 1..L-1."""
        return self.layer_offset(self.L)

    def layer_major_nodes(self) -> tuple[NodeId, ...]:
        """Every node in layer-major order, the master at 0; one cached
        table per (n, L)."""
        return _layer_major_nodes(self.n, self.L)

    def node_at(self, position: int) -> NodeId:
        """The node at a layer-major position (the master is 0)."""
        nodes = self.layer_major_nodes()
        if not 0 <= position < len(nodes):
            raise ValueError(f"position {position} outside [0, {len(nodes)})")
        return nodes[position]

    def layer_nodes(self, layer: int) -> tuple[NodeId, ...]:
        return tuple(NodeId(layer, i) for i in range(1, self.layer_size(layer) + 1))

    def workers(self) -> Iterator[NodeId]:
        """All workers in layer-major order (layer 1 first)."""
        for layer in range(1, self.L + 1):
            yield from self.layer_nodes(layer)

    def parents(self) -> Iterator[NodeId]:
        """Every node with children: the master plus layers 1..L-1."""
        yield MASTER
        for layer in range(1, self.L):
            yield from self.layer_nodes(layer)


@dataclass(frozen=True)
class StragglerPattern:
    """Per-parent choice of straggling children (at most `s` under each parent)."""

    stragglers: Mapping[NodeId, frozenset[NodeId]]

    def per_parent(self, parent: NodeId) -> frozenset[NodeId]:
        return self.stragglers.get(parent, frozenset())

    def validate(self, tree: RegularTree, s: int) -> None:
        """Raise ValueError where `positions` would."""
        self.positions(tree, s)

    def positions(self, tree: RegularTree, s: int) -> np.ndarray:
        """The pattern as a (tree.num_parents, n) boolean array whose row k
        marks the straggling child positions of the layer-major parent k.
        Raises ValueError for a node outside the tree, a straggler that is
        not its parent's child, or more than `s` stragglers under a parent."""
        n, L = tree.n, tree.L
        offsets = _layer_offsets(n, L)
        flat = [False] * (offsets[L] * n)
        for parent, kids in self.stragglers.items():
            layer, index = parent.layer, parent.index
            if not (0 <= layer <= L and 1 <= index <= offsets[layer + 1] - offsets[layer]):
                tree._check(parent)
            first = n * (index - 1) + 1  # index of the parent's first child
            bad = [
                k for k in kids
                if layer == L or k.layer != layer + 1 or not 0 <= k.index - first < n
            ]
            if bad:
                raise ValueError(f"{sorted(bad, key=str)} are not children of {parent}")
            if len(kids) > s:
                raise ValueError(
                    f"parent {parent} has {len(kids)} stragglers, tolerance is {s}"
                )
            base = (offsets[layer] + index - 1) * n - first  # + child index = flat slot
            for k in kids:
                flat[base + k.index] = True
        return np.array(flat, dtype=bool).reshape(offsets[L], n)


@lru_cache(maxsize=None)
def _layer_offsets(n: int, L: int) -> tuple[int, ...]:
    """`layer_offset` of layers 0..L+1 of the (n, L) tree; the last entry is
    the node count."""
    tree = RegularTree(n, L)
    return tuple(tree.layer_offset(layer) for layer in range(L + 2))


@lru_cache(maxsize=None)
def _layer_major_nodes(n: int, L: int) -> tuple[NodeId, ...]:
    return (MASTER, *RegularTree(n, L).workers())


def build_tree(n: int, L: int) -> RegularTree:
    """Construct an (n, L)-regular tree; rejects n = 0 or L = 0."""
    return RegularTree(n=n, L=L)


def enumerate_patterns(
    tree: RegularTree, s: int, cap: int, seed: int = 0
) -> list[StragglerPattern]:
    """All per-parent straggler patterns with at most `s` stragglers per parent.

    When the full count exceeds `cap`, returns a seeded uniform sample of
    `cap` patterns instead, always containing the all-empty pattern and the
    all-maximal one (lowest-indexed `s` children straggling at every parent).
    """
    if not 0 <= s < tree.n:
        raise ValueError(f"straggler tolerance must satisfy 0 <= s < n, got s={s}")
    parents = list(tree.parents())
    # Per-parent choices as 0-based sibling-position tuples, shared by all parents.
    position_choices: list[tuple[int, ...]] = []
    for size in range(s + 1):
        position_choices.extend(itertools.combinations(range(tree.n), size))
    per_parent = sum(comb(tree.n, size) for size in range(s + 1))
    total = per_parent ** len(parents)

    def make(choice_ids: tuple[int, ...]) -> StragglerPattern:
        mapping = {}
        for parent, cid in zip(parents, choice_ids):
            kids = tree.children(parent)
            positions = position_choices[cid]
            if positions:
                mapping[parent] = frozenset(kids[p] for p in positions)
        return StragglerPattern(mapping)

    if total <= cap:
        return [make(ids) for ids in itertools.product(range(per_parent), repeat=len(parents))]

    rng = np.random.default_rng(seed)
    empty = make((0,) * len(parents))
    maximal_id = position_choices.index(tuple(range(s)))
    maximal = make((maximal_id,) * len(parents))
    out = [empty, maximal][:cap]
    while len(out) < cap:
        ids = tuple(int(c) for c in rng.integers(0, per_parent, size=len(parents)))
        out.append(make(ids))
    return out
