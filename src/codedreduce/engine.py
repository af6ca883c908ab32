"""Deterministic single-round gradient aggregation for every scheme.

Stragglers here are simply excluded from each parent's combination; timing
lives in the latency module.  All schemes that claim the full gradient must
agree with each other to floating-point accuracy, whatever the admissible
straggler pattern; that equivalence is the core correctness property.
GC and UMW are CR on the depth-1 tree (N, 1), with s = S and s = 0.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .allocation import Assignment, WeightedSlice, cr_allocate, uniform_partition
from .codes import EncodingMatrix, build_encoding, decode_row
from .topology import MASTER, NodeId, RegularTree, StragglerPattern

__all__ = [
    "GradientOracle",
    "UnrecoverableError",
    "cr_execute",
    "gc_execute",
    "umw_execute",
    "rar_execute",
    "sgd_execute",
]

# Maps (model, weighted slices) to the weighted sum of per-point gradients.
# Must be additive over disjoint slice lists and homogeneous in the weights.
GradientOracle = Callable[[np.ndarray, Sequence[WeightedSlice]], np.ndarray]


class UnrecoverableError(RuntimeError):
    def __init__(self, parent: NodeId, missing: int, tolerance: int):
        self.parent = parent
        super().__init__(
            f"parent {parent} lost {missing} children but tolerates only {tolerance}"
        )


def _combine(
    parent: NodeId,
    tree: RegularTree,
    assignment: Assignment,
    B: EncodingMatrix,
    pattern: StragglerPattern,
    oracle: GradientOracle,
    theta: np.ndarray,
) -> np.ndarray:
    """Decode over the first n-s surviving children of `parent`, in
    child-index order.  A child's message is its local coded gradient plus,
    for an internal node, its own decode; no other message is computed."""
    s = assignment.s
    need = tree.n - s
    kids = tree.children(parent)
    straggling = pattern.per_parent(parent)
    survivors = [pos for pos, c in enumerate(kids) if c not in straggling]
    if len(survivors) < need:
        raise UnrecoverableError(parent, tree.n - len(survivors), s)
    survivors = survivors[:need]  # surplus survivors: keep lowest child indices
    messages = []
    for pos in survivors:
        child = kids[pos]
        m = oracle(theta, assignment.local[child])
        if not tree.is_leaf(child):
            m = m + _combine(child, tree, assignment, B, pattern, oracle, theta)
        messages.append(m)
    row = decode_row(B, survivors)
    out = np.zeros_like(messages[0])
    for pos, m in zip(survivors, messages):
        out += row.coefficients[pos] * m
    return out


def cr_execute(
    tree: RegularTree,
    assignment: Assignment,
    B: EncodingMatrix,
    pattern: StragglerPattern,
    oracle: GradientOracle,
    theta: np.ndarray,
) -> np.ndarray:
    """One coded aggregation round over the tree; returns the recovered gradient.

    Every parent decodes on its surviving children's messages (first n-s in
    child-index order when more survive); the master only decodes.  Only the
    messages some parent decodes on are computed.
    """
    pattern.validate(tree, assignment.s)
    return _combine(MASTER, tree, assignment, B, pattern, oracle, theta)


def _check_even(N: int, d: int) -> None:
    if d % N != 0:
        raise ValueError(f"{d} points do not split evenly over {N} workers")


def _unit_partition(N: int, d: int) -> list[tuple[WeightedSlice, ...]]:
    _check_even(N, d)
    return uniform_partition([WeightedSlice(0, d, 1.0)], N)


def _flat_execute(
    B: EncodingMatrix,
    straggling: frozenset[int],
    oracle: GradientOracle,
    theta: np.ndarray,
    d: int,
) -> np.ndarray:
    """CR on the depth-1 tree (N, 1): worker i is node 1.(i+1)."""
    tree = RegularTree(B.n, 1)
    pattern = StragglerPattern(
        {MASTER: frozenset(NodeId(1, i + 1) for i in straggling)} if straggling else {}
    )
    assignment = cr_allocate(tree, B.s, d, B=B)
    return cr_execute(tree, assignment, B, pattern, oracle, theta)


def gc_execute(
    N: int,
    S: int,
    B: EncodingMatrix,
    stragglers,
    oracle: GradientOracle,
    theta: np.ndarray,
    d: int,
) -> np.ndarray:
    """Single-group coded round: master combines any N-S workers' messages."""
    if B.n != N or B.s != S:
        raise ValueError(f"encoding matrix is for (n={B.n}, s={B.s}), not (N={N}, S={S})")
    straggling = frozenset(int(i) for i in stragglers)
    if len(straggling) > S:
        raise UnrecoverableError(MASTER, len(straggling), S)
    return _flat_execute(B, straggling, oracle, theta, d)


def umw_execute(N: int, oracle: GradientOracle, theta: np.ndarray, d: int) -> np.ndarray:
    """Uncoded master-worker: plain sum of all N partial gradients."""
    _check_even(N, d)
    return _flat_execute(build_encoding(N, 0, 0), frozenset(), oracle, theta, d)


def rar_execute(
    N: int, oracle: GradientOracle, theta: np.ndarray, d: int
) -> list[np.ndarray]:
    """Ring allreduce at the data level: reduce-scatter then allgather.

    Returns all N workers' copies of the aggregated gradient, each built by
    circulating vector segments around the ring for N-1 rounds per phase.
    """
    parts = _unit_partition(N, d)
    buffers = [oracle(theta, part) for part in parts]
    p = buffers[0].shape[0]
    bounds = [len(seg) for seg in np.array_split(np.arange(p), N)]
    offsets = np.concatenate([[0], np.cumsum(bounds)])
    seg = [slice(int(offsets[k]), int(offsets[k + 1])) for k in range(N)]

    for rnd in range(N - 1):  # reduce-scatter: worker i forwards segment i-rnd
        updates = []
        for i in range(N):
            k = (i - rnd) % N
            updates.append(((i + 1) % N, k, buffers[i][seg[k]].copy()))
        for receiver, k, payload in updates:
            buffers[receiver][seg[k]] += payload
    for rnd in range(N - 1):  # allgather: circulate each fully reduced segment
        updates = []
        for i in range(N):
            k = (i + 1 - rnd) % N
            updates.append(((i + 1) % N, k, buffers[i][seg[k]].copy()))
        for receiver, k, payload in updates:
            buffers[receiver][seg[k]] = payload
    return buffers


def sgd_execute(
    N: int,
    S: int,
    stragglers,
    oracle: GradientOracle,
    theta: np.ndarray,
    d: int,
) -> np.ndarray:
    """Partial aggregation: sum over the first N-S non-straggling workers only.

    Intentionally returns a partial gradient; the model update absorbs the
    missing terms as stochastic error.
    """
    straggling = set(int(i) for i in stragglers)
    if len(straggling) > S:
        raise UnrecoverableError(MASTER, len(straggling), S)
    parts = _unit_partition(N, d)
    survivors = [i for i in range(N) if i not in straggling][: N - S]
    out = oracle(theta, parts[survivors[0]])
    for i in survivors[1:]:
        out += oracle(theta, parts[i])
    return out
