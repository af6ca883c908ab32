"""Deterministic single-round gradient aggregation for every scheme.

Stragglers here are simply excluded from each parent's combination; timing
lives in the latency module.  All schemes that claim the full gradient must
agree with each other to floating-point accuracy, whatever the admissible
straggler pattern; that equivalence is the core correctness property.
A round is linear: each parent combines its surviving children with a fixed
row (a coded parent's row a solves a @ B_F = 1), so the master's output is
sum_v c_v * g_v over the workers' local gradients g_v, each c_v the product
of the rows on v's path to the master.  `worker_weights` is the coefficient
pass that gives c from integer straggler positions; the rows are cached on
the code, so each survivor set is decoded once per code, not once per round,
and an ill-conditioned set warns once.  `cr_execute` evaluates the sum
through a gradient oracle, and `ml.gd_run` turns c into per-block weights
(`Assignment.block_weights`) and takes the whole round as one reweighted
full gradient.
GC, UMW and SGD are rounds on the depth-1 tree (N, 1): GC with the code of
s = S, UMW uncoded, SGD uncoded with a quorum of N - S.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .allocation import Assignment, WeightedSlice, cr_allocate
from .codes import EncodingMatrix, build_encoding, decode_row
from .topology import MASTER, NodeId, RegularTree, StragglerPattern

__all__ = [
    "GradientOracle",
    "UnrecoverableError",
    "cr_execute",
    "worker_weights",
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


def _combining_row(B: EncodingMatrix, survivors: tuple[int, ...]) -> np.ndarray:
    """A parent's weights for its n children, given the child positions it
    combines (an ascending tuple): a coded B's decode row, or 1/B_ii for an
    uncoded (diagonal) B, which sums what the parent hears.  Rows are cached
    on B, so each survivor set is decoded once per code; a cached row is
    read-only."""
    key = survivors if B.s else ()  # an uncoded row is the same for every set
    row = B._decode_cache.get(key)
    if row is None:
        row = decode_row(B, survivors).coefficients if B.s else 1.0 / np.diag(B.entries)
        row.setflags(write=False)
        B._decode_cache[key] = row
    return row


def worker_weights(
    tree: RegularTree, B: EncodingMatrix, straggling: np.ndarray, resilience: int
) -> np.ndarray:
    """The round's coefficient pass: every worker's weight c_v in the
    master's output sum_v c_v * g_v, one entry per worker in layer-major
    order.

    `straggling` is a (tree.num_parents, n) boolean array, row k marking the
    straggling child positions of the layer-major parent k (see
    `StragglerPattern.positions`), with at most `resilience` per row.  Each
    parent combines its first n - resilience surviving children with its
    combining row, so c_master = 1 and c_child = c_parent * row[position].
    A worker no parent combines, or one below it, weighs 0.  Each distinct
    survivor set is decoded once per code, not once per round.
    """
    n, need = tree.n, tree.n - resilience
    weight = [0.0] * (1 + tree.num_workers)  # layer-major, master at 0
    weight[0] = 1.0
    for k, lagging in enumerate(straggling.tolist()):  # a parent's weight is final
        c = weight[k]
        if not c:
            continue
        # surplus survivors: keep the lowest child indices
        survivors = tuple(j for j, lag in enumerate(lagging) if not lag)[:need]
        row = _combining_row(B, survivors)
        for j in survivors:
            weight[k * n + 1 + j] = c * row[j]
    return np.array(weight[1:])


def cr_execute(
    tree: RegularTree,
    assignment: Assignment,
    B: EncodingMatrix,
    pattern: StragglerPattern,
    oracle: GradientOracle,
    theta: np.ndarray,
    resilience: int | None = None,
) -> np.ndarray:
    """One aggregation round over the tree; returns the aggregated gradient.

    Every parent waits for n - `resilience` children (default: the code's s)
    and combines the first that survive in child-index order; the master
    only combines.  The round is linear, so it returns sum_v c_v * g_v over
    the workers v with a nonzero weight from `worker_weights`, in layer-major
    order, with g_v the oracle on v's local slices: only the messages some
    parent combines are computed.  With an uncoded B and resilience S > 0
    the round returns the partial sum over the survivors, which is SGD.
    """
    if resilience is None:
        resilience = assignment.s
    if not 0 <= resilience < tree.n:
        raise ValueError(f"need 0 <= resilience < n, got n={tree.n}, resilience={resilience}")
    straggling = pattern.positions(tree, resilience)
    weight = worker_weights(tree, B, straggling, resilience)
    nodes = tree.layer_major_nodes()
    return sum(
        weight[v] * oracle(theta, assignment.local[nodes[v + 1]])
        for v in np.flatnonzero(weight).tolist()
    )


def _check_even(N: int, d: int) -> None:
    if d % N != 0:
        raise ValueError(f"{d} points do not split evenly over {N} workers")


def _flat_execute(
    B: EncodingMatrix,
    resilience: int,
    stragglers,
    oracle: GradientOracle,
    theta: np.ndarray,
    d: int,
) -> np.ndarray:
    """CR on the depth-1 tree (N, 1) with quorum N - resilience: worker i is
    node 1.(i+1)."""
    straggling = frozenset(int(i) for i in stragglers)
    if len(straggling) > resilience:
        raise UnrecoverableError(MASTER, len(straggling), resilience)
    tree = RegularTree(B.n, 1)
    pattern = StragglerPattern(
        {MASTER: frozenset(NodeId(1, i + 1) for i in straggling)} if straggling else {}
    )
    assignment = cr_allocate(tree, B.s, d, B=B)
    return cr_execute(tree, assignment, B, pattern, oracle, theta, resilience)


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
    return _flat_execute(B, S, stragglers, oracle, theta, d)


def umw_execute(N: int, oracle: GradientOracle, theta: np.ndarray, d: int) -> np.ndarray:
    """Uncoded master-worker: plain sum of all N partial gradients."""
    _check_even(N, d)
    return _flat_execute(build_encoding(N, 0, 0), 0, (), oracle, theta, d)


def rar_execute(
    N: int, oracle: GradientOracle, theta: np.ndarray, d: int
) -> list[np.ndarray]:
    """Ring allreduce at the data level: reduce-scatter then allgather.

    Returns all N workers' copies of the aggregated gradient, each built by
    circulating vector segments around the ring for N-1 rounds per phase.
    """
    _check_even(N, d)
    size = d // N
    parts = [(WeightedSlice(i * size, (i + 1) * size, 1.0),) for i in range(N)]
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
    """Partial aggregation: the uncoded round on (N, 1) with quorum N - S,
    which sums the first N-S non-straggling workers only.

    Intentionally returns a partial gradient; the model update absorbs the
    missing terms as stochastic error.
    """
    _check_even(N, d)
    return _flat_execute(build_encoding(N, 0, 0), S, stragglers, oracle, theta, d)
