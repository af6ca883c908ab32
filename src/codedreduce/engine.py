"""Deterministic single-round gradient aggregation for every scheme.

Stragglers here are simply excluded from each parent's combination; timing
lives in the latency module.  All schemes that claim the full gradient must
agree with each other to floating-point accuracy, whatever the admissible
straggler pattern; that equivalence is the core correctness property.
A round is linear: each parent combines its surviving children with a fixed
row (a coded parent's row a solves a @ B_F = 1), so the master's output is
sum_v c_v * g_v over the workers' local gradients g_v, each c_v the product
of the rows on v's path to the master.  `worker_weights` is the coefficient
pass that gives c from integer straggler positions, vectorized over a batch
of rounds (the straggler draws do not depend on the model, so `ml.gd_run`
passes a chunk of iterations at once and `codedreduce verify` a chunk of
patterns); the rows are cached on the code, so each survivor set is decoded
once per code, not once per round, and an ill-conditioned set warns once.
`cr_execute` evaluates the sum through a gradient oracle, and `ml.gd_run`
turns c into per-block weights (`Assignment.block_weights`) and takes the
whole round as one reweighted full gradient.
GC, UMW and SGD are this round on the tree, quorum and code that
`latency.scheme_tree` gives them, so the tree round's checks (the
allocation's code shape and granularity, the pattern's straggler bound) are
theirs too; RAR starts from the same uncoded allocation and completes by its
ring.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .allocation import Assignment, WeightedSlice, cr_allocate
from .codes import EncodingMatrix, build_encoding, decode_row
from .latency import scheme_tree
from .topology import MASTER, NodeId, RegularTree, StragglerPattern, check_tolerance

__all__ = [
    "GradientOracle",
    "cr_execute",
    "worker_weights",
    "gc_execute",
    "umw_execute",
    "rar_execute",
    "sgd_execute",
]

# Rounds per coefficient pass where a caller sweeps many (gd_run's
# iterations, verify's patterns): a pass's arrays stay O(chunk x workers)
# whatever the number of rounds.
_PASS_CHUNK = 64

# Maps (model, weighted slices) to the weighted sum of per-point gradients.
# Must be additive over disjoint slice lists and homogeneous in the weights.
GradientOracle = Callable[[np.ndarray, Sequence[WeightedSlice]], np.ndarray]


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


@lru_cache(maxsize=None)
def _bits(n: int) -> np.ndarray:
    """Child position j's bit, 1 << j: int64 for up to 62 children and Python
    ints beyond, so a bitmask of a parent's children never wraps."""
    return 1 << np.arange(n, dtype=np.int64 if n < 63 else object)


@lru_cache(maxsize=1024)
def _kept(alive: int, n: int, need: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The `need` lowest child positions set in the bitmask `alive`, the
    ones a parent combines, and their read-only 0/1 indicator."""
    kept = tuple(j for j in range(n) if alive >> j & 1)[:need]
    on = np.zeros(n)
    on[list(kept)] = 1.0
    on.setflags(write=False)
    return kept, on


def worker_weights(
    tree: RegularTree, B: EncodingMatrix, straggling: np.ndarray, resilience: int
) -> np.ndarray:
    """The coefficient pass: every worker's weight c_v in the master's output
    sum_v c_v * g_v, one entry per worker in layer-major order, for every
    round of a batch at once.

    `straggling` is a (..., tree.num_parents, n) boolean array, row k of a
    round marking the straggling child positions of the layer-major parent
    k (as `topology.enumerate_patterns` gives them), with at most
    `resilience` per row; the result is (..., tree.num_workers).  Each
    parent combines its first n - resilience surviving children with its
    combining row, so c_master = 1 and c_child = c_parent * row[position],
    multiplied root first.  A worker no parent combines, or one below it,
    weighs 0 (or -0).  A parent's answering children are one bitmask; the
    rows are looked up once per distinct bitmask, in order of first
    appearance (round, then layer-major parent), and each survivor set is
    decoded once per code, the sets of parents whose weight is 0 included.
    """
    n, L = tree.n, tree.L
    batch = straggling.shape[:-2]
    alive = ~straggling @ _bits(n)  # each parent's answering children
    rows = dict.fromkeys(alive.ravel().tolist())  # distinct, first appearance first
    for mask in rows:
        kept, on = _kept(mask, n, n - resilience)
        rows[mask] = _combining_row(B, kept) * on  # an uncoded row is nonzero off its set
    masks = sorted(rows)
    factor = np.array([rows[mask] for mask in masks])[np.searchsorted(np.array(masks), alive)]
    c = factor.reshape(batch + (tree.num_workers,))  # node v's weight sits at v - 1
    offsets = [tree.layer_offset(layer) - 1 for layer in range(1, L + 2)]
    for first, kids, end in zip(offsets, offsets[1:], offsets[2:]):
        below = c[..., kids:end].reshape(batch + (kids - first, n))  # a view
        below *= c[..., first:kids, None]  # each child times its parent's weight
    return c


def cr_execute(
    tree: RegularTree,
    assignment: Assignment,
    B: EncodingMatrix,
    pattern: StragglerPattern | np.ndarray,
    oracle: GradientOracle,
    theta: np.ndarray,
    resilience: int | None = None,
) -> np.ndarray:
    """One aggregation round over the tree; returns the aggregated gradient.
    `pattern` is a `StragglerPattern` or a row of `enumerate_patterns`.

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
    if isinstance(pattern, StragglerPattern):
        straggling = pattern.positions(tree, resilience)
    else:
        straggling = np.asarray(pattern, dtype=bool)
        check_tolerance(tree.layer_major_nodes(), straggling.sum(axis=-1).tolist(), resilience)
    weight = worker_weights(tree, B, straggling, resilience)
    nodes = tree.layer_major_nodes()
    combined = np.flatnonzero(weight)
    return weight[combined] @ np.array(
        [oracle(theta, assignment.local[nodes[v + 1]]) for v in combined.tolist()]
    )


def _flat_execute(
    scheme: str,
    N: int,
    S: int,
    stragglers,
    oracle: GradientOracle,
    theta: np.ndarray,
    d: int,
    B: EncodingMatrix | None = None,
) -> np.ndarray:
    """The flat scheme's round: `cr_execute` on the tree, quorum and code
    `scheme_tree` gives it, worker i being node 1.(i+1).  `B` is the code
    (default: the uncoded one); `cr_allocate` refuses one of another shape
    or a d off the (N, 1) granularity N, and `StragglerPattern.positions`
    more stragglers than the quorum lets go."""
    tree, quorum_s, coded_s = scheme_tree(scheme, N, S)
    if B is None:
        B = build_encoding(N, coded_s, 0)
    pattern = StragglerPattern({MASTER: frozenset(NodeId(1, int(i) + 1) for i in stragglers)})
    assignment = cr_allocate(tree, coded_s, d, B)
    return cr_execute(tree, assignment, B, pattern, oracle, theta, quorum_s)


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
    return _flat_execute("gc", N, S, stragglers, oracle, theta, d, B)


def umw_execute(N: int, oracle: GradientOracle, theta: np.ndarray, d: int) -> np.ndarray:
    """Uncoded master-worker: plain sum of all N partial gradients."""
    return _flat_execute("umw", N, 0, (), oracle, theta, d)


def rar_execute(
    N: int, oracle: GradientOracle, theta: np.ndarray, d: int
) -> list[np.ndarray]:
    """Ring allreduce at the data level: reduce-scatter then allgather.

    Returns all N workers' copies of the aggregated gradient.  Each worker
    starts from its local gradient on the uncoded (N, 1) allocation, and its
    copy is built by circulating vector segments around the ring for N-1
    rounds per phase.
    """
    tree, _, coded_s = scheme_tree("rar", N, 0)
    assignment = cr_allocate(tree, coded_s, d, build_encoding(N, coded_s, 0))
    buffers = [oracle(theta, assignment.local[worker]) for worker in tree.workers()]
    seg = np.array_split(np.arange(buffers[0].shape[0]), N)

    for rnd in range(N - 1):  # reduce-scatter: worker i forwards segment i-rnd
        sent = [buffers[i][seg[(i - rnd) % N]] for i in range(N)]  # index arrays copy
        for i, payload in enumerate(sent):
            buffers[(i + 1) % N][seg[(i - rnd) % N]] += payload
    for rnd in range(N - 1):  # allgather: circulate each fully reduced segment
        sent = [buffers[i][seg[(i + 1 - rnd) % N]] for i in range(N)]
        for i, payload in enumerate(sent):
            buffers[(i + 1) % N][seg[(i + 1 - rnd) % N]] = payload
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
    return _flat_execute("sgd", N, S, stragglers, oracle, theta, d)
