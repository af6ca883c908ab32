"""Iteration-time simulation under shifted-exponential compute and a
single-port receiver model, plus the matching closed-form envelopes.

A worker loaded with d_i points finishes computing at
``a*d_i + Exp(rate mu/d_i)``.  Each parent receives over one port: a message
occupies it for exactly t_c, waiting children are served in readiness order
(ties by child index), and a coded parent stops listening after its quorum.
Internal nodes may receive while still computing; sending upward requires
both their own compute and the quorum.

The FCFS port admits a closed form: with sorted ready times
r_(0) <= r_(1) <= ..., the k-th service (0-based) ends at
``max_{j<=k}(r_(j) - j*t_c) + (k+1)*t_c``.  It is the only port model.
Monte Carlo runs it on blocks of trials; the event-driven path runs it on a
one-trial block and reads each message's send/recv interval off the finish
times, so its completion equals the batched one bit for bit.

All trials of a seed come from one ``PCG64(cfg.seed)`` stream: trial t is
row t of a (trials x N) block of uniform doubles, inverted to the shifted
exponential.  Each double takes exactly one 64-bit word, so any run of
consecutive trials is reached with one ``advance`` and drawn with one call,
and both paths see the same draws whatever the batch.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isfinite, log
from typing import NamedTuple, Sequence

import numpy as np

from .allocation import r_cr
from .topology import RegularTree

__all__ = [
    "LatencyConfig",
    "SimEvent",
    "SimOutcome",
    "harmonic",
    "expected_order_stat",
    "scheme_tree",
    "scheme_topology",
    "simulate_iteration",
    "cr_bounds",
    "mc_expected_latency",
    "events_to_csv",
]

SCHEMES = ("cr", "gc", "umw", "sgd", "rar")
_MC_CHUNK = 256  # trials per block draw in mc_expected_latency


@dataclass(frozen=True)
class LatencyConfig:
    """Timing-model parameters: shift per point, exponential rate scale,
    per-message cost, dataset size, base seed."""

    a: float
    mu: float
    t_c: float
    d: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (isfinite(self.a) and self.a >= 0):
            raise ValueError(f"shift coefficient must be finite and >= 0, got {self.a}")
        if not (isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"exponential rate scale must be finite and > 0, got {self.mu}")
        if not (isfinite(self.t_c) and self.t_c >= 0):
            raise ValueError(f"message cost must be finite and >= 0, got {self.t_c}")
        if not (isfinite(self.d) and self.d > 0):
            raise ValueError(f"dataset size must be finite and > 0, got {self.d}")


class SimEvent(NamedTuple):
    node: str
    event_type: str  # compute | send | recv | allreduce
    t_start: float
    t_end: float


@dataclass(frozen=True)
class SimOutcome:
    completion_time: float
    events: tuple[SimEvent, ...] = field(repr=False)


def harmonic(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k, with H_0 = 0."""
    if k < 0:
        raise ValueError("harmonic number needs k >= 0")
    return float(sum(Fraction(1, i) for i in range(1, k + 1)))


def expected_order_stat(cfg: LatencyConfig, n: int, s: int, r) -> float:
    """Mean time until n-s of n equally loaded workers finish:
    (r*d/mu) * (H_n - H_s) + a*r*d."""
    if not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n, got n={n}, s={s}")
    load = float(r) * cfg.d
    return (load / cfg.mu) * (harmonic(n) - harmonic(s)) + cfg.a * load


def _port_finish_times(ready: np.ndarray, t_c: float) -> np.ndarray:
    """Service completion times of an FCFS single port along the last axis.

    `ready` must already be sorted ascending along the last axis; entry k of
    the result is when the k-th served message finishes.
    """
    k = np.arange(ready.shape[-1], dtype=float)
    return np.maximum.accumulate(ready - k * t_c, axis=-1) + (k + 1) * t_c


def _draw_block(cfg: LatencyConfig, loads: np.ndarray, trials: Sequence[int]) -> np.ndarray:
    """Compute times of consecutive trials, one row per trial: rows
    trials[0], trials[0] + 1, ... of the seed's (trials x N) uniform block,
    each u inverted to ``a*load - (load/mu)*log1p(-u)``.  Raises ValueError
    unless `trials` are consecutive indices >= 0."""
    count = len(trials)
    first = int(trials[0]) if count else 0
    if first < 0 or list(trials) != list(range(first, first + count)):
        raise ValueError(f"trials must be consecutive indices >= 0, got {trials!r}")
    bits = np.random.PCG64(cfg.seed)
    bits.advance(first * loads.size)  # Generator.random takes one word per double
    u = np.random.Generator(bits).random((count, loads.size))
    return cfg.a * loads - (loads / cfg.mu) * np.log1p(-u)


def scheme_tree(scheme: str, topo, resilience: int) -> tuple[RegularTree, int, int]:
    """(tree, quorum tolerance, coded tolerance) of a scheme: the one place
    that decides what a scheme is.

    `topo` is the tree for CR and the worker count N for every flat scheme,
    and `resilience` is s for CR and S for the flat ones.  CR needs a
    `RegularTree` and 0 <= s < n.  Every flat scheme runs on the depth-1
    tree (N, 1) and needs 0 <= S < N: GC(N, S) is CR there with s = S, UMW
    is s = 0, SGD waits for N - S workers of uncoded load, and RAR takes the
    uncoded load but completes by its own ring.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == "cr":
        if not isinstance(topo, RegularTree):
            raise ValueError(f"scheme 'cr' needs a RegularTree, got {topo!r}")
        if not 0 <= resilience < topo.n:
            raise ValueError(f"need 0 <= s < n, got n={topo.n}, s={resilience}")
        return topo, resilience, resilience
    N = int(topo)
    if not 0 <= resilience < N:
        raise ValueError(f"need 0 <= S < N, got N={N}, S={resilience}")
    quorum_s = resilience if scheme in ("gc", "sgd") else 0
    return RegularTree(N, 1), quorum_s, resilience if scheme == "gc" else 0


def scheme_topology(scheme: str, cfg) -> tuple[RegularTree | int, int]:
    """The `(topo, resilience)` that `scheme_tree` takes for `scheme`, read
    from a config's n, L, s (the CR tree) or N, S (the flat group)."""
    if scheme == "cr":
        return RegularTree(cfg.n, cfg.L), cfg.s
    return cfg.N, cfg.S


def _loads(tree: RegularTree, coded_s: int, cfg: LatencyConfig) -> np.ndarray:
    return np.full(tree.num_workers, float(r_cr(tree.n, tree.L, coded_s)) * cfg.d)


def _ring_time(N: int, t_c: float) -> float:
    """Reduce-scatter plus allgather: 2(N-1) hops of a 1/N segment."""
    return 2 * (N - 1) * (t_c / N)


@lru_cache(maxsize=16)
def _node_names(tree: RegularTree) -> tuple[str, ...]:
    """Every node's name, ``str(NodeId)`` as the transport writes it, in
    layer-major order with the master at 0."""
    return tuple(map(str, tree.layer_major_nodes()))


def _port_layers(tree: RegularTree, s: int, t_c: float, T: np.ndarray):
    """Every FCFS port of a batch of trials, one tree layer at a time,
    deepest first.  T has shape (trials, N) in layer-major worker order.

    Yields each layer's child ready times, unsorted, shaped (trials, parents,
    n), and the finish times of the n - s messages each port serves before
    closing, shaped (trials, parents, n - s).  The finish times are a prefix
    of the full queue's, so serving only the quorum changes no bit.
    """
    n, L = tree.n, tree.L
    need = n - s
    trials = T.shape[0]
    ready = T[:, tree.num_parents - 1 :]  # leaves; worker v is node v + 1
    for layer in range(L, 0, -1):
        groups = ready.reshape(trials, n ** (layer - 1), n)
        finish = _port_finish_times(np.sort(groups, axis=-1)[..., :need], t_c)
        yield groups, finish
        if layer > 1:
            own = T[:, tree.layer_offset(layer - 1) - 1 : tree.layer_offset(layer) - 1]
            ready = np.maximum(own, finish[..., -1])


def _batch_completions(
    scheme: str, topo, cfg: LatencyConfig, resilience: int, trials: Sequence[int]
) -> np.ndarray:
    """Completion times of consecutive trials, drawn as one block."""
    tree, quorum_s, coded_s = scheme_tree(scheme, topo, resilience)
    T = _draw_block(cfg, _loads(tree, coded_s, cfg), trials)
    if scheme == "rar":
        return T.max(axis=1) + _ring_time(tree.n, cfg.t_c)
    *_, (_, master) = _port_layers(tree, quorum_s, cfg.t_c, T)
    return master[:, 0, -1]


def simulate_iteration(
    scheme: str,
    topo,
    cfg: LatencyConfig,
    resilience: int = 0,
    trial: int = 0,
) -> SimOutcome:
    """Event-driven simulation of one aggregation round.

    `topo` is a RegularTree for the tree-coded scheme and a worker count for
    the flat ones, which run as the depth-1 tree (N, 1): their workers are
    named ``1.i`` and the master ``0.1``.  `resilience` is the per-parent (or
    total) straggler tolerance where the scheme has one.  Stragglers are
    slow, never absent: parents simply stop listening once their quorum is
    in.  Trial `t` takes row t of the seed's draw block, the same draws as
    trial t of `mc_expected_latency`, so outcomes are reproducible and
    trials are independent.  Each port serves its children in readiness
    order, ties by child index, and message k occupies it over
    [f_k - t_c, f_k] for the port's k-th finish time f_k.
    """
    tree, quorum_s, coded_s = scheme_tree(scheme, topo, resilience)
    T = _draw_block(cfg, _loads(tree, coded_s, cfg), [trial])
    times = T[0].tolist()
    names = _node_names(tree)
    events = [SimEvent(name, "compute", 0.0, t) for name, t in zip(names[1:], times)]
    if scheme == "rar":
        barrier = max(times)
        completion = barrier + _ring_time(tree.n, cfg.t_c)
        events.append(SimEvent("ring", "allreduce", barrier, completion))
        return SimOutcome(completion, tuple(events))
    n, need = tree.n, tree.n - quorum_s
    layers = zip(range(tree.L, 0, -1), _port_layers(tree, quorum_s, cfg.t_c, T))
    for layer, (groups, finish) in layers:
        kids, parents = tree.layer_offset(layer), tree.layer_offset(layer - 1)
        served = np.argsort(groups[0], axis=-1, kind="stable")[:, :need].tolist()
        for g, (order, ends) in enumerate(zip(served, finish[0].tolist())):
            for c, end in zip(order, ends):
                start = end - cfg.t_c
                events.append(SimEvent(names[kids + g * n + c], "send", start, end))
                events.append(SimEvent(names[parents + g], "recv", start, end))
    return SimOutcome(float(finish[0, 0, -1]), tuple(events))


def cr_bounds(cfg: LatencyConfig, n: int, L: int, s: int) -> tuple[float, float]:
    """Envelope on the tree-coded scheme's expected round time.

    lower = (r*d/mu) ln(1/alpha) + a*r*d + (n(1-alpha) + L - 1) t_c
    upper = (r*d/mu) ln(1/alpha) + a*r*d + n*L*t_c

    Vanishing correction terms are dropped, so at finite n these are
    asymptotic envelopes; tests apply slack rather than claiming exactness.
    """
    alpha = s / n
    if not 0 < alpha < 1:
        raise ValueError(f"straggler ratio s/n must be in (0,1), got {alpha}")
    load = float(r_cr(n, L, s)) * cfg.d
    base = (load / cfg.mu) * log(1 / alpha) + cfg.a * load
    lower = base + (n * (1 - alpha) + L - 1) * cfg.t_c
    upper = base + n * L * cfg.t_c
    return lower, upper


def mc_expected_latency(
    scheme: str,
    topo,
    cfg: LatencyConfig,
    resilience: int = 0,
    trials: int = 1000,
) -> tuple[float, float]:
    """Monte Carlo mean completion time and normal-approximation 95% half-width
    over `trials` independent rounds, trials 0..trials-1 of the seed's
    stream, drawn `_MC_CHUNK` trials to a block."""
    if trials < 1:
        raise ValueError("need at least one trial")
    blocks = (range(lo, min(lo + _MC_CHUNK, trials)) for lo in range(0, trials, _MC_CHUNK))
    samples = np.concatenate(
        [_batch_completions(scheme, topo, cfg, resilience, block) for block in blocks]
    )
    mean = float(samples.mean())
    if trials == 1:
        return mean, 0.0
    half = 1.96 * float(samples.std(ddof=1)) / np.sqrt(trials)
    return mean, float(half)


def events_to_csv(outcome: SimOutcome, path) -> None:
    """Trace dump: node, event_type, t_start, t_end."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "event_type", "t_start", "t_end"])
        for ev in outcome.events:
            writer.writerow([ev.node, ev.event_type, repr(ev.t_start), repr(ev.t_end)])
