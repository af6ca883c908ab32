"""Iteration-time simulation under shifted-exponential compute and a
single-port receiver model, plus the matching closed-form envelopes.

A worker loaded with d_i points finishes computing at
``a*d_i + Exp(rate mu/d_i)``.  Each parent receives over one port: a message
occupies it for exactly t_c, waiting children are served in readiness order
(ties by child index), and a coded parent stops listening after its quorum.
Internal nodes may receive while still computing; sending upward requires
both their own compute and the quorum.

The FCFS port admits a closed form used by the vectorized Monte Carlo path:
with sorted ready times r_(0) <= r_(1) <= ..., the k-th service (0-based)
ends at ``max_{j<=k}(r_(j) - j*t_c) + (k+1)*t_c``.  The event-driven path
replays the same queue explicitly and doubles as a cross-check.

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
from math import log
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
    "simulate_iteration",
    "cr_bounds",
    "mc_expected_latency",
    "events_to_csv",
]

SCHEMES = ("cr", "gc", "umw", "sgd", "rar")


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
        if self.a < 0:
            raise ValueError(f"shift coefficient must be >= 0, got {self.a}")
        if self.mu <= 0:
            raise ValueError(f"exponential rate scale must be > 0, got {self.mu}")
        if self.t_c < 0:
            raise ValueError(f"message cost must be >= 0, got {self.t_c}")
        if self.d <= 0:
            raise ValueError(f"dataset size must be > 0, got {self.d}")


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


def _draw_times(cfg: LatencyConfig, loads: np.ndarray, trial: int) -> np.ndarray:
    """Trial `trial`'s compute times: the one-row case of `_draw_block`."""
    return _draw_block(cfg, loads, [trial])[0]


def scheme_tree(scheme: str, topo, resilience: int) -> tuple[RegularTree, int, int]:
    """(tree, quorum tolerance, coded tolerance) of a scheme: the one place
    that decides what a scheme is.

    `topo` is the tree for CR and the worker count N for every flat scheme,
    and `resilience` is s for CR and S for the flat ones.  Every flat scheme
    runs on the depth-1 tree (N, 1): GC(N, S) is CR there with s = S, UMW is
    s = 0, SGD waits for N - S workers of uncoded load, and RAR takes the
    uncoded load but completes by its own ring.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == "cr":
        return topo, resilience, resilience
    N = int(topo)
    if scheme in ("gc", "sgd"):
        if not 0 <= resilience < N:
            raise ValueError(f"need 0 <= S < N, got N={N}, S={resilience}")
        return RegularTree(N, 1), resilience, resilience if scheme == "gc" else 0
    return RegularTree(N, 1), 0, 0


def _loads(tree: RegularTree, coded_s: int, cfg: LatencyConfig) -> np.ndarray:
    return np.full(tree.num_workers, float(r_cr(tree.n, tree.L, coded_s)) * cfg.d)


def _ring_time(N: int, t_c: float) -> float:
    """Reduce-scatter plus allgather: 2(N-1) hops of a 1/N segment."""
    return 2 * (N - 1) * (t_c / N)


@lru_cache(maxsize=16)
def _layout(n: int, L: int) -> tuple[tuple[int, ...], tuple[tuple[str, ...], ...]]:
    """Start of each worker layer in layer-major order (plus the end), and
    the node names of layers 0..L."""
    offsets = tuple(int(x) for x in np.cumsum([0] + [n**l for l in range(1, L + 1)]))
    names = tuple(
        tuple(f"{layer}.{i}" for i in range(1, n**layer + 1)) for layer in range(L + 1)
    )
    return offsets, names


def _cr_completions(tree: RegularTree, s: int, t_c: float, T: np.ndarray) -> np.ndarray:
    """Completion times for a batch of trials; T has shape (trials, N) in
    layer-major worker order."""
    n, L = tree.n, tree.L
    need = n - s
    trials = T.shape[0]
    offsets, _ = _layout(n, L)
    ready = T[:, offsets[L - 1] : offsets[L]]  # leaves
    for layer in range(L, 0, -1):
        groups = ready.reshape(trials, n ** (layer - 1), n)
        finish = _port_finish_times(np.sort(groups, axis=-1), t_c)
        recv_done = finish[..., need - 1]
        if layer == 1:
            return recv_done[:, 0]
        own = T[:, offsets[layer - 2] : offsets[layer - 1]]
        ready = np.maximum(own, recv_done)
    raise AssertionError("unreachable")


def _batch_completions(
    scheme: str, topo, cfg: LatencyConfig, resilience: int, trials: Sequence[int]
) -> np.ndarray:
    """Completion times of consecutive trials, drawn as one block."""
    tree, quorum_s, coded_s = scheme_tree(scheme, topo, resilience)
    T = _draw_block(cfg, _loads(tree, coded_s, cfg), trials)
    if scheme == "rar":
        return T.max(axis=1) + _ring_time(tree.n, cfg.t_c)
    return _cr_completions(tree, quorum_s, cfg.t_c, T)


def _replay_ports(
    tree: RegularTree, need: int, t_c: float, times: list[float], events: list[SimEvent]
) -> float:
    """Event replay of every FCFS port, deepest layer first, over layer-major
    worker indices; logs send/recv pairs and returns the time the master's
    `need`-th message finishes."""
    n, L = tree.n, tree.L
    offsets, names = _layout(n, L)
    ready = times[offsets[L - 1] :]  # leaves
    for layer in range(L, 0, -1):
        kids = names[layer]
        recv_done = []
        for g, parent in enumerate(names[layer - 1]):
            port_free = 0.0
            # stable sort: ties are served in child-index order; the port
            # closes after the quorum, so later messages are never sent
            for c in sorted(range(g * n, g * n + n), key=ready.__getitem__)[:need]:
                start = max(port_free, ready[c])
                port_free = start + t_c
                events.append(SimEvent(kids[c], "send", start, port_free))
                events.append(SimEvent(parent, "recv", start, port_free))
            recv_done.append(port_free)
        if layer == 1:
            return recv_done[0]
        own = times[offsets[layer - 2] : offsets[layer - 1]]
        ready = [max(o, r) for o, r in zip(own, recv_done)]
    raise AssertionError("unreachable")


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
    trials are independent.
    """
    tree, quorum_s, coded_s = scheme_tree(scheme, topo, resilience)
    times = _draw_times(cfg, _loads(tree, coded_s, cfg), trial).tolist()
    _, names = _layout(tree.n, tree.L)
    workers = (name for layer in names[1:] for name in layer)
    events = [SimEvent(name, "compute", 0.0, t) for name, t in zip(workers, times)]
    if scheme == "rar":
        barrier = max(times)
        completion = barrier + _ring_time(tree.n, cfg.t_c)
        events.append(SimEvent("ring", "allreduce", barrier, completion))
    else:
        completion = _replay_ports(tree, tree.n - quorum_s, cfg.t_c, times, events)
    return SimOutcome(completion, tuple(events))


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
    chunk: int = 256,
) -> tuple[float, float]:
    """Monte Carlo mean completion time and normal-approximation 95% half-width
    over `trials` independent rounds, trials 0..trials-1 of the seed's
    stream.  Each `chunk` of trials is one block draw; the result does not
    depend on `chunk`."""
    if trials < 1:
        raise ValueError("need at least one trial")
    samples = np.concatenate(
        [
            _batch_completions(scheme, topo, cfg, resilience, range(lo, min(lo + chunk, trials)))
            for lo in range(0, trials, chunk)
        ]
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
