"""Regression oracles, synthetic data, and the gradient-descent driver.

Samples follow the convention that the label is the (p+1)-th coordinate of
each row.  Both losses have a per-point residual r(theta), X theta - y for
linear and sigmoid(X theta) - y for logistic loss, so the gradient over
points weighted by w is X'(w * r(theta)).  `gd_run` takes the round of
every scheme in that form: the engine's coefficient pass gives each
worker's weight, and `Assignment.block_weights` turns those into one weight
per granularity block of k points, which w repeats over the block.  The
straggler draws do not depend on theta, so both run once per chunk of
iterations, before its steps.  For linear loss with p < k the round reads
per-block Gram matrices [X_b y_b]'[X_b y_b], built once per dataset and
block size k and contracted in one matrix product per chunk, instead of
the data; otherwise it is one pass over the data, whatever the tree.
RAR's ring sums all N partial gradients, which is UMW's round, so it runs
UMW's round on its own clock.  The per-slice oracles `linear_grad` and
`logistic_grad` serve the transport, `engine.cr_execute` and
`engine.rar_execute`: they take weighted index slices, are additive over
disjoint slices and homogeneous in the weights.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import isfinite
from typing import Callable, Sequence

import numpy as np

from . import engine
from .allocation import WeightedSlice, cr_allocate
from .codes import build_encoding
from .latency import LatencyConfig, _batch_completions, scheme_tree
# Not called here since gd_run batches its clock, but perfbench's tracer wraps
# ml.simulate_iteration by name.
from .latency import simulate_iteration  # noqa: F401
from .topology import RegularTree

__all__ = [
    "Dataset",
    "GDConfig",
    "TraceRow",
    "generate_synthetic",
    "load_dataset_csv",
    "linear_grad",
    "logistic_grad",
    "make_oracle",
    "gd_run",
    "trace_to_csv",
]

FULL_GRADIENT_SCHEMES = ("cr", "gc", "umw", "rar")


@dataclass(frozen=True)
class Dataset:
    """d samples of p features plus a trailing label column.

    ``points`` is read-only and no caller can write to it, so the block Gram
    tables that `gd_run` keeps here cannot go stale: a given float array is
    kept only when it owns its data and is read-only, and copied otherwise.
    """

    points: np.ndarray = field(repr=False)
    origin: str = "synthetic"
    # Block Gram tables by block size k, filled by gd_run for the life of
    # this dataset; not part of equality or repr.
    _gram: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 2:
            raise ValueError(f"expected a (d, p+1) sample matrix, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("samples must be finite")
        if pts.flags.writeable or not pts.flags.owndata:
            pts = pts.copy()
            pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def d(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1] - 1

    @property
    def features(self) -> np.ndarray:
        return self.points[:, :-1]

    @property
    def labels(self) -> np.ndarray:
        return self.points[:, -1]


def generate_synthetic(
    d: int,
    p: int,
    seed: int,
    noise_scale: float = 1.0,
    theta_star: np.ndarray | None = None,
) -> tuple[Dataset, np.ndarray]:
    """Standard-normal features and true model, label = <x, theta*> + noise.

    `noise_scale=0` and an explicit `theta_star` are test hooks for exactly
    reproducible labels.
    """
    if d < 1 or p < 1:
        raise ValueError(f"need d, p >= 1, got d={d}, p={p}")
    rng = np.random.default_rng(seed)
    if theta_star is None:
        theta_star = rng.standard_normal(p)
    else:
        theta_star = np.asarray(theta_star, dtype=float)
    X = rng.standard_normal((d, p))
    z = rng.standard_normal(d) * noise_scale
    points = np.column_stack([X, X @ theta_star + z])
    points.setflags(write=False)  # so Dataset keeps it rather than a copy
    return Dataset(points=points, origin="synthetic"), theta_star


def load_dataset_csv(path) -> Dataset:
    """Ingest samples from CSV: one row per sample, p feature columns then label."""
    with open(path) as fh:
        rows = [[float(tok) for tok in line] for line in csv.reader(fh) if line]
    points = np.array(rows)
    points.setflags(write=False)  # so Dataset keeps it rather than a copy
    return Dataset(points=points, origin="ingested")


def _linear_residual(X: np.ndarray, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return X @ theta - y


def _logistic_residual(X: np.ndarray, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    z = X @ theta
    return 1.0 / (1.0 + np.exp(-z)) - y


# Per-point loss residuals r(theta): a loss's gradient over points with
# weights w is X'(w * r(theta)).
_RESIDUALS = {"linear": _linear_residual, "logistic": _logistic_residual}


def _slice_grad(
    residual: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    theta: np.ndarray,
    slices: Sequence[WeightedSlice],
    dataset: Dataset,
) -> np.ndarray:
    out = np.zeros(dataset.p)
    for s in slices:
        X = dataset.features[s.start : s.stop]
        out += s.weight * (X.T @ residual(X, dataset.labels[s.start : s.stop], theta))
    return out


def linear_grad(
    theta: np.ndarray, slices: Sequence[WeightedSlice], dataset: Dataset
) -> np.ndarray:
    """Squared-loss gradient, weighted per slice: sum_w w * X'(X theta - y)."""
    return _slice_grad(_linear_residual, theta, slices, dataset)


def logistic_grad(
    theta: np.ndarray, slices: Sequence[WeightedSlice], dataset: Dataset
) -> np.ndarray:
    """Logistic-loss gradient for 0/1 labels: sum_w w * X'(sigmoid(X theta) - y)."""
    return _slice_grad(_logistic_residual, theta, slices, dataset)


def make_oracle(loss: str, dataset: Dataset) -> engine.GradientOracle:
    if loss == "linear":
        return lambda theta, slices: linear_grad(theta, slices, dataset)
    if loss == "logistic":
        return lambda theta, slices: logistic_grad(theta, slices, dataset)
    raise ValueError(f"unknown loss {loss!r}")


@dataclass(frozen=True)
class GDConfig:
    """Driver settings: the scheme on the `(topo, resilience)` that
    `scheme_tree` takes (and refuses here), iteration budget, step
    schedule, regularization, optional timing model."""

    scheme: str
    iterations: int
    topo: RegularTree | int
    resilience: int = 0
    step_size: float | None = None
    c1: float | None = None  # schedule c1 / (t + c2), used when step_size is None
    c2: float | None = None
    lam: float = 0.0
    loss: str = "linear"
    seed: int = 0
    latency: LatencyConfig | None = None

    def __post_init__(self) -> None:
        scheme_tree(self.scheme, self.topo, self.resilience)
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.step_size is None and (self.c1 is None or self.c2 is None):
            raise ValueError("set step_size or the (c1, c2) schedule")
        if self.step_size is not None and not (isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step size must be finite and positive, got {self.step_size}")
        for name in ("c1", "c2", "lam"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.step_size is None and not (self.c1 > 0 and self.c2 > -1):
            # t + c2 > 0 for every t >= 1, so each step c1/(t + c2) is positive
            raise ValueError(f"schedule needs c1 > 0, c2 > -1; got c1={self.c1}, c2={self.c2}")
        if self.loss not in _RESIDUALS:
            raise ValueError(f"loss must be {' or '.join(_RESIDUALS)}, got {self.loss!r}")

    def step(self, t: int) -> float:
        if self.step_size is not None:
            return self.step_size
        return self.c1 / (t + self.c2)


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    theta: np.ndarray = field(repr=False)
    rer: float
    ner: float
    sim_time: float


def _squared_ratio(num: np.ndarray, den: np.ndarray) -> float:
    d = float(den @ den)
    if d == 0.0:
        return float("nan")
    return float(num @ num) / d


def _block_gram(dataset: Dataset, k: int) -> np.ndarray:
    """[X_b y_b]'[X_b y_b] for each block b of k points, one flattened
    (p+1)^2 row per block, built on the dataset's first call for k."""
    gram = dataset._gram.get(k)
    if gram is None:
        blocks = dataset.points.reshape(-1, k, dataset.p + 1)
        gram = np.matmul(blocks.transpose(0, 2, 1), blocks).reshape(len(blocks), -1)
        gram.setflags(write=False)
        dataset._gram[k] = gram
    return gram


def _lowest(u: np.ndarray, quorum_s: int) -> np.ndarray:
    """Marks each row's quorum_s lowest entries along the last axis, for
    0 <= quorum_s < the row length: those strictly below the row's
    (quorum_s+1)-th lowest.  On a row of distinct entries that is
    `np.argpartition`'s set; on a tie at the threshold it is fewer, never
    more than quorum_s."""
    return u < np.sort(u, axis=-1)[..., quorum_s : quorum_s + 1]


def gd_run(
    dataset: Dataset,
    config: GDConfig,
    theta_star: np.ndarray | None = None,
) -> list[TraceRow]:
    """Gradient descent where each iteration's gradient comes from the selected
    aggregation scheme under a freshly drawn straggler pattern.

    Full-gradient schemes give identical trajectories regardless of the
    pattern; the partial-aggregation scheme intentionally diverges.  Every
    scheme's round is one reweighted full gradient X'(w * r(theta)) on the
    tree `scheme_tree` gives it, its per-block weights read from the
    coefficient pass; RAR's is UMW's round.  For linear loss with fewer
    features than block points, the round is sum_b w_b (G_b theta - h_b)
    over per-block Gram matrices G_b = X_b'X_b and h_b = X_b'y_b, built on
    the dataset's first run with block size k and kept on it.  Each
    iteration draws one uniform per child of every parent from the seed's
    first `SeedSequence` child, not from the clock's stream; the quorum_s
    lowest of a parent's n straggle.  The weights do not depend on theta,
    so the loop runs by chunks of `engine._PASS_CHUNK` iterations: one
    (chunk, num_parents, n) draw, which consumes the words of one draw per
    iteration, one sort that picks its stragglers, one coefficient pass,
    one block-weight call and, for the Gram round, one (chunk, d0) @
    (d0, (p+1)^2) product, then the chunk's steps.  The product sums in
    BLAS's order, so theta matches a per-round contraction to rounding,
    not bit for bit.  When a timing model is configured, per-iteration
    completion times, RAR's by its ring, accumulate into the trace's
    simulated clock, drawn once per chunk.
    """
    scheme = config.scheme
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    topo, resilience = config.topo, config.resilience
    tree, quorum_s, coded_s = scheme_tree(scheme, topo, resilience)
    B = build_encoding(tree.n, coded_s, config.seed)
    assignment = cr_allocate(tree, coded_s, dataset.d, B=B)
    k, p = assignment.block_size, dataset.p
    if config.loss == "linear" and p < k:
        # a round reads d0 (p+1)^2 doubles, not the (d, p) feature matrix twice
        gram = _block_gram(dataset, k)

        def rounds(Wb: np.ndarray) -> np.ndarray:
            # a chunk's sum_b w_b A_b as one (chunk, d0) @ (d0, (p+1)^2) gemm,
            # which reads the Gram table once, not once per round
            return (Wb @ gram).reshape(-1, p + 1, p + 1)

        def gradient(M: np.ndarray, theta: np.ndarray) -> np.ndarray:
            return M[:p, :p] @ theta - M[:p, p]

    else:
        X, y, residual = dataset.features, dataset.labels, _RESIDUALS[config.loss]

        def rounds(Wb: np.ndarray) -> np.ndarray:
            return Wb

        def gradient(w_b: np.ndarray, theta: np.ndarray) -> np.ndarray:
            return X.T @ (np.repeat(w_b, k) * residual(X, y, theta))

    T = config.iterations
    theta = np.zeros(p)
    trace: list[TraceRow] = []
    chunk = engine._PASS_CHUNK  # iterations per straggler draw and coefficient pass
    carry = 0.0  # the simulated time at the end of the previous chunk
    for start in range(0, T, chunk):
        steps = range(start + 1, min(start + chunk, T) + 1)
        clock = [0.0] * len(steps)
        if config.latency is not None:  # iteration t takes trial t's round time
            times = _batch_completions(scheme, topo, config.latency, resilience, steps)
            # carry leads the sum, so the clock is bit-identical to one cumsum over all T
            clock = np.cumsum(np.concatenate(([carry], times)))[1:].tolist()
            carry = clock[-1]
        shape = (len(steps), tree.num_parents, tree.n)
        if quorum_s:  # each parent's quorum_s lowest uniforms straggle
            straggling = _lowest(rng.random(shape), quorum_s)
        else:
            straggling = np.zeros(shape, dtype=bool)
        c = engine.worker_weights(tree, B, straggling, quorum_s)
        for t, w, sim_time in zip(steps, rounds(assignment.block_weights(c)), clock):
            g = gradient(w, theta)
            new_theta = theta - config.step(t) * (g + config.lam * theta)
            rer = _squared_ratio(new_theta - theta, theta)
            ner = (
                _squared_ratio(new_theta - theta_star, theta_star)
                if theta_star is not None
                else float("nan")
            )
            theta = new_theta
            trace.append(
                TraceRow(iteration=t, theta=theta.copy(), rer=rer, ner=ner, sim_time=sim_time)
            )
    return trace


def trace_to_csv(trace: Sequence[TraceRow], path) -> None:
    """Trace dump: iter, wall_sim_time, rer, ner."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "wall_sim_time", "rer", "ner"])
        for row in trace:
            writer.writerow([row.iteration, repr(row.sim_time), repr(row.rer), repr(row.ner)])
