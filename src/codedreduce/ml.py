"""Regression oracles, synthetic data, and the gradient-descent driver.

Samples follow the convention that the label is the (p+1)-th coordinate of
each row.  Both losses have a per-point residual r(theta), X theta - y for
linear and sigmoid(X theta) - y for logistic loss, so the gradient over
points weighted by w is X'(w * r(theta)).  `gd_run` takes the round of
every scheme in that form: the engine's coefficient pass gives each
worker's weight, and `Assignment.block_weights` turns those into one weight
per granularity block of k points, which w repeats over the block.  For
linear loss with p < k the round reads per-block Gram matrices
[X_b y_b]'[X_b y_b], built once per run, instead of the data; otherwise it
is one pass over the data, whatever the tree.  RAR's ring sums all N
partial gradients, which is UMW's round, so it runs UMW's round on its own
clock.  The per-slice oracles `linear_grad` and `logistic_grad` serve the
transport, `engine.cr_execute` and `engine.rar_execute`: they take weighted
index slices, are additive over disjoint slices and homogeneous in the
weights.
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
from .latency import SCHEMES, LatencyConfig, _batch_completions, scheme_topology, scheme_tree
# Not called here since gd_run batches its clock, but perfbench's tracer wraps
# ml.simulate_iteration by name.
from .latency import simulate_iteration  # noqa: F401

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
    """d samples of p features plus a trailing label column."""

    points: np.ndarray = field(repr=False)
    origin: str = "synthetic"

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 2:
            raise ValueError(f"expected a (d, p+1) sample matrix, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("samples must be finite")
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
    return Dataset(points=points, origin="synthetic"), theta_star


def load_dataset_csv(path) -> Dataset:
    """Ingest samples from CSV: one row per sample, p feature columns then label."""
    with open(path) as fh:
        rows = [[float(tok) for tok in line] for line in csv.reader(fh) if line]
    return Dataset(points=np.array(rows), origin="ingested")


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
    """Driver settings: scheme and its straggler parameters, step schedule,
    iteration budget, regularization, optional timing model."""

    scheme: str
    iterations: int
    step_size: float | None = None
    c1: float | None = None  # schedule c1 / (t + c2), used when step_size is None
    c2: float | None = None
    lam: float = 0.0
    loss: str = "linear"
    n: int | None = None
    L: int | None = None
    s: int = 0
    N: int | None = None
    S: int = 0
    seed: int = 0
    latency: LatencyConfig | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        required = ("n", "L") if self.scheme == "cr" else ("N",)
        missing = [name for name in required if getattr(self, name) is None]
        if missing:
            raise ValueError(f"scheme {self.scheme!r} needs {' and '.join(missing)}")
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
    over per-block Gram matrices G_b = X_b'X_b and h_b = X_b'y_b.  Each
    iteration draws one uniform per child of every parent from the seed's
    first `SeedSequence` child, not from the clock's stream; the quorum_s
    lowest of a parent's n straggle.  When a timing model is configured,
    per-iteration completion times, RAR's by its ring, accumulate into the
    trace's simulated clock.
    """
    scheme = config.scheme
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    topo, resilience = scheme_topology(scheme, config)
    tree, quorum_s, coded_s = scheme_tree(scheme, topo, resilience)
    B = build_encoding(tree.n, coded_s, config.seed)
    assignment = cr_allocate(tree, coded_s, dataset.d, B=B)
    k, p = assignment.block_size, dataset.p
    if config.loss == "linear" and p < k:
        # [X_b y_b]'[X_b y_b] per block: a round reads d0 (p+1)^2 doubles,
        # not the (d, p) feature matrix twice
        blocks = dataset.points.reshape(-1, k, p + 1)
        gram = np.matmul(blocks.transpose(0, 2, 1), blocks)

        def gradient(w_b: np.ndarray, theta: np.ndarray) -> np.ndarray:
            M = np.tensordot(w_b, gram, 1)
            return M[:p, :p] @ theta - M[:p, p]

    else:
        X, y, residual = dataset.features, dataset.labels, _RESIDUALS[config.loss]

        def gradient(w_b: np.ndarray, theta: np.ndarray) -> np.ndarray:
            return X.T @ (np.repeat(w_b, k) * residual(X, y, theta))

    T = config.iterations
    clock = [0.0] * T
    if config.latency is not None:  # iteration t takes trial t's round time
        times = _batch_completions(scheme, topo, config.latency, resilience, range(1, T + 1))
        clock = np.cumsum(times).tolist()
    theta = np.zeros(p)
    trace: list[TraceRow] = []
    for t in range(1, T + 1):
        straggling = np.zeros((tree.num_parents, tree.n), dtype=bool)
        if quorum_s:  # each parent's quorum_s lowest uniforms straggle
            lowest = np.argpartition(rng.random(straggling.shape), quorum_s - 1, axis=1)
            np.put_along_axis(straggling, lowest[:, :quorum_s], True, axis=1)
        c = engine.worker_weights(tree, B, straggling, quorum_s)
        g = gradient(assignment.block_weights(c), theta)
        new_theta = theta - config.step(t) * (g + config.lam * theta)
        rer = _squared_ratio(new_theta - theta, theta)
        ner = (
            _squared_ratio(new_theta - theta_star, theta_star)
            if theta_star is not None
            else float("nan")
        )
        theta = new_theta
        trace.append(
            TraceRow(iteration=t, theta=theta.copy(), rer=rer, ner=ner, sim_time=clock[t - 1])
        )
    return trace


def trace_to_csv(trace: Sequence[TraceRow], path) -> None:
    """Trace dump: iter, wall_sim_time, rer, ner."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "wall_sim_time", "rer", "ner"])
        for row in trace:
            writer.writerow([row.iteration, repr(row.sim_time), repr(row.rer), repr(row.ner)])
