import numpy as np
import pytest

from codedreduce.allocation import WeightedSlice
from codedreduce.latency import LatencyConfig
from codedreduce.ml import (
    Dataset,
    GDConfig,
    gd_run,
    generate_synthetic,
    linear_grad,
    load_dataset_csv,
    logistic_grad,
    trace_to_csv,
)


def full_slice(dataset):
    return [WeightedSlice(0, dataset.d, 1.0)]


def test_zero_noise_labels_are_exact():
    dataset, theta_star = generate_synthetic(
        50, 1, seed=4, noise_scale=0.0, theta_star=np.array([2.0])
    )
    np.testing.assert_array_equal(dataset.labels, 2.0 * dataset.features[:, 0])
    np.testing.assert_array_equal(theta_star, [2.0])


def test_least_squares_recovers_true_model():
    dataset, theta_star = generate_synthetic(1000, 50, seed=1)
    X, y = dataset.features, dataset.labels
    theta_hat = np.linalg.solve(X.T @ X, X.T @ y)
    ner = np.sum((theta_hat - theta_star) ** 2) / np.sum(theta_star**2)
    assert ner < 0.1


def test_generation_is_reproducible():
    a, ta = generate_synthetic(64, 8, seed=9)
    b, tb = generate_synthetic(64, 8, seed=9)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(ta, tb)
    c, _ = generate_synthetic(64, 8, seed=10)
    assert not np.array_equal(a.points, c.points)


def test_gradient_vanishes_at_least_squares_optimum():
    dataset, _ = generate_synthetic(80, 5, seed=2)
    X, y = dataset.features, dataset.labels
    theta_hat = np.linalg.solve(X.T @ X, X.T @ y)
    g = linear_grad(theta_hat, full_slice(dataset), dataset)
    assert np.max(np.abs(g)) < 1e-8


def test_weight_homogeneity_and_additivity():
    dataset, _ = generate_synthetic(40, 3, seed=7)
    theta = np.array([0.5, -0.25, 1.0])
    plus = linear_grad(theta, [WeightedSlice(5, 15, 1.0)], dataset)
    minus = linear_grad(theta, [WeightedSlice(5, 15, -1.0)], dataset)
    np.testing.assert_allclose(minus, -plus, rtol=1e-12)
    split = linear_grad(
        theta, [WeightedSlice(5, 10, 1.0), WeightedSlice(10, 15, 1.0)], dataset
    )
    np.testing.assert_allclose(split, plus, rtol=1e-12)


@pytest.mark.parametrize("kind", ["linear", "logistic"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(14)
    d, p = 30, 6
    dataset, _ = generate_synthetic(d, p, seed=3)
    if kind == "logistic":
        pts = dataset.points.copy()
        pts[:, -1] = rng.integers(0, 2, size=d)
        dataset = Dataset(points=pts)

    def loss(theta, idx):
        x = dataset.features[idx]
        z = x @ theta
        if kind == "linear":
            return 0.5 * (z - dataset.labels[idx]) ** 2
        return np.log1p(np.exp(z)) - dataset.labels[idx] * z

    grad = linear_grad if kind == "linear" else logistic_grad
    h = 1e-6
    for _ in range(20):
        theta = rng.standard_normal(p)
        idx = int(rng.integers(d))
        analytic = grad(theta, [WeightedSlice(idx, idx + 1, 1.0)], dataset)
        numeric = np.empty(p)
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            numeric[j] = (loss(theta + e, idx) - loss(theta - e, idx)) / (2 * h)
        assert np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric))) < 1e-5


def test_csv_ingestion_round_trip(tmp_path):
    dataset, _ = generate_synthetic(12, 3, seed=5)
    path = tmp_path / "data.csv"
    with open(path, "w") as fh:
        for row in dataset.points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    loaded = load_dataset_csv(path)
    assert loaded.origin == "ingested"
    np.testing.assert_array_equal(loaded.points, dataset.points)


def test_gd_descends_monotonically_with_stable_step():
    dataset, theta_star = generate_synthetic(120, 6, seed=11)
    lam_max = float(np.linalg.eigvalsh(dataset.features.T @ dataset.features).max())
    cfg = GDConfig(scheme="umw", iterations=40, step_size=1.0 / lam_max, N=12)
    trace = gd_run(dataset, cfg, theta_star)
    ners = [row.ner for row in trace]
    assert all(b <= a + 1e-12 for a, b in zip(ners, ners[1:]))
    rers = [row.rer for row in trace[1:]]
    assert rers[-1] < rers[0]


def test_full_gradient_schemes_share_the_trajectory():
    dataset, theta_star = generate_synthetic(60, 5, seed=21)
    lam_max = float(np.linalg.eigvalsh(dataset.features.T @ dataset.features).max())
    kwargs = dict(iterations=50, step_size=1.0 / lam_max, seed=33)
    traces = {
        "cr": gd_run(dataset, GDConfig(scheme="cr", n=3, L=2, s=1, **kwargs), theta_star),
        "gc": gd_run(dataset, GDConfig(scheme="gc", N=12, S=3, **kwargs), theta_star),
        "umw": gd_run(dataset, GDConfig(scheme="umw", N=12, **kwargs), theta_star),
        "rar": gd_run(dataset, GDConfig(scheme="rar", N=12, **kwargs), theta_star),
    }
    reference = traces["umw"]
    for trace in traces.values():
        for row, ref in zip(trace, reference):
            scale = max(np.max(np.abs(ref.theta)), 1e-30)
            assert np.max(np.abs(row.theta - ref.theta)) / scale <= 1e-6


def test_partial_aggregation_converges_worse_on_clean_data():
    dataset, theta_star = generate_synthetic(60, 5, seed=2, noise_scale=0.0)
    lam_max = float(np.linalg.eigvalsh(dataset.features.T @ dataset.features).max())
    kwargs = dict(iterations=60, step_size=1.0 / lam_max, seed=3)
    full = gd_run(dataset, GDConfig(scheme="umw", N=12, **kwargs), theta_star)
    partial = gd_run(dataset, GDConfig(scheme="sgd", N=12, S=3, **kwargs), theta_star)
    assert partial[-1].ner > full[-1].ner


def test_decaying_schedule_and_regularization():
    dataset, theta_star = generate_synthetic(60, 4, seed=6)
    cfg = GDConfig(scheme="umw", iterations=10, c1=0.5, c2=100.0, lam=0.1, N=12)
    trace = gd_run(dataset, cfg, theta_star)
    assert len(trace) == 10
    assert cfg.step(1) == pytest.approx(0.5 / 101.0)
    assert np.all(np.isfinite(trace[-1].theta))


def test_simulated_clock_accumulates():
    dataset, theta_star = generate_synthetic(60, 4, seed=6)
    lat = LatencyConfig(a=0.05, mu=10.0, t_c=0.5, d=60.0, seed=1)
    cfg = GDConfig(
        scheme="cr", iterations=5, step_size=1e-3, n=3, L=2, s=1, seed=4, latency=lat
    )
    trace = gd_run(dataset, cfg, theta_star)
    times = [row.sim_time for row in trace]
    assert times[0] > 0
    assert all(b > a for a, b in zip(times, times[1:]))


def test_trace_csv_round_trip(tmp_path):
    dataset, theta_star = generate_synthetic(24, 3, seed=8)
    cfg = GDConfig(scheme="umw", iterations=4, step_size=1e-3, N=12)
    trace = gd_run(dataset, cfg, theta_star)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    import csv

    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["iter"]) for r in rows] == [1, 2, 3, 4]
    assert [float(r["ner"]) for r in rows] == [row.ner for row in trace]


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(points=np.ones(5))
    with pytest.raises(ValueError):
        Dataset(points=np.array([[1.0, np.inf]]))


@pytest.mark.parametrize(
    "kwargs, missing",
    [
        (dict(scheme="cr", L=2), "n"),
        (dict(scheme="cr", n=3), "L"),
        (dict(scheme="gc", S=3), "N"),
        (dict(scheme="umw"), "N"),
        (dict(scheme="ps", N=12), "unknown scheme"),
    ],
)
def test_gd_config_rejects_missing_topology(kwargs, missing):
    with pytest.raises(ValueError, match=missing):
        GDConfig(iterations=1, step_size=1e-3, **kwargs)
