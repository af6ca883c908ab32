import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedreduce import engine, ml
from codedreduce.allocation import WeightedSlice, cr_allocate, granularity
from codedreduce.codes import build_encoding
from codedreduce.latency import LatencyConfig, _batch_completions, _draw_block, _loads, scheme_tree
from codedreduce.ml import (
    Dataset,
    GDConfig,
    gd_run,
    generate_synthetic,
    linear_grad,
    load_dataset_csv,
    logistic_grad,
    make_oracle,
    trace_to_csv,
)
from codedreduce.topology import StragglerPattern, build_tree


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


@pytest.mark.parametrize(
    "kwargs, problem",
    [
        (dict(loss="hinge"), "loss"),
        # NaN passes every ordered comparison, so each bound must say finite
        (dict(step_size=float("nan")), "step size"),
        (dict(step_size=None, c1=float("nan"), c2=1.0), "c1"),
        (dict(lam=float("inf")), "lam"),
        # the schedule c1/(t + c2) must stay finite and positive for t >= 1
        pytest.param(dict(step_size=None, c1=1.0, c2=-1.0), "c2=-1.0", id="c2=-1.0"),
        pytest.param(dict(step_size=None, c1=-1.0, c2=1.0), "c1=-1.0", id="c1=-1.0"),
    ],
)
def test_gd_config_rejects_bad_gd_settings(kwargs, problem):
    with pytest.raises(ValueError, match=problem):
        GDConfig(**{**dict(scheme="umw", N=12, iterations=1, step_size=1e-3), **kwargs})


def _draw_tree_pattern(tree, s, rng):
    """s stragglers under every parent: one uniform per child of each
    parent, in layer order, and a parent's s lowest straggle; nothing when
    s = 0."""
    if not s:
        return StragglerPattern({})
    mapping = {}
    for parent, row in zip(tree.parents(), rng.random((tree.num_parents, tree.n))):
        kids = tree.children(parent)
        mapping[parent] = frozenset(kids[int(j)] for j in np.argsort(row)[:s])
    return StragglerPattern(mapping)


def _reference_gd(dataset, config):
    """gd_run as a loop of cr_execute rounds with the per-slice oracle, under
    the same straggler draws, and its clock summed trial by trial: a list
    of (theta, sim_time) per iteration."""
    if config.scheme == "cr":
        topo, resilience = build_tree(config.n, config.L), config.s
    else:
        topo, resilience = config.N, config.S
    tree, quorum_s, coded_s = scheme_tree(config.scheme, topo, resilience)
    B = build_encoding(tree.n, coded_s, config.seed)
    assignment = cr_allocate(tree, coded_s, dataset.d, B=B)
    oracle = make_oracle(config.loss, dataset)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    theta, clock, out = np.zeros(dataset.p), 0.0, []
    for t in range(1, config.iterations + 1):
        pattern = _draw_tree_pattern(tree, quorum_s, rng)
        g = engine.cr_execute(tree, assignment, B, pattern, oracle, theta, quorum_s)
        theta = theta - config.step(t) * (g + config.lam * theta)
        clock += _batch_completions(config.scheme, topo, config.latency, resilience, [t])[0]
        out.append((theta, clock))
    return out


@st.composite
def _gd_cases(draw):
    scheme = draw(st.sampled_from(["cr", "gc", "umw", "rar", "sgd"]))
    if scheme == "cr":
        n = draw(st.integers(1, 4))
        L = draw(st.integers(1, 3))
        s = draw(st.integers(0, n - 1))
        topo = dict(n=n, L=L, s=s)
        d = granularity(n, L, s)
    else:
        N = draw(st.integers(1, 8))
        topo = dict(N=N, S=draw(st.integers(0, N - 1)))
        d = N * draw(st.integers(1, 3))
    d *= -(-4 // d)  # at least 4 points
    return scheme, topo, d, draw(st.sampled_from(["linear", "logistic"])), draw(st.integers(0, 999))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_gd_cases())
def test_gd_run_matches_the_per_slice_round(case):
    """The point-weight round against a loop of cr_execute rounds over the
    per-slice oracle: theta within 1e-12 relative at every iteration, the
    simulated clock to the bit."""
    scheme, topo, d, loss, seed = case
    dataset, _ = generate_synthetic(d, 3, seed=seed)
    if loss == "logistic":
        pts = dataset.points.copy()
        pts[:, -1] = pts[:, -1] > 0
        dataset = Dataset(points=pts)
    lam_max = float(np.linalg.eigvalsh(dataset.features.T @ dataset.features).max())
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=float(dataset.d), seed=seed)
    config = GDConfig(
        scheme=scheme, iterations=6, step_size=1.0 / lam_max, lam=0.01, loss=loss,
        seed=seed, latency=lat, **topo,
    )
    trace = gd_run(dataset, config)
    reference = _reference_gd(dataset, config)
    for row, (theta, clock) in zip(trace, reference, strict=True):
        assert np.max(np.abs(row.theta - theta)) <= 1e-12 * np.max(np.abs(theta))
        assert row.sim_time == clock


@pytest.mark.parametrize("scheme, topo, d", [
    ("cr", dict(n=3, L=2, s=1), 150),  # d0 = 15 blocks of k = 10 points
    ("gc", dict(N=4, S=1), 40),  # d0 = 4 blocks of k = 10 points
])
@pytest.mark.parametrize("p, gram", [(3, True), (12, False)])
def test_both_linear_rounds_match_the_per_slice_round(monkeypatch, scheme, topo, d, p, gram):
    """The linear round on per-block Gram matrices (p < k) and on the data
    (p >= k), each against a loop of cr_execute rounds: theta within 1e-12
    relative at every iteration, the simulated clock to the bit.  Only the
    data round evaluates residuals."""
    residuals = []
    real = ml._RESIDUALS["linear"]
    monkeypatch.setitem(
        ml._RESIDUALS, "linear", lambda *args: residuals.append(1) or real(*args)
    )
    dataset, _ = generate_synthetic(d, p, seed=p)
    lam_max = float(np.linalg.eigvalsh(dataset.features.T @ dataset.features).max())
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=float(d), seed=5)
    config = GDConfig(scheme=scheme, iterations=6, step_size=1.0 / lam_max, lam=0.01,
                      seed=5, latency=lat, **topo)
    trace = gd_run(dataset, config)
    assert len(residuals) == (0 if gram else config.iterations)
    for row, (theta, clock) in zip(trace, _reference_gd(dataset, config), strict=True):
        assert np.max(np.abs(row.theta - theta)) <= 1e-12 * np.max(np.abs(theta))
        assert row.sim_time == clock


@pytest.mark.parametrize("scheme, topo", [
    ("cr", dict(n=4, L=3, s=2)),
    ("gc", dict(N=8, S=3)),
    ("sgd", dict(N=8, S=5)),
    ("umw", dict(N=8)),
])
def test_each_iteration_draws_one_uniform_block(monkeypatch, scheme, topo):
    """Every parent loses exactly its quorum_s children each iteration, and
    the iterations consume T (num_parents, n) uniform blocks of the seed's
    first child stream, none when nothing straggles."""
    rows = []
    real_weights = engine.worker_weights
    monkeypatch.setattr(
        engine, "worker_weights",
        lambda tree, B, straggling, s: rows.append((straggling.copy(), s))
        or real_weights(tree, B, straggling, s),
    )
    if scheme == "cr":
        topology, resilience = build_tree(topo["n"], topo["L"]), topo["s"]
    else:
        topology, resilience = topo["N"], topo.get("S", 0)
    tree, quorum_s, coded_s = scheme_tree(scheme, topology, resilience)
    dataset, _ = generate_synthetic(granularity(tree.n, tree.L, coded_s), 2, seed=1)
    config = GDConfig(scheme=scheme, iterations=5, step_size=1e-3, seed=9, **topo)
    generators = []  # gd_run's straggler stream is the first generator it makes
    real_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: generators.append(real_rng(seed)) or generators[-1]
    )
    gd_run(dataset, config)
    assert len(rows) == config.iterations
    for straggling, s in rows:
        assert s == quorum_s and straggling.shape == (tree.num_parents, tree.n)
        assert np.all(straggling.sum(axis=1) == quorum_s)
    expected = real_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    for _ in range(config.iterations if quorum_s else 0):
        expected.random((tree.num_parents, tree.n))
    assert generators[0].bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("scheme, topo", [
    ("sgd", dict(N=20, S=5)),
    ("cr", dict(n=4, L=2, s=1)),
])
def test_stragglers_are_not_the_clocks_fastest_workers(monkeypatch, scheme, topo):
    """The straggler draw and the clock share a seed but not their numbers:
    on every tree num_parents * n = N, so a draw from the clock's stream
    would make iteration t's stragglers each parent's fastest children of
    the clock's trial t - 1."""
    rows = []
    real_weights = engine.worker_weights
    monkeypatch.setattr(
        engine, "worker_weights",
        lambda tree, B, straggling, s: rows.append(straggling.copy())
        or real_weights(tree, B, straggling, s),
    )
    seed, T, d = 0, 6, 60  # a multiple of both granularities, 20 and 12
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=float(d), seed=seed)
    config = GDConfig(scheme=scheme, iterations=T, step_size=1e-3, seed=seed, latency=lat, **topo)
    topology = build_tree(topo["n"], topo["L"]) if scheme == "cr" else topo["N"]
    tree, quorum_s, coded_s = scheme_tree(scheme, topology, topo.get("s", topo.get("S")))
    gd_run(generate_synthetic(d, 2, seed=1)[0], config)
    clock = _draw_block(lat, _loads(tree, coded_s, lat), range(T))
    for straggling, times in zip(rows, clock, strict=True):
        fastest = np.zeros_like(straggling)
        order = np.argsort(times.reshape(straggling.shape), axis=1)
        np.put_along_axis(fastest, order[:, :quorum_s], True, axis=1)
        assert not np.array_equal(straggling, fastest)


@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_tree_schemes_make_no_per_slice_oracle_call(monkeypatch, loss):
    """Every scheme's round, RAR's included, is one reweighted full gradient
    with no per-slice oracle call."""
    calls = []
    for name in ("linear_grad", "logistic_grad"):
        real = getattr(ml, name)
        monkeypatch.setattr(
            ml, name, lambda *args, real=real: calls.append(args) or real(*args)
        )
    dataset, _ = generate_synthetic(60, 4, seed=3)
    topologies = {"cr": dict(n=3, L=2, s=1), "gc": dict(N=12, S=3), "umw": dict(N=12),
                  "sgd": dict(N=12, S=3), "rar": dict(N=12)}
    for scheme, topo in topologies.items():
        calls.clear()
        gd_run(dataset, GDConfig(scheme=scheme, iterations=3, step_size=1e-3, loss=loss, **topo))
        assert calls == [], scheme


@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_rar_runs_umws_round_on_its_own_clock(loss):
    """A ring allreduce sums all N partial gradients, which is UMW's round:
    RAR's theta, rer and ner are UMW's bit for bit, and its clock is the
    ring's."""
    dataset, theta_star = generate_synthetic(60, 4, seed=3)
    if loss == "logistic":
        pts = dataset.points.copy()
        pts[:, -1] = pts[:, -1] > 0
        dataset = Dataset(points=pts)
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=60.0, seed=2)
    runs = {
        scheme: gd_run(
            dataset,
            GDConfig(scheme=scheme, iterations=5, step_size=1e-2, loss=loss, N=12, S=3,
                     seed=2, latency=lat),
            theta_star,
        )
        for scheme in ("umw", "rar")
    }
    ring = np.cumsum(_batch_completions("rar", 12, lat, 3, range(1, 6)))
    for rar, umw, clock in zip(runs["rar"], runs["umw"], ring, strict=True):
        assert np.array_equal(rar.theta, umw.theta)
        assert np.array_equal([rar.rer, rar.ner], [umw.rer, umw.ner], equal_nan=True)
        assert rar.sim_time == clock != umw.sim_time
