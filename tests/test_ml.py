import tracemalloc
from dataclasses import replace

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
from codedreduce.transport import OracleSpec


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


def test_oracle_spec_refuses_an_unknown_kind():
    """A misspelt kind fails where the spec is written, before any node
    process would build the oracle."""
    with pytest.raises(ValueError, match="unknown oracle kind 'lineer'"):
        OracleSpec(kind="lineer", d=15, p=3)
    with pytest.raises(ValueError, match="unknown loss 'hinge'"):
        make_oracle("hinge", generate_synthetic(4, 2, seed=0)[0])


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
    cfg = GDConfig(scheme="umw", iterations=40, step_size=1.0 / lam_max, topo=12)
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
        "cr": gd_run(
            dataset, GDConfig(scheme="cr", topo=build_tree(3, 2), resilience=1, **kwargs), theta_star
        ),
        "gc": gd_run(dataset, GDConfig(scheme="gc", topo=12, resilience=3, **kwargs), theta_star),
        "umw": gd_run(dataset, GDConfig(scheme="umw", topo=12, **kwargs), theta_star),
        "rar": gd_run(dataset, GDConfig(scheme="rar", topo=12, **kwargs), theta_star),
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
    full = gd_run(dataset, GDConfig(scheme="umw", topo=12, **kwargs), theta_star)
    partial = gd_run(dataset, GDConfig(scheme="sgd", topo=12, resilience=3, **kwargs), theta_star)
    assert partial[-1].ner > full[-1].ner


def test_decaying_schedule_and_regularization():
    dataset, theta_star = generate_synthetic(60, 4, seed=6)
    cfg = GDConfig(scheme="umw", iterations=10, c1=0.5, c2=100.0, lam=0.1, topo=12)
    trace = gd_run(dataset, cfg, theta_star)
    assert len(trace) == 10
    assert cfg.step(1) == pytest.approx(0.5 / 101.0)
    assert np.all(np.isfinite(trace[-1].theta))


def test_simulated_clock_accumulates():
    dataset, theta_star = generate_synthetic(60, 4, seed=6)
    lat = LatencyConfig(a=0.05, mu=10.0, t_c=0.5, d=60.0, seed=1)
    cfg = GDConfig(
        scheme="cr", iterations=5, step_size=1e-3, topo=build_tree(3, 2), resilience=1, seed=4,
        latency=lat,
    )
    trace = gd_run(dataset, cfg, theta_star)
    times = [row.sim_time for row in trace]
    assert times[0] > 0
    assert all(b > a for a, b in zip(times, times[1:]))


def test_trace_csv_round_trip(tmp_path):
    dataset, theta_star = generate_synthetic(24, 3, seed=8)
    cfg = GDConfig(scheme="umw", iterations=4, step_size=1e-3, topo=12)
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
    with pytest.raises(ValueError, match="need d, p >= 1, got d=0, p=3"):
        generate_synthetic(0, 3, seed=0)


@pytest.mark.parametrize(
    "kwargs, problem",
    [
        pytest.param(dict(scheme="ps", topo=12), "unknown scheme 'ps'", id="unknown-scheme"),
        pytest.param(dict(scheme="cr", topo=12, resilience=1), "needs a RegularTree, got 12",
                     id="cr-topo-12"),
        pytest.param(dict(scheme="cr", topo=build_tree(3, 2), resilience=3),
                     "need 0 <= s < n, got n=3, s=3", id="cr-s-3"),
        pytest.param(dict(scheme="cr", topo=build_tree(3, 2), resilience=-1),
                     "need 0 <= s < n, got n=3, s=-1", id="cr-s--1"),
        pytest.param(dict(scheme="gc", topo=12, resilience=12),
                     "need 0 <= S < N, got N=12, S=12", id="gc-S-12"),
        pytest.param(dict(scheme="sgd", topo=12, resilience=-1),
                     "need 0 <= S < N, got N=12, S=-1", id="sgd-S--1"),
    ],
)
def test_gd_config_rejects_a_scheme_it_cannot_run(kwargs, problem):
    """A scheme, topo and resilience that `scheme_tree` refuses are refused
    when the config is built, in `scheme_tree`'s words."""
    with pytest.raises(ValueError) as built:
        GDConfig(iterations=1, step_size=1e-3, **kwargs)
    with pytest.raises(ValueError) as direct:
        scheme_tree(kwargs["scheme"], kwargs["topo"], kwargs.get("resilience", 0))
    assert str(built.value) == str(direct.value)
    assert problem in str(built.value)


@pytest.mark.parametrize(
    "kwargs, problem",
    [
        (dict(loss="hinge"), "loss"),
        (dict(step_size=None), "set step_size or the"),
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
        GDConfig(**{**dict(scheme="umw", topo=12, iterations=1, step_size=1e-3), **kwargs})


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
    topo, resilience = config.topo, config.resilience
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
        topo = dict(topo=build_tree(n, L), resilience=s)
        d = granularity(n, L, s)
    else:
        N = draw(st.integers(1, 8))
        topo = dict(topo=N, resilience=draw(st.integers(0, N - 1)))
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
    ("cr", dict(topo=build_tree(3, 2), resilience=1), 150),  # d0 = 15 blocks of k = 10 points
    ("gc", dict(topo=4, resilience=1), 40),  # d0 = 4 blocks of k = 10 points
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


@pytest.mark.parametrize("scheme, topo, d", [
    ("cr", dict(topo=build_tree(3, 2), resilience=1), 150),
    ("sgd", dict(topo=6, resilience=2), 60),
])
@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_gd_run_past_one_coefficient_pass(scheme, topo, d, loss):
    """More iterations than one chunk of straggler draws and weights: theta
    within 1e-12 relative of the per-slice round at every iteration, the
    simulated clock to the bit."""
    dataset, _ = generate_synthetic(d, 3, seed=4)
    if loss == "logistic":
        pts = dataset.points.copy()
        pts[:, -1] = pts[:, -1] > 0
        dataset = Dataset(points=pts)
    lam_max = float(np.linalg.eigvalsh(dataset.features.T @ dataset.features).max())
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=float(d), seed=3)
    config = GDConfig(scheme=scheme, iterations=engine._PASS_CHUNK + 6, step_size=1.0 / lam_max,
                      lam=0.01, loss=loss, seed=3, latency=lat, **topo)
    trace = gd_run(dataset, config)
    for row, (theta, clock) in zip(trace, _reference_gd(dataset, config), strict=True):
        assert np.max(np.abs(row.theta - theta)) <= 1e-12 * np.max(np.abs(theta))
        assert row.sim_time == clock


@pytest.mark.parametrize("scheme, topo", [
    ("cr", dict(topo=build_tree(3, 2), resilience=1)),
    ("gc", dict(topo=12, resilience=3)),
    ("rar", dict(topo=12, resilience=3)),
    ("sgd", dict(topo=12, resilience=3)),
])
def test_gd_clock_drawn_per_chunk_is_the_whole_block_sum(scheme, topo):
    """The clock drawn one chunk of trials at a time, over three chunks and
    a part, equals one cumsum over the block of all T trials, to the bit."""
    T = 3 * engine._PASS_CHUNK + 5
    dataset, _ = generate_synthetic(60, 3, seed=4)
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=60.0, seed=5)
    config = GDConfig(scheme=scheme, iterations=T, step_size=1e-3, seed=5, latency=lat, **topo)
    whole = np.cumsum(
        _batch_completions(scheme, config.topo, lat, config.resilience, range(1, T + 1))
    )
    assert [row.sim_time for row in gd_run(dataset, config)] == whole.tolist()


def test_gd_clock_memory_does_not_grow_with_the_iterations():
    """640 iterations on the 1,364-worker (4,5) tree: the traced peak stays
    under 8 MiB (20.2 MiB with all 640 trials drawn as one block)."""
    d = granularity(4, 5, 1)
    dataset, _ = generate_synthetic(d, 3, seed=1)
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=float(d), seed=0)
    config = GDConfig(
        scheme="cr", iterations=640, step_size=1e-6, topo=build_tree(4, 5), resilience=1,
        latency=lat,
    )
    tracemalloc.start()
    try:
        trace = gd_run(dataset, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 640 and trace[-1].sim_time > trace[0].sim_time > 0
    assert peak < 8 * 2**20


@pytest.mark.parametrize("scheme, topo", [
    ("cr", dict(topo=build_tree(4, 3), resilience=2)),
    ("gc", dict(topo=8, resilience=3)),
    ("sgd", dict(topo=8, resilience=5)),
    ("umw", dict(topo=8)),
])
def test_each_iteration_draws_one_uniform_block(monkeypatch, scheme, topo):
    """Every parent loses exactly its quorum_s children each iteration, and
    the iterations consume T (num_parents, n) uniform blocks of the seed's
    first child stream, none when nothing straggles."""
    rows = []
    real_weights = engine.worker_weights
    monkeypatch.setattr(
        engine, "worker_weights",
        lambda tree, B, straggling, s: rows.extend((row.copy(), s) for row in straggling)
        or real_weights(tree, B, straggling, s),
    )
    config = GDConfig(scheme=scheme, iterations=5, step_size=1e-3, seed=9, **topo)
    tree, quorum_s, coded_s = scheme_tree(scheme, config.topo, config.resilience)
    dataset, _ = generate_synthetic(granularity(tree.n, tree.L, coded_s), 2, seed=1)
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
    ("sgd", dict(topo=20, resilience=5)),
    ("cr", dict(topo=build_tree(4, 2), resilience=1)),
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
        lambda tree, B, straggling, s: rows.extend(row.copy() for row in straggling)
        or real_weights(tree, B, straggling, s),
    )
    seed, T, d = 0, 6, 60  # a multiple of both granularities, 20 and 12
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=float(d), seed=seed)
    config = GDConfig(scheme=scheme, iterations=T, step_size=1e-3, seed=seed, latency=lat, **topo)
    tree, quorum_s, coded_s = scheme_tree(scheme, config.topo, config.resilience)
    gd_run(generate_synthetic(d, 2, seed=1)[0], config)
    clock = _draw_block(lat, _loads(tree, coded_s, lat), range(T))
    for straggling, times in zip(rows, clock, strict=True):
        fastest = np.zeros_like(straggling)
        order = np.argsort(times.reshape(straggling.shape), axis=1)
        np.put_along_axis(fastest, order[:, :quorum_s], True, axis=1)
        assert not np.array_equal(straggling, fastest)


@st.composite
def _uniform_rows(draw):
    """A (chunk, parents, n) block of uniforms, n <= 20, and 1 <= quorum_s < n."""
    n = draw(st.integers(2, 20))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)), n)
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape)
    return u, draw(st.integers(1, n - 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_uniform_rows())
def test_stragglers_of_distinct_uniforms_are_argpartitions_set(case):
    u, quorum_s = case
    assert np.all(np.diff(np.sort(u, axis=-1), axis=-1) > 0)  # distinct in every row
    expected = np.zeros(u.shape, dtype=bool)
    lowest = np.argpartition(u, quorum_s - 1, axis=-1)[..., :quorum_s]
    np.put_along_axis(expected, lowest, True, axis=-1)
    np.testing.assert_array_equal(ml._lowest(u, quorum_s), expected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_uniform_rows(), data=st.data())
def test_a_tie_at_the_threshold_marks_at_most_quorum_s(case, data):
    """Every row's ranks quorum_s - below through quorum_s + above take the
    value of its (quorum_s+1)-th lowest: only the quorum_s - below entries
    under the tie are marked, each lower than every unmarked entry."""
    u, quorum_s = case
    n = u.shape[-1]
    below = data.draw(st.integers(1, quorum_s))
    above = data.draw(st.integers(0, n - 1 - quorum_s))
    order = np.argsort(u, axis=-1)
    threshold = np.take_along_axis(u, order[..., quorum_s : quorum_s + 1], axis=-1)
    tied = order[..., quorum_s - below : quorum_s + above + 1]
    np.put_along_axis(u, tied, threshold, axis=-1)
    marked = ml._lowest(u, quorum_s)
    assert np.all(marked.sum(axis=-1) == quorum_s - below)
    highest_marked = np.where(marked, u, -np.inf).max(axis=-1)
    assert np.all(highest_marked < np.where(marked, np.inf, u).min(axis=-1))


@pytest.mark.parametrize("scheme, topo, d", [
    ("cr", dict(topo=build_tree(3, 2), resilience=1), 150),  # d0 = 15 blocks of k = 10 points
    ("gc", dict(topo=4, resilience=1), 40),  # d0 = 4 blocks of k = 10 points
])
def test_a_runs_first_iterations_do_not_depend_on_the_chunk_size(scheme, topo, d):
    """A T = 10 run, one chunk of 10 Gram rounds, against the first 10 rows
    of a run past one chunk of engine._PASS_CHUNK rounds: theta within
    1e-12 relative, the simulated clock to the bit."""
    dataset, _ = generate_synthetic(d, 3, seed=6)
    lam_max = float(np.linalg.eigvalsh(dataset.features.T @ dataset.features).max())
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=float(d), seed=2)
    config = GDConfig(scheme=scheme, iterations=10, step_size=1.0 / lam_max, lam=0.01,
                      seed=2, latency=lat, **topo)
    short = gd_run(dataset, config)
    assert list(dataset._gram) == [10]  # the Gram round, p = 3 < k
    long = gd_run(dataset, replace(config, iterations=engine._PASS_CHUNK + 6))
    for row, ref in zip(short, long[:10], strict=True):
        assert row.iteration == ref.iteration
        assert np.max(np.abs(row.theta - ref.theta)) <= 1e-12 * np.max(np.abs(ref.theta))
        assert row.sim_time == ref.sim_time


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
    topologies = {"cr": dict(topo=build_tree(3, 2), resilience=1),
                  "gc": dict(topo=12, resilience=3), "umw": dict(topo=12),
                  "sgd": dict(topo=12, resilience=3), "rar": dict(topo=12)}
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
            GDConfig(scheme=scheme, iterations=5, step_size=1e-2, loss=loss, topo=12,
                     resilience=3, seed=2, latency=lat),
            theta_star,
        )
        for scheme in ("umw", "rar")
    }
    ring = np.cumsum(_batch_completions("rar", 12, lat, 3, range(1, 6)))
    for rar, umw, clock in zip(runs["rar"], runs["umw"], ring, strict=True):
        assert np.array_equal(rar.theta, umw.theta)
        assert np.array_equal([rar.rer, rar.ner], [umw.rer, umw.ner], equal_nan=True)
        assert rar.sim_time == clock != umw.sim_time


@pytest.mark.parametrize("given", ["writable", "read-only view"])
def test_dataset_points_are_read_only_and_its_own(given):
    """A writable array, or a read-only view of one, is copied: no caller
    can write to the points."""
    points = np.arange(12.0).reshape(4, 3)
    if given == "read-only view":
        points = points.view()
        points.setflags(write=False)
    dataset = Dataset(points=points)
    assert not np.shares_memory(dataset.points, points)
    for view in (dataset.points, dataset.features, dataset.labels):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0


def test_generated_points_are_not_copied(monkeypatch):
    stacked = []
    real = np.column_stack
    monkeypatch.setattr(
        np, "column_stack", lambda arrays: stacked.append(real(arrays)) or stacked[-1]
    )
    dataset, _ = generate_synthetic(8, 2, seed=0)
    assert dataset.points is stacked[0]


class _CountingTable(dict):
    """A Gram table dict that records every block size stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, k, table):
        self.stored.append(k)
        super().__setitem__(k, table)


def _five_schemes(**kwargs):
    """CR on the (3,2) tree, s = 1, then the flat schemes at (12, 3)."""
    return [GDConfig(scheme="cr", topo=build_tree(3, 2), resilience=1, **kwargs)] + [
        GDConfig(scheme=scheme, topo=12, resilience=3, **kwargs)
        for scheme in ("gc", "umw", "rar", "sgd")
    ]


def test_gram_is_built_once_per_block_size():
    """CR's blocks and the flat schemes' differ in size: two tables, each
    built by the first run that needs it, over two passes of all five."""
    dataset, theta_star = generate_synthetic(60, 2, seed=4)
    object.__setattr__(dataset, "_gram", _CountingTable())
    configs = _five_schemes(iterations=3, step_size=1e-2, seed=1)
    for _ in range(2):
        for config in configs:
            gd_run(dataset, config, theta_star)
    assert len(dataset._gram.stored) == len(set(dataset._gram.stored)) == 2
    for k, table in dataset._gram.items():
        assert table.shape == (dataset.d // k, (dataset.p + 1) ** 2)
        assert not table.flags.writeable


def test_a_write_to_the_given_array_changes_no_run():
    """After a run has built the flat schemes' Gram table, the caller writes
    to the array it passed in: every later run, for CR's and the flat block
    sizes under both losses, gives the trace of a fresh dataset of the
    points as they were."""
    points = generate_synthetic(60, 2, seed=4)[0].points.copy()
    fresh = Dataset(points=points.copy())
    dataset = Dataset(points=points)
    configs = _five_schemes(iterations=3, step_size=1e-2, seed=1)
    gd_run(dataset, configs[1])
    points *= 2.0
    for loss in ("linear", "logistic"):
        for config in (replace(config, loss=loss) for config in configs):
            for a, b in zip(gd_run(dataset, config), gd_run(fresh, config), strict=True):
                assert a.theta.tobytes() == b.theta.tobytes()
                assert np.array_equal(
                    [a.rer, a.ner, a.sim_time], [b.rer, b.ner, b.sim_time], equal_nan=True
                )


@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_warm_runs_match_cold_runs_bit_for_bit(loss):
    """A run on a dataset whose Gram tables earlier runs built gives the
    trace of a run on a fresh dataset."""
    dataset, theta_star = generate_synthetic(60, 2, seed=8)
    if loss == "logistic":
        pts = dataset.points.copy()
        pts[:, -1] = pts[:, -1] > 0
        dataset = Dataset(points=pts)
    lat = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=60.0, seed=2)
    configs = _five_schemes(iterations=4, step_size=1e-2, loss=loss, seed=2, latency=lat)
    for config in configs:
        gd_run(dataset, config, theta_star)
    for config in configs:
        warm = gd_run(dataset, config, theta_star)
        cold = gd_run(Dataset(points=dataset.points.copy()), config, theta_star)
        for a, b in zip(warm, cold, strict=True):
            assert a.theta.tobytes() == b.theta.tobytes()
            assert np.array_equal(
                [a.rer, a.ner, a.sim_time], [b.rer, b.ner, b.sim_time], equal_nan=True
            )
