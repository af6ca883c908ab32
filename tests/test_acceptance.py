"""Acceptance suite: one test per release criterion, each printing a PASS
line with its measured margin.  Tolerances are pinned here, not configurable."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from codedreduce import engine
from codedreduce.allocation import (
    WeightedSlice,
    cr_allocate,
    granularity,
    r_cr,
    r_gc,
    slice_count,
)
from codedreduce.codes import EncodingMatrix, build_encoding, decode_row, validate_code
from codedreduce.latency import (
    LatencyConfig,
    cr_bounds,
    expected_order_stat,
    harmonic,
    mc_expected_latency,
)
from codedreduce.ml import GDConfig, gd_run, generate_synthetic, linear_grad, logistic_grad, make_oracle
from codedreduce.topology import NodeId, build_tree, enumerate_patterns
from codedreduce.transport import FailurePlan, OracleSpec, TransportConfig, orchestrate

from conftest import identity_oracle_for


def reference_code() -> EncodingMatrix:
    return EncodingMatrix(
        n=3, s=1, entries=np.array([[0.5, 1.0, 0.0], [0.0, 1.0, -1.0], [0.5, 0.0, 1.0]])
    )


def test_criterion_01_exhaustive_recovery():
    start = time.perf_counter()
    tree = build_tree(3, 2)
    B = reference_code()
    d = 15
    assignment = cr_allocate(tree, 1, d, B=B)
    patterns = enumerate_patterns(tree, 1, cap=10_000)
    assert len(patterns) == 256

    dataset, _ = generate_synthetic(d, 6, seed=17)
    linear_oracle = make_oracle("linear", dataset)
    theta = np.random.default_rng(17).standard_normal(6)
    exact = linear_grad(theta, [WeightedSlice(0, d, 1.0)], dataset)
    exact_scale = np.max(np.abs(exact))
    ident = identity_oracle_for(d)

    worst = 0.0
    for pattern in patterns:
        got = engine.cr_execute(tree, assignment, B, pattern, ident, theta)
        worst = max(worst, np.max(np.abs(got - 1.0)))
        got = engine.cr_execute(tree, assignment, B, pattern, linear_oracle, theta)
        worst = max(worst, np.max(np.abs(got - exact)) / exact_scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1 PASS: 256/256 straggler patterns recover exactly "
        f"(worst rel err {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_02_reference_example_fidelity():
    B = reference_code()
    known = {(1, 2): [0.0, 1.0, 2.0], (0, 2): [1.0, 0.0, 1.0], (0, 1): [2.0, -1.0, 0.0]}
    for survivors, expected in known.items():
        row = decode_row(B, survivors)
        np.testing.assert_allclose(row.coefficients @ B.entries, np.ones(3), atol=1e-9)
        np.testing.assert_allclose(row.coefficients, expected, atol=1e-9)

    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 1, 15, B=B)
    for node in tree.workers():
        assert slice_count(assignment.local[node]) == 4
    assert assignment.local[NodeId(2, 1)] == (
        WeightedSlice(4, 5, 0.25),   # third fifth of the subtree share, times 1/2
        WeightedSlice(5, 6, 0.5),
        WeightedSlice(6, 8, 1.0),    # fourth fifth, times 1
    )
    print("ACCEPTANCE 2 PASS: decode rows and the 4-point placement match the worked example")


def test_criterion_03_load_formulas():
    assert r_cr(3, 2, 1) == Fraction(4, 15)
    for n in range(2, 21):
        for s in range(n):
            assert r_cr(n, 1, s) == r_gc(n, s)

    rng = np.random.default_rng(123)
    checked = 0
    while checked < 30:
        n = int(rng.integers(2, 8))
        L = int(rng.integers(1, 4))
        s = int(rng.integers(0, n))
        d = granularity(n, L, s) * int(rng.integers(1, 4))
        expected = r_cr(n, L, s) * d
        assert expected.denominator == 1
        assignment = cr_allocate(build_tree(n, L), s, d, seed=int(rng.integers(10_000)))
        assert all(
            slice_count(assignment.local[w]) == int(expected)
            for w in assignment.tree.workers()
        )
        checked += 1
    print("ACCEPTANCE 3 PASS: exact load fractions and equal measured loads (30 configs)")


def test_criterion_04_code_validity_sweep():
    start = time.perf_counter()
    survivor_sets = 0
    for n in range(4, 13):
        for s in range(1, min(4, n - 1) + 1):
            B = build_encoding(n, s, seed=n * 31 + s)
            for F in itertools.combinations(range(n), n - s):
                row = decode_row(B, F)
                resid = np.max(np.abs(row.coefficients @ B.entries - 1.0))
                assert resid <= 1e-6
                survivor_sets += 1
            assert validate_code(B)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 4 PASS: {survivor_sets} survivor sets decode within 1e-6 "
        f"across (n,s) grid ({elapsed:.1f}s)"
    )


def test_criterion_05_order_statistic_oracle():
    n, s = 10, 3
    cfg = LatencyConfig(a=0.5, mu=1.0, t_c=0.0, d=2.5, seed=2024)  # r*d = 1
    tree = build_tree(n, 1)
    load = r_cr(n, 1, s)
    assert float(load) * cfg.d == 1.0
    mean, _ = mc_expected_latency("cr", tree, cfg, s, trials=100_000)
    expected = expected_order_stat(cfg, n, s, load)
    assert expected == pytest.approx(0.5 + harmonic(10) - harmonic(3))
    assert expected == pytest.approx(1.595635, abs=1e-6)
    rel = abs(mean - expected) / expected
    assert rel <= 0.02
    print(f"ACCEPTANCE 5 PASS: order-statistic mean {mean:.6f} vs {expected:.6f} ({rel:.2%})")


def test_criterion_06_latency_envelope():
    start = time.perf_counter()
    n, L, s = 100, 2, 20  # alpha = 0.2
    cfg = LatencyConfig(a=10.0, mu=1.0, t_c=0.001, d=3000.0, seed=11)
    lower, upper = cr_bounds(cfg, n, L, s)
    mean, _ = mc_expected_latency("cr", build_tree(n, L), cfg, s, trials=10_000)
    elapsed = time.perf_counter() - start
    assert 0.9 * lower <= mean <= 1.1 * upper
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 6 PASS: mean {mean:.1f} inside [{0.9 * lower:.1f}, {1.1 * upper:.1f}] "
        f"({elapsed:.1f}s)"
    )


def test_criterion_07_scheme_ordering():
    cfg = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=8400.0, seed=7)
    tree = build_tree(12, 2)  # N = 156, alpha = 1/12
    cr_mean, cr_half = mc_expected_latency("cr", tree, cfg, 1, trials=10_000)
    gc_mean, gc_half = mc_expected_latency("gc", 156, cfg, 13, trials=10_000)
    umw_mean, umw_half = mc_expected_latency("umw", 156, cfg, 0, trials=10_000)
    assert cr_mean + cr_half < gc_mean - gc_half
    assert cr_mean + cr_half < umw_mean - umw_half
    print(
        f"ACCEPTANCE 7 PASS: CR {cr_mean:.1f} < GC {gc_mean:.1f} and "
        f"< UMW {umw_mean:.1f} at 95% confidence"
    )


def test_criterion_08_trajectory_equivalence():
    d, p = 300, 20
    dataset, theta_star = generate_synthetic(d, p, seed=1)
    gram_top = float(np.linalg.eigvalsh(dataset.features.T @ dataset.features).max())
    kwargs = dict(iterations=50, step_size=1.0 / gram_top, seed=42)
    traces = {
        "cr": gd_run(dataset, GDConfig(scheme="cr", n=3, L=2, s=1, **kwargs), theta_star),
        "gc": gd_run(dataset, GDConfig(scheme="gc", N=12, S=3, **kwargs), theta_star),
        "rar": gd_run(dataset, GDConfig(scheme="rar", N=12, **kwargs), theta_star),
        "umw": gd_run(dataset, GDConfig(scheme="umw", N=12, **kwargs), theta_star),
    }
    reference = traces["umw"]
    worst = 0.0
    for trace in traces.values():
        for row, ref in zip(trace, reference):
            scale = max(float(np.max(np.abs(ref.theta))), 1e-30)
            worst = max(worst, float(np.max(np.abs(row.theta - ref.theta))) / scale)
    assert worst <= 1e-6
    ners = [row.ner for row in reference]
    assert all(b <= a + 1e-12 for a, b in zip(ners, ners[1:]))
    print(
        f"ACCEPTANCE 8 PASS: four schemes share the 50-step trajectory "
        f"(worst rel diff {worst:.2e}), NER monotone to {ners[-1]:.4f}"
    )


@pytest.mark.transport
def test_criterion_09_transport_parity(tmp_path):
    start = time.perf_counter()
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    theta = np.array([0.5, -1.0, 2.0, 0.25])

    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=5.0)
    plan = FailurePlan(
        die_before_send=frozenset({NodeId(1, 1), NodeId(2, 5), NodeId(2, 8)})
    )
    report = orchestrate(cfg, tmp_path / "kill_one_per_parent", plan)
    assert report.ok, report.error
    B = build_encoding(3, 1, 0)
    assignment = cr_allocate(tree, 1, 60, B=B)
    dataset, _ = generate_synthetic(60, 4, 2)
    oracle = make_oracle("linear", dataset)
    from codedreduce.topology import StragglerPattern

    expected = engine.cr_execute(tree, assignment, B, StragglerPattern({}), oracle, theta)
    rel = float(np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)))
    assert rel <= 1e-9

    cfg2 = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=4.0)
    plan2 = FailurePlan(never_start=frozenset({NodeId(1, 1), NodeId(1, 2)}))
    report2 = orchestrate(cfg2, tmp_path / "overloaded_master", plan2)
    assert not report2.ok
    assert report2.timed_out_parents == ["0.1"]
    assert "0.1" in report2.error
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 9 PASS: 13-process round survives one kill per parent "
        f"(rel err {rel:.2e}) and names parent 0.1 on overload ({elapsed:.1f}s)"
    )


def test_criterion_10_gradient_oracle_correctness():
    rng = np.random.default_rng(99)
    d, p = 40, 7
    lin_data, _ = generate_synthetic(d, p, seed=5)
    log_points = lin_data.points.copy()
    log_points[:, -1] = rng.integers(0, 2, size=d)
    from codedreduce.ml import Dataset

    log_data = Dataset(points=log_points)

    def lin_loss(theta, idx):
        z = lin_data.features[idx] @ theta
        return 0.5 * (z - lin_data.labels[idx]) ** 2

    def log_loss(theta, idx):
        z = log_data.features[idx] @ theta
        return np.log1p(np.exp(z)) - log_data.labels[idx] * z

    h = 1e-6
    worst = 0.0
    for grad, loss, data in (
        (linear_grad, lin_loss, lin_data),
        (logistic_grad, log_loss, log_data),
    ):
        for _ in range(20):
            theta = rng.standard_normal(p)
            idx = int(rng.integers(d))
            analytic = grad(theta, [WeightedSlice(idx, idx + 1, 1.0)], data)
            numeric = np.empty(p)
            for j in range(p):
                e = np.zeros(p)
                e[j] = h
                numeric[j] = (loss(theta + e, idx) - loss(theta - e, idx)) / (2 * h)
            rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
            worst = max(worst, float(rel))
    assert worst < 1e-5
    print(f"ACCEPTANCE 10 PASS: finite-difference gradient agreement (worst rel {worst:.2e})")
