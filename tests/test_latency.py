import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedreduce.allocation import r_cr
from codedreduce.latency import (
    LatencyConfig,
    SimEvent,
    _batch_completions,
    _draw_block,
    _loads,
    cr_bounds,
    events_to_csv,
    expected_order_stat,
    harmonic,
    mc_expected_latency,
    scheme_tree,
    simulate_iteration,
)
from codedreduce import latency
from codedreduce.topology import MASTER, NodeId, RegularTree, build_tree


def test_config_validation():
    with pytest.raises(ValueError):
        LatencyConfig(a=-1, mu=1, t_c=0, d=1)
    with pytest.raises(ValueError):
        LatencyConfig(a=0, mu=0, t_c=0, d=1)
    with pytest.raises(ValueError):
        LatencyConfig(a=0, mu=1, t_c=-0.1, d=1)
    good = dict(a=0.1, mu=1.0, t_c=0.5, d=1.0)
    for name in good:
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                LatencyConfig(**{**good, name: bad})


def test_sample_mean_unit_exponential():
    cfg = LatencyConfig(a=0.0, mu=1.0, t_c=0.0, d=1.0, seed=0)
    draws = _draw_block(cfg, np.full(200_000, 1.0), [0])[0]
    assert np.mean(draws) == pytest.approx(1.0, rel=0.01)


def test_sample_support_includes_shift():
    cfg = LatencyConfig(a=2.0, mu=1.0, t_c=0.0, d=5.0, seed=1)
    draws = _draw_block(cfg, np.full(2_000, 5.0), [0])[0]
    assert min(draws) >= 10.0


def test_sample_mean_formula():
    cfg = LatencyConfig(a=0.5, mu=2.0, t_c=0.0, d=100.0, seed=2)
    draws = _draw_block(cfg, np.full(200_000, 100.0), [0])[0]
    assert np.mean(draws) == pytest.approx(100 * 0.5 + 100 / 2, rel=0.01)


def test_expected_order_stat_closed_forms():
    cfg = LatencyConfig(a=0.0, mu=1.0, t_c=0.0, d=1.0)
    assert expected_order_stat(cfg, 2, 1, 1) == pytest.approx(0.5)
    assert expected_order_stat(cfg, 10, 3, 1) == pytest.approx(
        harmonic(10) - harmonic(3)
    )
    assert expected_order_stat(cfg, 10, 3, 1) == pytest.approx(1.0956349, abs=1e-6)
    shifted = LatencyConfig(a=1.0, mu=1.0, t_c=0.0, d=1.0)
    assert expected_order_stat(shifted, 3, 0, 1) == pytest.approx(harmonic(3) + 1.0)
    assert expected_order_stat(shifted, 3, 0, 1) == pytest.approx(2.8333333, abs=1e-6)


def test_flat_tree_without_comm_is_order_statistic():
    n, s = 8, 2
    tree = build_tree(n, 1)
    cfg = LatencyConfig(a=0.3, mu=1.5, t_c=0.0, d=16.0, seed=77)
    outcome = simulate_iteration("cr", tree, cfg, s, trial=4)
    load = float(r_cr(n, 1, s)) * cfg.d
    # trial 4 is the 5th row of n uniforms on the seed's one PCG64 stream
    bits = np.random.PCG64(77)
    bits.advance(4 * n)
    u = np.random.Generator(bits).random(n)
    T = cfg.a * load - (load / cfg.mu) * np.log1p(-u)
    assert outcome.completion_time == sorted(T)[n - s - 1]


def test_pure_queueing_sequential_receives():
    cfg = LatencyConfig(a=0.0, mu=1e12, t_c=1.0, d=4.0, seed=0)
    outcome = simulate_iteration("gc", 4, cfg, 0, trial=0)
    assert outcome.completion_time == pytest.approx(4.0, abs=1e-6)


def test_single_trial_matches_batch_path():
    # The event path runs the batched port pass on a one-trial block; the
    # bit-exact check is test_event_completion_is_the_batched_value_bit_for_bit.
    cfg = LatencyConfig(a=0.1, mu=2.0, t_c=0.5, d=30.0, seed=42)
    tree = build_tree(3, 2)
    singles = [simulate_iteration("cr", tree, cfg, 1, trial=t).completion_time for t in range(40)]
    batch = _batch_completions("cr", tree, cfg, 1, range(40))
    np.testing.assert_allclose(singles, batch, rtol=1e-12)
    for scheme, resil in [("gc", 3), ("umw", 0), ("sgd", 3), ("rar", 0)]:
        singles = [
            simulate_iteration(scheme, 12, cfg, resil, trial=t).completion_time
            for t in range(40)
        ]
        np.testing.assert_allclose(
            singles, _batch_completions(scheme, 12, cfg, resil, range(40)), rtol=1e-12
        )


def test_event_completion_is_the_batched_value_bit_for_bit():
    cfg = LatencyConfig(a=0.1, mu=2.0, t_c=0.5, d=30.0, seed=42)
    cases = [
        ("cr", build_tree(3, 2), 1),
        ("gc", 12, 3),
        ("umw", 12, 0),
        ("sgd", 12, 3),
        ("rar", 12, 0),
    ]
    for scheme, topo, resil in cases:
        for t in range(60):
            outcome = simulate_iteration(scheme, topo, cfg, resil, trial=t)
            batched = _batch_completions(scheme, topo, cfg, resil, [t])[0]
            assert outcome.completion_time == batched, (scheme, t)
            assert type(outcome.completion_time) is float
            assert all(type(x) is float for ev in outcome.events for x in ev[2:])


def _layer_names(tree: RegularTree) -> list[list[str]]:
    """Node names of layers 0..L, built from NodeId alone."""
    return [
        [str(NodeId(layer, i)) for i in range(1, tree.n**layer + 1)]
        for layer in range(tree.L + 1)
    ]


def _replay_ports(
    tree: RegularTree, need: int, t_c: float, times: list[float], events: list[SimEvent]
) -> float:
    """Event replay of every FCFS port, deepest layer first, over layer-major
    worker indices; logs send/recv pairs and returns the time the master's
    `need`-th message finishes."""
    n, L = tree.n, tree.L
    names = _layer_names(tree)
    rest = iter(times)
    layer_times = [None] + [[next(rest) for _ in names[layer]] for layer in range(1, L + 1)]
    ready = layer_times[L]
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
        ready = [max(o, r) for o, r in zip(layer_times[layer - 1], recv_done)]
    raise AssertionError("unreachable")


@st.composite
def _port_cases(draw):
    """A CR tree (n <= 5, L <= 3) or a flat GC/UMW/SGD group (N <= 16), a
    message cost, and either random compute or a deterministic one whose
    ready times tie."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        topo, resil = build_tree(n, draw(st.integers(1, 3))), draw(st.integers(0, n - 1))
        scheme = "cr"
    else:
        scheme, N = draw(st.sampled_from(["gc", "umw", "sgd"])), draw(st.integers(1, 16))
        topo, resil = N, 0 if scheme == "umw" else draw(st.integers(0, N - 1))
    mu = 1e300 if draw(st.booleans()) else draw(st.sampled_from([0.5, 2.0, 20.0]))
    cfg = LatencyConfig(
        a=draw(st.sampled_from([0.05, 0.3])),
        mu=mu,
        t_c=draw(st.sampled_from([0.0, 0.5, 1.0])),
        d=60.0,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return scheme, topo, resil, cfg, draw(st.integers(0, 1000))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_port_cases())
def test_events_match_the_reference_port_replay(case):
    scheme, topo, resil, cfg, trial = case
    tree, quorum_s, coded_s = scheme_tree(scheme, topo, resil)
    times = _draw_block(cfg, _loads(tree, coded_s, cfg), [trial])[0].tolist()
    workers = [name for layer in _layer_names(tree)[1:] for name in layer]
    expected = [SimEvent(name, "compute", 0.0, t) for name, t in zip(workers, times)]
    completion = _replay_ports(tree, tree.n - quorum_s, cfg.t_c, times, expected)
    outcome = simulate_iteration(scheme, topo, cfg, resil, trial=trial)
    assert [ev[:2] for ev in outcome.events] == [ev[:2] for ev in expected]
    for got, want in zip(outcome.events, expected):
        assert math.isclose(got.t_start, want.t_start, rel_tol=1e-12), (got, want)
        assert math.isclose(got.t_end, want.t_end, rel_tol=1e-12), (got, want)
    assert math.isclose(outcome.completion_time, completion, rel_tol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), L=st.integers(1, 4))
def test_one_layer_major_layout_names_every_node(n, L):
    """The tree's cached layout against arithmetic and NodeId: the master
    then each layer, each layer starting at the sum of the sizes above it
    (and no offset outside layers 0..L+1), and the simulator's compute
    events named str(w) for each worker w."""
    tree = RegularTree(n, L)
    layers = [tree.layer_nodes(layer) for layer in range(1, L + 1)]
    assert tree.layer_major_nodes() == (MASTER, *(w for layer in layers for w in layer))
    for layer in range(1, L + 1):
        assert layers[layer - 1] == tuple(NodeId(layer, i) for i in range(1, n**layer + 1))
    for layer in range(L + 2):
        assert tree.layer_offset(layer) == sum(n**j for j in range(layer))
    for layer in (-1, L + 2):
        with pytest.raises(ValueError):
            tree.layer_offset(layer)
    cfg = LatencyConfig(a=0.05, mu=20.0, t_c=1.0, d=60.0, seed=n * 10 + L)
    outcome = simulate_iteration("cr", tree, cfg, n - 1)
    computed = [ev.node for ev in outcome.events if ev.event_type == "compute"]
    assert computed == [str(w) for w in tree.workers()]


def test_single_trial_is_its_row_of_the_block():
    cfg = LatencyConfig(a=0.2, mu=3.0, t_c=0.0, d=60.0, seed=9)
    loads = np.full(13, 4.0)
    a, b = 37, 90
    block = _draw_block(cfg, loads, range(a, b))
    assert block.shape == (b - a, 13)
    for t in range(a, b):
        assert np.array_equal(_draw_block(cfg, loads, [t])[0], block[t - a])


@pytest.mark.parametrize(
    "scheme, topo, resilience",
    [("cr", build_tree(3, 2), 1), ("gc", 12, 3), ("sgd", 12, 3), ("rar", 12, 0)],
)
def test_mc_result_does_not_depend_on_chunk(monkeypatch, scheme, topo, resilience):
    cfg = LatencyConfig(a=0.1, mu=2.0, t_c=0.5, d=36.0, seed=12)
    trials = 600
    results = {}
    for chunk in (1, 7, 256, trials):
        monkeypatch.setattr(latency, "_MC_CHUNK", chunk)
        results[chunk] = mc_expected_latency(scheme, topo, cfg, resilience, trials=trials)
    assert len(set(results.values())) == 1, results


def test_neighbouring_seeds_share_no_round_time():
    cfgs = [LatencyConfig(a=0.1, mu=2.0, t_c=0.5, d=36.0, seed=s) for s in (101, 102)]
    runs = [_batch_completions("gc", 12, cfg, 3, range(1000)) for cfg in cfgs]
    assert np.intersect1d(*runs).size == 0


def test_batch_accepts_only_consecutive_trials():
    cfg = LatencyConfig(a=0.1, mu=2.0, t_c=0.5, d=36.0, seed=4)
    np.testing.assert_array_equal(
        _batch_completions("gc", 12, cfg, 3, [5, 6, 7]),
        _batch_completions("gc", 12, cfg, 3, range(5, 8)),
    )
    for trials in ([0, 2], [3, 2], [4, 4], [-1, 0], range(0, 6, 2)):
        with pytest.raises(ValueError, match="consecutive"):
            _batch_completions("gc", 12, cfg, 3, trials)


def test_event_log_causality_and_port_exclusivity():
    cfg = LatencyConfig(a=0.2, mu=1.0, t_c=0.7, d=30.0, seed=5)
    # (scheme, topology, resilience, quorum per parent)
    cases = [
        ("cr", build_tree(3, 2), 1, 2),
        ("gc", 12, 3, 9),
        ("sgd", 12, 3, 9),
        ("umw", 12, 0, 12),
    ]
    for scheme, topo, resilience, need in cases:
        outcome = simulate_iteration(scheme, topo, cfg, resilience, trial=9)
        compute_end = {}
        recv_by_parent = {}
        send_by_child = {}
        for ev in outcome.events:
            assert ev.t_end >= ev.t_start
            if ev.event_type == "compute":
                compute_end[ev.node] = ev.t_end
            elif ev.event_type == "recv":
                recv_by_parent.setdefault(ev.node, []).append((ev.t_start, ev.t_end))
            elif ev.event_type == "send":
                send_by_child[ev.node] = (ev.t_start, ev.t_end)
        if scheme != "cr":
            # flat schemes run as the depth-1 tree: workers 1.i, master 0.1
            assert set(compute_end) == {f"1.{i}" for i in range(1, 13)}
            assert set(recv_by_parent) == {"0.1"}
            assert set(send_by_child) <= set(compute_end)
        # single-port exclusivity: no overlapping receive intervals at a parent
        for intervals in recv_by_parent.values():
            intervals.sort()
            for (s0, e0), (s1, _e1) in zip(intervals, intervals[1:]):
                assert s1 >= e0 - 1e-12
        # causality: a node sends only after its own compute is done, and an
        # internal node only after its quorum of receives
        for node, (send_start, _) in send_by_child.items():
            assert send_start >= compute_end[node] - 1e-12
            if node in recv_by_parent:
                quorum_done = sorted(e for _s, e in recv_by_parent[node])[need - 1]
                assert send_start >= quorum_done - 1e-12
        # each parent accepted exactly its quorum
        for intervals in recv_by_parent.values():
            assert len(intervals) == need


def test_reproducibility_same_seed_same_outcome():
    cfg = LatencyConfig(a=0.1, mu=1.0, t_c=0.2, d=30.0, seed=123)
    tree = build_tree(3, 2)
    a = simulate_iteration("cr", tree, cfg, 1, trial=3)
    b = simulate_iteration("cr", tree, cfg, 1, trial=3)
    assert a == b


def test_order_stat_monte_carlo_matches_mean():
    n, s = 6, 2
    tree = build_tree(n, 1)
    cfg = LatencyConfig(a=0.25, mu=1.0, t_c=0.0, d=12.0, seed=31)
    mean, _ = mc_expected_latency("cr", tree, cfg, s, trials=30_000)
    expected = expected_order_stat(cfg, n, s, r_cr(n, 1, s))
    assert mean == pytest.approx(expected, rel=0.02)


def test_flat_tree_equals_flat_group_distribution():
    n, s = 5, 2
    cfg = LatencyConfig(a=0.4, mu=2.0, t_c=0.0, d=25.0, seed=17)
    tree = build_tree(n, 1)
    tree_runs = _batch_completions("cr", tree, cfg, s, range(100))
    flat_runs = _batch_completions("gc", n, cfg, s, range(100))
    np.testing.assert_array_equal(tree_runs, flat_runs)


def test_bounds_collapse_without_comm():
    cfg = LatencyConfig(a=0.2, mu=1.0, t_c=0.0, d=100.0)
    lower, upper = cr_bounds(cfg, 10, 2, 2)
    assert lower == upper
    load = float(r_cr(10, 2, 2)) * 100.0
    assert lower == pytest.approx(load * np.log(5) + 0.2 * load)


def test_bounds_are_ordered_and_finite():
    cfg = LatencyConfig(a=0.01, mu=1.0, t_c=0.001, d=4200.0)
    lower, upper = cr_bounds(cfg, 100, 2, 20)
    assert np.isfinite(lower) and np.isfinite(upper)
    assert lower < upper


def test_bound_gap_grows_linearly_with_fanout():
    cfg = LatencyConfig(a=0.01, mu=1.0, t_c=0.5, d=5000.0)
    gaps = []
    for n in (20, 40, 80):
        lower, upper = cr_bounds(cfg, n, 2, n // 5)
        gaps.append(upper - lower)
    # upper - lower = (n*alpha + 1 - L) * t_c, linear in n at fixed alpha
    assert gaps[1] / gaps[0] == pytest.approx(2.0, rel=0.15)
    assert gaps[2] / gaps[1] == pytest.approx(2.0, rel=0.15)


def test_bounds_reject_degenerate_ratio():
    cfg = LatencyConfig(a=0.0, mu=1.0, t_c=0.0, d=10.0)
    with pytest.raises(ValueError):
        cr_bounds(cfg, 4, 2, 0)


def test_mc_degenerate_deterministic_limit():
    tree = build_tree(4, 2)
    cfg = LatencyConfig(a=1.0, mu=1e9, t_c=0.0, d=24.0, seed=3)
    mean, half = mc_expected_latency("cr", tree, cfg, 1, trials=200)
    load = float(r_cr(4, 2, 1)) * 24.0
    assert mean == pytest.approx(1.0 * load, rel=1e-6)
    assert half < 1e-6


def test_comm_cost_adds_pipelining_gap():
    """Replaying identical compute draws with and without message cost must
    shift the mean by about n(1-alpha)*t_c; at n=3 that target is 2*t_c and
    the vanishing-term slack leaves at least 3/4 of it.  Every single trial
    pays at least the master's final receive."""
    tree = build_tree(3, 2)
    base = LatencyConfig(a=0.1, mu=1.0, t_c=0.0, d=30.0, seed=8)
    priced = LatencyConfig(a=0.1, mu=1.0, t_c=1.0, d=30.0, seed=8)
    free = _batch_completions("cr", tree, base, 1, range(20_000))
    paid = _batch_completions("cr", tree, priced, 1, range(20_000))
    assert np.all(paid >= free + priced.t_c - 1e-12)
    assert paid.mean() >= free.mean() + 2 * priced.t_c * 0.75


def test_saturated_port_critical_path():
    # with compute time ~0 the round is pure queueing: every layer serves
    # its quorum back to back, completing at L*(n-s)*t_c
    tree = build_tree(3, 2)
    cfg = LatencyConfig(a=0.0, mu=1e12, t_c=1.0, d=30.0, seed=1)
    outcome = simulate_iteration("cr", tree, cfg, 1, trial=0)
    assert outcome.completion_time == pytest.approx(2 * 2 * 1.0, abs=1e-6)


def test_uncoded_waits_longer_than_coded_under_heavy_tail():
    """With a heavy compute tail (small mu) and high redundancy, skipping the
    slowest stragglers outweighs the extra coded load, so the uncoded
    all-workers barrier is slower on average."""
    cfg = LatencyConfig(a=0.01, mu=0.1, t_c=0.01, d=80.0, seed=44)
    gc_mean, gc_half = mc_expected_latency("gc", 8, cfg, 6, trials=4000)
    umw_mean, umw_half = mc_expected_latency("umw", 8, cfg, 0, trials=4000)
    assert umw_mean - umw_half > gc_mean + gc_half


def test_rar_barrier_model():
    cfg = LatencyConfig(a=0.5, mu=1e9, t_c=2.0, d=12.0, seed=0)
    outcome = simulate_iteration("rar", 6, cfg, trial=0)
    # deterministic limit: max compute = a*d/N, plus 2(N-1) segment hops
    assert outcome.completion_time == pytest.approx(0.5 * 2 + 2 * 5 * (2.0 / 6), rel=1e-6)


def test_unknown_scheme_rejected():
    cfg = LatencyConfig(a=0, mu=1, t_c=0, d=4)
    with pytest.raises(ValueError, match="unknown scheme"):
        simulate_iteration("ps", 4, cfg)


def test_event_csv_round_trip(tmp_path):
    cfg = LatencyConfig(a=0.1, mu=1.0, t_c=0.3, d=30.0, seed=2)
    outcome = simulate_iteration("cr", build_tree(3, 2), cfg, 1, trial=1)
    path = tmp_path / "trace.csv"
    events_to_csv(outcome, path)
    import csv

    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(outcome.events)
    for row, ev in zip(rows, outcome.events):
        assert row["node"] == ev.node
        assert float(row["t_start"]) == ev.t_start
        assert float(row["t_end"]) == ev.t_end
