import socket
import time

import numpy as np
import pytest

from codedreduce import engine, transport
from codedreduce.allocation import cr_allocate
from codedreduce.codes import build_encoding
from codedreduce.ml import generate_synthetic, make_oracle
from codedreduce.topology import NodeId, StragglerPattern, build_tree
from codedreduce.transport import (
    MAGIC,
    MSG_GRADIENT,
    MSG_MODEL,
    MSG_SHUTDOWN,
    FailurePlan,
    OracleSpec,
    TransportConfig,
    _collect_gradients,
    decode_message,
    encode_message,
    orchestrate,
    run_node,
)

from conftest import identity_oracle_for

pytestmark = pytest.mark.transport


def test_wire_round_trip_random_payloads():
    rng = np.random.default_rng(0)
    for _ in range(25):
        payload = rng.standard_normal(int(rng.integers(1, 64)))
        sender = NodeId(int(rng.integers(0, 5)), int(rng.integers(1, 100)))
        mtype = int(rng.choice([MSG_MODEL, MSG_GRADIENT, MSG_SHUTDOWN]))
        blob = encode_message(mtype, sender, payload)
        assert blob[:4] == MAGIC
        msg = decode_message(blob)
        assert (msg.msg_type, msg.sender_layer, msg.sender_index) == (
            mtype,
            sender.layer,
            sender.index,
        )
        np.testing.assert_array_equal(msg.payload, payload)


def test_wire_rejects_garbage():
    with pytest.raises(ValueError, match="magic"):
        decode_message(b"XXXX" + bytes(11))
    good = encode_message(MSG_GRADIENT, NodeId(1, 1), np.ones(3))
    with pytest.raises(ValueError):
        decode_message(good + b"\x00")


def engine_reference(tree, s, spec, theta, pattern=None):
    B = build_encoding(tree.n, s, 0)
    assignment = cr_allocate(tree, s, spec.d, B=B)
    if spec.kind == "identity":
        oracle = identity_oracle_for(spec.d)
    else:
        dataset, _ = generate_synthetic(spec.d, spec.p, spec.data_seed, spec.noise_scale)
        oracle = make_oracle(spec.kind, dataset)
    return engine.cr_execute(
        tree, assignment, B, pattern or StragglerPattern({}), oracle, theta
    )


def test_round_without_failures_matches_engine(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    theta = np.array([0.5, -1.0, 2.0, 0.25])
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=15.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert report.ok, report.error
    expected = engine_reference(tree, 1, spec, theta)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(report.gradient - expected)) / scale <= 1e-9
    assert report.node_reports["0.1"].status == "ok"


def test_one_failure_per_parent_still_recovers(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=8.0)
    victims = frozenset({NodeId(1, 1), NodeId(2, 5), NodeId(2, 8)})
    report = orchestrate(cfg, tmp_path / "run", FailurePlan(die_before_send=victims))
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)
    assert report.node_reports["1.1"].status == "killed"
    # decode used exactly the surviving quorum at the master
    master = report.node_reports["0.1"]
    assert master.received_from == ["1.2", "1.3"]
    assert master.missing == ["1.1"]


def test_overloaded_parent_aborts_and_is_named(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=4.0)
    plan = FailurePlan(never_start=frozenset({NodeId(1, 1), NodeId(1, 2)}))
    report = orchestrate(cfg, tmp_path / "run", plan)
    assert not report.ok
    assert report.timed_out_parents == ["0.1"]
    assert "0.1" in report.error
    master = report.node_reports["0.1"]
    assert master.status == "timeout"
    assert set(master.missing) == {"1.1", "1.2"}


def test_timed_kill_is_tolerated(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=6.0)
    plan = FailurePlan(kill_after={NodeId(1, 3): 0.0})
    report = orchestrate(cfg, tmp_path / "run", plan)
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)


def test_subtree_loss_times_out_locally_but_run_succeeds(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    plan = FailurePlan(never_start=frozenset({NodeId(2, 1), NodeId(2, 2)}))
    report = orchestrate(cfg, tmp_path / "run", plan)
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)
    assert report.timed_out_parents == ["1.1"]
    assert report.node_reports["1.1"].status == "timeout"


def test_orphaned_subtree_does_not_hold_the_round(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=20.0)
    plan = FailurePlan(never_start=frozenset({NodeId(1, 1)}))
    start = time.monotonic()
    report = orchestrate(cfg, tmp_path / "run", plan)
    elapsed = time.monotonic() - start
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)
    for orphan in ("2.1", "2.2", "2.3"):
        assert report.node_reports[orphan].status == "connect_failed"
    # the orphans learn at once that 1.1 is gone, so the round ends at quorum
    assert elapsed < cfg.deadline / 2


@pytest.mark.parametrize("wrong_sender", [NodeId(2, 2), NodeId(9, 1)], ids=["sibling", "stranger"])
def test_parent_keys_gradients_by_link_and_drops_a_mislabelled_one(wrong_sender):
    kids = build_tree(3, 2).children(NodeId(1, 1))  # 2.1, 2.2, 2.3
    pairs = [socket.socketpair() for _ in kids]
    down = tuple(parent_end for parent_end, _ in pairs)
    try:
        senders = (wrong_sender, *kids[1:])
        for pos, ((_, child_end), sender) in enumerate(zip(pairs, senders)):
            child_end.sendall(encode_message(MSG_GRADIENT, sender, np.full(3, float(pos))))
        got, timed_out = _collect_gradients(down, kids, 2, time.monotonic() + 5.0)
    finally:
        for pair in pairs:
            for end in pair:
                end.close()
    assert not timed_out
    assert sorted(got) == [1, 2]
    for pos in got:
        np.testing.assert_array_equal(got[pos], np.full(3, float(pos)))


def _run_node_late(node, *args, **kwargs):
    """run_node with node 1.1 starting 1.5 s late; spawned nodes import it
    from this module by name."""
    if node == NodeId(1, 1):
        time.sleep(1.5)
    run_node(node, *args, **kwargs)


@pytest.mark.parametrize(
    "plan, status, timed_out_parents",
    [
        (FailurePlan(die_before_send=frozenset({NodeId(1, 1)})), "killed", []),
        (FailurePlan(never_start=frozenset({NodeId(2, 1), NodeId(2, 2)})), "timeout", ["1.1"]),
    ],
    ids=["die_before_send", "never_start"],
)
def test_a_late_child_still_gets_the_model(
    tmp_path, monkeypatch, plan, status, timed_out_parents
):
    monkeypatch.setattr(transport, "run_node", _run_node_late)
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    report = orchestrate(cfg, tmp_path / "run", plan)
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)
    # the master reaches quorum on 1.2 and 1.3 long before 1.1 starts
    assert report.node_reports["0.1"].received_from == ["1.2", "1.3"]
    assert report.node_reports["1.1"].status == status
    assert report.timed_out_parents == timed_out_parents
