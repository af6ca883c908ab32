import dataclasses
import functools
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from codedreduce import engine, transport
from codedreduce.allocation import cr_allocate
from codedreduce.codes import build_encoding
from codedreduce.ml import generate_synthetic, make_oracle
from codedreduce.topology import MASTER, NodeId, StragglerPattern, build_tree
from codedreduce.transport import (
    MAGIC,
    MSG_GRADIENT,
    MSG_MODEL,
    FailurePlan,
    OracleSpec,
    TransportConfig,
    _collect_gradients,
    decode_message,
    encode_message,
    orchestrate,
    read_message,
    run_node,
)

from conftest import identity_oracle_for

pytestmark = pytest.mark.transport


def test_wire_round_trip_random_payloads():
    rng = np.random.default_rng(0)
    for _ in range(25):
        payload = rng.standard_normal(int(rng.integers(1, 64)))
        sender = NodeId(int(rng.integers(0, 5)), int(rng.integers(1, 100)))
        mtype = int(rng.choice([MSG_MODEL, MSG_GRADIENT]))
        blob = encode_message(mtype, sender, payload)
        assert blob[:4] == MAGIC
        msg = decode_message(blob)
        assert (msg.msg_type, msg.sender_layer, msg.sender_index) == (
            mtype,
            sender.layer,
            sender.index,
        )
        np.testing.assert_array_equal(msg.payload, payload)


@pytest.mark.parametrize("payload", ["empty", "3", "8MB", "strided", "float32"])
def test_encode_message_copies_the_payload_once_into_the_same_bytes(payload):
    values = {
        "empty": np.zeros(0),
        "3": np.array([0.5, -1.0, 2.0]),
        "8MB": np.random.default_rng(3).standard_normal(1_048_576),
        "strided": np.arange(30.0)[::3],
        "float32": np.linspace(-1.0, 1.0, 7, dtype=np.float32),
    }[payload]
    sender = NodeId(2, 5)
    header = transport._HEADER.pack(MAGIC, MSG_GRADIENT, sender.layer, sender.index, values.size)
    two_copies = header + np.asarray(values, dtype="<f8").tobytes()
    assert encode_message(MSG_GRADIENT, sender, values) == two_copies


def test_wire_rejects_garbage():
    with pytest.raises(ValueError, match="magic"):
        decode_message(b"XXXX" + bytes(11))
    good = encode_message(MSG_GRADIENT, NodeId(1, 1), np.ones(3))
    with pytest.raises(ValueError):
        decode_message(good + b"\x00")


@pytest.mark.parametrize("count", [0, 3, 1_048_576], ids=["empty", "3", "8MB"])
def test_read_message_reads_a_message_back_bit_for_bit(count):
    # 8 MB is far more than a socket pair buffers, so it arrives in many reads
    payload = np.random.default_rng(count).standard_normal(count)
    blob = encode_message(MSG_MODEL, NodeId(1, 2), payload)
    ours, theirs = socket.socketpair()
    sender = threading.Thread(target=theirs.sendall, args=(blob,))
    with ours, theirs:
        sender.start()
        msg = read_message(ours)
        sender.join(timeout=10.0)
    assert not sender.is_alive()
    assert (msg.msg_type, msg.sender_layer, msg.sender_index) == (MSG_MODEL, 1, 2)
    assert msg.payload.dtype == np.dtype("<f8")
    assert msg.payload.tobytes() == payload.tobytes()


@pytest.mark.parametrize(
    "blob, error, match",
    [
        (b"XXXX" + bytes(11), ValueError, "bad magic"),
        (encode_message(MSG_GRADIENT, NodeId(1, 1), np.ones(3))[:7], ConnectionError, "mid-message"),
        (encode_message(MSG_GRADIENT, NodeId(1, 1), np.ones(3))[:-1], ConnectionError, "mid-message"),
    ],
    ids=["bad_magic", "short_header", "short_payload"],
)
def test_read_message_refuses_a_bad_or_cut_message(blob, error, match):
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(blob)
        theirs.close()
        with pytest.raises(error, match=match):
            read_message(ours)


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


def _no_network(*_args, **_kwargs):
    raise AssertionError("the orchestrator opened a network socket")


def test_round_without_failures_matches_engine(tmp_path, monkeypatch):
    # every tree edge is a socket pair: the round needs no listener or connection
    monkeypatch.setattr(socket, "create_server", _no_network)
    monkeypatch.setattr(socket, "create_connection", _no_network)
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    theta = np.array([0.5, -1.0, 2.0, 0.25])
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=15.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert report.ok, report.error
    expected = engine_reference(tree, 1, spec, theta)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(report.gradient - expected)) / scale <= 1e-9
    # the file holds the master's gradient message, bit for bit
    written = np.loadtxt(tmp_path / "run" / "master_gradient.csv", delimiter=",")
    np.testing.assert_array_equal(written, report.gradient)
    assert report.node_reports["0.1"].status == "ok"
    # each parent decodes on n-s = 2 children, and the one it drops says so
    missing = [report.node_reports[str(parent)].missing for parent in tree.parents()]
    assert [len(names) for names in missing] == [1] * tree.num_parents
    discarded = {r.node for r in report.node_reports.values() if r.status == "discarded"}
    assert discarded == {name for names in missing for name in names}


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
    start = time.monotonic()
    report = orchestrate(cfg, tmp_path / "run", plan)
    elapsed = time.monotonic() - start
    assert not report.ok
    assert report.timed_out_parents == ["0.1"]
    assert "0.1" in report.error
    master = report.node_reports["0.1"]
    assert master.status == "timeout"
    assert set(master.missing) == {"1.1", "1.2"}
    # once 1.3 has answered no child link is left, so the master stops waiting
    assert "no child link left" in master.detail
    assert elapsed < cfg.deadline / 2


def test_timed_kill_is_tolerated(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=6.0)
    plan = FailurePlan(kill_after={NodeId(1, 3): 0.0})
    report = orchestrate(cfg, tmp_path / "run", plan)
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)
    # terminated before it could write a report, 1.3 gets one from the orchestrator
    assert len(report.node_reports) == len(list((tmp_path / "run").glob("node_*.json"))) == 13
    assert report.node_reports["1.3"].status == "killed"
    assert "SIGTERM" in report.node_reports["1.3"].detail
    # a child that sent into 1.3's buffer before the kill was never decoded
    for kid in tree.children(NodeId(1, 3)):
        assert report.node_reports[str(kid)].status != "ok"


def test_a_host_started_without_pythonpath_still_finds_the_package(tmp_path, monkeypatch):
    """With no PYTHONPATH exported, as under perfbench/run.py, a round host
    that the round starts itself still imports this package."""
    transport._stop_host()
    monkeypatch.delenv("PYTHONPATH", raising=False)
    body = functools.partial(_run_node_noting_its_host, note_in=tmp_path / "run")
    monkeypatch.setattr(transport, "run_node", body)
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert report.ok, report.error
    assert "PYTHONPATH" not in os.environ
    assert len(report.node_reports) == 13
    # the nodes are forks of a host, not of this process
    assert int((tmp_path / "run" / "host_pid").read_text()) != os.getpid()


def _run_node_noting_its_host(node, *args, note_in, **kwargs):
    """run_node with the master writing the pid of the host it was forked
    from into the directory `note_in`; the round host imports it from this
    module by name."""
    if node == MASTER:
        Path(note_in, "host_pid").write_text(str(os.getppid()))
    run_node(node, *args, **kwargs)


def _host_rounds(tmp_path, monkeypatch, runs):
    """A (3,1) round in each of `runs`, all ok, with a master that notes the
    pid of its host in the run directory; the pid of each round's host."""
    spec = OracleSpec(kind="identity", d=3, p=3)
    cfg = TransportConfig(tree=build_tree(3, 1), s=1, oracle=spec, theta=np.zeros(3), deadline=5.0)
    pids = []
    for run in runs:
        body = functools.partial(_run_node_noting_its_host, note_in=tmp_path / run)
        monkeypatch.setattr(transport, "run_node", body)
        report = orchestrate(cfg, tmp_path / run)
        assert report.ok, report.error
        assert len(report.node_reports) == 4
        pids.append(int((tmp_path / run / "host_pid").read_text()))
    return pids


def test_two_rounds_in_one_process_fork_their_nodes_from_one_host(tmp_path, monkeypatch):
    first, second = _host_rounds(tmp_path, monkeypatch, ("one", "two"))
    assert first == second != os.getpid()


def test_a_host_killed_between_rounds_is_replaced(tmp_path, monkeypatch):
    [first] = _host_rounds(tmp_path, monkeypatch, ("one",))
    os.kill(first, signal.SIGKILL)
    os.waitid(os.P_PID, first, os.WEXITED | os.WNOWAIT)  # dead, and left for its caller to reap
    [second] = _host_rounds(tmp_path, monkeypatch, ("two",))
    assert second != first


def test_subtree_loss_times_out_locally_but_run_succeeds(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    plan = FailurePlan(never_start=frozenset({NodeId(2, 1), NodeId(2, 2)}))
    start = time.monotonic()
    report = orchestrate(cfg, tmp_path / "run", plan)
    elapsed = time.monotonic() - start
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)
    assert report.timed_out_parents == ["1.1"]
    assert report.node_reports["1.1"].status == "timeout"
    # 2.3 answered and 2.1, 2.2 never started: 1.1 has no link left to wait on
    assert "no child link left" in report.node_reports["1.1"].detail
    # 1.1 timed out holding 2.3's gradient, so that gradient was never used
    assert report.node_reports["1.1"].received_from == ["2.3"]
    assert report.node_reports["2.3"].status == "discarded"
    assert report.node_reports["2.3"].detail.startswith("parent 1.1 reports timeout")
    assert elapsed < cfg.deadline / 2


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


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed-after-send"])
@pytest.mark.parametrize("wrong_sender", [NodeId(2, 2), NodeId(9, 1)], ids=["sibling", "stranger"])
def test_parent_keys_gradients_by_link_and_drops_a_mislabelled_one(wrong_sender, closed):
    kids = build_tree(3, 2).children(NodeId(1, 1))  # 2.1, 2.2, 2.3
    pairs = [socket.socketpair() for _ in kids]
    down = tuple(parent_end for parent_end, _ in pairs)
    try:
        senders = (wrong_sender, *kids[1:])
        for pos, ((_, child_end), sender) in enumerate(zip(pairs, senders)):
            child_end.sendall(encode_message(MSG_GRADIENT, sender, np.full(3, float(pos))))
            if closed:  # a fast child has sent and gone before collection starts
                child_end.close()
        got, timed_out = _collect_gradients(down, kids, 2, time.monotonic() + 5.0)
    finally:
        for pair in pairs:
            for end in pair:
                end.close()
    assert not timed_out
    assert sorted(got) == [1, 2]
    for pos in got:
        np.testing.assert_array_equal(got[pos], np.full(3, float(pos)))


def test_parent_treats_a_message_that_is_not_a_gradient_as_its_child_failing():
    kids = build_tree(3, 2).children(NodeId(1, 1))
    pairs = [socket.socketpair() for _ in kids]
    down = tuple(parent_end for parent_end, _ in pairs)
    try:
        for pos, ((_, child_end), kid) in enumerate(zip(pairs, kids)):
            mtype = MSG_MODEL if pos == 0 else MSG_GRADIENT
            child_end.sendall(encode_message(mtype, kid, np.full(3, float(pos))))
        got, short_of_quorum = _collect_gradients(down, kids, 3, time.monotonic() + 5.0)
    finally:
        for pair in pairs:
            for end in pair:
                end.close()
    # the model-typed message ends child 0's link, so no link is left short of 3
    assert sorted(got) == [1, 2]
    assert short_of_quorum == "no child link left"


@pytest.mark.parametrize(
    "close_all, cause", [(True, "no child link left"), (False, "deadline passed")]
)
def test_collect_stops_short_of_quorum_when_no_link_is_left_or_the_deadline_passes(
    close_all, cause
):
    kids = build_tree(3, 2).children(NodeId(1, 1))
    pairs = [socket.socketpair() for _ in kids]
    down = tuple(parent_end for parent_end, _ in pairs)
    try:
        pairs[0][1].sendall(encode_message(MSG_GRADIENT, kids[0], np.ones(3)))
        for _, child_end in pairs[: 3 if close_all else 2]:
            child_end.close()
        start = time.monotonic()
        got, short_of_quorum = _collect_gradients(down, kids, 2, start + 0.5)
        elapsed = time.monotonic() - start
    finally:
        for pair in pairs:
            for end in pair:
                end.close()
    assert sorted(got) == [0]
    assert short_of_quorum == cause
    # with every link answered or failed it returns at once, else at the deadline
    assert (elapsed < 0.25) if close_all else (elapsed >= 0.5)


def _run_node_late(node, *args, **kwargs):
    """run_node with node 1.1 starting 1.5 s late; the round host imports it
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


def _run_node_unreadable_shard(node, cfg, shard, *args, **kwargs):
    """run_node with node 2.1 handed a shard its oracle cannot read; the
    round host imports it from this module by name."""
    if node == NodeId(2, 1):
        shard = (None,)
    run_node(node, cfg, shard, *args, **kwargs)


def test_a_node_that_raises_reports_error(tmp_path, monkeypatch):
    monkeypatch.setattr(transport, "run_node", _run_node_unreadable_shard)
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)
    failed = report.node_reports["2.1"]
    assert failed.status == "error"
    assert failed.detail.startswith("AttributeError: ")
    assert report.node_reports["1.1"].missing == ["2.1"]


class _LoudSlice:
    """A shard slice whose every field raises an exception with a 1 MB text,
    more than the report socket takes in one message."""

    def __getattr__(self, name):
        raise LookupError("x" * 2**20)


def _run_node_loud_error(node, cfg, shard, *args, **kwargs):
    """run_node with node 2.1's oracle raising an exception whose text is
    1 MB long; the round host imports it from this module by name."""
    if node == NodeId(2, 1):
        shard = (_LoudSlice(),)
    run_node(node, cfg, shard, *args, **kwargs)


def test_a_report_too_long_for_one_message_is_cut_and_says_so(tmp_path, monkeypatch):
    monkeypatch.setattr(transport, "run_node", _run_node_loud_error)
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert report.ok, report.error
    failed = report.node_reports["2.1"]
    assert failed.status == "error"
    assert failed.detail.startswith("LookupError: xxx")
    text = len("LookupError: ") + 2**20
    assert failed.detail.endswith(f"[cut from {text} characters to fit one message]")
    assert len(failed.detail) < text
    written = json.loads((tmp_path / "run" / "node_2_1.json").read_text())
    assert written == failed.__dict__


def _run_node_exit_7(node, *args, **kwargs):
    """run_node with node 2.1 exiting with code 7 before it does anything;
    the round host imports it from this module by name."""
    if node == NodeId(2, 1):
        sys.exit(7)
    run_node(node, *args, **kwargs)


def test_a_node_that_exits_without_a_report_reports_error(tmp_path, monkeypatch):
    monkeypatch.setattr(transport, "run_node", _run_node_exit_7)
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)
    failed = report.node_reports["2.1"]
    assert (failed.status, failed.detail) == ("error", "exited with code 7, no report")
    assert (tmp_path / "run" / "node_2_1.json").exists()


def test_a_round_whose_oracle_does_not_build_names_the_exception(tmp_path):
    """The host builds the oracle before it forks: a data seed numpy refuses
    ends the round with that exception, and no node starts."""
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=-1)
    cfg = TransportConfig(tree=build_tree(3, 2), s=1, oracle=spec, theta=np.zeros(4), deadline=5.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert not report.ok
    assert report.error.startswith("aborted: round host: ValueError: ")
    assert report.node_reports == {}
    assert list((tmp_path / "run").glob("node_*")) == []


def test_a_second_round_reads_no_report_of_the_first(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    first = orchestrate(cfg, tmp_path / "run")
    # with s = 1, 2.1 is discarded whenever it is the slowest of 1.1's children
    written = json.loads((tmp_path / "run" / "node_2_1.json").read_text())
    assert first.ok and written["status"] in ("ok", "discarded")
    second = orchestrate(cfg, tmp_path / "run", FailurePlan(never_start=frozenset({NodeId(2, 1)})))
    assert second.ok, second.error
    assert "2.1" not in second.node_reports
    assert not (tmp_path / "run" / "node_2_1.json").exists()


def _run_node_killed_holding_gradients(node, *args, **kwargs):
    """run_node with node 1.1 killing itself once every child's gradient
    waits on its link, before it reads any; the round host imports it from
    this module by name."""
    if node == NodeId(1, 1):

        def die_holding(down, *_args):
            for conn in down:
                select.select([conn], [], [], 10.0)
            os.kill(os.getpid(), signal.SIGKILL)

        transport._collect_gradients = die_holding
    run_node(node, *args, **kwargs)


def test_children_of_a_parent_killed_holding_their_gradients_are_discarded(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(transport, "run_node", _run_node_killed_holding_gradients)
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(15), atol=1e-9)
    assert report.node_reports["1.1"].status == "killed"
    for kid in ("2.1", "2.2", "2.3"):
        assert report.node_reports[kid].status == "discarded"
        assert report.node_reports[kid].detail.startswith("parent 1.1 reports killed")


_SRC = str(Path(transport.__file__).resolve().parents[1])
# a caller's script: one (3,1) round into the run directory sys.argv[1]
_ROUND_SCRIPT = """\
import json, sys
import numpy as np
from codedreduce import transport
from codedreduce.topology import build_tree
spec = transport.OracleSpec(kind="identity", d=3, p=3)
cfg = transport.TransportConfig(tree=build_tree(3, 1), s=1, oracle=spec, theta=np.zeros(3))
"""


def _run_script(tmp_path, script: str) -> list:
    """Run `script` as a library caller's main script, with no main guard,
    and return the JSON list its last line prints."""
    path = tmp_path / "caller.py"
    path.write_text(_ROUND_SCRIPT + script)
    env = {**os.environ, "PYTHONPATH": _SRC}
    # a host inherits stdout, so it goes to a file: a pipe would be read
    # until every holder exits, and the check would wait for what it catches
    out = tmp_path / "out.txt"
    with out.open("w") as stdout:
        subprocess.run(
            [sys.executable, str(path), str(tmp_path / "run")],
            stdout=stdout, env=env, check=True, timeout=60,
        )
    return json.loads(out.read_text().splitlines()[-1])


def test_a_library_script_without_a_main_guard_runs_a_round(tmp_path):
    """The host never re-runs its caller's main script, so a caller with no
    `if __name__ == "__main__"` guard gets its round, and every node reports."""
    ok, error, reported = _run_script(
        tmp_path,
        "report = transport.orchestrate(cfg, sys.argv[1])\n"
        "print(json.dumps([report.ok, report.error, sorted(report.node_reports)]))\n",
    )
    assert (ok, error) == (True, "")
    assert reported == ["0.1", "1.1", "1.2", "1.3"]
    assert len(list((tmp_path / "run").glob("node_*.json"))) == 4


def test_a_round_the_host_cannot_load_names_the_exception_and_the_host_serves_on(tmp_path):
    """A body defined in the caller's __main__ cannot be loaded by name in
    the host: the round aborts naming the exception, and the same host
    serves the next round."""
    first_ok, error, reports, pids, second_ok = _run_script(
        tmp_path,
        "def body(*args, **kwargs):\n"
        "    raise AssertionError('a body in __main__ never runs')\n"
        "real, transport.run_node = transport.run_node, body\n"
        "first = transport.orchestrate(cfg, sys.argv[1])\n"
        "pids = [transport._host[0].pid]\n"
        "transport.run_node = real\n"
        "second = transport.orchestrate(cfg, sys.argv[1])\n"
        "pids.append(transport._host[0].pid)\n"
        "print(json.dumps([first.ok, first.error, len(first.node_reports), pids, second.ok]))\n",
    )
    assert not first_ok
    assert error.startswith("aborted: round host: AttributeError: ")
    assert "'body'" in error
    assert reports == 0
    assert second_ok
    assert pids[0] == pids[1]


def test_no_round_host_outlives_its_caller(tmp_path):
    """The host is gone once the process that ran a round has exited, and
    no multiprocessing fork server or resource tracker was ever started."""
    pid, helpers = _run_script(
        tmp_path,
        "assert transport.orchestrate(cfg, sys.argv[1]).ok\n"
        "helpers = ('multiprocessing.forkserver', 'multiprocessing.resource_tracker')\n"
        "print(json.dumps([transport._host[0].pid, [m for m in helpers if m in sys.modules]]))\n",
    )
    assert helpers == []
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_a_master_that_never_starts_ends_the_round_at_once(tmp_path):
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(15), deadline=10.0)
    start = time.monotonic()
    report = orchestrate(cfg, tmp_path / "run", FailurePlan(never_start=frozenset({MASTER})))
    elapsed = time.monotonic() - start
    assert not report.ok
    assert report.gradient is None
    assert report.error == "aborted: master produced no output"
    assert not (tmp_path / "run" / "master_gradient.csv").exists()
    assert str(MASTER) not in report.node_reports
    for child in tree.children(MASTER):
        assert report.node_reports[str(child)].status == "connect_failed"
    # both ends of the master's link are closed, so the orchestrator's read of
    # the master's gradient fails at once instead of waiting out the deadline
    assert elapsed < cfg.deadline / 2


def test_a_model_larger_than_the_link_buffer_still_reaches_the_master(tmp_path):
    # 40,002 doubles are 320 kB, more than a socket pair buffers before the
    # master starts reading, so the rest is sent once the nodes have started
    tree = build_tree(3, 1)
    d = 40_002
    spec = OracleSpec(kind="identity", d=d, p=d)
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=np.zeros(d), deadline=10.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert report.ok, report.error
    np.testing.assert_allclose(report.gradient, np.ones(d), atol=1e-9)
    assert report.node_reports["0.1"].status == "ok"


def _children(pid: int) -> set[int]:
    """The children of the process `pid` that it has not reaped."""
    return {int(tok) for tok in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()}


def _forked_so_far(pid: int) -> int:
    """How many children the process `pid` has forked and not yet reaped."""
    return len(_children(pid))


def _run_node_counting_forks(node, *args, note_in, **kwargs):
    """run_node with the master writing to `note_in/forked` how many nodes
    its host had forked once the master had read the model; the round host
    imports it from this module by name."""
    if node == MASTER:
        read = transport.read_message

        def read_and_count(sock):
            transport.read_message = read  # the model is the first message
            msg = read(sock)
            Path(note_in, "forked").write_text(str(_forked_so_far(os.getppid())))
            return msg

        transport.read_message = read_and_count
    run_node(node, *args, **kwargs)


def test_the_master_reads_the_model_before_the_host_forks_the_last_node(tmp_path, monkeypatch):
    """The model goes down while the host forks: the master, forked first,
    has read it before the host has forked all 21 nodes of the (4,2) tree.
    (A node's own start stamp bounds its fork too loosely under load.)"""
    transport._stop_host()  # a cold host: a warm one may hold these nodes already
    body = functools.partial(_run_node_counting_forks, note_in=tmp_path)
    monkeypatch.setattr(transport, "run_node", body)
    spec = OracleSpec(kind="identity", d=12, p=12)
    cfg = TransportConfig(tree=build_tree(4, 2), s=1, oracle=spec, theta=np.zeros(12), deadline=5.0)
    report = orchestrate(cfg, tmp_path / "run")
    assert report.ok, report.error
    assert len(report.node_reports) == 21
    assert int((tmp_path / "forked").read_text()) < 21


def test_a_large_model_for_a_master_that_never_starts_does_not_wait_for_the_forks(
    tmp_path, monkeypatch
):
    """The host closes a never-started node's ends before its first fork, so
    the orchestrator's blocking send of a model larger than the link's
    buffer has failed before the host has forked the (4,2) tree's 20 other
    nodes."""
    transport._stop_host()  # a cold host: a warm one may hold these nodes already
    send, forked = transport._send_model, []

    def send_and_count(*args):
        send(*args)
        forked.append(_forked_so_far(transport._host[0].pid))

    monkeypatch.setattr(transport, "_send_model", send_and_count)
    spec = OracleSpec(kind="identity", d=12, p=12)
    theta = np.zeros(131_072)  # 1 MB: the identity oracle takes a model of any length
    cfg = TransportConfig(tree=build_tree(4, 2), s=1, oracle=spec, theta=theta, deadline=5.0)
    report = orchestrate(cfg, tmp_path / "run", FailurePlan(never_start=frozenset({MASTER})))
    assert report.error == "aborted: master produced no output"
    assert len(report.node_reports) == 20
    assert forked[0] < 20


def _run_node_noting_its_pid(node, *args, note_in, **kwargs):
    """run_node with each node writing its pid to `note_in/pid_<node>`
    first; the round host imports it from this module by name."""
    Path(note_in, f"pid_{node}").write_text(str(os.getpid()))
    run_node(node, *args, **kwargs)


def _pool_round(tmp_path, monkeypatch, cfg, plan=FailurePlan()):
    """A round whose nodes note their pids in one directory, so that its
    node inputs equal those of the test's other rounds on `cfg`; the
    report and the pid every node noted, by node."""
    notes = tmp_path / "pids"
    notes.mkdir(exist_ok=True)
    body = functools.partial(_run_node_noting_its_pid, note_in=notes)
    monkeypatch.setattr(transport, "run_node", body)
    report = orchestrate(cfg, tmp_path / "run", plan)
    return report, {path.name[4:]: int(path.read_text()) for path in notes.glob("pid_*")}


def _alive(pid: int) -> bool:
    """Whether `pid` names a process that has not exited (a zombie has)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def test_a_round_reuses_every_node_that_lived_through_the_last(tmp_path, monkeypatch):
    """Under the benchmark's plan, the second round with a new θ hands its
    links to the first round's live nodes and to new processes only for
    1.1, 2.5 and 2.8, which died; each round's gradient is its own θ's."""
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    plan = FailurePlan(die_before_send=frozenset({NodeId(1, 1), NodeId(2, 5), NodeId(2, 8)}))
    pids = []
    for theta in (np.array([0.5, -1.0, 2.0, 0.25]), np.array([-0.3, 0.7, 0.1, 1.5])):
        cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=5.0)
        report, noted = _pool_round(tmp_path, monkeypatch, cfg, plan)
        assert report.ok, report.error
        expected = engine_reference(tree, 1, spec, theta)
        assert np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)) <= 1e-9
        assert len(noted) == 13
        pids.append(noted)
    first, second = pids
    kept = {node for node, pid in first.items() if second[node] == pid}
    assert kept == set(first) - {"1.1", "2.5", "2.8"}


def test_a_round_on_other_node_inputs_retires_the_last_rounds_nodes(tmp_path, monkeypatch):
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=build_tree(3, 2), s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    report, first = _pool_round(tmp_path, monkeypatch, cfg)
    assert report.ok, report.error
    report, second = _pool_round(tmp_path, monkeypatch, dataclasses.replace(cfg, deadline=6.0))
    assert report.ok, report.error
    assert not set(first.values()) & set(second.values())
    # the host reaped the old nodes before it made the new round's links
    assert [pid for pid in first.values() if Path(f"/proc/{pid}").exists()] == []


def test_an_idle_node_killed_between_rounds_is_replaced(tmp_path, monkeypatch):
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=build_tree(3, 2), s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    report, first = _pool_round(tmp_path, monkeypatch, cfg)
    assert report.ok, report.error
    os.kill(first["2.1"], signal.SIGKILL)
    gone_by = time.monotonic() + 5.0
    while _alive(first["2.1"]) and time.monotonic() < gone_by:
        time.sleep(0.01)
    report, second = _pool_round(tmp_path, monkeypatch, cfg)
    assert report.ok, report.error
    assert len(report.node_reports) == 13
    kept = {node for node, pid in first.items() if second[node] == pid}
    assert kept == set(first) - {"2.1"}


def test_no_node_outlives_a_host_killed_between_rounds(tmp_path, monkeypatch):
    """Every node reads EOF on its control socket once the host is gone,
    since no node holds another node's control end, and exits."""
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=build_tree(3, 2), s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    report, pids = _pool_round(tmp_path, monkeypatch, cfg)
    assert report.ok, report.error
    assert len(pids) == 13
    os.kill(transport._host[0].pid, signal.SIGKILL)
    time.sleep(2.0)
    try:
        assert [pid for pid in pids.values() if _alive(pid)] == []
    finally:
        transport._stop_host()  # reaps the killed host


_BENCHMARK_DEATHS = frozenset({NodeId(1, 1), NodeId(2, 5), NodeId(2, 8)})


def _settled_children(pid: int, count: int, gone=frozenset()) -> set[int]:
    """The children of the process `pid` once it has `count` of them, every
    one alive and none in `gone`, or as they are after 5 s."""
    until = time.monotonic() + 5.0
    while True:
        kids = _children(pid)
        settled = len(kids) == count and all(_alive(kid) for kid in kids) and not kids & gone
        if settled or time.monotonic() >= until:
            return kids
        time.sleep(0.01)


def test_a_round_after_planned_deaths_forks_no_node(tmp_path, monkeypatch):
    """Once it has answered a round under the benchmark's plan, the host
    forks the replacements of 1.1, 2.5 and 2.8 while it waits, so the next
    round, with a new θ, runs on processes that were there before it."""
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    theta = np.array([0.5, -1.0, 2.0, 0.25])
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=5.0)
    plan = FailurePlan(die_before_send=_BENCHMARK_DEATHS)
    report, first = _pool_round(tmp_path, monkeypatch, cfg, plan)
    assert report.ok, report.error
    doomed = {first[str(node)] for node in _BENCHMARK_DEATHS}
    held = _settled_children(transport._host[0].pid, 13, doomed)
    assert len(held) == 13
    theta = np.array([-0.3, 0.7, 0.1, 1.5])
    report, second = _pool_round(tmp_path, monkeypatch, dataclasses.replace(cfg, theta=theta), plan)
    assert report.ok, report.error
    expected = engine_reference(tree, 1, spec, theta)
    assert np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)) <= 1e-9
    assert set(second.values()) <= held


def test_back_to_back_rounds_while_the_host_replaces_nodes(tmp_path, monkeypatch):
    """Five benchmark-plan rounds with no pause, so a round may arrive while
    the host still forks the last one's replacements: each round recovers
    its own θ's gradient, and the host ends with 13 live nodes, none of
    them a process that died before sending."""
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    plan = FailurePlan(die_before_send=_BENCHMARK_DEATHS)
    doomed = set()
    for theta in np.random.default_rng(3).standard_normal((5, 4)):
        cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=5.0)
        report, noted = _pool_round(tmp_path, monkeypatch, cfg, plan)
        assert report.ok, report.error
        expected = engine_reference(tree, 1, spec, theta)
        assert np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)) <= 1e-9
        assert len(report.node_reports) == 13
        assert {report.node_reports[str(node)].status for node in _BENCHMARK_DEATHS} == {"killed"}
        doomed |= {noted[str(node)] for node in _BENCHMARK_DEATHS}
    kids = _settled_children(transport._host[0].pid, 13, doomed)
    assert len(kids) == 13
    assert all(_alive(kid) for kid in kids)
    assert [pid for pid in doomed if _alive(pid)] == []


def test_no_node_outlives_a_host_killed_right_after_a_planned_deaths_round(tmp_path, monkeypatch):
    """The host is SIGKILLed as soon as a benchmark-plan round returns, when
    the nodes that died before sending may still wait for their EOF and
    their replacements may be forking: every one of them reads EOF and
    exits."""
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=build_tree(3, 2), s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    plan = FailurePlan(die_before_send=_BENCHMARK_DEATHS)
    report, pids = _pool_round(tmp_path, monkeypatch, cfg, plan)
    host = transport._host[0].pid
    kids = _children(host)
    os.kill(host, signal.SIGKILL)
    assert report.ok, report.error
    assert len(pids) == 13
    time.sleep(2.0)
    try:
        assert [pid for pid in {*pids.values(), *kids} if _alive(pid)] == []
    finally:
        transport._stop_host()  # reaps the killed host


_SLEEPY_BODY = """\
import time
from pathlib import Path
from codedreduce import transport


def body(node, *args, woke_in, **kwargs):
    if node.layer == 1:
        time.sleep(1.2)
        Path(woke_in, f"woke_{node.index}").touch()
    transport.run_node(node, *args, **kwargs)
"""


def test_no_node_outlives_a_caller_interrupted_mid_round(tmp_path):
    """A caller interrupted while the layer-1 nodes still compute stops its
    host and those nodes with it: no node wakes after the caller has exited."""
    (tmp_path / "sleepy.py").write_text(_SLEEPY_BODY)  # importable from the script's directory
    [stopped] = _run_script(
        tmp_path,
        "import functools, signal, sleepy\n"
        "transport.run_node = functools.partial(sleepy.body, woke_in=sys.argv[1])\n"
        "def interrupt(*_):\n"
        "    raise KeyboardInterrupt\n"
        "signal.signal(signal.SIGALRM, interrupt)\n"
        "signal.setitimer(signal.ITIMER_REAL, 0.6)\n"
        "try:\n"
        "    transport.orchestrate(cfg, sys.argv[1])\n"
        "except KeyboardInterrupt:\n"
        "    pass\n"
        "print(json.dumps([transport._host is None]))\n",
    )
    assert stopped
    time.sleep(1.2)  # past the time an orphaned node would wake
    assert list((tmp_path / "run").glob("woke_*")) == []


def test_a_node_imports_nothing_beyond_its_hosts_start_up_imports():
    """In a fresh interpreter holding only what a round host imports at its
    start, a round's own work (the host's oracle build of each kind, a
    node's memoized build, the decode row, the wire codec and the node's
    report sent on a SOCK_SEQPACKET pair) imports no further module."""
    script = (
        "import json, socket, sys\n"
        "from codedreduce import transport\n"
        "exec(transport._HOST_CODE.rpartition(';')[0])  # the host's start-up, not its serving\n"
        "import numpy as np\n"
        "from codedreduce.allocation import cr_allocate\n"
        "from codedreduce.codes import build_encoding\n"
        "from codedreduce.topology import NodeId, build_tree\n"
        "B = build_encoding(3, 1, 0)\n"
        "shard = cr_allocate(build_tree(3, 2), 1, 60, B=B).local[NodeId(2, 1)]\n"
        "up, parent = socket.socketpair()\n"
        "watch, alive = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)\n"
        "before = set(sys.modules)\n"
        "for kind in ('identity', 'linear', 'logistic'):\n"
        "    oracle = transport.OracleSpec(kind=kind, d=60, p=4, data_seed=2).build()\n"
        "    node_spec = transport.OracleSpec(kind=kind, d=60, p=4, data_seed=2)\n"
        "    assert node_spec.build() is oracle  # the node's build is the host's\n"
        "    total = oracle(np.ones(4), shard)\n"
        "total = transport._combining_row(B, (0, 2))[0] * total\n"
        "up.sendall(transport.encode_message(transport.MSG_GRADIENT, NodeId(2, 1), total))\n"
        "assert transport.read_message(parent).sender_index == 1\n"
        "transport._send_report(alive, transport.NodeReport('2.1', 'ok', [], []))\n"
        "assert json.loads(watch.recv(1 << 16))['status'] == 'ok'\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": _SRC}
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert out.stdout.split() == []


def test_each_report_file_holds_the_json_of_its_returned_report(tmp_path, monkeypatch):
    """A report file is the bytes its node sent, rewritten only by the
    discarded rule or made from an exit code: each one reads back as
    `json.dumps` of the returned report, byte for byte."""
    monkeypatch.setattr(transport, "run_node", _run_node_unreadable_shard)  # 2.1 raises
    spec = OracleSpec(kind="identity", d=15, p=15)
    cfg = TransportConfig(tree=build_tree(3, 2), s=1, oracle=spec, theta=np.zeros(15), deadline=5.0)
    plan = FailurePlan(  # 1.3 times out holding 2.9's gradient
        never_start=frozenset({NodeId(2, 7)}),
        die_before_send=frozenset({NodeId(2, 5)}),
        kill_after={NodeId(2, 8): 0.0},
    )
    report = orchestrate(cfg, tmp_path / "run", plan)
    assert report.ok, report.error
    statuses = {r.status for r in report.node_reports.values()}
    assert {"ok", "discarded", "killed", "error", "timeout"} <= statuses
    assert report.node_reports["2.9"].detail.startswith("parent 1.3 reports timeout")
    assert len(list((tmp_path / "run").glob("node_*.json"))) == 12
    for name, node_report in report.node_reports.items():
        written = (tmp_path / "run" / f"node_{name.replace('.', '_')}.json").read_bytes()
        assert written == json.dumps(node_report.__dict__).encode(), name


_GHOST = """\
from dataclasses import dataclass
from pathlib import Path

from codedreduce import transport

HERE = Path(__file__).parent
if (HERE / "refuse_import").exists():
    raise ImportError("this module refuses to load")


def body(node, *args, **kwargs):
    (HERE / f"ran_{node}").touch()
    transport.run_node(node, *args, **kwargs)


@dataclass(frozen=True)
class RefusingSpec(transport.OracleSpec):
    def build(self):
        if (HERE / "refuse_build").exists():
            raise ValueError("this oracle refuses to build")
        return transport.OracleSpec.build(self)
"""


def test_the_host_is_sent_the_inputs_again_whenever_it_may_not_hold_them(tmp_path, monkeypatch):
    """A warm round on equal inputs sends no node inputs and no sys.path.
    A round after the host died, after a round the host refused (a body it
    cannot load, an oracle that does not build; each retried on the refused
    round's own inputs once the cause is gone) or after a sys.path entry
    was added sends them again, and runs on the caller's inputs."""
    ghost_dir = tmp_path / "ghost"
    ghost_dir.mkdir()
    (ghost_dir / "ghost_inputs.py").write_text(_GHOST)
    monkeypatch.syspath_prepend(str(ghost_dir))
    import ghost_inputs

    sent = []
    real_send = transport.connection.Connection.send

    def spy(conn, obj):
        sent.append(obj)  # a round's one message: (sys.path or None, inputs or None, plan)
        return real_send(conn, obj)

    monkeypatch.setattr(transport.connection.Connection, "send", spy)
    tree = build_tree(3, 2)
    thetas = iter(np.random.default_rng(5).standard_normal((12, 4)))

    def run(spec, fresh):
        theta = next(thetas)
        cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=5.0)
        report = orchestrate(cfg, tmp_path / "run")
        assert report.ok, report.error
        expected = engine_reference(tree, 1, spec, theta)
        assert np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)) <= 1e-9
        path, inputs, _ = sent[-1]
        assert (path is not None, inputs is not None) == fresh
        return path

    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    transport._stop_host()  # a new host is sent both
    run(spec, fresh=(True, True))
    run(spec, fresh=(False, False))

    host = transport._host[0]
    os.kill(host.pid, signal.SIGKILL)
    host.wait()
    run(spec, fresh=(True, True))

    monkeypatch.setattr(transport, "run_node", ghost_inputs.body)
    (ghost_dir / "refuse_import").touch()
    refused = orchestrate(TransportConfig(tree, 1, spec, next(thetas), 5.0), tmp_path / "run")
    assert refused.error.startswith("aborted: round host: ImportError: this module refuses")
    (ghost_dir / "refuse_import").unlink()
    run(spec, fresh=(True, True))
    assert (ghost_dir / "ran_0.1").exists()  # the round ran the caller's body

    other = ghost_inputs.RefusingSpec(kind="linear", d=60, p=4, data_seed=3)
    (ghost_dir / "refuse_build").touch()
    refused = orchestrate(TransportConfig(tree, 1, other, next(thetas), 5.0), tmp_path / "run")
    assert refused.error == "aborted: round host: ValueError: this oracle refuses to build"
    (ghost_dir / "refuse_build").unlink()
    run(other, fresh=(True, True))  # the gradient is data seed 3's, not 2's
    run(other, fresh=(False, False))

    monkeypatch.syspath_prepend(str(tmp_path))
    assert run(other, fresh=(True, False)) == sys.path
    run(other, fresh=(False, False))


def _warm_round_then(tmp_path, monkeypatch, cfg, plan):
    """A clean warm round and a 0.3 s pause, so the host has pre-linked the
    next round, then a round under `plan`; its report and elapsed time,
    and the pids the nodes noted in both rounds."""
    _pool_round(tmp_path, monkeypatch, cfg)
    report, before = _pool_round(tmp_path, monkeypatch, cfg)
    assert report.ok, report.error
    time.sleep(0.3)
    start = time.monotonic()
    report, after = _pool_round(tmp_path, monkeypatch, cfg, plan)
    return report, time.monotonic() - start, before, after


@pytest.mark.parametrize(
    "plan",
    [
        FailurePlan(never_start=frozenset({NodeId(2, 4)})),
        FailurePlan(never_start=frozenset({NodeId(1, 2)})),
        FailurePlan(die_before_send=frozenset({NodeId(1, 1)})),
        FailurePlan(kill_after={NodeId(2, 9): 0.0}),
    ],
    ids=["never_start_leaf", "never_start_parent", "die_before_send_parent", "kill_after_leaf"],
)
def test_a_plan_entry_on_a_pre_linked_node(tmp_path, monkeypatch, plan):
    """Plan entries on nodes that hold the next round's links before it
    arrives end as they do on nodes handed their links in the round, and
    the same host then serves a clean round."""
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    theta = np.array([0.5, -1.0, 2.0, 0.25])
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=5.0)
    report, elapsed, before, after = _warm_round_then(tmp_path, monkeypatch, cfg, plan)
    assert report.ok, report.error
    expected = engine_reference(tree, 1, spec, theta)
    assert np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)) <= 1e-9
    assert elapsed < cfg.deadline / 2
    reports = report.node_reports
    for node in plan.never_start:
        parent = NodeId(node.layer - 1, (node.index - 1) // tree.n + 1)
        assert str(node) not in reports
        assert str(node) in reports[str(parent)].missing
        for kid in tree.children(node):
            assert reports[str(kid)].status == "connect_failed"
    for node in plan.die_before_send:
        assert reports[str(node)].status == "killed"
        for kid in tree.children(node):
            assert reports[str(kid)].status == "connect_failed"
    for node in plan.kill_after:
        assert reports[str(node)].status == "killed"
        assert "SIGTERM" in reports[str(node)].detail
    assert len(reports) == 13 - len(plan.never_start)
    # no node was forked for the round: every one that ran held its links already
    assert {after[node] for node in after} <= set(before.values())
    report, _ = _pool_round(tmp_path, monkeypatch, cfg)
    assert report.ok, report.error
    assert len(report.node_reports) == 13
    assert np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)) <= 1e-9


def test_an_idle_parent_killed_after_the_pre_link_is_replaced(tmp_path, monkeypatch):
    """SIGKILL on parent 1.2 while it holds the next round's links, whose
    children then find their parent link closed: the next round is ok,
    with 13 reports and a new process for 1.2 alone."""
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    theta = np.array([0.5, -1.0, 2.0, 0.25])
    cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=5.0)
    report, first = _pool_round(tmp_path, monkeypatch, cfg)
    assert report.ok, report.error
    time.sleep(0.3)
    os.kill(first["1.2"], signal.SIGKILL)
    time.sleep(0.3)
    expected = engine_reference(tree, 1, spec, theta)
    for _ in range(2):  # and a report of a link that failed while idle is read in neither
        report, second = _pool_round(tmp_path, monkeypatch, cfg)
        assert report.ok, report.error
        assert len(report.node_reports) == 13
        assert {r.status for r in report.node_reports.values()} == {"ok", "discarded"}
        assert np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)) <= 1e-9
        assert {node for node, pid in first.items() if second[node] != pid} == {"1.2"}


def test_back_to_back_rounds_land_while_the_host_pre_links(tmp_path, monkeypatch):
    """Twenty benchmark-plan rounds with no pause, so rounds keep arriving
    while the host replaces nodes or pre-links: each recovers its own θ's
    gradient."""
    tree = build_tree(3, 2)
    spec = OracleSpec(kind="linear", d=60, p=4, data_seed=2)
    plan = FailurePlan(die_before_send=_BENCHMARK_DEATHS)
    for theta in np.random.default_rng(4).standard_normal((20, 4)):
        cfg = TransportConfig(tree=tree, s=1, oracle=spec, theta=theta, deadline=5.0)
        report, _ = _pool_round(tmp_path, monkeypatch, cfg, plan)
        assert report.ok, report.error
        expected = engine_reference(tree, 1, spec, theta)
        assert np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)) <= 1e-9
        assert {report.node_reports[str(node)].status for node in _BENCHMARK_DEATHS} == {"killed"}
