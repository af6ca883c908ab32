"""One coded aggregation round as real local processes over TCP.

Wire format (all integers little-endian):

    magic        4 bytes, b"CRD1"
    msg_type     1 byte   (0 = model broadcast, 1 = coded gradient, 2 = shutdown)
    sender_layer u16
    sender_index u32
    payload_len  u32      (number of doubles)
    payload      payload_len * 8 bytes, IEEE-754 doubles

The orchestrator opens every parent's listener on a local port before any
node starts and hands it to its owner; a child connects upward once, so a
refused or reset connection means its parent is gone.  A parent sends the
current model down each accepted connection, computes its own coded
gradient, collects the first n-s gradient messages (later arrivals are
drained and discarded), decodes on the realized survivor set with the
engine's combine step, adds its local term, and sends the result to its
own parent.  The master writes the recovered gradient to a CSV file.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .allocation import cr_allocate
from .codes import EncodingMatrix, build_encoding
from .engine import _decode
from .ml import generate_synthetic, make_oracle
from .topology import MASTER, NodeId, RegularTree

__all__ = [
    "MAGIC",
    "MSG_MODEL",
    "MSG_GRADIENT",
    "MSG_SHUTDOWN",
    "WireMessage",
    "OracleSpec",
    "TransportConfig",
    "FailurePlan",
    "NodeReport",
    "RunReport",
    "encode_message",
    "decode_message",
    "read_message",
    "run_node",
    "orchestrate",
]

MAGIC = b"CRD1"
MSG_MODEL = 0
MSG_GRADIENT = 1
MSG_SHUTDOWN = 2

_HEADER = struct.Struct("<4sBHII")


@dataclass(frozen=True)
class WireMessage:
    msg_type: int
    sender_layer: int
    sender_index: int
    payload: np.ndarray = field(repr=False)


def encode_message(msg_type: int, sender: NodeId, payload) -> bytes:
    vec = np.asarray(payload, dtype="<f8")
    header = _HEADER.pack(MAGIC, msg_type, sender.layer, sender.index, vec.size)
    return header + vec.tobytes()


def decode_message(data: bytes) -> WireMessage:
    magic, msg_type, layer, index, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if len(data) != _HEADER.size + 8 * count:
        raise ValueError(f"expected {count} doubles, got {len(data) - _HEADER.size} bytes")
    payload = np.frombuffer(data, dtype="<f8", count=count, offset=_HEADER.size)
    return WireMessage(msg_type, layer, index, payload.copy())


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    buf = b""
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            raise ConnectionError("peer closed mid-message")
        buf += chunk
    return buf


def read_message(sock: socket.socket) -> WireMessage:
    header = _recv_exact(sock, _HEADER.size)
    count = _HEADER.unpack(header)[-1]
    return decode_message(header + _recv_exact(sock, count * 8))


@dataclass(frozen=True)
class OracleSpec:
    """Enough to rebuild the gradient oracle inside a worker process."""

    kind: str  # identity | linear | logistic
    d: int
    p: int
    data_seed: int = 0
    noise_scale: float = 1.0

    def build(self):
        if self.kind == "identity":
            d = self.d

            def oracle(theta, slices):
                out = np.zeros(d)
                for s in slices:
                    out[s.start : s.stop] += s.weight
                return out

            return oracle
        dataset, _ = generate_synthetic(self.d, self.p, self.data_seed, self.noise_scale)
        return make_oracle(self.kind, dataset)


@dataclass(frozen=True)
class TransportConfig:
    tree: RegularTree
    s: int
    oracle: OracleSpec
    theta: np.ndarray = field(repr=False)
    deadline: float = 30.0
    alloc_seed: int = 0


@dataclass(frozen=True)
class FailurePlan:
    """never_start: the process is not launched at all; die_before_send: it
    starts, completes the model handshake, then dies before computing;
    kill_after: the orchestrator terminates it that many seconds in."""

    never_start: frozenset = frozenset()
    die_before_send: frozenset = frozenset()
    kill_after: Mapping = field(default_factory=dict)


@dataclass
class NodeReport:
    node: str
    status: str  # ok | discarded | timeout | connect_failed | killed | error
    received_from: list
    missing: list
    detail: str = ""


@dataclass
class RunReport:
    ok: bool
    gradient: np.ndarray | None
    error: str
    node_reports: dict
    timed_out_parents: list  # deepest (most causal) parent first


def _write_report(run_dir: Path, report: NodeReport) -> None:
    path = run_dir / f"node_{report.node.replace('.', '_')}.json"
    path.write_text(json.dumps(report.__dict__))


def _collect_gradients(
    listener: socket.socket,
    model_bytes: bytes,
    need: int,
    deadline_at: float,
) -> tuple[dict[int, np.ndarray], bool]:
    """Accept child connections, push the model down each, and gather the
    first `need` gradient payloads keyed by sender index (arrival order
    wins).  Returns (payloads, timed_out)."""
    sel = selectors.DefaultSelector()
    sel.register(listener, selectors.EVENT_READ, "accept")
    conns: list[socket.socket] = []
    got: dict[int, np.ndarray] = {}
    timed_out = False
    try:
        while len(got) < need:
            budget = deadline_at - time.monotonic()
            if budget <= 0:
                timed_out = True
                break
            for key, _ in sel.select(timeout=min(budget, 0.25)):
                if key.data == "accept":
                    conn, _addr = listener.accept()
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    conn.sendall(model_bytes)
                    conns.append(conn)
                    sel.register(conn, selectors.EVENT_READ, "child")
                    continue
                conn = key.fileobj
                try:
                    msg = read_message(conn)
                except (ConnectionError, ValueError, OSError):
                    sel.unregister(conn)
                    conn.close()
                    conns.remove(conn)
                    continue
                if msg.msg_type == MSG_GRADIENT and len(got) < need:
                    got[msg.sender_index] = msg.payload
    finally:
        sel.close()
        for conn in conns:
            conn.close()  # late arrivals are dropped with the connection
    return got, timed_out


def run_node(
    node: NodeId,
    cfg: TransportConfig,
    shard: tuple,
    B: EncodingMatrix,
    listener: socket.socket | None,
    parent_port: int | None,
    run_dir: str,
    out_path: str,
    die_before_send: bool = False,
) -> None:
    """Body of one node process; writes a JSON report before exiting.

    A parent gets its already-open `listener`; every node but the master
    connects once to `parent_port`.  The master (layer 0) only aggregates
    and writes the recovered gradient to `out_path` as a one-line CSV
    vector.  Exit codes: 0 ok/discarded, 3 planned death, 4 timeout,
    5 connectivity failure.
    """
    run_path = Path(run_dir)
    tree, s = cfg.tree, cfg.s
    need = tree.n - s
    is_master = node == MASTER
    is_leaf = not is_master and tree.is_leaf(node)
    report = NodeReport(node=str(node), status="error", received_from=[], missing=[])
    parent_sock = None
    try:
        deadline_at = time.monotonic() + cfg.deadline

        if is_master:
            theta = np.asarray(cfg.theta, dtype=float)
        else:
            # The parent's listener may exist before its owner has started,
            # so the model read may wait out the whole deadline.
            parent_sock = socket.create_connection(
                ("127.0.0.1", parent_port), timeout=deadline_at - time.monotonic()
            )
            parent_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            model_msg = read_message(parent_sock)
            if model_msg.msg_type != MSG_MODEL:
                raise ValueError(f"expected model broadcast, got type {model_msg.msg_type}")
            theta = model_msg.payload

        if die_before_send:
            report.status = "killed"
            report.detail = "failure plan: died after model handshake"
            _write_report(run_path, report)
            os._exit(3)

        oracle = cfg.oracle.build()
        local = None if is_master else oracle(theta, shard)

        if is_leaf:
            message = encode_message(MSG_GRADIENT, node, local)
        else:
            model_bytes = encode_message(MSG_MODEL, node, theta)
            kids = tree.children(node)
            got, timed_out = _collect_gradients(listener, model_bytes, need, deadline_at)
            report.received_from = [f"{node.layer + 1}.{idx}" for idx in sorted(got)]
            report.missing = [str(c) for c in kids if c.index not in got]
            if timed_out:
                report.status = "timeout"
                report.detail = (
                    f"parent {node} got {len(got)}/{need} gradient messages "
                    f"within {cfg.deadline}s; missing children {report.missing}"
                )
                _write_report(run_path, report)
                os._exit(4)
            order = sorted(got)  # child-position order, as in the engine
            positions = [tree.child_position(NodeId(node.layer + 1, idx)) for idx in order]
            combined = _decode(B, positions, [got[idx] for idx in order])
            if is_master:
                Path(out_path).write_text(",".join(repr(float(v)) for v in combined) + "\n")
                report.status = "ok"
                _write_report(run_path, report)
                return
            message = encode_message(MSG_GRADIENT, node, combined + local)

        try:
            parent_sock.sendall(message)
            report.status = "ok"
        except OSError as err:
            # Parent reached quorum without us and closed the connection.
            report.status = "discarded"
            report.detail = f"upward send failed: {err}"
        _write_report(run_path, report)
    except (ConnectionError, OSError, ValueError) as err:
        report.status = "connect_failed"
        report.detail = str(err)
        _write_report(run_path, report)
        os._exit(5)
    finally:
        if parent_sock is not None:
            parent_sock.close()
        if listener is not None:
            listener.close()


def orchestrate(cfg: TransportConfig, run_dir, plan: FailurePlan = FailurePlan()):
    """Open every parent's listener, spawn one process per node, apply the
    failure plan, and collect the master's output plus every node's report.

    A parent's listener goes to its own process only; the listener of a
    parent that never starts is closed before the join, so its children
    are refused at once instead of waiting out the deadline."""
    run_path = Path(run_dir)
    run_path.mkdir(parents=True, exist_ok=True)
    for stale in run_path.glob("node_*.json"):
        stale.unlink()
    tree = cfg.tree
    B = build_encoding(tree.n, cfg.s, cfg.alloc_seed)
    assignment = cr_allocate(tree, cfg.s, cfg.oracle.d, B=B)
    listeners = {
        v: socket.create_server(("127.0.0.1", 0), backlog=tree.n + 2)
        for v in tree.parents()
    }
    ports = {v: sock.getsockname()[1] for v, sock in listeners.items()}
    out_path = run_path / "master_gradient.csv"
    if out_path.exists():
        out_path.unlink()

    ctx = mp.get_context("spawn")
    procs = {}
    try:
        for node in [MASTER] + list(tree.workers()):
            if node in plan.never_start:
                continue
            if node == MASTER:
                shard, parent_port = (), None
            else:
                shard, parent_port = assignment.local[node], ports[tree.parent(node)]
            listener = listeners.get(node)
            proc = ctx.Process(
                target=run_node,
                args=(node, cfg, shard, B, listener, parent_port, str(run_path), str(out_path)),
                kwargs={"die_before_send": node in plan.die_before_send},
                name=f"node-{node}",
            )
            proc.start()
            procs[node] = proc
            if listener is not None:
                listener.close()  # the spawned owner holds its own descriptor
    finally:
        for listener in listeners.values():  # and those of parents that never start
            listener.close()

    timers = []
    for node, delay in plan.kill_after.items():
        if node in procs:
            timer = threading.Timer(delay, procs[node].terminate)
            timer.start()
            timers.append(timer)

    join_deadline = time.monotonic() + cfg.deadline + 20.0
    for proc in procs.values():
        proc.join(timeout=max(0.1, join_deadline - time.monotonic()))
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    for timer in timers:
        timer.cancel()

    reports = {}
    for path in sorted(run_path.glob("node_*.json")):
        payload = json.loads(path.read_text())
        reports[payload["node"]] = NodeReport(**payload)
    timed_out = sorted(
        (r.node for r in reports.values() if r.status == "timeout"),
        key=lambda name: tuple(int(tok) for tok in name.split(".")),
        reverse=True,  # deepest parent first: the root cause of a cascade
    )

    if out_path.exists():
        gradient = np.array([float(tok) for tok in out_path.read_text().strip().split(",")])
        return RunReport(True, gradient, "", reports, timed_out)
    if timed_out:
        error = f"aborted: parent {timed_out[0]} timed out waiting for its children"
    else:
        error = "aborted: master produced no output"
    return RunReport(False, None, error, reports, timed_out)
