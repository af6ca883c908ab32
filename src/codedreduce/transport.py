"""One coded aggregation round as real local processes over socket pairs.

Wire format (all integers little-endian):

    magic        4 bytes, b"CRD1"
    msg_type     1 byte   (0 = model broadcast, 1 = coded gradient)
    sender_layer u16
    sender_index u32
    payload_len  u32      (number of doubles)
    payload      payload_len * 8 bytes, IEEE-754 doubles

The tree is fixed, so the orchestrator makes one connected socket pair per
tree edge before any node starts and hands each node its parent end and its
child ends; no node process opens a socket of its own, and a send to a
parent that has closed its end fails at once.  The orchestrator is the
master's parent: it writes the model into the master's link before any node
starts and reads the recovered gradient from it.  Every node reads the model
from its parent, sends it down every child link, computes its own coded
gradient, collects the first n-s gradient messages (later arrivals are
dropped with the links), combines them with the decode row of the realized
survivor set, adds its local term, and sends the result to its parent.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import selectors
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Mapping

import numpy as np

from .allocation import cr_allocate
from .codes import EncodingMatrix, build_encoding
from .engine import _combining_row
from .ml import _RESIDUALS, generate_synthetic, make_oracle
from .topology import MASTER, NodeId, RegularTree

__all__ = [
    "MAGIC",
    "MSG_MODEL",
    "MSG_GRADIENT",
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

    def __post_init__(self) -> None:
        kinds = ("identity", *_RESIDUALS)
        if self.kind not in kinds:
            raise ValueError(f"unknown oracle kind {self.kind!r}, expected one of {kinds}")
        if self.kind != "identity" and self.p < 1:
            raise ValueError(f"oracle kind {self.kind!r} needs p >= 1 features, got p={self.p}")

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

    def __post_init__(self) -> None:
        if not (isfinite(self.deadline) and self.deadline > 0):
            raise ValueError(f"transport deadline must be finite and positive, got {self.deadline}")
        theta, kind, p = np.asarray(self.theta), self.oracle.kind, self.oracle.p
        if kind != "identity" and not (theta.shape == (p,) and np.isfinite(theta).all()):
            raise ValueError(
                f"theta for the {kind} oracle must be a finite vector of shape ({p},),"
                f" got {theta!r}"
            )


@dataclass(frozen=True)
class FailurePlan:
    """never_start: the process is not launched at all; die_before_send: it
    starts, reads the model (its parent queues it on the link however late
    the child starts), then dies before computing; kill_after: the
    orchestrator terminates it that many (finite, >= 0) seconds in."""

    never_start: frozenset = frozenset()
    die_before_send: frozenset = frozenset()
    kill_after: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        bad = {str(node): t for node, t in self.kill_after.items() if not (isfinite(t) and t >= 0)}
        if bad:
            raise ValueError(f"kill_after delays must be finite and >= 0, got {bad}")


@dataclass
class NodeReport:
    node: str
    # ok | discarded | timeout | connect_failed | killed | error, where
    # discarded means the parent closed the link without using the gradient,
    # connect_failed that the parent was gone before the model arrived,
    # killed the failure plan or a signal, and error that the node raised
    # or exited without a report; detail says why
    status: str
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
    down: tuple[socket.socket, ...],
    kids: tuple[NodeId, ...],
    need: int,
    deadline_at: float,
) -> tuple[dict[int, np.ndarray], str]:
    """Gather the first `need` gradients from the child links, keyed by
    position (arrival order wins), then close every link.  A link that
    breaks, or whose message is not a gradient naming its child in `kids`,
    counts as that child failing.  It stops at the quorum, at the deadline,
    or once every link has delivered or failed.  Returns (payloads,
    short_of_quorum), the reason it stopped short of the quorum or ""."""
    sel = selectors.DefaultSelector()
    for pos, conn in enumerate(down):
        sel.register(conn, selectors.EVENT_READ, pos)
    got: dict[int, np.ndarray] = {}
    try:
        while len(got) < need and sel.get_map():
            budget = deadline_at - time.monotonic()
            if budget <= 0:
                break
            for key, _ in sel.select(timeout=budget):
                try:
                    msg = read_message(key.fileobj)
                except (OSError, ValueError):
                    msg = None
                sel.unregister(key.fileobj)
                gradient = msg is not None and msg.msg_type == MSG_GRADIENT
                sender = NodeId(msg.sender_layer, msg.sender_index) if gradient else None
                if sender == kids[key.data] and len(got) < need:
                    got[key.data] = msg.payload
        reason = "deadline passed" if sel.get_map() else "no child link left"
        short_of_quorum = "" if len(got) >= need else reason
    finally:
        sel.close()
        for conn in down:
            conn.close()  # late arrivals are dropped with the link
    return got, short_of_quorum


def run_node(
    node: NodeId,
    cfg: TransportConfig,
    shard: tuple,
    B: EncodingMatrix,
    up: socket.socket,
    down: tuple[socket.socket, ...],
    run_dir: str,
    die_before_send: bool = False,
) -> None:
    """Body of one node process: one JSON report, written in the `finally`.

    `up` is the link to the parent (at the master, to the orchestrator) and
    `down` the links to the children in position order (empty at a leaf).
    Each outcome sets the status where it becomes known and returns.  The
    model is read from `up`; the running total, local term (0.0 for an
    empty shard, as at the master) plus decoded children, goes back up it.
    The process then exits with code 0 at once; an exception is reported
    as error, with its type and text, and re-raised (exit code 1).
    """
    need = cfg.tree.n - cfg.s
    report = NodeReport(node=str(node), status="error", received_from=[], missing=[])
    try:
        deadline_at = time.monotonic() + cfg.deadline
        try:
            up.settimeout(cfg.deadline)
            model_msg = read_message(up)
            if model_msg.msg_type != MSG_MODEL:
                raise ValueError(f"expected model broadcast, got type {model_msg.msg_type}")
        except (OSError, ValueError) as err:
            report.status, report.detail = "connect_failed", str(err)
            return
        theta = model_msg.payload

        if die_before_send:
            report.status, report.detail = "killed", "failure plan: died after model handshake"
            return

        model_bytes = encode_message(MSG_MODEL, node, theta)
        for conn in down:
            try:
                conn.sendall(model_bytes)
            except OSError:
                pass  # that child is already gone; its link reads as failed
        total = cfg.oracle.build()(theta, shard) if shard else 0.0

        if down:
            kids = cfg.tree.children(node)
            got, short_of_quorum = _collect_gradients(down, kids, need, deadline_at)
            report.received_from = [str(kids[pos]) for pos in sorted(got)]
            report.missing = [str(kid) for pos, kid in enumerate(kids) if pos not in got]
            if short_of_quorum:
                report.status = "timeout"
                report.detail = (
                    f"parent {node} got {len(got)}/{need} gradient messages, {short_of_quorum}"
                    f" (deadline {cfg.deadline}s); missing children {report.missing}"
                )
                return
            positions = tuple(sorted(got))  # child-position order, as in the engine
            row = _combining_row(B, positions)
            total = total + sum(row[pos] * got[pos] for pos in positions)

        try:
            up.sendall(encode_message(MSG_GRADIENT, node, total))
            report.status = "ok"
        except OSError as err:
            # Parent stopped waiting without us and closed the link.
            report.status, report.detail = "discarded", f"upward send failed: {err}"
    except Exception as err:
        report.status, report.detail = "error", f"{type(err).__name__}: {err}"
        raise
    finally:
        for conn in (up, *down):
            conn.close()
        _write_report(Path(run_dir), report)
        if report.status != "error":
            os._exit(0)


def orchestrate(cfg: TransportConfig, run_dir, plan: FailurePlan = FailurePlan()):
    """Connect every tree edge, spawn one process per node, apply the
    failure plan, and collect the master's gradient plus every node's report.

    The orchestrator is the master's parent: it writes the model into the
    master's link before any node starts, then reads the master's gradient
    from it by the join deadline and writes `master_gradient.csv` on receipt.
    A node's link ends go to its own process only: the orchestrator closes
    its copies right after that start, and those of a node that never starts
    before the read, so the reads across that node's links fail at once.  A
    started node that left no report gets one from its exit code: killed by a
    signal, else error.  A child that reports ok but that its parent lists as
    missing is rewritten as discarded.  A plan entry that is not a `NodeId` of
    the tree is refused before any link or process is made."""
    tree = cfg.tree
    for node in (*plan.never_start, *plan.die_before_send, *plan.kill_after):
        if not tree.contains(node):
            raise ValueError(
                f"failure plan names node {node}, not in the ({tree.n},{tree.L})-regular tree"
            )
    run_path = Path(run_dir)
    run_path.mkdir(parents=True, exist_ok=True)
    for stale in run_path.glob("node_*.json"):
        stale.unlink()
    B = build_encoding(tree.n, cfg.s, cfg.alloc_seed)
    assignment = cr_allocate(tree, cfg.s, cfg.oracle.d, B=B)
    out_path = run_path / "master_gradient.csv"
    out_path.unlink(missing_ok=True)

    procs = {}
    top, bottom = socket.socketpair()  # the orchestrator's link to the master
    edges = {MASTER: (top, bottom)}  # node -> its parent link's (parent end, child end)
    with top:
        try:
            for worker in tree.workers():
                edges[worker] = socket.socketpair()
            model = encode_message(MSG_MODEL, MASTER, cfg.theta)
            top.setblocking(False)
            sent = top.send(model)  # the link's buffer holds it until the master reads
            for node, (_, up) in edges.items():
                if node in plan.never_start:
                    continue
                shard = assignment.local[node] if node != MASTER else ()
                down = tuple(edges[kid][0] for kid in tree.children(node))
                proc = mp.get_context("spawn").Process(
                    target=run_node,
                    args=(node, cfg, shard, B, up, down, str(run_path)),
                    kwargs={"die_before_send": node in plan.die_before_send},
                    name=f"node-{node}",
                )
                proc.start()
                procs[node] = proc
                for end in (up, *down):  # the node holds its own copies
                    end.close()
        finally:  # and those of nodes that never start
            for end in {end for pair in edges.values() for end in pair} - {top}:
                end.close()

        timers = []
        for node, delay in plan.kill_after.items():
            if node in procs:
                timer = threading.Timer(delay, procs[node].terminate)
                timer.start()
                timers.append(timer)

        join_deadline = time.monotonic() + cfg.deadline + 20.0
        try:
            top.settimeout(join_deadline - time.monotonic())
            top.sendall(model[sent:])  # any part of the model the buffer did not take
            msg = read_message(top)
        except (OSError, ValueError):
            msg = None
    gradient = msg.payload if msg is not None and msg.msg_type == MSG_GRADIENT else None
    if gradient is not None:
        out_path.write_text(",".join(repr(float(v)) for v in gradient) + "\n")

    for proc in procs.values():
        proc.join(timeout=max(0.1, join_deadline - time.monotonic()))
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    for timer in timers:
        timer.cancel()

    paths = sorted(run_path.glob("node_*.json"))
    reports = {r.node: r for r in (NodeReport(**json.loads(path.read_text())) for path in paths)}
    for name, code in ((str(node), proc.exitcode) for node, proc in procs.items()):
        if name not in reports:  # terminated, or died before writing one
            if (code or 0) < 0:
                status, detail = "killed", f"terminated by {signal.Signals(-code).name}"
            else:
                status, detail = "error", f"exited with code {code}"
            reports[name] = NodeReport(name, status, [], [], f"{detail}, no report")
            _write_report(run_path, reports[name])
    for parent in reports.values():
        outcome = "timed out" if parent.status == "timeout" else "decoded"
        for child in (reports.get(name) for name in parent.missing):
            if child is not None and child.status == "ok":  # sent, but never read
                child.status = "discarded"
                child.detail = f"parent {parent.node} {outcome} without its gradient"
                _write_report(run_path, child)
    timed_out = sorted(
        (r.node for r in reports.values() if r.status == "timeout"),
        key=lambda name: tuple(int(tok) for tok in name.split(".")),
        reverse=True,  # deepest parent first: the root cause of a cascade
    )

    if gradient is not None:
        return RunReport(True, gradient, "", reports, timed_out)
    if timed_out:
        error = f"aborted: parent {timed_out[0]} timed out waiting for its children"
    else:
        error = "aborted: master produced no output"
    return RunReport(False, None, error, reports, timed_out)
