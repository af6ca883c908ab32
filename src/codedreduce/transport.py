"""One coded aggregation round as real local processes over TCP.

Wire format (all integers little-endian):

    magic        4 bytes, b"CRD1"
    msg_type     1 byte   (0 = model broadcast, 1 = coded gradient, 2 = shutdown)
    sender_layer u16
    sender_index u32
    payload_len  u32      (number of doubles)
    payload      payload_len * 8 bytes, IEEE-754 doubles

The tree is fixed, so the orchestrator connects one localhost TCP pair per
tree edge before any node starts and hands each node its parent end and its
child ends; no node process opens a socket of its own.  A parent sends the
current model down every child link as soon as it has it, computes its own
coded gradient, collects the first n-s gradient messages (later arrivals
are dropped with the links), combines them with the decode row of the
realized survivor set, adds its local term, and sends the result to its
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
from .engine import _combining_row
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
    starts, reads the model (its parent queues it on the link however late
    the child starts), then dies before computing; kill_after: the
    orchestrator terminates it that many seconds in."""

    never_start: frozenset = frozenset()
    die_before_send: frozenset = frozenset()
    kill_after: Mapping = field(default_factory=dict)


@dataclass
class NodeReport:
    node: str
    # ok | discarded | timeout | connect_failed | killed | error, where
    # connect_failed means the parent was gone before the model arrived
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
) -> tuple[dict[int, np.ndarray], bool]:
    """Gather the first `need` gradients from the child links, keyed by
    position (arrival order wins), then close every link.  A link that
    breaks, or whose gradient names a node other than its child in `kids`,
    counts as that child failing.  Returns (payloads, timed_out)."""
    sel = selectors.DefaultSelector()
    for pos, conn in enumerate(down):
        sel.register(conn, selectors.EVENT_READ, pos)
    got: dict[int, np.ndarray] = {}
    timed_out = False
    try:
        while len(got) < need:
            budget = deadline_at - time.monotonic()
            if budget <= 0:
                timed_out = True
                break
            for key, _ in sel.select(timeout=min(budget, 0.25)):
                try:
                    msg = read_message(key.fileobj)
                except (OSError, ValueError):
                    msg = None
                if msg is not None and msg.msg_type != MSG_GRADIENT:
                    continue
                sel.unregister(key.fileobj)
                sender = None if msg is None else NodeId(msg.sender_layer, msg.sender_index)
                if sender == kids[key.data] and len(got) < need:
                    got[key.data] = msg.payload
    finally:
        sel.close()
        for conn in down:
            conn.close()  # late arrivals are dropped with the link
    return got, timed_out


def run_node(
    node: NodeId,
    cfg: TransportConfig,
    shard: tuple,
    B: EncodingMatrix,
    up: socket.socket | None,
    down: tuple[socket.socket, ...],
    run_dir: str,
    out_path: str,
    die_before_send: bool = False,
) -> None:
    """Body of one node process; writes a JSON report before exiting.

    `up` is the link to the parent (None at the master) and `down` the
    links to the children in position order (empty at a leaf).  A worker
    whose parent is gone before the model arrives reports connect_failed.
    The master (layer 0) only aggregates and writes the recovered gradient
    to `out_path` as a one-line CSV vector.  Exit codes: 0 ok/discarded,
    3 planned death, 4 timeout, 5 connectivity failure.
    """
    run_path = Path(run_dir)
    tree, s = cfg.tree, cfg.s
    need = tree.n - s
    is_master = node == MASTER
    report = NodeReport(node=str(node), status="error", received_from=[], missing=[])
    try:
        deadline_at = time.monotonic() + cfg.deadline

        if is_master:
            theta = np.asarray(cfg.theta, dtype=float)
        else:
            up.settimeout(cfg.deadline)
            model_msg = read_message(up)
            if model_msg.msg_type != MSG_MODEL:
                raise ValueError(f"expected model broadcast, got type {model_msg.msg_type}")
            theta = model_msg.payload

        if die_before_send:
            report.status = "killed"
            report.detail = "failure plan: died after model handshake"
            _write_report(run_path, report)
            os._exit(3)

        model_bytes = encode_message(MSG_MODEL, node, theta)
        for conn in down:
            try:
                conn.sendall(model_bytes)
            except OSError:
                pass  # that child is already gone; its link reads as failed
        oracle = cfg.oracle.build()
        local = None if is_master else oracle(theta, shard)

        if not down:
            message = encode_message(MSG_GRADIENT, node, local)
        else:
            kids = tree.children(node)
            got, timed_out = _collect_gradients(down, kids, need, deadline_at)
            report.received_from = [str(kids[pos]) for pos in sorted(got)]
            report.missing = [str(kid) for pos, kid in enumerate(kids) if pos not in got]
            if timed_out:
                report.status = "timeout"
                report.detail = (
                    f"parent {node} got {len(got)}/{need} gradient messages "
                    f"within {cfg.deadline}s; missing children {report.missing}"
                )
                _write_report(run_path, report)
                os._exit(4)
            positions = tuple(sorted(got))  # child-position order, as in the engine
            row = _combining_row(B, positions)
            combined = sum(row[pos] * got[pos] for pos in positions)
            if is_master:
                Path(out_path).write_text(",".join(repr(float(v)) for v in combined) + "\n")
                report.status = "ok"
                _write_report(run_path, report)
                return
            message = encode_message(MSG_GRADIENT, node, combined + local)

        try:
            up.sendall(message)
            report.status = "ok"
        except OSError as err:
            # Parent reached quorum without us and closed the link.
            report.status = "discarded"
            report.detail = f"upward send failed: {err}"
        _write_report(run_path, report)
    except (OSError, ValueError) as err:
        report.status = "connect_failed"
        report.detail = str(err)
        _write_report(run_path, report)
        os._exit(5)
    finally:
        for conn in filter(None, (up, *down)):
            conn.close()


def orchestrate(cfg: TransportConfig, run_dir, plan: FailurePlan = FailurePlan()):
    """Connect every tree edge, spawn one process per node, apply the
    failure plan, and collect the master's output plus every node's report.

    A node's link ends go to its own process only, and the orchestrator
    closes its copies right after that start; the ends of a node that never
    starts are closed before the join, so its parent's and children's reads
    fail at once instead of waiting out the deadline."""
    run_path = Path(run_dir)
    run_path.mkdir(parents=True, exist_ok=True)
    for stale in run_path.glob("node_*.json"):
        stale.unlink()
    tree = cfg.tree
    B = build_encoding(tree.n, cfg.s, cfg.alloc_seed)
    assignment = cr_allocate(tree, cfg.s, cfg.oracle.d, B=B)
    out_path = run_path / "master_gradient.csv"
    if out_path.exists():
        out_path.unlink()

    ctx = mp.get_context("spawn")
    procs = {}
    ends, edges = [], {}  # every link end made; worker -> its parent link's ends
    try:
        with socket.create_server(("127.0.0.1", 0)) as server:
            for worker in tree.workers():
                ends.append(socket.create_connection(server.getsockname()))
                ends.append(server.accept()[0])
                edges[worker] = (ends[-1], ends[-2])  # (parent end, child end)
                for end in edges[worker]:
                    end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for node in [MASTER] + list(tree.workers()):
            if node in plan.never_start:
                continue
            shard = assignment.local[node] if node != MASTER else ()
            up = edges[node][1] if node != MASTER else None
            down = tuple(edges[kid][0] for kid in tree.children(node))
            proc = ctx.Process(
                target=run_node,
                args=(node, cfg, shard, B, up, down, str(run_path), str(out_path)),
                kwargs={"die_before_send": node in plan.die_before_send},
                name=f"node-{node}",
            )
            proc.start()
            procs[node] = proc
            for end in filter(None, (up, *down)):  # the node holds its own copies
                end.close()
    finally:
        for end in ends:  # and those of nodes that never start
            end.close()

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
