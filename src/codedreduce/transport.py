"""One coded aggregation round as real local processes over socket pairs.

Wire format (all integers little-endian):

    magic        4 bytes, b"CRD1"
    msg_type     1 byte   (0 = model broadcast, 1 = coded gradient)
    sender_layer u16
    sender_index u32
    payload_len  u32      (number of doubles)
    payload      payload_len * 8 bytes, IEEE-754 doubles

The tree is fixed, so every tree edge is one connected socket pair made
before any node starts; each node gets its parent end and its child ends,
no node process opens a socket of its own, and a send to a parent that has
closed its end fails at once.  The orchestrator is the master's parent and
handles that link with a parent's own code: once every node has started it
sends the model in a single blocking send, and it collects the recovered
gradient as a parent collects its children's.  Every node reads the model
from its parent, sends it down every child link, computes its own coded
gradient, collects the first n-s gradient messages (later arrivals are
dropped with the links), combines them with the decode row of the realized
survivor set, adds its local term, and sends the result to its parent.

A round's nodes are forks of one round host, itself the one process the
round asks of a single-threaded fork server that has already imported this
module and `numpy.random`.  The host gets the node body, the config, the
code, the shards, the failure plan and the master's link in one pickle,
makes the other socket pairs and forks each node from there, so a node
starts in about a millisecond with nothing to unpickle or import.  The host
applies the failure plan's kills, reaps every node and hands the
orchestrator their exit codes.  A round needs `os.fork`.
"""

from __future__ import annotations

import atexit
import heapq
import json
import multiprocessing as mp
import os
import selectors
import signal
import socket
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from math import inf, isfinite
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Mapping, NoReturn

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

# A node whose forking host has another pid than this one runs a module that
# the host did not import itself: the fork server's preload took.
_IMPORTED_IN = os.getpid()
# What the fork server imports once, so that neither a round host nor a
# node imports anything: numpy loads numpy.random, which a node's oracle
# build draws its data with, only on first use.
_PRELOAD = (__name__, "numpy.random")


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
    the child starts), then dies before computing; kill_after: the round
    host terminates it that many (finite, >= 0) seconds after its fork."""

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
    # the node ran a module its forking host did not import itself (the
    # fork server's preload); false for a report the orchestrator writes
    preloaded: bool = False


@dataclass
class RunReport:
    ok: bool
    gradient: np.ndarray | None
    error: str
    node_reports: dict
    timed_out_parents: list  # deepest (most causal) parent first


def _write_report(run_dir: Path, report: NodeReport) -> None:
    """Write the report whole or not at all: a node terminated while writing
    leaves only a `.part` file, and the orchestrator reports it killed."""
    path = run_dir / f"node_{report.node.replace('.', '_')}.json"
    part = path.with_name(path.name + ".part")
    part.write_text(json.dumps(report.__dict__))
    os.replace(part, path)


def _send_model(down: tuple[socket.socket, ...], sender: NodeId, theta) -> None:
    """Send the model down every child link; a child that is already gone
    is skipped, and its link reads as failed when gradients are collected."""
    model_bytes = encode_message(MSG_MODEL, sender, theta)
    for conn in down:
        try:
            conn.sendall(model_bytes)
        except OSError:
            pass


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
    report = NodeReport(
        node=str(node), status="error", received_from=[], missing=[],
        preloaded=os.getppid() != _IMPORTED_IN,
    )
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

        _send_model(down, node, theta)
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


def _forked_node(body, args: tuple, kwargs: dict, foreign: tuple) -> NoReturn:
    """A forked node's whole life, which never returns into the host's code:
    close the host's ends in `foreign`, run `body`, and leave by `os._exit`
    with the code `multiprocessing.Process.exitcode` would read: 0, a
    `SystemExit`'s code, or 1 after printing the traceback."""
    code = 1
    try:
        try:
            for end in foreign:
                end.close()
            body(*args, **kwargs)
            code = 0
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                code = exc.code or 0
            else:
                print(exc.code, file=sys.stderr)
        except BaseException:
            traceback.print_exc()
        mp_util._flush_std_streams()
    finally:
        os._exit(code)


def _kill_due(kills: list) -> float:
    """Terminate every node in the heap `kills` of (time, pid) whose time
    has come; return the next kill time, or inf."""
    now = time.monotonic()
    while kills and kills[0][0] <= now:
        os.kill(heapq.heappop(kills)[1], signal.SIGTERM)
    return kills[0][0] if kills else inf


def _round_host(body, cfg: TransportConfig, B, shards, plan, master_end, run_dir, status):
    """Body of a round's host process: fork every started node, apply the
    failure plan's kills, reap the nodes and send their exit codes.

    The host makes each worker's parent link and forks the started nodes in
    layer-major order, with no thread alive.  A node closes every end but
    its own; the host closes that node's ends right after its fork, and
    those of the nodes that never start after the last fork, then sends
    None on `status`: all started.  A node whose `kill_after` delay,
    counted from its own fork, has passed gets SIGTERM.  Once every node has
    exited, or at the join deadline, when each one still alive gets
    SIGTERM, the host reaps them all and sends `{node: exit code}`,
    negative for a signal.  Nodes are reaped only then, so no pid it
    signals can have been reused."""
    tree = cfg.tree
    links = {worker: socket.socketpair() for worker in tree.workers()}  # (parent end, child end)
    ups = {MASTER: master_end, **{node: child for node, (_, child) in links.items()}}
    ends = {master_end, *(end for pair in links.values() for end in pair)}
    # every node holds `alive` and none writes to it: `watch` reads EOF once
    # every node has exited
    watch, alive = socket.socketpair()
    pids, kills = {}, []
    try:
        for node, up in ups.items():
            if node in plan.never_start:
                continue
            own = (up, *(links[kid][0] for kid in tree.children(node)))
            args = (node, cfg, shards.get(node, ()), B, up, own[1:], run_dir)
            kwargs = {"die_before_send": node in plan.die_before_send}
            foreign = (*(ends - set(own)), status, watch)
            pid = os.fork()
            if pid == 0:
                _forked_node(body, args, kwargs, foreign)
            pids[node] = pid
            if node in plan.kill_after:
                heapq.heappush(kills, (time.monotonic() + plan.kill_after[node], pid))
            for end in own:
                end.close()
            _kill_due(kills)
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for end in (*ends, alive):
            end.close()
    status.send(None)
    join_deadline = time.monotonic() + cfg.deadline + 20.0
    with watch:
        while (now := time.monotonic()) < join_deadline:
            watch.settimeout(min(join_deadline, _kill_due(kills)) - now)
            try:
                watch.recv(1)
                break
            except TimeoutError:
                pass
        else:
            for pid in pids.values():  # an exited node ignores it until reaped
                os.kill(pid, signal.SIGTERM)
    status.send(
        {str(node): os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for node, pid in pids.items()}
    )


def _node_context():
    """The fork server a round host starts from, running and preloaded with
    `_PRELOAD`.

    Python 3.11's `multiprocessing.forkserver.main` imports the preload list
    without applying the parent's `sys.path` and swallows the ImportError, so
    a caller that put this package on `sys.path` itself, without exporting
    PYTHONPATH, would get a server that preloaded nothing, and every host
    would import the package again.  PYTHONPATH therefore names the package
    root while the server starts, and is restored right after.  The server
    exits only once it reads EOF on its alive pipe, which would be after this
    process has exited; it is stopped at interpreter exit instead, and then
    the resource tracker that `ensure_running` brought up, so no process
    outlives the caller."""
    from multiprocessing import forkserver, resource_tracker

    old = os.environ.get("PYTHONPATH")
    root = str(Path(__file__).resolve().parents[1])
    os.environ["PYTHONPATH"] = root if old is None else os.pathsep.join((root, old))
    try:
        forkserver.set_forkserver_preload(list(_PRELOAD))
        forkserver.ensure_running()
    finally:
        if old is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = old
    # atexit runs last-registered first: the server, which holds the
    # tracker's pipe, exits before the tracker is stopped
    for stop in (resource_tracker._resource_tracker._stop, forkserver._forkserver._stop):
        atexit.unregister(stop)  # registered once, however many rounds run
        atexit.register(stop)
    return mp.get_context("forkserver")


def _recv_by(conn, deadline_at: float):
    """The host's next message, or None when none came by `deadline_at` or
    the host is gone."""
    try:
        return conn.recv() if conn.poll(max(0.0, deadline_at - time.monotonic())) else None
    except EOFError:
        return None


def orchestrate(cfg: TransportConfig, run_dir, plan: FailurePlan = FailurePlan()):
    """Connect every tree edge, fork one process per node, apply the failure
    plan, and collect the master's gradient plus every node's report.

    The round is one host process from the fork server (`_round_host`),
    handed the node body `run_node` as it is named when this is called, the
    config, the code, the shards, the plan and the master's link in one
    pickle; it forks the nodes, makes their links, applies `kill_after` and
    returns each node's exit code.  The orchestrator is the master's parent:
    once the host says every node has started it sends the model down the
    master's link with `_send_model`, in one blocking send, so the master
    cannot answer before it has read the whole model; it then collects the
    master's gradient with `_collect_gradients` by the join deadline and
    writes `master_gradient.csv` on receipt.  A node's link ends are its own
    process's only, and those of a node that never starts are closed before
    the model is sent, so the reads across that node's links fail at once.
    A started node that left no report gets one from its exit code: killed
    by a signal, else error.  One rule decides discarded: a child that
    reports ok stays ok only when its parent reports ok or discarded and
    lists it in `received_from`; otherwise `detail` names the parent and its
    status.  A platform without `os.fork`, the code, the allocation, a plan
    entry that is not a `NodeId` of the tree, and a `run_dir` that names a
    file or a path below one are refused before `run_dir` is touched or any
    link or process is made."""
    if not hasattr(os, "fork"):
        raise NotImplementedError("a round forks its nodes, and this platform has no os.fork")
    tree = cfg.tree
    for node in (*plan.never_start, *plan.die_before_send, *plan.kill_after):
        if not tree.contains(node):
            raise ValueError(
                f"failure plan names node {node}, not in the ({tree.n},{tree.L})-regular tree"
            )
    run_path = Path(run_dir)
    existing = next(path for path in (run_path, *run_path.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"run_dir {run_path} cannot be a directory: {existing} is not one")
    B = build_encoding(tree.n, cfg.s, cfg.alloc_seed)
    assignment = cr_allocate(tree, cfg.s, cfg.oracle.d, B=B)
    run_path.mkdir(parents=True, exist_ok=True)
    for stale in run_path.glob("node_*.json*"):
        stale.unlink()
    out_path = run_path / "master_gradient.csv"
    out_path.unlink(missing_ok=True)

    ctx = _node_context()
    top, bottom = socket.socketpair()  # the orchestrator's link to the master
    from_host, to_orchestrator = ctx.Pipe(duplex=False)
    host = ctx.Process(
        target=_round_host,
        args=(run_node, cfg, B, assignment.local, plan, bottom, str(run_path), to_orchestrator),
        name="round-host",
    )
    with top, from_host:
        try:
            host.start()
        finally:  # the host holds its own copies
            bottom.close()
            to_orchestrator.close()
        _recv_by(from_host, time.monotonic() + cfg.deadline + 20.0)  # every node has started
        join_deadline = time.monotonic() + cfg.deadline + 20.0
        top.settimeout(join_deadline - time.monotonic())
        _send_model((top,), MASTER, cfg.theta)
        gradient = _collect_gradients((top,), (MASTER,), 1, join_deadline)[0].get(0)
        if gradient is not None:
            out_path.write_text(",".join(repr(float(v)) for v in gradient) + "\n")
        # the host's join deadline is no later than this one
        codes = _recv_by(from_host, join_deadline + 5.0) or {}
    host.join(timeout=5.0)
    if host.is_alive():
        host.terminate()
        host.join()

    paths = sorted(run_path.glob("node_*.json"))
    reports = {r.node: r for r in (NodeReport(**json.loads(path.read_text())) for path in paths)}
    for name, code in codes.items():
        if name not in reports:  # terminated, or died before writing one
            if code < 0:
                status, detail = "killed", f"terminated by {signal.Signals(-code).name}"
            else:
                status, detail = "error", f"exited with code {code}"
            reports[name] = NodeReport(name, status, [], [], f"{detail}, no report")
            _write_report(run_path, reports[name])
    parent_of = {str(kid): str(node) for node in tree.parents() for kid in tree.children(node)}
    for child in reports.values():
        parent = reports.get(parent_of.get(child.node))
        if child.status != "ok" or parent is None:
            continue
        if parent.status in ("ok", "discarded") and child.node in parent.received_from:
            continue
        child.status = "discarded"
        child.detail = f"parent {parent.node} reports {parent.status} without decoding its gradient"
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
