"""One coded aggregation round as real local processes over socket pairs.

Wire format (all integers little-endian):

    magic        4 bytes, b"CRD1"
    msg_type     1 byte   (0 = model broadcast, 1 = coded gradient)
    sender_layer u16
    sender_index u32
    payload_len  u32      (number of doubles)
    payload      payload_len * 8 bytes, IEEE-754 doubles

Every round makes fresh socket pairs, one per tree edge, and each node
gets its parent end and its child ends; no node process opens a socket of
its own, and a send to a parent that has closed its end fails at once.
The orchestrator is the master's parent and handles that link with a
parent's own code: right after it hands the round to the host, while the
host hands out the links, it sends the model in a single blocking send,
and it collects the recovered gradient as a parent collects its
children's.  Every node reads the model from its parent, sends it down
every child link, computes its own coded gradient, collects the first n-s
gradient messages (later arrivals are dropped with the links), combines
them with the decode row of the realized survivor set, adds its local term,
and sends the result to its parent.

A round's nodes are forks of the caller's round host, a fresh interpreter
that has imported this module and `numpy.random` and serves the caller's
rounds one at a time.  A round hands it the master's link end and the
failure plan, and the caller's `sys.path` and node inputs (all of a round
but θ and the plan: body, tree, s, oracle spec, deadline, code and shards)
only when they differ from what the host last loaded; the caller builds a
config's code and shards once.  The host builds the oracle once per spec
and keeps the live nodes while the inputs are the same bytes.  A node
loops on its own `AF_UNIX` `SOCK_SEQPACKET` control socket: it takes link
ends passed with `socket.send_fds`, runs a round on them, sends its report
as one message, and exits on EOF there, when its host retires it or dies.
A node that dies before sending, raises or is terminated dies for good.
Once it has answered a round, the host retires those nodes, forks their
replacements and pre-links the next round: it makes every worker edge's
socket pair and hands each worker its ends, keeping the master's.  A warm
round then only arms the pre-link: one message to each node the plan
names (die before sending, or sit out, which the host waits to see done),
then the master's ends, so every order is in its node's socket before the
model can reach it.  Any other round (a cold host, new inputs, a node that
died while idle) withdraws a pre-link in place, hands each node fresh ends,
the master first, and forks the nodes that have no live process last.  The
orchestrator writes every report file.  A round needs `os.fork` and
`AF_UNIX` `SOCK_SEQPACKET` sockets.
"""

from __future__ import annotations

import atexit
import errno
import functools
import heapq
import json
import os
import pickle
import select
import selectors
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from contextlib import suppress
from dataclasses import dataclass, field
from math import inf, isfinite
from multiprocessing import connection, reduction
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

# A round host is `python -c _HOST_CODE fd`, a fresh interpreter (its caller may
# hold threads) that imports _HOST_IMPORTS first, so no node imports anything:
# numpy loads numpy.random, which a node's oracle build draws with, on first use.
_HOST_IMPORTS = (__name__, "numpy.random")
_HOST_CODE = (
    f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parents[1])!r}); "
    f"import {', '.join(_HOST_IMPORTS)}; {__name__}._serve_rounds(int(sys.argv[1]))"
)
# This process's round host, (process, control connection, sys.path and node inputs it
# last loaded); a round holds the lock.
_host, _host_lock = None, threading.Lock()


@dataclass(frozen=True)
class WireMessage:
    msg_type: int
    sender_layer: int
    sender_index: int
    payload: np.ndarray = field(repr=False)


def encode_message(msg_type: int, sender: NodeId, payload) -> bytes:
    vec = np.ascontiguousarray(payload, dtype="<f8")
    header = _HEADER.pack(MAGIC, msg_type, sender.layer, sender.index, vec.size)
    return b"".join((header, vec.data))  # the payload's one copy


def _unpack_header(data) -> list[int]:
    """(msg_type, sender_layer, sender_index, payload_len) of a header."""
    magic, *fields = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    return fields


def decode_message(data: bytes) -> WireMessage:
    msg_type, layer, index, count = _unpack_header(data)
    if len(data) != _HEADER.size + 8 * count:
        raise ValueError(f"expected {count} doubles, got {len(data) - _HEADER.size} bytes")
    payload = np.frombuffer(data, dtype="<f8", count=count, offset=_HEADER.size)
    return WireMessage(msg_type, layer, index, payload.copy())


def _recv_into(sock: socket.socket, buf) -> None:
    """Fill the writable buffer `buf` from `sock`."""
    view, got = memoryview(buf).cast("B"), 0
    while got < len(view):
        count = sock.recv_into(view[got:])
        if not count:
            raise ConnectionError("peer closed mid-message")
        got += count


def read_message(sock: socket.socket) -> WireMessage:
    """Read one message, its payload straight into the array it returns."""
    header = bytearray(_HEADER.size)
    _recv_into(sock, header)
    msg_type, layer, index, count = _unpack_header(header)
    payload = np.empty(count, dtype="<f8")
    _recv_into(sock, payload)
    return WireMessage(msg_type, layer, index, payload)


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

    @functools.lru_cache(maxsize=1)  # the last spec built: a run's rounds share one spec
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
    """never_start: the node gets no links: no process is launched for it,
    and one alive from an earlier round sits the round out, closing any
    pre-linked ends before the master gets its own; die_before_send: it
    reads the model (its parent queues it on the link however late the
    child starts), closes its links without computing and reports killed,
    and its process exits once the round host has answered; kill_after: the
    round host terminates it that many (finite, >= 0) seconds after its
    hand-off, which for a node forked in the round follows its fork and in
    a pre-linked round is the master's hand-off."""

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


def _write_report(run_dir: Path, node: str, data: bytes) -> None:
    """Write `node`'s report bytes whole or not at all: a reader of
    `run_dir` never sees a partly written report file, only a `.part` one."""
    path = run_dir / f"node_{node.replace('.', '_')}.json"
    part = path.with_name(path.name + ".part")
    part.write_bytes(data)
    os.replace(part, path)


def _send_report(sock: socket.socket, report: NodeReport) -> None:
    """Send the report as one message on the node's control socket,
    which delivers it whole or not at all.  A `detail` too long for one
    message is cut by halves until the report fits, and says so."""
    detail, keep = report.detail, len(report.detail)
    while True:
        try:
            sock.send(json.dumps(report.__dict__).encode())
            return
        except OSError as err:
            if err.errno != errno.EMSGSIZE or not keep:
                raise
        keep //= 2
        report.detail = f"{detail[:keep]}... [cut from {len(detail)} characters to fit one message]"


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
    report_to: socket.socket,
    die_before_send: bool = False,
) -> None:
    """One round of one node: one JSON report, sent on `report_to` (the
    node's `SOCK_SEQPACKET` control socket) with `_send_report` in the
    `finally`.

    `up` is the link to the parent (at the master, to the orchestrator) and
    `down` the links to the children in position order (empty at a leaf).
    Each outcome sets the status where it becomes known and returns.  The
    model is read from `up`; the running total, local term (0.0 for an
    empty shard, as at the master) plus decoded children, goes back up it.
    It then returns to the node's loop; an exception is reported as error,
    with its type and text, and re-raised, which ends the node (exit code 1).
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
        _send_report(report_to, report)


def _node_loop(body, args: tuple, ctl: socket.socket, foreign: tuple) -> NoReturn:
    """A forked node's whole life, which never returns into the host's code.
    It closes the host's ends in `foreign`, every control end but its own
    `ctl` among them, then serves rounds.  A hand-off on `ctl` carries link
    ends, parent end first, and a flag: run the round now (r), die before
    sending (d), or hold them for the next round (p, the pre-link).  It runs
    `body(*args, up, down, ctl, die_before_send=...)` on them.  A node
    holding a pre-link waits for the model on `up` or for an order on
    `ctl`, and reads every order waiting on `ctl` before it acts on a
    model: d, or s to sit out, which closes the held ends and answers s
    (any node answers s).  A new hand-off replaces held ends.  It leaves by
    `os._exit` on EOF from its host, or once `body` raises, with the code
    `multiprocessing.Process.exitcode` would read: 0, a `SystemExit`'s code,
    or 1 after printing the traceback.  A round that dies before sending is
    its last: it runs at the lowest priority, so the CPU goes to the nodes
    the round waits for, and it gets no further hand-off, only the EOF the
    host sends once it has answered, so its exit falls outside the round."""
    code, most_ends = 1, 1 + args[1].tree.n  # args is (node, cfg, shard, B)
    try:
        try:
            for end in foreign:
                end.close()
            held = []  # link ends handed to the node and not yet run on
            while True:
                # pre-linked, the round starts with an order or the model, which
                # comes after the round's orders: select sees both, orders first
                if held and ctl not in select.select([ctl, held[0]], [], [])[0]:
                    flag, fds = b"r", []
                else:
                    try:
                        flag, fds, _, _ = socket.recv_fds(ctl, 1, most_ends)
                    except ConnectionResetError:  # the host closed, leaving a report unread
                        flag = b""
                if not flag:  # EOF: the host retired the node or is gone
                    break
                if fds or flag == b"s":
                    for end in held:
                        end.close()
                    held = [socket.socket(fileno=fd) for fd in fds]
                if flag == b"s":
                    ctl.send(b"s")
                if flag not in (b"r", b"d") or not held:
                    continue
                if flag == b"d":  # its last round: its planned death yields to the others
                    os.nice(19)
                ends, held = held, []
                try:
                    body(*args, ends[0], tuple(ends[1:]), ctl, die_before_send=flag == b"d")
                finally:
                    for end in ends:
                        end.close()
            code = 0
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                code = exc.code or 0
            else:
                print(exc.code, file=sys.stderr)
        except BaseException:
            traceback.print_exc()
        sys.stdout.flush()  # stderr is line-buffered
    finally:
        os._exit(code)


def _kill_due(kills: list, pool: dict) -> float:
    """Terminate every node in the heap `kills` of (time, node) whose time
    has come, if it is still in `pool`; return the next kill time, or inf."""
    now = time.monotonic()
    while kills and kills[0][0] <= now:
        node = heapq.heappop(kills)[1]
        if node in pool:  # a reaped node's pid may be another process's by now
            os.kill(pool[node][0], signal.SIGTERM)
    return kills[0][0] if kills else inf


def _reap(pool: dict, node: NodeId) -> int:
    """Take `node` out of `pool`, close its control end and reap it; its exit
    code, negative for a signal."""
    pid, ctl = pool.pop(node)
    ctl.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _retire(pool: dict, nodes) -> None:
    """Close the control end of each of `nodes` in `pool`, which an idle
    node reads as EOF and exits on, then reap them.  Children go first, so
    a pre-linked node finds its own EOF before its parent's link closes."""
    nodes = sorted(nodes, reverse=True)
    for node in nodes:
        pool[node][1].close()
    for node in nodes:
        _reap(pool, node)


def _fork(pool: dict, node: NodeId, body, cfg: TransportConfig, B, shards, foreign: tuple):
    """Fork `node`'s process, which runs `_node_loop` and first closes the
    host's ends in `foreign`, every pool node's control end and its own
    control socket's other end, and add it to `pool`."""
    ctl, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    foreign = (*foreign, *(end for _, end in pool.values()), ctl)
    pid = os.fork()
    if pid == 0:
        _node_loop(body, (node, cfg, shards.get(node, ()), B), theirs, foreign)
    theirs.close()
    pool[node] = pid, ctl


def _hand_off(pool: dict, node: NodeId, flag: bytes, ends=()) -> None:
    """Send `node` the `flag` and the link `ends` on its control socket, then
    close the host's copies; a node gone since reads as dead in the round."""
    with suppress(OSError):
        socket.send_fds(pool[node][1], [flag], [end.fileno() for end in ends])
    for end in ends:
        end.close()


def _recv_report(ctl: socket.socket) -> bytes:
    """The node's next message on its control end `ctl`, b"" once it has
    exited; no report is longer than a send buffer, the node's or this one."""
    try:
        return ctl.recv(ctl.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF))
    except ConnectionResetError:  # it exited before it read its hand-off
        return b""


def _sit_out(pool: dict, nodes) -> None:
    """Tell each of `nodes` in `pool` to sit the round out, which closes any
    link ends it holds, and wait until each confirms; a report it sent
    first, from a pre-linked link that failed while it waited, is dropped,
    and a node that has exited is reaped."""
    nodes = list(nodes)
    for node in nodes:
        _hand_off(pool, node, b"s")
    for node in nodes:
        while (message := _recv_report(pool[node][1])) not in (b"s", b""):
            pass
        if not message:
            _reap(pool, node)


def _has_exited(ctl: socket.socket) -> bool:
    """Whether the node at the far end of its control end `ctl` has exited."""
    try:
        return not ctl.recv(1, socket.MSG_DONTWAIT | socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except ConnectionResetError:  # it exited before it read a hand-off
        return True


def _links(tree: RegularTree, up) -> dict:
    """A fresh socket pair per worker edge: {node: its ends, parent end
    first}, with `up` as the master's parent end."""
    links = {worker: socket.socketpair() for worker in tree.workers()}  # (parent end, child end)
    ups = {MASTER: up, **{node: child for node, (_, child) in links.items()}}
    return {node: (up, *(links[kid][0] for kid in tree.children(node))) for node, up in ups.items()}


def _round_host(pool: dict, held, body, cfg: TransportConfig, B, shards, plan, master_end, status):
    """One round in the round host on `pool`, {node: (pid, control end)},
    the live nodes of the caller's last round on the same node inputs, and
    `held`, the master's down ends while the workers hold a pre-link, or
    None.

    A pre-linked round in which no pool node has exited is armed: each
    worker the plan names gets one order, d to die before sending or s to
    sit out, which the host waits to see done; then the `kill_after` clocks
    start and the master gets its ends.  Any other round withdraws a
    pre-link (s to every node), reaps the nodes that have exited and makes
    every edge's socket pair.  The ends of the nodes that never start are
    closed first, so a read or a send across their links fails at once; a
    pool node that never starts sits the round out.  The host hands every
    other node its ends in layer-major order: the pool's nodes, those that
    die before sending last, and then each one it forks right before the
    hand-off, with no thread alive.  A node whose `kill_after` delay,
    counted from its hand-off, has passed gets SIGTERM.  The round ends
    once every node taking part has sent its report on its control socket
    or exited, or at the join deadline, when each one left gets SIGTERM;
    the host sends `({node: exit code}, [report message])` with the codes
    of the nodes that exited in it, negative for a signal.  Only then does
    it terminate the `kill_after` nodes still alive and close the control
    ends of those and of the ones that died before sending, which exit on
    it, or raised, and reap them.  It then forks every tree node missing
    from the pool and pre-links the next round, checking before each step
    that no round waits, and returns the new `held`, or None.  A node is
    reaped only as it leaves the pool, so no pid the host signals can have
    been reused."""
    tree, kills = cfg.tree, []
    dead = [node for node, (_, ctl) in pool.items() if _has_exited(ctl)]
    for node in dead:
        _reap(pool, node)
    if held is not None and dead:  # withdraw the pre-link
        for end in held:
            end.close()
        _sit_out(pool, list(pool))
        held = None
    join_deadline = time.monotonic() + cfg.deadline + 20.0
    if held is not None:
        for node in {*plan.die_before_send} - {*plan.never_start, MASTER}:
            _hand_off(pool, node, b"d")
        _sit_out(pool, {*plan.never_start} - {MASTER})
        at, owned = time.monotonic(), {MASTER: (master_end, *held)}
        kills = [  # the workers' clocks; the master's starts at its hand-off
            (at + t, node) for node, t in plan.kill_after.items()
            if node != MASTER and node not in plan.never_start
        ]
        heapq.heapify(kills)
    else:
        owned = _links(tree, master_end)
    for node in plan.never_start:
        for end in owned.pop(node, ()):
            end.close()
    ends = {end for own in owned.values() for end in own}
    order = sorted(owned, key=lambda node: (node not in pool, node in plan.die_before_send))
    try:  # sorted is stable: layer-major within each group
        for node in order:
            if node not in pool:
                _fork(pool, node, body, cfg, B, shards, (*ends, status))
            if node in plan.kill_after:
                heapq.heappush(kills, (time.monotonic() + plan.kill_after[node], node))
            _hand_off(pool, node, b"d" if node in plan.die_before_send else b"r", owned[node])
            _kill_due(kills, pool)
    except BaseException:
        for pid, _ in pool.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for end in ends:
            end.close()
    taking_part = [node for node in tree.layer_major_nodes() if node not in plan.never_start]
    reports, codes = {}, {}
    with selectors.DefaultSelector() as sel:
        for node in taking_part:
            sel.register(pool[node][1], selectors.EVENT_READ, node)
        while sel.get_map() and (now := time.monotonic()) < join_deadline:
            for key, _ in sel.select(min(join_deadline, _kill_due(kills, pool)) - now):
                sel.unregister(key.fileobj)
                if message := _recv_report(key.fileobj):
                    reports[key.data] = message
                else:
                    codes[str(key.data)] = _reap(pool, key.data)
        late = [key.data for key in sel.get_map().values()]
    for node in late:
        os.kill(pool[node][0], signal.SIGTERM)
    for node in late:
        codes[str(node)] = _reap(pool, node)
    status.send((codes, list(reports.values())))
    doomed = {*plan.die_before_send, *plan.kill_after}
    leaving = [  # a node still in the pool has reported
        node
        for node in taking_part
        if node in pool and (node in doomed or json.loads(reports[node])["status"] == "error")
    ]
    for node in leaving:
        if node in plan.kill_after:
            os.kill(pool[node][0], signal.SIGTERM)
    _retire(pool, leaving)
    for node in tree.layer_major_nodes():  # until the next round or the caller's close waits
        if node not in pool and not status.poll():
            _fork(pool, node, body, cfg, B, shards, (status,))
    if status.poll():
        return None
    owned = _links(tree, None)
    for node in tree.workers():
        _hand_off(pool, node, b"p", owned[node])
    return owned[MASTER][1:]


def _serve_rounds(fd: int) -> None:
    """Body of a round host: serve rounds on the control connection `fd`
    until the caller closes it, then retire the nodes.  A round carries
    the plan and, when they changed, the caller's `sys.path` and its node
    inputs, (pickled body, tree, s, oracle spec and deadline; pickled code
    and shards; config); the host unpickles inputs only when their bytes
    differ from those it holds, and then retires the old nodes.  It builds
    the oracle then, before any fork, so every node inherits it, and
    answers a round whose inputs do not load, or whose oracle does not
    build, with the exception, keeping the inputs it held.  Between rounds
    it replaces the last round's dead nodes and pre-links the next round,
    up to the next round's arrival."""
    pool, inputs, held = {}, (None, None), None
    with connection.Connection(fd) as conn, suppress(EOFError):
        try:
            while True:
                path, fresh, plan = conn.recv()
                if path is not None:
                    sys.path[:] = path
                master_end = socket.socket(fileno=reduction.recv_handle(conn))
                if fresh is not None and fresh[:2] != inputs:
                    try:
                        body, *_ = pickle.loads(fresh[0])
                        B, shards = pickle.loads(fresh[1])
                        fresh[2].oracle.build()
                    except Exception as err:
                        master_end.close()
                        conn.send(f"{type(err).__name__}: {err}")
                        continue
                    _retire(pool, pool)
                    for end in held or ():
                        end.close()
                    inputs, held, loaded = fresh[:2], None, (body, fresh[2], B, shards)
                held = _round_host(pool, held, *loaded, plan, master_end, conn)
        finally:
            _retire(pool, pool)


@atexit.register  # no host or node outlives its caller
def _stop_host(grace: float = 5.0) -> None:
    """Stop this process's round host, if it has one, and reap it.  Once
    its control connection closes, an idle host retires its nodes and
    exits; one still running after `grace` seconds, such as a host that is
    mid-round, is killed with its nodes (its process group)."""
    global _host
    if _host is not None:
        (proc, conn, *_), _host = _host, None
        conn.close()
        with suppress(subprocess.TimeoutExpired):
            proc.wait(grace)
        if proc.returncode is None:  # not reaped, so the group id is still the host's
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def _recv_by(conn, deadline_at: float):
    """The host's next message, or None when none came by `deadline_at` or
    the host is gone."""
    try:
        return conn.recv() if conn.poll(max(0.0, deadline_at - time.monotonic())) else None
    except EOFError:
        return None


@functools.lru_cache(maxsize=1)  # a run's rounds share one code and allocation
def _code_and_shards(tree: RegularTree, s: int, d: int, alloc_seed: int) -> bytes:
    """The pickled (code, workers' shards) of a config, as the host loads them."""
    B = build_encoding(tree.n, s, alloc_seed)
    return pickle.dumps((B, cr_allocate(tree, s, d, B=B).local))


def orchestrate(cfg: TransportConfig, run_dir, plan: FailurePlan = FailurePlan()):
    """Connect every tree edge, run each node in its own process, apply the
    failure plan, and collect the master's gradient plus every node's report.

    The round goes to this process's round host (`_serve_rounds`), one round
    at a time, with the plan and the master's link, and with the caller's
    `sys.path` and the node inputs only when they differ from what the host
    last loaded: the node body `run_node` as named when this is called,
    which must be importable by its module's name, the config, and the code
    and shards, built once per config (`_code_and_shards`).  A new host, or
    one that refused the last round, is sent both.  The host arms the links
    it pre-linked, or hands fresh ones to the nodes it kept and forks the
    others, applies `kill_after` and returns the report each node sent and
    the exit code of each that died in the round, or the exception that
    kept it from loading the round.  The orchestrator is the master's
    parent: right after it hands the host the round it sends the model down
    the master's link with `_send_model`, in one blocking send, so the
    master cannot answer before it has read the whole model; it then
    collects the master's gradient with `_collect_gradients` by the join
    deadline and writes `master_gradient.csv` on receipt.  A node's link
    ends are its own process's only, and those of a node that never starts
    are closed before the master gets its own, so the reads and sends
    across that node's links fail at once.  A node that took part and sent
    no report gets one from its exit code: killed by a signal, else error.
    One rule decides discarded: a child that reports ok stays ok only when
    its parent reports ok or discarded and lists it in `received_from`;
    otherwise `detail` names the parent and its status.  Every report is
    then written to `run_dir` as `node_<layer>_<index>.json`: the bytes its
    node sent, unless the rule rewrote it or it came from an exit code.  A
    platform without `os.fork`, the code, the allocation, a plan entry that
    is not a `NodeId` of the tree, and a `run_dir` that names a file or a
    path below one are refused before `run_dir` is touched or any link or
    process is made."""
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
    inputs = (
        pickle.dumps((run_node, tree, cfg.s, cfg.oracle, cfg.deadline)),
        _code_and_shards(tree, cfg.s, cfg.oracle.d, cfg.alloc_seed),
    )
    run_path.mkdir(parents=True, exist_ok=True)
    for stale in run_path.glob("node_*.json*"):
        stale.unlink()
    out_path = run_path / "master_gradient.csv"
    out_path.unlink(missing_ok=True)

    global _host
    with _host_lock:
        if _host is None or _host[0].poll() is not None:  # none yet, or it died
            _stop_host()
            ours, theirs = connection.Pipe()
            with theirs:  # the host holds its own copy
                argv = [sys.executable, "-c", _HOST_CODE, str(theirs.fileno())]
                proc = subprocess.Popen(argv, pass_fds=[theirs.fileno()], start_new_session=True)
            _host = proc, ours, None, None
        proc, conn, loaded_path, loaded = _host
        path = list(sys.path)
        top, bottom = socket.socketpair()  # the orchestrator's link to the master
        answer = None
        try:
            with bottom:  # the host holds its own copy
                fresh = (*inputs, cfg) if inputs != loaded else None
                conn.send((path if path != loaded_path else None, fresh, plan))
                reduction.send_handle(conn, bottom.fileno(), proc.pid)
            top.settimeout(cfg.deadline + 20.0)
            _send_model((top,), MASTER, cfg.theta)  # the master reads it once handed its ends
            join_deadline = time.monotonic() + cfg.deadline + 20.0
            # a host that cannot load the round closes the master's link at once
            gradient = _collect_gradients((top,), (MASTER,), 1, join_deadline)[0].get(0)
            if gradient is not None:
                out_path.write_text(",".join(repr(float(v)) for v in gradient) + "\n")
            # the host sets its join deadline as it takes the round, about when this one was set
            answer = _recv_by(conn, join_deadline + 5.0)
            # a host that refused the round is sent all of the next one
            _host = (proc, conn, *((path, inputs) if isinstance(answer, tuple) else (None, None)))
        finally:
            top.close()
            if answer is None:  # the host is gone, late or cut off mid-round
                _stop_host(grace=0.0)
    if isinstance(answer, str):  # the host could not load the round, and serves on
        return RunReport(False, None, f"aborted: round host: {answer}", {}, [])

    codes, sent = answer or ({}, [])
    reports, files = {}, {}
    for message in sent:
        report = NodeReport(**json.loads(message))
        reports[report.node], files[report.node] = report, message
    for name, code in codes.items():
        if name not in reports:  # terminated, or died before sending one
            if code < 0:
                status, detail = "killed", f"terminated by {signal.Signals(-code).name}"
            else:
                status, detail = "error", f"exited with code {code}"
            reports[name] = NodeReport(name, status, [], [], f"{detail}, no report")
    parent_of = {str(kid): str(node) for node in tree.parents() for kid in tree.children(node)}
    for child in reports.values():
        parent = reports.get(parent_of.get(child.node))
        if child.status != "ok" or parent is None:
            continue
        if parent.status in ("ok", "discarded") and child.node in parent.received_from:
            continue
        child.status = "discarded"
        child.detail = f"parent {parent.node} reports {parent.status} without decoding its gradient"
        del files[child.node]
    for name, report in reports.items():
        _write_report(run_path, name, files.get(name) or json.dumps(report.__dict__).encode())
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
