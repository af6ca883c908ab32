"""The benchmark's four workloads.

Each workload drives the package from one process through the same public
calls the matching CLI command makes, with its inputs read from an INI file
in ``configs/`` and every seed taken from ``--seed``.  A workload has

* ``setup()``: the one-off calls before the timed part, returning the state
  the units share (and, for ``verify``, the secondary sample);
* ``unit(state, k, timed)``: one fixed amount of timed work.  Unit ``k``
  of a run gets the same inputs whenever ``k`` is the same, so two traced
  passes of unit 0 must give identical counts.  Each timed segment runs as
  ``timed(fn)``, which returns ``(result, seconds, scaled_seconds)``; the
  untraced run brackets every segment with host probes (see ``run.py``).

Every end-to-end metric is reported on every workload, so the two headline
rates are defined per workload (see ``LABELS``).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from codedreduce import allocation, codes, config, engine, latency, ml, topology, transport
from codedreduce.topology import MASTER, NodeId, StragglerPattern

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"

# Criterion 09's failure plan: one child per parent dies after the model
# handshake, which orphans the three children of 1.1.
PLANNED_KILLS = frozenset({NodeId(1, 1), NodeId(2, 5), NodeId(2, 8)})
NODE_STATUSES = ("ok", "discarded", "timeout", "connect_failed", "killed", "error")

TRAJECTORY_RTOL = 1e-6  # full-gradient schemes against UMW, at every step
SGD_MIN_DIVERGENCE = 1e-3  # SGD must differ from UMW by at least this
RECOVERY_TOL = 1e-9
MC_EQUALITY_RTOL = 1e-12
EVENT_TRIALS = 100  # event-driven trials per scheme in a latency_mc unit
VERIFY_BLOCK = 1000  # patterns swept per verify unit
PATTERN_CAP = 10_000  # the cap `codedreduce verify` uses
CODEC_REPS = 1000
SPAWN_PROBE_NODES = 6
SPAWN_PROBE_S = 1.0  # transport result times are scaled to this spawn probe


class Unit(NamedTuple):
    """What one unit did: (work, seconds, scaled seconds) for each headline
    rate, the operations it attempted and failed, and per-layer numbers that
    are not spans."""

    primary: tuple[float, float, float] | None
    secondary: tuple[float, float, float] | None
    attempted: int
    failed: int
    errors: list
    observed: dict


def load(name: str, seed: int, workdir: Path) -> config.ExperimentConfig:
    """The workload's config with `seed` as its data seed.

    The experiment seed, which also seeds every encoding matrix, stays the
    INI's (the package default, 0).  The random cyclic construction gives an
    ill-conditioned code on some seeds (about 1 in 100 at (3,1)): recovery
    then misses 1e-9, as `codedreduce verify` itself reports (the open
    "codes that stay exact at scale" item).  A benchmark of speed
    pins the code and draws everything else from `seed`.
    """
    cfg = config.load_config(CONFIG_DIR / f"{name}.ini", out=workdir)
    return dataclasses.replace(cfg, data_seed=seed)


def caught(fn):
    """fn(), or the exception it raised: a failed operation is counted, not
    propagated."""
    try:
        return fn()
    except Exception as err:
        return err


def total(segments) -> tuple[float, float]:
    """Summed (seconds, scaled seconds) of `timed` results."""
    segments = list(segments)
    return sum(s[1] for s in segments), sum(s[2] for s in segments)


def spawn_probe() -> float:
    """Seconds SPAWN_PROBE_NODES interpreters take to start at once and
    import what a transport node imports: the host's current cost of the
    start-up that dominates a round until its result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import codedreduce.transport"]
    procs = []
    t0 = time.perf_counter()
    try:
        for _ in range(SPAWN_PROBE_NODES):
            procs.append(subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL))
    finally:
        for proc in procs:
            proc.wait()
    return time.perf_counter() - t0


def check_valid(cfg: config.ExperimentConfig) -> None:
    problems = config.validate_config(cfg)
    if problems:
        raise ValueError(f"invalid workload config: {problems}")


def _scheme_topology(cfg, scheme):
    """(topo, resilience) exactly as `codedreduce latency` builds them."""
    if scheme == "cr":
        return topology.build_tree(cfg.n, cfg.L), cfg.s
    return cfg.N, (cfg.S if scheme in ("gc", "sgd") else 0)


class Train:
    """`codedreduce train`: gd_run for CR on the (4,5) tree with s = 1
    (1,364 workers, 320 points each), then GC, UMW, RAR and SGD at
    (N = 20, S = 5), linear loss, step 1/lambda_max(X'X), latency model on.

    Stresses ml and engine: it is the only workload where the gradient
    oracle and the deep tree's per-node Python loop dominate.  A CR round
    took 50-120 ms, split 39% in 1,364 oracle calls, 17% in 341 decode_row
    calls, 14% in simulate_iteration and about 19% in the engine itself.
    GC at (20,5) also puts code construction (validating all 15,504
    survivor sets, about 1.0 s) inside every gd_run.  Bypasses transport and
    Monte Carlo latency.
    """

    name = "train"
    quantiles = (0.5, 0.5)  # of the unit rates, for primary and secondary
    scale_rates = True  # to probe speed: all of the work runs in this process
    setup_reps = 15  # a set-up takes about 40 ms
    min_units = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def setup(self):
        cfg = load(self.name, self.seed, self.workdir)
        dataset, theta_star = ml.generate_synthetic(cfg.d, cfg.p, cfg.data_seed, cfg.noise)
        gram_top = float(np.linalg.eigvalsh(dataset.features.T @ dataset.features).max())
        cfg = dataclasses.replace(cfg, step_size=1.0 / gram_top)
        check_valid(cfg)
        return (cfg, dataset, theta_star), None

    def unit(self, state, k, timed):
        cfg, dataset, theta_star = state
        traces, runs, errors = {}, {}, []
        for scheme in cfg.schemes:
            gd_cfg = cfg.gd_config(scheme)
            runs[scheme] = timed(lambda: caught(lambda: ml.gd_run(dataset, gd_cfg, theta_star)))
            result = runs[scheme][0]
            if isinstance(result, Exception):
                errors.append(f"{scheme}: gd_run raised {result!r}")
            else:
                traces[scheme] = result
        failed = {s for s in cfg.schemes if s not in traces}
        reference = traces.get("umw")
        for scheme in ("cr", "gc", "rar", "sgd"):
            if scheme not in traces or reference is None:
                failed.add(scheme)
                continue
            diffs = [
                float(np.max(np.abs(row.theta - ref.theta)))
                / max(float(np.max(np.abs(ref.theta))), 1e-30)
                for row, ref in zip(traces[scheme], reference)
            ]
            if scheme == "sgd":
                if diffs[-1] < SGD_MIN_DIVERGENCE:
                    failed.add(scheme)
                    errors.append(f"sgd matches umw to {diffs[-1]:.2e}; expected it to differ")
            elif max(diffs) > TRAJECTORY_RTOL:
                failed.add(scheme)
                errors.append(f"{scheme} leaves umw's trajectory by {max(diffs):.2e}")
        flat = [s for s in cfg.schemes if s != "cr"]
        return Unit(
            primary=(cfg.iterations, *total([runs["cr"]])),
            secondary=(cfg.iterations * len(flat), *total(runs[s] for s in flat)),
            attempted=len(cfg.schemes),
            failed=len(failed),
            errors=errors,
            observed={},
        )


class LatencyMC:
    """`codedreduce latency`: mc_expected_latency for all five schemes, CR
    on (5,3) with s = 1 (N = 155) and flat N = 156, S = 13, d = 7800.

    Stresses only latency: the RNG draws and the port formula, measured at
    20-37k trials/s per scheme.  Bypasses engine, codes and ml, so a decode
    cache or a faster engine must leave it unchanged.  The secondary rate
    times the event-driven simulate_iteration path over the same trials,
    which is also the path of the cross-check.
    """

    name = "latency_mc"
    quantiles = (0.5, 0.5)  # of the unit rates, for primary and secondary
    scale_rates = True  # to probe speed: all of the work runs in this process
    setup_reps = 21
    min_units = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def setup(self):
        cfg = dataclasses.replace(load(self.name, self.seed, self.workdir), seed=self.seed)
        check_valid(cfg)
        lat = cfg.latency_config()
        cases = [(scheme, *_scheme_topology(cfg, scheme)) for scheme in cfg.schemes]
        return (cfg, lat, cases), None

    def unit(self, state, k, timed):
        cfg, lat, cases = state
        errors, failed = [], 0
        mc = [
            timed(lambda: latency.mc_expected_latency(scheme, topo, lat, resil, trials=cfg.trials))
            for scheme, topo, resil in cases
        ]
        event = []
        for scheme, topo, resil in cases:
            event.append(
                timed(
                    lambda: [
                        latency.simulate_iteration(scheme, topo, lat, resil, trial=t).completion_time
                        for t in range(EVENT_TRIALS)
                    ]
                )
            )
            times = event[-1][0]
            # Trial t of the event path and of the batched path must be the
            # same draw, so their means over the first K trials agree.
            mc_mean, _ = latency.mc_expected_latency(scheme, topo, lat, resil, trials=EVENT_TRIALS)
            event_mean = float(np.mean(times))
            if abs(event_mean - mc_mean) > MC_EQUALITY_RTOL * abs(mc_mean):
                failed += 1
                errors.append(f"{scheme}: event mean {event_mean!r} != batched mean {mc_mean!r}")
        return Unit(
            primary=(cfg.trials * len(cases), *total(mc)),
            secondary=(EVENT_TRIALS * len(cases), *total(event)),
            attempted=2 * len(cases),
            failed=failed,
            errors=errors,
            observed={},
        )


class Verify:
    """`codedreduce verify` on the (3,3) tree with s = 1 and d = 57:
    build_encoding, cr_allocate and enumerate_patterns (10,000-pattern cap)
    in set-up, then cr_execute with the identity oracle on each pattern,
    then validate_code.  Each unit sweeps the next block of patterns.

    Uses engine and codes unlike train: the output is d-dimensional, the
    tree is small and the patterns are many.  A full sweep makes 130k
    decode_row calls (47% of its 10-12 s) over only 3 distinct survivor
    sets, so a decode cache shows here; enumerate_patterns takes about
    1.3 s of set-up.  A per-point d x p oracle form would cost d x d here.
    The secondary rate is enumerate_patterns' patterns per second, taken
    from the set-ups.  Bypasses ml and latency.
    """

    name = "verify"
    quantiles = (0.5, 0.5)
    scale_rates = True
    setup_reps = 5
    min_units = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.d = 0

    def oracle(self, _theta, slices):
        """The identity oracle `codedreduce verify` uses: each point's
        gradient is its indicator vector, so an exact sum is all ones."""
        vec = np.zeros(self.d)
        for s in slices:
            vec[s.start : s.stop] += s.weight
        return vec

    def setup(self):
        cfg = load(self.name, self.seed, self.workdir)
        check_valid(cfg)
        tree = topology.build_tree(cfg.n, cfg.L)
        B = codes.build_encoding(cfg.n, cfg.s, cfg.seed)
        assignment = allocation.cr_allocate(tree, cfg.s, cfg.d, B=B)
        t0 = time.perf_counter()
        patterns = topology.enumerate_patterns(tree, cfg.s, cap=PATTERN_CAP, seed=self.seed)
        enum_s = time.perf_counter() - t0
        self.d = cfg.d
        return (cfg, tree, B, assignment, patterns), (len(patterns), enum_s, enum_s)

    def unit(self, state, k, timed):
        cfg, tree, B, assignment, patterns = state
        start = (k * VERIFY_BLOCK) % len(patterns)
        block = patterns[start : start + VERIFY_BLOCK]
        ones, theta = np.ones(cfg.d), np.zeros(1)
        sweep = timed(
            lambda: [
                caught(lambda: engine.cr_execute(tree, assignment, B, p, self.oracle, theta))
                for p in block
            ]
        )
        errors, failed = [], 0
        for i, got in enumerate(sweep[0]):
            if isinstance(got, Exception):
                err, msg = float("inf"), repr(got)
            else:
                err = float(np.max(np.abs(got - ones)))
                msg = f"error {err:.3e}"
            if err > RECOVERY_TOL:
                failed += 1
                errors.append(f"pattern {start + i}: {msg}")
        if not codes.validate_code(B):
            failed += 1
            errors.append(f"validate_code rejects the ({cfg.n},{cfg.s}) code")
        return Unit(
            primary=(len(block), *total([sweep])),
            secondary=None,
            attempted=len(block) + 1,
            failed=failed,
            errors=errors,
            observed={},
        )


class Transport:
    """Sequential real rounds of `orchestrate` on the (3,2) tree with s = 1,
    linear oracle (d = 60, p = 4) and a 5 s deadline, each round under
    criterion 09's plan (1.1, 2.5 and 2.8 die after the handshake) and
    each starting 13 processes.

    The only workload for transport.  The master's result existed at
    1.3-1.6 s while orchestrate returned at 6.2-6.7 s: the orphaned
    children of 1.1 retry until the deadline (the quorum bug), so a fix
    moves the secondary rate and leaves the primary alone.  The primary is
    rounds over the summed time until the master's gradient file exists
    (from its mtime), each scaled by a spawn probe taken just before the
    round; the secondary is 1 / (time until orchestrate returns).  A run
    takes at least five rounds.
    """

    name = "transport"
    # A run has five or six rounds, and the time to the result varies by
    # +-15% between rounds, so the primary rate is rounds over their summed
    # result times (None): over ten seeds its spread was 0.11, where the
    # median round's was 0.17 over five.  The round time is bimodal: about one
    # round in four ends early, when all of 1.1's orphans connect before it
    # dies.  Its median flipped between the modes from run to run, so the
    # secondary rate takes the slow mode, the 10th percentile: the round
    # whose late children wait out the deadline.
    quantiles = (None, 0.1)
    # Most of a round is process start-up and waiting on sockets and the
    # deadline, which a single-thread probe does not track (correlation
    # -0.06 with the result time over 20 rounds).  Start-up is tracked by
    # `spawn_probe` (correlation 0.58, log-log slope 0.67): unscaled, the
    # result rate's median fell 24% between two ten-seed sets half an hour
    # apart.  The round time is mostly the 5 s deadline and is not scaled.
    scale_rates = False
    setup_reps = 11
    min_units = 5  # a round lasts about 6.5 s

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.run_dir = workdir / f"transport-{os.getpid()}"

    def setup(self):
        cfg = load(self.name, self.seed, self.workdir)
        check_valid(cfg)
        tree = topology.build_tree(cfg.n, cfg.L)
        spec = transport.OracleSpec(
            kind=cfg.loss, d=cfg.d, p=cfg.p, data_seed=cfg.data_seed, noise_scale=cfg.noise
        )
        theta = np.random.default_rng(self.seed).standard_normal(cfg.p)
        tcfg = transport.TransportConfig(
            tree=tree, s=cfg.s, oracle=spec, theta=theta, deadline=cfg.deadline,
            alloc_seed=cfg.seed,
        )
        # Reference: the in-process round with no stragglers.
        B = codes.build_encoding(cfg.n, cfg.s, cfg.seed)
        assignment = allocation.cr_allocate(tree, cfg.s, cfg.d, B=B)
        dataset, _ = ml.generate_synthetic(cfg.d, cfg.p, cfg.data_seed, cfg.noise)
        oracle = ml.make_oracle(cfg.loss, dataset)
        expected = engine.cr_execute(tree, assignment, B, StragglerPattern({}), oracle, theta)
        message_bytes = len(transport.encode_message(transport.MSG_GRADIENT, MASTER, theta))
        plan = transport.FailurePlan(die_before_send=PLANNED_KILLS)
        return (cfg, tcfg, plan, expected, message_bytes), None

    def unit(self, state, k, timed):
        cfg, tcfg, plan, expected, message_bytes = state
        out_path = self.run_dir / "master_gradient.csv"
        errors = []
        start_cost = spawn_probe()
        wall0 = time.time_ns()
        report, round_s, _ = timed(lambda: transport.orchestrate(tcfg, self.run_dir, plan))
        result_s = (out_path.stat().st_mtime_ns - wall0) / 1e9 if out_path.exists() else None

        if not report.ok:
            errors.append(f"round failed: {report.error}")
        else:
            rel = float(np.max(np.abs(report.gradient - expected)) / np.max(np.abs(expected)))
            if rel > RECOVERY_TOL:
                errors.append(f"gradient off the in-process round by {rel:.3e} relative")
        # A planned node whose parent reaches quorum before it connects is
        # refused and reports connect_failed instead of killed (the quorum
        # defect), so the check is that only planned nodes report killed
        # and that no planned node contributed a gradient.
        planned = {str(node) for node in plan.die_before_send}
        statuses = {name: r.status for name, r in report.node_reports.items()}
        killed = {name for name, status in statuses.items() if status == "killed"}
        if not killed <= planned:
            errors.append(f"unplanned nodes report killed: {sorted(killed - planned)}")
        contributed = {name for name in planned if statuses.get(name) in ("ok", "discarded")}
        if contributed:
            errors.append(f"planned-dead nodes sent gradients: {sorted(contributed)}")

        counts = Counter(statuses.values())
        observed = {f"transport.nodes.{s}": counts.get(s, 0) for s in NODE_STATUSES}
        observed["transport.planned_preempted"] = len(planned - killed)
        # Computed, not captured: each parent that finished broadcasts the
        # model to its n children and decodes on the gradients it received.
        messages = sum(
            cfg.n + len(r.received_from)
            for r in report.node_reports.values()
            if r.status == "ok" and r.received_from
        )
        observed["transport.bytes_per_round"] = message_bytes * messages
        observed["transport.deadline_rounds"] = int(round_s >= tcfg.deadline)
        observed["transport.reap_s"] = round_s - result_s if result_s is not None else 0.0

        # In-process wire codec on one gradient message.
        for _ in range(CODEC_REPS):
            transport.decode_message(
                transport.encode_message(transport.MSG_GRADIENT, MASTER, expected)
            )
        return Unit(
            primary=(
                (1, result_s, result_s * SPAWN_PROBE_S / start_cost)
                if result_s is not None
                else None
            ),
            secondary=(1, round_s, round_s),
            attempted=1,
            failed=int(bool(errors)),
            errors=errors,
            observed=observed,
        )


WORKLOADS = {w.name: w for w in (Train, LatencyMC, Verify, Transport)}

# What the two headline rates mean on each workload, under the names the
# workload's own command would give them.
LABELS = {
    "train": (
        "train_cr_rounds_per_s: CR rounds over the wall time of CR's gd_run",
        "train_flat_rounds_per_s: GC, UMW, RAR and SGD rounds over their gd_run wall time",
    ),
    "latency_mc": (
        "mc_trials_per_s: Monte Carlo trials over wall time, all five schemes",
        "event_trials_per_s: simulate_iteration trials over wall time, all five schemes",
    ),
    "verify": (
        "verify_patterns_per_s: patterns over the sweep's wall time",
        "enumerate_patterns_per_s: patterns enumerated per second in set-up",
    ),
    "transport": (
        "1 / mean transport_result_s: time until the master's gradient file exists",
        "1 / transport_round_s_p90: time until orchestrate returns, slow mode",
    ),
}
