"""Command-line experiment harness.

Subcommands:
    validate        check a config against every scheme constraint
    train           run gradient descent per scheme, write trace CSVs
    latency         Monte Carlo iteration times per scheme, with envelopes
    verify          recovery (a seeded sample beyond 10,000 patterns), codes, load
    transport-demo  one coded round as real processes, with failures

All outputs are deterministic given the config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import replace

import numpy as np

from . import engine
from .allocation import cr_allocate, slice_count
from .codes import CodeConstructionError, build_encoding, worst_condition
from .config import ExperimentConfig, load_config, validate_config
from .latency import cr_bounds, mc_expected_latency, scheme_topology
from .ml import (
    FULL_GRADIENT_SCHEMES,
    Dataset,
    gd_run,
    generate_synthetic,
    load_dataset_csv,
    trace_to_csv,
)
from .topology import build_tree, enumerate_patterns
from .transport import FailurePlan, OracleSpec, TransportConfig, orchestrate

__all__ = ["main", "cmd_validate", "cmd_train", "cmd_latency", "cmd_verify", "cmd_transport_demo"]


def _validated(
    cfg: ExperimentConfig, out, builds_tree: bool = False
) -> tuple[ExperimentConfig | None, Dataset | None]:
    """The config with a CSV dataset's d and p read from its file, and that
    dataset (None for synthetic data); the config is None once its problems
    are printed, headline first."""
    dataset, problems = None, []
    if cfg.data_kind == "csv" and cfg.csv_path:
        try:
            dataset = load_dataset_csv(cfg.csv_path)
        except (OSError, ValueError) as err:
            problems = [f"cannot read a sample matrix from data.path {cfg.csv_path}: {err}"]
        else:
            cfg = replace(cfg, d=dataset.d, p=dataset.p)
    problems = problems or validate_config(cfg, builds_tree)
    if not problems:
        return cfg, dataset
    print(f"INVALID: {problems[0]}", file=out)
    for extra in problems[1:]:
        print(f"  also: {extra}", file=out)
    return None, None


def _accepted(cfg: ExperimentConfig, out) -> tuple[ExperimentConfig | None, Dataset | None]:
    """`validate`'s check and report, for the commands that run it first."""
    cfg, dataset = _validated(cfg, out)
    if cfg is not None:
        print(
            f"OK: schemes={','.join(cfg.schemes)} d={cfg.d} "
            f"tree=({cfg.n},{cfg.L},{cfg.s}) group=({cfg.N},{cfg.S})",
            file=out,
        )
    return cfg, dataset


def cmd_validate(cfg: ExperimentConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    return 0 if _accepted(cfg, out)[0] is not None else 1


def cmd_train(cfg: ExperimentConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    cfg, dataset = _accepted(cfg, out)
    if cfg is None:
        return 1
    cfg.out.mkdir(parents=True, exist_ok=True)
    theta_star = None
    if dataset is None:
        dataset, theta_star = generate_synthetic(cfg.d, cfg.p, cfg.data_seed, cfg.noise)
    finals = {}
    for scheme in cfg.schemes:
        try:
            trace = gd_run(dataset, cfg.gd_config(scheme), theta_star)
        except CodeConstructionError as err:
            print(f"error: {scheme}: {err}", file=out)
            return 1
        path = cfg.out / f"train_{scheme}.csv"
        trace_to_csv(trace, path)
        finals[scheme] = trace[-1].theta
        print(f"{scheme}: {len(trace)} iterations -> {path}", file=out)
    full = [sch for sch in cfg.schemes if sch in FULL_GRADIENT_SCHEMES]
    with open(cfg.out / "train_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme_a", "scheme_b", "max_theta_diff"])
        for i, sa in enumerate(full):
            for sb in full[i + 1 :]:
                diff = float(np.max(np.abs(finals[sa] - finals[sb])))
                writer.writerow([sa, sb, repr(diff)])
                print(f"max |theta({sa}) - theta({sb})| = {diff:.3e}", file=out)
    return 0


def cmd_latency(cfg: ExperimentConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    cfg = _accepted(cfg, out)[0]
    if cfg is None:
        return 1
    cfg.out.mkdir(parents=True, exist_ok=True)
    lat = cfg.latency_config()
    rows = []
    means = {}
    for scheme in cfg.schemes:
        topo, resil = scheme_topology(scheme, cfg)
        bounds = cr_bounds(lat, cfg.n, cfg.L, cfg.s) if scheme == "cr" and cfg.s else ()
        mean, half = mc_expected_latency(scheme, topo, lat, resil, trials=cfg.trials)
        means[scheme] = mean
        rows.append([scheme, repr(mean), repr(half), *([repr(b) for b in bounds] or ["", ""])])
        print(f"{scheme}: mean={mean:.6g} ci95=±{half:.3g}", file=out)
    path = cfg.out / "latency_summary.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "mean", "ci95_half_width", "bound_lower", "bound_upper"])
        writer.writerows(rows)
    ordering = " < ".join(sorted(means, key=means.get))
    print(f"ordering by mean: {ordering}", file=out)
    print(f"wrote {path}", file=out)
    return 0


def cmd_verify(cfg: ExperimentConfig, out=None) -> int:
    """Recovery over every straggler pattern (a seeded sample of 10,000
    beyond that many), code validity and equal load.  A pattern recovers
    exactly when every block of points weighs 1 (to 1e-9) in the round's
    output, read with no gradient computed from the coefficient pass and
    the block-weight map, one pass per chunk of `enumerate_patterns` rows.
    `build_encoding` returns only a code whose every survivor set decodes,
    so code validity is reported from its construction, with the worst
    condition number of B_F over the code's survivor sets F from
    `codes.worst_condition`, one set per rotation orbit and 256 at a time."""
    out = out if out is not None else sys.stdout
    cfg = _validated(cfg, out, builds_tree=True)[0]
    if cfg is None:
        return 1
    validity = f"code validity for (n={cfg.n}, s={cfg.s}), all survivor sets"
    try:
        B = build_encoding(cfg.n, cfg.s, cfg.seed)
    except CodeConstructionError as err:
        print(f"FAIL: {validity}: {err}", file=out)
        return 1

    tree = build_tree(cfg.n, cfg.L)
    d = cfg.d
    assignment = cr_allocate(tree, cfg.s, d, B=B)
    patterns = enumerate_patterns(tree, cfg.s, cap=10_000, seed=cfg.seed)
    bad = 0
    for start in range(0, len(patterns), engine._PASS_CHUNK):
        straggling = patterns[start : start + engine._PASS_CHUNK]
        c = engine.worker_weights(tree, B, straggling, cfg.s)
        # exact recovery: every block, so every point, weighs 1
        error = np.abs(assignment.block_weights(c) - 1.0).max(axis=-1)
        bad += int(np.count_nonzero(error > 1e-9))
    status = "PASS" if bad == 0 else "FAIL"
    print(
        f"{status}: recovery {len(patterns) - bad}/{len(patterns)} patterns exact "
        f"on ({cfg.n},{cfg.L})-tree, s={cfg.s}, d={d}",
        file=out,
    )
    print(f"PASS: {validity}, worst condition number {worst_condition(B):.4g}", file=out)

    load = assignment.points_per_node
    equal = all(slice_count(assignment.local[node]) == load for node in tree.workers())
    print(f"{'PASS' if equal else 'FAIL'}: equal per-node load of {load} points", file=out)
    return 1 if bad or not equal else 0


def cmd_transport_demo(cfg: ExperimentConfig, out=None) -> int:
    """One real-process round killing one child per live parent, checked
    against the exact aggregate."""
    out = out if out is not None else sys.stdout
    cfg = _validated(cfg, out, builds_tree=True)[0]
    if cfg is None:
        return 1
    if cfg.s < 1:
        print("transport demo needs s >= 1 to have something to kill", file=out)
        return 1
    tree = build_tree(cfg.n, cfg.L)
    rng = np.random.default_rng(cfg.seed)
    victims, orphans = set(), set()
    for parent in tree.parents():  # layer-major: a parent's fate is settled before its children's
        kids = tree.children(parent)
        if parent in victims or parent in orphans:  # a dead node loses its whole subtree
            orphans.update(kids)
        else:
            victims.add(kids[int(rng.integers(tree.n))])
    plan = FailurePlan(never_start=frozenset(victims | orphans))  # orphans are not started
    spec = OracleSpec(kind="identity", d=cfg.d, p=cfg.d)
    tcfg = TransportConfig(
        tree=tree, s=cfg.s, oracle=spec, theta=np.zeros(cfg.d), deadline=cfg.deadline,
        alloc_seed=cfg.seed,
    )
    cfg.out.mkdir(parents=True, exist_ok=True)
    print(f"killing {len(victims)} nodes: {sorted(str(v) for v in victims)}", file=out)
    try:
        report = orchestrate(tcfg, cfg.out / "transport_demo", plan)
    except ValueError as err:
        print(f"INVALID: {err}", file=out)
        return 1
    if not report.ok:
        print(f"FAIL: {report.error}", file=out)
        return 1
    err = float(np.max(np.abs(report.gradient - np.ones(cfg.d))))
    status = "PASS" if err <= 1e-9 else "FAIL"
    print(f"{status}: recovered gradient within {err:.3e} of the exact sum", file=out)
    return 0 if status == "PASS" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="codedreduce", description=__doc__)
    parser.add_argument("--config", required=True, help="INI experiment file")
    parser.add_argument("--seed", type=int, default=None, help="override experiment.seed")
    parser.add_argument("--trials", type=int, default=None, help="override experiment.trials")
    parser.add_argument("--out", default=None, help="override experiment.out")
    parser.add_argument(
        "command",
        choices=["validate", "train", "latency", "verify", "transport-demo"],
    )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, trials=args.trials, out=args.out)
    except (OSError, ValueError, configparser.Error) as err:
        print(f"INVALID: {err}")
        return 1
    handler = {
        "validate": cmd_validate,
        "train": cmd_train,
        "latency": cmd_latency,
        "verify": cmd_verify,
        "transport-demo": cmd_transport_demo,
    }[args.command]
    return handler(cfg)


if __name__ == "__main__":
    sys.exit(main())
