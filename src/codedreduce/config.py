"""Experiment configuration: a flat key-value file with sections (INI).

Schema (see README for the full description):

    [experiment]   schemes, seed, trials, out
    [tree]         n, L, s           (tree-coded scheme)
    [group]        N, S              (flat schemes)
    [data]         kind=synthetic|csv, d, p, seed, noise | path
    [latency]      a, mu, t_c
    [gd]           iterations, step_size | c1+c2, lambda, loss
    [transport]    deadline
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from math import isfinite
from pathlib import Path

from .allocation import granularity, r_cr
from .latency import LatencyConfig, scheme_topology, scheme_tree
from .ml import GDConfig

__all__ = ["ExperimentConfig", "load_config", "validate_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    schemes: tuple[str, ...]
    seed: int
    trials: int
    out: Path
    n: int
    L: int
    s: int
    N: int
    S: int
    data_kind: str
    d: int
    p: int
    data_seed: int
    noise: float
    csv_path: str
    a: float
    mu: float
    t_c: float
    iterations: int
    step_size: float | None
    c1: float | None
    c2: float | None
    lam: float
    loss: str
    deadline: float

    def latency_config(self) -> LatencyConfig:
        return LatencyConfig(a=self.a, mu=self.mu, t_c=self.t_c, d=float(self.d), seed=self.seed)

    def gd_config(self, scheme: str) -> GDConfig:
        return GDConfig(
            scheme=scheme,
            iterations=self.iterations,
            step_size=self.step_size,
            c1=self.c1,
            c2=self.c2,
            lam=self.lam,
            loss=self.loss,
            n=self.n,
            L=self.L,
            s=self.s,
            N=self.N,
            S=self.S,
            seed=self.seed,
            latency=self.latency_config(),
        )


def load_config(path, seed=None, trials=None, out=None) -> ExperimentConfig:
    """Parse an INI experiment file; `seed`, `trials`, `out` override it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file {path} not found or unreadable")

    def get(section, key, cast, default=None):
        if parser.has_option(section, key):
            return cast(parser.get(section, key))
        return default

    schemes = tuple(
        tok.strip().lower()
        for tok in get("experiment", "schemes", str, "cr").split(",")
        if tok.strip()
    )
    return ExperimentConfig(
        schemes=schemes,
        seed=seed if seed is not None else get("experiment", "seed", int, 0),
        trials=trials if trials is not None else get("experiment", "trials", int, 1000),
        out=Path(out) if out is not None else Path(get("experiment", "out", str, "out")),
        n=get("tree", "n", int, 3),
        L=get("tree", "l", int, 2),
        s=get("tree", "s", int, 1),
        N=get("group", "n", int, 12),
        S=get("group", "s", int, 3),
        data_kind=get("data", "kind", str, "synthetic"),
        d=get("data", "d", int, 300),
        p=get("data", "p", int, 20),
        data_seed=get("data", "seed", int, 1),
        noise=get("data", "noise", float, 1.0),
        csv_path=get("data", "path", str, ""),
        a=get("latency", "a", float, 0.05),
        mu=get("latency", "mu", float, 20.0),
        t_c=get("latency", "t_c", float, 1.0),
        iterations=get("gd", "iterations", int, 50),
        step_size=get("gd", "step_size", float, None),
        c1=get("gd", "c1", float, None),
        c2=get("gd", "c2", float, None),
        lam=get("gd", "lambda", float, 0.0),
        loss=get("gd", "loss", str, "linear"),
        deadline=get("transport", "deadline", float, 30.0),
    )


def validate_config(cfg: ExperimentConfig, builds_tree: bool = False) -> list[str]:
    """All constraint violations, first one being the reporting headline.

    Every scheduled scheme runs on the tree `scheme_tree` gives it, and the
    (n, L, s) tree is checked too when the caller builds it whatever the
    schemes (`builds_tree`), as `verify` and `transport-demo` do.
    `RegularTree`, `r_cr` and `scheme_tree` refuse a bad tree or tolerance,
    and d must be a multiple of the granularity of each distinct (tree,
    coded s)."""
    problems: list[str] = []
    if cfg.data_kind not in ("synthetic", "csv"):
        problems.append(f"data kind must be synthetic or csv, got {cfg.data_kind!r}")
    if cfg.data_kind == "csv" and not cfg.csv_path:
        problems.append("data kind csv requires data.path")
    if cfg.data_kind == "synthetic" and cfg.p < 1:
        problems.append(f"synthetic data needs p >= 1 features, got {cfg.p}")
    if cfg.data_kind == "synthetic" and not (isfinite(cfg.noise) and cfg.noise >= 0):
        problems.append(f"synthetic data needs a finite noise >= 0, got {cfg.noise}")
    if cfg.d < 1:
        problems.append(f"dataset size must be >= 1, got {cfg.d}")
    checked = set()
    for scheme in ["cr"] * builds_tree + list(cfg.schemes):
        try:
            tree, _, coded_s = scheme_tree(scheme, *scheme_topology(scheme, cfg))
            if (tree, coded_s) in checked:
                continue
            checked.add((tree, coded_s))
            d0 = granularity(tree.n, tree.L, coded_s)
        except ValueError as err:
            if str(err) not in problems:
                problems.append(str(err))
            continue
        if cfg.d % d0 != 0:
            problems.append(
                f"d={cfg.d} is not a multiple of granularity {d0} for "
                f"(n={tree.n}, L={tree.L}, s={coded_s}); per-node load would be "
                f"{r_cr(tree.n, tree.L, coded_s) * cfg.d} points"
            )
    if cfg.trials < 1:
        problems.append(f"trials must be >= 1, got {cfg.trials}")
    # GDConfig and LatencyConfig own the GD and timing rules
    for scheme in cfg.schemes:
        try:
            cfg.gd_config(scheme)
        except ValueError as err:
            if str(err) not in problems:
                problems.append(str(err))
    if not (isfinite(cfg.deadline) and cfg.deadline > 0):
        problems.append(f"transport deadline must be finite and positive, got {cfg.deadline}")
    return problems
