import csv
import io
import itertools
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from codedreduce import cli
from codedreduce.allocation import granularity
from codedreduce.cli import cmd_latency, cmd_train, cmd_validate, cmd_verify, main
from codedreduce.codes import CodeConstructionError, build_encoding
from codedreduce.config import load_config, validate_config
from codedreduce.ml import gd_run, generate_synthetic, load_dataset_csv
from codedreduce.topology import NodeId, build_tree, enumerate_patterns
from codedreduce.transport import RunReport

BASE_INI = """
[experiment]
schemes = {schemes}
seed = 1
trials = 400
out = {out}

[tree]
n = 3
L = 2
s = 1

[group]
N = 12
S = 3

[data]
kind = synthetic
d = {d}
p = 8
seed = 1

[latency]
a = 0.05
mu = 20.0
t_c = 1.0

[gd]
iterations = 8
step_size = 0.0005

[transport]
deadline = 6.0
"""


def write_config(tmp_path, schemes="cr, umw", d=60, name="exp.ini"):
    path = tmp_path / name
    path.write_text(BASE_INI.format(schemes=schemes, out=tmp_path / "results", d=d))
    return path


def test_load_and_validate_good_config(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.schemes == ("cr", "umw")
    assert cfg.n == 3 and cfg.L == 2 and cfg.s == 1
    assert validate_config(cfg) == []
    assert cmd_validate(cfg, out=io.StringIO()) == 0


def test_validate_reports_first_violation(tmp_path):
    cfg = load_config(write_config(tmp_path, d=64))  # not a multiple of 15
    problems = validate_config(cfg)
    assert problems and "granularity" in problems[0]
    buf = io.StringIO()
    assert cmd_validate(cfg, out=buf) == 1
    assert "INVALID" in buf.getvalue() and "granularity" in buf.getvalue()


@pytest.mark.parametrize(
    "command, field, value, headline, schemes",
    [
        pytest.param("verify", "d", 16, "granularity", "cr", id="verify-d-16-granularity"),
        pytest.param(
            "transport-demo", "d", 16, "granularity", "cr", id="transport-demo-d-16-granularity"
        ),
        pytest.param("train", "p", 0, "p >= 1", "cr", id="train-p-0-p >= 1"),
        # both commands build the tree even when cr is not scheduled
        ("verify", "d", 24, "granularity", "umw"),
        ("transport-demo", "d", 24, "granularity", "umw"),
        # NaN passes every ordered comparison, so each bound must say finite
        pytest.param(
            "latency", "t_c", float("nan"), "message cost", "cr", id="latency-t_c-nan"
        ),
        pytest.param(
            "transport-demo",
            "deadline",
            float("nan"),
            "deadline",
            "cr",
            id="transport-demo-deadline-nan",
        ),
        # GD settings and noise that gd_run or generate_synthetic would refuse
        pytest.param("train", "iterations", 0, "iteration", "cr", id="train-iterations-0"),
        pytest.param("train", "step_size", -1.0, "step size", "cr", id="train-step_size--1"),
        pytest.param(
            "train", "step_size", float("nan"), "step size", "cr", id="train-step_size-nan"
        ),
        pytest.param("train", "c1", float("nan"), "c1", "cr", id="train-c1-nan"),
        pytest.param("train", "lam", float("inf"), "lam", "cr", id="train-lam-inf"),
        pytest.param("train", "noise", float("nan"), "noise", "cr", id="train-noise-nan"),
        # a run of nothing, or one whose outputs would be written twice
        pytest.param("train", "schemes", (), "no scheme", "cr", id="train-schemes-empty"),
        pytest.param(
            "latency", "schemes", ("umw", "umw"), "umw more than once", "cr",
            id="latency-schemes-umw-umw",
        ),
        # a schedule whose first step c1/(1 + c2) divides by zero
        pytest.param(
            "train",
            {"step_size": None, "c1": 1.0, "c2": -1.0},
            None,
            "c2 > -1",
            "cr",
            id="train-c2--1",
        ),
        # data that is neither kind, or a CSV without a file, none, no trial
        pytest.param(
            "train", "data_kind", "hdf5", "data kind must be synthetic or csv", "cr",
            id="train-data_kind-hdf5",
        ),
        pytest.param(
            "latency", {"data_kind": "csv", "csv_path": ""}, None, "requires data.path", "cr",
            id="latency-csv-no-path",
        ),
        pytest.param("verify", "d", 0, "dataset size must be >= 1", "cr", id="verify-d-0"),
        pytest.param("latency", "trials", 0, "trials must be >= 1", "cr", id="latency-trials-0"),
        # a tree or tolerance that a scheduled scheme cannot run on
        pytest.param("train", "n", 0, "fan-out must be >= 1, got n=0", "cr", id="train-n-0"),
        pytest.param(
            "latency", "s", 3, "need 0 <= s < n, got n=3, s=3", "cr", id="latency-cr-s-3"
        ),
        pytest.param(
            "train", "S", 12, "need 0 <= S < N, got N=12, S=12", "gc", id="train-gc-S-12"
        ),
    ],
)
def test_commands_refuse_invalid_config(
    tmp_path, monkeypatch, command, field, value, headline, schemes
):
    changes = field if isinstance(field, dict) else {field: value}
    cfg = replace(load_config(write_config(tmp_path, schemes=schemes)), **changes)
    handler = {
        "verify": cmd_verify,
        "transport-demo": cli.cmd_transport_demo,
        "train": cmd_train,
        "latency": cmd_latency,
    }

    def no_processes(*_args, **_kwargs):
        raise AssertionError("an invalid config reached orchestrate")

    monkeypatch.setattr(cli, "orchestrate", no_processes)
    buf = io.StringIO()
    assert handler[command](cfg, out=buf) == 1
    assert buf.getvalue().startswith("INVALID:") and headline in buf.getvalue()


def test_transport_demo_needs_a_straggler_to_kill(tmp_path, monkeypatch):
    cfg = replace(load_config(write_config(tmp_path, schemes="cr")), s=0)

    def no_processes(*_args, **_kwargs):
        raise AssertionError("a round with nothing to kill reached orchestrate")

    monkeypatch.setattr(cli, "orchestrate", no_processes)
    buf = io.StringIO()
    assert cli.cmd_transport_demo(cfg, out=buf) == 1
    assert buf.getvalue() == "transport demo needs s >= 1 to have something to kill\n"


def write_csv_config(tmp_path, rows, header=False, name="data.csv"):
    """The base config on a CSV dataset of `rows` samples of 4 features and
    a label, written to `name` unless `rows` is None (a missing file)."""
    data = tmp_path / name
    if rows is not None:
        dataset, _ = generate_synthetic(rows, 4, seed=3)
        lines = [",".join(repr(float(v)) for v in row) for row in dataset.points]
        data.write_text("\n".join(["x1,x2,x3,x4,y"] * header + lines) + "\n")
    ini = write_config(tmp_path).read_text().replace(
        "kind = synthetic", f"kind = csv\npath = {data}"
    )
    path = tmp_path / "csv.ini"
    path.write_text(ini)
    return load_config(path)


@pytest.mark.parametrize("command", ["validate", "train"])
@pytest.mark.parametrize(
    "rows, header, headline",
    [
        # the INI's d of 60 would pass; the file's 50 rows are not a multiple of 15
        pytest.param(50, False, "d=50 is not a multiple of granularity 15", id="50-rows"),
        pytest.param(None, False, "No such file", id="missing-file"),
        pytest.param(60, True, "could not convert string to float", id="header-row"),
    ],
)
def test_commands_check_the_csv_data(tmp_path, command, rows, header, headline):
    cfg = write_csv_config(tmp_path, rows, header)
    buf = io.StringIO()
    assert {"validate": cmd_validate, "train": cmd_train}[command](cfg, out=buf) == 1
    assert buf.getvalue().startswith("INVALID:") and headline in buf.getvalue()
    assert not cfg.out.exists()


def test_train_takes_d_from_the_csv(tmp_path):
    """d, and with it the latency clock, comes from the file's 120 rows, not
    from the INI's d = 60."""
    cfg = write_csv_config(tmp_path, 120)
    buf = io.StringIO()
    assert cmd_train(cfg, out=buf) == 0
    assert "d=120" in buf.getvalue()
    dataset = load_dataset_csv(tmp_path / "data.csv")
    for scheme in cfg.schemes:
        gd_cfg = replace(cfg, d=120).gd_config(scheme)
        assert gd_cfg.latency.d == 120.0
        with open(cfg.out / f"train_{scheme}.csv") as fh:
            clock = [float(row["wall_sim_time"]) for row in csv.DictReader(fh)]
        assert clock == [row.sim_time for row in gd_run(dataset, gd_cfg)]


def test_validate_checks_the_tree_only_for_cr(tmp_path):
    cfg = replace(load_config(write_config(tmp_path, schemes="umw")), d=24)
    buf = io.StringIO()
    assert cmd_validate(cfg, out=buf) == 0
    assert buf.getvalue().startswith("OK:")


def test_overrides_take_precedence(tmp_path):
    cfg = load_config(write_config(tmp_path), seed=77, trials=5, out=tmp_path / "alt")
    assert cfg.seed == 77 and cfg.trials == 5 and cfg.out == tmp_path / "alt"


def test_train_outputs_and_determinism(tmp_path):
    cfg = load_config(write_config(tmp_path))
    buf = io.StringIO()
    assert cmd_train(cfg, out=buf) == 0
    trace_path = cfg.out / "train_cr.csv"
    summary_path = cfg.out / "train_summary.csv"
    first = trace_path.read_bytes(), summary_path.read_bytes()
    with open(summary_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and float(rows[0]["max_theta_diff"]) < 1e-6
    # identical config + seed: byte-identical outputs
    assert cmd_train(cfg, out=io.StringIO()) == 0
    assert (trace_path.read_bytes(), summary_path.read_bytes()) == first


def test_train_reports_a_code_too_large_to_validate(tmp_path):
    """A GC scheme at (156, 13), whose code's validation table numpy cannot
    allocate: train prints one error line and exits 1, with a traced peak
    under 16 MiB."""
    path = write_config(tmp_path, schemes="gc", d=1560)
    path.write_text(path.read_text().replace("N = 12\nS = 3\n", "N = 156\nS = 13\n"))
    cfg = load_config(path)
    assert (cfg.N, cfg.S) == (156, 13)
    buf = io.StringIO()
    tracemalloc.start()
    try:
        code = cmd_train(cfg, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    errors = [line for line in buf.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "(n=156, s=13)" in errors[0]
    assert peak < 16 * 2**20


def test_train_reports_a_code_table_the_host_cannot_allocate(tmp_path, small_host):
    """A GC scheme at (60, 11), whose code's validation table the host
    refuses with MemoryError: train prints one error line and exits 1."""
    path = write_config(tmp_path, schemes="gc", d=600)
    path.write_text(path.read_text().replace("N = 12\nS = 3\n", "N = 60\nS = 11\n"))
    cfg = load_config(path)
    assert (cfg.N, cfg.S) == (60, 11)
    buf = io.StringIO()
    assert cmd_train(cfg, out=buf) == 1
    errors = [line for line in buf.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "(n=60, s=11)" in errors[0]
    assert "this host can allocate" in errors[0]


def test_latency_summary_csv(tmp_path):
    cfg = load_config(write_config(tmp_path, schemes="cr, gc, umw, rar, sgd"))
    buf = io.StringIO()
    assert cmd_latency(cfg, out=buf) == 0
    with open(cfg.out / "latency_summary.csv") as fh:
        rows = {row["scheme"]: row for row in csv.DictReader(fh)}
    assert set(rows) == {"cr", "gc", "umw", "rar", "sgd"}
    cr_row = rows["cr"]
    assert float(cr_row["bound_lower"]) < float(cr_row["bound_upper"])
    assert rows["umw"]["bound_lower"] == ""
    for row in rows.values():
        assert float(row["mean"]) > 0
    assert "ordering by mean:" in buf.getvalue()


def test_latency_command_on_the_benchmark_schemes(tmp_path):
    """The latency command on the benchmark's five schemes at 200 trials
    exits 0 and writes one summary row per scheme."""
    config = Path(__file__).resolve().parent.parent / "perfbench/configs/latency_mc.ini"
    argv = ["--config", str(config), "--out", str(tmp_path), "--trials", "200", "latency"]
    assert main(argv) == 0
    with open(tmp_path / "latency_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["scheme"] for row in rows] == ["cr", "gc", "umw", "sgd", "rar"]


def test_verify_exhaustive_recovery(tmp_path):
    cfg = load_config(write_config(tmp_path))
    buf = io.StringIO()
    assert cmd_verify(cfg, out=buf) == 0
    text = buf.getvalue()
    assert "256/256" in text
    assert text.count("PASS") == 3


@pytest.mark.parametrize("seed", [7, 1888246863])
def test_verify_passes_on_the_benchmark_config_at_seeds_that_drew_bad_codes(
    tmp_path, capsys, seed
):
    """The seed-free (3,1) code recovers every pattern; a Gaussian code drawn
    from these seeds was valid but too ill-conditioned for 1e-9 over three
    coded layers."""
    config = Path(__file__).resolve().parent.parent / "perfbench/configs/verify.ini"
    argv = ["--config", str(config), "--seed", str(seed), "--out", str(tmp_path), "verify"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("PASS: recovery 10000/10000 patterns exact")


def test_verify_prints_the_worst_condition_number(tmp_path):
    cfg = load_config(write_config(tmp_path))
    buf = io.StringIO()
    assert cmd_verify(cfg, out=buf) == 0
    match = re.search(
        r"PASS: code validity for \(n=3, s=1\), all survivor sets, "
        r"worst condition number (\S+)\n",
        buf.getvalue(),
    )
    assert match, buf.getvalue()
    B = build_encoding(3, 1, cfg.seed)
    survivor_sets = np.array(list(itertools.combinations(range(3), 2)))
    assert match.group(1) == f"{float(np.linalg.cond(B.entries[survivor_sets]).max()):.4g}"


def test_verify_counts_every_pattern_that_misses(tmp_path, monkeypatch):
    """Weights 1e-6 off for every pattern with an odd number of stragglers:
    each such pattern, in whichever chunk of the sweep, fails."""
    real = cli.engine.worker_weights

    def off(tree, B, straggling, s):
        odd = straggling.sum(axis=(-2, -1)) % 2 == 1
        return real(tree, B, straggling, s) * np.where(odd, 1 + 1e-6, 1.0)[..., None]

    monkeypatch.setattr(cli.engine, "worker_weights", off)
    cfg = load_config(write_config(tmp_path))
    patterns = enumerate_patterns(build_tree(3, 2), 1, cap=10_000, seed=cfg.seed)
    odd = int(np.count_nonzero(patterns.sum(axis=(1, 2)) % 2))
    assert 0 < odd < len(patterns) == 256
    buf = io.StringIO()
    assert cmd_verify(cfg, out=buf) == 1
    assert buf.getvalue().startswith(f"FAIL: recovery {256 - odd}/256 patterns exact")


def test_verify_memory_stays_bounded_on_a_deep_tree(tmp_path):
    """10,000 sampled patterns of the 341-parent (4,5) tree: the command's
    traced peak stays under 100 MiB (the patterns take 13.6 MB as one
    boolean array)."""
    path = write_config(tmp_path, schemes="cr", d=124)
    path.write_text(path.read_text().replace("n = 3\nL = 2\n", "n = 4\nL = 5\n"))
    cfg = load_config(path)
    assert (cfg.n, cfg.L, cfg.s) == (4, 5, 1)
    buf = io.StringIO()
    tracemalloc.start()
    try:
        code = cmd_verify(cfg, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert buf.getvalue().startswith("PASS: recovery 10000/10000 patterns exact on (4,5)-tree")
    assert peak < 100 * 2**20


def test_verify_reports_failed_code_construction(tmp_path, monkeypatch):
    def no_code(n, s, seed):
        raise CodeConstructionError(f"no valid encoding matrix for (n={n}, s={s})")

    monkeypatch.setattr(cli, "build_encoding", no_code)
    cfg = load_config(write_config(tmp_path))
    buf = io.StringIO()
    assert cmd_verify(cfg, out=buf) == 1
    text = buf.getvalue()
    assert text.startswith("FAIL: code validity for (n=3, s=1)")
    assert "no valid encoding matrix" in text and "PASS" not in text


def test_main_entry_point(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "validate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK:")


def test_main_rejects_missing_config(tmp_path, capsys):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.ini")
    assert main(["--config", str(tmp_path / "nope.ini"), "validate"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID: config file") and "nope.ini" in out


def test_main_reports_a_malformed_config_value(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("n = 3\n", "n = three\n"))
    assert main(["--config", str(path), "validate"]) == 1
    assert capsys.readouterr().out == "INVALID: [tree] n must be int, got 'three'\n"


@pytest.mark.parametrize("command", ["validate", "train", "latency", "verify", "transport-demo"])
@pytest.mark.parametrize(
    "seed_flag, data_seed, headline",
    [(["--seed", "-1"], "1", "experiment seed"), ([], "-1", "data seed")],
    ids=["experiment-seed", "data-seed"],
)
def test_main_refuses_a_negative_seed(tmp_path, capsys, command, seed_flag, data_seed, headline):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("p = 8\nseed = 1\n", f"p = 8\nseed = {data_seed}\n"))
    assert main(["--config", str(path), *seed_flag, command]) == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID:") and f"{headline} must be >= 0, got -1" in out


@pytest.mark.parametrize("command", ["train", "latency", "transport-demo"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
def test_main_refuses_an_out_that_is_a_file(tmp_path, capsys, command, below):
    """Refused before anything is written; the conftest guard fails the
    test if transport-demo starts a process."""
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / below
    assert main(["--config", str(write_config(tmp_path)), "--out", str(out), command]) == 1
    printed = capsys.readouterr().out
    assert printed == f"INVALID: experiment.out {out} cannot be a directory: {taken} is not one\n"
    assert taken.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "taken"]


def test_transport_demo_refuses_a_run_dir_that_is_a_file(tmp_path, capsys):
    """`<out>/transport_demo` a file under an `<out>` directory: refused by
    the round before any process starts (the conftest guard)."""
    out = tmp_path / "results"
    out.mkdir()
    (out / "transport_demo").write_text("")
    assert main(["--config", str(write_config(tmp_path, schemes="cr", d=15)), "transport-demo"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    run_dir = out / "transport_demo"
    assert last == f"INVALID: run_dir {run_dir} cannot be a directory: {run_dir} is not one"
    assert sorted(p.name for p in out.iterdir()) == ["transport_demo"]


@pytest.mark.transport
def test_transport_demo_round_trip(tmp_path):
    path = write_config(tmp_path, schemes="cr", d=15)
    buf = io.StringIO()
    from codedreduce.cli import cmd_transport_demo

    cfg = load_config(path)
    assert cmd_transport_demo(cfg, out=buf) == 0
    assert "PASS" in buf.getvalue()


def test_transport_demo_builds_the_code_of_its_seed(tmp_path, monkeypatch):
    """`--seed` reaches the transport's code, as it does `verify`'s; the
    round itself is stubbed, so no process starts."""
    seen = []

    def capture(tcfg, run_dir, plan):
        seen.append(tcfg)
        return RunReport(False, None, "stubbed round", {}, [])

    monkeypatch.setattr(cli, "orchestrate", capture)
    cfg = load_config(write_config(tmp_path, schemes="cr", d=15), seed=7)
    buf = io.StringIO()
    assert cli.cmd_transport_demo(cfg, out=buf) == 1
    assert "FAIL: stubbed round" in buf.getvalue()
    assert [tcfg.alloc_seed for tcfg in seen] == [7]


def _victims_by_upward_walk(tree, seed):
    """The demo's failure plan as first written, the reference: a parent
    whose path to the master passes a victim is dead and loses no child of
    its own; a node is not started when that path, itself included, does."""
    rng = np.random.default_rng(seed)
    victims = set()

    def subtree_dead(node) -> bool:
        while node.layer > 0:
            if node in victims:
                return True
            node = NodeId(node.layer - 1, (node.index - 1) // tree.n + 1)  # its parent
        return False

    for parent in tree.parents():
        if parent.layer > 0 and subtree_dead(parent):
            continue
        victims.add(tree.children(parent)[int(rng.integers(tree.n))])
    return victims, {w for w in tree.workers() if subtree_dead(w)}


@pytest.mark.parametrize("n, L", [(n, L) for n in range(2, 6) for L in range(1, 5)])
def test_transport_demo_kills_as_the_upward_walk_does(tmp_path, monkeypatch, n, L):
    plans = []

    def capture(tcfg, run_dir, plan):
        plans.append(plan)
        return RunReport(False, None, "stubbed round", {}, [])

    monkeypatch.setattr(cli, "orchestrate", capture)
    base = load_config(write_config(tmp_path, schemes="cr"))
    for seed in range(20):
        cfg = replace(base, n=n, L=L, d=granularity(n, L, 1), seed=seed)
        buf = io.StringIO()
        assert cli.cmd_transport_demo(cfg, out=buf) == 1
        victims, never_start = _victims_by_upward_walk(build_tree(n, L), seed)
        killing = f"killing {len(victims)} nodes: {sorted(str(v) for v in victims)}\n"
        assert buf.getvalue().startswith(killing)
        assert plans[-1].never_start == never_start


def test_readme_config_example_loads(tmp_path):
    """The INI block under "Config schema (INI)" in README.md loads as printed."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config schema (INI)", 1)[1]
    example = section.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.ini"
    path.write_text(example)
    cfg = load_config(path)
    assert (cfg.n, cfg.L, cfg.s, cfg.d, cfg.trials) == (3, 2, 1, 300, 1000)
    assert validate_config(cfg) == []
