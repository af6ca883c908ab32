import csv
import io
from dataclasses import replace
from pathlib import Path

import pytest

from codedreduce import cli
from codedreduce.cli import cmd_latency, cmd_train, cmd_validate, cmd_verify, main
from codedreduce.codes import CodeConstructionError
from codedreduce.config import load_config, validate_config
from codedreduce.ml import gd_run, generate_synthetic, load_dataset_csv
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
        # a schedule whose first step c1/(1 + c2) divides by zero
        pytest.param(
            "train",
            {"step_size": None, "c1": 1.0, "c2": -1.0},
            None,
            "c2 > -1",
            "cr",
            id="train-c2--1",
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


def test_verify_exhaustive_recovery(tmp_path):
    cfg = load_config(write_config(tmp_path))
    buf = io.StringIO()
    assert cmd_verify(cfg, out=buf) == 0
    text = buf.getvalue()
    assert "256/256" in text
    assert text.count("PASS") == 3


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


def test_main_rejects_missing_config(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["--config", str(tmp_path / "nope.ini"), "validate"])


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
