import csv
import io
from dataclasses import replace
from pathlib import Path

import pytest

from codedreduce import cli
from codedreduce.cli import cmd_latency, cmd_train, cmd_validate, cmd_verify, main
from codedreduce.codes import CodeConstructionError
from codedreduce.config import load_config, validate_config

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
    ],
)
def test_commands_refuse_invalid_config(tmp_path, command, field, value, headline, schemes):
    cfg = replace(load_config(write_config(tmp_path, schemes=schemes)), **{field: value})
    handler = {"verify": cmd_verify, "transport-demo": cli.cmd_transport_demo, "train": cmd_train}
    buf = io.StringIO()
    assert handler[command](cfg, out=buf) == 1
    assert buf.getvalue().startswith("INVALID:") and headline in buf.getvalue()


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
