"""Transport inputs refused where they are written, before any link or
process is made.  These tests carry no transport mark, so the conftest guard
fails any of them that starts a process."""

import math
import os
import re

import numpy as np
import pytest

from codedreduce.allocation import AllocationError
from codedreduce.topology import NodeId, build_tree
from codedreduce.transport import FailurePlan, OracleSpec, TransportConfig, orchestrate


def _config(**overrides):
    kwargs = dict(
        tree=build_tree(3, 1),
        s=1,
        oracle=OracleSpec(kind="identity", d=3, p=3),
        theta=np.zeros(3),
        deadline=5.0,
    )
    return TransportConfig(**{**kwargs, **overrides})


@pytest.mark.parametrize(
    "plan",
    [
        FailurePlan(never_start=frozenset({NodeId(3, 1)})),
        FailurePlan(die_before_send=frozenset({NodeId(3, 1)})),
        FailurePlan(kill_after={NodeId(3, 1): 0.5}),
        FailurePlan(die_before_send=frozenset({NodeId(1, 4)})),
        FailurePlan(never_start=frozenset({"1.1"})),
        FailurePlan(kill_after={"1.1": 0.5}),
        FailurePlan(die_before_send=frozenset({(1, 1)})),
    ],
    ids=[
        "never_start", "die_before_send", "kill_after", "index_past_layer",
        "str_never_start", "str_kill_after", "tuple_die_before_send",
    ],
)
def test_orchestrate_refuses_a_plan_node_outside_the_tree(tmp_path, plan):
    stray = next(iter((*plan.never_start, *plan.die_before_send, *plan.kill_after)))
    message = f"failure plan names node {stray}, not in the (3,1)-regular tree"
    with pytest.raises(ValueError, match=re.escape(message)):
        orchestrate(_config(), tmp_path / "run", plan)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("deadline", [math.nan, math.inf, 0.0, -1.0])
def test_transport_config_refuses_a_deadline_that_is_not_finite_and_positive(deadline):
    with pytest.raises(ValueError, match="transport deadline must be finite and positive"):
        _config(deadline=deadline)


@pytest.mark.parametrize("kind", ["linear", "logistic"])
@pytest.mark.parametrize("p", [0, -1])
def test_oracle_spec_refuses_a_data_kind_without_features(kind, p):
    with pytest.raises(ValueError, match=f"needs p >= 1 features, got p={p}"):
        OracleSpec(kind=kind, d=6, p=p)


@pytest.mark.parametrize("delay", [math.nan, math.inf, -1.0])
def test_failure_plan_refuses_a_kill_delay_that_is_not_finite_and_non_negative(delay):
    with pytest.raises(ValueError, match=r"kill_after delays must be finite and >= 0, got \{'1.2'"):
        FailurePlan(kill_after={NodeId(1, 2): delay})


@pytest.mark.parametrize("kind", ["linear", "logistic"])
@pytest.mark.parametrize(
    "theta",
    [np.zeros(3), np.zeros(5), np.zeros((4, 1)), np.array([0.0, math.nan, 0.0, 0.0]),
     np.array([math.inf, 0.0, 0.0, 0.0])],
    ids=["short", "long", "column", "nan", "inf"],
)
def test_transport_config_refuses_a_theta_that_is_not_a_finite_p_vector(kind, theta):
    with pytest.raises(ValueError, match=rf"theta for the {kind} oracle must be a finite vector"):
        _config(oracle=OracleSpec(kind=kind, d=6, p=4), theta=theta)


def test_transport_config_takes_a_finite_p_vector_and_any_identity_theta():
    _config(oracle=OracleSpec(kind="linear", d=6, p=4), theta=np.array([0.5, -1.0, 2.0, 0.25]))
    _config(oracle=OracleSpec(kind="identity", d=3, p=3), theta=np.zeros(1))


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
def test_orchestrate_refuses_a_run_dir_that_is_a_file(tmp_path, below):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    run_dir = taken / below
    message = f"run_dir {run_dir} cannot be a directory: {taken} is not one"
    with pytest.raises(ValueError, match=re.escape(message)):
        orchestrate(_config(), run_dir)
    assert taken.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize(
    "overrides, error",
    [
        (dict(tree=build_tree(3, 2), oracle=OracleSpec(kind="identity", d=61, p=61)),
         AllocationError),
        (dict(s=3), ValueError),
    ],
    ids=["allocation", "code"],
)
def test_a_refused_round_leaves_the_run_dir_as_it_found_it(tmp_path, overrides, error):
    old = tmp_path / "old"
    old.mkdir()
    (old / "node_1_1.json").write_text('{"node": "1.1"}\n')
    (old / "master_gradient.csv").write_text("1.0,2.0\n")
    before = {path.name: path.read_bytes() for path in old.iterdir()}
    with pytest.raises(error):
        orchestrate(_config(**overrides), old)
    assert {path.name: path.read_bytes() for path in old.iterdir()} == before
    with pytest.raises(error):
        orchestrate(_config(**overrides), tmp_path / "new")
    assert not (tmp_path / "new").exists()


def test_orchestrate_refuses_a_platform_without_fork(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(NotImplementedError, match="no os.fork"):
        orchestrate(_config(), tmp_path / "run")
    assert not (tmp_path / "run").exists()
