"""The benchmark's tracer wraps package functions by (module, attribute)
name; every name it wraps must exist, or a traced benchmark run crashes."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    """perfbench's `targets` and `workloads`, imported without writing
    bytecode into perfbench/."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    sys.dont_write_bytecode = True
    try:
        import targets
        import workloads
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return targets, workloads


@pytest.mark.parametrize("name", ["train", "latency_mc", "verify", "transport"])
def test_every_traced_name_resolves(bench, name, tmp_path):
    targets, workloads = bench
    wl = workloads.WORKLOADS[name](0, tmp_path)
    missing = [
        f"{getattr(t.module, '__name__', t.module)}.{t.attr}"
        for t in targets.for_workload(wl)
        if not callable(getattr(t.module, t.attr, None))
    ]
    assert missing == []
