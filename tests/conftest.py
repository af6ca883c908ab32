import multiprocessing.process
import subprocess

import numpy as np
import pytest

from codedreduce.codes import EncodingMatrix


@pytest.fixture
def reference_b() -> EncodingMatrix:
    """The (3, 1) code used throughout the worked examples."""
    return EncodingMatrix(
        n=3, s=1, entries=np.array([[0.5, 1.0, 0.0], [0.0, 1.0, -1.0], [0.5, 0.0, 1.0]])
    )


def identity_oracle_for(d: int):
    """Gradient oracle where each point's gradient is its own indicator
    vector, so any exact aggregate is the all-ones vector of length d."""

    def oracle(_theta, slices):
        out = np.zeros(d)
        for s in slices:
            out[s.start : s.stop] += s.weight
        return out

    return oracle


@pytest.fixture
def small_host(monkeypatch):
    """np.zeros raises numpy's MemoryError for more than 2**32 elements, as
    a host does for the 5.03 TiB validation table of the (60, 11) code."""
    real = np.zeros

    def zeros(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) > 2**32:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)


@pytest.fixture(autouse=True)
def _no_process_outside_transport(request, monkeypatch):
    """`-m "not transport"` starts no process: any test without the mark
    fails the moment it starts one, through `multiprocessing` or through
    `subprocess`, which starts the transport's round host."""
    if request.node.get_closest_marker("transport") is None:

        def refuse(_self, *_args, **_kwargs):
            raise AssertionError("a test without the transport mark started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        monkeypatch.setattr(subprocess.Popen, "__init__", refuse)


@pytest.fixture(autouse=True)
def _no_process_left_alive():
    """A test that leaves a child process running fails."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert not left, f"the test left processes alive: {[proc.name for proc in left]}"
