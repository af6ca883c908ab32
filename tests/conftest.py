import multiprocessing.process

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


@pytest.fixture(autouse=True)
def _no_process_outside_transport(request, monkeypatch):
    """`-m "not transport"` starts no process: any test without the mark
    fails the moment it starts one."""
    if request.node.get_closest_marker("transport") is None:

        def refuse(_self):
            raise AssertionError("a test without the transport mark started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
