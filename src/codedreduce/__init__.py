"""Straggler-coded gradient aggregation over tree topologies, with the flat
baselines, an iteration-latency simulator, and a gradient-descent harness."""

from .allocation import (
    Assignment,
    WeightedSlice,
    cr_allocate,
    granularity,
    r_cr,
    r_gc,
)
from .codes import (
    DecodeRow,
    EncodingMatrix,
    build_encoding,
    decode_row,
    validate_code,
    worst_condition,
)
from .engine import cr_execute, gc_execute, rar_execute, sgd_execute, umw_execute
from .latency import (
    LatencyConfig,
    SimOutcome,
    cr_bounds,
    expected_order_stat,
    mc_expected_latency,
    simulate_iteration,
)
from .ml import Dataset, GDConfig, gd_run, generate_synthetic, linear_grad, logistic_grad
from .topology import MASTER, NodeId, RegularTree, StragglerPattern, build_tree, enumerate_patterns

__version__ = "0.1.0"
