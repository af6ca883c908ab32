import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codedreduce.allocation import (
    AllocationError,
    WeightedSlice,
    assignment_to_csv,
    cr_allocate,
    granularity,
    r_cr,
    r_gc,
    slice_count,
)
from codedreduce.codes import EncodingMatrix, build_encoding
from codedreduce.topology import MASTER, NodeId, build_tree


def brute_force_granularity(n, L, s, limit=2000):
    """Independent oracle: walk the allocation recursion for each candidate d
    and return the first d where every intermediate size is an integer."""
    load = r_cr(n, L, s)
    for d in range(1, limit + 1):
        if (load * d).denominator != 1:
            continue
        ok = True
        remainder = Fraction(d)
        for _ in range(L):
            if (remainder / n).denominator != 1:
                ok = False
                break
            remainder = remainder * Fraction(s + 1, n) - load * d
        if ok and remainder == 0:
            return d
    raise AssertionError("no feasible d found")


def test_load_fraction_examples():
    assert r_cr(3, 2, 1) == Fraction(4, 15)
    assert r_cr(12, 2, 1) == Fraction(1, 42)
    assert r_gc(3, 1) == Fraction(2, 3)
    assert r_gc(7, 0) == Fraction(1, 7)
    assert r_gc(156, 13) == Fraction(7, 78)


def test_single_layer_collapses_to_flat_load():
    for n in range(2, 21):
        for s in range(n):
            assert r_cr(n, 1, s) == r_gc(n, s)


@pytest.mark.parametrize(
    "n,L,s,expected", [(3, 2, 1, 15), (3, 1, 1, 3), (2, 1, 0, 2), (2, 2, 1, 4)]
)
def test_granularity_known_values(n, L, s, expected):
    assert granularity(n, L, s) == expected
    assert brute_force_granularity(n, L, s) == expected


@pytest.mark.parametrize("n,L,s", [(3, 1, 3), (3, 1, -1), (3, 0, 1)])
def test_granularity_refuses_bad_arguments_on_every_call(n, L, s):
    for _ in range(2):  # a cached granularity caches no refusal
        with pytest.raises(ValueError):
            granularity(n, L, s)


@pytest.mark.parametrize("n,L,s", [(4, 2, 1), (5, 2, 2), (3, 3, 1), (6, 2, 3), (2, 4, 1)])
def test_granularity_matches_brute_force(n, L, s):
    d0 = granularity(n, L, s)
    assert brute_force_granularity(n, L, s) == d0
    # any multiple must also allocate cleanly
    tree = build_tree(n, L)
    cr_allocate(tree, s, 2 * d0, B=build_encoding(n, s, 1))


def test_layer1_subtree_shares_reference_example(reference_b):
    subtree = cr_allocate(build_tree(3, 2), 1, 15, B=reference_b).subtree
    assert subtree[NodeId(1, 1)] == (WeightedSlice(0, 5, 0.5), WeightedSlice(5, 10, 1.0))
    assert subtree[NodeId(1, 2)] == (WeightedSlice(5, 10, 1.0), WeightedSlice(10, 15, -1.0))
    assert subtree[NodeId(1, 3)] == (WeightedSlice(0, 5, 0.5), WeightedSlice(10, 15, 1.0))


def test_allocation_reference_walkthrough(reference_b):
    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 1, 15, B=reference_b)
    assert assignment.points_per_node == 4
    for node in tree.workers():
        assert slice_count(assignment.local[node]) == 4
    assert assignment.subtree[NodeId(1, 1)] == (
        WeightedSlice(0, 5, 0.5),
        WeightedSlice(5, 10, 1.0),
    )
    assert assignment.local[NodeId(1, 1)] == (WeightedSlice(0, 4, 0.5),)
    assert assignment.passdown[NodeId(1, 1)] == (
        WeightedSlice(4, 5, 0.5),
        WeightedSlice(5, 10, 1.0),
    )
    # bottom-layer shares carry the multiplied coefficients {1/2, 1} down
    assert assignment.local[NodeId(2, 1)] == (
        WeightedSlice(4, 5, 0.25),
        WeightedSlice(5, 6, 0.5),
        WeightedSlice(6, 8, 1.0),
    )
    assert assignment.local[NodeId(2, 2)] == (
        WeightedSlice(6, 8, 1.0),
        WeightedSlice(8, 10, -1.0),
    )
    assert assignment.local[NodeId(2, 3)] == (
        WeightedSlice(4, 5, 0.25),
        WeightedSlice(5, 6, 0.5),
        WeightedSlice(8, 10, 1.0),
    )


def test_allocation_scales_with_dataset(reference_b):
    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 1, 30, B=reference_b)
    for node in tree.workers():
        assert slice_count(assignment.local[node]) == 8


def test_uncoded_allocation_partitions_cleanly():
    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 0, 12, B=build_encoding(3, 0, 0))
    seen = np.zeros(12)
    for node in tree.workers():
        for s in assignment.local[node]:
            assert s.weight == 1.0
            seen[s.start : s.stop] += 1
        assert slice_count(assignment.local[node]) == 1
    np.testing.assert_array_equal(seen, np.ones(12))


def test_layer1_redundancy_is_s_plus_1():
    tree = build_tree(4, 2)
    s = 1
    assignment = cr_allocate(tree, s, 24, B=build_encoding(4, s, 5))
    cover = np.zeros(24, dtype=int)
    for i in range(1, 5):
        for sl in assignment.subtree[NodeId(1, i)]:
            cover[sl.start : sl.stop] += 1
    np.testing.assert_array_equal(cover, np.full(24, s + 1))


def test_equal_load_over_random_configurations():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        L = int(rng.integers(1, 4))
        s = int(rng.integers(0, n))
        d0 = granularity(n, L, s)
        d = d0 * int(rng.integers(1, 4))
        tree = build_tree(n, L)
        assignment = cr_allocate(tree, s, d, B=build_encoding(n, s, int(rng.integers(1_000_000))))
        expected = r_cr(n, L, s) * d
        assert expected.denominator == 1
        for node in tree.workers():
            assert slice_count(assignment.local[node]) == int(expected)


def test_granularity_violation_rejected():
    tree = build_tree(3, 2)
    with pytest.raises(AllocationError, match="granularity"):
        cr_allocate(tree, 1, 16, B=build_encoding(3, 1, 0))


@pytest.mark.parametrize(
    "refused, problem",
    [
        pytest.param(lambda: WeightedSlice(3, 3, 1.0), "empty slice [3, 3)", id="empty-slice"),
        pytest.param(lambda: WeightedSlice(0, 3, 0.0), "weight must be nonzero", id="zero-weight"),
        pytest.param(lambda: r_gc(4, 4), "need 0 <= S < N, got N=4, S=4", id="r_gc-S-N"),
        pytest.param(
            lambda: cr_allocate(build_tree(3, 2), 3, 15, B=build_encoding(3, 1, 0)),
            "need 0 <= s < n, got n=3, s=3",
            id="cr_allocate-s-n",
        ),
        pytest.param(
            lambda: cr_allocate(build_tree(3, 2), 1, 15, B=build_encoding(4, 1, 0)),
            "encoding matrix is for (n=4, s=1), tree needs (n=3, s=1)",
            id="cr_allocate-wrong-code",
        ),
    ],
)
def test_allocation_refuses_bad_arguments(refused, problem):
    with pytest.raises(ValueError) as err:
        refused()
    assert problem in str(err.value)


def test_csv_dump_is_parseable(tmp_path, reference_b):
    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 1, 15, B=reference_b)
    path = tmp_path / "assignment.csv"
    assignment_to_csv(assignment, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    per_node = {}
    for row in rows:
        key = (int(row["node_layer"]), int(row["node_index"]))
        per_node.setdefault(key, 0)
        per_node[key] += int(row["range_end"]) - int(row["range_start"])
    assert set(per_node.values()) == {4}
    assert len(per_node) == 12


def test_zero_on_a_row_support_is_rejected(reference_b):
    entries = reference_b.entries.copy()
    entries[0, 1] = 0.0
    B = EncodingMatrix(n=3, s=1, entries=entries)
    for L, d in ((1, 3), (2, 15)):
        with pytest.raises(AllocationError, match="row 0 has a zero on its cyclic support"):
            cr_allocate(build_tree(3, L), 1, d, B=B)


def reference_allocation(tree, B, d):
    """Per-point reference for cr_allocate: each set is a (point index, weight)
    array pair.  A parent's pass-down set is reshaped into n equal parts, child
    i gathers the parts of its row support times the row entries, stable-sorts
    by index and keeps the first r*d points."""
    q = int(r_cr(tree.n, tree.L, B.s) * d)
    local, subtree, passdown = {}, {}, {MASTER: (np.arange(d), np.ones(d))}
    for parent in tree.parents():  # every parent comes after its own parent
        points, weights = (a.reshape(tree.n, -1) for a in passdown[parent])
        for i, child in enumerate(tree.children(parent)):
            support = list(B.row_support(i))
            share = np.concatenate(points[support])
            weight = np.concatenate([weights[j] * B.entries[i, j] for j in support])
            order = np.argsort(share, kind="stable")
            share, weight = share[order], weight[order]
            subtree[child] = share, weight
            local[child] = share[:q], weight[:q]
            passdown[child] = share[q:], weight[q:]
    return local, subtree, passdown


def _points(slices):
    """A slice tuple as (point index, weight) arrays, after checking that it
    is ascending and merged: no two touching slices share a weight."""
    for a, b in zip(slices, slices[1:]):
        assert a.stop < b.start or (a.stop == b.start and a.weight != b.weight)
    if not slices:
        return np.arange(0), np.ones(0)
    return (
        np.concatenate([np.arange(sl.start, sl.stop) for sl in slices]),
        np.concatenate([np.full(sl.count, sl.weight) for sl in slices]),
    )


@st.composite
def _allocation_cases(draw):
    """(n, L, s, k, seed), seed None meaning the reference (3, 1) code."""
    if draw(st.booleans()):
        return 3, draw(st.integers(1, 3)), 1, draw(st.integers(1, 3)), None
    n = draw(st.integers(1, 5))
    return (
        n,
        draw(st.integers(1, 3)),
        draw(st.integers(0, n - 1)),
        draw(st.integers(1, 3)),
        draw(st.integers(0, 10_000)),
    )


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_allocation_cases())
def test_allocation_matches_the_per_point_reference(case, reference_b):
    n, L, s, k, seed = case
    tree = build_tree(n, L)
    B = reference_b if seed is None else build_encoding(n, s, seed)
    d = k * granularity(n, L, s)
    got = cr_allocate(tree, s, d, B=B)
    for ref, mapping in zip(
        reference_allocation(tree, B, d), (got.local, got.subtree, got.passdown)
    ):
        assert ref.keys() == mapping.keys()
        for node, (points, weights) in ref.items():
            # every cut lies on the k-grid: whole blocks of k points, one weight each
            blocks, block_weights = points.reshape(-1, k), weights.reshape(-1, k)
            assert np.array_equal(blocks, blocks[:, :1] + np.arange(k))
            assert not np.any(blocks[:, 0] % k)
            assert np.all(block_weights == block_weights[:, :1])
            got_points, got_weights = _points(mapping[node])
            assert np.array_equal(got_points, points)
            assert got_weights.tobytes() == weights.tobytes()
