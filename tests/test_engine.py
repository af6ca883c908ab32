import dataclasses
import itertools
import pickle
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedreduce import engine
from codedreduce.allocation import WeightedSlice, cr_allocate, granularity
from codedreduce.codes import EncodingMatrix, build_encoding, decode_row
from codedreduce.latency import scheme_tree
from codedreduce.ml import generate_synthetic, linear_grad, make_oracle
from codedreduce.topology import (
    MASTER,
    NodeId,
    StragglerPattern,
    build_tree,
    enumerate_patterns,
)

from conftest import identity_oracle_for


def full_gradient(dataset, theta):
    return linear_grad(theta, [WeightedSlice(0, dataset.d, 1.0)], dataset)


def test_reference_decode_walkthrough(reference_b):
    """Master hears only children (1,1) and (1,3), both bottom groups intact."""
    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 1, 15, B=reference_b)
    pattern = StragglerPattern({MASTER: frozenset({NodeId(1, 2)})})
    got = engine.cr_execute(
        tree, assignment, reference_b, pattern, identity_oracle_for(15), np.zeros(1)
    )
    np.testing.assert_allclose(got, np.ones(15), atol=1e-9)

    dataset, _ = generate_synthetic(15, 4, seed=8)
    oracle = make_oracle("linear", dataset)
    theta = np.array([0.3, -1.0, 0.4, 2.0])
    got = engine.cr_execute(tree, assignment, reference_b, pattern, oracle, theta)
    expected = full_gradient(dataset, theta)
    np.testing.assert_allclose(got, expected, rtol=1e-9)


def test_zero_tolerance_plain_tree_sum():
    tree = build_tree(3, 2)
    B = build_encoding(3, 0, seed=0)
    assignment = cr_allocate(tree, 0, 12, B=B)
    got = engine.cr_execute(
        tree, assignment, B, StragglerPattern({}), identity_oracle_for(12), np.zeros(1)
    )
    np.testing.assert_allclose(got, np.ones(12), atol=1e-12)


def test_recovery_across_random_patterns():
    tree = build_tree(4, 2)
    d = 24
    B = build_encoding(4, 1, seed=2)
    assignment = cr_allocate(tree, 1, d, B=B)
    oracle = identity_oracle_for(d)
    patterns = enumerate_patterns(tree, 1, cap=50, seed=3)
    assert len(patterns) == 50
    for pattern in patterns:
        got = engine.cr_execute(tree, assignment, B, pattern, oracle, np.zeros(1))
        np.testing.assert_allclose(got, np.ones(d), atol=1e-9)


def test_output_invariant_to_pattern(reference_b):
    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 1, 30, B=reference_b)
    dataset, _ = generate_synthetic(30, 6, seed=4)
    oracle = make_oracle("linear", dataset)
    theta = np.linspace(-1, 1, 6)
    outputs = [
        engine.cr_execute(tree, assignment, reference_b, p, oracle, theta)
        for p in enumerate_patterns(tree, 1, cap=40, seed=9)[:25]
    ]
    for out in outputs[1:]:
        np.testing.assert_allclose(out, outputs[0], rtol=1e-9)


def test_unrecoverable_pattern_names_parent(reference_b):
    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 1, 15, B=reference_b)
    parent = NodeId(1, 2)
    pattern = StragglerPattern({parent: frozenset({NodeId(2, 4), NodeId(2, 5)})})
    with pytest.raises(ValueError, match="1.2"):
        engine.cr_execute(
            tree, assignment, reference_b, pattern, identity_oracle_for(15), np.zeros(1)
        )


def test_cr_execute_takes_a_row_of_positions(reference_b):
    """A pattern named by node and its row of positions round alike, and
    are refused alike with the same message."""
    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 1, 15, B=reference_b)
    oracle, theta = identity_oracle_for(15), np.zeros(1)
    pattern = StragglerPattern(
        {MASTER: frozenset({NodeId(1, 2)}), NodeId(1, 3): frozenset({NodeId(2, 9)})}
    )
    by_node = engine.cr_execute(tree, assignment, reference_b, pattern, oracle, theta)
    row = pattern.positions(tree, 1)
    assert np.array_equal(engine.cr_execute(tree, assignment, reference_b, row, oracle, theta), by_node)
    too_many = StragglerPattern({NodeId(1, 2): frozenset({NodeId(2, 4), NodeId(2, 5)})})
    messages = []
    for given in (too_many, too_many.positions(tree, 2)):
        with pytest.raises(ValueError) as err:
            engine.cr_execute(tree, assignment, reference_b, given, oracle, theta)
        messages.append(str(err.value))
    assert messages == ["parent 1.2 has 2 stragglers, tolerance is 1"] * 2
    for shape in [(3, 3), (5, 3), (4, 2)]:  # the tree has 4 parents of 3 children
        with pytest.raises(ValueError):
            engine.cr_execute(tree, assignment, reference_b, np.zeros(shape, bool), oracle, theta)
    with pytest.raises(ValueError, match="need 0 <= resilience < n, got n=3, resilience=3"):
        engine.cr_execute(tree, assignment, reference_b, row, oracle, theta, 3)


def test_only_decoded_messages_are_computed(reference_b):
    """A straggler's subtree and any surplus survivor cost no oracle call."""
    calls = []
    ident = identity_oracle_for(15)

    def oracle(theta, slices):
        calls.append(slices)
        return ident(theta, slices)

    tree = build_tree(3, 2)
    assignment = cr_allocate(tree, 1, 15, B=reference_b)
    pattern = StragglerPattern({MASTER: frozenset({NodeId(1, 2)})})
    got = engine.cr_execute(tree, assignment, reference_b, pattern, oracle, np.zeros(1))
    np.testing.assert_allclose(got, np.ones(15), atol=1e-9)
    # 1.1 and 1.3, each with its first two children
    assert len(calls) == 6
    calls.clear()
    engine.gc_execute(3, 1, reference_b, set(), oracle, np.zeros(1), 15)
    assert len(calls) == 2


def _nested_round(parent, tree, assignment, B, pattern, oracle, theta, resilience):
    """Reference round: each parent decodes its first n - resilience
    surviving children's messages, a child's message being its local
    gradient plus, for an internal child, its own nested decode."""
    need = tree.n - resilience
    kids = tree.children(parent)
    straggling = pattern.stragglers.get(parent, frozenset())
    survivors = [pos for pos, c in enumerate(kids) if c not in straggling][:need]
    if B.s:
        coefficients = engine.decode_row(B, survivors).coefficients
    else:
        coefficients = 1.0 / np.diag(B.entries)
    out = np.zeros_like(theta)
    for pos in survivors:
        child = kids[pos]
        m = oracle(theta, assignment.local[child])
        if child.layer < tree.L:  # an internal child
            m = m + _nested_round(child, tree, assignment, B, pattern, oracle, theta, resilience)
        out += coefficients[pos] * m
    return out


@st.composite
def _round_cases(draw):
    n = draw(st.integers(1, 5))
    L = draw(st.integers(1, 3))
    s = draw(st.integers(0, n - 1))
    coded = draw(st.booleans())
    # a coded parent tolerates up to the code's s; an uncoded one (SGD's
    # partial sums) takes any quorum
    resilience = draw(st.integers(0, s if coded else n - 1))
    return n, L, s, coded, resilience, draw(st.integers(0, 2**16))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_round_cases())
def test_coefficient_pass_matches_nested_round(case):
    n, L, s, coded, resilience, seed = case
    rng = np.random.default_rng(seed)
    tree = build_tree(n, L)
    B = build_encoding(n, s if coded else 0, seed)
    d, p = granularity(n, L, B.s), 3
    assignment = cr_allocate(tree, B.s, d, B=B)
    points = rng.standard_normal((d, p))

    def oracle(_theta, slices):
        out = np.zeros(p)
        for sl in slices:
            out += sl.weight * points[sl.start : sl.stop].sum(axis=0)
        return out

    pattern = StragglerPattern(
        {
            parent: frozenset(
                tree.children(parent)[int(j)]
                for j in rng.choice(n, size=rng.integers(0, resilience + 1), replace=False)
            )
            for parent in tree.parents()
        }
    )
    theta = np.zeros(p)
    got = engine.cr_execute(tree, assignment, B, pattern, oracle, theta, resilience)
    ref = _nested_round(MASTER, tree, assignment, B, pattern, oracle, theta, resilience)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _random_pattern(tree, most, rng):
    """Up to `most` stragglers under every parent."""
    return StragglerPattern(
        {
            parent: frozenset(
                tree.children(parent)[int(j)]
                for j in rng.choice(tree.n, size=rng.integers(0, most + 1), replace=False)
            )
            for parent in tree.parents()
        }
    )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_round_cases())
def test_point_weights_match_the_identity_round(case):
    """w = sum_v c_v W_v is what the round returns when each point's
    gradient is its indicator vector."""
    n, L, s, coded, resilience, seed = case
    rng = np.random.default_rng(seed)
    tree = build_tree(n, L)
    B = build_encoding(n, s if coded else 0, seed)
    assignment = cr_allocate(tree, B.s, granularity(n, L, B.s), B=B)
    pattern = _random_pattern(tree, resilience, rng)
    c = engine.worker_weights(tree, B, pattern.positions(tree, resilience), resilience)
    w = np.repeat(assignment.block_weights(c), assignment.block_size, axis=-1)
    oracle = identity_oracle_for(assignment.d)
    ref = engine.cr_execute(tree, assignment, B, pattern, oracle, np.zeros(1), resilience)
    assert np.max(np.abs(w - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "scheme, topo, resilience, d",
    [("cr", build_tree(3, 2), 1, 30), ("cr", build_tree(4, 3), 1, 56),
     ("gc", 12, 3, 24), ("umw", 12, 0, 24)],
    ids=["cr-3-2-1", "cr-4-3-1", "gc-12-3", "umw-12"],
)
def test_full_gradient_schemes_weigh_every_point_once(scheme, topo, resilience, d):
    tree, quorum_s, coded_s = scheme_tree(scheme, topo, resilience)
    B = build_encoding(tree.n, coded_s, 0)
    weights = cr_allocate(tree, coded_s, d, B=B)
    for straggling in enumerate_patterns(tree, quorum_s, cap=200, seed=1):
        c = engine.worker_weights(tree, B, straggling, quorum_s)
        w = np.repeat(weights.block_weights(c), weights.block_size, axis=-1)
        assert np.max(np.abs(w - 1.0)) <= 1e-9


def test_sgd_point_weights_are_the_survivors_indicator():
    N, S, d = 6, 2, 18
    tree, quorum_s, coded_s = scheme_tree("sgd", N, S)
    B = build_encoding(N, coded_s, 0)
    weights = cr_allocate(tree, coded_s, d, B=B)
    pattern = StragglerPattern({MASTER: frozenset({NodeId(1, 2), NodeId(1, 5)})})
    c = engine.worker_weights(tree, B, pattern.positions(tree, quorum_s), quorum_s)
    expected = np.ones(d)
    expected[3:6] = expected[12:15] = 0.0  # workers 1.2 and 1.5 hold 3 points each
    w = np.repeat(weights.block_weights(c), weights.block_size, axis=-1)
    assert np.array_equal(w, expected)


def _loop_weights(tree, B, straggling, resilience):
    """The coefficient pass of one round as a per-parent loop, the reference
    for `worker_weights`: `straggling` is (num_parents, n)."""
    n, need = tree.n, tree.n - resilience
    weight = [0.0] * (1 + tree.num_workers)  # layer-major, master at 0
    weight[0] = 1.0
    for k, lagging in enumerate(straggling.tolist()):  # a parent's weight is final
        c = weight[k]
        if not c:
            continue
        # surplus survivors: keep the lowest child indices
        survivors = tuple(j for j, lag in enumerate(lagging) if not lag)[:need]
        row = engine._combining_row(B, survivors)
        for j in survivors:
            weight[k * n + 1 + j] = c * row[j]
    return np.array(weight[1:])


def _random_straggling(tree, rounds, most, rng):
    """A (rounds, num_parents, n) array with up to `most` stragglers in
    every row, so some parents keep surplus survivors."""
    shape = (rounds, tree.num_parents, tree.n)
    rank = rng.random(shape).argsort(axis=-1).argsort(axis=-1)
    return rank < rng.integers(0, most + 1, shape[:-1] + (1,))


@st.composite
def _pass_cases(draw):
    n, L = draw(
        st.one_of(
            st.sampled_from([(4, 5), (20, 1)]),  # train's deepest and widest trees
            st.tuples(st.integers(1, 4), st.integers(1, 5)),
            st.tuples(st.integers(5, 20), st.just(1)),
        )
    )
    s = draw(st.integers(0, min(n - 1, 5)))
    coded = draw(st.booleans())
    resilience = draw(st.integers(0, s if coded else n - 1))
    return n, L, s, coded, resilience, draw(st.integers(1, 3)), draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_pass_cases())
def test_batched_pass_equals_the_per_parent_loop(case):
    """One pass over a (rounds, parents, n) batch, and over a single
    (parents, n) round, equals the loop round by round (signed zeros
    aside), stragglers under internal parents zeroing whole subtrees."""
    n, L, s, coded, resilience, rounds, seed = case
    rng = np.random.default_rng(seed)
    tree = build_tree(n, L)
    B = build_encoding(n, s if coded else 0, seed % 7)
    straggling = _random_straggling(tree, rounds, resilience, rng)
    expected = np.array([_loop_weights(tree, B, x, resilience) for x in straggling])
    got = engine.worker_weights(tree, B, straggling, resilience)
    assert got.shape == (rounds, tree.num_workers)
    assert np.all(got == expected)
    assert np.all(engine.worker_weights(tree, B, straggling[0], resilience) == expected[0])


@pytest.mark.parametrize(
    "s, resilience, lagging",
    [(1, 1, [(), (66,), (63,)]), (0, 3, [(), (64, 66, 69), (1, 63, 68)])],
    ids=["coded", "uncoded-quorum"],
)
def test_survivor_bitmasks_do_not_wrap_past_62_children(s, resilience, lagging):
    """Stragglers at child positions 63 and up, where a 64-bit mask would
    lose or sign-extend their bits."""
    tree = build_tree(70, 1)
    B = build_encoding(70, s, 0)
    straggling = np.zeros((len(lagging), 1, 70), dtype=bool)
    for t, positions in enumerate(lagging):
        straggling[t, 0, list(positions)] = True
    expected = np.array([_loop_weights(tree, B, x, resilience) for x in straggling])
    assert np.all(engine.worker_weights(tree, B, straggling, resilience) == expected)


@pytest.mark.parametrize("n, L, s", [(3, 2, 1), (2, 3, 0), (4, 5, 1)])
def test_worker_weights_has_one_entry_per_worker(n, L, s):
    tree = build_tree(n, L)
    B = build_encoding(n, s, 0)
    straggling = np.zeros((tree.num_parents, n), dtype=bool)
    c = engine.worker_weights(tree, B, straggling, s)
    assert len(c) == tree.num_workers


def test_each_survivor_set_is_decoded_once_per_round(monkeypatch):
    """Seven parents combine over three distinct survivor sets."""
    calls = []
    real = engine.decode_row

    def counting(B, survivors):
        calls.append(tuple(survivors))
        return real(B, survivors)

    monkeypatch.setattr(engine, "decode_row", counting)
    tree = build_tree(3, 3)
    B = build_encoding(3, 1, seed=0)
    assignment = cr_allocate(tree, 1, granularity(3, 3, 1), B=B)
    straggle = {
        MASTER: NodeId(1, 3),
        NodeId(1, 1): NodeId(2, 1),
        NodeId(2, 2): NodeId(3, 5),
        NodeId(2, 4): NodeId(3, 10),
    }
    pattern = StragglerPattern({p: frozenset({c}) for p, c in straggle.items()})
    d = assignment.d
    got = engine.cr_execute(tree, assignment, B, pattern, identity_oracle_for(d), np.zeros(1))
    np.testing.assert_allclose(got, np.ones(d), atol=1e-9)
    # combining: 0.1, 1.1, 1.2, 2.2, 2.3, 2.4, 2.5
    assert sorted(calls) == [(0, 1), (0, 2), (1, 2)]


def _count_decodes(monkeypatch):
    """Record every (code, survivor set) the engine decodes."""
    calls = []
    real = engine.decode_row

    def counting(B, survivors):
        calls.append((B, tuple(survivors)))
        return real(B, survivors)

    monkeypatch.setattr(engine, "decode_row", counting)
    return calls


def test_each_survivor_set_is_decoded_once_per_code(monkeypatch):
    calls = _count_decodes(monkeypatch)
    tree = build_tree(3, 3)
    B = build_encoding(3, 1, seed=0)
    patterns = enumerate_patterns(tree, 1, cap=1000, seed=1)
    assert len(patterns) == 1000
    for straggling in patterns:
        engine.worker_weights(tree, B, straggling, 1)
    survivor_sets = [F for _, F in calls]
    assert len(survivor_sets) <= comb(3, 2)
    assert len(set(survivor_sets)) == len(survivor_sets)


def test_codes_with_different_seeds_share_no_rows(monkeypatch):
    calls = _count_decodes(monkeypatch)
    tree = build_tree(4, 2)
    first, second = build_encoding(4, 2, seed=0), build_encoding(4, 2, seed=5)
    assert not np.array_equal(first.entries, second.entries)
    lagging = frozenset({NodeId(1, 2), NodeId(1, 3)})
    straggling = StragglerPattern({MASTER: lagging}).positions(tree, 2)
    for B in (first, second, first, second):
        engine.worker_weights(tree, B, straggling, 2)
    # the master combines children 0 and 3, every other parent 0 and 1
    assert [(B is first, F) for B, F in calls] == [
        (True, (0, 3)), (True, (0, 1)), (False, (0, 3)), (False, (0, 1))
    ]
    rows = [engine._combining_row(B, (0, 3)) for B in (first, second)]
    assert not np.array_equal(rows[0], rows[1])


def test_a_batch_decodes_in_order_of_first_appearance(monkeypatch):
    """Round 0 combines children 0 and 1 everywhere; round 1's master then
    combines 1 and 2, and its first child 0 and 2."""
    calls = _count_decodes(monkeypatch)
    tree = build_tree(3, 2)
    B = build_encoding(3, 1, seed=0)
    straggling = np.zeros((2, tree.num_parents, 3), dtype=bool)
    straggling[1, 0, 0] = straggling[1, 1, 1] = True
    engine.worker_weights(tree, B, straggling, 1)
    assert [F for _, F in calls] == [(0, 1), (1, 2), (0, 2)]


def test_cached_row_is_the_decode_row_and_read_only():
    B = build_encoding(4, 2, seed=3)
    for F in itertools.combinations(range(4), 2):
        row = engine._combining_row(B, F)
        assert row.tobytes() == decode_row(B, F).coefficients.tobytes()
        assert engine._combining_row(B, F) is row
        with pytest.raises(ValueError):
            row[F[0]] = 0.0


def test_decode_cache_leaves_equality_repr_and_pickle_alone():
    B = build_encoding(3, 1, seed=0)
    before = repr(B)
    engine._combining_row(B, (0, 1))
    assert repr(B) == before == "EncodingMatrix(n=3, s=1)"
    assert [f.name for f in dataclasses.fields(B) if f.compare] == ["n", "s", "entries"]
    fresh = EncodingMatrix(3, 1, B.entries)  # same entries, empty cache
    assert fresh == B
    clone = pickle.loads(pickle.dumps(B))
    assert (clone.n, clone.s) == (B.n, B.s)
    assert clone.entries.tobytes() == B.entries.tobytes()
    assert clone._decode_cache == {}  # rows stay with the process that decoded them


def test_gc_reference_combination(reference_b):
    """Survivors {W1, W2}: the aggregate equals 2(g1/2 + g2) - (g2 - g3)."""
    d, p = 15, 3
    dataset, _ = generate_synthetic(d, p, seed=6)
    oracle = make_oracle("linear", dataset)
    theta = np.array([1.0, -0.5, 0.25])
    got = engine.gc_execute(3, 1, reference_b, {2}, oracle, theta, d)

    thirds = [WeightedSlice(0, 5, 1.0), WeightedSlice(5, 10, 1.0), WeightedSlice(10, 15, 1.0)]
    g1, g2, g3 = (linear_grad(theta, [t], dataset) for t in thirds)
    np.testing.assert_allclose(got, 2 * (0.5 * g1 + g2) - (g2 - g3), rtol=1e-9)
    np.testing.assert_allclose(got, g1 + g2 + g3, rtol=1e-9)


def test_gc_no_redundancy_plain_sum():
    d = 12
    B = build_encoding(4, 0, seed=0)
    got = engine.gc_execute(4, 0, B, set(), identity_oracle_for(d), np.zeros(1), d)
    np.testing.assert_allclose(got, np.ones(d), atol=1e-12)


def test_gc_identity_recovery_random_patterns():
    d, N, S = 24, 8, 2
    B = build_encoding(N, S, seed=13)
    rng = np.random.default_rng(0)
    for _ in range(20):
        stragglers = set(map(int, rng.choice(N, size=int(rng.integers(0, S + 1)), replace=False)))
        got = engine.gc_execute(N, S, B, stragglers, identity_oracle_for(d), np.zeros(1), d)
        np.testing.assert_allclose(got, np.ones(d), atol=1e-9)


@pytest.mark.parametrize(
    "scheme, stragglers, flat",
    [
        ("gc", {1, 4}, lambda N, S, B, lag, *rest: engine.gc_execute(N, S, B, lag, *rest)),
        ("umw", set(), lambda N, S, B, lag, *rest: engine.umw_execute(N, *rest)),
        ("sgd", {1, 4}, lambda N, S, B, lag, *rest: engine.sgd_execute(N, S, lag, *rest)),
    ],
    ids=["gc", "umw", "sgd"],
)
def test_gc_matches_single_layer_tree(scheme, stragglers, flat):
    """Each flat wrapper is `cr_execute` on the tree `scheme_tree` gives
    its scheme, waiting for that tree's quorum."""
    d, N, S = 30, 6, 2
    tree, quorum_s, coded_s = scheme_tree(scheme, N, S)
    B = build_encoding(N, coded_s, seed=21)
    assignment = cr_allocate(tree, coded_s, d, B=B)
    dataset, _ = generate_synthetic(d, 5, seed=10)
    oracle = make_oracle("linear", dataset)
    theta = np.full(5, 0.7)
    pattern = StragglerPattern({MASTER: frozenset(NodeId(1, i + 1) for i in stragglers)})
    via_tree = engine.cr_execute(tree, assignment, B, pattern, oracle, theta, quorum_s)
    via_flat = flat(N, S, B, stragglers, oracle, theta, d)
    np.testing.assert_allclose(via_flat, via_tree, rtol=1e-12)


def test_gc_rejects_excess_stragglers(reference_b):
    with pytest.raises(ValueError, match=r"parent 0\.1 has 2 stragglers, tolerance is 1"):
        engine.gc_execute(3, 1, reference_b, {0, 1}, identity_oracle_for(15), np.zeros(1), 15)


def test_rar_copies_match_uncoded_sum():
    d, N = 36, 6
    dataset, _ = generate_synthetic(d, 7, seed=12)
    oracle = make_oracle("linear", dataset)
    theta = np.linspace(0.1, 0.7, 7)
    reference = engine.umw_execute(N, oracle, theta, d)
    copies = engine.rar_execute(N, oracle, theta, d)
    assert len(copies) == N
    for copy in copies:
        np.testing.assert_allclose(copy, reference, rtol=1e-9)
    np.testing.assert_allclose(reference, full_gradient(dataset, theta), rtol=1e-9)


def test_single_worker_degenerates_to_local_compute():
    d = 8
    oracle = identity_oracle_for(d)
    np.testing.assert_allclose(engine.umw_execute(1, oracle, np.zeros(1), d), np.ones(d))
    (copy,) = engine.rar_execute(1, oracle, np.zeros(1), d)
    np.testing.assert_allclose(copy, np.ones(d))


def test_rar_segments_when_p_smaller_than_n():
    # vector of length 2 split across 5 workers: some segments are empty
    d, N = 10, 5
    dataset, _ = generate_synthetic(d, 2, seed=1)
    oracle = make_oracle("linear", dataset)
    theta = np.array([0.5, -0.5])
    copies = engine.rar_execute(N, oracle, theta, d)
    for copy in copies:
        np.testing.assert_allclose(copy, full_gradient(dataset, theta), rtol=1e-9)


def test_sgd_drops_exactly_the_stragglers():
    d, N, S = 30, 3, 1
    dataset, _ = generate_synthetic(d, 4, seed=5)
    oracle = make_oracle("linear", dataset)
    theta = np.ones(4)
    got = engine.sgd_execute(N, S, {1}, oracle, theta, d)
    missing = linear_grad(theta, [WeightedSlice(10, 20, 1.0)], dataset)
    np.testing.assert_allclose(got, full_gradient(dataset, theta) - missing, rtol=1e-9)


def test_sgd_rejects_out_of_range_straggler():
    with pytest.raises(ValueError, match="not children"):
        engine.sgd_execute(4, 1, {7}, identity_oracle_for(12), np.zeros(1), 12)


def test_uncoded_parent_divides_out_its_weights():
    """An uncoded but non-identity code: child i holds its third weighted by
    B_ii, so only weights 1/B_ii give the sum, or with one child let go by the
    quorum, the survivors' partial sum."""
    d = 12
    B = EncodingMatrix(n=3, s=0, entries=np.diag([2.0, 0.5, 4.0]))
    tree = build_tree(3, 1)
    assignment = cr_allocate(tree, 0, d, B=B)
    oracle = identity_oracle_for(d)
    got = engine.cr_execute(tree, assignment, B, StragglerPattern({}), oracle, np.zeros(1))
    np.testing.assert_allclose(got, np.ones(d), atol=1e-12)

    pattern = StragglerPattern({MASTER: frozenset({NodeId(1, 2)})})
    got = engine.cr_execute(tree, assignment, B, pattern, oracle, np.zeros(1), resilience=1)
    expected = np.ones(d)
    expected[4:8] = 0.0  # the straggler's third
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_sgd_zero_tolerance_equals_uncoded():
    d = 12
    oracle = identity_oracle_for(d)
    got = engine.sgd_execute(4, 0, set(), oracle, np.zeros(1), d)
    np.testing.assert_allclose(got, engine.umw_execute(4, oracle, np.zeros(1), d))


def test_sgd_sums_exactly_n_minus_s_partials():
    d, N, S = 312, 156, 13
    oracle = identity_oracle_for(d)
    stragglers = set(range(13))
    got = engine.sgd_execute(N, S, stragglers, oracle, np.zeros(1), d)
    # each worker covers d/N = 2 points; 143 survivors cover 286 unit entries
    assert got.sum() == (N - S) * (d // N)
    assert np.all((got == 0) | (got == 1))


def test_all_full_gradient_schemes_agree():
    d = 60
    dataset, _ = generate_synthetic(d, 5, seed=3)
    oracle = make_oracle("linear", dataset)
    theta = np.random.default_rng(0).standard_normal(5)
    expected = full_gradient(dataset, theta)
    scale = np.max(np.abs(expected))

    tree = build_tree(3, 2)
    B3 = build_encoding(3, 1, seed=5)
    assignment = cr_allocate(tree, 1, d, B=B3)
    pattern = enumerate_patterns(tree, 1, cap=1000, seed=0)[137]
    results = [
        engine.cr_execute(tree, assignment, B3, pattern, oracle, theta),
        engine.gc_execute(12, 3, build_encoding(12, 3, seed=5), {1, 5, 9}, oracle, theta, d),
        engine.umw_execute(12, oracle, theta, d),
        *engine.rar_execute(6, oracle, theta, d),
    ]
    for got in results:
        assert np.max(np.abs(got - expected)) / scale <= 1e-9


def test_divisibility_errors():
    with pytest.raises(ValueError, match="granularity"):
        engine.umw_execute(7, identity_oracle_for(10), np.zeros(1), 10)
