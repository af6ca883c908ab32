import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedreduce.topology import (
    MASTER,
    NodeId,
    StragglerPattern,
    build_tree,
    check_tolerance,
    enumerate_patterns,
)


def test_tree_sizes():
    assert build_tree(3, 2).num_workers == 12
    assert build_tree(1, 5).num_workers == 5
    assert build_tree(12, 2).num_workers == 12 + 12**2


def test_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        build_tree(0, 2)
    with pytest.raises(ValueError):
        build_tree(3, 0)


def test_children_formula():
    tree = build_tree(3, 2)
    assert tree.children(MASTER) == (NodeId(1, 1), NodeId(1, 2), NodeId(1, 3))
    assert tree.children(NodeId(1, 2)) == (NodeId(2, 4), NodeId(2, 5), NodeId(2, 6))
    assert tree.children(NodeId(2, 5)) == ()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), L=st.integers(1, 4))
def test_children_are_the_table_entries_of_each_parent(n, L):
    """The children of the layer-major parent k are table entries
    k*n + 1 .. k*n + n, a leaf has none, and the parents' children in order
    are the workers; `contains` is table membership, and `children` refuses
    what it refuses."""
    tree = build_tree(n, L)
    table = tree.layer_major_nodes()
    for k, parent in enumerate(tree.parents()):
        assert tree.children(parent) == table[k * n + 1 : k * n + n + 1]
    for leaf in table[tree.num_parents :]:
        assert leaf.layer == L
        assert tree.children(leaf) == ()
    kids = [kid for parent in tree.parents() for kid in tree.children(parent)]
    assert kids == list(tree.workers())
    # every layer -1 .. L + 1 and index 0 .. n**layer + 1, then a str and a tuple
    grid = [NodeId(j, i) for j in range(-1, L + 2) for i in range(n ** min(max(j, 0), L) + 2)]
    assert [node for node in grid if tree.contains(node)] == sorted(table)
    assert not tree.contains("1.1") and not tree.contains((1, 1))
    for node in [node for node in grid if not tree.contains(node)] + ["1.1", (1, 1)]:
        with pytest.raises(ValueError) as err:
            tree.children(node)
        assert str(err.value) == f"node {node} not in ({n},{L})-regular tree"


def test_path_tree_is_a_chain():
    tree = build_tree(1, 5)
    node = MASTER
    for _ in range(5):
        (node,) = tree.children(node)
    assert node.layer == tree.L
    assert tree.children(node) == ()


def test_workers_layer_major_order():
    tree = build_tree(2, 2)
    assert list(tree.workers()) == [
        NodeId(1, 1),
        NodeId(1, 2),
        NodeId(2, 1),
        NodeId(2, 2),
        NodeId(2, 3),
        NodeId(2, 4),
    ]


def test_exhaustive_pattern_count():
    tree = build_tree(3, 2)
    patterns = enumerate_patterns(tree, s=1, cap=10_000)
    # 4 parents, each with 1 empty + 3 singleton choices
    assert len(patterns) == (1 + 3) ** 4 == 256
    assert len({p.tobytes() for p in patterns}) == 256


def test_zero_tolerance_single_pattern():
    tree = build_tree(5, 2)
    patterns = enumerate_patterns(tree, s=0, cap=10)
    assert len(patterns) == 1
    assert not patterns[0].any()


def test_sampled_patterns_include_extremes():
    tree = build_tree(3, 2)
    # (1 + 3 + 3)^4 = 2401 > 100 triggers sampling
    patterns = enumerate_patterns(tree, s=2, cap=100, seed=5)
    assert len(patterns) == 100
    assert not patterns[0].any()
    maximal = patterns[1]
    assert maximal.sum(axis=1).tolist() == [2] * len(list(tree.parents()))
    for p in patterns:
        check_tolerance(tree.parents(), p.sum(axis=1), s=2)
    again = enumerate_patterns(tree, s=2, cap=100, seed=5)
    assert np.array_equal(again, patterns)


def _reference_patterns(tree, s, cap, seed=0):
    """`enumerate_patterns` as `StragglerPattern` objects, one per-parent
    loop and one random draw per sampled pattern: the reference for the
    position array."""
    parents = list(tree.parents())
    position_choices = []
    for size in range(s + 1):
        position_choices.extend(itertools.combinations(range(tree.n), size))
    per_parent = sum(comb(tree.n, size) for size in range(s + 1))
    total = per_parent ** len(parents)

    def make(choice_ids):
        mapping = {}
        for parent, cid in zip(parents, choice_ids):
            kids = tree.children(parent)
            positions = position_choices[cid]
            if positions:
                mapping[parent] = frozenset(kids[p] for p in positions)
        return StragglerPattern(mapping)

    if total <= cap:
        return [make(ids) for ids in itertools.product(range(per_parent), repeat=len(parents))]
    rng = np.random.default_rng(seed)
    maximal_id = position_choices.index(tuple(range(s)))
    out = [make((0,) * len(parents)), make((maximal_id,) * len(parents))][:cap]
    while len(out) < cap:
        ids = tuple(int(c) for c in rng.integers(0, per_parent, size=len(parents)))
        out.append(make(ids))
    return out


@pytest.mark.parametrize(
    "n, L, s, cap, seed",
    [
        (3, 2, 1, 10_000, 0),  # the full product, 256 patterns
        (2, 3, 1, 10_000, 0),  # the full product, 3^7 patterns
        (3, 2, 2, 100, 5),  # a sample
        (4, 3, 2, 500, 11),  # a sample, 11 choices per parent
        (4, 5, 0, 10, 0),  # s = 0: one choice for each of 341 parents
        (3, 3, 1, 1, 3),
        (3, 3, 1, 2, 3),
        (3, 3, 1, 10_000, 3),  # verify's tree and cap
    ],
)
def test_pattern_array_equals_the_pattern_objects(n, L, s, cap, seed):
    tree = build_tree(n, L)
    patterns = enumerate_patterns(tree, s, cap, seed)
    expected = np.stack([p.positions(tree, s) for p in _reference_patterns(tree, s, cap, seed)])
    assert patterns.dtype == bool
    assert patterns.shape == (len(expected), tree.num_parents, n)
    assert not patterns.flags.writeable
    assert np.array_equal(patterns, expected)


@pytest.mark.parametrize("n", range(1, 7))
def test_choice_rows_keep_the_list_comprehension_order(n):
    """On a one-layer tree every pattern is one parent's choice, so the
    patterns are the choice table's rows, in its order."""
    for s in range(n):
        combos = [c for size in range(s + 1) for c in itertools.combinations(range(n), size)]
        expected = np.array([[j in c for j in range(n)] for c in combos])
        patterns = enumerate_patterns(build_tree(n, 1), s, cap=10_000)
        assert np.array_equal(patterns[:, 0], expected)


def test_choice_table_memory_stays_bounded():
    """A one-layer (22,7) tree has 280,600 choices; as Python bool lists
    the table peaked at 110 MiB."""
    tracemalloc.start()
    try:
        patterns = enumerate_patterns(build_tree(22, 1), 7, cap=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert patterns.shape == (10_000, 1, 22)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("cap", [0, -1])
def test_pattern_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="cap must be >= 1"):
        enumerate_patterns(build_tree(3, 2), 1, cap)


@pytest.mark.parametrize("s", [3, -1])
def test_pattern_tolerance_outside_zero_to_n_is_refused(s):
    with pytest.raises(ValueError, match=f"0 <= s < n, got s={s}"):
        enumerate_patterns(build_tree(3, 2), s, 10)


def test_check_tolerance_names_the_first_parent_over_it():
    tree = build_tree(3, 2)
    straggling = np.zeros((4, 3), dtype=bool)
    straggling[2, :2] = straggling[3, :] = True
    with pytest.raises(ValueError) as err:
        check_tolerance(tree.parents(), straggling.sum(axis=1), 1)
    assert str(err.value) == "parent 1.2 has 2 stragglers, tolerance is 1"
    check_tolerance(tree.parents(), straggling.sum(axis=1), 3)


def test_pattern_validation_rejects_foreign_children():
    tree = build_tree(3, 2)
    bad = StragglerPattern({MASTER: frozenset({NodeId(2, 1)})})
    with pytest.raises(ValueError, match="not children"):
        bad.positions(tree, s=1)
    too_many = StragglerPattern({MASTER: frozenset({NodeId(1, 1), NodeId(1, 2)})})
    with pytest.raises(ValueError, match="tolerance"):
        too_many.positions(tree, s=1)


def test_layer_major_positions_round_trip():
    tree = build_tree(3, 3)
    nodes = [MASTER, *tree.workers()]
    for k, node in enumerate(nodes):
        assert tree.layer_major_nodes()[k] == node
        assert tree.layer_offset(node.layer) + node.index - 1 == k
        for j, child in enumerate(tree.children(node)):
            assert nodes[k * tree.n + 1 + j] == child
    assert tree.num_parents == 1 + 3 + 9


def test_pattern_positions_by_parent_row():
    tree = build_tree(3, 2)
    pattern = StragglerPattern(
        {MASTER: frozenset({NodeId(1, 2)}), NodeId(1, 3): frozenset({NodeId(2, 9)})}
    )
    expected = np.zeros((4, 3), dtype=bool)
    expected[0, 1] = expected[3, 2] = True
    assert np.array_equal(pattern.positions(tree, 1), expected)


@pytest.mark.parametrize(
    "parent, kids, message",
    [
        (NodeId(1, 2), [NodeId(2, 1)], "[NodeId(layer=2, index=1)] are not children of 1.2"),
        (NodeId(2, 1), [NodeId(3, 1)], "[NodeId(layer=3, index=1)] are not children of 2.1"),
        (NodeId(3, 1), [], "node 3.1 not in (3,2)-regular tree"),
        (MASTER, [NodeId(1, 1), NodeId(1, 3)], "parent 0.1 has 2 stragglers, tolerance is 1"),
    ],
)
def test_pattern_positions_reject_like_validate(parent, kids, message):
    pattern = StragglerPattern({parent: frozenset(kids)})
    with pytest.raises(ValueError) as err:
        pattern.positions(build_tree(3, 2), 1)
    assert str(err.value) == message


def _reference_positions(pattern, tree, s):
    """`positions` as a per-parent loop over the tree's own checks.  An empty
    entry for a leaf used to index past the last parent row (IndexError);
    it marks nothing."""
    n = tree.n
    out = np.zeros((tree.num_parents, n), dtype=bool)
    for parent, kids in pattern.stragglers.items():
        if not tree.contains(parent):
            raise ValueError(f"node {parent} not in ({n},{tree.L})-regular tree")
        first = n * (parent.index - 1) + 1
        bad = [
            k for k in kids
            if parent.layer == tree.L
            or k.layer != parent.layer + 1
            or not 0 <= k.index - first < n
        ]
        if bad:
            raise ValueError(f"{sorted(bad, key=str)} are not children of {parent}")
        if len(kids) > s:
            raise ValueError(f"parent {parent} has {len(kids)} stragglers, tolerance is {s}")
        if kids:  # a leaf may map to no stragglers; it has no row to mark
            row = tree.layer_offset(parent.layer) + parent.index - 1
            out[row, [k.index - first for k in kids]] = True
    return out


@st.composite
def _patterns(draw):
    """A tree with n <= 4 and L <= 3, a tolerance and a mapping of parents to
    some of their children, sometimes with a node outside the tree or a
    straggler that is not the parent's child."""
    n, L = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    tree = build_tree(n, L)
    nodes = [MASTER, *tree.workers()]
    outside = [NodeId(-1, 1), NodeId(0, 2), NodeId(1, 0), NodeId(1, n + 1), NodeId(L + 1, 1)]
    rarely = st.integers(0, 5).map(lambda x: x == 0)  # one draw in six
    mapping = {}
    for _ in range(draw(st.integers(0, 4))):
        parent = draw(st.sampled_from(outside if draw(rarely) else nodes))
        kids = tree.children(parent) if tree.contains(parent) else ()
        chosen = draw(st.lists(st.sampled_from(kids), unique=True)) if kids else []
        if draw(rarely):
            chosen.append(draw(st.sampled_from(nodes + outside)))
        mapping[parent] = frozenset(chosen)
    return tree, StragglerPattern(mapping), draw(st.integers(0, n))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_patterns())
def test_pattern_positions_match_the_per_parent_loop(case):
    tree, pattern, s = case
    try:
        expected = _reference_positions(pattern, tree, s)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            pattern.positions(tree, s)
        assert str(got.value) == str(err)
    else:
        got = pattern.positions(tree, s)
        assert got.dtype == bool
        assert np.array_equal(got, expected)
