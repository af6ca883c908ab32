import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedreduce.topology import (
    MASTER,
    NodeId,
    StragglerPattern,
    build_tree,
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


def test_parent_inverts_children():
    tree = build_tree(4, 3)
    for parent in tree.parents():
        for pos, child in enumerate(tree.children(parent)):
            assert tree.parent(child) == parent
            assert tree.child_position(child) == pos
    for leaf in tree.layer_nodes(tree.L):
        assert tree.is_leaf(leaf)


def test_path_tree_is_a_chain():
    tree = build_tree(1, 5)
    node = MASTER
    for _ in range(5):
        (node,) = tree.children(node)
    assert tree.is_leaf(node)


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
    assert len({tuple(sorted((str(k), tuple(sorted(map(str, v)))) for k, v in p.stragglers.items())) for p in patterns}) == 256


def test_zero_tolerance_single_pattern():
    tree = build_tree(5, 2)
    patterns = enumerate_patterns(tree, s=0, cap=10)
    assert len(patterns) == 1
    assert patterns[0].stragglers == {}


def test_sampled_patterns_include_extremes():
    tree = build_tree(3, 2)
    # (1 + 3 + 3)^4 = 2401 > 100 triggers sampling
    patterns = enumerate_patterns(tree, s=2, cap=100, seed=5)
    assert len(patterns) == 100
    assert patterns[0].stragglers == {}
    maximal = patterns[1]
    for parent in tree.parents():
        assert len(maximal.per_parent(parent)) == 2
    for p in patterns:
        p.positions(tree, s=2)
    again = enumerate_patterns(tree, s=2, cap=100, seed=5)
    assert [p.stragglers for p in again] == [p.stragglers for p in patterns]


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
        tree._check(parent)
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
