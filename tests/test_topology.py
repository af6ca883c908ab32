import numpy as np
import pytest

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
        p.validate(tree, s=2)
    again = enumerate_patterns(tree, s=2, cap=100, seed=5)
    assert [p.stragglers for p in again] == [p.stragglers for p in patterns]


def test_pattern_validation_rejects_foreign_children():
    tree = build_tree(3, 2)
    bad = StragglerPattern({MASTER: frozenset({NodeId(2, 1)})})
    with pytest.raises(ValueError, match="not children"):
        bad.validate(tree, s=1)
    too_many = StragglerPattern({MASTER: frozenset({NodeId(1, 1), NodeId(1, 2)})})
    with pytest.raises(ValueError, match="tolerance"):
        too_many.validate(tree, s=1)


def test_layer_major_positions_round_trip():
    tree = build_tree(3, 3)
    nodes = [MASTER, *tree.workers()]
    for k, node in enumerate(nodes):
        assert tree.node_at(k) == node
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
