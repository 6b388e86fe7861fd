"""Routing pinned end to end: the analyze-wide batch, exact join trees on
tie-heavy hypergraphs, and direct access for every anchored sum order."""

import json
import random
from pathlib import Path

import pytest

from cqrank.analysis import DIRECT_SUM, JoinTree, analyze, check_free_connex, gyo_join_tree
from cqrank.model import parse_order, parse_query
from conftest import perfbench_spec, random_acyclic_case

ROOT = Path(__file__).resolve().parents[1]


def test_analyze_batch_matches_the_pinned_reports():
    """The 34 (query, order) pairs the analyze-wide workload serves give the
    reports it checks against, so a moved verdict fails here first."""
    batch = perfbench_spec().analyze_batch(11, 9)
    expected = json.loads((ROOT / "perfbench" / "analyze_expected.json").read_text(encoding="utf-8"))
    assert len(batch) == len(expected) == 34
    for label, query_text, order_text in batch:
        q = parse_query(query_text)
        assert analyze(q, parse_order(order_text, q)).to_json_dict() == expected[label], label


@pytest.mark.parametrize("edges, parent, root", [
    ([{"X", "A"}, {"X", "B"}, {"X", "C"}], (1, 2, None), 2),                # a star
    ([{"A", "B"}, {"A", "B"}, {"B", "C"}], (1, 2, None), 2),                # a repeated edge
    ([{"A", "B"}, set(), {"B", "C"}], (2, 2, None), 2),                     # an empty edge
    ([{"A", "B"}, {"B", "C"}, {"D", "E"}, {"E", "F"}], (1, 2, 3, None), 3),  # two components
    ([{"X", "A"}, {"X", "B"}, {"X", "A", "B"}], (2, 2, None), 2),           # a star and its hub edge
], ids=["star", "repeated-edge", "empty-edge", "two-components", "star-with-hub"])
def test_gyo_links_ties_to_the_first_containing_edge(edges, parent, root):
    tree = gyo_join_tree(edges)
    assert isinstance(tree, JoinTree)
    assert (tree.parent, tree.root) == (parent, root)
    assert tree.node_vars == tuple(frozenset(e) for e in edges)


def test_every_anchored_sum_order_routes_direct_access():
    """An anchor atom's head variables form a clique of the chordal head graph
    of a free-connex query, and every such clique starts a trio-free order, so
    a sum order with an anchor always gets a completion."""
    rng, draws = random.Random(2026), 0
    while draws < 2000:
        q, _, _ = random_acyclic_case(rng)
        if not check_free_connex(q)[1]:
            continue
        draws += 1
        for atom in q.atoms:
            anchor = [v for v in q.head if v in atom.var_set]
            for weights in [anchor] + [[v] for v in anchor] if anchor else []:
                report = analyze(q, parse_order("sum: " + ",".join(weights), q))
                assert report.routing[DIRECT_SUM].ok and report.completed_order, (q, weights)
