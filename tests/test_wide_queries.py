"""Queries with a thousand head variables stay fast where the work is local."""

import time

from cqrank.analysis import build_variable_tree, find_disruptive_trio
from cqrank.model import Atom, Query


def test_trio_scan_on_a_1000_variable_path():
    """A trio needs two earlier neighbours of one variable, so the scan only
    pairs up each variable's earlier neighbours: on a path, at most one pair
    each, where a scan of every position triple meets about 1.7e8 of them."""
    head = tuple(f"V{i}" for i in range(1000))
    q = Query("Q", head, tuple(Atom(f"R{i}", head[i:i + 2]) for i in range(999)))
    t0 = time.perf_counter()
    assert find_disruptive_trio(q, head) is None
    assert find_disruptive_trio(q, ("V0", "V999", *head[1:999])) == ("V999", "V997", "V998")
    assert build_variable_tree(q, head).order == head
    assert time.perf_counter() - t0 < 2.0
