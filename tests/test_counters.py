"""Every machine-independent counter repeats exactly.

The numbers below are pinned on the bench query over one generated instance,
so a change that moves a counter (or makes one depend on hashing order) shows
here before it shows in a benchmark trace. One ``Stats`` per entry point.
"""

import hashlib
import sys

import pytest

from cqrank.analysis import analyze
from cqrank.bench import GenConfig, bench_query, generate_instance
from cqrank.engine import build_index
from cqrank.errors import OutOfRange
from cqrank.instrument import Stats
from cqrank.model import Instance, Relation, parse_order
from cqrank.selection import select

from conftest import level_groups

COUNT = 301_066


@pytest.fixture(scope="module")
def bench_db():
    return generate_instance(GenConfig(3000, "small", 7))


# ``comparisons`` counts the key comparisons CPython's ``list.sort`` makes, and
# 3.13's sort detects runs differently, so that counter is pinned per Python:
# the parameters hold the count measured on 3.10.13, 3.11.7 and 3.12.1, this
# map the one measured on 3.13.0. Probes and rows touched agree on all four.
COMPARISONS_ON_3_13 = {"lex: A,B,C,D": 24_572, "sum: A,B": 54_693}


@pytest.mark.parametrize("text,comparisons_to_3_12,probes,rows_touched", [
    ("lex: A,B,C,D", 23_340, 77, 72_256),
    ("sum: A,B", 53_371, 76, 72_218),
], ids=["lex: A,B,C,D", "sum: A,B"])  # a re-pin keeps the ids
def test_counters_repeat_exactly(bench_db, text, comparisons_to_3_12, probes, rows_touched):
    comparisons = COMPARISONS_ON_3_13[text] if sys.version_info >= (3, 13) else comparisons_to_3_12
    q = bench_query()
    o = parse_order(text, q)
    report = analyze(q, o)
    ix = build_index(q, bench_db, o, report=report, count_comparisons=True)
    assert ix.count == COUNT
    ks = [0, COUNT // 3, COUNT // 2, COUNT - 1]
    access_stats, select_stats = Stats(), Stats()
    accessed = [ix.access(k, access_stats) for k in ks]
    selected = [select(q, bench_db, o, k, seed=k, stats=select_stats, report=report) for k in ks]
    assert selected == accessed
    assert (ix.build_stats.comparisons, access_stats.probes, select_stats.rows_touched) == \
        (comparisons, probes, rows_touched)


def test_trio_selection_rows_touched_repeat_exactly(bench_db):
    q = bench_query()
    o = parse_order("lex: A,C,B,D", q)  # a disruptive trio: selection only
    stats = Stats()
    for k in (0, 1000, 5000):
        select(q, bench_db, o, k, seed=k, stats=stats)
    assert stats.rows_touched == 63_282


@pytest.mark.parametrize("text", ["lex: A,B,C,D", "sum: A,B"])
@pytest.mark.parametrize("k", [-1, COUNT])
def test_out_of_range_names_k_and_the_answer_count(bench_db, text, k):
    q = bench_query()
    o = parse_order(text, q)
    report = analyze(q, o)
    ix = build_index(q, bench_db, o, report=report)
    for call in (lambda: select(q, bench_db, o, k, seed=0, report=report), lambda: ix.access(k)):
        with pytest.raises(OutOfRange) as info:
            call()
        assert (info.value.k, info.value.count) == (k, COUNT)


def _index_digest(ix):
    """A hash of everything ``build_index`` builds: each level's ν keys in
    order with their values and prefix sums, then the count and the sum
    order's anchor blocks."""
    levels = [[(nu, *g) for nu, g in level.items()] for level in level_groups(ix.groups, ix.tables)]
    return hashlib.sha256(repr((levels, ix.count, ix.anchor_vals, ix.cums)).encode()).hexdigest()


def _as_strings(db):
    """``db`` with every cell ``x`` written as the string ``v{x:06d}``."""
    return Instance({name: Relation(name, rel.columns,
                                    tuple(tuple(f"v{x:06d}" for x in r) for r in rel.rows))
                     for name, rel in db.relations.items()})


INDEX_DIGESTS = {
    ("lex: A,B,C,D", "int"): "5d648d26fea25693bdbfb749c8fe0c6cacab1f1474844e3d19f98a8d4e1bcb94",
    ("sum: A,B", "int"): "24cdea5a7bc18e2c9aecd6d72e45a509df86a9cd9ae8b540489f0b0406cebb0a",
    ("lex: A,B,C,D", "str"): "693602220541de2c98e91decc0c1f0a05bddf2daae469df73bc62d059f8d582b",
}


@pytest.mark.parametrize("text,cells", list(INDEX_DIGESTS))
def test_the_index_repeats_exactly(bench_db, text, cells):
    """The index itself, not only what its accesses return: a rewrite of the
    candidate tables must keep every group, value and prefix sum."""
    db = bench_db if cells == "int" else _as_strings(bench_db)
    q = bench_query()
    assert _index_digest(build_index(q, db, parse_order(text, q))) == INDEX_DIGESTS[text, cells]
