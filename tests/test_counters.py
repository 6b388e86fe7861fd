"""Every machine-independent counter repeats exactly.

The numbers below are pinned on the bench query over one generated instance,
so a change that moves a counter (or makes one depend on hashing order) shows
here before it shows in a benchmark trace. One ``Stats`` per entry point.
"""

import sys

import pytest

from cqrank.analysis import analyze
from cqrank.bench import GenConfig, bench_query, generate_instance
from cqrank.engine import preprocess_lex, preprocess_sum
from cqrank.errors import OutOfRange
from cqrank.instrument import Stats
from cqrank.model import parse_order
from cqrank.selection import select_lex, select_sum

COUNT = 301_066


@pytest.fixture(scope="module")
def bench_db():
    return generate_instance(GenConfig(3000, "small", 7))


# ``comparisons`` counts the key comparisons CPython's ``list.sort`` makes, and
# 3.13's sort detects runs differently, so that counter is pinned per Python:
# the parameters hold the count measured on 3.10.13, 3.11.7 and 3.12.1, this
# map the one measured on 3.13.0. Probes and rows touched agree on all four.
COMPARISONS_ON_3_13 = {"lex: A,B,C,D": 24_091, "sum: A,B": 54_212}


@pytest.mark.parametrize("text,comparisons_to_3_12,probes,rows_touched", [
    ("lex: A,B,C,D", 22_858, 77, 72_256),
    ("sum: A,B", 52_889, 76, 72_218),
])
def test_counters_repeat_exactly(bench_db, text, comparisons_to_3_12, probes, rows_touched):
    comparisons = COMPARISONS_ON_3_13[text] if sys.version_info >= (3, 13) else comparisons_to_3_12
    q = bench_query()
    o = parse_order(text, q)
    report = analyze(q, o)
    preprocess, select = (preprocess_lex, select_lex) if o.kind == "lex" else (preprocess_sum, select_sum)
    ix = preprocess(q, bench_db, report, count_comparisons=True)
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
        select_lex(q, bench_db, o, k, seed=k, stats=stats)
    assert stats.rows_touched == 63_282


@pytest.mark.parametrize("text", ["lex: A,B,C,D", "sum: A,B"])
@pytest.mark.parametrize("k", [-1, COUNT])
def test_out_of_range_names_k_and_the_answer_count(bench_db, text, k):
    q = bench_query()
    o = parse_order(text, q)
    report = analyze(q, o)
    preprocess, select = (preprocess_lex, select_lex) if o.kind == "lex" else (preprocess_sum, select_sum)
    ix = preprocess(q, bench_db, report)
    for call in (lambda: select(q, bench_db, o, k, seed=0, report=report), lambda: ix.access(k)):
        with pytest.raises(OutOfRange) as info:
            call()
        assert (info.value.k, info.value.count) == (k, COUNT)
