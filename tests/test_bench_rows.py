"""Golden rows of ``cqrank bench``: one small config, run under four orders,
must give the rows recorded in ``tests/golden/bench_rows.json``.

Each row is pinned by its place in the report, its key set, its untimed
fields and whether its ``ratio`` is null. The other fields are timed, and
are pinned by name only. ``comparisons`` follows CPython's ``list.sort``,
which 3.13 changed, so it is checked only as a positive int on ``da`` rows.

Rewrite the golden file with ``PYTHONPATH=src python tests/test_bench_rows.py``.
"""

import json
from pathlib import Path

import pytest

from cqrank.bench import run_benchmark

GOLDEN = Path(__file__).resolve().parent / "golden" / "bench_rows.json"
ORDERS = ["lex: A,B,C,D", "sum: A,B", "lex: A,C,B,D", "lex: B"]
FIELDS = ["experiment", "method", "n", "k", "join_size", "seed", "order",
          "answers", "probes", "verified", "error"]
ALL_METHODS = ["da", "sa", "full-sort", "topk-heap", "sort-before-join"]

# n=90 small holds 8 714 answers under seed 1 and 8 058 under seed 2: both are
# past verify_cap, and seed 1 is past result_cap too; n=1 large holds none
CONFIG = {
    "verify_cap": 5000,
    "result_cap": 8500,
    "experiments": [
        {"id": "A", "ns": [40, 90], "seeds": [1, 2], "methods": ALL_METHODS},
        {"id": "B", "n": 40, "join_size": "small"},
        {"id": "B", "n": 90, "join_size": "small", "seed": 2, "ks": [-1, 0, 5, 10**9]},
        {"id": "C", "ns": [1, 40]},
    ],
}


def _summary(row: dict) -> dict:
    out = {f: row[f] for f in FIELDS if f in row}
    if "ratio" in row:
        out["ratio_is_null"] = row["ratio"] is None
    out["timed"] = sorted(row.keys() - {*FIELDS, "ratio"})
    return out


def _rows(order: str) -> list[dict]:
    return run_benchmark({**CONFIG, "order": order}).rows


@pytest.mark.parametrize("order", ORDERS)
def test_bench_rows_match_the_golden_rows(order):
    rows = _rows(order)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[order]
    assert len(rows) == len(golden)
    for i, (row, want) in enumerate(zip(rows, golden)):
        assert _summary(row) == want, (i, row)
        if "comparisons" in row:
            assert row["method"] == "da" and type(row["comparisons"]) is int \
                and row["comparisons"] > 0, (i, row)


if __name__ == "__main__":  # one row a line
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(o)}: [\n" + ",\n".join(json.dumps(_summary(r)) for r in _rows(o)) + "]"
        for o in ORDERS) + "\n}\n", encoding="utf-8")
