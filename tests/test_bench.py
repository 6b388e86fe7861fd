import json
import re
from pathlib import Path

import pytest

from cqrank.bench import (
    BenchReport,
    _check_config,
    GenConfig,
    bench_query,
    generate_instance,
    run_benchmark,
    write_instance_csvs,
)
from cqrank.errors import ConfigError
from cqrank.model import OrderSpec, load_relation

ROOT = Path(__file__).resolve().parents[1]


def test_domain_sizes():
    assert GenConfig(10_000, "large").domain == 200
    assert GenConfig(100, "small").domain == 10
    assert GenConfig(1, "large").domain == 2
    cfg = GenConfig(1, "small")
    inst = generate_instance(cfg)
    assert all(len(r.rows) == 1 for r in inst.relations.values())


def test_gen_config_validation():
    with pytest.raises(ConfigError):
        GenConfig(0, "large")
    with pytest.raises(ConfigError):
        GenConfig(10, "medium")


def test_generate_deterministic():
    a = generate_instance(GenConfig(50, "small", seed=7))
    b = generate_instance(GenConfig(50, "small", seed=7))
    c = generate_instance(GenConfig(50, "small", seed=8))
    assert {n: r.rows for n, r in a.relations.items()} == {n: r.rows for n, r in b.relations.items()}
    assert a.relations["R"].rows != c.relations["R"].rows
    assert a.relations.keys() == {"R", "S", "T"}
    d = GenConfig(50, "small").domain
    assert all(1 <= v <= d for rel in a.relations.values() for row in rel.rows for v in row)


def test_write_and_reload_csvs(tmp_path):
    inst = generate_instance(GenConfig(20, "large", seed=1))
    write_instance_csvs(inst, tmp_path)
    r = load_relation(tmp_path / "R.csv", "R")
    assert r.rows == inst.relations["R"].rows
    assert r.columns == ("A", "B")


def _tiny_config():
    return {
        "verify_cap": 100_000,
        "result_cap": 1_000_000,
        "experiments": [
            {"id": "A", "ns": [60], "join_sizes": ["large", "small"], "seeds": [1],
             "methods": ["da", "sa", "full-sort"]},
            {"id": "B", "n": 60, "join_size": "large", "seed": 1,
             "methods": ["da", "sa", "topk-heap", "sort-before-join", "full-sort"]},
            {"id": "C", "ns": [60], "join_sizes": ["large"], "seeds": [1, 2, 3]},
        ],
    }


def test_run_benchmark_tiny(tmp_path):
    report = run_benchmark(_tiny_config())
    assert isinstance(report, BenchReport) and report.rows

    a_rows = [r for r in report.rows if r["experiment"] == "A"]
    assert {r["method"] for r in a_rows} == {"da", "sa", "full-sort"}
    assert all(r.get("verified") for r in a_rows if "error" not in r)
    da_rows = [r for r in report.rows if r["method"] == "da"]
    assert da_rows and all(type(r["comparisons"]) is int and r["comparisons"] > 0 for r in da_rows)

    b_rows = [r for r in report.rows if r["experiment"] == "B"]
    ks = sorted({r["k"] for r in b_rows})
    assert ks[0] == 1 and len(ks) >= 2  # sweep 1, 10, ... plus the last position

    c_rows = [r for r in report.rows if r["experiment"] == "C"]
    assert len(c_rows) == 3
    assert all(r["ratio"] is None or r["ratio"] > 0 for r in c_rows)

    out = tmp_path / "report.csv"
    report.write_csv(out)
    report.write_json(out.with_suffix(".json"))
    assert out.exists()
    rows = json.loads(out.with_suffix(".json").read_text())
    assert len(rows) == len(report.rows)


def test_run_benchmark_from_file(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "experiments": [{"id": "C", "ns": [40], "join_sizes": ["small"], "seeds": [1]}]
    }))
    report = run_benchmark(cfg)
    assert [r["experiment"] for r in report.rows] == ["C"]


def test_run_benchmark_config_errors():
    with pytest.raises(ConfigError):
        run_benchmark({"experiments": [{"id": "Z"}]})
    with pytest.raises(ConfigError):
        run_benchmark([])
    with pytest.raises(ConfigError):
        run_benchmark({"experiments": [
            {"id": "A", "ns": [10], "join_sizes": ["large"], "seeds": [1], "methods": ["nope"]}
        ]})


BAD_EXPERIMENTS = [
    ({"id": "Z"}, "unknown experiment id 'Z'"),
    ({"id": "B", "ks": [0], "methods": ["nope"]}, "unknown method 'nope'"),
    ({"id": "A", "ns": [0]}, "n must be >= 1"),
    ({"id": "B", "n": 0, "ks": [0]}, "n must be >= 1"),
    ({"id": "B", "join_size": "medium", "ks": [0]}, "join_size must be 'large' or 'small'"),
    ({"id": "C", "join_sizes": ["small", "huge"]}, "join_size must be 'large' or 'small'"),
]


@pytest.mark.parametrize("bad,message", BAD_EXPERIMENTS,
                         ids=[f"bad{i}" for i in range(len(BAD_EXPERIMENTS))])
def test_run_benchmark_checks_every_experiment_before_it_runs_one(bad, message, monkeypatch):
    """An unknown experiment id or method, or a size ``GenConfig`` rejects,
    after a valid experiment raises ``ConfigError`` before any instance is
    generated, warm-up included."""
    import cqrank.bench as bench

    made = []
    real = bench.generate_instance
    monkeypatch.setattr(bench, "generate_instance", lambda cfg: (made.append(cfg), real(cfg))[1])
    valid = {"id": "A", "ns": [40], "join_sizes": ["large"], "methods": ["da", "sa"]}
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_benchmark({"experiments": [valid, bad]})
    assert made == []


def test_check_config_accepts_the_demo_config():
    _check_config(json.loads((ROOT / "demos" / "bench_small.json").read_text(encoding="utf-8")))


def test_full_sort_rejects_positions_outside_the_answers():
    """``full-sort`` reports a k outside [0, count) as OutOfRange, as the
    other methods do, rather than indexing from the end."""
    methods = ["full-sort", "da", "topk-heap", "sa"]
    count = run_benchmark({"experiments": [
        {"id": "B", "n": 40, "ks": [0], "methods": ["da"]}]}).rows[0]["answers"]
    report = run_benchmark({"experiments": [
        {"id": "B", "n": 40, "ks": [-1, count], "methods": methods}]})
    assert [(r["method"], r["k"], r.get("error")) for r in report.rows] == \
        [(m, k, "OutOfRange") for k in (-1, count) for m in methods]
    assert not any("verified" in r for r in report.rows)

def test_rows_past_the_result_cap_go_unverified_not_failed():
    """With more answers than ``result_cap`` the oracle is never built, so a
    method that ran reads ``verified: null``; only full-sort, which
    materializes the answers itself, reports ``ResultTooLarge``."""
    report = run_benchmark({"verify_cap": 1_000_000, "result_cap": 100, "experiments": [
        {"id": "B", "n": 40, "ks": [0], "methods": ["da", "sa", "topk-heap", "full-sort"]}]})
    rows = {r["method"]: r for r in report.rows}
    assert all(r["answers"] > 100 for r in rows.values())
    for m in ("da", "sa", "topk-heap"):
        assert "error" not in rows[m] and rows[m]["verified"] is None, rows[m]
    assert rows["full-sort"]["error"] == "ResultTooLarge"


def test_sort_before_join_rows_are_verified_under_lex_b(monkeypatch):
    """sort-before-join ranks under ``lex: B``, the order it requires, so
    its rows are checked against that order's oracle: a run that ranked
    under another order aborts."""
    import cqrank.bench as bench

    config = {"experiments": [{"id": "B", "n": 60, "join_size": "large", "seed": 1,
                               "methods": ["da", "sort-before-join"]}]}
    rows = [r for r in run_benchmark(config).rows if r["method"] == "sort-before-join"]
    assert len(rows) >= 3 and all(r["order"] == "lex:B" and r["verified"] is True for r in rows), rows
    real = bench.sort_before_join_access
    monkeypatch.setattr(bench, "sort_before_join_access",
                        lambda q, db, order, k: real(q, db, OrderSpec("lex", ("C",)), k))
    with pytest.raises(AssertionError, match="verification failed"):
        run_benchmark(config)


def test_bench_query_shape():
    q = bench_query()
    assert q.head == ("A", "B", "C", "D")
    assert [a.relation for a in q.atoms] == ["R", "S", "T"]


@pytest.mark.parametrize("order,unrouted", [
    ("sum: A,B", set()),                     # both entries build and select a sum order
    ("lex: A,C,B,D", {"da", "da_over_sa"}),  # a disruptive trio: selection and the baselines
])
def test_bench_runs_orders_direct_lex_cannot_build(order, unrouted):
    """An order ``build_index`` rejects still runs every method; a method
    whose engine is not routed records ``NotRouted`` in its row, and the
    answer count comes from selection's counting when no index is built."""
    from cqrank.baseline import stream_answers

    report = run_benchmark({"order": order, "experiments": [
        {"id": "A", "ns": [60], "seeds": [1], "methods": ["da", "sa", "full-sort", "topk-heap"]},
        {"id": "C", "ns": [60], "seeds": [1, 2]},
    ]})
    assert [r["experiment"] for r in report.rows] == ["A"] * 8 + ["C"] * 4
    for r in report.rows:
        db = generate_instance(GenConfig(r["n"], r["join_size"], r["seed"]))
        assert r["answers"] == sum(1 for _ in stream_answers(bench_query(), db)), r
        if r["method"] in unrouted:
            assert r["error"] == "NotRouted" and not r.get("verified"), r
        else:
            assert not r.get("error") and r["verified"] is True, r


@pytest.mark.parametrize("methods,builds", [(["topk-heap"], 0), (["topk-heap", "da"], 2)])
def test_only_a_cell_that_runs_da_builds_the_index(methods, builds, monkeypatch):
    """After the warm-up cell's two builds, a cell builds the index, plain and
    counted, once if it runs ``da`` and never if it does not; its answer
    count is the same either way."""
    import cqrank.bench as bench

    real, built = bench.build_index, []

    def spy(q, db, *args, **kwargs):
        built.append(len(db.relations["R"].rows))
        return real(q, db, *args, **kwargs)

    monkeypatch.setattr(bench, "build_index", spy)
    rows = run_benchmark({"experiments": [{"id": "B", "n": 300, "join_size": "small", "ks": [5, 9],
                                           "methods": methods}]}).rows
    assert built == [200, 200] + [300] * builds
    count = bench.count_answers(bench_query(), generate_instance(GenConfig(300, "small", 1)))
    assert [r["answers"] for r in rows] == [count] * len(rows) and count > 9
    assert all(r["verified"] is True for r in rows), rows


def test_committed_bench_results_name_their_command_machine_and_commits():
    """Every ``BENCH_*.json`` at the repository root parses and says how it
    was measured: the command, the machine and the commits compared."""
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        result = json.loads(path.read_text(encoding="utf-8"))
        assert {"command", "machine", "commits"} <= result.keys(), path.name
