import json
import time

import pytest

import cqrank.cli as cli
from cqrank.cli import main
from cqrank.baseline import materialize_and_sort
from cqrank.engine import AccessIndex
from cqrank.model import load_instance, parse_order, parse_query


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "q.cq").write_text("Q(A,B,C) :- R(A,B), S(B,C).\n")
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.csv").write_text("A,B\n1,1\n1,2\n2,1\n")
    (data / "S.csv").write_text("B,C\n1,10\n2,20\n2,30\n")
    return tmp_path


def _lines(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]


def test_cli_analyze(workspace, capsys):
    rc = main(["analyze", "--query", str(workspace / "q.cq"), "--order", "lex: A,C,B"])
    assert rc == 0
    (doc,) = _lines(capsys)
    assert doc["trio"] == ["A", "C", "B"]
    assert doc["routing"]["DirectLex"]["ok"] is False
    assert doc["routing"]["SingleLex"]["ok"] is True


def test_cli_access_with_stats(workspace, capsys):
    rc = main([
        "access", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data"),
        "--order", "lex: A,B,C", "--k", "0,2,9", "--stats",
    ])
    assert rc == 0
    lines = _lines(capsys)
    assert lines[0] == {"k": 0, "answer": {"A": 1, "B": 1, "C": 10}}
    assert lines[1] == {"k": 2, "answer": {"A": 1, "B": 2, "C": 30}}
    assert lines[2] == {"k": 9, "error": "out_of_range"}
    stats = lines[3]
    assert set(stats) == {"probes", "comparisons", "preprocess_ms", "load_ms"}
    assert stats["probes"] > 0 and stats["comparisons"] > 0


def test_cli_access_stats_times_an_uncounted_build(workspace, capsys, monkeypatch):
    events = []
    real_build, real_access = cli.build_index, AccessIndex.access

    def build(*a, count_comparisons=False):
        events.append(("build", count_comparisons))
        if count_comparisons:
            time.sleep(0.3)  # would show in preprocess_ms if this build were timed
        return real_build(*a, count_comparisons=count_comparisons)

    def access(self, *a):
        events.append(("access",))
        return real_access(self, *a)

    monkeypatch.setattr(cli, "build_index", build)
    monkeypatch.setattr(AccessIndex, "access", access)
    rc = main([
        "access", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data"),
        "--order", "lex: A,B,C", "--k", "0,2", "--stats",
    ])
    assert rc == 0
    assert events == [("build", False), ("access",), ("access",), ("build", True)]
    stats = _lines(capsys)[-1]
    assert stats["comparisons"] > 0 and stats["preprocess_ms"] < 300


def test_cli_count_lex_and_sum(workspace, capsys):
    base = ["count", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data")]
    assert main(base + ["--order", "lex: A,B,C"]) == 0
    assert main(base + ["--order", "sum: B,C"]) == 0
    # direct access serves neither order (a disruptive trio; weights in two
    # atoms), but the count does not depend on the order
    assert main(base + ["--order", "lex: A,C,B"]) == 0
    assert main(base + ["--order", "sum: A,C"]) == 0
    counts = _lines(capsys)
    assert counts == [{"count": 4}] * 4


def test_cli_count_cyclic_names_count(tmp_path, capsys):
    (tmp_path / "q.cq").write_text("Q(A,B,C) :- R(A,B), S(B,C), T(C,A).\n")
    for name, text in {"R": "A,B\n1,2\n", "S": "B,C\n2,3\n", "T": "C,A\n3,1\n"}.items():
        (tmp_path / f"{name}.csv").write_text(text)
    assert main(["count", "--query", str(tmp_path / "q.cq"), "--data", str(tmp_path),
                 "--order", "lex: A,B,C"]) == 1
    (line,) = _lines(capsys)
    assert line == {"error": "not_routed", "detail": "count not available: not_acyclic"}


def test_cli_select(workspace, capsys):
    rc = main([
        "select", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data"),
        "--order", "lex: A,C,B", "--k", "1", "--seed", "7",
    ])
    assert rc == 0
    (line,) = _lines(capsys)
    assert line == {"k": 1, "answer": {"A": 1, "B": 2, "C": 20}}


def test_cli_baseline_strategy_log(workspace, capsys):
    rc = main([
        "baseline", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data"),
        "--order", "lex: A,B,C", "--strategy", "topk-heap", "--k", "3",
    ])
    assert rc == 0
    (line,) = _lines(capsys)
    assert line["answer"] == {"A": 2, "B": 1, "C": 10}
    assert line["strategy_log"]["ran"] == "FullSort"


@pytest.mark.parametrize("strategy, order_text, log_keys", [
    ("full-sort", "lex: A,B,C", {"requested", "ran"}),
    ("topk-heap", "lex: A,B,C", {"requested", "ran", "reason", "answers", "k"}),
    ("sort-before-join", "lex: B", {"emitted", "block_size"}),
])
def test_cli_baseline_gives_the_oracle_answer_at_every_k(workspace, capsys, strategy, order_text, log_keys):
    q = parse_query((workspace / "q.cq").read_text())
    oracle = materialize_and_sort(q, load_instance(workspace / "data", q), parse_order(order_text, q))
    rc = main([
        "baseline", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data"),
        "--order", order_text, "--strategy", strategy,
        "--k", ",".join(str(k) for k in range(len(oracle) + 1)),
    ])
    assert rc == 0
    *answers, past_end = _lines(capsys)
    assert [line["answer"] for line in answers] == [a.as_dict() for a in oracle]
    assert all(set(line["strategy_log"]) == log_keys for line in answers)
    assert past_end == {"k": len(oracle), "error": "out_of_range"}


def test_cli_not_routed_error(workspace, capsys):
    rc = main([
        "access", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data"),
        "--order", "lex: A,C,B", "--k", "0",
    ])
    assert rc == 1
    (line,) = _lines(capsys)
    assert line["error"] == "not_routed"


def test_cli_emit_sql_to_file(workspace, capsys, tmp_path):
    out = tmp_path / "q.sql"
    rc = main([
        "emit-sql", "--query", str(workspace / "q.cq"), "--order", "lex: A,B,C",
        "--dialect", "cte", "--k", "0,1", "--out", str(out),
    ])
    assert rc == 0
    assert "WHERE row_idx IN (1, 2)" in out.read_text()


@pytest.mark.parametrize("dialect, ks", [("offset", "-1"), ("cte", "-3,0")])
def test_cli_emit_sql_rejects_negative_positions(workspace, capsys, dialect, ks):
    rc = main(["emit-sql", "--query", str(workspace / "q.cq"), "--order", "lex: A,B,C",
               "--dialect", dialect, f"--k={ks}"])
    assert rc == 1
    (line,) = _lines(capsys)
    assert line["error"] == "invalid_positions" and ks in line["detail"]


def test_cli_gen_and_access_round_trip(tmp_path, capsys):
    rc = main(["gen", "--n", "50", "--join-size", "small", "--seed", "3",
               "--out", str(tmp_path / "gendata")])
    assert rc == 0
    (info,) = _lines(capsys)
    assert info["domain"] == 5
    q = tmp_path / "q3.cq"
    q.write_text("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).\n")
    rc = main(["count", "--query", str(q), "--data", str(tmp_path / "gendata"),
               "--order", "lex: A,B,C,D"])
    assert rc == 0
    (line,) = _lines(capsys)
    assert line["count"] >= 0


def test_cli_bench(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "experiments": [{"id": "C", "ns": [40], "join_sizes": ["small"], "seeds": [1]}],
    }))
    out = tmp_path / "report.csv"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert out.exists() and out.with_suffix(".json").exists()
    (line,) = _lines(capsys)
    assert line["rows"] == 1
    assert (line["csv"], line["json"]) == (str(out), str(out.with_suffix(".json")))
    assert out.read_text().startswith("experiment,") and json.loads(out.with_suffix(".json").read_text())


def test_cli_bench_refuses_a_json_out_path(tmp_path, capsys, monkeypatch):
    """The CSV would be overwritten by the JSON report of the same name."""
    monkeypatch.setattr(cli.bench_mod, "run_benchmark", lambda config: pytest.fail("an experiment ran"))
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"experiments": [{"id": "C", "ns": [40], "seeds": [1]}]}))
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    (line,) = _lines(capsys)
    assert line["error"] == "config_error" and "r.json" in line["detail"]
    assert not (tmp_path / "r.json").exists()


def test_cli_bench_out_in_a_missing_directory_runs_nothing(tmp_path, capsys, monkeypatch):
    """The io_error that writing the report would raise comes before any
    instance is generated, warm-up included."""
    made = []
    real = cli.bench_mod.generate_instance
    monkeypatch.setattr(cli.bench_mod, "generate_instance", lambda cfg: (made.append(cfg), real(cfg))[1])
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"experiments": [{"id": "C", "ns": [40], "seeds": [1]}]}))
    out = tmp_path / "missing" / "report.csv"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 1 and made == []
    (line,) = _lines(capsys)
    assert line == {"error": "io_error", "detail": f"[Errno 2] No such file or directory: '{out}'"}
    assert not out.parent.exists()


@pytest.mark.parametrize("text", [
    '{"experiments": [',                                           # not JSON
    '{"experiments": [{"id": "A", "ns": "x"}]}',                   # not a list
    '{"experiments": [{"id": "C", "ns": [40], "seeds": [1.5]}]}',  # not ints
    '{"experiments": [{"id": "B", "n": true}]}',
    '{"experiments": [7]}',
    '{"experiments": {"id": "A"}}',
    '{"verify_cap": "many", "experiments": []}',
    '[]',
    pytest.param('{"verify_cap": %s, "experiments": []}' % ("9" * 5000), id="over-long-int"),
])
def test_cli_bench_bad_config_is_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "bench.json"
    cfg.write_text(text, encoding="utf-8")
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "report.csv")])
    assert rc == 1
    (line,) = _lines(capsys)
    assert line["error"] == "config_error"
    assert not (tmp_path / "report.csv").exists()


def test_cli_bench_config_not_utf8_is_io_error(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_bytes(b'{"experiments": [], "order": "lex: \xff"}')
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "report.csv")])
    assert rc == 1
    (line,) = _lines(capsys)
    assert line["error"] == "io_error" and "bench.json" in line["detail"]


def test_cli_over_long_integer_cell_is_integer_too_long(workspace, capsys):
    (workspace / "data" / "S.csv").write_text("B,C\n1,10\n2," + "9" * 5000 + "\n")
    assert main(["count", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data"),
                 "--order", "lex: A,B,C"]) == 1
    (line,) = _lines(capsys)
    assert line["error"] == "integer_too_long"
    assert "S.csv" in line["detail"] and "line 3" in line["detail"]


def test_cli_bad_query_file(tmp_path, capsys):
    bad = tmp_path / "bad.cq"
    bad.write_text("Q(A,Z) :- R(A,B).")
    rc = main(["analyze", "--query", str(bad), "--order", "lex: A"])
    assert rc == 1
    (line,) = _lines(capsys)
    assert line["error"] == "unbound_head_variable"


def test_cli_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["analyze", "--query", str(tmp_path / "nope.cq"), "--order", "lex: A"])
    assert rc == 1
    (line,) = _lines(capsys)
    assert line["error"] == "io_error"


def test_cli_select_stats(workspace, capsys):
    rc = main([
        "select", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data"),
        "--order", "lex: A,C,B", "--k", "1,9", "--seed", "7", "--stats",
    ])
    assert rc == 0
    first, second, stats = _lines(capsys)
    assert first == {"k": 1, "answer": {"A": 1, "B": 2, "C": 20}}
    assert second == {"k": 9, "error": "out_of_range"}
    assert set(stats) == {"rows_touched", "select_ms", "load_ms"}
    assert stats["rows_touched"] >= 2 * 6  # each call collapses both relations' rows
    assert isinstance(stats["select_ms"], float) and stats["select_ms"] > 0


def _positions_argv(workspace, command, ks):
    argv = [command, "--query", str(workspace / "q.cq"), "--order", "lex: A,B,C", f"--k={ks}"]
    return argv + {
        "access": ["--data", str(workspace / "data")],
        "select": ["--data", str(workspace / "data")],
        "baseline": ["--data", str(workspace / "data"), "--strategy", "full-sort"],
        "emit-sql": ["--dialect", "cte"],
    }[command]


@pytest.mark.parametrize("command", ["access", "select", "baseline", "emit-sql"])
@pytest.mark.parametrize("ks", ["x", "1.5", "1,x"])
def test_cli_bad_positions_are_cq_errors(workspace, capsys, command, ks):
    assert main(_positions_argv(workspace, command, ks)) == 1
    (line,) = _lines(capsys)
    assert line["error"] == "invalid_positions"


@pytest.mark.parametrize("command", ["access", "select", "baseline", "emit-sql"])
def test_cli_an_empty_position_list_is_refused(workspace, capsys, command):
    """``--k`` must name a position: an empty list printed nothing, or SQL
    with ``IN ()``, and exited 0. Empty items between commas are skipped."""
    for ks in ("", ","):
        assert main(_positions_argv(workspace, command, ks)) == 1
        (line,) = _lines(capsys)
        assert line["error"] == "invalid_positions"
    assert cli._parse_ks("1,,2") == [1, 2]


@pytest.mark.parametrize("ks", ["", "x"])
def test_cli_access_refuses_positions_before_the_build(workspace, capsys, monkeypatch, ks):
    """A ``--k`` that ``access`` refuses costs no index build, and prints the
    error line that ``select`` prints for it."""
    built = []
    monkeypatch.setattr(cli, "build_index", lambda *a, **kw: built.append(a))
    assert main(_positions_argv(workspace, "access", ks)) == 1
    (line,) = _lines(capsys)
    assert built == [] and line["error"] == "invalid_positions"
    assert main(_positions_argv(workspace, "select", ks)) == 1
    assert _lines(capsys) == [line]


def test_cli_undecodable_files_are_io_errors(workspace, capsys):
    bad = workspace / "bad.cq"
    bad.write_bytes(b"Q(A) :- R(A\xff).\n")
    assert main(["analyze", "--query", str(bad), "--order", "lex: A"]) == 1
    (workspace / "data" / "S.csv").write_bytes(b"B,C\n1,\xff\n")
    assert main(["count", "--query", str(workspace / "q.cq"), "--data", str(workspace / "data"),
                 "--order", "lex: A,B,C"]) == 1
    lines = _lines(capsys)
    assert [line["error"] for line in lines] == ["io_error", "io_error"]
    assert "bad.cq" in lines[0]["detail"] and "S.csv" in lines[1]["detail"]
