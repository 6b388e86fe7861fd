"""Text fuzzing of the parsers, the CSV loader and the command line.

No input may escape as anything but a ``CqError``, or, for bytes that are not
UTF-8, the ``UnicodeDecodeError`` the README documents. The command line turns
both into one JSON error line and exit code 1; argparse exits with 2.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqrank.baseline import materialize_and_sort
from cqrank.cli import main
from cqrank.errors import CqError
from cqrank.model import load_instance, load_relation, parse_order, parse_query

OVER_LONG = "9" * 5000  # more digits than int() converts by default
QUERIES = ["Q(A,B) :- R(A,B).", "Q(A,C) :- R(A,B), S(B,C).", "Q(A,B,C) :- R(A,B), S(B,C)."]
ORDERS = ["lex: A,B", "lex: B", "sum: A", "sum: A,B", "lex: A,C,B"]
# a 1 100-variable self-join path over R, V0 - V1 - ... - V1099
WIDE_PATH = (f"Q({','.join(f'V{i}' for i in range(1100))}) :- "
             + ", ".join(f"R(V{i},V{i + 1})" for i in range(1099)) + ".")


def _fuzz(alphabet, max_size=40):
    """Text drawn mostly from a grammar's characters, sometimes from anywhere."""
    return st.one_of(st.text(alphabet=alphabet, max_size=max_size), st.text(max_size=20))


_query_text = st.one_of(st.sampled_from(QUERIES), _fuzz("QRS(AB_1),:-. \n\t'é"))
_order_text = st.one_of(st.sampled_from(ORDERS), _fuzz("lexsum: ABC,_1\n"))
_csv_bytes = st.one_of(
    st.lists(st.sampled_from([b"A", b"B", b",", b"\n", b"\r", b"1", b"22", b"-", b"+", b"x",
                              b" ", b"\xff", b"\xc3\xa9", b"\xc3"]), max_size=30).map(b"".join),
    st.binary(max_size=40),
)
_positions = _fuzz("0123456789,-x ", max_size=12)
# data and command lines the CLI mostly accepts, so its deeper paths run too
def _mostly(valid, fuzzed):
    """``valid`` three times in four (``one_of`` would pick each half the time)."""
    return st.sampled_from([valid] * 3 + [fuzzed]).flatmap(lambda strategy: strategy)


_cell = st.sampled_from(["1", "22", "-0", "x", "", OVER_LONG[:30]])
_r_csv = st.one_of(
    st.lists(st.tuples(_cell, _cell), max_size=5).map(
        lambda rows: ("A,B\n" + "".join(f"{a},{b}\n" for a, b in rows)).encode()),
    _csv_bytes.map(b"A,B\n".__add__),
    _csv_bytes,
)
_extra = _mostly(st.just([]), st.lists(st.sampled_from(
    ["--stats", "--seed", "x", "3", "--strategy", "topk-heap", "full-sort", "--dialect", "cte"]),
    max_size=2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_query_text)
def test_parse_query_raises_only_cq_errors(text):
    with contextlib.suppress(CqError):
        parse_query(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(query=st.sampled_from(QUERIES), text=_order_text)
def test_parse_order_raises_only_cq_errors(query, text):
    with contextlib.suppress(CqError):
        parse_order(text, parse_query(query))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "R.csv"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=_csv_bytes)
@example(data=f"A,B\n1,{OVER_LONG}\n".encode())
@example(data=f"A\n1\n1\n{OVER_LONG}\n1\n".encode())
def test_load_relation_raises_only_cq_or_decode_errors(csv_path, data):
    csv_path.write_bytes(data)
    with contextlib.suppress(CqError, UnicodeDecodeError):
        load_relation(csv_path, "R")


def _run_cli(argv) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            rc = exc.code
    return rc, out.getvalue().splitlines()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(["analyze", "access", "count", "select", "baseline", "emit-sql"]),
       query=_mostly(st.sampled_from(QUERIES), _query_text),
       order=_mostly(st.sampled_from(ORDERS), _order_text), r_csv=_r_csv,
       positions=_mostly(st.sampled_from(["0", "1,3", "0,99"]), _positions), extra=_extra)
@example(command="count", query=QUERIES[0], order="lex: A,B", r_csv=f"A,B\n1,{OVER_LONG}\n".encode(),
         positions="0", extra=[])
@example(command="count", query=QUERIES[2], order="lex: A,C,B", r_csv=b"A,B\n1,1\n2,1\n22,22\n",
         positions="0", extra=[])  # a trio order, which direct access cannot serve
@example(command="select", query=WIDE_PATH, order="lex: V0", r_csv=b"A,B\n0,0\n1,1\n",
         positions="1", extra=[])
def test_cli_speaks_json_or_exits_2(tmp_path_factory, command, query, order, r_csv, positions, extra):
    work = tmp_path_factory.mktemp("cli")
    (work / "q.cq").write_text(query, encoding="utf-8")
    (work / "R.csv").write_bytes(r_csv)
    (work / "S.csv").write_bytes(b"B,C\n1,1\n22,x\n")
    argv = [command, "--query", str(work / "q.cq"), "--order", order]
    if command not in ("analyze", "emit-sql"):
        argv += ["--data", str(work)]
    if command not in ("analyze", "count"):
        argv += ["--k", positions]
    argv += {"baseline": ["--strategy", "full-sort"], "emit-sql": ["--dialect", "offset"]}.get(command, [])
    rc, lines = _run_cli(argv + extra)
    if rc == 2:
        return
    assert rc in (0, 1), (argv, rc)
    if command == "emit-sql" and rc == 0:
        return  # the SQL text itself, not JSON lines
    docs = [json.loads(line) for line in lines]
    if rc == 1:  # a refused input is one error line, after any per-position lines
        assert set(docs[-1]) == {"error", "detail"}, (argv, docs)
    if command == "count" and rc == 0:  # the count is the oracle's, whatever the order
        q = parse_query(query)
        want = len(materialize_and_sort(q, load_instance(work, q), parse_order(order, q)))
        assert docs == [{"count": want}], (argv, docs)
