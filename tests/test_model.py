import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqrank.analysis import analyze
from cqrank.baseline import OFFSET_LIMIT, emit_sql
from cqrank.errors import (
    ArityMismatch,
    DuplicateHeadVariable,
    DuplicateVariable,
    EmptyHeader,
    IntegerTooLong,
    MissingRelation,
    NonFreeVariable,
    NonNumericWeightColumn,
    QuerySyntaxError,
    RaggedRow,
    UnboundHeadVariable,
    UnknownVariable,
)
from cqrank.model import (
    AnswerTuple,
    Atom,
    Instance,
    OrderSpec,
    Relation,
    bound_atoms,
    format_order,
    format_query,
    load_relation,
    parse_order,
    parse_cell,
    parse_query,
    read_utf8,
    validate_instance,
    value_key,
)


def test_parse_two_path():
    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    assert q.head == ("A", "B", "C")
    assert q.atoms == (Atom("R", ("A", "B")), Atom("S", ("B", "C")))


def test_parse_repeated_variable_atom():
    q = parse_query("Q(A) :- R(A,A).")
    assert q.atoms[0].vars == ("A", "A")


def test_parse_unbound_head_variable():
    with pytest.raises(UnboundHeadVariable) as e:
        parse_query("Q(A,Z) :- R(A,B).")
    assert e.value.var == "Z"


def test_parse_duplicate_head_variable():
    with pytest.raises(DuplicateHeadVariable):
        parse_query("Q(A,A) :- R(A,B).")


@pytest.mark.parametrize("bad", [
    "Q(A,B)  R(A,B).",       # missing :-
    "Q(A,B) :- R(A,B)",      # missing period
    "Q() :- R(A).",          # empty head list
    "Q(A) :- R(A,).",        # dangling comma
    "Q(A) :- R(A). extra",   # trailing input
])
def test_parse_syntax_errors_carry_position(bad):
    with pytest.raises(QuerySyntaxError) as e:
        parse_query(bad)
    assert e.value.pos >= 0


def test_parse_order_full_and_partial():
    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    full = parse_order("lex: A,B,C", q)
    assert full.kind == "lex" and len(full.vars) == len(q.head)
    part = parse_order("lex: A", q)
    assert part.kind == "lex" and len(part.vars) < len(q.head)
    s = parse_order("sum: B,C", q)
    assert s.kind == "sum" and s.vars == ("B", "C")


def test_parse_order_errors():
    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    with pytest.raises(UnknownVariable):
        parse_order("sum: A,X", q)
    with pytest.raises(DuplicateVariable):
        parse_order("lex: A,A", q)
    with pytest.raises(QuerySyntaxError):
        parse_order("max: A", q)
    qp = parse_query("Qp(A) :- R(A,B).")
    with pytest.raises(NonFreeVariable):
        parse_order("lex: B", qp)


@pytest.mark.parametrize("text,error", [
    ("lex: A,A", DuplicateVariable),
    ("sum: C,C", DuplicateVariable),
    ("lex: Z", UnknownVariable),
    ("sum: A,Z", UnknownVariable),
    ("lex: B", NonFreeVariable),
    ("sum: C,B", NonFreeVariable),
])
def test_analyze_checks_a_hand_built_order_as_parse_order_does(text, error):
    """An ``OrderSpec`` built without ``parse_order`` meets the same checks
    in ``analyze``: a repeated, unknown or existential variable is refused
    before any routing."""
    q = parse_query("Qp(A,C) :- R(A,B), S(B,C).")
    kind, _, names = text.partition(": ")
    with pytest.raises(error):
        parse_order(text, q)
    with pytest.raises(error):
        analyze(q, OrderSpec(kind, tuple(names.split(","))))


def test_parse_order_trailing_input_carries_position():
    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    with pytest.raises(QuerySyntaxError) as e:
        parse_order("lex: A,B C", q)
    assert (e.value.pos, e.value.expected) == (9, "end of order")


def test_parse_order_unknown_kind_carries_its_own_position():
    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    with pytest.raises(QuerySyntaxError) as e:
        parse_order("  max: A", q)
    assert (e.value.pos, e.value.expected) == (2, "'lex' or 'sum'")


@pytest.mark.parametrize("kind", ["lex", "sum"])
def test_a_hand_built_order_without_variables_is_refused_as_its_text(kind):
    """``OrderSpec(kind, ())`` raises, in ``analyze`` and in ``emit_sql``,
    the error ``parse_order`` gives the text ``"lex: "`` or ``"sum: "``."""
    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    with pytest.raises(QuerySyntaxError) as want:
        parse_order(f"{kind}: ", q)
    for call in (lambda o: analyze(q, o), lambda o: emit_sql(q, o, [1], OFFSET_LIMIT)):
        with pytest.raises(QuerySyntaxError) as got:
            call(OrderSpec(kind, ()))
        assert (str(got.value), got.value.pos, got.value.expected) == (str(want.value), 5, "identifier")


def test_a_hand_built_order_of_an_unknown_kind_is_refused_as_its_text():
    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    with pytest.raises(QuerySyntaxError) as want:
        parse_order("max: A", q)
    with pytest.raises(QuerySyntaxError) as got:
        OrderSpec("max", ("A",))
    assert (str(got.value), got.value.pos, got.value.expected) == (str(want.value), 0, "'lex' or 'sum'")


_ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_query_format_parse_round_trip(data):
    head = data.draw(st.lists(_ident, min_size=1, max_size=4, unique=True))
    n_atoms = data.draw(st.integers(1, 3))
    atoms = []
    pool = list(head)
    for i in range(n_atoms):
        vs = data.draw(st.lists(st.sampled_from(pool + ["X", "Y"]), min_size=1, max_size=3))
        atoms.append(Atom(f"R{i}", tuple(vs)))
    body_vars = {v for a in atoms for v in a.vars}
    if not set(head) <= body_vars:
        atoms.append(Atom("Rh", tuple(head)))
    from cqrank.model import Query
    q = Query("Q", tuple(head), tuple(atoms))
    assert parse_query(format_query(q)) == q


def test_order_format_round_trip():
    q = parse_query("Q(A,B) :- R(A,B).")
    for text in ("lex: A,B", "sum: A", "lex: B"):
        o = parse_order(text, q)
        assert parse_order(format_order(o), q) == o


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_value_total_order(data):
    vals = st.one_of(st.integers(-50, 50), st.text(max_size=3))
    a, b, c = (data.draw(vals) for _ in range(3))
    ka, kb, kc = value_key(a), value_key(b), value_key(c)
    assert (ka < kb) or (kb < ka) or (ka == kb)          # total
    assert not (ka < kb and kb < ka)                     # antisymmetric
    if ka < kb and kb < kc:
        assert ka < kc                                   # transitive
    if isinstance(a, int) and isinstance(b, str):
        assert ka < kb                                   # ints before strs


def test_load_relation_basic(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("B,C\n1,10\n2,20\n")
    r = load_relation(p, "T")
    assert r.columns == ("B", "C")
    assert r.rows == ((1, 10), (2, 20))


def test_load_relation_mixed_kinds(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("A\nfoo\n2\n")
    r = load_relation(p, "T")
    assert r.rows == (("foo",), (2,))


def test_load_relation_ragged(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("A,B\n1,2\n3\n")
    with pytest.raises(RaggedRow) as e:
        load_relation(p, "T")
    assert e.value.line == 3


def test_load_relation_empty_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("\n1,2\n")
    with pytest.raises(EmptyHeader):
        load_relation(p, "T")
    p.write_text("A,,B\n1,2,3\n")
    with pytest.raises(EmptyHeader):
        load_relation(p, "T")



def test_relation_arity_mismatch_names_the_first_bad_row():
    with pytest.raises(ArityMismatch) as e:
        Relation("R", ("A", "B"), ((1, 2), (1,), (1, 2, 3)))
    assert str(e.value) == "arity mismatch for 'R': got 1, expected 2"

def test_load_relation_crlf_and_order_preserving(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("A,B\r\n3,1\r\n1,2\r\n3,1\r\n")
    r = load_relation(p, "T")
    assert r.rows == ((3, 1), (1, 2), (3, 1))  # file order, duplicates kept


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_load_relation_lone_cr_stays_in_its_cell(tmp_path, newline):
    """Only ``\\n`` and ``\\r\\n`` end a line; a lone ``\\r`` is cell text."""
    p = tmp_path / "t.csv"
    p.write_bytes(f"A{newline}1\r2{newline}".encode())
    r = load_relation(p, "T")
    assert (r.columns, r.rows) == (("A",), (("1\r2",),))


def _reference_load(path, name):
    """The line-by-line loader: one ``parse_cell`` per cell."""
    lines = read_utf8(path).replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] == "" or any(c == "" for c in lines[0].split(",")):
        raise EmptyHeader(path)
    columns = tuple(lines[0].split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise RaggedRow(lineno, len(cells), len(columns))
        rows.append(tuple(parse_cell(c) for c in cells))
    return Relation(name, columns, tuple(rows))


def _outcome(load, path):
    try:
        r = load(path, "T")
    except (EmptyHeader, RaggedRow) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return r.columns, r.rows, [[type(v) for v in row] for row in r.rows]


_cell = st.text(alphabet="0123456789+-ab _\u0661\u0662\r", max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
@example(data="A,B")  # header only, no final newline
@example(data="A,B\n1,2,3\n4\n")  # ragged rows whose cells add up to two whole rows
@example(data="A\n1,2\n")  # two cells: two whole rows by count alone
def test_load_relation_matches_line_by_line_reference(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    if isinstance(data, str):  # an example gives the file's text
        text = data
    else:
        arity = data.draw(st.integers(1, 3))
        header = data.draw(st.lists(st.sampled_from(["A", "B", "c", ""]),
                                    min_size=arity, max_size=arity))
        # a row of another width now and then makes the file ragged
        widths = st.one_of(st.just(arity), st.just(arity), st.just(arity), st.integers(1, 4))
        rows = data.draw(st.lists(widths.flatmap(lambda w: st.lists(_cell, min_size=w, max_size=w)),
                                  max_size=6))
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        lines = [",".join(header)] + [",".join(r) for r in rows]
        text = newline.join(lines) + (newline if data.draw(st.booleans()) else "")
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(load_relation, path)
    assert got == _outcome(_reference_load, path), repr(text)
    if isinstance(got[0], tuple):  # loaded: the checked constructor must agree
        r = load_relation(path, "T")
        assert type(r.rows) is tuple and all(type(row) is tuple for row in r.rows)
        assert Relation(r.name, r.columns, r.rows) == r


def test_load_relation_blank_lines_and_header_only(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("A\n\n7\n\n\n")
    assert load_relation(p, "T").rows == (("",), (7,), ("",), ("",))
    for text in ("A,B", "A,B\n", "A,B\r\n"):
        p.write_text(text)
        r = load_relation(p, "T")
        assert (r.columns, r.rows) == (("A", "B"), ())


def test_load_relation_integer_rule(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("A\n+5\n-0\n007\n1_000\n 12\n\u0661\u0662\n")
    rows = [v for (v,) in load_relation(p, "T").rows]
    assert rows == [5, 0, 7, "1_000", " 12", "\u0661\u0662"]
    assert [type(v) for v in rows] == [int] * 3 + [str] * 3


def test_load_relation_equal_cells_share_one_value(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("A,B\n123456,foo\n123456,123456\nfoo,bar\n")  # 3 distinct of 6 cells
    (a, b), (c, d), (e, f) = load_relation(p, "T").rows
    assert a is c is d
    assert b is e


def test_load_relation_mostly_distinct_cells(tmp_path):
    """More than half of the cells distinct: each cell is parsed on its own."""
    p = tmp_path / "t.csv"
    p.write_text("A,B\n1,x\n+2,-3\n1,007\n")  # 5 distinct of 6 cells
    assert _outcome(load_relation, p) == _outcome(_reference_load, p)
    assert load_relation(p, "T").rows == ((1, "x"), (2, -3), (1, 7))


@pytest.mark.parametrize("rows", [
    ["1,{big}"],                       # every cell distinct: each is parsed on its own
    ["1,1", "1,1", "1,{big}", "1,1"],  # few distinct cells: each text is parsed once
])
def test_load_relation_over_long_integer_names_its_line(tmp_path, rows):
    """``int()`` refuses more than 4 300 digits by default; the loader says
    which file and line, as a ``CqError``, and leaves the limit alone."""
    p = tmp_path / "t.csv"
    p.write_text("A,B\n" + "\n".join(rows).replace("{big}", "9" * 5000) + "\n")
    with pytest.raises(IntegerTooLong) as err:
        load_relation(p, "T")
    assert err.value.line == 2 + next(i for i, r in enumerate(rows) if "{big}" in r)
    assert str(p) in str(err.value)


def test_load_relation_longest_default_integer_is_an_int(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("A\n" + "9" * 4300 + "\n")
    assert load_relation(p, "T").rows == ((10 ** 4300 - 1,),)


def test_validate_instance(db1, q2path):
    validate_instance(q2path, db1)
    with pytest.raises(MissingRelation):
        validate_instance(q2path, Instance({"R": db1.relations["R"]}))
    bad = Instance({
        "R": Relation("R", ("A", "B", "C"), ((1, 2, 3),)),
        "S": db1.relations["S"],
    })
    with pytest.raises(ArityMismatch):
        validate_instance(q2path, bad)


def test_validate_weight_columns(q2path):
    db = Instance({
        "R": Relation("R", ("A", "B"), (("x", 1),)),
        "S": Relation("S", ("B", "C"), ((1, 2),)),
    })
    o = parse_order("sum: A,B", q2path)
    with pytest.raises(NonNumericWeightColumn):
        validate_instance(q2path, db, o)
    validate_instance(q2path, db, parse_order("sum: B,C", q2path))


def _string_weights():
    q = parse_query("Q(A,B) :- R(A,B).")
    return q, Instance({"R": Relation("R", ("A", "B"), ((1, "x"), (2, "y")))})


@pytest.mark.parametrize("entry", [
    "build_index", "select", "materialize_and_sort", "topk_heap_access",
])
def test_sum_entry_points_reject_a_string_weight_column(entry):
    """Without ``validate_instance`` first, a str weight must still come out
    as a ``CqError``, not as the ``TypeError`` of adding an int to a str."""
    from cqrank import build_index, materialize_and_sort, select, topk_heap_access

    q, db = _string_weights()
    o = parse_order("sum: A,B", q)
    call = {
        "build_index": lambda: build_index(q, db, o),
        "select": lambda: select(q, db, o, 0, seed=1),
        "materialize_and_sort": lambda: materialize_and_sort(q, db, o),
        "topk_heap_access": lambda: topk_heap_access(q, db, o, 0),
    }[entry]
    with pytest.raises(NonNumericWeightColumn) as e:
        call()
    assert (e.value.var, e.value.relation) == ("B", "R")


def test_lex_orders_skip_the_weight_check(monkeypatch):
    from cqrank import baseline, engine, selection

    def forbidden(*args):
        raise AssertionError("a lex order checked weight columns")

    for module in (engine, baseline):  # selection checks through engine._routed
        monkeypatch.setattr(module, "check_weight_columns", forbidden)
    q, db = _string_weights()
    o = parse_order("lex: B,A", q)
    want = [(1, "x"), (2, "y")]
    assert [a.values for a in baseline.materialize_and_sort(q, db, o)] == want
    assert [engine.build_index(q, db, o).access(k).values for k in range(2)] == want
    assert [selection.select(q, db, o, k).values for k in range(2)] == want
    assert baseline.topk_heap_access(q, db, o, 0)[0].values == want[0]


def test_answer_tuple():
    a = AnswerTuple(("A", "B"), (1, "x"))
    assert a.as_dict() == {"A": 1, "B": "x"}
    assert a["B"] == "x"
    assert a == AnswerTuple(("A", "B"), (1, "x"))


def test_bound_atoms_repeated_vars():
    q = parse_query("Q(A) :- R(A,A).")
    db = Instance({"R": Relation("R", ("X", "Y"), ((1, 1), (1, 2), (3, 3)))})
    (b,) = bound_atoms(q, db)
    assert b.vars == ("A",)
    assert b.rows == ((1,), (3,))
