"""Relational model: values, relations, queries, orders, loading, validation.

Values are plain Python ``int`` / ``str``. The library-wide total order places
every integer before every string; within a kind the native order applies
(numeric for ints, code-point order for strings). ``value_key`` realizes that
order as a sort key, since Python refuses ``int < str`` directly.
"""

from __future__ import annotations

import gc
import re
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import itemgetter
from pathlib import Path

from .errors import (
    ArityMismatch,
    DuplicateHeadVariable,
    DuplicateVariable,
    EmptyHeader,
    IntegerTooLong,
    InvalidCell,
    InvalidPositions,
    MissingRelation,
    NonFreeVariable,
    NonNumericWeightColumn,
    QuerySyntaxError,
    RaggedRow,
    UnboundHeadVariable,
    UnknownVariable,
)

Value = int | str

LEX = "lex"
SUM = "sum"

_INT_RE = re.compile(r"[+-]?[0-9]+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def value_key(v: Value):
    """Total-order sort key: ints (kind 0) before strs (kind 1)."""
    return (0, v) if isinstance(v, int) else (1, v)


def tuple_key(values):
    return tuple(value_key(v) for v in values)


def parse_cell(text: str) -> Value:
    return int(text) if _INT_RE.fullmatch(text) else text


@dataclass(frozen=True)
class Relation:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        arity = len(self.columns)
        if set(map(len, rows)) - {arity}:
            bad = next(r for r in rows if len(r) != arity)
            raise ArityMismatch(self.name, len(bad), arity)
        if set(map(type, chain.from_iterable(rows))) - {int, str}:  # exactly: no bool, no subclass
            raise InvalidCell(self.name, next(c for c in chain.from_iterable(rows)
                                              if type(c) not in (int, str)))

    @classmethod
    def _of_rows(cls, name, columns, rows):
        """A relation whose ``rows`` are already a tuple of exact tuples of
        ``len(columns)`` values each, built without ``__post_init__``'s walk."""
        rel = object.__new__(cls)
        rel.__dict__.update(name=name, columns=columns, rows=rows)
        return rel

    @property
    def arity(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class Atom:
    relation: str
    vars: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))

    @property
    def var_set(self) -> frozenset[str]:
        return frozenset(self.vars)


@dataclass(frozen=True)
class Query:
    name: str
    head: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        """``parse_query``'s checks, for a hand-built query too; a query with
        no atoms gets the ``QuerySyntaxError`` of its ``format_query`` text."""
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            _Scanner(format_query(self)).query()  # raises
        if len(self.head_set) < len(self.head):
            raise DuplicateHeadVariable(next(v for i, v in enumerate(self.head) if v in self.head[:i]))
        body = self.variables
        for v in self.head:
            if v not in body:
                raise UnboundHeadVariable(v)

    @property
    def head_set(self) -> frozenset[str]:
        return frozenset(self.head)

    @property
    def variables(self) -> frozenset[str]:
        out = set()
        for a in self.atoms:
            out.update(a.vars)
        return frozenset(out)


@dataclass(frozen=True)
class OrderSpec:
    kind: str  # LEX or SUM
    vars: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if self.kind not in (LEX, SUM):  # as parse_order reads format_order's text
            raise QuerySyntaxError("unknown order kind", 0, expected="'lex' or 'sum'")


@dataclass(frozen=True)
class Instance:
    relations: dict[str, Relation]

    def get(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise MissingRelation(name) from None


@dataclass(frozen=True, slots=True)
class AnswerTuple:
    """Assignment to the head variables, stored in head order."""

    vars: tuple[str, ...]
    values: tuple[Value, ...]

    def as_dict(self) -> dict[str, Value]:
        return dict(zip(self.vars, self.values))

    def __getitem__(self, var: str) -> Value:
        return self.values[self.vars.index(var)]


# --- parsing -----------------------------------------------------------------

# The query and order grammars, each read by one match. Every ``\s*`` stands
# between two tokens, never beside another ``\s*``, so a text they reject
# fails in time linear in its length.
_ID = _IDENT_RE.pattern
_IDS = rf"{_ID}(?:\s*,\s*{_ID})*"
_ATOM = rf"{_ID}\s*\(\s*{_IDS}\s*\)"
_QUERY_RE = re.compile(rf"\s*({_ID})\s*\(\s*({_IDS})\s*\)\s*:-\s*({_ATOM}(?:\s*,\s*{_ATOM})*)\s*\.\s*")
_ATOM_RE = re.compile(rf"({_ID})\s*\(([^)]*)\)")
_ORDER_RE = re.compile(rf"\s*(lex|sum)\s*:\s*({_IDS})\s*")


class _Scanner:
    """Walks a text its grammar rejected, token by token, and raises the
    ``QuerySyntaxError`` naming the first position where the text leaves it."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at(self, token: str) -> bool:
        self.skip_ws()
        found = self.text.startswith(token, self.pos)
        self.pos += len(token) if found else 0
        return found

    def expect(self, token: str):
        if not self.at(token):
            raise QuerySyntaxError("unexpected input", self.pos, expected=repr(token))

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise QuerySyntaxError("unexpected input", self.pos, expected="identifier")
        self.pos = m.end()
        return m.group()

    def ident_list(self):
        self.ident()
        while self.at(","):
            self.ident()

    def atom(self):
        self.ident()
        self.expect("(")
        self.ident_list()
        self.expect(")")

    def end(self, what: str):
        self.skip_ws()
        if self.pos < len(self.text):
            raise QuerySyntaxError("trailing input", self.pos, expected=f"end of {what}")

    def query(self):
        self.atom()  # the head
        self.expect(":-")
        self.atom()
        while self.at(","):
            self.atom()
        self.expect(".")
        self.end("query")

    def order(self):
        self.skip_ws()
        start = self.pos
        if self.ident() not in (LEX, SUM):
            raise QuerySyntaxError("unknown order kind", start, expected="'lex' or 'sum'")
        self.expect(":")
        self.ident_list()
        self.end("order")


def parse_query(text: str) -> Query:
    """Parse ``Head(V1,...,Vp) :- Atom1, ..., Atomm .`` into a Query."""
    m = _QUERY_RE.fullmatch(text)
    if m is None:
        _Scanner(text).query()  # raises
    name, head, body = m.groups()
    head = _IDENT_RE.findall(head)
    atoms = [Atom(rel, tuple(_IDENT_RE.findall(vs))) for rel, vs in _ATOM_RE.findall(body)]
    return Query(name, tuple(head), tuple(atoms))


def format_query(q: Query) -> str:
    atoms = ", ".join(f"{a.relation}({','.join(a.vars)})" for a in q.atoms)
    return f"{q.name}({','.join(q.head)}) :- {atoms}."


def parse_order(text: str, q: Query) -> OrderSpec:
    """Parse ``lex: V1,...,Vk`` or ``sum: V1,...,Vk`` against a query."""
    m = _ORDER_RE.fullmatch(text)
    if m is None:
        _Scanner(text).order()  # raises
    o = OrderSpec(m[1], tuple(_IDENT_RE.findall(m[2])))
    check_order(q, o)
    return o


def check_order(q: Query, o: OrderSpec) -> None:
    """``DuplicateVariable``, ``UnknownVariable`` or ``NonFreeVariable`` for
    the first order variable that is repeated, not in the query, or not in
    its head; for an order with no variables, the ``QuerySyntaxError`` that
    ``parse_order`` gives its text."""
    if not o.vars:
        raise QuerySyntaxError("unexpected input", len(format_order(o)), expected="identifier")
    seen, head = set(), q.head_set
    for v in o.vars:
        if v in seen:
            raise DuplicateVariable(v)
        seen.add(v)
        if v not in head:
            raise NonFreeVariable(v) if v in q.variables else UnknownVariable(v)


def check_rank(k) -> None:
    """``InvalidPositions`` unless k is an ``int`` (a ``bool`` is not a rank)."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise InvalidPositions(repr(k), "integers")


def format_order(o: OrderSpec) -> str:
    return f"{o.kind}: {','.join(o.vars)}"


# --- loading -----------------------------------------------------------------

@contextmanager
def _no_gc():
    """Pause the cyclic garbage collector for a bulk build, and turn it back
    on afterwards only if it was on before.

    Loading and preprocessing allocate millions of tuples and dicts of ints
    and strs, none of them part of a reference cycle, so the collector's
    passes over them find nothing to free; reference counting still frees
    every object as usual. The collector's switch is process-wide: a thread
    that leaves this block turns it back on for every thread."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def read_utf8(path) -> str:
    """A file's text with its line endings as written, so a lone ``\\r``
    stays inside its line; if it is not UTF-8, the error's message names the
    file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        exc.reason += f" in {path}"
        raise


def load_relation(path, name: str) -> Relation:
    """Load a header-first CSV file (comma-separated, no quoting) in file order.

    The body is checked as one grid: each line break becomes a cell of its
    own, and the file loads only when those break cells fall after every
    ``arity`` cells, ``arity`` being the header's cell count. Otherwise
    ``RaggedRow`` names the first line (1-based, the header is line 1) whose
    cell count differs, and that count. When at most half of the cells are
    distinct, each distinct cell text is parsed once and equal cells load as
    one shared value object; otherwise each cell is parsed on its own, as a
    lookup table would not pay."""
    # a final newline ends the last row; it starts no empty one
    text = read_utf8(path).replace("\r\n", "\n").removesuffix("\n")
    header, newline, body = text.partition("\n")
    del text
    columns = tuple(header.split(","))
    if "" in columns:
        raise EmptyHeader(path)
    if not newline:  # no body: "".split(",") would read one empty cell
        return Relation(name, columns, ())
    arity = len(columns)
    nlines = body.count("\n") + 1
    cells = body.replace("\n", ",\n,").split(",")
    if len(cells) != nlines * (arity + 1) - 1 or cells[arity::arity + 1].count("\n") != nlines - 1:
        raise _ragged_row(body, arity)
    del body, cells[arity::arity + 1]
    parsed = dict.fromkeys(cells)
    try:
        if 2 * len(parsed) > len(cells):
            del parsed
            is_int = list(map(bool, map(_INT_RE.fullmatch, cells)))
            # write each int over its text, in place; consumed by a zero-length deque
            deque(map(cells.__setitem__, compress(count(), is_int), map(int, compress(cells, is_int))), 0)
            values = iter(cells)
        else:
            texts = list(parsed)
            ints = list(compress(texts, map(_INT_RE.fullmatch, texts)))
            parsed = dict(zip(texts, texts))
            parsed.update(zip(ints, map(int, ints)))
            values = map(parsed.__getitem__, cells)
        # one iterator zipped with itself: consecutive runs of `arity` values
        rows = tuple(zip(*[values] * arity))
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        raise _integer_too_long(path, cells, arity) from None
    return Relation._of_rows(name, columns, rows)


def _ragged_row(body, arity) -> RaggedRow:
    """The error naming the first body line without ``arity`` cells; found
    only on this error path, so the grid check above walks no line."""
    for i, line in enumerate(body.split("\n"), start=2):  # line 1 is the header
        if line.count(",") != arity - 1:
            return RaggedRow(i, line.count(",") + 1, arity)


def _integer_too_long(path, cells, arity) -> IntegerTooLong:
    """The error naming the line of the first cell ``parse_cell`` refuses;
    found only on this error path, so the parse above checks nothing per cell.
    Cells before it may already hold their ints."""
    for i, c in enumerate(cells):
        if isinstance(c, str):
            try:
                parse_cell(c)
            except ValueError:
                return IntegerTooLong(path, i // arity + 2)  # line 1 is the header


@_no_gc()
def load_instance(data_dir, q: Query) -> Instance:
    """Load ``<name>.csv`` from ``data_dir`` for every relation the query names."""
    data_dir = Path(data_dir)
    relations = {}
    for a in q.atoms:
        if a.relation not in relations:
            relations[a.relation] = load_relation(data_dir / f"{a.relation}.csv", a.relation)
    return Instance(relations)


def _relation(db: Instance, a: Atom) -> Relation:
    """The relation atom ``a`` names, checked to have one column per variable."""
    rel = db.get(a.relation)
    if rel.arity != len(a.vars):
        raise ArityMismatch(a.relation, len(a.vars), rel.arity)
    return rel


def check_weight_columns(q: Query, db: Instance, order: OrderSpec) -> None:
    """Check that every column a sum order's weight variable binds holds ints."""
    for a in q.atoms:
        rows = _relation(db, a).rows
        for pos, v in enumerate(a.vars):
            if v in order.vars and not all(map(isinstance, map(itemgetter(pos), rows), repeat(int))):
                raise NonNumericWeightColumn(v, a.relation)


def validate_instance(q: Query, db: Instance, order: OrderSpec | None = None) -> None:
    """Check atom resolution, arity, and (for sum orders) integer weight columns."""
    for a in q.atoms:
        _relation(db, a)
    if order is not None and order.kind == SUM:
        check_weight_columns(q, db, order)


# --- bound atoms --------------------------------------------------------------

@dataclass(frozen=True)
class BoundAtom:
    """Atom bound to its relation: repeated variables are enforced on the rows
    and then collapsed, so ``vars`` has no duplicates (first-occurrence order).
    Duplicate rows stay distinct tuples (bag semantics)."""

    vars: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...]


def bound_atoms(q: Query, db: Instance) -> list[BoundAtom]:
    out = []
    for a in q.atoms:
        rel = _relation(db, a)
        first = {}
        for pos, v in enumerate(a.vars):
            first.setdefault(v, []).append(pos)
        keep = tuple(positions[0] for positions in first.values())
        if any(len(p) > 1 for p in first.values()):
            groups = [p for p in first.values() if len(p) > 1]
            rows = tuple(
                tuple(r[p] for p in keep)
                for r in rel.rows
                if all(len({r[p] for p in g}) == 1 for g in groups)
            )
        else:
            rows = rel.rows
        out.append(BoundAtom(tuple(first.keys()), rows))
    return out
