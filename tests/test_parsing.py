"""The query and order parsers against the token-by-token parser they
replaced: same results, same errors, and no scanner for a text the grammar
accepts; plus a time bound on long inputs."""

import random
import time
from collections import Counter

import pytest

from cqrank import model
from cqrank.errors import CqError, DuplicateHeadVariable, QuerySyntaxError, UnboundHeadVariable
from cqrank.model import LEX, SUM, _IDENT_RE, Atom, OrderSpec, Query, check_order, parse_order, parse_query

from conftest import perfbench_spec


class _ReferenceScanner:
    """The ``_Scanner`` that parsed every text before the grammars, kept with
    the two parsers below as the reference for results, errors and positions."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise QuerySyntaxError("unexpected input", self.pos, expected=repr(token))
        self.pos += len(token)

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise QuerySyntaxError("unexpected input", self.pos, expected="identifier")
        self.pos = m.end()
        return m.group()

    def ident_list(self) -> list[str]:
        names = [self.ident()]
        while True:
            self.skip_ws()
            if self.text.startswith(",", self.pos):
                self.pos += 1
                names.append(self.ident())
            else:
                return names


def _reference_parse_query(text: str) -> Query:
    """Parse ``Head(V1,...,Vp) :- Atom1, ..., Atomm .`` into a Query."""
    s = _ReferenceScanner(text)
    name = s.ident()
    s.expect("(")
    head = s.ident_list()
    s.expect(")")
    s.expect(":-")
    atoms = []
    while True:
        rel = s.ident()
        s.expect("(")
        vars_ = s.ident_list()
        s.expect(")")
        atoms.append(Atom(rel, tuple(vars_)))
        s.skip_ws()
        if s.text.startswith(",", s.pos):
            s.pos += 1
            continue
        s.expect(".")
        break
    if not s.eof():
        raise QuerySyntaxError("trailing input", s.pos, expected="end of query")

    seen = set()
    for v in head:
        if v in seen:
            raise DuplicateHeadVariable(v)
        seen.add(v)
    body_vars = {v for a in atoms for v in a.vars}
    for v in head:
        if v not in body_vars:
            raise UnboundHeadVariable(v)
    return Query(name, tuple(head), tuple(atoms))


def _reference_parse_order(text: str, q: Query) -> OrderSpec:
    """Parse ``lex: V1,...,Vk`` or ``sum: V1,...,Vk`` against a query."""
    s = _ReferenceScanner(text)
    kind = s.ident()
    if kind not in (LEX, SUM):
        raise QuerySyntaxError("unknown order kind", 0, expected="'lex' or 'sum'")
    s.expect(":")
    vars_ = s.ident_list()
    if not s.eof():
        raise QuerySyntaxError("trailing input", s.pos, expected="end of order")
    o = OrderSpec(kind, tuple(vars_))
    check_order(q, o)
    return o


def _outcome(parse, *args):
    """The parsed value, or the error's class, message, position and expectation."""
    try:
        return parse(*args)
    except CqError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None), getattr(exc, "expected", None)


def _reference_order_outcome(text, q):
    """The reference's outcome, with an unknown kind placed where the kind
    starts; the reference put it at position 0 whatever came before."""
    want = _outcome(_reference_parse_order, text, q)
    if isinstance(want, tuple) and want[1].startswith("unknown order kind"):
        exc = QuerySyntaxError("unknown order kind", len(text) - len(text.lstrip()), expected=want[3])
        want = (QuerySyntaxError, str(exc), exc.pos, exc.expected)
    return want


_DEMO_PAIRS = [
    ("Q(A,B,C) :- R(A,B), S(B,C).", order)
    for order in ("lex: A,B,C", "lex: A,C,B", "lex: B", "lex: A,C", "sum: B,C", "sum: A,C")
] + [("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).", order) for order in ("lex: A,B,C,D", "lex: B")]
_PROJECTION_PAIRS = [("Qp(A,C) :- R(A,B), S(B,C).", order) for order in ("lex: A", "sum: C", "lex: C,A")]

# what the mutations insert: the grammars' own tokens, kind names, Unicode
# spaces (NBSP, the file separator \x1c, NEL, line separator, em space),
# characters near them that are neither spaces nor identifier characters,
# and a comma with a name, which can repeat a variable
_PIECES = [":-", "lex", "sum", "max", "\xa0", "\x1c", "\x85", "\u2028", "\u2003", "\t", "\n", "\r",
           "\u200b", "\ufeff", ",", "(", ")", ".", ":", "-", "A", "B", "V1", "_", "9", "\xe9", "R(A)",
           ":-R(", ",A", ",B", ",C", ",V0", ",L0", ",X"]


def _respaced(text, rng):
    """``text`` with a random run of whitespace before and after each
    punctuation mark."""
    runs = ("", "", " ", "  ", "\t", "\n ", "\xa0", "\x1c", "\u2003")
    for mark in ":-", "(", ")", ",", ".":
        parts = text.split(mark)
        text = "".join(p + rng.choice(runs) + mark + rng.choice(runs) for p in parts[:-1]) + parts[-1]
    return rng.choice(runs) + text + rng.choice(runs)


def _mutated(text, rng):
    """``text`` after one to three inserts, deletes or replacements."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(1, 3))
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(_PIECES) + text[i:]
        elif op == 1:
            text = text[:i] + text[j:]
        else:
            text = text[:i] + rng.choice(_PIECES) + text[j:]
    return text


def _seed_pairs():
    batch = [(qt, ot) for _, qt, ot in perfbench_spec().analyze_batch(11, 9)]
    return batch + _DEMO_PAIRS + _PROJECTION_PAIRS


def test_parsers_equal_the_token_by_token_reference():
    """On 50 000 seeded mutations of the analyze-wide batch, the demo
    queries, a projection and respaced copies of all of them, each query text parses to the
    reference's ``Query`` and each order text to its ``OrderSpec``, or both
    raise the same error class with the same message, position and
    expectation; only an unknown order kind now names its own position."""
    rng = random.Random(24)
    pairs = _seed_pairs()
    pairs += [(_respaced(qt, rng), _respaced(ot, rng)) for qt, ot in pairs]
    outcomes = Counter()
    for _ in range(25_000):
        qt, ot = rng.choice(pairs)
        text = _mutated(qt, rng)
        got = _outcome(parse_query, text)
        assert got == _outcome(_reference_parse_query, text), repr(text)
        outcomes[type(got) if isinstance(got, Query) else got[0]] += 1

        q = parse_query(qt)
        text = _mutated(ot, rng)
        got = _outcome(parse_order, text, q)
        assert got == _reference_order_outcome(text, q), repr(text)
        outcomes[type(got) if isinstance(got, OrderSpec) else got[0]] += 1
    # every error class the parsers raise, and over a thousand of each parse
    assert len(outcomes) == 8 and min(outcomes[Query], outcomes[OrderSpec]) > 1_000, outcomes


def test_a_scanner_is_built_only_for_a_rejected_text(monkeypatch):
    """The grammar reads every analyze-wide text without a ``_Scanner``;
    each text it rejects builds exactly one, to name the error."""
    built = []

    class Spy(model._Scanner):
        def __init__(self, text):
            built.append(text)
            super().__init__(text)

    monkeypatch.setattr(model, "_Scanner", Spy)
    for _, qt, ot in perfbench_spec().analyze_batch(11, 9):
        parse_order(ot, parse_query(qt))
    assert built == []

    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    for text in ("Q(A,B)  R(A,B).", "Q(A,B) :- R(A,B)", "Q() :- R(A).", "Q(A) :- R(A,).",
                 "Q(A) :- R(A). extra", "Q(A,A) :- R(A)", "Q(A) :- R(A) S(A)."):
        with pytest.raises(QuerySyntaxError):
            parse_query(text)
        assert built.pop() == text and built == []
    for text in ("max: A", "lex A", "lex: A,", "lex: A B", "sum:", "lex:: A"):
        with pytest.raises(QuerySyntaxError):
            parse_order(text, q)
        assert built.pop() == text and built == []
    with pytest.raises(DuplicateHeadVariable):  # the grammar accepts it: the head check refuses it
        parse_query("Q(A,A) :- R(A).")
    assert built == []


def _long_texts(n):
    """Inputs of ``n`` elements, by name, each with the error it should
    raise or None: ``n`` atoms, the same ending in garbage, a head of ``n``
    names with no ``)``, and runs of ``n`` spaces between tokens."""
    atoms = ", ".join(f"E{i}(V0,V{i})" for i in range(n))
    head = ",".join(f"V{i}" for i in range(n))
    gap = " " * n
    spaced = gap.join(["Q", "(", "A", ",", "B", ")", ":-", "R", "(", "A", ",", "B", ")", "."])
    return {
        "atoms": (f"Q(V0) :- {atoms}.", None),
        "atoms-then-garbage": (f"Q(V0) :- {atoms}!", QuerySyntaxError),
        "open-head": (f"Q({head} :- R(V0).", QuerySyntaxError),
        "open-head-at-end": (f"Q({head}", QuerySyntaxError),
        "spaced-query": (spaced, None),
        "spaced-query-then-garbage": (spaced[:-1] + "!", QuerySyntaxError),
        "spaced-order": (gap.join(["lex", ":", "A", ",", "B"]), None),
        "spaced-order-then-garbage": (gap.join(["lex", ":", "A", ",", "B", "!"]), QuerySyntaxError),
    }


@pytest.mark.parametrize("case", list(_long_texts(1)))
def test_long_inputs_parse_or_fail_in_linear_time(case):
    """40 000 elements parse or fail within 2 s, so a grammar whose nested
    quantifiers backtrack over a long input fails here."""
    text, error = _long_texts(40_000)[case]
    q = parse_query("Q(A,B) :- R(A,B).")
    parse = (lambda t: parse_order(t, q)) if text.startswith("lex") else parse_query
    t0 = time.perf_counter()
    if error is None:
        parsed = parse(text)
    else:
        with pytest.raises(error):
            parse(text)
    assert time.perf_counter() - t0 < 2.0
    if case == "atoms":
        assert len(parsed.atoms) == 40_000 and parsed.atoms[-1] == Atom("E39999", ("V0", "V39999"))
