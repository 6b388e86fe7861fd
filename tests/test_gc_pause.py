"""Loading, direct-access preprocessing and the oracle pause the cyclic
garbage collector, and leave its switch as they found it."""

import gc
from contextlib import contextmanager

import pytest

from cqrank import baseline, engine, model
from cqrank.analysis import analyze
from cqrank.baseline import materialize_and_sort
from cqrank.engine import build_index
from cqrank.errors import EmptyHeader, NotRouted, RaggedRow, ResultTooLarge
from cqrank.model import load_instance, parse_order, parse_query

Q = "Q(A,B,C) :- R(A,B), S(B,C)."


@contextmanager
def _collector(on: bool):
    """Run the block with the collector switched ``on`` or off, then put the
    switch back as it was."""
    before = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def _write(d, files):
    d.mkdir()
    for name, text in files.items():
        (d / name).write_text(text)
    return d


def _calls(tmp_path):
    """Each entry point that pauses the collector: a call that succeeds, the
    module-level function it calls inside the pause, and calls that raise."""
    q = parse_query(Q)
    data = _write(tmp_path / "ok", {"R.csv": "A,B\n1,2\n3,2\n", "S.csv": "B,C\n2,5\n2,6\n"})
    ragged = _write(tmp_path / "ragged", {"R.csv": "A,B\n1,2\n3\n", "S.csv": "B,C\n2,5\n"})
    blank = _write(tmp_path / "blank", {"R.csv": "\n1,2\n", "S.csv": "B,C\n2,5\n"})
    db = load_instance(data, q)
    lex, trio = parse_order("lex: A,B,C", q), parse_order("lex: A,C,B", q)
    total, spread = parse_order("sum: A,B", q), parse_order("sum: A,C", q)
    return {
        "load_instance": (lambda: load_instance(data, q), (model, "load_relation"), [
            (lambda: load_instance(ragged, q), RaggedRow),
            (lambda: load_instance(blank, q), EmptyHeader),
        ]),
        "build_index": (lambda: (build_index(q, db, lex), build_index(q, db, total)),
                        (engine, "_build_tables"), [
            (lambda: build_index(q, db, trio), NotRouted),
            (lambda: build_index(q, db, spread), NotRouted),
            (lambda: build_index(q, db, total, report=analyze(q, lex)), NotRouted),
        ]),
        "materialize_and_sort": (lambda: materialize_and_sort(q, db, lex),
                                 (baseline, "stream_answers"), [
            (lambda: materialize_and_sort(q, db, lex, cap=1), ResultTooLarge),
        ]),
    }


ENTRY_POINTS = ["load_instance", "build_index", "materialize_and_sort"]


@pytest.mark.parametrize("on", [True, False])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_set_up_runs_with_the_collector_paused_and_restores_it(name, on, tmp_path, monkeypatch):
    call, (module, inner), _ = _calls(tmp_path)[name]
    real, seen = getattr(module, inner), []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, inner, spy)
    with _collector(on):
        call()
        after = gc.isenabled()
    assert seen and not any(seen)  # paused inside
    assert after == on


@pytest.mark.parametrize("on", [True, False])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_set_up_that_raises_restores_the_collector(name, on, tmp_path):
    failing = _calls(tmp_path)[name][2]
    for call, error in failing:
        with _collector(on):
            with pytest.raises(error):
                call()
            assert gc.isenabled() == on, error.__name__
