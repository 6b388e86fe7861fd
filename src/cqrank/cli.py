"""Command-line front end; every subcommand speaks JSON lines on stdout."""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import bench as bench_mod
from .analysis import analyze
from .baseline import (
    emit_sql,
    materialize_and_sort,
    sort_before_join_access,
    topk_heap_access,
)
from .engine import build_index, count_answers
from .errors import ConfigError, CqError, InvalidPositions, OutOfRange
from .instrument import Stats
from .model import (
    load_instance,
    parse_order,
    parse_query,
    read_utf8,
    validate_instance,
)
from .selection import select


def _error_code(exc: Exception) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


def _emit(obj) -> None:
    print(json.dumps(obj))


def _load(args, need_data=True):
    q = parse_query(read_utf8(args.query))
    o = parse_order(args.order, q)
    if not need_data:
        return q, o, None
    db = load_instance(args.data, q)
    validate_instance(q, db, o)
    return q, o, db


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise InvalidPositions(text) from None
    if not ks:
        raise InvalidPositions(text)
    return ks


def cmd_analyze(args) -> int:
    q, o, _ = _load(args, need_data=False)
    _emit(analyze(q, o).to_json_dict())
    return 0


def _timed_load(args):
    """``_load`` and its wall time in ms, for ``--stats``."""
    t0 = time.perf_counter()
    q, o, db = _load(args)
    return q, o, db, (time.perf_counter() - t0) * 1000.0


def cmd_access(args) -> int:
    q, o, db, load_ms = _timed_load(args)
    ks = _parse_ks(args.k)  # before the build: a refused --k costs no index
    t0 = time.perf_counter()
    index = build_index(q, db, o)
    pre_ms = (time.perf_counter() - t0) * 1000.0
    stats = Stats() if args.stats else None
    for k in ks:
        try:
            ans = index.access(k, stats)
            _emit({"k": k, "answer": ans.as_dict()})
        except OutOfRange:
            _emit({"k": k, "error": "out_of_range"})
    if args.stats:
        # a build of its own, so the counting sort key stays out of preprocess_ms
        counted = build_index(q, db, o, count_comparisons=True)
        _emit({
            "probes": stats.probes,
            "comparisons": counted.build_stats.comparisons,
            "preprocess_ms": round(pre_ms, 3),
            "load_ms": round(load_ms, 3),
        })
    return 0


def cmd_count(args) -> int:
    q, o, db = _load(args)  # the count is the same under every order: no index
    _emit({"count": count_answers(q, db)})
    return 0


def cmd_select(args) -> int:
    q, o, db, load_ms = _timed_load(args)
    report = analyze(q, o)
    stats = Stats() if args.stats else None
    select_s = 0.0
    for k in _parse_ks(args.k):
        t0 = time.perf_counter()
        try:
            ans = select(q, db, o, k, seed=args.seed, stats=stats, report=report)
            line = {"k": k, "answer": ans.as_dict()}
        except OutOfRange:
            line = {"k": k, "error": "out_of_range"}
        select_s += time.perf_counter() - t0
        _emit(line)
    if args.stats:
        _emit({
            "rows_touched": stats.rows_touched,
            "select_ms": round(select_s * 1000.0, 3),
            "load_ms": round(load_ms, 3),
        })
    return 0


def cmd_baseline(args) -> int:
    q, o, db = _load(args)
    ordered = None
    for k in _parse_ks(args.k):
        try:
            if args.strategy == "full-sort":
                if ordered is None:
                    ordered = materialize_and_sort(q, db, o, cap=args.cap)
                if not 0 <= k < len(ordered):
                    raise OutOfRange(k, len(ordered))
                ans, log = ordered[k], {"requested": "FullSort", "ran": "FullSort"}
            elif args.strategy == "topk-heap":
                ans, slog = topk_heap_access(q, db, o, k, cap=args.cap)
                log = asdict(slog)
            else:  # sort-before-join
                ans, slog = sort_before_join_access(q, db, o, k)
                log = asdict(slog)
            _emit({"k": k, "answer": ans.as_dict(), "strategy_log": log})
        except OutOfRange:
            _emit({"k": k, "error": "out_of_range"})
    return 0


def cmd_emit_sql(args) -> int:
    q, o, _ = _load(args, need_data=False)
    sql = emit_sql(q, o, _parse_ks(args.k), args.dialect)
    if args.out:
        Path(args.out).write_text(sql, encoding="utf-8")
    else:
        sys.stdout.write(sql)
    return 0


def cmd_gen(args) -> int:
    cfg = bench_mod.GenConfig(n=args.n, join_size=args.join_size, seed=args.seed)
    inst = bench_mod.generate_instance(cfg)
    written = bench_mod.write_instance_csvs(inst, args.out)
    _emit({"out": str(args.out), "n": args.n, "domain": cfg.domain, "files": written})
    return 0


def cmd_bench(args) -> int:
    out = Path(args.out)
    json_out = out.with_suffix(".json")
    if json_out == out:  # the JSON report would overwrite the CSV
        raise ConfigError(f"--out {out} must not end in .json: the JSON report goes beside it")
    if not out.parent.is_dir():  # the error writing the report would raise, before anything runs
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out))
    report = bench_mod.run_benchmark(args.config)
    report.write_csv(out)
    report.write_json(json_out)
    _emit({"rows": len(report.rows), "csv": str(out), "json": str(json_out)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cqrank", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, data=True, k=False):
        sp.add_argument("--query", required=True, help="query file (.cq)")
        sp.add_argument("--order", required=True, help="'lex: V1,...' or 'sum: V1,...'")
        if data:
            sp.add_argument("--data", required=True, help="directory with <relation>.csv files")
        if k:
            sp.add_argument("--k", required=True, help="comma-separated zero-based positions")

    sp = sub.add_parser("analyze", help="emit the tractability report as JSON")
    common(sp, data=False)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("access", help="ranked direct access at positions k")
    common(sp, k=True)
    sp.add_argument("--stats", action="store_true", help="report probes/comparisons/preprocess_ms/load_ms")
    sp.set_defaults(fn=cmd_access)

    sp = sub.add_parser("count", help="total number of answers")
    common(sp)
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("select", help="single access (selection) at positions k")
    common(sp, k=True)
    sp.add_argument("--seed", type=int, default=None, help="pivot RNG seed")
    sp.add_argument("--stats", action="store_true", help="report rows_touched/select_ms/load_ms")
    sp.set_defaults(fn=cmd_select)

    sp = sub.add_parser("baseline", help="reference strategies")
    common(sp, k=True)
    sp.add_argument("--strategy", required=True,
                    choices=["full-sort", "topk-heap", "sort-before-join"])
    sp.add_argument("--cap", type=int, default=10**8, help="answer-count cap")
    sp.set_defaults(fn=cmd_baseline)

    sp = sub.add_parser("emit-sql", help="emit SQL for ranked positions")
    common(sp, data=False, k=True)
    sp.add_argument("--dialect", required=True, choices=["offset", "cte"])
    sp.add_argument("--out", default=None, help="write SQL to a file instead of stdout")
    sp.set_defaults(fn=cmd_emit_sql)

    sp = sub.add_parser("gen", help="generate the synthetic three-way-join instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--join-size", dest="join_size", required=True, choices=["large", "small"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output directory for R.csv, S.csv, T.csv")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("bench", help="run the benchmark config and write reports")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True, help="CSV report path (JSON written alongside)")
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CqError as exc:
        _emit({"error": _error_code(exc), "detail": str(exc)})
        return 1
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8 text
        _emit({"error": "io_error", "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
