"""Synthetic three-way-join workload and the experiment driver.

Each experiment is rows of one loop: for each cell (n, join size, seed), each
rank k, and each method, one row (desk scale, machine-readable reports):

* ``A`` — cells over sizes, the median rank; direct access, single access
  and full sort, under the config's lex or sum order.
* ``B`` — one cell, ranks 1, 10, 100, ... and the last; adding the
  bounded-heap and sort-before-join baselines (the latter under the
  single-attribute order it requires).
* ``C`` — cells over seeds, the median rank; its ``da`` and ``sa`` rows fold
  into one (direct-access preprocessing + one access) / (one single access)
  ratio: the break-even number of accesses.

Every timed answer is cross-checked against the materialize-and-sort oracle
whenever the answer count stays within ``verify_cap`` and ``result_cap``;
other rows are flagged unverified. Instances are deterministic in
(n, join_size, seed).
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

from .analysis import analyze
from .baseline import materialize_and_sort, sort_before_join_access, topk_heap_access
from .engine import build_index, count_answers
from .errors import CqError, ConfigError, OutOfRange
from .instrument import Stats
from .model import Instance, OrderSpec, Query, Relation, parse_order, parse_query, read_utf8
from .selection import select

LARGE = "large"
SMALL = "small"

REPORT_COLUMNS = ["experiment", "method", "n", "k", "join_size", "seed", "order", "answers",
                  "wall_ms", "preprocess_ms", "access_ms", "probes", "comparisons", "ratio",
                  "verified", "error"]


@dataclass(frozen=True)
class GenConfig:
    n: int
    join_size: str = LARGE
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.join_size not in (LARGE, SMALL):
            raise ConfigError(f"join_size must be '{LARGE}' or '{SMALL}'")

    @property
    def domain(self) -> int:
        if self.join_size == LARGE:
            return math.ceil(2 * math.sqrt(self.n))
        return math.ceil(self.n / 10)


def bench_query() -> Query:
    return parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).")


def generate_instance(cfg: GenConfig) -> Instance:
    """Three n-row relations R(A,B), S(B,C), T(C,D); cells iid uniform on
    [1, domain]. The domain size controls the join result size."""
    rng = random.Random(cfg.seed)
    d = cfg.domain
    rel = {}
    for name, cols in (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))):
        rows = tuple((rng.randint(1, d), rng.randint(1, d)) for _ in range(cfg.n))
        rel[name] = Relation(name, cols, rows)
    return Instance(rel)


def write_instance_csvs(inst: Instance, out_dir) -> list[str]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rel in inst.relations.items():
        path = out_dir / f"{name}.csv"
        lines = [",".join(rel.columns)]
        lines.extend(",".join(str(v) for v in r) for r in rel.rows)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(str(path))
    return written


@dataclass
class BenchReport:
    rows: list[dict]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            w.writeheader()
            w.writerows(self.rows)  # a key a row lacks is written as ""

    def write_json(self, path):
        Path(path).write_text(json.dumps(self.rows, indent=2) + "\n", encoding="utf-8")


def _ms(t0: float, t1: float) -> float:
    return round((t1 - t0) * 1000.0, 3)


def _counted_access(r: _Runner, row: dict, k: int, order: OrderSpec) -> None:
    """``da``'s warm-up: the cell's index, built on its first ``da`` row (a
    ``NotRouted`` build is the row's error; the other methods still run), and
    an access that counts its probes, so the timed one counts none."""
    if r.index is None:
        t0 = time.perf_counter()
        r.index = build_index(r.q, r.db, order)
        r.preprocess_ms = _ms(t0, time.perf_counter())
        # counted in a build of its own, so the counting sort key stays out of preprocess_ms
        counted = build_index(r.q, r.db, order, report=r.report, count_comparisons=True)
        r.comparisons = counted.build_stats.comparisons
    stats = Stats()
    r.index.access(k, stats)
    row.update(preprocess_ms=r.preprocess_ms, probes=stats.probes, comparisons=r.comparisons)


def _select(r: _Runner, k: int, order: OrderSpec):
    return select(r.q, r.db, order, k, seed=0, report=r.report)


# each method's untimed warm-up (it may add untimed fields to the row), its
# timed call, and the order it ranks under when that is not the config's. A
# timed call returns the answer at k; full-sort's returns every answer, in order.
_METHODS = {
    "da": (_counted_access, lambda r, k, o: r.index.access(k), None),
    "sa": (lambda r, row, k, o: _select(r, k, o), _select, None),
    "full-sort": (None, lambda r, k, o: materialize_and_sort(r.q, r.db, o, cap=r.result_cap), None),
    "topk-heap": (None, lambda r, k, o: topk_heap_access(r.q, r.db, o, k, cap=r.result_cap)[0], None),
    "sort-before-join": (None, lambda r, k, o: sort_before_join_access(r.q, r.db, o, k)[0],
                         OrderSpec("lex", ("B",))),  # the single-attribute order it requires
}


class _Runner:
    def __init__(self, q: Query, db: Instance, order: OrderSpec, verify_cap: int, result_cap: int):
        self.q, self.db, self.order = q, db, order
        self.report = analyze(q, order)
        self.verify_cap, self.result_cap = verify_cap, result_cap
        self.count, self.index = count_answers(q, db), None
        self._oracles: dict[OrderSpec, list] = {}  # one per order a method ranks under

    def verify(self, k, answer, order: OrderSpec | None = None) -> bool | None:
        if self.count > min(self.verify_cap, self.result_cap):
            return None
        order = order or self.order
        if order not in self._oracles:
            self._oracles[order] = materialize_and_sort(self.q, self.db, order, cap=self.result_cap)
        oracle = self._oracles[order]
        # a mismatch is a correctness bug, not a per-row engine error: abort the run
        if oracle[k] != answer:
            raise AssertionError(f"verification failed at k={k}: {answer} != {oracle[k]}")
        return True

    def run(self, method: str, k: int) -> dict:
        warm, timed, order = _METHODS[method]
        order = order or self.order
        row: dict = {"method": method, "k": k, "answers": self.count,
                     "order": f"{order.kind}:{','.join(order.vars)}"}
        try:
            if warm:
                warm(self, row, k, order)
            t0 = time.perf_counter()
            ans = timed(self, k, order)
            row["access_ms"] = _ms(t0, time.perf_counter())
            row["wall_ms"] = round(row.get("preprocess_ms", 0) + row["access_ms"], 3)
            if isinstance(ans, list):  # full-sort: its k is checked once the clock has stopped
                if not 0 <= k < len(ans):
                    raise OutOfRange(k, len(ans))
                ans = ans[k]
            row["verified"] = self.verify(k, ans, order)
        except CqError as exc:
            row["error"] = type(exc).__name__
        return row


def _grid(seeds: list[int]) -> Callable:
    """The cells of A and C: each (n, join size, seed) of the config's lists."""
    return lambda exp: product(exp.get("ns", [1000, 10000]), exp.get("join_sizes", [LARGE, SMALL]),
                               exp.get("seeds", seeds))


def _one_cell(exp: dict) -> list[tuple]:
    return [(exp.get("n", 10000), exp.get("join_size", LARGE), exp.get("seed", 1))]


def _median(exp: dict, count: int) -> list[int]:
    return [(count - 1) // 2 if count else 0]


def _sweep(exp: dict, count: int) -> list[int]:
    """The config's ``ks``, or else 1, 10, 100, ... below the last rank, then the last rank."""
    return exp.get("ks", [10**i for i in range(len(str(count))) if 10**i < count - 1]
                   + ([count - 1] if count else []))


def _each(methods: list[str]) -> Callable:
    return lambda exp, runner, k, cell: [{**runner.run(m, k), **cell}
                                         for m in exp.get("methods", methods)]


def _da_over_sa(exp: dict, runner: _Runner, k: int, cell: dict) -> list[dict]:
    """One row of (direct-access preprocessing + one access) / (one single access)."""
    da, sa = runner.run("da", k), runner.run("sa", k)
    ok = "error" not in da and "error" not in sa and sa["wall_ms"]
    ratio = round(da["wall_ms"] / sa["wall_ms"], 4) if ok else None
    return [{"experiment": cell["experiment"], "method": "da_over_sa", "n": cell["n"], "k": k,
             "join_size": cell["join_size"], "seed": cell["seed"], "order": da["order"],
             "answers": runner.count, "preprocess_ms": da.get("preprocess_ms"),
             "access_ms": da.get("access_ms"), "wall_ms": sa.get("wall_ms"), "ratio": ratio,
             "verified": da.get("verified"), "error": da.get("error") or sa.get("error")}]


# each experiment's cells, the ranks it runs in a cell, and the rows it makes at a rank
_EXPERIMENTS = {
    "A": (_grid([1]), _median, _each(["da", "sa", "full-sort"])),
    "B": (_one_cell, _sweep, _each(["da", "sa", "topk-heap", "sort-before-join", "full-sort"])),
    "C": (_grid([1, 2, 3, 4, 5, 6]), _median, _da_over_sa),
}

# the type of each config key run_benchmark reads, at the top level or in an
# experiment: a scalar, or a list of items of the type
_SCALARS = {"verify_cap": int, "result_cap": int, "n": int, "seed": int,
            "order": str, "join_size": str}
_LISTS = {"ns": int, "seeds": int, "ks": int, "join_sizes": str, "methods": str}


def _is(x, kind) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)  # JSON true is no count


def _check_config(config) -> None:
    """Raise ``ConfigError`` unless ``config`` has the shape run_benchmark
    reads, names only known experiments and methods, and gives only sizes
    ``GenConfig`` accepts; nothing runs before."""
    if not isinstance(config, dict) or not isinstance(config.get("experiments"), list):
        raise ConfigError("config must be an object with an 'experiments' list")
    for obj in [config, *config["experiments"]]:
        if not isinstance(obj, dict):
            raise ConfigError(f"each experiment must be an object, not {obj!r}")
        for key, kind in _SCALARS.items():
            if key in obj and not _is(obj[key], kind):
                raise ConfigError(f"{key!r} must be {kind.__name__}, not {obj[key]!r}")
        for key, kind in _LISTS.items():
            if key in obj and not (isinstance(obj[key], list)
                                   and all(_is(x, kind) for x in obj[key])):
                raise ConfigError(f"{key!r} must be a list of {kind.__name__}, not {obj[key]!r}")
    for exp in config["experiments"]:
        if exp.get("id") not in tuple(_EXPERIMENTS):  # a tuple, for an id that cannot be hashed
            raise ConfigError(f"unknown experiment id {exp.get('id')!r}")
        for m in exp.get("methods", []):
            if m not in _METHODS:
                raise ConfigError(f"unknown method {m!r}; known: {tuple(_METHODS)}")
        for n, js in product(exp.get("ns", []) + [exp.get("n", 1)],
                             exp.get("join_sizes", []) + [exp.get("join_size", LARGE)]):
            GenConfig(n, js)


def run_benchmark(config) -> BenchReport:
    """Run the experiments in a config dict (or JSON file path)."""
    if isinstance(config, (str, Path)):
        text = read_utf8(config)  # outside the try: a UnicodeDecodeError is a ValueError too
        try:
            config = json.loads(text)
        except ValueError as exc:  # not JSON, or an integer longer than int() converts
            raise ConfigError(f"{config} is not JSON: {exc}") from None
    _check_config(config)
    verify_cap = config.get("verify_cap", 200_000)
    result_cap = config.get("result_cap", 5_000_000)
    q = bench_query()
    order = parse_order(config.get("order", "lex: A,B,C,D"), q)

    # interpreter warm-up; timings below discard this work entirely
    warm = _Runner(q, generate_instance(GenConfig(200, LARGE, 0)), order, 0, result_cap)
    warm.run("da", warm.count // 2)

    rows: list[dict] = []
    for exp in config["experiments"]:
        cells, ranks, rows_at = _EXPERIMENTS[exp["id"]]
        for n, js, seed in cells(exp):
            runner = _Runner(q, generate_instance(GenConfig(n, js, seed)), order, verify_cap, result_cap)
            cell = {"experiment": exp["id"], "n": n, "join_size": js, "seed": seed}
            for k in ranks(exp, runner.count):
                rows += rows_at(exp, runner, k, cell)
    return BenchReport(rows)
