"""Synthetic three-way-join workload and the experiment driver.

Experiments (desk scale, machine-readable reports):

* ``A`` — median access time vs. relation size for direct access, single
  access, and full sort, under the config's lex or sum order.
* ``B`` — access time vs. position k at a fixed size, adding the bounded-heap
  and sort-before-join baselines (the latter under the single-attribute
  order it requires).
* ``C`` — (direct-access preprocessing + one access) / (one single access)
  ratio across seeds: the break-even number of accesses.

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

from .analysis import analyze
from .baseline import (
    materialize_and_sort,
    sort_before_join_access,
    topk_heap_access,
)
from .engine import build_index, count_answers
from .errors import CqError, ConfigError, NotRouted, OutOfRange
from .instrument import Stats
from .model import Instance, OrderSpec, Query, Relation, parse_order, parse_query, read_utf8
from .selection import select

LARGE = "large"
SMALL = "small"

KNOWN_METHODS = ("da", "sa", "full-sort", "topk-heap", "sort-before-join")

REPORT_COLUMNS = [
    "experiment",
    "method",
    "n",
    "k",
    "join_size",
    "seed",
    "order",
    "answers",
    "wall_ms",
    "preprocess_ms",
    "access_ms",
    "probes",
    "comparisons",
    "ratio",
    "verified",
    "error",
]


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
            for row in self.rows:
                w.writerow({c: row.get(c, "") for c in REPORT_COLUMNS})

    def write_json(self, path):
        Path(path).write_text(json.dumps(self.rows, indent=2) + "\n", encoding="utf-8")


def _ms(t0: float, t1: float) -> float:
    return round((t1 - t0) * 1000.0, 3)


class _Runner:
    def __init__(self, q: Query, db: Instance, order: OrderSpec, verify_cap: int, result_cap: int):
        self.q = q
        self.db = db
        self.order = order
        self.report = analyze(q, order)
        self.verify_cap = verify_cap
        self.result_cap = result_cap
        try:
            t0 = time.perf_counter()
            self.index = build_index(q, db, order)
            self.preprocess_ms = _ms(t0, time.perf_counter())
            # counted in a build of its own, so the counting sort key stays out of preprocess_ms
            counted = build_index(q, db, order, report=self.report, count_comparisons=True)
            self.comparisons, self.count = counted.build_stats.comparisons, self.index.count
        except NotRouted as exc:  # each `da` row records it; the other methods still run
            self.index, self.not_routed = None, exc
            self.count = count_answers(q, db)
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
        # sort-before-join ranks under the single-attribute order it requires
        order = OrderSpec("lex", ("B",)) if method == "sort-before-join" else self.order
        row: dict = {"method": method, "k": k, "answers": self.count,
                     "order": f"{order.kind}:{','.join(order.vars)}"}
        try:
            if method == "da":
                if self.index is None:
                    raise self.not_routed
                self.index.access(k)  # warm-up, uncounted
                stats = Stats()
                t0 = time.perf_counter()
                ans = self.index.access(k, stats)
                row["access_ms"] = _ms(t0, time.perf_counter())
                row["preprocess_ms"] = self.preprocess_ms
                row["wall_ms"] = round(self.preprocess_ms + row["access_ms"], 3)
                row["probes"] = stats.probes
                row["comparisons"] = self.comparisons
            elif method == "sa":
                select(self.q, self.db, self.order, k, seed=0, report=self.report)
                t0 = time.perf_counter()
                ans = select(self.q, self.db, self.order, k, seed=0, report=self.report)
                row["access_ms"] = row["wall_ms"] = _ms(t0, time.perf_counter())
            elif method == "full-sort":
                t0 = time.perf_counter()
                ordered = materialize_and_sort(self.q, self.db, self.order, cap=self.result_cap)
                row["access_ms"] = row["wall_ms"] = _ms(t0, time.perf_counter())
                if not 0 <= k < len(ordered):
                    raise OutOfRange(k, len(ordered))
                ans = ordered[k]
            elif method == "topk-heap":
                t0 = time.perf_counter()
                ans, _log = topk_heap_access(self.q, self.db, self.order, k, cap=self.result_cap)
                row["access_ms"] = row["wall_ms"] = _ms(t0, time.perf_counter())
            else:  # sort-before-join
                t0 = time.perf_counter()
                ans, _log = sort_before_join_access(self.q, self.db, order, k)
                row["access_ms"] = row["wall_ms"] = _ms(t0, time.perf_counter())
            row["verified"] = self.verify(k, ans, order)
        except CqError as exc:
            row["error"] = type(exc).__name__
        return row


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
        if exp.get("id") not in ("A", "B", "C"):
            raise ConfigError(f"unknown experiment id {exp.get('id')!r}")
        for m in exp.get("methods", []):
            if m not in KNOWN_METHODS:
                raise ConfigError(f"unknown method {m!r}; known: {KNOWN_METHODS}")
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

    def cells(exp, seeds):
        """Each (n, join size, seed) of an A or C experiment, its runner and median k."""
        for n, js, seed in product(exp.get("ns", [1000, 10000]),
                                   exp.get("join_sizes", [LARGE, SMALL]), exp.get("seeds", seeds)):
            runner = _Runner(q, generate_instance(GenConfig(n, js, seed)), order, verify_cap, result_cap)
            yield n, js, seed, runner, (runner.count - 1) // 2 if runner.count else 0

    rows: list[dict] = []
    for exp in config["experiments"]:
        eid = exp.get("id")
        if eid == "A":
            methods = exp.get("methods", ["da", "sa", "full-sort"])
            for n, js, seed, runner, k in cells(exp, [1]):
                for m in methods:
                    row = runner.run(m, k)
                    row.update(experiment="A", n=n, join_size=js, seed=seed)
                    rows.append(row)
        elif eid == "B":
            n = exp.get("n", 10000)
            js = exp.get("join_size", LARGE)
            seed = exp.get("seed", 1)
            methods = exp.get("methods", ["da", "sa", "topk-heap", "sort-before-join", "full-sort"])
            runner = _Runner(q, generate_instance(GenConfig(n, js, seed)),
                             order, verify_cap, result_cap)
            ks = exp.get("ks")
            if ks is None:
                ks, k = [], 1
                while k < runner.count:
                    ks.append(k)
                    k *= 10
                if runner.count and runner.count - 1 not in ks:
                    ks.append(runner.count - 1)
            for k in ks:
                for m in methods:
                    row = runner.run(m, k)
                    row.update(experiment="B", n=n, join_size=js, seed=seed)
                    rows.append(row)
        else:  # "C"
            for n, js, seed, runner, k in cells(exp, [1, 2, 3, 4, 5, 6]):
                da = runner.run("da", k)
                sa = runner.run("sa", k)
                ratio = None
                if "error" not in da and "error" not in sa and sa["wall_ms"]:
                    ratio = round(da["wall_ms"] / sa["wall_ms"], 4)
                rows.append({
                    "experiment": "C", "method": "da_over_sa", "n": n, "k": k,
                    "join_size": js, "seed": seed, "order": da["order"],
                    "answers": runner.count, "preprocess_ms": da.get("preprocess_ms"),
                    "access_ms": da.get("access_ms"), "wall_ms": sa.get("wall_ms"),
                    "ratio": ratio, "verified": da.get("verified"),
                    "error": da.get("error") or sa.get("error"),
                })
    return BenchReport(rows)
