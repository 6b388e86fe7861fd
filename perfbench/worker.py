"""Run one workload in a fresh process and print its result as one JSON line.

run.py starts this script after it has written the workload's input files, so
this process does nothing but the workload and ``ru_maxrss`` is the
workload's own peak memory. cqrank is driven only through the functions it
exports.

* ``--trace 0`` times the served path with no instrumentation: rounds of
  set-up each followed by a share of a closed loop of one client calling the
  served operation, until ``--seconds`` have passed and at least ``MIN_OPS``
  operations ran.
* ``--trace 1`` records spans around each call into a layer, in the
  benchmark's own code, plus passes of their own for comparison counting,
  ``tracemalloc`` and the CLI, so none of them distorts a timing.

Both modes check every output they keep against an independent path of the
library; a wrong answer is a failed operation. No check uses ``assert``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path

import cqrank as cq
from cqrank.instrument import AccessStats, SelectStats
from cqrank.model import bound_atoms

import spec

# Rounds of set-up plus timed loop per untraced run. A cheap set-up gets many
# short rounds, so its samples spread over the whole run like the operations.
ROUNDS = {spec.ACCESS: 3, spec.SELECT: 12, spec.ANALYZE: 12}
SETUP_MIN_S = 3.0  # a cheap set-up repeats until the run's set-ups have taken this long
SETUP_MAX_REPS = 200  # per round
MIN_OPS = 100  # fewest timed operations, so a p90 has >= 10 samples beyond it
# Latency slots per workload kind, allocated up front so RSS does not track
# speed: ~1e6 accesses fit in a run, but only a few hundred selections or pairs.
SLOTS = {spec.ACCESS: 2_000_000, spec.SELECT: 20_000, spec.ANALYZE: 20_000}
KEEP = 2_000  # outputs kept from the timed loop for the correctness checks
TRACE_ACCESSES = 2_000  # fixed rank count in the traced run, so counters repeat
TRACE_SELECTS = 5
MB = 1024 * 1024


class Tally:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok


class Tracer:
    """Durations of the calls into each layer, by span name; the layer is the
    name's prefix before the first dot."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.durations.setdefault(name, []).append(time.perf_counter() - t0)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def mean(self, name: str) -> float:
        d = self.durations.get(name)
        return sum(d) / len(d) if d else 0.0


class _NoTrace:
    def span(self, name: str):
        return nullcontext()


NO_TRACE = _NoTrace()


def nearest_rank(sorted_vals, p: float):
    """Smallest sample with at least a share p of the samples at or below it."""
    return sorted_vals[max(0, math.ceil(p * len(sorted_vals)) - 1)]


def median(vals):
    return nearest_rank(sorted(vals), 0.5)


def p90(vals):
    return nearest_rank(sorted(vals), 0.90)


class Loop:
    """A closed loop of one client calling the served operation back to back.

    Latencies go to slots allocated up front, so peak RSS does not grow with
    speed. The first KEEP (input, output) pairs are kept for the checks; an
    operation that raises counts as failed.
    """

    def __init__(self, tally: Tally, slots: int):
        self.tally = tally
        self.lat = array("q", [0]) * slots
        self.n = 0
        self.wall = 0.0
        self.kept: list = []

    def run(self, op, next_input, seconds: float, min_ops: int, unit: int) -> None:
        """Stop at a multiple of ``unit`` operations, once ``seconds`` have
        passed and ``min_ops`` operations ran."""
        lat, done = self.lat, 0
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            x = next_input()
            t0 = time.perf_counter_ns()
            try:
                out = op(x)
            except Exception as exc:  # a raising operation is a failure, not the end of the run
                out = exc
            lat[self.n] = time.perf_counter_ns() - t0
            self.n += 1
            done += 1
            if isinstance(out, Exception):
                self.tally.check(False, f"operation on {x!r} raised {type(out).__name__}: {out}")
            elif len(self.kept) < KEEP:
                self.kept.append((x, out))
            if done % unit == 0 and (
                (done >= min_ops and time.perf_counter() >= deadline) or self.n + unit > len(lat)
            ):
                break
        self.wall += time.perf_counter() - start
        self.tally.attempted += done


def untraced(wl, seconds: float, kind: str) -> dict:
    """End-to-end metrics. ROUNDS[kind] rounds each set up from scratch and
    then run a share of the timed loop, so that set-up and operation samples
    both spread over the whole run rather than one stretch of it."""
    loop, rounds = Loop(wl.tally, SLOTS[kind]), ROUNDS[kind]
    times, state = [], None
    for _ in range(rounds):
        spent = 0.0
        for _ in range(SETUP_MAX_REPS):  # a cheap set-up repeats until it has taken a while
            state = None  # free the previous build first
            gc.collect()
            t0 = time.perf_counter()
            state = wl.setup(NO_TRACE)
            times.append(time.perf_counter() - t0)
            spent += times[-1]
            if spent >= SETUP_MIN_S / rounds:
                break
        op, next_input, unit = wl.serve(state)
        gc.collect()
        loop.run(op, next_input, seconds / rounds, math.ceil(MIN_OPS / rounds), unit)
        op = next_input = None  # they hold the state; the next round must not build beside it
    lat = sorted(loop.lat[:loop.n])
    # p90s, not medians: the median follows how much of the run the host
    # spent in its fast state, while the slow state occurs in nearly every
    # run (README.md, "Noise").
    metrics = {
        "setup_s": p90(times),
        "op_p90_us": wl.op_p90_us(loop.lat[:loop.n]),
        "peak_rss_mb": peak_rss_mb(),
    }
    wl.verify(state, loop.kept)
    # Printed, not bounded.
    extra = {
        "setup_min_s": min(times),
        "setup_p50_s": median(times),
        "op_p50_us": nearest_rank(lat, 0.50) / 1e3,
        "op_p99_us": nearest_rank(lat, 0.99) / 1e3 if loop.n >= 1000 else None,
        "ops_per_s": loop.n / loop.wall,
        "ops": loop.n,
        "setup_runs": len(times),
    }
    if unit > 1:  # whole passes over analyze-wide's batch
        extra["analyze_batch_s"] = unit * loop.wall / loop.n
    return {"metrics": metrics, "extra": extra}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def value_order_key(v):
    """The library-wide value order: every int before every str."""
    return (0, v) if isinstance(v, int) else (1, v)


def run_cli(args: list[str]) -> dict:
    """One ``cqrank`` subprocess; its last JSON line, or {} if it failed."""
    proc = subprocess.run(
        [sys.executable, "-m", "cqrank.cli", *args],
        capture_output=True, text=True, timeout=120, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else {}


# --- data workloads: da-large, da-small-str, select-trio -----------------------

class DataWorkload:
    """A workload over the generated CSV files in ``data``."""

    def __init__(self, w: dict, data: Path, seed: int, tally: Tally):
        self.data = data
        self.seed = seed
        self.rng = random.Random(seed)  # ranks for the timed loop
        self.tally = tally
        self.order_text = w["order"]
        self.q = cq.parse_query((data / "query.cq").read_text(encoding="utf-8"))
        self.o = cq.parse_order(self.order_text, self.q)

    def load(self, tr):
        """CSV load, validation and routing: the set-up every data workload shares."""
        with tr.span("model.load_instance"):
            db = cq.load_instance(self.data, self.q)
        cq.validate_instance(self.q, db, self.o)
        with tr.span("analysis.analyze"):
            report = cq.analyze(self.q, self.o)
        return db, report

    def op_p90_us(self, lat_ns) -> float:
        return p90(lat_ns) / 1e3


class AccessWorkload(DataWorkload):
    def setup(self, tr):
        db, report = self.load(tr)
        with tr.span("engine.preprocess_lex"):
            index = cq.preprocess_lex(self.q, db, report)
        return db, report, index

    def serve(self, state):
        index = state[2]
        return index.access, lambda: self.rng.randrange(index.count), 1

    def _served(self, tr, stats):
        """Set-up plus TRACE_ACCESSES seeded accesses; returns wall time and state."""
        rng = random.Random(self.seed)
        t0 = time.perf_counter()
        db, report, index = self.setup(tr)
        kept = []
        for _ in range(TRACE_ACCESSES):
            k = rng.randrange(index.count)
            kept.append((k, index.access(k, stats)))
        return time.perf_counter() - t0, (db, report, index, kept)

    def traced(self) -> dict:
        q, o, tally = self.q, self.o, self.tally
        plain = self._served(NO_TRACE, None)[0]
        gc.collect()
        tr = Tracer()
        stats = AccessStats()
        traced, (db, report, index, kept) = self._served(tr, stats)
        tally.attempted += 2 * TRACE_ACCESSES

        with tr.span("model.bound_atoms"):
            bound_atoms(q, db)
        with tr.span("analysis.complete_order"):
            cq.complete_order(q, o.vars)
        with tr.span("engine.build_reduced_db"):
            rdb = cq.build_reduced_db(q, db)
        reduced_rows = sum(len(a.rows) for a in rdb.atoms)
        del rdb

        counted = cq.preprocess_lex(q, db, report, count_comparisons=True)
        comparisons = counted.build_stats.comparisons
        tally.check(counted.count == index.count, "counting build disagrees on the answer count")
        del counted

        gc.collect()
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        measured = cq.preprocess_lex(q, db, report)
        current, peak = tracemalloc.get_traced_memory()  # read while the index is alive
        tracemalloc.stop()
        del measured

        with tr.span("cli.count"):
            out = run_cli(["count", "--query", str(self.data / "query.cq"),
                           "--data", str(self.data), "--order", self.order_text])
        tally.attempted += 1
        tally.check(out.get("count") == index.count, f"cqrank count printed {out}, want {index.count}")

        self.verify((db, report, index), kept)
        reduce_s = tr.total("engine.build_reduced_db")
        preprocess_s = tr.total("engine.preprocess_lex")
        metrics = {
            "model.load_s": tr.total("model.load_instance"),
            "model.bind_s": tr.mean("model.bound_atoms"),
            "analysis.analyze_ms": tr.mean("analysis.analyze") * 1e3,
            "analysis.complete_order_ms": tr.mean("analysis.complete_order") * 1e3,
            "engine.reduce_s": reduce_s,
            "engine.preprocess_s": preprocess_s,
            "engine.tables_s": preprocess_s - reduce_s,
            "engine.comparisons": comparisons,
            "engine.probes_per_access": stats.probes / TRACE_ACCESSES,
            "engine.reduced_rows": reduced_rows,
            "engine.groups": sum(len(gm) for gm in index.groups),
            "engine.max_group_size": index.max_group_size,
            "engine.answers": index.count,
            "engine.index_mb": (current - base) / MB,
            "engine.build_peak_mb": (peak - base) / MB,
            "cli.call_s": tr.total("cli.count"),
            "bench.trace_overhead_pct": (traced - plain) / plain * 100,
        }
        return {"metrics": metrics}

    def verify(self, state, kept):
        """Kept answers are real join results, in order by rank; three ranks
        match selection, and the answer count matches selection's counting."""
        db, report, index = state
        q, tally = self.q, self.tally
        rows = {a.relation: set(db.get(a.relation).rows) for a in q.atoms}
        for k, ans in kept:
            tally.check(
                all(tuple(ans[v] for v in a.vars) in rows[a.relation] for a in q.atoms),
                f"answer at k={k} is not a join result: {ans.as_dict()}",
            )
        order = report.completed_order
        prev = None
        for k, ans in sorted(kept, key=lambda p: p[0]):
            key = tuple(value_order_key(ans[v]) for v in order)
            tally.check(prev is None or prev[1] <= key, f"answers at k={prev and prev[0]} and k={k} are out of order")
            prev = (k, key)

        first = order[0]
        total = sum(w for _, w in cq.conditional_value_counts(q, db, {}, first))
        tally.attempted += 1
        tally.check(total == index.count, f"index counts {index.count} answers, selection counts {total}")

        rng = random.Random(self.seed)
        for k in (0, index.count - 1, rng.randrange(index.count)):
            tally.attempted += 1
            want = cq.select_lex(q, db, self.o, k, seed=k, report=report)
            got = index.access(k)
            tally.check(got == want, f"access({k}) = {got.as_dict()}, select_lex = {want.as_dict()}")


# --- selection: select-trio ---------------------------------------------------

class SelectWorkload(DataWorkload):
    setup = DataWorkload.load  # selection needs no index

    def answer_count(self, db) -> int:
        first = cq.effective_order(self.q, self.o)[0]
        return sum(w for _, w in cq.conditional_value_counts(self.q, db, {}, first))

    def serve(self, state):
        db, report = state
        count = self.answer_count(db)

        def select(k):
            return cq.select_lex(self.q, db, self.o, k, seed=k, report=report)

        return select, lambda: self.rng.randrange(count), 1

    def _served(self, tr, stats_list):
        rng = random.Random(self.seed)
        t0 = time.perf_counter()
        db, report = self.setup(tr)
        count = self.answer_count(db)
        kept = []
        for stats in stats_list:
            k = rng.randrange(count)
            kept.append((k, cq.select_lex(self.q, db, self.o, k, seed=k, stats=stats, report=report)))
        return time.perf_counter() - t0, (db, report, kept)

    def traced(self) -> dict:
        q, o, tally = self.q, self.o, self.tally
        plain = self._served(NO_TRACE, [None] * TRACE_SELECTS)[0]
        gc.collect()
        tr = Tracer()
        stats_list = [SelectStats() for _ in range(TRACE_SELECTS)]
        traced, (db, report, kept) = self._served(tr, stats_list)
        tally.attempted += 2 * TRACE_SELECTS

        with tr.span("analysis.complete_order"):
            cq.complete_order(q, o.vars)
        tie_break = cq.effective_order(q, o)
        for k, want in kept:
            # select_lex's steps, one public call each, with select_lex's pivot
            # seed and its one binding per call
            with tr.span("model.bound_atoms"):
                bound = bound_atoms(q, db)
            rng, fixed, kp = random.Random(k), {}, k
            for x in tie_break:
                with tr.span("selection.conditional_value_counts"):
                    items = cq.conditional_value_counts(q, db, fixed, x, _bound=bound)
                with tr.span("selection.weighted_select"):
                    fixed[x], kp = cq.weighted_select(items, kp, rng=rng)
            got = tuple(fixed[v] for v in q.head)
            tally.attempted += 1
            tally.check(got == want.values, f"replay of select_lex({k}) gave {got}, want {want.values}")

        k0, want0 = kept[0]
        with tr.span("cli.select"):
            out = run_cli(["select", "--query", str(self.data / "query.cq"), "--data", str(self.data),
                           "--order", self.order_text, "--k", str(k0), "--seed", str(k0)])
        tally.attempted += 1
        tally.check(out.get("answer") == want0.as_dict(), f"cqrank select printed {out}, want {want0.as_dict()}")

        self.verify((db, report), kept)
        metrics = {
            "model.load_s": tr.total("model.load_instance"),
            "model.bind_s": tr.mean("model.bound_atoms"),
            "analysis.analyze_ms": tr.mean("analysis.analyze") * 1e3,
            "analysis.complete_order_ms": tr.mean("analysis.complete_order") * 1e3,
            "selection.count_step_ms": tr.mean("selection.conditional_value_counts") * 1e3,
            "selection.quickselect_ms": tr.mean("selection.weighted_select") * 1e3,
            "selection.rows_touched_per_select": sum(s.rows_touched for s in stats_list) / TRACE_SELECTS,
            "cli.call_s": tr.total("cli.select"),
            "bench.trace_overhead_pct": (traced - plain) / plain * 100,
        }
        return {"metrics": metrics}

    def verify(self, state, kept):
        """Every kept selection equals the materialize-and-sort oracle."""
        db = state[0]
        count = self.answer_count(db)
        oracle = cq.materialize_and_sort(self.q, db, self.o)
        self.tally.attempted += 1
        if self.tally.check(len(oracle) == count, f"oracle has {len(oracle)} answers, selection counts {count}"):
            for k, ans in kept:
                self.tally.check(ans == oracle[k], f"select_lex({k}) = {ans.as_dict()}, oracle {oracle[k].as_dict()}")


# --- analyzer: analyze-wide ---------------------------------------------------

class AnalyzeWorkload:
    def __init__(self, w: dict, data: Path, seed: int, tally: Tally):
        self.data = data
        self.rng = random.Random(seed)
        self.tally = tally
        self.texts = spec.analyze_batch(w["max_path"], w["max_star"])
        self.cli_label = f"path{w['max_path']}-ends"
        self.pending: list = []
        self.served: list[str] = []  # label of each pair the loop served, in order
        expected = json.loads((Path(__file__).parent / "analyze_expected.json").read_text(encoding="utf-8"))
        self.expected = {label: expected[label] for label, _, _ in self.texts}

    def setup(self, tr):
        batch = []
        with tr.span("model.parse"):
            for label, qt, ot in self.texts:
                q = cq.parse_query(qt)
                batch.append((label, q, cq.parse_order(ot, q)))
        return batch

    def serve(self, batch):
        def next_pair():
            if not self.pending:  # a new pass over the whole batch, in seeded order
                self.pending.extend(batch)
                self.rng.shuffle(self.pending)
            pair = self.pending.pop()
            self.served.append(pair[0])
            return pair

        return lambda pair: cq.analyze(pair[1], pair[2]), next_pair, len(batch)

    def op_p90_us(self, lat_ns) -> float:
        """Each pair's p90 over the passes, averaged over the batch, so every
        pair counts in proportion to its cost."""
        by_label: dict[str, list[int]] = {}
        for label, ns in zip(self.served, lat_ns):
            by_label.setdefault(label, []).append(ns)
        return sum(p90(v) for v in by_label.values()) / len(by_label) / 1e3

    def _served(self, tr):
        t0 = time.perf_counter()
        kept = []
        for pair in self.setup(tr):
            with tr.span("analysis.analyze"):
                kept.append((pair, cq.analyze(pair[1], pair[2])))
        return time.perf_counter() - t0, kept

    def traced(self) -> dict:
        plain = self._served(NO_TRACE)[0]
        tr = Tracer()
        traced, kept = self._served(tr)
        self.tally.attempted += 2 * len(kept)
        for _, q, o in self.setup(NO_TRACE):
            with tr.span("analysis.complete_order"):
                cq.complete_order(q, o.vars)

        _, qt, ot = next(t for t in self.texts if t[0] == self.cli_label)
        qfile = self.data / "cli.cq"
        qfile.write_text(qt, encoding="utf-8")
        with tr.span("cli.analyze"):
            out = run_cli(["analyze", "--query", str(qfile), "--order", ot])
        self.tally.attempted += 1
        self.check_report(self.cli_label, out)
        self.verify(None, kept)
        metrics = {
            "model.load_s": tr.total("model.parse"),
            "analysis.analyze_ms": tr.mean("analysis.analyze") * 1e3,
            "analysis.complete_order_ms": tr.mean("analysis.complete_order") * 1e3,
            "cli.call_s": tr.total("cli.analyze"),
            "bench.trace_overhead_pct": (traced - plain) / plain * 100,
        }
        return {"metrics": metrics}

    def verify(self, state, kept):
        for (label, _, _), report in kept:
            self.check_report(label, report.to_json_dict())

    def check_report(self, label: str, got: dict) -> None:
        """The report must equal the one pinned in analyze_expected.json."""
        want = self.expected[label]
        self.tally.check(got == want, f"{label}: analyze gave {json.dumps(got)}, pinned {json.dumps(want)}")


KINDS = {spec.ACCESS: AccessWorkload, spec.SELECT: SelectWorkload, spec.ANALYZE: AnalyzeWorkload}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--data", required=True, type=Path, help="directory with query.cq and the CSVs")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    w = spec.workload(args.workload, args.smoke)
    tally = Tally()
    wl = KINDS[w["kind"]](w, args.data, args.seed, tally)
    res = wl.traced() if args.trace else untraced(wl, args.seconds, w["kind"])
    res.update(attempted=tally.attempted, failures=tally.failures)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
