"""Run one cqrank benchmark workload and print its metrics.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload da-large --seed 1 --seconds 10 --trace 0

The seed fixes the generated inputs. They are written under
``.perfbench_work/`` in the checkout before anything is timed, and the
workload then runs in a fresh process (``perfbench/worker.py``) that reads
only those files. ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json, ``--trace 1`` the per-layer ones; a layer the workload never
calls reports 0. Every metric is printed by name with its unit, then the
correctness verdict, and as the last line one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every checked output was right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER_TIMEOUT_S = 170


def write_inputs(w: dict, seed: int, out: Path) -> None:
    """The workload's query file and R/S/T CSVs, deterministic in the seed."""
    from cqrank import GenConfig, Instance, Relation, generate_instance
    from cqrank.bench import write_instance_csvs

    inst = generate_instance(GenConfig(w["n"], w["join"], seed))
    if w["cells"] == "str":
        inst = Instance({
            name: Relation(name, r.columns, tuple(tuple(f"v{x:06d}" for x in row) for row in r.rows))
            for name, r in inst.relations.items()
        })
    write_instance_csvs(inst, out)
    (out / "query.cq").write_text(spec.BENCH_QUERY + "\n", encoding="utf-8")


def run_worker(args, work: Path) -> dict | None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # Fixed string hashing: set and dict order feed the sorts, so with str cells
    # engine.comparisons would otherwise change from process to process.
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, *(["-O"] if sys.flags.optimize else []), str(HERE / "worker.py"),
        "--workload", args.workload, "--data", str(work), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *(["--smoke"] if args.smoke else []),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run instead of end-to-end ones")
    p.add_argument("--smoke", action="store_true", help="same code paths on inputs small enough for a test")
    args = p.parse_args(argv)

    if not (SRC / "cqrank" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no cqrank sources; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    defs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defs = defs["per_layer" if args.trace else "end_to_end"]
    w = spec.workload(args.workload, args.smoke)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if w["kind"] != spec.ANALYZE:
            write_inputs(w, args.seed, work)
        res = run_worker(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its inputs there
    if res is None:
        return 1

    names = [d["name"] for d in defs]
    unknown = set(res["metrics"]) - set(names)
    missing = set(names) - set(res["metrics"])
    if unknown or (missing and not args.trace):
        print(f"perfbench: metrics not in BENCHMARK.json {sorted(unknown)}, "
              f"end-to-end metrics not measured {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {d["name"]: {"value": res["metrics"].get(d["name"], 0), "unit": d["unit"]} for d in defs}

    failed = len(res["failures"])
    attempted = max(res["attempted"], failed, 1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>18.6f} {m['unit']}")
    for name, value in res.get("extra", {}).items():
        print(f"  {name:<36} {value}")
    print(f"  {'error_rate':<36} {failed / attempted:>18.6f} ratio ({failed} of {attempted} operations)")
    for what in res["failures"][:10]:
        print(f"  FAILED: {what}")
    print("  correct" if not failed else "  INCORRECT")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
