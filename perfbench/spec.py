"""Workload definitions shared by run.py and worker.py.

Every data workload is the synthetic join R(A,B) ⋈ S(B,C) ⋈ T(C,D) written by
``cqrank.bench.generate_instance`` with the run's seed. The sizes are chosen
so that each layer has one workload where it does most of the work and one
where it does almost nothing (see README.md for the reasons per workload).
"""

from __future__ import annotations

ACCESS = "access"
SELECT = "select"
ANALYZE = "analyze"

BENCH_QUERY = "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)."

WORKLOADS = {
    "da-large": dict(kind=ACCESS, n=100_000, join="large", cells="int", order="lex: A,B,C,D"),
    "da-small-str": dict(kind=ACCESS, n=100_000, join="small", cells="str", order="lex: A,B,C,D"),
    "select-trio": dict(kind=SELECT, n=10_000, join="small", cells="int", order="lex: A,C,B,D"),
    "analyze-wide": dict(kind=ANALYZE, max_path=11, max_star=9),
}

# Same code paths at a size that runs in a few seconds (the benchmark's own test).
SMOKE = {
    "da-large": dict(n=3_000),
    "da-small-str": dict(n=3_000),
    "select-trio": dict(n=600),
    "analyze-wide": dict(max_path=8, max_star=6),
}


def workload(name: str, smoke: bool) -> dict:
    w = dict(WORKLOADS[name])
    if smoke:
        w.update(SMOKE[name])
    return w


def path_query(m: int) -> str:
    vs = [f"V{i}" for i in range(m)]
    atoms = ", ".join(f"E{i}({vs[i]},{vs[i + 1]})" for i in range(m - 1))
    return f"Q({','.join(vs)}) :- {atoms}."


def star_query(leaves: int) -> str:
    vs = ["X"] + [f"L{i}" for i in range(leaves)]
    atoms = ", ".join(f"E{i}(X,L{i})" for i in range(leaves))
    return f"Q({','.join(vs)}) :- {atoms}."


def analyze_batch(max_path: int, max_star: int) -> list[tuple[str, str, str]]:
    """(label, query text, order text) pairs of the analyze-wide workload.

    ``lex: V0,V(m-1)`` on a path has no trio-free completion, so the
    backtracking search exhausts every extension; ``lex: V(m-1)`` has one but
    the search wanders before finding it. Both grow about x4-x7 per added
    variable, which is why the batch stops at 11 and 10 variables (README.md).
    ``lex: V(m//2)`` has many completions, so its pinned result checks that
    the first one in head order is still the one chosen.
    """
    pairs = []
    for m in range(4, max_path + 1):
        q = path_query(m)
        pairs.append((f"path{m}-ends", q, f"lex: V0,V{m - 1}"))
        if m < max_path:
            pairs.append((f"path{m}-last", q, f"lex: V{m - 1}"))
        if m < max_path - 1:
            pairs.append((f"path{m}-mid", q, f"lex: V{m // 2}"))
    for leaves in range(3, max_star + 1):
        pairs.append((f"star{leaves}-two-leaves", star_query(leaves), "lex: L0,L1"))
    pairs += [
        ("triangle", "Q(A,B,C) :- R(A,B), S(B,C), T(C,A).", "lex: A,B,C"),
        ("projection", "Q(A,C) :- R(A,B), S(B,C).", "lex: A,C"),
        ("sum-anchor", BENCH_QUERY, "sum: A,B"),
        ("bench-lex", BENCH_QUERY, "lex: A,B,C,D"),
        ("bench-trio", BENCH_QUERY, "lex: A,C,B,D"),
        ("bench-partial", BENCH_QUERY, "lex: B"),
    ]
    return pairs
