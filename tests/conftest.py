import importlib.util
import math
import random
from pathlib import Path

import pytest
from hypothesis import settings

from cqrank.model import Instance, Query, Relation, parse_order, parse_query

ROOT = Path(__file__).resolve().parents[1]

# every property test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def q2path() -> Query:
    return parse_query("Q(A,B,C) :- R(A,B), S(B,C).")


@pytest.fixture
def q3path() -> Query:
    return parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).")


@pytest.fixture
def qstar() -> Query:
    return parse_query("Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D).")


@pytest.fixture
def qproj() -> Query:
    # acyclic but not free-connex: head edge {A,C} closes a triangle
    return parse_query("Qp(A,C) :- R(A,B), S(B,C).")


@pytest.fixture
def qtriangle() -> Query:
    return parse_query("Q(A,B,C) :- R(A,B), S(B,C), T(A,C).")


@pytest.fixture
def db1(q2path) -> Instance:
    return Instance({
        "R": Relation("R", ("A", "B"), ((1, 1), (1, 2), (2, 1))),
        "S": Relation("S", ("B", "C"), ((1, 10), (2, 20), (2, 30))),
    })


def order(text, q):
    return parse_order(text, q)


def perfbench_spec():
    """``perfbench/spec.py``, loaded by path: the benchmark's workloads,
    among them the analyze-wide batch of (label, query text, order text)."""
    found = importlib.util.spec_from_file_location("perfbench_spec", ROOT / "perfbench" / "spec.py")
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module


def head_adjacency(q: Query) -> dict[str, set[str]]:
    """Primal-graph adjacency restricted to head variables (share an atom),
    built from variable names: the brute-force references' own head graph,
    independent of ``analysis.head_masks``."""
    adj: dict[str, set[str]] = {v: set() for v in q.head}
    for a in q.atoms:
        hv = [v for v in dict.fromkeys(a.vars) if v in q.head_set]
        for i, x in enumerate(hv):
            for y in hv[i + 1:]:
                adj[x].add(y)
                adj[y].add(x)
    return adj


def random_instance(q: Query, rng: random.Random, n: int, domain: int) -> Instance:
    """One n-row relation per atom name, cells iid uniform on [1, domain]."""
    rels = {}
    for a in q.atoms:
        if a.relation not in rels:
            rels[a.relation] = Relation(
                a.relation,
                tuple(f"c{i}" for i in range(len(a.vars))),
                tuple(tuple(rng.randint(1, domain) for _ in a.vars) for _ in range(n)),
            )
    return Instance(rels)


def domain_for(n: int, join_size: str) -> int:
    return math.ceil(2 * math.sqrt(n)) if join_size == "large" else max(1, math.ceil(n / 10))


def random_acyclic_case(rng: random.Random):
    """A random acyclic query, a lex and a sum order, and a small instance
    whose sum-weight columns hold ints and every other cell an int or a str.

    Each atom shares a random subset of an earlier atom's variables and adds
    fresh ones (a join forest); a relation name may come back at the same
    arity, and a variable may repeat inside an atom. Domains are small and
    relations hold 0-6 rows, so many rows dangle.
    """
    fresh = (f"V{i}" for i in range(100))
    atoms, names = [], []
    for _ in range(rng.randint(1, 4)):
        arity = rng.randint(1, 3)
        shared = []
        if atoms:
            pvars = sorted(set(rng.choice(atoms)))
            shared = rng.sample(pvars, rng.randint(0, min(arity, len(pvars))))
        vars_ = shared + [next(fresh) for _ in range(arity - len(shared))]
        rng.shuffle(vars_)
        if arity > 1 and rng.random() < 0.2:
            vars_[rng.randrange(arity)] = rng.choice(vars_)
        same = [n for n, a in zip(names, atoms) if len(a) == arity]
        names.append(rng.choice(same) if same and rng.random() < 0.3 else f"R{len(atoms)}")
        atoms.append(vars_)
    all_vars = list(dict.fromkeys(v for a in atoms for v in a))
    head = rng.sample(all_vars, rng.randint(1, len(all_vars)))
    q = parse_query(f"Q({','.join(head)}) :- "
                    + ", ".join(f"{n}({','.join(a)})" for n, a in zip(names, atoms)) + ".")

    lex = rng.sample(head, rng.randint(1, len(head)))
    anchor = [v for v in dict.fromkeys(rng.choice(atoms)) if v in head]
    weights = rng.sample(anchor, rng.randint(1, len(anchor))) if anchor else []
    orders = [parse_order("lex: " + ",".join(lex), q)]
    if weights:
        orders.append(parse_order("sum: " + ",".join(weights), q))

    ints = {(n, i) for n, a in zip(names, atoms) for i, v in enumerate(a) if v in weights}
    rels = {}
    for n, a in zip(names, atoms):
        if n not in rels:
            rows = tuple(
                tuple(rng.randint(0, 2) if (n, i) in ints else rng.choice((0, 1, 2, "a", "b"))
                      for i in range(len(a)))
                for _ in range(rng.randint(0, 6))
            )
            rels[n] = Relation(n, tuple(f"c{i}" for i in range(len(a))), rows)
    return q, orders, Instance(rels)
