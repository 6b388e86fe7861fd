# Which orders admit fast direct access? The analyzer decides per
# (query, order) pair and the engines refuse anything not routed to them.

import json
from pathlib import Path

import cqrank as cq
from cqrank.errors import NotRouted

here = Path(__file__).parent
q = cq.parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
db = cq.load_instance(here / "data", q)

# A -> B -> C follows the join structure: direct access works.
good = cq.parse_order("lex: A,B,C", q)
print(json.dumps(cq.analyze(q, good).to_json_dict(), indent=2))

# A -> C -> B puts C (which only S knows) between the two relations:
# the disruptive trio (A, C, B) rules out logarithmic direct access.
bad = cq.parse_order("lex: A,C,B", q)
report = cq.analyze(q, bad)
print("trio witness:", report.trio)
try:
    cq.build_index(q, db, bad, report=report)
except NotRouted as e:
    print("direct access refused:", e)

# Single access has no such limitation: linear-time selection still works.
for k in range(4):
    print("select", k, cq.select(q, db, bad, k, seed=0, report=report).as_dict())

# Partial orders are completed deterministically when a trio-free
# completion exists; 'lex: A,C' has none, 'lex: B' does.
print("lex B completes to:", cq.analyze(q, cq.parse_order("lex: B", q)).completed_order)
print("lex A,C completes to:", cq.analyze(q, cq.parse_order("lex: A,C", q)).completed_order)

# Saying that none exists takes polynomial time. On a 40-variable path,
# whichever inner variable comes last closes a trio with its two neighbours,
# so 'lex: V0,V39' has no completion, and the analyzer says so at once
# instead of trying the extensions of the prefix one by one.
path = cq.parse_query("Q(" + ",".join(f"V{i}" for i in range(40)) + ") :- "
                      + ", ".join(f"E{i}(V{i},V{i + 1})" for i in range(39)) + ".")
ends = cq.analyze(path, cq.parse_order("lex: V0,V39", path))
print("lex V0,V39 on a 40-variable path:", ends.completed_order, ends.routing["DirectLex"].reasons)

# Sum orders are routed when all weight variables live in one atom.
print("sum B,C:", cq.analyze(q, cq.parse_order("sum: B,C", q)).routing["DirectSum"].ok)
print("sum A,C:", cq.analyze(q, cq.parse_order("sum: A,C", q)).routing["DirectSum"].ok)

sum_bc = cq.parse_order("sum: B,C", q)
ix = cq.build_index(q, db, sum_bc)  # either entry picks its engine by the order kind
print("answers by B+C:", [ix.access(k).as_dict() for k in range(ix.count)])
