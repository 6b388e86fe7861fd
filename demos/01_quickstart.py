# Quickstart: load a query and its data, build the ranked-access index,
# and read answers off the simulated sorted array.

from pathlib import Path

import cqrank as cq

here = Path(__file__).parent

q = cq.parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
db = cq.load_instance(here / "data", q)
order = cq.parse_order("lex: A,B,C", q)
cq.validate_instance(q, db, order)

report = cq.analyze(q, order)
print("routing:", {m: v.ok for m, v in report.routing.items()})

index = cq.build_index(q, db, order, report=report)  # reuses the analysis
print("answers:", index.count)

for k in range(index.count):
    print(k, index.access(k).as_dict())

# the index simulates exactly the sorted answer array:
oracle = cq.materialize_and_sort(q, db, order)
assert [index.access(k) for k in range(index.count)] == oracle
print("matches the materialize-and-sort oracle at every position")

# counting is O(1) off the index, no enumeration involved
print("answer count:", index.count)
