# The baseline strategies a database system would use, and the two ways
# to phrase ranked access in SQL.

import cqrank as cq
from cqrank.bench import GenConfig, bench_query, generate_instance

q = bench_query()
db = generate_instance(GenConfig(500, "large", seed=4))
order = cq.parse_order("lex: A,B,C,D", q)

index = cq.build_index(q, db, order)
total = index.count
print("answers:", total)

# Top-N heapsort keeps only k+1 answers in a bounded heap, but switches
# to a full sort once k >= |J|/2 (larger heaps stop being worth it).
for k in (1, total // 4, total // 2, total - 1):
    ans, log = cq.topk_heap_access(q, db, order, k)
    assert ans == index.access(k)
    print(f"k={k:>6}: ran {log.ran:<8} ({log.reason})")

# Sort-before-join streams in order of one attribute and can stop early:
# position 0 only ever materializes the first attribute block.
order_b = cq.parse_order("lex: B", q)
ans, log = cq.sort_before_join_access(q, db, order_b, 0)
print(f"first answer by B: {ans.as_dict()}")
print(f"emitted {log.emitted} of {cq.build_index(q, db, order_b).count} answers before stopping")

# The same accesses in SQL, for systems that speak it.
q2 = cq.parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
o2 = cq.parse_order("lex: A,B,C", q2)
print("\n-- OFFSET/LIMIT, one position:")
print(cq.emit_sql(q2, o2, [2], "offset"))
print("-- ROW_NUMBER CTE, several positions at once:")
print(cq.emit_sql(q2, o2, [0, 1, 2], "cte"))
