# Direct access pays O(n log n) preprocessing once, then answers any
# position in O(log n); single access answers one position in O(n).
# How many accesses until the index pays off? Roughly the ratio below.

import time

import cqrank as cq
from cqrank.bench import GenConfig, bench_query, generate_instance

q = bench_query()  # R(A,B) |x| S(B,C) |x| T(C,D)
order = cq.parse_order("lex: A,B,C,D", q)
report = cq.analyze(q, order)

for n in (10_000, 50_000):
    for join_size in ("large", "small"):
        db = generate_instance(GenConfig(n, join_size, seed=1))

        t0 = time.perf_counter()
        index = cq.build_index(q, db, order, report=report)
        median = (index.count - 1) // 2
        index.access(median)
        da = time.perf_counter() - t0

        t0 = time.perf_counter()
        ans = cq.select(q, db, order, median, seed=0, report=report)
        sa = time.perf_counter() - t0

        assert ans == index.access(median)
        print(
            f"n={n:>6} {join_size:<5} |J|={index.count:>12} "
            f"DA(pre+1acc)={da:.3f}s SA(1acc)={sa:.3f}s ratio={da / sa:.2f}"
        )

# After the index exists, further accesses are nearly free:
db = generate_instance(GenConfig(50_000, "large", seed=1))
index = cq.build_index(q, db, order, report=report)
quartiles = [(index.count - 1) * p // 4 for p in (1, 2, 3)]
t0 = time.perf_counter()
answers = [index.access(k) for k in quartiles]
print(f"three quartiles off the index: {time.perf_counter() - t0:.6f}s")
for k, a in zip(quartiles, answers):
    print(" ", k, a.as_dict())
