"""Average BS load: exact enumeration against the fast collapsed evaluator.

The enumeration oracle sums over every neighbor cache vector; the fast path
collapses the same expectation through Poisson thinning and capped
convolutions.  They must agree up to the reported truncation bounds.
"""

import numpy as np

from d2dcache import (
    NeighborCacheDistribution,
    Placement,
    average_load_enum,
    average_load_fast,
    build_link_budget,
    default_config,
    request_load,
)

cfg = default_config(n_trunc_epsilon=1e-4)   # truncation point 5: enum stays cheap
dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)

print("-- anatomy of one request --")
budget = build_link_budget(cfg, 4)
print(f"per-stay budgets: {budget[1:5].tolist()} for u=1..4 transmitters")
for c_i, d in [(0, [4]), (2, [4]), (0, [2, 3]), (0, [0, 0, 0]), (5, [5, 5])]:
    load = request_load(c_i, d, cfg, budget)
    print(f"  own cache {c_i}, neighbor packets {d} -> BS serves {load} packets")

print("\n-- exact enumeration vs fast evaluator --")
print("placement          enum          fast          |diff|       bound sum")
for counts in ([5, 0, 0, 0, 0], [2, 1, 1, 1, 0], [1, 1, 1, 1, 1], [0, 0, 0, 0, 0]):
    pl = Placement(counts, cfg)
    e = average_load_enum(pl, dist, cfg)
    f = average_load_fast(pl, dist, cfg)
    bounds = e.truncation_bound + f.truncation_bound
    print(f"{counts}    {e.total:.9f}   {f.total:.9f}   {abs(e.total-f.total):.2e}   {bounds:.2e}")

print("\n-- per-content breakdown of the fast evaluation --")
pl = Placement([5, 0, 0, 0, 0], cfg)
ev = average_load_fast(pl, dist, cfg)
print("content  cached  BS load share")
for i, (c_i, share) in enumerate(zip(pl.c, ev.per_content), start=1):
    print(f"  {i}        {c_i}      {share:.6f}")
print(f"total {ev.total:.6f} packets per request "
      f"({ev.total / cfg.L:.4f} of one content)")
print(np.isclose(ev.total, ev.per_content.sum()) and "breakdown sums to total")
