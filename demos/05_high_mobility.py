"""High-mobility regime: closed-form placements and the Jensen-gap bound.

When neighbors leave quickly, the wireless budget (not cache depth) limits
what D2D can deliver, and the optimal placement becomes a threshold fill of
the most popular contents.  The quality of that approximation is certified
by a stay-time bound on the Jensen gap.
"""

from d2dcache import (
    NeighborCacheDistribution,
    Scheme,
    average_load_fast,
    default_config,
    expected_stay_time,
    gap_constant,
    greedy_placement,
    high_mobility_placement,
    jensen_gap_check,
    per_content_delivery,
)

dist = NeighborCacheDistribution.uniform(5, 5)

print("-- per-stay deliverable packets and gap constants (snr = 40 dB) --")
for mu in (1.0, 5.0, 20.0):
    cfg = default_config(mu=mu, snr=1e4)
    oma, noma = (per_content_delivery(dist, cfg.with_scheme(s))[0] for s in Scheme)
    c_oma, c_noma = (gap_constant(cfg.with_scheme(s)) for s in Scheme)
    print(f"mu={mu:4.1f}: deliverable oma={oma:.4f} "
          f"noma={noma:.4f}  stay={expected_stay_time(cfg):.3f}  "
          f"gap consts ({c_oma:.2f}, {c_noma:.2f})")

print("\n-- closed-form vs greedy placement as mobility grows (snr = 40 dB) --")
print("mu     scheme           closed-form       greedy            excess load")
for mu in (1.0, 2.0, 5.0, 10.0, 20.0):
    for scheme in Scheme:
        cfg = default_config(mu=mu, snr=1e4, scheme=scheme)
        hm = high_mobility_placement(dist, cfg)
        g, _ = greedy_placement(dist, cfg)
        excess = (average_load_fast(hm, dist, cfg).total
                  - average_load_fast(g, dist, cfg).total)
        print(f"{mu:4.1f}   {scheme.value:15s}  {str(hm.c.tolist()):15s}"
              f"   {str(g.c.tolist()):15s}   {excess:.5f}")
print("the closed form converges to the greedy choice as mu grows.")

print("\n-- Jensen gap against its stay-time bound (snr = 40 dB) --")
print("mu     scheme           gap          bound        ok")
for mu in (1.0, 2.0, 5.0, 10.0, 20.0):
    for scheme in Scheme:
        cfg = default_config(mu=mu, snr=1e4, scheme=scheme)
        placement = greedy_placement(dist, cfg)[0]
        rep = jensen_gap_check(placement, dist, cfg)
        print(f"{mu:4.1f}   {scheme.value:15s}  {rep.gap:.3e}    "
              f"{rep.bound:.3e}    {rep.ok}")
print("the bound scales with the stay time 1/mu, so the approximation")
print("tightens exactly where the closed form is meant to be used.")
