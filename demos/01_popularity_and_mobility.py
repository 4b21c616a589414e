"""Traffic and mobility building blocks.

Walks through the three distributions everything else is built on: the Zipf
request popularity, the Poisson count of transmit-capable neighbors (arrivals
thinned by the energy-availability probability), and the expected stay time.
"""

import numpy as np

from d2dcache import (
    default_config,
    expected_stay_time,
    poisson_pmf,
    poisson_truncation,
    zipf_popularity,
)

cfg = default_config()
print("benchmark scenario:", cfg, sep="\n  ")

print("\n-- request popularity (Zipf) --")
for gamma in (0.0, 0.6, 1.2):
    probs = zipf_popularity(cfg.F, gamma)
    print(f"gamma={gamma:3.1f}:", np.array2string(probs, precision=4))
print("gamma=0 is uniform; larger gamma concentrates requests on rank 1.")

print("\n-- capable-neighbor count --")
mean = cfg.mean_capable
print(f"arrival rate {cfg.lam}, departure rate {cfg.mu}, energy prob {cfg.eta}"
      f" -> Poisson mean {mean}")
n_max = poisson_truncation(cfg)
pmf = poisson_pmf(np.arange(n_max + 1), mean)
for n, p in enumerate(pmf):
    bar = "#" * int(round(60 * p))
    print(f"  P[n={n:2d}] = {p:.3e} {bar}")
print(f"sums to {sum(pmf):.12f} up to the truncation point n={n_max}"
      f" (tail below {cfg.n_trunc_epsilon:g})")

print("\n-- expected stay time --")
for mu in (0.5, 1.0, 5.0, 20.0):
    print(f"  departure rate {mu:5.1f} -> mean stay {expected_stay_time(default_config(mu=mu)):.3f}")
print("faster departures shrink the window a neighbor has to deliver packets.")
