"""Wireless layer: success probabilities, rates, and per-stay packet budgets.

Shows the nested-quadrature success probability against a direct Monte Carlo
SINR simulation, then how the two multiple-access schemes turn it into rates
and integer packet budgets.
"""

import numpy as np

from d2dcache import (
    Scheme,
    build_link_budget,
    default_config,
    rate,
    success_probability,
    success_probability_mc,
)


def main():
    cfg = default_config()

    print("-- quadrature vs Monte Carlo (SINR sampling, 200k trials) --")
    print(" u   quadrature      monte carlo     |diff|/stderr")
    for u in (1, 2, 3, 5):
        exact = success_probability(u, cfg)
        est, se = success_probability_mc(u, cfg, trials=200_000, seed=u)
        print(f"{u:2d}   {exact:.6f}     {est:.6f}+-{se:.6f}   {abs(exact-est)/se:5.2f}")

    print("\n-- link budgets by scheme (u = simultaneous transmitters) --")
    for snr_db in (20, 40):
        for scheme in Scheme:
            c = default_config(snr=10.0 ** (snr_db / 10), scheme=scheme)
            print(f"snr={snr_db}dB {scheme.value:15s} "
                  f"rate(u)={[f'{r:.3f}' for r in rate(np.arange(1, 7), c)]} "
                  f"budget(u)={build_link_budget(c, 6)[1:].tolist()}")
    print("orthogonal access splits the resource 1/u; non-orthogonal keeps it")
    print("all but pays interference through the success probability.")


if __name__ == "__main__":
    main()
