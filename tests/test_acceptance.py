"""Acceptance suite: every release criterion, one pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
the observed margins.  Criteria are property-based (oracle agreement,
guarantees, trend directions); tolerances are pinned here, not tuned.
"""

import itertools
import math

import numpy as np
import pytest

from d2dcache import (
    NeighborCacheDistribution,
    Placement,
    Scheme,
    average_load_enum,
    average_load_fast,
    check_matroid_axioms,
    check_submodularity,
    default_config,
    estimate_average_load,
    exhaustive_placement,
    greedy_placement,
    high_mobility_continuous,
    high_mobility_placement,
    jensen_gap_check,
    per_content_delivery,
    poisson_truncation,
    relaxed_objective,
    success_probability,
    success_probability_mc,
)
from d2dcache.cli import main

UNIFORM5 = NeighborCacheDistribution.uniform(5, 5)


def _random_instance(rng, sharp):
    while True:
        F, L = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if sharp:
            lam, eps = float(rng.uniform(0.0, 0.04)), 1e-10
        else:
            lam, eps = float(rng.uniform(0.0, 1.2)), 10.0 ** -rng.integers(3, 5)
        cfg = default_config(
            F=F, L=L, M=int(rng.integers(0, F * L + 1)),
            gamma=float(rng.uniform(0.0, 2.0)), eta=float(rng.uniform(0.1, 1.0)),
            lam=lam, mu=float(rng.uniform(0.5, 2.0)), n_trunc_epsilon=float(eps),
            snr=float(10 ** rng.uniform(0, 4)), tau=float(10 ** rng.uniform(-0.5, 1.0)),
        )
        if poisson_truncation(cfg) <= 4:
            break
    q = rng.random((F, L + 1))
    q /= q.sum(axis=1, keepdims=True)
    c = rng.integers(0, L + 1, F)
    while c.sum() > cfg.M:
        c[np.argmax(c)] -= 1
    return cfg, NeighborCacheDistribution(q), Placement(c, cfg)


def test_criterion_1_oracle_equivalence():
    """Enumeration and convolution evaluators agree within 1e-9 + bounds."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for k in range(100):
        cfg, dist, pl = _random_instance(rng, sharp=(k % 2 == 0))
        e = average_load_enum(pl, dist, cfg)
        f = average_load_fast(pl, dist, cfg)
        tol = 1e-9 + e.truncation_bound + f.truncation_bound
        diff = abs(e.total - f.total)
        assert diff <= tol, f"instance {k}: diff {diff:.3g} > tol {tol:.3g}"
        worst = max(worst, diff / tol)

    cfg = default_config(n_trunc_epsilon=1e-4)
    assert poisson_truncation(cfg) <= 5
    pl = Placement([5, 0, 0, 0, 0], cfg)
    e = average_load_enum(pl, UNIFORM5, cfg)
    f = average_load_fast(pl, UNIFORM5, cfg)
    assert abs(e.total - f.total) <= 1e-9 + e.truncation_bound + f.truncation_bound
    print(f"\nPASS criterion 1: enum vs fast on 100 instances + defaults "
          f"(worst diff/tol = {worst:.3f})")


def test_criterion_2_quadrature_vs_monte_carlo():
    """Nested quadrature matches 1e6-trial MC within 3 sigma; nodes converged."""
    worst_sigma = 0.0
    for u, snr_db in itertools.product((1, 2, 3, 5), (0, 10, 20, 30)):
        cfg = default_config(snr=10.0 ** (snr_db / 10))
        exact = success_probability(u, cfg)
        est, se = success_probability_mc(u, cfg, 10**6, seed=200 + 10 * u + snr_db)
        assert abs(exact - est) <= 3 * se, (u, snr_db, exact, est, se)
        worst_sigma = max(worst_sigma, abs(exact - est) / se)

    for u, snr_db in itertools.product((1, 5), (0, 10, 20, 30)):
        a = success_probability(u, default_config(snr=10.0 ** (snr_db / 10)))
        b = success_probability(
            u, default_config(snr=10.0 ** (snr_db / 10), quad_nodes=128))
        assert abs(a - b) < 1e-8
    print(f"\nPASS criterion 2: quadrature vs MC 3-sigma at 16 grid points "
          f"(worst {worst_sigma:.2f} sigma); node doubling < 1e-8")


def test_criterion_3_submodularity_and_matroid():
    """Diminishing returns over 1e4 chains; matroid axioms for all F*L <= 12."""
    cfg = default_config()
    report = check_submodularity(UNIFORM5, cfg, samples=10_000, seed=42)
    assert report.passed and report.violations == 0
    assert report.min_gain >= -1e-12

    combos = 0
    for F in range(1, 13):
        for L in range(1, 13):
            if F * L > 12:
                continue
            for M in range(F * L + 1):
                rep = check_matroid_axioms(F, L, M)
                assert rep.passed, (F, L, M, rep.counterexample)
                combos += 1
    print(f"\nPASS criterion 3: 10^4 chain triples, 0 violations; matroid "
          f"axioms hold for {combos} (F, L, M) combinations")


def test_criterion_4_greedy_near_optimality():
    """Load reduction of greedy is at least (1 - 1/e) of the optimum's."""
    bound = 1 - 1 / math.e
    worst_ratio = math.inf
    for snr_db, scheme in itertools.product(range(0, 45, 5), Scheme):
        cfg = default_config(snr=10.0 ** (snr_db / 10), scheme=scheme)
        empty = average_load_fast(Placement([0] * 5, cfg), UNIFORM5, cfg).total
        greedy = average_load_fast(
            greedy_placement(UNIFORM5, cfg)[0], UNIFORM5, cfg).total
        best = average_load_fast(
            exhaustive_placement(UNIFORM5, cfg), UNIFORM5, cfg).total
        if empty - best <= 1e-15:
            continue
        ratio = (empty - greedy) / (empty - best)
        assert ratio >= bound - 1e-12, (snr_db, scheme, ratio)
        worst_ratio = min(worst_ratio, ratio)
    print(f"\nPASS criterion 4: greedy/optimal load-reduction ratio >= 1-1/e "
          f"at 18 grid points (observed minimum {worst_ratio:.6f})")


def test_criterion_5_jensen_gap_bound():
    """Jensen gap below stay-time bound everywhere; minimal at mu = 20."""
    mus = (1.0, 2.0, 5.0, 10.0, 20.0)
    checked = 0
    for snr_db, scheme in itertools.product((20, 40), Scheme):
        gaps = []
        for mu in mus:
            cfg = default_config(mu=mu, snr=10.0 ** (snr_db / 10), scheme=scheme)
            placement = greedy_placement(UNIFORM5, cfg)[0]
            rep = jensen_gap_check(placement, UNIFORM5, cfg)
            assert rep.ok, (snr_db, scheme, mu, rep)
            gaps.append(rep.gap)
            checked += 1
        # the mu=20 gap attains the sweep minimum (up to truncation noise)
        assert gaps[-1] <= min(gaps) + 1e-8, (snr_db, scheme, gaps)
    print(f"\nPASS criterion 5: gap <= T*|c| at {checked} points; "
          f"gap(mu=20) minimal in every sweep")


def test_criterion_6_high_mobility_convergence():
    """Closed-form placement approaches greedy as mobility grows."""
    mus = (1.0, 2.0, 5.0, 10.0, 20.0)
    for snr_db, scheme in itertools.product((20, 40), Scheme):
        gaps = []
        for mu in mus:
            cfg = default_config(lam=1.0, mu=mu, snr=10.0 ** (snr_db / 10),
                                 scheme=scheme)
            hm = high_mobility_placement(UNIFORM5, cfg)
            greedy = greedy_placement(UNIFORM5, cfg)[0]
            gap = (average_load_fast(hm, UNIFORM5, cfg).total
                   - average_load_fast(greedy, UNIFORM5, cfg).total)
            assert gap >= -1e-9, (snr_db, scheme, mu, gap)
            gaps.append(gap)
        tail = gaps[2:]   # mu = 5, 10, 20
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:])), \
            (snr_db, scheme, gaps)
    print("\nPASS criterion 6: high-mobility excess load nonnegative and "
          "non-increasing from mu=5 to mu=20 (both schemes, 20/40 dB)")


def test_criterion_7_scheme_crossover():
    """Non-orthogonal wins at low/mid SNR, orthogonal at 40 dB (lam=mu=2)."""
    def greedy_load(snr_db, scheme):
        cfg = default_config(lam=2.0, mu=2.0, snr=10.0 ** (snr_db / 10),
                             scheme=scheme)
        return average_load_fast(
            greedy_placement(UNIFORM5, cfg)[0], UNIFORM5, cfg).total

    for snr_db in (0, 5, 10):
        noma = greedy_load(snr_db, Scheme.NON_ORTHOGONAL)
        oma = greedy_load(snr_db, Scheme.ORTHOGONAL)
        assert noma <= oma + 1e-12, (snr_db, noma, oma)
    noma40 = greedy_load(40, Scheme.NON_ORTHOGONAL)
    oma40 = greedy_load(40, Scheme.ORTHOGONAL)
    assert oma40 <= noma40 + 1e-12, (oma40, noma40)
    print("\nPASS criterion 7: NOMA <= OMA at SNR <= 10 dB, "
          f"OMA <= NOMA at 40 dB ({oma40:.4f} <= {noma40:.4f})")


def test_criterion_8_closed_form_optimality():
    """Threshold placement minimizes the relaxed objective."""
    cfg = default_config()
    rng = np.random.default_rng(8008)
    for scheme in Scheme:
        delivery = per_content_delivery(UNIFORM5, cfg.with_scheme(scheme))
        star = high_mobility_continuous(delivery[0], cfg)
        best = relaxed_objective(star, delivery, cfg)
        for _ in range(10_000):
            c = rng.uniform(0.0, cfg.L, cfg.F)
            if c.sum() > cfg.M:
                c *= cfg.M / c.sum()
            value = relaxed_objective(c, delivery, cfg)
            assert best <= value + 1e-12

    cfg3 = default_config(F=3)
    dist3 = NeighborCacheDistribution.uniform(3, 5)
    delivery3 = per_content_delivery(dist3, cfg3)
    star3 = high_mobility_continuous(delivery3[0], cfg3)
    best3 = relaxed_objective(star3, delivery3, cfg3)
    grid = np.arange(0.0, cfg3.L + 0.125, 0.25)
    for c in itertools.product(grid, repeat=3):
        if sum(c) > cfg3.M:
            continue
        value = relaxed_objective(np.array(c), delivery3, cfg3)
        assert best3 <= value + 1e-12

    # exact substitution: L=5, M=5, threshold at L-3=2 fills [2, 2, 1, 0, 0]
    assert high_mobility_continuous(3.0, default_config()).tolist() == \
        [2.0, 2.0, 1.0, 0.0, 0.0]
    print("\nPASS criterion 8: closed form beats 10^4 random vectors (both "
          "schemes) and the 0.25-step grid at F=3; [2,2,1,0,0] verified")


def test_criterion_9_monte_carlo_estimator():
    """End-to-end sampler agrees with the analytic evaluator within 3 sigma."""
    worst_sigma = 0.0
    for snr_db, scheme in itertools.product((0, 20, 40), Scheme):
        cfg = default_config(snr=10.0 ** (snr_db / 10), scheme=scheme)
        placement = greedy_placement(UNIFORM5, cfg)[0]
        analytic = average_load_fast(placement, UNIFORM5, cfg)
        est, se = estimate_average_load(placement, UNIFORM5, cfg,
                                        trials=100_000, seed=900 + snr_db)
        # the analytic side carries its own (reported) truncation bias
        tol = 3 * se + analytic.truncation_bound
        assert abs(est - analytic.total) <= tol, (snr_db, scheme, analytic, est, se)
        if se > 0:
            worst_sigma = max(worst_sigma, abs(est - analytic.total) / se)
    print(f"\nPASS criterion 9: MC estimate within 3 sigma (+ truncation "
          f"bound) of analytic at 6 points, 1e5 trials (worst {worst_sigma:.2f} sigma)")


def test_criterion_10_sweep_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV output."""
    config = tmp_path / "run.cfg"
    config.write_text(
        "F=5\ngamma=0.6\nL=5\nM=5\neta=0.5\nlambda=1\nmu=1\ntau_db=5\n"
        "radius=5\nalpha=4\nsnr_db=20\nscheme=orthogonal\n"
    )
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.csv"
        rc = main(["sweep", "--config", str(config), "--axis", "snr_db",
                   "--values", "0,10,20", "--methods", "greedy,monte_carlo",
                   "--schemes", "both", "--trials", "1000", "--seed", "77",
                   "--out", str(out)])
        assert rc == 0
        blobs.append((out.read_bytes(), (tmp_path / f"{name}.csv.manifest").read_bytes()))
    assert blobs[0] == blobs[1]
    print("\nPASS criterion 10: repeated sweep runs are byte-identical")
