import collections
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special, stats

import d2dcache

from d2dcache import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    Scheme,
    SystemConfig,
    average_load_fast,
    db_to_linear,
    default_config,
    estimate_average_load,
    expected_stay_time,
    greedy_placement,
    high_mobility_placement,
    jensen_gap_check,
    packet_budget,
    poisson_truncation,
    rate,
    zipf_popularity,
)
from d2dcache.load import link_budget_for, scenario, shortfall_tables
from d2dcache.model import MAX_TABLE_ENTRIES, MAX_TRUNCATION, poisson_pmf, poisson_tail

# Frozen by an independent 40-digit mpmath script: i**-0.6 summed over i=1..5.
ZIPF_5_06 = [
    0.33410825480376469,
    0.22042924263404668,
    0.17282813880860248,
    0.14542906471065116,
    0.127205299042935,
]


class TestZipfPopularity:
    def test_uniform_at_gamma_zero(self):
        assert np.allclose(zipf_popularity(5, 0.0), 0.2, atol=1e-15)

    def test_single_content(self):
        assert zipf_popularity(1, 0.6).tolist() == [1.0]

    def test_frozen_reference_vector(self):
        assert np.allclose(zipf_popularity(5, 0.6), ZIPF_5_06, atol=1e-14)

    def test_probability_vector_invariants(self):
        for F, gamma in [(1, 0.0), (7, 0.6), (25, 1.3), (4, 3.0)]:
            p = zipf_popularity(F, gamma)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)
            assert np.all(np.diff(p) <= 0)

    def test_invariant_to_weight_scaling(self):
        # normalizing k * i**-gamma gives the same vector for any k > 0
        F, gamma = 6, 0.9
        weights = 37.5 * np.arange(1, F + 1, dtype=float) ** -gamma
        assert np.allclose(zipf_popularity(F, gamma), weights / weights.sum(),
                           atol=1e-15)

    def test_memoized_vector_cannot_be_changed(self):
        # every caller of one (F, gamma) shares one object
        shared = zipf_popularity(5, 0.6)
        assert zipf_popularity(5, 0.6) is shared
        with pytest.raises(ValueError):
            shared[0] = 0.5
        assert zipf_popularity(5, 0.6) is shared
        assert np.array_equal(shared, zipf_popularity.__wrapped__(5, 0.6))

    @pytest.mark.parametrize("F, gamma", [(5, 1000.0), (1000, 108.5)])
    def test_tail_may_underflow_to_zero(self, F, gamma):
        # gamma above 744.4/ln F: the last weight F**-gamma underflows to 0.0,
        # a content nobody requests, which every config check accepts
        p = zipf_popularity(F, gamma)
        assert not p.flags.writeable
        assert np.all(np.diff(p) <= 0)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert p[-1] == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            zipf_popularity(0, 0.6)
        with pytest.raises(ValueError):
            zipf_popularity(5, -0.1)


class TestCapableUserPmf:
    def test_no_arrivals(self):
        cfg = default_config(lam=0.0)
        assert poisson_pmf(0, cfg.mean_capable) == 1.0
        assert poisson_pmf(3, cfg.mean_capable) == 0.0

    def test_frozen_value(self):
        # eta=0.5, lam=1, mu=1: P[n=0] = exp(-0.5)
        cfg = default_config()
        assert poisson_pmf(0, cfg.mean_capable) == pytest.approx(0.60653065971263342, abs=1e-14)

    def test_sums_to_one_with_tail(self):
        for lam, mu, eta in [(1.0, 1.0, 0.5), (2.0, 0.7, 0.9), (0.3, 2.0, 1.0)]:
            cfg = default_config(lam=lam, mu=mu, eta=eta)
            n_max = poisson_truncation(cfg)
            total = sum(poisson_pmf(n, cfg.mean_capable) for n in range(n_max + 1))
            assert abs(total + poisson_tail(cfg.mean_capable, n_max) - 1.0) <= 1e-12


class TestPoissonTruncation:
    def test_zero_mean(self):
        assert poisson_truncation(default_config(lam=0.0)) == 0

    def test_frozen_oracle_values(self):
        # independent cumulative-Poisson evaluation: first N with tail < 1e-9
        cfg = default_config(eta=0.5, lam=1.0, mu=1.0, n_trunc_epsilon=1e-9)
        assert cfg.mean_capable == 0.5
        assert poisson_truncation(cfg) == 9
        cfg = default_config(eta=1.0, lam=1.0, mu=1.0, n_trunc_epsilon=1e-9)
        assert poisson_truncation(cfg) == 11

    def test_is_smallest_such_n(self):
        for mean, eps in [(0.5, 1e-9), (1.0, 1e-9), (3.7, 1e-6), (0.05, 1e-12)]:
            cfg = default_config(eta=1.0, lam=mean, mu=1.0, n_trunc_epsilon=eps)
            n = poisson_truncation(cfg)
            assert poisson_tail(mean, n) < eps
            if n > 0:
                assert poisson_tail(mean, n - 1) >= eps

    def test_points_up_to_the_cap_are_kept(self):
        # the top rung of the scale ladder, and a mean just under the cap.
        # mpmath at 35 digits, summing the terms from n + 1 for 70,000 steps:
        # at mean 5e6 the tail past 5,013,416 is 1.00229044229e-9 and past
        # 5,013,417 9.99537253559e-10; at mean 8.37e6 the tail past
        # 8,387,357 is 1.00118025605e-9 and past 8,387,358 9.99053540576e-10
        assert poisson_truncation(default_config(lam=1e7)) == 5_013_417
        n = poisson_truncation(default_config(lam=1e7), np.array([0.5, 8.37e6]))
        assert n.tolist() == [9, 8_387_358] and n[1] <= MAX_TRUNCATION

    @pytest.mark.parametrize("mean", [8.39e6, 5e7, 5e8, 5e20])
    def test_points_above_the_cap_raise(self, mean):
        cfg = default_config(eta=1.0, lam=mean)
        with pytest.raises(CapacityError, match="truncation point"):
            poisson_truncation(cfg)
        with pytest.raises(CapacityError, match="truncation point"):
            poisson_truncation(cfg, np.array([0.5, mean]))

    def test_epsilon_below_two_to_the_minus_54_is_the_definitional_point(self):
        # 1 - eps rounds to 1 below 2**-54; the window's start and top do not
        # read it.  mpmath at 50 digits: the tail past 145 is 5.8e-299, past
        # 146 2.0e-301
        assert poisson_truncation(default_config(n_trunc_epsilon=1e-300)) == 146
        means = np.array([0.0, 1e-300, 0.5, 3.0, 100.0, 1e4])
        for eps in (2.0**-54, 1e-17, 1e-100, 1e-300, 5e-324):
            cfg = default_config(n_trunc_epsilon=eps)
            points = poisson_truncation(cfg, means)
            assert points.tolist() == [poisson_truncation(cfg, m) for m in means]
            for m, n in zip(means, points):
                assert poisson_tail(m, n - 1) >= eps > poisson_tail(m, n) or m == n == 0
        n = poisson_truncation(default_config(n_trunc_epsilon=1e-300), 5e6)
        assert poisson_tail(5e6, n - 1) >= 1e-300 > poisson_tail(5e6, n)

    def test_tails_below_the_normal_range_sum_their_subnormal_terms(self):
        # scipy's pdtrc drops to 0 once its leading term underflows:
        # pdtrc(149, 0.5) = 7.5e-309 but pdtrc(150, 0.5) = 0.  mpmath at 35
        # digits, summing the terms: the tail past 149 is 7.46277614032e-309,
        # past 150 2.47106392081e-311 and past 151 8.12832441645e-314.  The
        # terms underflow gradually, each within 2**-1075, so each tail is
        # within a few subnormal steps of its sum
        for n, exact in [(149, 7.46277614032e-309), (150, 2.47106392081e-311),
                         (151, 8.12832441645e-314)]:
            assert abs(poisson_tail(0.5, n) - exact) <= 1e-11 * exact + 4 * 2.0**-1074
        rng = np.random.default_rng(12)
        for m in np.concatenate(([1e-300, 0.5, 7.0], 10.0 ** rng.uniform(-3, 3, 30))):
            for eps in (2.0**-1023, 1e-310, 1e-320, 5e-324):
                n = poisson_truncation(default_config(n_trunc_epsilon=eps), m)
                assert poisson_tail(m, n - 1) >= eps > poisson_tail(m, n), (m, eps)

    def test_search_equals_a_unit_step_walk(self):
        # the window finds the point of a unit-step walk on scipy's pdtrc from
        # scipy's ppf start, at epsilons on both sides of 2**-54, wherever
        # pdtrc is accurate: means up to 1e4 here, and epsilon >= 2**-1022
        rng = np.random.default_rng(8)
        means = np.concatenate(([0.0, 1e-300, 0.5], 10.0 ** rng.uniform(-4, 4, 300)))
        tiny = [2.0**-53, 2.0**-54, 2.0**-55, 1e-300, 2.0**-1022]
        for k, m in enumerate(means):
            low = (-307, -16, -0.5)[k % 3:k % 3 + 2]
            eps = tiny[k % 5] if k % 3 == 2 else float(10.0 ** rng.uniform(*low))
            cfg = default_config(n_trunc_epsilon=eps)
            assert poisson_truncation(cfg, m) == _unit_step_truncation(m, eps), (m, eps)
        for eps in tiny + [1e-9, 0.3]:
            cfg = default_config(n_trunc_epsilon=eps)
            assert (poisson_truncation(cfg, means).tolist()
                    == [_unit_step_truncation(m, eps) for m in means])

    def test_tiny_epsilon_windows_are_bounded(self, pmf_entries):
        # at mean 5e6 and eps 1e-300 the point is 6.5e4 above scipy's ppf
        # start, where a unit-step walk took that many pdtrc calls.  A window
        # reaches a Chernoff top, 86,467 terms here with its start just below
        # the mean: at most 2**18 terms for each of 10 means
        cfg = default_config(n_trunc_epsilon=1e-300)
        n = poisson_truncation(cfg, 5e6)
        assert sum(pmf_entries) <= 2**18
        means = np.linspace(5e5, 5e6, 10)
        del pmf_entries[:]
        points = poisson_truncation(cfg, means)
        assert sum(pmf_entries) <= 10 * 2**18
        assert points[-1] == n and points.tolist() == [poisson_truncation(cfg, m) for m in means]
        assert poisson_tail(5e6, n - 1) >= 1e-300 > poisson_tail(5e6, n)

    def test_placement_above_the_cap_allocates_nothing(self):
        cfg = default_config(lam=1e9)   # mean 5e8: point 500,130,921
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="truncation point"):
                greedy_placement(dist, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestMobilityExtremes:
    # the accepted mobility range at its ends: each config finishes with a
    # sound result or raises a CapacityError whose reason holds.  Per scheme,
    # 192 of the 320 finish, 96 refuse a packet budget past int64 and 32 a
    # truncation point past the cap (2.9 s orthogonal, 4.0 s NOMA, on 2 CPUs)
    GRID = list(itertools.product([1e-300, 1e-19, 1e-3, 1.0, 1e300], [0.0, 1e-300, 1.0, 30.0],
                                  [0.0, 1e-300, 0.5, 1.0], [1e-300, 1e-17, 1e-9, 0.5]))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_config_finishes_or_is_refused_truthfully(self, scheme):
        outcomes = collections.Counter()
        for mu, lam, eta, eps in self.GRID:
            cfg = default_config(mu=mu, lam=lam, eta=eta, n_trunc_epsilon=eps, scheme=scheme)
            dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    placement, _ = greedy_placement(dist, cfg)
                    load = average_load_fast(placement, dist, cfg).total
                    high_mobility_placement(dist, cfg)
                    report = jensen_gap_check(placement, dist, cfg)
                    mc, _ = estimate_average_load(placement, dist, cfg, 20, 1)
                    delivery = scenario(dist, cfg).delivery
            except CapacityError as exc:
                if "truncation point" in str(exc):
                    # the point is at least the median, at least mean - ln 2
                    assert cfg.mean_capable > MAX_TRUNCATION + 1, cfg
                    outcomes["truncation"] += 1
                else:
                    assert f"at mu={mu:.6g} is past int64" in str(exc), exc
                    assert cfg.L * rate(1, cfg) / mu >= 2.0**63, cfg
                    outcomes["budget"] += 1
                continue
            assert 0.0 <= load <= cfg.L and 0.0 <= mc <= cfg.L, cfg
            assert (delivery >= 0).all() and report.ok, cfg
            outcomes["finished"] += 1
        assert outcomes == {"finished": 192, "budget": 96, "truncation": 32}


@pytest.fixture
def pmf_entries(monkeypatch):
    """The number of Poisson terms of every model.poisson_pmf call."""
    from d2dcache import model

    entries, pmf = [], model.poisson_pmf

    def counted(k, mean):
        terms = pmf(k, mean)
        entries.append(terms.size)
        return terms

    monkeypatch.setattr(model, "poisson_pmf", counted)
    return entries


def _unit_step_truncation(mean, eps):
    """The truncation point by unit steps on scipy's pdtrc from scipy's ppf
    of 1 - max(eps, 2**-53): up while the tail is at least eps, then down
    while the tail one below is under it."""
    n = max(0, math.ceil(special.pdtrik(1.0 - max(eps, 2.0**-53), mean)))
    while special.pdtrc(n, mean) >= eps:
        n += 1
    while n > 0 and special.pdtrc(n - 1, mean) < eps:
        n -= 1
    return n


def _stats_truncation(mean, eps):
    """poisson_truncation as it was written on scipy.stats: ppf start, then the loops."""
    n = int(stats.poisson.ppf(1.0 - eps, mean))
    while stats.poisson.sf(n, mean) >= eps:
        n += 1
    while n > 0 and stats.poisson.sf(n - 1, mean) < eps:
        n -= 1
    return n


@mpmath.workdps(35)
def _mp_pmf(k, mean):
    """P[X = k] at 35 digits."""
    mean = mpmath.mpf(float(mean))
    return mpmath.exp(k * mpmath.log(mean) - mean - mpmath.loggamma(k + 1))


@mpmath.workdps(35)
def _mp_tail(n, mean):
    """P[X > n] at 35 digits: its terms summed up from n + 1 where n is at
    least the mean, else 1 less the terms summed down from n, each sum until
    the terms fall below 1e-40 of it."""
    mean = mpmath.mpf(float(mean))
    k, step = (n + 1, 1) if n >= mean else (n, -1)
    term, total = _mp_pmf(k, mean), mpmath.mpf(0)
    while k >= 0 and term > total * mpmath.mpf(10) ** -40:
        total += term
        term = term * mean / (k + 1) if step == 1 else term * k / mean
        k += step
    return total if step == 1 else 1 - total


class TestPoissonHelpers:
    # mpmath is the independent reference; scipy.stats is matched within
    # its own error
    MEANS = np.exp(np.random.default_rng(5).uniform(np.log(1e-3), np.log(1e6), 2000))

    @staticmethod
    def _probes(m):
        around = np.floor(m + math.sqrt(m) * np.linspace(-8, 8, 9))
        return np.unique(np.concatenate([[0, 1, 5, 30, 63, 64, 100], np.maximum(around, 0)]))

    def test_pmf_matches_mpmath_and_scipy_stats(self):
        # over the exact-factorial terms (k < 64) and Loader's (k >= 64):
        # within 1e-13 of mpmath where the term is at least 1e-98, and below
        # within 4 ulps of its log, what rounding its exponent alone costs,
        # at most 3.1e-13 at the bottom of the normal range; and no further
        # from scipy.stats than scipy is from mpmath, plus that tolerance
        for m in np.concatenate(([1e-300, 0.3, 40.0, 5e6], self.MEANS[::20])):
            k = self._probes(m).astype(int)
            got, scipy_terms = poisson_pmf(k, m), stats.poisson.pmf(k, m)
            for kk, g, sc in zip(k.tolist(), got, scipy_terms):
                exact = _mp_pmf(kk, m)
                tol = max(1e-13, 2.0**-51 * abs(float(mpmath.log(exact)))) * exact
                if exact >= 2.0**-1022:
                    assert abs(g - exact) <= tol, (m, kk)
                    if m <= 1e6:
                        assert abs(g - sc) <= abs(sc - exact) + tol, (m, kk)
                else:
                    assert abs(g - exact) <= tol + 2.0**-1074, (m, kk)
        # mean 0: 1 at k = 0 and 0 elsewhere, as scipy.stats gives it
        assert poisson_pmf(np.arange(5), 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_tail_matches_mpmath_and_scipy_stats(self):
        for m in np.concatenate(([0.3, 40.0, 5e6], self.MEANS[::40])):
            for n in {0, 1, int(m), int(m + 3 * math.sqrt(m)) + 1, int(m + 8 * math.sqrt(m)) + 9}:
                got, exact = poisson_tail(m, n), _mp_tail(n, m)
                assert abs(got - exact) <= 1e-13 * exact, (m, n)
                if m <= 1e6:
                    scipy_tail = float(stats.poisson.sf(n, m))
                    assert abs(got - scipy_tail) <= abs(scipy_tail - exact) + 1e-13 * exact, (m, n)
        assert poisson_tail(0.3, -1) == 1.0

    @pytest.mark.parametrize("mean", [4.8e5, 5e6])
    def test_terms_to_the_point_and_the_tail_past_it_sum_to_one(self, mean):
        cfg = default_config(eta=1.0, lam=mean)
        n = poisson_truncation(cfg)
        total = math.fsum(poisson_pmf(np.arange(n + 1), mean)) + poisson_tail(mean, n)
        assert abs(total - 1.0) <= 1e-11

    def test_truncation_equals_the_stats_version(self):
        rng = np.random.default_rng(6)
        for m in self.MEANS[::4]:
            eps = float(10.0 ** rng.uniform(-12, -1))
            cfg = default_config(eta=1.0, lam=float(m), mu=1.0, n_trunc_epsilon=eps)
            assert poisson_truncation(cfg) == _stats_truncation(m, eps), (m, eps)

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-3])
    def test_array_of_means_equals_one_call_per_mean(self, eps):
        # each mean keeps its own window; 0 gives 0, and the tails match too
        cfg = default_config(n_trunc_epsilon=eps)
        means = np.concatenate(([0.0, 1e-12], self.MEANS[::10]))
        n = poisson_truncation(cfg, means)
        assert n.dtype.kind == "i"
        assert n.tolist() == [poisson_truncation(cfg, float(m)) for m in means]
        for shift in (-1, 0, 1):
            tails = poisson_tail(means, n + shift)
            assert tails.tolist() == [poisson_tail(float(m), int(k) + shift)
                                      for m, k in zip(means, n)]
        assert poisson_tail(0.0, -1) == 0.0 and poisson_tail(0.0, 3) == 0.0


def test_floored_delivery_bound_at_zero_truncation_point():
    # the truncation point is 0 here, so the bound reads the tail at n = -1
    cfg = default_config(lam=1e-12)
    assert poisson_truncation(cfg) == 0
    dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
    q_i = dist.q[0]
    mean = (1.0 - q_i[0]) * cfg.mean_capable
    placement = Placement([1] * cfg.F, cfg)
    for scheme in Scheme:
        scfg = cfg.with_scheme(scheme)
        s = scenario(dist, scfg)
        assert np.all(s.delivery == 0.0)
        bound = shortfall_tables(dist.q, scfg, link_budget_for(scfg))[3]
        assert math.isfinite(bound[0])
        assert np.all(bound == packet_budget(1, scfg) * mean)
        assert s.delivery_bound == float(np.dot(s.f, bound))
        assert jensen_gap_check(placement, dist, scfg).ok


def test_import_and_every_command_leave_out_scipy(tmp_path):
    # import d2dcache alone, then each CLI command, Monte Carlo sweep
    # included, in one fresh interpreter: none loads a scipy module
    cfg = str(Path(__file__).resolve().parents[1] / "demos" / "default.cfg")
    src = str(Path(d2dcache.__file__).resolve().parents[1])
    sweep = ["sweep", "--config", cfg, "--axis", "mu", "--values", "1,4", "--schemes", "both"]
    commands = [
        ["eval", "--config", cfg, "--placement", "5,0,0,0,0", "--out", "eval.csv"],
        ["optimize", "--config", cfg, "--methods", "greedy,exhaustive,high_mobility",
         "--schemes", "both"],
        ["validate", "--config", cfg],
        sweep + ["--methods", "greedy,exhaustive,high_mobility", "--out", "sweep.csv"],
        sweep + ["--methods", "greedy,monte_carlo", "--trials", "200", "--out", "mc.csv"],
    ]
    listing = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    calls = "".join(f"    assert d2dcache.cli.main({c!r}) == 0\n" for c in commands)
    for run in ("import sys, d2dcache\n",
                "import contextlib, io, sys, d2dcache.cli\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n{calls}"):
        out = subprocess.run([sys.executable, "-c", run + listing], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
                             timeout=120, cwd=tmp_path)
        assert out.stdout.splitlines()[-1] == "[]", out.stdout


def test_expected_stay_time():
    assert expected_stay_time(default_config(mu=1.0)) == 1.0
    assert expected_stay_time(default_config(mu=2.0)) == 0.5
    assert expected_stay_time(default_config(mu=0.25)) == 4.0


class TestSystemConfig:
    def test_defaults_are_valid(self):
        cfg = default_config()
        assert cfg.tau == pytest.approx(db_to_linear(5.0))
        assert cfg.snr == pytest.approx(100.0)
        assert cfg.scheme is Scheme.ORTHOGONAL

    @pytest.mark.parametrize("bad", [
        dict(F=0), dict(L=0), dict(M=-1), dict(M=26), dict(eta=1.5),
        dict(eta=-0.1), dict(lam=-1.0), dict(mu=0.0), dict(tau=0.0),
        dict(radius=0.0), dict(alpha=0.0), dict(snr=0.0),
        dict(radius=1e-300), dict(radius=1e300),   # radius**2 is 0 or inf
        dict(n_trunc_epsilon=0.0), dict(n_trunc_epsilon=1.0), dict(quad_nodes=4),
        dict(gamma=-0.5), dict(lam=math.inf), dict(F=1_000_000, L=50),
    ])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            default_config(**bad)

    def test_table_cap(self):
        assert default_config(F=MAX_TABLE_ENTRIES // 2, L=1).F == 2**22
        with pytest.raises(CapacityError, match="table entries"):
            default_config(F=MAX_TABLE_ENTRIES // 2 + 1, L=1)

    def test_mean_capable(self):
        assert default_config(eta=0.5, lam=2.0, mu=4.0).mean_capable == 0.25

    def test_scheme_switch(self):
        cfg = default_config().with_scheme(Scheme.NON_ORTHOGONAL)
        assert cfg.scheme is Scheme.NON_ORTHOGONAL


class TestPlacement:
    def test_valid(self, cfg):
        p = Placement([5, 0, 0, 0, 0], cfg)
        assert p.c.sum() == 5

    @pytest.mark.parametrize("c", [
        [6, 0, 0, 0, 0],      # over per-content cap
        [-1, 0, 0, 0, 0],     # negative
        [2, 2, 2, 0, 0],      # sum over memory
        [1, 1, 1],            # wrong length
        [0.5, 0, 0, 0, 0],    # fractional
    ])
    def test_rejects_invalid(self, cfg, c):
        with pytest.raises(ValueError):
            Placement(c, cfg)

    def test_immutable(self, cfg):
        p = Placement([1, 1, 1, 1, 1], cfg)
        with pytest.raises(ValueError):
            p.c[0] = 3
        with pytest.raises(AttributeError):
            p.c = np.array([9] * 5)
        assert p == Placement(c=[1, 1, 1, 1, 1], cfg=cfg)
        assert repr(p) == "Placement([1, 1, 1, 1, 1])"


class TestDistributions:
    def test_uniform_cache_distribution(self):
        dist = NeighborCacheDistribution.uniform(3, 4)
        assert dist.q.shape == (3, 5)
        assert np.allclose(dist.q, 0.2)
        assert dist.F == 3 and dist.L == 4

    def test_immutable(self):
        dist = NeighborCacheDistribution.uniform(3, 4)
        with pytest.raises(ValueError):
            dist.q[0, 0] = 1.0
        with pytest.raises(AttributeError):
            dist.q = np.full((3, 5), 0.2)

    def test_owns_a_read_only_copy_of_the_rows(self):
        # the instance keys its scenario, so its rows never change under it
        a = np.full((3, 5), 0.2)
        dist = NeighborCacheDistribution(a)
        assert a.flags.writeable and not dist.q.flags.writeable
        a[0] = [1.0, 0.0, 0.0, 0.0, 0.0]
        assert np.all(dist.q == 0.2)

    def test_rejects_bad_pmf(self):
        with pytest.raises(ValueError):
            NeighborCacheDistribution([[0.5, 0.6]])
        with pytest.raises(ValueError):
            NeighborCacheDistribution([[-0.1, 1.1]])

    @pytest.mark.parametrize("row", [
        [0.5, math.nan, 0.5],   # passed both checks, and each evaluator read it
        [math.nan, 0.5, 0.5],   # a NaN P[d = 0]
        [math.inf, 0.0, 0.0],
    ])
    def test_rejects_nan_and_inf(self, row):
        with pytest.raises(ValueError, match="nonnegative|sum to 1"):
            NeighborCacheDistribution([row] * 5)

    def test_nan_popularity_is_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            zipf_popularity(5, math.nan)


class TestRowsBoundary:
    """Every entry point reads the cache rows through ``dist.rows(cfg)``:
    rows of another L, or other than F rows, raise instead of being used."""

    ENTRY_POINTS = {
        "average_load_fast": lambda pl, dist, cfg: d2dcache.average_load_fast(pl, dist, cfg),
        "average_load_enum": lambda pl, dist, cfg: d2dcache.average_load_enum(pl, dist, cfg),
        "greedy_placement": lambda pl, dist, cfg: d2dcache.greedy_placement(dist, cfg),
        "exhaustive_placement": lambda pl, dist, cfg: d2dcache.exhaustive_placement(dist, cfg),
        "high_mobility_placement":
            lambda pl, dist, cfg: d2dcache.high_mobility_placement(dist, cfg),
        "per_content_delivery": lambda pl, dist, cfg: d2dcache.per_content_delivery(dist, cfg),
        "jensen_gap_check": lambda pl, dist, cfg: d2dcache.jensen_gap_check(pl, dist, cfg),
        "estimate_average_load":
            lambda pl, dist, cfg: d2dcache.estimate_average_load(pl, dist, cfg, 100, 0),
    }

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    @pytest.mark.parametrize("F,L", [(5, 4), (5, 6), (4, 5), (6, 5)])
    def test_mismatched_rows_raise(self, name, F, L, scheme):
        cfg = default_config(scheme=scheme, lam=0.2, n_trunc_epsilon=1e-3)   # enum runs
        pl = Placement([1] * cfg.F, cfg)
        with pytest.raises(ValueError, match="cache distribution has"):
            self.ENTRY_POINTS[name](pl, NeighborCacheDistribution.uniform(F, L), cfg)


class TestPlacementBoundary:
    """Every evaluator reads the counts through ``placement.counts(cfg)``: a
    placement built for another config raises unless its counts fit cfg."""

    ENTRY_POINTS = {
        name: TestRowsBoundary.ENTRY_POINTS[name]
        for name in ("average_load_fast", "average_load_enum", "jensen_gap_check",
                     "estimate_average_load")
    }
    CASES = {
        "fewer_contents": (dict(F=1), [3]),     # c[0] was broadcast to every content
        "more_memory": (dict(M=25), [5] * 5),   # 25 packets in a memory of 5
        "longer_contents": (dict(L=8, M=8), [6, 0, 0, 0, 0]),   # 6 packets of 5
    }

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    @pytest.mark.parametrize("case", list(CASES))
    def test_a_placement_that_does_not_fit_raises(self, case, name, scheme):
        cfg = default_config(scheme=scheme, lam=0.2, n_trunc_epsilon=1e-3)   # enum runs
        overrides, c = self.CASES[case]
        pl = Placement(c, default_config(**overrides))
        with pytest.raises(ValueError, match="placement of"):
            self.ENTRY_POINTS[name](pl, NeighborCacheDistribution.uniform(cfg.F, cfg.L), cfg)

    def test_a_placement_that_fits_is_evaluated(self, cfg):
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        other = Placement([2, 1, 1, 1, 0], default_config(L=8, M=25))
        assert (other.top, other.used) == (2, 5)
        assert other.counts(cfg) is other.c
        assert (d2dcache.average_load_fast(other, dist, cfg).total
                == d2dcache.average_load_fast(Placement(other.c, cfg), dist, cfg).total)
