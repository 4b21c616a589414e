import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from d2dcache import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    average_load_fast,
    build_link_budget,
    default_config,
    estimate_average_load,
    greedy_placement,
    link_budget_for,
    rate,
    request_load,
    sample_state,
    zipf_popularity,
)
from d2dcache import montecarlo
from d2dcache.model import MAX_TABLE_ENTRIES, poisson_pmf
from d2dcache.montecarlo import BLOCK_TRIALS


def _request_load_trials(pl, dist, cfg, trials, seed):
    """Per-trial loads rebuilt from the block streams through request_load."""
    f = zipf_popularity(cfg.F, cfg.gamma)
    budget = build_link_budget(cfg, 20)
    values = []
    for b in range(-(-trials // BLOCK_TRIALS)):
        d, trial = sample_state(dist, cfg, np.random.default_rng([seed, b]), BLOCK_TRIALS)
        for t in range(BLOCK_TRIALS):
            d_t = d[trial == t]
            values.append(sum(f[i] * request_load(int(pl.c[i]), d_t[:, i], cfg, budget)
                              for i in range(cfg.F)))
    return np.array(values[:trials])


def _pin_rows(F, L):
    """q0 = 1, uniform, zero-mass-bin and top-heavy cache rows in turn."""
    rows = []
    for i in range(F):
        kind = (i + F) % 4
        if kind == 0:
            row = np.zeros(L + 1)
            row[0] = 1.0
        elif kind == 1:
            row = np.ones(L + 1)
        elif kind == 2:
            row = np.where(np.arange(L + 1) % 3 == 1, np.arange(L + 1) + 1.0, 0.0)
        else:
            row = np.zeros(L + 1)
            row[-2:] = (1.0, 3.0)
        rows.append(row / row.sum())
    return NeighborCacheDistribution(np.array(rows))


def _pin_estimate(cfg, trials, seed=7):
    """The estimate of the pinned cases: pin rows, M spread evenly over contents."""
    c = [min(cfg.L, cfg.M // cfg.F + (i < cfg.M % cfg.F)) for i in range(cfg.F)]
    return estimate_average_load(Placement(c, cfg), _pin_rows(cfg.F, cfg.L), cfg,
                                 trials, seed)


def _levels(cfg):
    """The count cap of the draws: the largest packet budget, within 1..L."""
    return max(1, min(cfg.L, int(link_budget_for(cfg)[1])))


def _assert_inverse_cdf_counts(dist, cfg, trials):
    """sample_state's counts are the inverse-CDF draws of the same uniforms,
    one searchsorted per content, capped at the largest packet budget."""
    d, _ = sample_state(dist, cfg, np.random.default_rng([3, trials]), trials)
    rng = np.random.default_rng([3, trials])
    n = int(rng.poisson(cfg.mean_capable, size=trials).sum())
    u = rng.random((n, cfg.F))
    cum = np.cumsum(dist.q, axis=1)
    cap = _levels(cfg)
    expected = np.stack([np.minimum(np.searchsorted(cum[i], u[:, i], side="right"), cap)
                         for i in range(cfg.F)], axis=1).reshape(n, cfg.F)
    assert d.shape == (n, cfg.F)
    assert d.dtype == np.min_scalar_type(cfg.L)
    assert np.array_equal(d, expected)


# Config of each pinned case, with its count cap (levels) against F: caps of
# 1, of 2 to F and above F, L=300 (uint16 counts), zero budgets and an
# extended budget table.
PIN_CONFIGS = {
    "default": dict(),                                   # levels 1, F 5
    "F2_L40": dict(F=2, L=40, M=10, mu=0.25),            # levels 40, F 2
    "F3_L300": dict(F=3, L=300, M=5, mu=0.5),            # levels 170, uint16 counts
    "F8_L300_mu10": dict(F=8, L=300, M=20, mu=10.0),     # levels 8, uint16 counts
    "snr1": dict(snr=1.0),                               # every budget 0
    "extend": dict(lam=4.0, snr=1e4, n_trunc_epsilon=0.3),   # budget table extended
    "F10_L10": dict(F=10, L=10, M=10),                   # levels 2
    "F10_L50_lam40": dict(F=10, L=50, M=20, lam=40.0),   # levels 14, F 10
}

# (estimate, stderr) at seed 7.  The stderrs were recorded from the row-major
# sampler that resolved every count up to L, and the capped content-major draw
# must give the same bits; the estimates were re-recorded for the mean shifted
# by the first trial.
PINNED = {
    ("default", "orthogonal", 255): (3.745873052190521, 0.023018193085786395),
    ("default", "orthogonal", 256): (3.7468657355804016, 0.022949581260254807),
    ("default", "orthogonal", 257): (3.7445255150711807, 0.022979582448002817),
    ("default", "non_orthogonal", 255): (3.639911769778164, 0.03084318296609501),
    ("default", "non_orthogonal", 256): (3.6413183644274683, 0.030754648390390136),
    ("default", "non_orthogonal", 257): (3.6393888340783755, 0.030695452384113857),
    ("F2_L40", "orthogonal", 2000): (6.460498198785326, 0.2661346473832211),
    ("F2_L40", "non_orthogonal", 2000): (6.3384921632866185, 0.2671229648638728),
    ("F3_L300", "orthogonal", 1000): (228.6642014673606, 1.6788789657889054),
    ("F3_L300", "non_orthogonal", 1000): (214.97325772301113, 2.1490911187989417),
    ("F8_L300_mu10", "orthogonal", 1000): (297.09174572408824, 0.03476023758536747),
    ("F8_L300_mu10", "non_orthogonal", 1000): (297.08655449611945, 0.035681241190059755),
    ("snr1", "orthogonal", 300): (4.0, 0.0),
    ("snr1", "non_orthogonal", 300): (4.0, 0.0),
    ("extend", "orthogonal", 2000): (1.4084224263243967, 0.025907408936073646),
    ("extend", "non_orthogonal", 2000): (1.9628018931820452, 0.02654772175257457),
    ("F10_L10", "orthogonal", 500): (8.418909437193514, 0.03399345542658266),
    ("F10_L10", "non_orthogonal", 500): (8.279140482696745, 0.04397951142840603),
    ("F10_L50_lam40", "orthogonal", 200): (46.966110806724124, 0.220154379555432),
    ("F10_L50_lam40", "non_orthogonal", 200): (32.66186488473129, 0.3443757244362863),
}


class TestSampleState:
    def test_no_arrivals(self):
        cfg = default_config(lam=0.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        rng = np.random.default_rng(0)
        for _ in range(50):
            d, trial = sample_state(dist, cfg, rng)
            assert d.shape == (0, cfg.F)
            assert trial.shape == (0,)

    def test_count_moment(self, cfg, uniform_dist):
        rng = np.random.default_rng(10)
        draws = 10**5
        counts = np.array([sample_state(uniform_dist, cfg, rng)[1].size
                           for _ in range(draws)])
        se = counts.std(ddof=1) / np.sqrt(draws)
        assert abs(counts.mean() - cfg.mean_capable) <= 3 * se

    def test_cache_marginal(self, cfg):
        q = np.array([[0.4, 0.3, 0.2, 0.05, 0.03, 0.02]] * cfg.F)
        dist = NeighborCacheDistribution(q)
        rng = np.random.default_rng(11)
        zero, total = 0, 0
        for _ in range(4000):
            d, _ = sample_state(dist, cfg, rng)
            zero += int((d[:, 0] == 0).sum())
            total += d.shape[0]
        p_hat = zero / total
        se = np.sqrt(p_hat * (1 - p_hat) / total)
        assert abs(p_hat - 0.4) <= 3 * se

    @pytest.mark.parametrize("case", ["default", "F2_L40", "F3_L300", "F8_L300_mu10",
                                      "snr1", "F10_L50_lam40"])
    @pytest.mark.parametrize("trials", [0, 1, 40])
    def test_counts_are_the_inverse_cdf_draw_capped_at_the_largest_budget(self, case,
                                                                           trials):
        cfg = default_config(**PIN_CONFIGS[case])
        _assert_inverse_cdf_counts(_pin_rows(cfg.F, cfg.L), cfg, trials)

    # the count rule's boundary, levels == min(F, K) and one above, with F
    # below and above K; L=300 gives uint16 counts
    @pytest.mark.parametrize("F, L", [(5, 40), (5, 300),
                                      (montecarlo.LEVEL_LOOP_MAX + 8, 64),
                                      (montecarlo.LEVEL_LOOP_MAX + 8, 300)])
    @pytest.mark.parametrize("above", [0, 1])
    def test_counts_at_the_level_loop_boundary_are_the_inverse_cdf_draw(self, F, L, above):
        levels = min(F, montecarlo.LEVEL_LOOP_MAX) + above
        # the largest budget floor(L * rate(1) / mu) is levels at this mu
        mu = L * rate(1, default_config(F=F, L=L)) / (levels + 0.5)
        cfg = default_config(F=F, L=L, M=F, mu=mu, lam=4 * mu)   # mean capable 2
        assert _levels(cfg) == levels
        rows = np.random.default_rng([F, L]).dirichlet(np.ones(L + 1), size=F)
        _assert_inverse_cdf_counts(NeighborCacheDistribution(rows / rows.sum(axis=1)[:, None]),
                                   cfg, 60)

    def test_streams_stack_in_order(self, cfg, uniform_dist):
        # two streams give the two one-stream states stacked, trials numbered on
        d, trial = sample_state(uniform_dist, cfg,
                                [np.random.default_rng([5, b]) for b in (0, 1)], BLOCK_TRIALS)
        (d0, trial0), (d1, trial1) = (
            sample_state(uniform_dist, cfg, np.random.default_rng([5, b]), BLOCK_TRIALS)
            for b in (0, 1))
        assert np.array_equal(d, np.concatenate([d0, d1]))
        assert np.array_equal(trial, np.concatenate([trial0, trial1 + BLOCK_TRIALS]))

    def test_block_maps_neighbors_to_trials(self, cfg, uniform_dist):
        d, trial = sample_state(uniform_dist, cfg, np.random.default_rng(13), trials=50)
        counts = np.random.default_rng(13).poisson(cfg.mean_capable, size=50)
        assert d.shape == (trial.size, cfg.F)
        assert trial.dtype == np.int32
        assert np.array_equal(np.bincount(trial, minlength=50), counts)


class TestEstimateAverageLoad:
    def test_exact_without_arrivals(self):
        cfg = default_config(lam=0.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([3, 1, 1, 0, 0], cfg)
        est, se = estimate_average_load(pl, dist, cfg, trials=200, seed=0)
        f = zipf_popularity(cfg.F, cfg.gamma)
        assert est == pytest.approx(float(np.dot(f, cfg.L - pl.c)), abs=1e-12)
        assert se == 0.0

    def test_deterministic_per_seed(self, cfg, uniform_dist):
        pl = Placement([5, 0, 0, 0, 0], cfg)
        a = estimate_average_load(pl, uniform_dist, cfg, trials=500, seed=21)
        b = estimate_average_load(pl, uniform_dist, cfg, trials=500, seed=21)
        assert a == b

    def test_trial_streams_are_stable_under_growth(self, cfg, uniform_dist):
        # growing the trial count must not change earlier trials: the two
        # estimates relate exactly through the shared prefix sum
        pl = Placement([5, 0, 0, 0, 0], cfg)
        e1, _ = estimate_average_load(pl, uniform_dist, cfg, trials=300, seed=4)
        e2, _ = estimate_average_load(pl, uniform_dist, cfg, trials=600, seed=4)
        e_tail = (600 * e2 - 300 * e1) / 300
        e3, _ = estimate_average_load(pl, uniform_dist, cfg, trials=300, seed=4)
        assert e1 == e3
        assert 0.0 <= e_tail <= cfg.L   # tail mean is a valid load average

    @pytest.mark.parametrize("overrides", [
        {},
        # Dirichlet rows where L <= u < u0 carries more than 0.4 of each
        # row's transmitter counts: those deliver L packets or more
        dict(L=4, lam=11.4, mu=0.5, snr=1e4),                        # u0 = 11
        dict(L=4, lam=4.0, mu=0.25, snr=1e4, scheme="non_orthogonal"),   # u0 = 10
    ])
    def test_agrees_with_analytic(self, overrides):
        cfg = default_config(**overrides)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        if overrides:
            dist = NeighborCacheDistribution(
                np.random.default_rng(cfg.L).dirichlet(np.ones(cfg.L + 1), size=cfg.F))
            budget = link_budget_for(cfg)
            u0 = int(np.argmax(budget[1:] == 0)) + 1
            mean = (1.0 - dist.q[:, :1]) * cfg.mean_capable
            between = poisson_pmf(np.arange(cfg.L, u0), mean).sum(axis=1)
            assert np.all(between > 0.4)
        pl = greedy_placement(dist, cfg)[0]
        analytic = average_load_fast(pl, dist, cfg)
        est, se = estimate_average_load(pl, dist, cfg, trials=20_000, seed=3)
        assert abs(est - analytic.total) <= 3 * se + analytic.truncation_bound

    @pytest.mark.parametrize("snr_db", [0, 10, 20, 30, 40])
    @pytest.mark.parametrize("scheme", ["orthogonal", "non_orthogonal"])
    def test_agrees_across_snr_grid(self, uniform_dist, snr_db, scheme):
        cfg = default_config(snr=10.0 ** (snr_db / 10), scheme=scheme)
        pl = greedy_placement(uniform_dist, cfg)[0]
        analytic = average_load_fast(pl, uniform_dist, cfg)
        est, se = estimate_average_load(pl, uniform_dist, cfg, trials=20_000,
                                        seed=30 + snr_db)
        assert abs(est - analytic.total) <= 3 * se + analytic.truncation_bound

    def test_matches_request_load_composition(self, cfg, uniform_dist):
        # the vectorized block body must reproduce request_load exactly,
        # across a block boundary
        pl = Placement([2, 1, 1, 1, 0], cfg)
        trials = BLOCK_TRIALS + 3
        est, _ = estimate_average_load(pl, uniform_dist, cfg, trials=trials, seed=8)
        values = _request_load_trials(pl, uniform_dist, cfg, trials, seed=8)
        assert est == pytest.approx(np.mean(values), abs=1e-12)

    def test_block_boundary_prefixes(self, cfg, uniform_dist):
        # every trial count around a block boundary averages a prefix of the
        # same trial sequence
        pl = Placement([2, 1, 1, 1, 0], cfg)
        values = _request_load_trials(pl, uniform_dist, cfg, BLOCK_TRIALS + 1, seed=9)
        for trials in (BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1):
            est, se = estimate_average_load(pl, uniform_dist, cfg, trials, seed=9)
            assert est == pytest.approx(np.mean(values[:trials]), abs=1e-12)
            assert se == pytest.approx(np.std(values[:trials], ddof=1) / np.sqrt(trials),
                                       abs=1e-12)

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_estimates_are_pinned(self, key):
        case, scheme, trials = key
        cfg = default_config(scheme=scheme, **PIN_CONFIGS[case])
        assert _pin_estimate(cfg, trials) == PINNED[key]

    @pytest.mark.parametrize("pass_draws", [1, 2**40])
    @pytest.mark.parametrize("scheme", ["orthogonal", "non_orthogonal"])
    @pytest.mark.parametrize("overrides, trials", [
        (dict(), 255), (dict(), 256), (dict(), 257), (dict(), 30_000),
        (PIN_CONFIGS["F2_L40"], 2000),
        (PIN_CONFIGS["extend"], 2000),                   # extends the budget in a pass
        (dict(F=3, L=5, lam=0.2), 20_000),
    ])
    def test_any_pass_size_gives_the_same_bits(self, overrides, trials, scheme, pass_draws,
                                               monkeypatch):
        # one block per pass, and one pass per call, against the default passes
        cfg = default_config(scheme=scheme, **overrides)
        expected = _pin_estimate(cfg, trials)
        monkeypatch.setattr(montecarlo, "PASS_DRAWS", pass_draws)
        assert _pin_estimate(cfg, trials) == expected

    def test_stderr_exactly_zero_when_trials_agree(self):
        # at 0 dB every packet budget is 0, so every trial has the same load
        cfg = default_config(snr=1.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = greedy_placement(dist, cfg)[0]
        est, se = estimate_average_load(pl, dist, cfg, trials=100_000, seed=900)
        assert se == 0.0
        analytic = average_load_fast(pl, dist, cfg)
        assert abs(est - analytic.total) <= analytic.truncation_bound + 1e-12

    @pytest.mark.parametrize("scheme", ["orthogonal", "non_orthogonal"])
    def test_mean_is_exact_when_trials_agree(self, scheme):
        # every budget is 0 at 0 dB, so each trial loads (L - c) @ f; a plain
        # mean of the 100,000 equal values lands 1 ulp above it
        cfg = default_config(snr=1.0, scheme=scheme)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = greedy_placement(dist, cfg)[0]
        est, se = estimate_average_load(pl, dist, cfg, trials=100_000, seed=900)
        assert est == float((cfg.L - pl.c) @ zipf_popularity(cfg.F, cfg.gamma))
        assert est == 3.3294587259811763
        assert se == 0.0

    def test_single_trial_over_draw_cap_raises_before_allocating(self):
        cfg = default_config(F=1000, M=5, lam=2e6)     # mean_capable 1e6
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([0] * cfg.F, cfg)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                estimate_average_load(pl, dist, cfg, trials=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("trials", [MAX_TABLE_ENTRIES + 1, 10**11])
    def test_trials_over_the_cap_raise_before_allocating(self, cfg, uniform_dist, trials):
        # 1e11 trials would take 745 GiB of trial values alone
        pl = Placement([1] * cfg.F, cfg)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"trials={trials} is above the cap"):
                estimate_average_load(pl, uniform_dist, cfg, trials=trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16 and time.perf_counter() - start < 1.0

    def test_huge_mean_below_draw_cap(self):
        cfg = default_config(lam=1e6)                  # mean_capable 5e5, F=5
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([1] * cfg.F, cfg)
        est, se = estimate_average_load(pl, dist, cfg, trials=3, seed=0)
        assert np.isfinite(est) and np.isfinite(se)
        assert 0.0 <= est <= cfg.L

    def test_peak_memory_per_draw(self):
        # one trial at mean 5e5 draws 2.5e6 cache counts; int64 counts,
        # indices and gathers would peak near 37 bytes per draw
        cfg = default_config(lam=1e6)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([1] * cfg.F, cfg)
        tracemalloc.start()
        try:
            estimate_average_load(pl, dist, cfg, trials=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * cfg.mean_capable * cfg.F

    @pytest.mark.parametrize("overrides", [
        dict(mu=0.25),      # mean 2: 25 blocks of draws per pass
        dict(lam=0.025),    # mean 0.0125: a pass is capped by its (content, trial) cells
    ])
    def test_peak_memory_is_bounded_by_a_pass(self, overrides):
        # past the first passes, more trials add only their values: 8 bytes each
        cfg = default_config(**overrides)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = greedy_placement(dist, cfg)[0]
        peaks = {}
        for trials in (30_000, 100_000):
            tracemalloc.start()
            try:
                estimate_average_load(pl, dist, cfg, trials=trials, seed=0)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[100_000] - peaks[30_000] <= 1.25 * 8 * (100_000 - 30_000)

    @pytest.mark.parametrize("scheme", ["orthogonal", "non_orthogonal"])
    def test_counts_past_the_link_budget_extend_it(self, scheme, monkeypatch):
        # at n_trunc_epsilon=0.3 the memoized budget ends below counts the
        # trials draw, so the estimate extends it, and reads the same
        # budgets as under a table long enough from the start
        from d2dcache import montecarlo

        cfg = default_config(lam=4.0, snr=1e4, scheme=scheme, n_trunc_epsilon=0.3)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([1] * cfg.F, cfg)
        built = []
        build = montecarlo.build_link_budget
        monkeypatch.setattr(montecarlo, "build_link_budget",
                            lambda *args: built.append(args) or build(*args))
        short = estimate_average_load(pl, dist, cfg, trials=2000, seed=5)
        assert built
        long = replace(cfg, n_trunc_epsilon=1e-9)
        assert short == estimate_average_load(pl, dist, long, trials=2000, seed=5)

    def test_cached_config_computes_no_packet_budget(self, cfg, uniform_dist, monkeypatch):
        from d2dcache import channel, montecarlo

        def refuse(*args):
            raise AssertionError("packet budget computed")

        link_budget_for(cfg)
        monkeypatch.setattr(channel, "packet_budget", refuse)
        monkeypatch.setattr(montecarlo, "packet_budget", refuse, raising=False)
        pl = Placement([2, 1, 1, 1, 0], cfg)
        est, _ = estimate_average_load(pl, uniform_dist, cfg, trials=2000, seed=8)
        assert 0.0 <= est <= cfg.L

    def test_input_validation(self, cfg, uniform_dist):
        pl = Placement([0] * cfg.F, cfg)
        with pytest.raises(ValueError):
            estimate_average_load(pl, uniform_dist, cfg, trials=0, seed=0)
        with pytest.raises(ValueError):
            estimate_average_load(pl, uniform_dist, cfg, trials=10, seed=-1)
        with pytest.raises(TypeError, match="trials"):
            estimate_average_load(pl, uniform_dist, cfg, trials=1e4, seed=0)
        with pytest.raises(TypeError, match="seed"):
            estimate_average_load(pl, uniform_dist, cfg, trials=10, seed=1.5)
