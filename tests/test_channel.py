import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache import (
    CapacityError,
    NeighborCacheDistribution,
    Scheme,
    average_load_fast,
    build_link_budget,
    default_config,
    estimate_average_load,
    high_mobility_placement,
    interference_factor,
    jensen_gap_check,
    link_budget_for,
    packet_budget,
    poisson_truncation,
    rate,
    success_probability,
    greedy_placement,
    success_probability_mc,
)
from d2dcache.channel import (
    BLOCK_ENTRIES,
    MAX_NODE_PAIRS,
    _beta,
    _gauss_legendre,
    _interference_factor_at,
    _noise,
    wilson_interval,
)
from d2dcache.load import scenario
from d2dcache.model import poisson_pmf

# Frozen by an independent 40-digit mpmath adaptive-quadrature script
# (tau = 10**0.5, alpha = 4, radius = 5).
P1_BY_SNR_DB = {
    0: 0.019934480947138906,
    10: 0.063038363766189558,
    20: 0.19934480940693864,
    30: 0.60088663983813799,
    40: 0.93784848826104666,
}
P2_20DB = 0.14357573482149956
P2_40DB = 0.33190518712088666
BETA_AT_R5 = 0.089042734657853648
BETA_AT_R25 = 0.48764779135653099


class TestInterferenceFactor:
    def test_unity_at_origin(self, cfg):
        assert interference_factor(0.0, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_unity_in_low_threshold_limit(self):
        # 1 - beta shrinks like sqrt(tau) at alpha=4, so go deep
        cfg = default_config(tau=1e-20)
        for r in (0.5, 2.0, 5.0):
            assert interference_factor(r, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_reference_values(self, cfg):
        assert interference_factor(5.0, cfg) == pytest.approx(BETA_AT_R5, abs=1e-10)
        assert interference_factor(2.5, cfg) == pytest.approx(BETA_AT_R25, abs=1e-10)

    # Substituting y = x**(alpha/2) in the disc average gives beta in closed
    # form at alpha = 2 and 4.  Over tau in {0.1, 10**0.5, 10, 30} and R in
    # {1, 5, 50}, the 64-node rule is off by at most 3.3e-8 (alpha 2) and
    # 2.6e-7 (alpha 4) relative at its own nodes, and by 4.7e-8 and 2.5e-7
    # at 200 radii in [1e-3, R]: the tolerances leave about 4x headroom.
    @pytest.mark.parametrize("alpha, rel", [(2.0, 2e-7), (4.0, 1e-6)])
    @pytest.mark.parametrize("tau", [0.1, 10**0.5, 10.0, 30.0])
    @pytest.mark.parametrize("radius", [1.0, 5.0, 50.0])
    def test_closed_forms(self, alpha, rel, tau, radius):
        cfg = default_config(alpha=alpha, tau=tau, radius=radius)

        def closed(r):
            if alpha == 2.0:   # 1 - s ln(1 + 1/s), s = tau r^2 / R^2
                s = tau * r**2 / radius**2
                return 1.0 - s * np.log1p(1.0 / s)
            s = math.sqrt(tau) * r**2 / radius**2   # 1 - s arctan(1/s)
            return 1.0 - s * np.arctan(1.0 / s)

        nodes, _ = _gauss_legendre(cfg.quad_nodes, radius)
        assert np.allclose(_beta(cfg)[0], closed(nodes), rtol=rel, atol=0.0)
        r = np.linspace(1e-3, radius, 200)
        got = np.array([interference_factor(x, cfg) for x in r])
        assert np.allclose(got, closed(r), rtol=rel, atol=0.0)

    def test_monte_carlo_oracle(self, cfg):
        # E[x^a / (x^a + tau r^a)] with x = R sqrt(U): direct sampling
        rng = np.random.default_rng(123)
        r = cfg.radius
        x = cfg.radius * np.sqrt(rng.random(10**6))
        samples = x**cfg.alpha / (x**cfg.alpha + cfg.tau * r**cfg.alpha)
        est, se = samples.mean(), samples.std(ddof=1) / 1e3
        assert abs(interference_factor(r, cfg) - est) <= 3 * se

    def test_domain_error(self, cfg):
        with pytest.raises(ValueError):
            interference_factor(-0.1, cfg)
        with pytest.raises(ValueError):
            interference_factor(cfg.radius + 0.1, cfg)

    def test_node_count_above_the_pair_cap_allocates_nothing(self, monkeypatch):
        # 2048 nodes (about 100 MB of node pairs) is the largest rule allowed
        assert 2048**2 <= MAX_NODE_PAIRS < 2049**2

        def no_rule(n):
            raise AssertionError(f"a {n}-node rule was built")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
        for nodes in (2049, 16384):
            cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, quad_nodes=nodes)
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError, match="node pairs"):
                    success_probability(1, cfg)
                with pytest.raises(CapacityError, match="node pairs"):
                    interference_factor(1.0, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_extreme_channels_finish(self, scheme):
        # each term of beta is 1/(1 + tau*(r/x)**alpha), and the SINR sampler
        # divides through by the signal's path gain: at every radius the
        # powers are of distance ratios, so each config finishes with a
        # finite load and no numpy warning; an infinite noise exponent is a
        # noise factor of 0
        grid = itertools.product([1e-160, 1e-100, 5.0, 1e150], [0.01, 2.0, 4.0, 120.0, 1000.0],
                                 [1e-300, 3.16, 1e300], [1e-300, 100.0, 1e300])
        for radius, alpha, tau, snr in grid:
            cfg = default_config(radius=radius, alpha=alpha, tau=tau, snr=snr, scheme=scheme)
            dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                placement, _ = greedy_placement(dist, cfg)
                assert math.isfinite(average_load_fast(placement, dist, cfg).total), cfg
                high_mobility_placement(dist, cfg)
                assert jensen_gap_check(placement, dist, cfg).ok, cfg
                assert math.isfinite(estimate_average_load(placement, dist, cfg, 200, 1)[0]), cfg
                success_probability_mc(3, cfg, 200, 1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(radius=st.floats(-150, 150).map(lambda e: 10.0**e), alpha=st.floats(0.01, 200),
           tau=st.floats(-300, 300).map(lambda e: 10.0**e),
           snr=st.floats(-300, 300).map(lambda e: 10.0**e), scheme=st.sampled_from(Scheme))
    def test_wide_channels_finish(self, radius, alpha, tau, snr, scheme):
        cfg = default_config(radius=radius, alpha=alpha, tau=tau, snr=snr, scheme=scheme)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, log_beta = _beta(cfg)
            placement, _ = greedy_placement(dist, cfg)
            load = average_load_fast(placement, dist, cfg).total
            report = jensen_gap_check(placement, dist, cfg)
        assert np.isfinite(beta).all() and (beta >= 0).all() and (beta <= 1).all()
        assert (log_beta >= -746).all() and (log_beta <= 0).all()
        assert 0.0 <= load <= cfg.L
        assert report.ok

    @pytest.mark.parametrize("radius", [1e-100, 1e150])
    def test_beta_depends_on_the_radius_only_through_r_over_x(self, radius):
        # beta reads distance ratios, so scaling the disc changes it only by
        # the rounding of the scaled nodes
        at_one = _beta(default_config(radius=1.0, scheme=Scheme.NON_ORTHOGONAL))[0]
        scaled = _beta(default_config(radius=radius, scheme=Scheme.NON_ORTHOGONAL))[0]
        np.testing.assert_allclose(scaled, at_one, rtol=1e-15)

    def test_powers_below_the_float_range_give_a_finite_factor(self):
        # r**120 underflows at r = 1e-3 and so does x**120 at the smallest
        # nodes: 0/0 if formed apart, a finite term as a power of r/x
        cfg = default_config(alpha=120.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = interference_factor(1e-3, cfg)
        assert 0.0 <= beta <= 1.0 + 1e-12


class TestSuccessProbability:
    def test_low_threshold_limit(self):
        cfg = default_config(tau=1e-20)
        for u in (1, 2, 5):
            assert success_probability(u, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_high_snr_single_transmitter(self):
        cfg = default_config(snr=1e12)
        assert success_probability(1, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_reference_values(self):
        for snr_db, expected in P1_BY_SNR_DB.items():
            cfg = default_config(snr=10.0 ** (snr_db / 10))
            assert success_probability(1, cfg) == pytest.approx(expected, abs=1e-9)
        assert success_probability(2, default_config()) == pytest.approx(P2_20DB, abs=1e-9)
        assert success_probability(2, default_config(snr=1e4)) == pytest.approx(
            P2_40DB, abs=1e-9)

    def test_matches_monte_carlo(self, cfg):
        exact = success_probability(2, cfg)
        est, se = success_probability_mc(2, cfg, 10**6, seed=42)
        assert abs(exact - est) <= 3 * se

    def test_no_transmitter_is_error(self, cfg):
        with pytest.raises(ValueError):
            success_probability(0, cfg)

    def test_monotone_in_u(self, cfg):
        values = [success_probability(u, cfg) for u in range(1, 9)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_tau_and_snr(self):
        taus = [0.5, 1.0, 3.0, 10.0]
        vals = [success_probability(2, default_config(tau=t)) for t in taus]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        snrs = [1.0, 10.0, 100.0, 1e4]
        vals = [success_probability(2, default_config(snr=s)) for s in snrs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_quadrature_convergence_under_node_doubling(self, cfg):
        for u in (1, 3):
            a = success_probability(u, cfg)
            b = success_probability(u, default_config(quad_nodes=cfg.quad_nodes * 2))
            assert abs(a - b) < 1e-8

    def test_equals_a_build_from_scratch(self):
        # reference: every term of the quadrature rebuilt on each call
        def beta_pow(beta, k):
            """beta**k via exp(k*log(beta)), with the 0**0 = 1 convention at k = 0."""
            if k == 0:
                return np.ones_like(beta)
            out = np.zeros_like(beta)
            pos = beta > 0
            out[pos] = np.exp(k * np.log(beta[pos]))
            return out

        def from_scratch(u, cfg):
            r, w = _gauss_legendre(cfg.quad_nodes, cfg.radius)
            noise = np.exp(-(r ** cfg.alpha) * cfg.tau / cfg.snr)
            beta = _interference_factor_at(r, cfg) if u > 1 else np.ones_like(r)
            return float(np.dot(w, noise * beta_pow(beta, u - 1) * 2.0 * r / cfg.radius**2))

        for c in (default_config(), default_config(snr=1e4, alpha=3.0, quad_nodes=16),
                  default_config(tau=1e-12, radius=20.0), default_config(tau=1e3)):
            for scheme in Scheme:
                scfg = c.with_scheme(scheme)
                for u in (1, 2, 3, 7, 40, 1000):
                    assert success_probability(u, scfg) == from_scratch(u, scfg)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_array_u_equals_scalar_calls_across_a_block(self, scheme):
        # 8192 rows a block at 64 nodes, 1024 at 512
        for nodes in (64, 512):
            cfg = default_config(scheme=scheme, snr=1e4, quad_nodes=nodes)
            u = np.arange(1, BLOCK_ENTRIES // nodes + 3)   # the last two rows start a block
            p, r, b = success_probability(u, cfg), rate(u, cfg), packet_budget(u, cfg)
            assert p.shape == r.shape == b.shape == u.shape
            assert b.dtype.kind == "i"
            for k in u:
                assert p[k - 1] == success_probability(int(k), cfg)
                assert r[k - 1] == rate(int(k), cfg)
                assert b[k - 1] == packet_budget(int(k), cfg)
        assert type(success_probability(2, cfg)) is float
        assert type(packet_budget(2, cfg)) is int
        # the shape of u is kept, and a bad entry anywhere is refused
        grid = np.array([[1, 2], [3, 4]])
        assert np.array_equal(success_probability(grid, cfg), p[grid - 1])
        with pytest.raises(ValueError):
            success_probability(np.array([1, 0, 2]), cfg)

    def test_zero_interference_factor_keeps_zero_to_the_zero(self, patch_beta):
        cfg = default_config(scheme=Scheme.NON_ORTHOGONAL)
        r, w = _gauss_legendre(cfg.quad_nodes, cfg.radius)
        noise = _noise(cfg)
        zeroed = _beta(cfg)[0].copy()
        zeroed[::2] = 0.0
        entry = patch_beta(zeroed, cfg)
        assert (entry[1, ::2] == -746.0).all()
        scale = noise * 2.0 * r / cfg.radius**2
        p = success_probability(np.array([1, 3]), cfg)
        assert p[0] == float(np.dot(w, scale))      # beta**0 = 1, 0**0 included
        assert p[1] == pytest.approx(np.dot(w, scale * np.where(zeroed > 0, zeroed**2, 0.0)),
                                     rel=1e-12, abs=0.0)

    def test_disc_factors_read_only_and_a_hit_equals_a_fresh_build(self, cfg):
        for memo in (_beta, _noise):
            cached = memo(cfg)
            assert memo(cfg) is cached
            assert np.array_equal(cached, memo.__wrapped__(cfg))
            with pytest.raises(ValueError):
                cached[0] = 0.0

    def test_u1_builds_no_interference_factor(self, cfg, monkeypatch):
        from d2dcache import channel

        def refuse(c):
            raise RuntimeError("beta built")

        p1 = success_probability(1, cfg)
        budgets = build_link_budget(cfg, 10)
        monkeypatch.setattr(channel, "_beta", refuse)
        assert success_probability(1, cfg) == p1
        assert np.array_equal(success_probability(np.ones((2, 3), dtype=int), cfg),
                              np.full((2, 3), p1))
        # orthogonal access reads p(1) only, at every u
        assert np.array_equal(build_link_budget(cfg, 10), budgets)
        with pytest.raises(RuntimeError):
            success_probability(2, cfg)

    def test_u1_independent_of_interference_integral(self, cfg):
        # u=1 must equal the bare noise-limited integral over the disc
        from scipy.integrate import quad

        def integrand(r):
            return math.exp(-(r**cfg.alpha) * cfg.tau / cfg.snr) * 2 * r / cfg.radius**2

        direct, _ = quad(integrand, 0.0, cfg.radius, epsabs=1e-13, epsrel=1e-13)
        assert success_probability(1, cfg) == pytest.approx(direct, abs=1e-10)


class TestSuccessProbabilityMc:
    def test_low_threshold_limit(self):
        cfg = default_config(tau=1e-12)
        est, se = success_probability_mc(3, cfg, 1000, seed=0)
        # at p = 1 the one-sigma Wilson half-width is 1 / (2 (n + 1))
        assert est == 1.0 and se == pytest.approx(1 / (2 * 1001), rel=1e-12)

    def test_stderr_nonzero_at_certain_success(self):
        cfg = default_config(quad_nodes=8, alpha=2.0, snr=1e8)
        est, se = success_probability_mc(1, cfg, 200_000, seed=1)
        assert est == 1.0 and se > 0.0
        lo, hi = wilson_interval(est, 200_000, 1.0)
        assert se == (hi - lo) / 2

    def test_interior_stderr_is_the_plug_in_value(self, cfg):
        est, se = success_probability_mc(2, cfg, 5000, seed=7)
        assert 0.0 < est < 1.0
        assert se == math.sqrt(est * (1.0 - est) / 5000)

    def test_deterministic_for_seed(self, cfg):
        a = success_probability_mc(2, cfg, 5000, seed=7)
        b = success_probability_mc(2, cfg, 5000, seed=7)
        assert a == b

    def test_u1_matches_quadrature(self, cfg):
        est, se = success_probability_mc(1, cfg, 10**6, seed=11)
        assert abs(est - success_probability(1, cfg)) <= 3 * se

    @pytest.mark.parametrize("radius", [1e-100, 1e150])
    def test_scaled_discs_match_quadrature(self, radius):
        # the sampler divides the SINR through by the signal's path gain, so
        # it samples a disc whose powers r**alpha leave the float range too
        cfg = default_config(radius=radius, scheme=Scheme.NON_ORTHOGONAL)
        for u in (1, 2, 3):
            est, _ = success_probability_mc(u, cfg, 200_000, seed=u)
            lo, hi = wilson_interval(est, 200_000, 3.0)
            assert lo - 1e-12 <= success_probability(u, cfg) <= hi + 1e-12, u

    def test_input_validation(self, cfg):
        with pytest.raises(ValueError):
            success_probability_mc(0, cfg, 100, seed=0)
        with pytest.raises(ValueError):
            success_probability_mc(1, cfg, 0, seed=0)


class TestRate:
    def test_orthogonal_splits_exactly(self, cfg):
        assert rate(2, cfg) == rate(1, cfg) / 2
        assert rate(5, cfg) == rate(1, cfg) / 5

    def test_vanishes_at_low_threshold(self):
        for scheme in Scheme:
            cfg = default_config(tau=1e-15, scheme=scheme)
            assert rate(1, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_schemes_coincide_at_u1(self, cfg):
        noma = cfg.with_scheme(Scheme.NON_ORTHOGONAL)
        assert rate(1, cfg) == rate(1, noma)

    def test_domain_error(self, cfg):
        with pytest.raises(ValueError):
            rate(0, cfg)


class TestPacketBudget:
    def test_zero_rate_gives_zero(self):
        cfg = default_config(tau=1e-15)
        assert packet_budget(1, cfg) == 0

    def test_floor_semantics(self, cfg):
        for u in (1, 2, 3):
            assert packet_budget(u, cfg) == math.floor(cfg.L * rate(u, cfg) / cfg.mu)

    def test_frozen_default_values(self, cfg):
        # independent mpmath evaluation: L/mu * rate(1) = 1.4213907... at 20 dB
        assert packet_budget(1, cfg) == 1
        assert packet_budget(1, default_config(snr=1e4)) == 6

    @pytest.mark.parametrize("mu", [1e-300, 1.5e-19])
    def test_budgets_past_int64_are_refused_before_the_cast(self, mu):
        # L*rate(1)/mu is 1.42e300 and 9.48e18, both past 2**63: a cast would
        # wrap them, with a numpy warning, into negative budgets
        cfg = default_config(mu=mu, lam=0.0)
        assert cfg.L * rate(1, cfg) / cfg.mu >= 2.0**63
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (1, np.arange(1, 4)):
                with pytest.raises(CapacityError, match=f"at mu={mu:.6g} is past int64"):
                    packet_budget(u, cfg)
            with pytest.raises(CapacityError, match="past int64"):
                link_budget_for(cfg)

    def test_budgets_just_inside_int64_build(self):
        cfg = default_config(mu=1e-18, lam=1e-18)   # mean 0.5, budget 1.42e18 at u=1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = link_budget_for(cfg)
        assert table[1] == packet_budget(1, cfg) == math.floor(cfg.L * rate(1, cfg) / cfg.mu)
        assert (np.diff(table[1:]) <= 0).all() and (table >= 0).all()

    def test_floored_delivery_is_formed_past_int64(self):
        # mean 1000 under NOMA at snr=1: every budget fits int64, but u*b(u)
        # passes 2**63 for u >= 14, which an integer product wraps to negative
        cfg = default_config(mu=1.42e-19, lam=2.84e-16, snr=1.0, scheme=Scheme.NON_ORTHOGONAL)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        table = link_budget_for(cfg)
        u = np.arange(table.size)
        assert (u.astype(float) * table).max() >= 2.0**63
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            placement, _ = greedy_placement(dist, cfg)
            delivery = scenario(dist, cfg).delivery
            report = jensen_gap_check(placement, dist, cfg)
        mean = cfg.mean_capable * (1.0 - dist.q[0, 0])
        window = u[: poisson_truncation(cfg, mean) + 1]
        expected = float(np.dot(poisson_pmf(window, mean), window * table[window].astype(float)))
        assert delivery == pytest.approx(expected, rel=1e-12)
        assert (delivery > 0).all() and report.ok


class TestLinkBudget:
    def test_single_entry(self, cfg):
        budget = build_link_budget(cfg, 1)
        assert budget.tolist() == [0, packet_budget(1, cfg)]
        assert not budget.flags.writeable
        with pytest.raises(ValueError, match="u_max must be >= 1"):
            build_link_budget(cfg, 0)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_blocks_stop_at_the_first_zero_budget(self, scheme, monkeypatch):
        # at mean 5e6 the table has 5,013,418 entries and 1 (orthogonal) or
        # 2 (non-orthogonal) nonzero budgets: one block of u reaches the
        # quadrature, and the rest of the table is zero
        from d2dcache import channel

        cfg = default_config(lam=1e7, scheme=scheme)
        assert cfg.mean_capable == 5e6
        u_max = poisson_truncation(cfg)
        sizes = []
        monkeypatch.setattr(channel, "success_probability",
                            lambda u, c: sizes.append(np.size(u)) or success_probability(u, c))
        budget = build_link_budget(cfg, u_max)
        assert sum(sizes) <= BLOCK_ENTRIES // cfg.quad_nodes
        assert budget.size == u_max + 1 and 0 < np.count_nonzero(budget) <= 2

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_tables_do_not_depend_on_the_block(self, scheme, monkeypatch):
        # blocks of 1, 3 and 8192 counts u, with budgets that reach zero
        # within the first block, in a later one, or never
        from d2dcache import channel

        for mu in (0.001, 0.05, 1.0, 20.0):
            cfg = default_config(scheme=scheme, mu=mu, snr=1e3)
            whole = np.concatenate([[0], packet_budget(np.arange(1, 201), cfg)])
            assert np.array_equal(build_link_budget(cfg, 200), whole), mu
            for rows in (1, 3):
                with monkeypatch.context() as m:
                    m.setattr(channel, "BLOCK_ENTRIES", rows * cfg.quad_nodes)
                    assert np.array_equal(build_link_budget(cfg, 200), whole), (mu, rows)

    def test_tables_match_pointwise_ops(self):
        for scheme, snr in itertools.product(Scheme, (100.0, 1e4)):
            cfg = default_config(scheme=scheme, snr=snr)
            budget = build_link_budget(cfg, 10)
            for u in range(1, 11):
                assert budget[u] == packet_budget(u, cfg)

    def test_p_succ_non_increasing_noma(self):
        cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, snr=1e4)
        p = success_probability(np.arange(1, 3001), cfg)
        assert np.all(p >= 0) and np.all(p <= 1)
        assert np.all(np.diff(p) <= 0)

    def test_beta_above_one_is_clamped(self, monkeypatch):
        # a mean of terms <= 1 may round above 1; clamped, no power
        # beta**(u-1), and so no non-orthogonal budget, rises with u
        from d2dcache import channel

        cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, quad_nodes=8)
        monkeypatch.setattr(channel, "_interference_factor_at",
                            lambda r, c: np.full(r.shape, 1.0 + 2.0**-52))
        _beta.cache_clear()
        try:
            beta, log_beta = _beta(cfg)
        finally:
            _beta.cache_clear()
        assert np.all(beta == 1.0) and np.all(log_beta == 0.0)

    def test_budget_non_increasing_orthogonal(self):
        budget = build_link_budget(default_config(snr=1e4), 10)
        assert np.all(np.diff(budget[1:]) <= 0)

    def test_memory_is_bounded_by_the_block(self):
        # at mu = 1e-6 no budget up to u = 200,000 is zero, so every block is built
        cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, mu=1e-6)
        _beta(cfg), _noise(cfg)
        tracemalloc.start()
        try:
            budget = build_link_budget(cfg, 200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert budget.size == 200_001 and budget[-1] > 0
        # the budget table plus one or two block arrays of BLOCK_ENTRIES floats
        # (4 MB each); one unblocked (u, node) matrix alone would be 102 MB
        assert peak < 64 * 2**20

    def test_memory_per_block_does_not_grow_with_the_nodes(self):
        cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, quad_nodes=512)
        _beta(cfg), _noise(cfg)
        tracemalloc.start()
        try:
            build_link_budget(cfg, 8192)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block is BLOCK_ENTRIES (u, node) pairs at any node count; 8192
        # rows of 512 nodes would be 32 MB per temporary
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("table, match", [
        ([1, 2], "non-increasing"),
        ([-1], "nonnegative"),
    ])
    def test_invariant_violations_rejected(self, table, match, monkeypatch):
        from d2dcache import channel

        monkeypatch.setattr(channel, "packet_budget", lambda u, cfg: np.array(table))
        with pytest.raises(ValueError, match=match):
            build_link_budget(default_config(), len(table))


def reference_success_probability(u, cfg, beta):
    """success_probability with the interference factors ``beta``, step by
    step: log(beta) and exp(k log(beta)) under errstate, the 0**0 = 1 mask
    at beta = 0, and beta = 1 where every u is 1."""
    k = np.asarray(u) - 1
    r, w = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    noise = _noise(cfg)
    beta = beta if k.any() else np.ones(1)
    with np.errstate(divide="ignore"):
        log_beta = np.log(beta)
    flat = k.reshape(-1, 1)
    out = np.empty(flat.shape[0])
    rows = max(1, BLOCK_ENTRIES // cfg.quad_nodes)
    for lo in range(0, out.size, rows):
        kb = flat[lo:lo + rows]
        with np.errstate(invalid="ignore"):
            power = np.exp(kb * log_beta)
        power[:, beta == 0] = kb == 0
        power = noise * power * 2.0 * r / cfg.radius**2
        out[lo:lo + rows] = np.vecdot(power, w)
    return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)


def reference_link_budget(cfg, u_max, beta):
    """build_link_budget from reference_success_probability, its table
    joined from the sentinel and the budgets."""
    u = np.arange(1, u_max + 1)
    if cfg.scheme is Scheme.ORTHOGONAL:
        rates = reference_success_probability(1, cfg, beta) * math.log1p(cfg.tau) / u
    else:
        rates = reference_success_probability(u, cfg, beta) * math.log1p(cfg.tau)
    return np.concatenate(([0], np.floor(cfg.L * rates / cfg.mu).astype(int)))


def channels(seed, count, extreme):
    """Seeded configs over both schemes and 8 to 128 nodes.  Extreme: alpha
    in [0.01, 200], radius in [1e-160, 1e150], tau and snr in [1e-300,
    1e300]; else alpha in [2, 5], radius in [0.1, 100], tau in [0.1, 30] and
    snr in [1, 1e5], where few noise factors are exactly 0 or 1."""
    rng = np.random.default_rng(seed)
    alpha, radius, tau, snr = ((0.01, 200), (-160, 150), (-300, 300), (-300, 300)) if extreme \
        else ((2, 5), (-1, 2), (-1, 1.5), (0, 5))
    for _ in range(count):
        yield default_config(
            scheme=list(Scheme)[rng.integers(2)], quad_nodes=int(rng.integers(8, 129)),
            alpha=float(rng.uniform(*alpha)), radius=float(10 ** rng.uniform(*radius)),
            tau=float(10 ** rng.uniform(*tau)), snr=float(10 ** rng.uniform(*snr)))


class TestBitIdentity:
    """The memoized, floored log(beta), the u = 1 dot and the in-place
    budget table give every bit that the step-by-step reference gives."""

    U = (1, 7, np.ones(5, dtype=int), np.array([1, 2, 1, 40, 3]),
         np.arange(1, 61).reshape(4, 15), np.array([10**6, 2**40]))

    @staticmethod
    def same(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes() and type(a) is type(b)

    @pytest.mark.parametrize("extreme", [False, True])
    def test_channels(self, extreme, monkeypatch):
        from d2dcache import optimize
        from d2dcache.load import _windows

        for cfg in channels(34, 200, extreme):
            r, _ = _gauss_legendre(cfg.quad_nodes, cfg.radius)
            beta = np.minimum(_interference_factor_at(r, cfg), 1.0)
            for u in self.U:
                assert self.same(success_probability(u, cfg),
                                 reference_success_probability(u, cfg, beta)), (cfg, u)
            assert self.same(build_link_budget(cfg, 50), reference_link_budget(cfg, 50, beta)), cfg
            widest = max(1, int(_windows(cfg, np.zeros(1).tobytes())[1][0]))
            assert self.same(link_budget_for(cfg), reference_link_budget(cfg, widest, beta)), cfg
            gap = optimize.gap_constant(cfg)
            with monkeypatch.context() as m:
                m.setattr(optimize, "success_probability",
                          lambda u, c: reference_success_probability(u, c, beta))
                assert gap == optimize.gap_constant(cfg), cfg

    @pytest.mark.parametrize("extreme", [False, True])
    def test_a_zero_interference_factor(self, extreme, patch_beta, monkeypatch):
        # one node's factor zeroed, or, in every fourth config, every node's
        for i, cfg in enumerate(channels(35, 40, extreme)):
            beta = _beta(cfg)[0].copy()
            beta[i % beta.size if i % 4 else slice(None)] = 0.0
            patch_beta(beta, cfg)
            for u in self.U:
                assert self.same(success_probability(u, cfg),
                                 reference_success_probability(u, cfg, beta)), (cfg, u)
            assert self.same(build_link_budget(cfg, 50), reference_link_budget(cfg, 50, beta)), cfg
            monkeypatch.undo()
