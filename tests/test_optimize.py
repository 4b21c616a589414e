import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    Scheme,
    average_load_fast,
    check_matroid_axioms,
    check_submodularity,
    default_config,
    exhaustive_placement,
    expected_stay_time,
    gap_constant,
    greedy_placement,
    high_mobility_continuous,
    high_mobility_placement,
    jensen_gap_check,
    noma_delivery_mean,
    per_content_delivery,
    poisson_truncation,
    rate,
    relaxed_objective,
    success_probability,
    zipf_popularity,
)
from d2dcache.channel import _beta, expected_successes
from d2dcache.load import delivered_packets_pmf, link_budget_for, scenario, shortfall_tables
from d2dcache.model import poisson_pmf
from d2dcache.optimize import U_SCAN


def oracle_instances(seed, count):
    """Random instances with F, L <= 4: uniform and heterogeneous cache rows,
    gamma = 0 (many ties) and random gamma."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        F, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        q = rng.random((F, L + 1)) if k % 2 else np.ones((F, L + 1))
        q /= q.sum(axis=1, keepdims=True)
        cfg = default_config(
            F=F, L=L, M=int(rng.integers(0, F * L + 1)),
            gamma=0.0 if k % 4 < 2 else float(rng.uniform(0.0, 2.0)),
            lam=float(rng.uniform(0.0, 4.0)), snr=float(10 ** rng.uniform(0, 4)),
        )
        yield cfg, NeighborCacheDistribution(q)


class TestGreedy:
    def test_no_neighbors_fills_most_popular(self):
        cfg = default_config(lam=0.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        placement, trace = greedy_placement(dist, cfg)
        assert placement.c.tolist() == [5, 0, 0, 0, 0]
        assert len(trace) == cfg.M

    def test_empty_memory(self):
        cfg = default_config(M=0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        placement, trace = greedy_placement(dist, cfg)
        assert placement.c.tolist() == [0] * cfg.F
        assert trace == []

    def test_trace_gains_non_increasing(self, cfg, uniform_dist):
        _, trace = greedy_placement(uniform_dist, cfg)
        gains = [g for _, g in trace]
        assert all(b <= a + 1e-12 for a, b in zip(gains, gains[1:]))
        assert all(g >= -1e-12 for g in gains)

    def test_near_optimality_bound(self, cfg, uniform_dist):
        empty = Placement([0] * cfg.F, cfg)
        base = average_load_fast(empty, uniform_dist, cfg).total
        g = average_load_fast(greedy_placement(uniform_dist, cfg)[0],
                              uniform_dist, cfg).total
        x = average_load_fast(exhaustive_placement(uniform_dist, cfg),
                              uniform_dist, cfg).total
        best_gain = base - x
        if best_gain > 0:
            assert (base - g) / best_gain >= 1 - 1 / math.e - 1e-12


def greedy_reference(s, cfg):
    """Greedy as a packet-by-packet argmax loop over the shortfall tables:
    the reference that the sorted selection must reproduce exactly."""
    c = np.zeros(cfg.F, dtype=int)
    trace = []
    for _ in range(cfg.M):
        gains = np.full(cfg.F, -np.inf)
        idx = np.flatnonzero(c < cfg.L)
        gains[idx] = s.f[idx] * (s.tables[idx, c[idx]] - s.tables[idx, c[idx] + 1])
        best = int(np.argmax(gains))
        trace.append((best, float(gains[best])))
        c[best] += 1
    return c, trace


def integerize_reference(deliverable, cfg):
    """Marginal-value packing as a packet-by-packet argmax loop."""
    t = np.minimum(cfg.L, cfg.L - np.asarray(deliverable, dtype=float))
    full = np.floor(t)
    frac = t - full
    cap = full + (frac > 0)
    f = zipf_popularity(cfg.F, cfg.gamma)
    c = np.zeros(cfg.F, dtype=int)
    for _ in range(cfg.M):
        marginal = np.where(c < full, f, np.where(c < cap, f * frac, -np.inf))
        best = int(np.argmax(marginal))
        if marginal[best] <= 0:
            break
        c[best] += 1
    return c


def selection_instances(seed, count):
    """Random configs with F, L <= 8, gamma = 0 (ties) in half of them, and
    cache rows that are uniform, one random row repeated, or all distinct."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        F, L = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if k % 3 == 0:
            q = np.ones((F, L + 1))
        elif k % 3 == 1:
            q = np.tile(rng.random(L + 1), (F, 1))
        else:
            q = rng.random((F, L + 1))
        q /= q.sum(axis=1, keepdims=True)
        cfg = default_config(
            F=F, L=L, M=int(rng.integers(0, F * L + 1)),
            gamma=0.0 if k % 2 else float(rng.uniform(0.0, 2.0)),
            lam=float(rng.uniform(0.0, 4.0)), snr=float(10 ** rng.uniform(0, 4)),
            scheme=list(Scheme)[k % 4 // 2],
        )
        yield cfg, NeighborCacheDistribution(q), rng


class TestPacketSelection:
    def test_greedy_equals_argmax_loop(self):
        rising = 0
        for cfg, dist, _ in selection_instances(5, 600):
            s = scenario(dist, cfg)
            placement, trace = greedy_placement(dist, cfg)
            c, ref_trace = greedy_reference(s, cfg)
            assert placement.c.tolist() == c.tolist(), cfg
            assert trace == ref_trace, cfg
            rising += bool(np.any(np.diff(s.gains, axis=1) > 0))
        # some float gains rise by a rounding error as c grows, so the
        # running-minimum ranking is exercised
        assert rising > 0

    def test_integerize_equals_argmax_loop(self):
        from d2dcache.optimize import _integerize
        for k, (cfg, _, rng) in enumerate(selection_instances(6, 600)):
            # scalar, per-content, and out-of-range counts (below 0, above L);
            # quarter steps hit integer thresholds and exact ties
            shape = () if k % 2 else (cfg.F,)
            deliverable = np.round(rng.uniform(-1.0, cfg.L + 1.0, shape) * 4) / 4
            if k % 3 == 0:
                deliverable = rng.uniform(-1.0, cfg.L + 1.0, shape)
            assert (_integerize(deliverable, cfg).tolist()
                    == integerize_reference(deliverable, cfg).tolist()), (cfg, deliverable)


class TestExhaustive:
    def test_no_neighbors_fills_popularity_order(self):
        cfg = default_config(lam=0.0, M=7)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        assert exhaustive_placement(dist, cfg).c.tolist() == [5, 2, 0, 0, 0]

    def test_full_memory_reaches_zero_load(self):
        cfg = default_config(F=2, L=2, M=4, lam=0.5)
        dist = NeighborCacheDistribution.uniform(2, 2)
        best = exhaustive_placement(dist, cfg)
        assert best.c.tolist() == [2, 2]
        assert average_load_fast(best, dist, cfg).total == 0.0

    def test_beats_random_placements(self, cfg, uniform_dist):
        best = average_load_fast(exhaustive_placement(uniform_dist, cfg),
                                 uniform_dist, cfg).total
        g = average_load_fast(greedy_placement(uniform_dist, cfg)[0],
                              uniform_dist, cfg).total
        assert best <= g + 1e-12
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = rng.integers(0, cfg.L + 1, cfg.F)
            while c.sum() > cfg.M:
                c[np.argmax(c)] -= 1
            load = average_load_fast(Placement(c, cfg), uniform_dist, cfg).total
            assert best <= load + 1e-12

    def test_lexicographic_tie_break(self):
        # gamma=0 without neighbors: every full placement ties
        cfg = default_config(F=2, L=1, M=1, gamma=0.0, lam=0.0)
        dist = NeighborCacheDistribution.uniform(2, 1)
        assert exhaustive_placement(dist, cfg).c.tolist() == [0, 1]

    def test_a_million_single_packet_contents_are_refused_at_once(self, monkeypatch):
        # each content is a Python-level step of about 5 us, counted as 2,500
        # entries: 1e6 * (2 * 2 + 2500) steps, refused before any table
        from d2dcache import optimize

        def no_scenario(*args):
            raise AssertionError("scenario built before the capacity check")

        monkeypatch.setattr(optimize, "scenario", no_scenario)
        cfg = default_config(F=1_000_000, L=1, M=1)
        with pytest.raises(CapacityError, match="needs 2504000000 steps"):
            exhaustive_placement(NeighborCacheDistribution.uniform(cfg.F, cfg.L), cfg)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_dp_matches_brute_force_and_greedy(self, scheme):
        # the brute force is the reference: every feasible placement's load
        for cfg, dist in oracle_instances(11, 120):
            cfg = cfg.with_scheme(scheme)
            s = scenario(dist, cfg)
            every = np.array([c for c in itertools.product(range(cfg.L + 1), repeat=cfg.F)
                              if sum(c) <= cfg.M])
            brute = (s.f * s.tables[np.arange(cfg.F), every]).sum(axis=1).min()
            dp = average_load_fast(exhaustive_placement(dist, cfg), dist, cfg).total
            greedy = average_load_fast(greedy_placement(dist, cfg)[0], dist, cfg).total
            assert dp == pytest.approx(brute, abs=1e-12)
            assert greedy == pytest.approx(dp, abs=1e-12)

    def test_candidate_arrays_pick_as_the_packet_loop(self, monkeypatch):
        # the min-plus step as a loop over (content, c), a candidate replacing
        # the best only where strictly lower: whole candidate arrays, and
        # arrays of one row per block, pick the same first minimum
        from d2dcache import optimize

        def loop_dp(dist, cfg):
            K = min(cfg.L, cfg.M)
            s = scenario(dist, cfg)
            value = np.zeros(cfg.M + 1)
            choice = np.zeros((cfg.F, cfg.M + 1), dtype=int)
            for i in reversed(range(cfg.F)):
                best = s.f[i] * s.tables[i, 0] + value
                for c in range(1, K + 1):
                    cand = s.f[i] * s.tables[i, c] + value[: cfg.M + 1 - c]
                    better = cand < best[c:]
                    best[c:][better] = cand[better]
                    choice[i, c:][better] = c
                value = best
            c, budget = [], cfg.M
            for i in range(cfg.F):
                c.append(int(choice[i, budget]))
                budget -= c[-1]
            return c

        instances = list(oracle_instances(12, 80))
        expected = [loop_dp(dist, cfg) for cfg, dist in instances]
        for entries in (optimize.BLOCK_ENTRIES, 1):
            monkeypatch.setattr(optimize, "BLOCK_ENTRIES", entries)
            got = [exhaustive_placement(dist, cfg).c.tolist() for cfg, dist in instances]
            assert got == expected

    def test_dp_reaches_greedy_load_at_a_thousand_contents(self):
        cfg = default_config(F=1000, L=20, M=2000, lam=20.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        dp = average_load_fast(exhaustive_placement(dist, cfg), dist, cfg).total
        greedy = average_load_fast(greedy_placement(dist, cfg)[0], dist, cfg).total
        assert dp == pytest.approx(greedy, abs=1e-12)


class TestMatroid:
    @pytest.mark.parametrize("F,L,M", [(2, 2, 2), (1, 1, 0), (2, 2, 4), (3, 2, 3)])
    def test_axioms_pass(self, F, L, M):
        report = check_matroid_axioms(F, L, M)
        assert report.passed, report.counterexample
        assert report.ground_size == F * L

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            check_matroid_axioms(4, 4, 2)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            check_matroid_axioms(2, 2, 5)

    @pytest.mark.parametrize("F,L", [(2, 2), (1, 7), (3, 4)])
    def test_counts_independent_sets(self, F, L):
        # subsets of an n-set with size <= M: 1 + 4 + 6 at n = 4 and M = 2
        n = F * L
        for M in range(n + 1):
            report = check_matroid_axioms(F, L, M)
            assert report.passed, report.counterexample
            assert report.independent_sets == sum(math.comb(n, k) for k in range(M + 1))


class TestSubmodularity:
    def test_zero_violations_on_defaults(self, cfg, uniform_dist):
        report = check_submodularity(uniform_dist, cfg, samples=2000, seed=99)
        assert report.passed
        assert report.violations == 0
        assert report.min_gain >= -1e-12

    def test_constant_gains_without_neighbors(self):
        cfg = default_config(lam=0.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        report = check_submodularity(dist, cfg, samples=500, seed=1)
        assert report.passed
        # gains equal f_i at every level: chain differences vanish
        assert abs(report.worst_excess) <= 1e-12

    def test_deterministic_per_seed(self, cfg, uniform_dist):
        a = check_submodularity(uniform_dist, cfg, samples=300, seed=5)
        b = check_submodularity(uniform_dist, cfg, samples=300, seed=5)
        assert a == b

    def test_a_rising_gain_is_a_violation(self, monkeypatch):
        # content 1's third packet gains more than its second, and content
        # 0's third gains less than nothing; the report is that of a loop
        # over the same draws
        from types import SimpleNamespace

        from d2dcache import optimize

        gains = np.array([[3.0, 2.0, -1e-3], [3.0, 2.0, 2.5]])
        monkeypatch.setattr(optimize, "scenario", lambda d, c: SimpleNamespace(gains=gains))
        cfg = default_config(F=2, L=3, M=0)
        report = check_submodularity(None, cfg, samples=2000, seed=4)
        assert not report.passed
        assert report.violations > 0 and report.worst_excess > optimize.GAIN_SLACK
        rng = np.random.default_rng(4)
        i = rng.integers(cfg.F, size=2000)
        c = rng.integers(0, cfg.L, 2000)
        pairs = [(gains[a, b], gains[a, b_sub])
                 for a, b, b_sub in zip(i, c, rng.integers(0, c + 1))]
        slack = optimize.GAIN_SLACK
        assert report.violations == sum(sup - sub > slack or min(sup, sub) < -slack
                                        for sup, sub in pairs)
        assert report.worst_excess == max(sup - sub for sup, sub in pairs) == 0.5
        assert report.min_gain == min(min(pair) for pair in pairs) == -1e-3

    def test_samples_draw_no_count_vector(self):
        # a content's gain reads its own count alone, so no sample draws F
        # counts, and the samples take milliseconds at any F
        cfg = default_config(F=100_000, L=1, M=1)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        scenario(dist, cfg)
        start = time.perf_counter()
        report = check_submodularity(dist, cfg, samples=2000, seed=3)
        assert time.perf_counter() - start < 0.05
        assert report.passed and report.samples == 2000


def enum_delivery_oracle(q_i, cfg, scheme):
    """Expected per-stay D2D delivery by explicit neighbor-vector enumeration.

    Independent of the thinned-Poisson collapse used by the library: sums
    over the raw capable-user count and every cache vector, counting
    transmitters directly.
    """
    n_max = poisson_truncation(cfg)
    p1 = success_probability(1, cfg)
    log_term = math.log1p(cfg.tau)
    total = 0.0
    for n in range(n_max + 1):
        p_n = poisson_pmf(n, cfg.mean_capable)
        for d in itertools.product(range(cfg.L + 1), repeat=n):
            u = sum(1 for dk in d if dk > 0)
            if u == 0:
                continue
            w = math.prod(q_i[dk] for dk in d)
            if scheme is Scheme.ORTHOGONAL:
                term = u * math.floor(cfg.L / (u * cfg.mu) * p1 * log_term)
            else:
                term = (cfg.L / cfg.mu * log_term
                        * u * success_probability(u, cfg))
            total += p_n * w * term
    return total


def long_noma_sum(q_i, cfg):
    """(L/mu) log(1+tau) E[u P[SINR>tau | u]] as the Poisson sum over u, run
    40 standard deviations past the mean, where the terms left out underflow."""
    m = (1.0 - q_i[0]) * cfg.mean_capable
    u = np.arange(1, int(m + 40 * math.sqrt(m)) + 60)
    p_succ = success_probability(u, cfg)
    return cfg.L / cfg.mu * math.log1p(cfg.tau) * float(np.dot(poisson_pmf(u, m), u * p_succ))


class TestDeliveryMeans:
    def test_zero_without_arrivals(self):
        cfg = default_config(lam=0.0)
        q = np.full(cfg.L + 1, 1.0 / (cfg.L + 1))
        assert delivered_packets_pmf(q[None], cfg, link_budget_for(cfg))[2][0] == 0.0
        assert noma_delivery_mean(q, cfg) == 0.0

    def test_zero_at_low_threshold(self):
        cfg = default_config(tau=1e-12)
        q = np.full(cfg.L + 1, 1.0 / (cfg.L + 1))
        assert delivered_packets_pmf(q[None], cfg, link_budget_for(cfg))[2][0] == 0.0
        assert noma_delivery_mean(q, cfg) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("snr_db,mu", [(40.0, 1.0), (20.0, 10.0), (30.0, 2.0)])
    def test_against_enumeration_oracle(self, snr_db, mu):
        cfg = default_config(L=3, lam=0.2, mu=mu, eta=1.0,
                             snr=10 ** (snr_db / 10), n_trunc_epsilon=1e-10)
        rng = np.random.default_rng(int(snr_db * 10 + mu))
        q = rng.random(cfg.L + 1)
        q /= q.sum()
        budget = link_budget_for(cfg)
        assert delivered_packets_pmf(q[None], cfg, budget)[2][0] == pytest.approx(
            enum_delivery_oracle(q, cfg.with_scheme(Scheme.ORTHOGONAL),
                                 Scheme.ORTHOGONAL), abs=1e-7)
        assert noma_delivery_mean(q, cfg) == pytest.approx(
            enum_delivery_oracle(q, cfg.with_scheme(Scheme.NON_ORTHOGONAL),
                                 Scheme.NON_ORTHOGONAL), abs=1e-7)

    def test_noma_closed_form_equals_a_long_sum(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            cfg = default_config(
                scheme=Scheme.NON_ORTHOGONAL, L=int(rng.integers(1, 8)),
                eta=float(rng.uniform(0.05, 1.0)), lam=float(10 ** rng.uniform(-1, 2)),
                mu=float(10 ** rng.uniform(-1, 1)), snr=float(10 ** rng.uniform(0, 4)),
                tau=float(10 ** rng.uniform(-1, 1.5)), alpha=float(rng.uniform(2.5, 4.5)),
                quad_nodes=int(rng.choice([16, 64])),
            )
            q = rng.dirichlet(np.ones(cfg.L + 1))
            assert noma_delivery_mean(q, cfg) == pytest.approx(
                long_noma_sum(q, cfg), rel=1e-9, abs=0.0)

    def test_noma_closed_form_edges(self, monkeypatch, patch_beta):
        cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, lam=4.0, snr=1e4)
        q = np.full(cfg.L + 1, 1.0 / (cfg.L + 1))
        # at a zeroed interference factor only u = 1 transmits (0**0 = 1),
        # which the closed form gives as m * exp(-m)
        zeroed = _beta(cfg)[0].copy()
        zeroed[::2] = 0.0
        patch_beta(zeroed, cfg)
        assert noma_delivery_mean(q, cfg) == pytest.approx(long_noma_sum(q, cfg),
                                                           rel=1e-9, abs=0.0)
        monkeypatch.undo()
        # no capable users, or no neighbour holding a packet: exactly nothing
        assert noma_delivery_mean(q, default_config(lam=0.0)) == 0.0
        assert noma_delivery_mean(np.eye(1, cfg.L + 1)[0], cfg) == 0.0

    def test_builds_no_link_budget(self, monkeypatch):
        from d2dcache import load

        built = []
        build = load.build_link_budget
        monkeypatch.setattr(load, "build_link_budget",
                            lambda *args: built.append(args) or build(*args))
        load.link_budget_for.cache_clear()
        cfg = default_config(lam=100.0)
        rng = np.random.default_rng(4)
        rows = rng.dirichlet(np.ones(cfg.L + 1), size=50)
        values = [noma_delivery_mean(q_i, cfg) for q_i in rows]
        assert values[0] == noma_delivery_mean(rows[0], cfg)
        # a mean capable count of 5e5 costs one sum over the nodes too
        assert math.isfinite(noma_delivery_mean(rows[0], default_config(lam=1e6)))
        assert built == []

    @pytest.mark.parametrize("lam", [0.5, 40.0, 2e3])
    def test_rows_in_one_call_equal_one_row_calls(self, lam):
        # windows of different lengths and q0 = 1; a row padded with zeros
        # past its window may be summed in another order, so the orthogonal
        # values agree to rounding, and the rest exactly
        cfg = default_config(F=12, lam=lam)
        rng = np.random.default_rng(int(lam))
        rows = rng.dirichlet(np.ones(cfg.L + 1) * 0.3, size=12)
        rows[3] = np.eye(cfg.L + 1)[0]
        budget = link_budget_for(cfg)
        value = scenario(NeighborCacheDistribution(rows), cfg).delivery
        bound = shortfall_tables(rows, cfg, budget)[3]
        assert len(set(poisson_truncation(cfg, (1 - rows[:, 0]) * cfg.mean_capable))) > 2
        for i, q_i in enumerate(rows):
            *_, one_value, one_bound = delivered_packets_pmf(q_i[None], cfg, budget)
            assert value[i] == pytest.approx(one_value[0], rel=1e-15, abs=0.0)
            assert bound[i] == one_bound[0]
            assert noma_delivery_mean(rows, cfg)[i] == noma_delivery_mean(q_i, cfg)
        assert value[3] == 0.0 and bound[3] == 0.0

    def test_noma_memory_per_row_is_bounded(self):
        # the quadrature runs in blocks of rows, so a stack of rows costs a
        # few floats per row beyond one block, not a row of nodes each
        import tracemalloc

        cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, L=1, lam=4.0)
        one = noma_delivery_mean(np.array([0.25, 0.75]), cfg)   # builds the memoized nodes
        peaks = {}
        for rows in (2**15, 2**17):
            q = np.tile([0.25, 0.75], (rows, 1))
            tracemalloc.start()
            values = noma_delivery_mean(q, cfg)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert (values == one).all()
        assert peaks[2**17] - peaks[2**15] <= 100 * (2**17 - 2**15)


class TestHighMobilityPlacement:
    def test_continuous_threshold_fill(self):
        cfg = default_config()   # L=5, M=5
        assert high_mobility_continuous(3.0, cfg).tolist() == [2.0, 2.0, 1.0, 0.0, 0.0]

    def test_continuous_no_help_fills_most_popular(self):
        cfg = default_config()
        assert high_mobility_continuous(0.0, cfg).tolist() == [5.0, 0, 0, 0, 0]

    def test_continuous_saturated_delivery_caches_nothing(self):
        cfg = default_config()
        assert high_mobility_continuous(5.0, cfg).tolist() == [0.0] * 5
        assert high_mobility_continuous(6.5, cfg).tolist() == [0.0] * 5

    def test_continuous_excess_memory_stops_at_threshold(self):
        cfg = default_config(F=2, L=5, M=9)
        assert high_mobility_continuous(1.5, cfg).tolist() == [3.5, 3.5]

    def test_integer_placement_no_arrivals(self):
        cfg = default_config(lam=0.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = high_mobility_placement(dist, cfg)
        assert pl.c.tolist() == [5, 0, 0, 0, 0]

    def test_integer_rounding_fractional_threshold(self):
        from d2dcache.optimize import _integerize
        cfg = default_config()
        assert high_mobility_continuous(2.5, cfg).tolist() == [2.5, 2.5, 0.0, 0.0, 0.0]
        # t = 2.5: third packet of a content is worth half its popularity,
        # so content 3's first full packet beats content 1's top-up
        assert _integerize(2.5, cfg).tolist() == [2, 2, 1, 0, 0]
        # integer threshold: plain threshold fill
        assert _integerize(3.0, cfg).tolist() == [2, 2, 1, 0, 0]
        # near-integer threshold from below: top-up beats opening content 2
        assert _integerize(0.05, cfg).tolist() == [5, 0, 0, 0, 0]

    def test_integer_placement_is_relaxed_optimum(self, uniform_dist):
        # brute force over all feasible integer placements
        from itertools import product
        from d2dcache.optimize import _integerize
        cfg = default_config(F=3, L=3, M=4)
        f = zipf_popularity(cfg.F, cfg.gamma)
        for t in (0.4, 1.0, 1.7, 2.5, 2.94, 3.0):
            delivery = cfg.L - t
            best = min(
                float(np.dot(f, np.maximum(0.0, cfg.L - np.array(c) - delivery)))
                for c in product(range(cfg.L + 1), repeat=cfg.F)
                if sum(c) <= cfg.M
            )
            mine = _integerize(delivery, cfg)
            value = float(np.dot(f, np.maximum(0.0, cfg.L - mine - delivery)))
            assert value == pytest.approx(best, abs=1e-12), (t, mine)

    def test_structure_non_increasing_and_capped(self, uniform_dist):
        import math as _math
        for snr in (100.0, 1e4):
            cfg = default_config(snr=snr)
            for scheme in Scheme:
                scfg = cfg.with_scheme(scheme)
                pl = high_mobility_placement(uniform_dist, scfg)
                assert np.all(np.diff(pl.c) <= 0)
                assert pl.c.sum() <= cfg.M
                delivery = per_content_delivery(uniform_dist, scfg)
                assert np.all(delivery >= 0)
                assert pl.c.max() <= _math.ceil(cfg.L - delivery[0])

    def test_builds_no_shortfall_table(self, cfg, uniform_dist, monkeypatch):
        # the non-orthogonal deliverable counts are a closed form over the
        # quadrature nodes
        from d2dcache import load

        def no_tables(*args):
            raise AssertionError("shortfall table built")

        monkeypatch.setattr(load, "delivered_packets_pmf", no_tables)
        load._build_scenario.cache_clear()
        pl = high_mobility_placement(uniform_dist, cfg.with_scheme(Scheme.NON_ORTHOGONAL))
        assert pl.c.sum() <= cfg.M

    def test_orthogonal_delivery_is_read_from_the_greedy_scenario(self, cfg, uniform_dist,
                                                                 monkeypatch):
        # the orthogonal deliverable counts come with the shortfall tables,
        # so a placement after greedy on the same (rows, config) forms no
        # further Poisson window
        from d2dcache import load
        from d2dcache.optimize import _integerize

        assert cfg.scheme is Scheme.ORTHOGONAL
        one_row = delivered_packets_pmf(uniform_dist.q[:1], cfg, link_budget_for(cfg))[2][0]
        expected = Placement(_integerize(one_row, cfg), cfg)
        load._build_scenario.cache_clear()
        greedy_placement(uniform_dist, cfg)
        calls = []
        for module, name in ((load, "delivered_packets_pmf"), (load, "poisson_truncation")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, f=original, n=name: calls.append(n) or f(*args))
        assert high_mobility_placement(uniform_dist, cfg) == expected
        assert calls == []

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_repeated_rows_match_per_row(self, cfg, scheme):
        from d2dcache.optimize import _integerize

        def fn(q_i, cfg):   # one row alone
            if scheme is Scheme.ORTHOGONAL:
                return delivered_packets_pmf(q_i[None], cfg, link_budget_for(cfg))[2][0]
            return noma_delivery_mean(q_i, cfg)

        a = np.full(cfg.L + 1, 1.0 / (cfg.L + 1))
        b = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        interleaved = np.array([a, b, a, b, a])
        per_row = np.array([fn(q_i, cfg) for q_i in interleaved])
        scfg = cfg.with_scheme(scheme)
        assert np.array_equal(
            per_content_delivery(NeighborCacheDistribution(interleaved), scfg), per_row)
        repeated = NeighborCacheDistribution(np.array([b] * cfg.F))
        expected = Placement(_integerize(fn(b, cfg), cfg), cfg)
        assert high_mobility_placement(repeated, scfg) == expected

    def test_uniform_rows_take_one_noma_mean(self, cfg, uniform_dist, monkeypatch):
        # equal rows share one closed-form mean, gathered back to the F contents
        from d2dcache import optimize

        scfg = cfg.with_scheme(Scheme.NON_ORTHOGONAL)
        one_row = noma_delivery_mean(uniform_dist.q[0], scfg)
        means = []
        monkeypatch.setattr(optimize, "expected_successes",
                            lambda m, c: means.append(np.size(m)) or expected_successes(m, c))
        delivery = per_content_delivery(uniform_dist, scfg)
        assert means == [1]
        assert np.array_equal(delivery, np.full(cfg.F, one_row))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_heterogeneous_rows_reach_relaxed_optimum(self, scheme):
        # each content has its own threshold; brute force over every
        # feasible integer placement
        rng = np.random.default_rng(21)
        for _ in range(20):
            F, L = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            q = rng.random((F, L + 1))
            q /= q.sum(axis=1, keepdims=True)
            cfg = default_config(F=F, L=L, M=int(rng.integers(1, F * L + 1)),
                                 lam=float(rng.uniform(0.5, 4.0)), snr=1e4, scheme=scheme)
            dist = NeighborCacheDistribution(q)
            delivery = per_content_delivery(dist, cfg)
            best = min(relaxed_objective(c, delivery, cfg)
                       for c in itertools.product(range(L + 1), repeat=F)
                       if sum(c) <= cfg.M)
            placement = high_mobility_placement(dist, cfg)
            got = relaxed_objective(placement.c, delivery, cfg)
            assert got == pytest.approx(best, abs=1e-12), (cfg, placement)


class TestRelaxedObjective:
    def test_zero_placement_value(self, cfg, uniform_dist):
        nu = delivered_packets_pmf(uniform_dist.q[:1], cfg, link_budget_for(cfg))[2][0]
        expected = max(0.0, cfg.L - nu)   # popularity weights sum to 1
        delivery = per_content_delivery(uniform_dist, cfg)
        got = relaxed_objective(np.zeros(cfg.F), delivery, cfg)
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("c", [[math.nan, 0, 0, 0, 0], [6, 0, 0, 0, 0], [2, 2, 2, 0, 0]])
    def test_rejects_an_infeasible_or_nan_placement(self, cfg, c):
        with pytest.raises(ValueError, match="infeasible"):
            relaxed_objective(c, 0.5, cfg)

    def test_closed_form_beats_random_vectors(self, uniform_dist):
        cfg = default_config(snr=1e4)   # nonzero delivery
        rng = np.random.default_rng(8)
        for scheme in Scheme:
            delivery = per_content_delivery(uniform_dist, cfg.with_scheme(scheme))
            star = high_mobility_continuous(delivery[0], cfg)
            best = relaxed_objective(star, delivery, cfg)
            for _ in range(1000):
                c = rng.uniform(0.0, cfg.L, cfg.F)
                if c.sum() > cfg.M:
                    c *= cfg.M / c.sum()
                assert best <= relaxed_objective(c, delivery, cfg) + 1e-12

    def test_exchange_perturbation_increases(self, uniform_dist):
        cfg = default_config(snr=1e4)
        delivery = per_content_delivery(uniform_dist, cfg)
        star = high_mobility_continuous(delivery[0], cfg)
        f = zipf_popularity(cfg.F, cfg.gamma)
        base = relaxed_objective(star, delivery, cfg)
        k = int(np.flatnonzero(star > 0)[-1])   # least popular cached content
        for j in range(k + 1, cfg.F):
            eps = 0.25
            c = star.copy()
            c[0] -= eps
            c[j] += eps
            moved = relaxed_objective(c, delivery, cfg)
            assert moved - base >= -1e-12
            assert moved - base == pytest.approx(eps * (f[0] - f[j]), abs=1e-9)

    def test_infeasible_rejected(self, cfg, uniform_dist):
        delivery = per_content_delivery(uniform_dist, cfg)
        with pytest.raises(ValueError):
            relaxed_objective(np.full(cfg.F, 2.0), delivery, cfg)
        with pytest.raises(ValueError):
            relaxed_objective(np.array([-0.5, 0, 0, 0, 0]), delivery, cfg)


@st.composite
def mobility_instances(draw):
    """A config with F < 40, L < 25, lambda and mu over 0.1-100 and snr over
    0-40 dB; uniform or Dirichlet cache rows."""
    F, L = draw(st.integers(1, 39)), draw(st.integers(1, 24))
    cfg = default_config(
        F=F, L=L, M=draw(st.integers(0, F * L)), gamma=draw(st.floats(0.0, 2.0)),
        lam=10 ** draw(st.floats(-1.0, 2.0)), mu=10 ** draw(st.floats(-1.0, 2.0)),
        snr=10 ** draw(st.floats(0.0, 4.0)),
    )
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return cfg, NeighborCacheDistribution(rng.dirichlet(np.ones(L + 1), size=F))
    return cfg, NeighborCacheDistribution.uniform(F, L)


class TestJensenGap:
    @pytest.mark.parametrize("scheme", list(Scheme))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(instance=mobility_instances())
    def test_high_mobility_is_within_twice_the_bound_of_greedy(self, scheme, instance):
        """The paper's high-mobility claim at every size.  With J the exact
        load, R the relaxed objective at the floored deliveries and B =
        T*|c| the Jensen bound, |J - R| <= B at both placements.  The
        high-mobility placement h minimises R (orthogonal access), and
        greedy g minimises J, so J(h) <= R(h) + B <= R(g) + B <= J(g) + 2B.
        Non-orthogonal h minimises R at the floor-free deliveries, which
        adds at most sum f_i (floor-free_i - floored_i).  The slack is the
        surfaced truncation error of both loads and deliveries."""
        cfg, dist = instance
        cfg = cfg.with_scheme(scheme)
        h = average_load_fast(high_mobility_placement(dist, cfg), dist, cfg)
        g = average_load_fast(greedy_placement(dist, cfg)[0], dist, cfg)
        s = scenario(dist, cfg)
        slack = h.truncation_bound + g.truncation_bound + 2 * s.delivery_bound + 1e-9
        if scheme is Scheme.NON_ORTHOGONAL:
            slack += float(np.dot(s.f, per_content_delivery(dist, cfg) - s.delivery))
        bound = expected_stay_time(cfg) * abs(gap_constant(cfg))
        assert h.total - g.total <= 2 * bound + slack

    def test_zero_gap_without_arrivals(self):
        cfg = default_config(lam=0.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([2, 1, 1, 1, 0], cfg)
        for scheme in Scheme:
            rep = jensen_gap_check(pl, dist, cfg.with_scheme(scheme))
            assert rep.ok
            assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_low_threshold_collapses_bound(self):
        cfg = default_config(tau=1e-12)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([5, 0, 0, 0, 0], cfg)
        for scheme in Scheme:
            rep = jensen_gap_check(pl, dist, cfg.with_scheme(scheme))
            assert rep.ok
            assert rep.bound <= 1e-4
            assert rep.gap <= 1e-8

    def test_bound_holds_at_defaults(self, cfg, uniform_dist):
        pl = greedy_placement(uniform_dist, cfg)[0]
        for scheme in Scheme:
            rep = jensen_gap_check(pl, uniform_dist, cfg.with_scheme(scheme))
            assert rep.ok


def random_link(rng, **overrides):
    """A config with a random link: snr 0-40 dB, tau -5-15 dB."""
    return default_config(snr=float(10 ** rng.uniform(0, 4)),
                          tau=float(10 ** rng.uniform(-0.5, 1.5)), **overrides)


def exact_alpha4_success(u, cfg):
    """P[SINR > tau | u] at alpha = 4 with the closed-form interference factor
    1-beta(r) = s arctan(1/s), s = sqrt(tau) r^2/R^2, and an adaptive outer
    integral split at the layer r ~ R/sqrt(u) where beta**(u-1) falls off."""
    from scipy.integrate import quad

    R = cfg.radius

    def integrand(r):
        s = math.sqrt(cfg.tau) * r * r / R**2
        betac = s * math.atan(1.0 / s) if s > 0 else 0.0
        return math.exp(-(r**4) * cfg.tau / cfg.snr
                        + (u - 1) * math.log1p(-betac)) * 2 * r / R**2

    layer = R / math.sqrt(u * math.sqrt(cfg.tau))
    points = [x for x in (layer, 4 * layer, 16 * layer) if x < R]
    value, _ = quad(integrand, 0.0, R, points=points, limit=400, epsabs=0.0, epsrel=1e-11)
    return value


class TestGapConstant:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
    def test_bounds_every_rate_the_evaluators_read(self, alpha):
        rng = np.random.default_rng(int(alpha * 10))
        for _ in range(4):
            base = random_link(rng, alpha=alpha, L=int(rng.integers(1, 8)),
                               lam=float(10 ** rng.uniform(-1, 4)),
                               radius=float(rng.uniform(1.0, 10.0)))
            for scheme in Scheme:
                cfg = base.with_scheme(scheme)
                u = np.arange(1, max(U_SCAN, link_budget_for(cfg).size - 1) + 1)
                delivered = cfg.L * u * rate(u, cfg)
                c = gap_constant(cfg)
                assert c <= 0
                assert np.all(delivered <= -c * (1 + 1e-12)), (cfg, c)
                if alpha <= 2:   # the limit is 0, so the scan alone decides
                    assert delivered.max() == pytest.approx(-c, rel=1e-12)

    def test_bounds_the_exact_rate_at_alpha_4(self):
        # at 256 nodes the rule itself is exact to about 1e-10 near the peak
        # of u*p(u), so the constant must bound the model, not only the rule
        rng = np.random.default_rng(40)
        u_values = np.unique(np.round(np.logspace(0, 7, 15)).astype(int))
        for _ in range(12):
            cfg = random_link(rng, scheme=Scheme.NON_ORTHOGONAL, L=int(rng.integers(1, 8)),
                              quad_nodes=256)
            c = gap_constant(cfg)
            for u in u_values.tolist():
                delivered = cfg.L * math.log1p(cfg.tau) * u * exact_alpha4_success(u, cfg)
                assert delivered <= -c * (1 + 1e-8), (cfg, u, delivered, c)

    def test_limit_decides_when_the_peak_lies_past_the_scan(self):
        # a noise-limited link: u*p(u) still rises at U_SCAN, below its limit
        cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, radius=10.0, snr=1.0)
        u = np.arange(1, U_SCAN + 1)
        scan = u * success_probability(u, cfg)
        limit = 2 / (math.pi * math.sqrt(cfg.tau))   # alpha = 4
        assert np.argmax(scan) == U_SCAN - 1 and scan.max() < limit
        assert gap_constant(cfg) == pytest.approx(-cfg.L * limit * math.log1p(cfg.tau),
                                                   rel=1e-12)

    def test_does_not_depend_on_the_node_count(self):
        rng = np.random.default_rng(64)
        for alpha in (1.5, 2.0, 3.0, 4.0):
            for _ in range(3):
                cfg = random_link(rng, scheme=Scheme.NON_ORTHOGONAL, alpha=alpha)
                fine = replace(cfg, quad_nodes=1024)
                assert gap_constant(cfg) == pytest.approx(gap_constant(fine), rel=1e-4)

    def test_one_quadrature_pass_per_call(self, monkeypatch):
        from d2dcache import optimize

        calls = []
        monkeypatch.setattr(optimize, "success_probability",
                            lambda *args: calls.append(args) or success_probability(*args))
        cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, lam=1e5)
        first = gap_constant(cfg)
        assert len(calls) == 1   # one array call over the whole scan
        assert isinstance(first, float) and gap_constant(cfg) == first

    def test_scan_reads_no_link_budget(self, monkeypatch):
        # the scan runs to max(U_SCAN, the Poisson truncation point) on its
        # own, so a link budget that covers fewer counts cannot shrink it
        from d2dcache import load, optimize

        def refuse(*args):
            raise AssertionError("link budget read")

        for lam in (1.0, 1e5):   # truncation points below and above U_SCAN
            cfg = default_config(scheme=Scheme.NON_ORTHOGONAL, lam=lam)
            expected = gap_constant(cfg)
            with monkeypatch.context() as patch:
                for module in (load, optimize):
                    patch.setattr(module, "link_budget_for", refuse, raising=False)
                assert gap_constant(cfg) == expected

    def test_orthogonal_constant_is_the_u1_rate(self, cfg):
        assert gap_constant(cfg) == -cfg.L * success_probability(1, cfg) * math.log1p(cfg.tau)
