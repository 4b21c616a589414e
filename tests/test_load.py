from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2dcache import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    Scheme,
    average_load_enum,
    average_load_fast,
    build_link_budget,
    default_config,
    link_budget_for,
    poisson_truncation,
    request_load,
    zipf_popularity,
)
from d2dcache.load import scenario


def random_small_instance(rng, sharp=False):
    """Random F<=3, L<=3 instance whose enum truncation point stays <= 4.

    Sharp instances use a tiny mean and epsilon so the truncation bounds sit
    near 1e-9 and the equivalence check is meaningful at full precision.
    """
    from d2dcache import poisson_truncation

    F, L = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    while True:
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
    dist = NeighborCacheDistribution(q)
    c = rng.integers(0, L + 1, F)
    while c.sum() > cfg.M:
        c[np.argmax(c)] -= 1
    return cfg, dist, Placement(c, cfg)


def saturating_convolve(dist, pmf, cap):
    """dist's sum plus one draw from pmf, mass at >= cap folded into cap."""
    full = np.convolve(dist, pmf)
    out = full[: cap + 1].copy()
    out[cap] += full[cap + 1 :].sum()
    return out


def from_scratch_pmf(q_i, cfg):
    """The delivered-packet PMF of one content with every u-fold convolution
    power built from scratch per u by np.convolve, its truncation point and
    its tail mass.  The Poisson weights are the library's own, checked
    against mpmath and scipy.stats in test_model, so this checks the
    convolution schedule bit for bit."""
    from d2dcache.model import poisson_pmf, poisson_tail

    mean = (1.0 - q_i[0]) * cfg.mean_capable
    reference = np.zeros(cfg.L + 1)
    if mean == 0.0:
        reference[0] = 1.0
        return reference, 0, 0.0
    u_max = poisson_truncation(cfg, mean)
    budget = link_budget_for(cfg)
    pu = poisson_pmf(np.arange(u_max + 1), mean)
    cond = q_i[1:] / (1.0 - q_i[0])
    reference[0] = pu[0]
    for u in range(1, u_max + 1):
        b = int(budget[u])
        per_tx = np.zeros(cfg.L + 1)
        if b == 0:
            per_tx[0] = 1.0
        elif b >= cfg.L:
            per_tx[1:] = cond
        else:
            per_tx[1:b] = cond[: b - 1]
            per_tx[b] = cond[b - 1 :].sum()
        power = np.eye(cfg.L + 1)[0]
        for _ in range(u):
            power = saturating_convolve(power, per_tx, cfg.L)
        reference += pu[u] * power
    return reference, u_max, poisson_tail(mean, u_max)


def shortfall_from_pmf(pmf, cfg):
    """E[(L - c - delivered)^+] for c = 0..L from the PMF's bins below L, as
    load.shortfall_tables forms it: at L delivered packets the shortfall is 0."""
    c, k = np.arange(cfg.L + 1), np.arange(cfg.L)
    return np.vecdot(np.maximum(0, cfg.L - c[:, None] - k), pmf[: cfg.L])


def one_table(q_i, cfg):
    """The shortfall table and tail of one cache row, through shortfall_tables."""
    from d2dcache.load import shortfall_tables

    tables, tails, _, _ = shortfall_tables(q_i[None], cfg, link_budget_for(cfg))
    return tables[0], tails[0]


@st.composite
def table_instances(draw):
    """A random config with L <= 20 and F <= 4 cache rows, random, repeated
    or q0 = 1 rows among them."""
    L = draw(st.integers(1, 20))
    F = draw(st.integers(1, 4))
    cfg = default_config(
        F=F, L=L, M=0,
        lam=draw(st.floats(0.0, 40.0)),
        mu=draw(st.floats(0.5, 2.0)),
        snr=10 ** draw(st.floats(-1.0, 4.0)),
        scheme=draw(st.sampled_from(list(Scheme))),
    )
    weights = st.lists(st.floats(0.0, 1.0), min_size=L + 1, max_size=L + 1)
    rows = []
    for _ in range(F):
        kind = draw(st.sampled_from(["random", "repeat", "empty"]))
        if kind == "repeat" and rows:
            rows.append(rows[0])
        elif kind == "empty":
            rows.append(np.eye(L + 1)[0])
        else:
            w = np.array(draw(weights)) + 1e-3
            rows.append(w / w.sum())
    return cfg, np.array(rows)


def at_dot_boundaries(test):
    """Examples of ``test(instance)`` at every L where the delivered-packet
    dots, of length L, cross a multiple of 16 (15/16, 31/32, 47/48), under
    both schemes: a Dirichlet row, its repeat and a q0 = 1 row."""
    for L in (15, 16, 31, 32, 47, 48):
        row = np.random.default_rng(L).dirichlet(np.ones(L + 1))
        for scheme in Scheme:
            cfg = default_config(F=3, L=L, M=0, lam=20.0, snr=1e4, scheme=scheme)
            test = example(instance=(cfg, np.array([row, row, np.eye(L + 1)[0]])))(test)
    return test


class TestRequestLoad:
    def test_full_self_cache_covers_everything(self, cfg):
        budget = build_link_budget(cfg, 3)
        for d in ([], [3], [1, 2, 5]):
            assert request_load(cfg.L, d, cfg, budget) == 0

    def test_direct_arithmetic(self):
        cfg = default_config()
        budget = build_link_budget(cfg, 1)
        assert budget[1] == 1   # precondition for the arithmetic below
        # (L - c - min(d, B(1)))^+ = (5 - 2 - 1)^+ = 2
        assert request_load(2, [4], cfg, budget) == 2

    def test_all_zero_neighbors(self, cfg):
        budget = build_link_budget(cfg, 3)
        assert request_load(0, [0, 0, 0], cfg, budget) == cfg.L

    def test_zero_packet_neighbors_do_not_count_toward_u(self):
        # u=1 keeps the big u=1 budget even with idle neighbors around
        cfg = default_config(snr=1e4)
        budget = build_link_budget(cfg, 4)
        assert budget[1] > budget[2]
        assert request_load(0, [3, 0, 0, 0], cfg, budget) == request_load(0, [3], cfg, budget)

    def test_budget_zero_still_counts_transmitter(self):
        # both neighbors transmit but deliver nothing when budget(2) = 0
        cfg = default_config()
        budget = build_link_budget(cfg, 2)
        assert budget[2] == 0
        assert request_load(1, [4, 4], cfg, budget) == cfg.L - 1

    def test_domain_errors(self, cfg):
        budget = build_link_budget(cfg, 2)
        with pytest.raises(ValueError):
            request_load(-1, [0], cfg, budget)
        with pytest.raises(ValueError):
            request_load(cfg.L + 1, [0], cfg, budget)
        with pytest.raises(ValueError):
            request_load(0, [cfg.L + 1], cfg, budget)
        with pytest.raises(ValueError, match="covers u <= 2, need u = 3"):
            request_load(0, [1, 1, 1], cfg, budget)


class TestEnumEvaluator:
    def test_no_neighbors_means_full_shortfall(self):
        cfg = default_config(lam=0.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([3, 1, 1, 0, 0], cfg)
        ev = average_load_enum(pl, dist, cfg)
        f = zipf_popularity(cfg.F, cfg.gamma)
        assert ev.total == pytest.approx(np.dot(f, cfg.L - pl.c), abs=1e-12)

    def test_full_memory_zero_load(self):
        cfg = default_config(F=2, L=2, M=4, lam=0.6, n_trunc_epsilon=1e-3)
        dist = NeighborCacheDistribution.uniform(2, 2)
        ev = average_load_enum(Placement([2, 2], cfg), dist, cfg)
        assert ev.total == 0.0

    def test_refuses_large_truncation(self):
        cfg = default_config(lam=20.0)   # truncation point far beyond 5
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        with pytest.raises(CapacityError):
            average_load_enum(Placement([0] * 5, cfg), dist, cfg)


class TestFastEvaluator:
    def test_matches_enum_trivially_without_neighbors(self):
        cfg = default_config(lam=0.0)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([2, 1, 1, 1, 0], cfg)
        e = average_load_enum(pl, dist, cfg)
        f = average_load_fast(pl, dist, cfg)
        assert f.total == pytest.approx(e.total, abs=1e-12)

    def test_never_transmitting_content(self, cfg):
        # content caching nothing with probability 1 gets no D2D help
        q = np.full((cfg.F, cfg.L + 1), 1.0 / (cfg.L + 1))
        q[2] = 0.0
        q[2, 0] = 1.0
        dist = NeighborCacheDistribution(q)
        pl = Placement([1, 1, 1, 1, 1], cfg)
        ev = average_load_fast(pl, dist, cfg)
        f = zipf_popularity(cfg.F, cfg.gamma)
        assert ev.per_content[2] == pytest.approx(f[2] * (cfg.L - 1), abs=1e-12)

    @pytest.mark.parametrize("sharp", [False, True])
    def test_agrees_with_enum_oracle(self, sharp):
        rng = np.random.default_rng(20240915 + sharp)
        for _ in range(30):
            cfg, dist, pl = random_small_instance(rng, sharp=sharp)
            e = average_load_enum(pl, dist, cfg)
            f = average_load_fast(pl, dist, cfg)
            tol = 1e-9 + e.truncation_bound + f.truncation_bound
            assert abs(e.total - f.total) <= tol
            assert np.all(np.abs(e.per_content - f.per_content)
                          <= tol * np.ones(cfg.F))

    def test_default_config_against_enum(self):
        # epsilon tuned so the Poisson truncation point is 5
        cfg = default_config(n_trunc_epsilon=1e-4)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        pl = Placement([5, 0, 0, 0, 0], cfg)
        e = average_load_enum(pl, dist, cfg)
        f = average_load_fast(pl, dist, cfg)
        assert abs(e.total - f.total) <= 1e-9 + e.truncation_bound + f.truncation_bound

    def test_bounds_and_decomposability(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            cfg, dist, pl = random_small_instance(rng)
            ev = average_load_fast(pl, dist, cfg)
            f = zipf_popularity(cfg.F, cfg.gamma)
            assert 0.0 <= ev.total <= cfg.L + 1e-12
            assert ev.total <= np.dot(f, cfg.L - pl.c) + 1e-12
            assert ev.total == pytest.approx(ev.per_content.sum(), abs=1e-12)
            assert np.all(ev.per_content <= f * cfg.L + 1e-12)

    def test_per_content_depends_only_on_own_distribution(self, cfg):
        q = np.full((cfg.F, cfg.L + 1), 1.0 / (cfg.L + 1))
        q2 = q.copy()
        q2[1] = [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]
        pl = Placement([1, 1, 1, 1, 1], cfg)
        a = average_load_fast(pl, NeighborCacheDistribution(q), cfg)
        b = average_load_fast(pl, NeighborCacheDistribution(q2), cfg)
        keep = [0, 2, 3, 4]
        assert np.allclose(a.per_content[keep], b.per_content[keep], atol=1e-15)
        assert a.per_content[1] != b.per_content[1]

    def test_monotone_in_placement(self, cfg, uniform_dist):
        base = Placement([2, 1, 1, 0, 0], cfg)
        total = average_load_fast(base, uniform_dist, cfg).total
        for i in range(cfg.F):
            c = base.c.copy()
            c[i] += 1
            grown = average_load_fast(Placement(c, cfg), uniform_dist, cfg)
            assert grown.total <= total + 1e-12


class TestMarginalGain:
    """The scenario's per-packet gains: gains[i, c] is the load decrease from
    the (c+1)-th packet of content i."""

    def test_equals_popularity_when_no_help(self, cfg):
        q = np.zeros((cfg.F, cfg.L + 1))
        q[:, 0] = 1.0
        dist = NeighborCacheDistribution(q)
        f = zipf_popularity(cfg.F, cfg.gamma)
        gains = scenario(dist, cfg).gains
        for i in range(cfg.F):
            assert gains[i, 1] == pytest.approx(f[i], abs=1e-12)

    def test_nonnegative_and_diminishing(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            cfg, dist, _ = random_small_instance(rng)
            for gains in scenario(dist, cfg).gains:
                assert all(g >= -1e-12 for g in gains)
                assert all(b <= a + 1e-9 for a, b in zip(gains, gains[1:]))

    def test_matches_direct_difference(self, cfg, uniform_dist):
        pl = Placement([2, 0, 0, 0, 0], cfg)
        grown = Placement([3, 0, 0, 0, 0], cfg)
        direct = (average_load_fast(pl, uniform_dist, cfg).total
                  - average_load_fast(grown, uniform_dist, cfg).total)
        assert scenario(uniform_dist, cfg).gains[0, 2] == pytest.approx(direct, abs=1e-12)


class TestSharedWork:
    """Work shared across contents and transmitter counts is bit-identical to
    doing it per item."""

    def test_shortfall_tables_once_per_distinct_row(self, monkeypatch):
        from d2dcache import load
        from d2dcache.load import delivered_packets_pmf, shortfall_tables

        cfg = default_config(F=6, L=4, M=3, lam=3.0)
        a = np.full(5, 0.2)
        b = np.array([0.5, 0.2, 0.1, 0.1, 0.1])
        c = np.array([0.1, 0.0, 0.3, 0.0, 0.6])
        q = np.array([a, b, a, c, b, a])
        built = []
        monkeypatch.setattr(load, "delivered_packets_pmf",
                            lambda q_i, *args: built.append(q_i) or delivered_packets_pmf(q_i, *args))
        tables, tails, _, _ = shortfall_tables(q, cfg, link_budget_for(cfg))
        # one batched call over the distinct rows, in order of first appearance
        assert len(built) == 1 and np.array_equal(built[0], np.array([a, b, c]))
        pairs = [one_table(q_i, cfg) for q_i in q]
        assert np.array_equal(tables, np.array([table for table, _ in pairs]))
        assert np.array_equal(tails, np.array([tail for _, tail in pairs]))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_delivered_pmf_matches_from_scratch_powers(self, scheme, monkeypatch):
        from d2dcache import load
        from d2dcache.load import _step, delivered_packets_pmf

        cfg = default_config(F=1, L=10, M=0, lam=6.0, snr=1e4, scheme=scheme)
        budget = link_budget_for(cfg)
        q_i = np.array([0.3] + [0.07] * 10)
        steps = np.diff(budget[1 : cfg.L])
        assert np.count_nonzero(steps) >= 2 and np.any(steps == 0)
        reference, u_max, ref_tail = from_scratch_pmf(q_i, cfg)

        steps_taken = []
        monkeypatch.setattr(load, "_step",
                            lambda *args: steps_taken.append(1) or _step(*args))
        pmf, tail, _, _ = delivered_packets_pmf(q_i[None], cfg, budget)
        pmf, tail = pmf[0], tail[0]
        assert np.array_equal(pmf, reference[:-1])
        assert np.array_equal(shortfall_from_pmf(pmf, cfg), shortfall_from_pmf(reference, cfg))
        # products only for u < L with budget >= 1: one per u within a run of
        # equal budgets, u - 1 where it steps (the first factor is the
        # transmitter's own PMF)
        assert len(steps_taken) == sum(
            1 if u > 1 and budget[u] == budget[u - 1] else u - 1
            for u in range(1, min(cfg.L, u_max + 1)) if budget[u] >= 1)
        assert tail == ref_tail

    def test_silence_past_saturation_reaches_bin_zero(self):
        """Budgets >= 1 past u = L that reach 0 before the truncation point:
        the counts from the first zero budget on deliver nothing, even though
        they are >= L."""
        cfg = default_config(F=1, L=4, M=0, lam=11.4, mu=0.5, snr=1e4)
        q_i = np.array([0.0, 0.25, 0.25, 0.25, 0.25])
        budget = link_budget_for(cfg)
        u0 = int(np.argmax(budget[1:] == 0)) + 1
        reference, u_max, ref_tail = from_scratch_pmf(q_i, cfg)
        assert cfg.L < u0 <= u_max and np.all(budget[1:u0] >= 1)
        table, tail = one_table(q_i, cfg)
        assert np.array_equal(table, shortfall_from_pmf(reference, cfg))
        assert tail == ref_tail
        # the silent counts carry most of the mass here
        assert table[0] > 0.5 * cfg.L

    def test_budget_that_rises_again_is_refused(self, monkeypatch):
        """Budgets never rise with u under either scheme, so a budget that
        comes back after a silent count cannot reach the evaluators."""
        from d2dcache import channel

        rising = np.array([2, 0, 2, 2, 3, 1, 0])
        monkeypatch.setattr(channel, "packet_budget", lambda u, cfg: rising)
        with pytest.raises(ValueError, match="non-increasing"):
            build_link_budget(default_config(), rising.size)

    def test_table_at_mean_5e5_is_its_limit_within_bounded_work(self, monkeypatch):
        """At mean 5e5 nearly all the mass lies past the first zero budget, so
        the table is its silent limit [L, L-1, ..., 0]; the products stay
        within the u < L range, however large the mean."""
        from d2dcache import load
        from d2dcache.load import _step, shortfall_tables

        cfg = default_config(F=2, L=20, M=0, lam=1e6)
        assert cfg.mean_capable == 5e5 and cfg.scheme is Scheme.ORTHOGONAL
        q = np.array([np.full(21, 1 / 21), np.eye(21)[20]])
        calls = []
        monkeypatch.setattr(load, "_step",
                            lambda *args: calls.append(1) or _step(*args))
        tables, tails, _, _ = shortfall_tables(q, cfg, link_budget_for(cfg))
        assert 0 < len(calls) <= cfg.L * (cfg.L - 1) // 2
        limit = np.arange(cfg.L, -1, -1)
        # the terms of the transmitter counts sum to 1 - tail, so a table
        # misses its limit by at most L * tail; 1e-12 is the rounding of
        # adding 5e5 of them in turn (1.6e-14 here, against L * tail = 2e-8)
        for table, tail in zip(tables, tails):
            assert np.all(np.abs(table - limit) <= cfg.L * tail + 1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instance=table_instances())
    @at_dot_boundaries
    def test_tables_equal_from_scratch_reference(self, instance):
        """Random configs and cache rows, with repeated rows and q0 = 1, and
        the fixed instances where the dots cross a multiple of 16, in one
        batched call: each row's truncation point and tail equal the
        per-row ones exactly, its PMF bins below L equal the per-row np.convolve
        construction within 1e-14 and so its table within L * 1e-14, its
        floored delivery equals the sum over its own window within 1e-13
        relative and its delivery bound is exact, and equal rows get
        bit-equal tables."""
        from d2dcache.load import delivered_packets_pmf, shortfall_tables
        from d2dcache.model import poisson_pmf, poisson_tail

        cfg, q = instance
        L = cfg.L
        tables, tails, delivery, bound = shortfall_tables(q, cfg, link_budget_for(cfg))
        pmf = delivered_packets_pmf(q, cfg, link_budget_for(cfg))[0]
        budget = link_budget_for(cfg)
        for i, q_i in enumerate(q):
            reference, ref_u_max, ref_tail = from_scratch_pmf(q_i, cfg)
            mean = (1.0 - q_i[0]) * cfg.mean_capable
            u = np.arange(ref_u_max + 1)
            assert delivery[i] == pytest.approx(
                np.dot(poisson_pmf(u, mean), u * budget[u]), rel=1e-13, abs=0.0)
            assert bound[i] == float(budget[1]) * (mean * poisson_tail(mean, ref_u_max - 1))
            assert tails[i] == ref_tail
            assert np.all(np.abs(pmf[i] - reference[:-1]) <= 1e-14)
            assert np.all(np.abs(tables[i] - shortfall_from_pmf(reference, cfg)) <= L * 1e-14)
            if q_i[0] == 1.0:
                assert np.array_equal(tables[i], np.arange(L, -1, -1)) and tails[i] == 0.0
            for j in range(i):
                if np.array_equal(q[j], q_i):
                    assert np.array_equal(tables[j], tables[i]) and tails[j] == tails[i]

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_placements_equal_those_of_per_row_references(self, scheme, monkeypatch):
        """Greedy and DP placements from the batched scenario equal those
        from per-row np.convolve tables, and high-mobility placements equal
        those from one-row delivery means, on seeded random instances with
        ties (gamma 0, repeated rows) and q0 = 1 rows."""
        from d2dcache import load
        from d2dcache.load import _build_scenario, delivered_packets_pmf
        from d2dcache.optimize import (
            _integerize,
            exhaustive_placement,
            greedy_placement,
            high_mobility_placement,
            noma_delivery_mean,
        )

        rng = np.random.default_rng(15 + (scheme is Scheme.NON_ORTHOGONAL))
        for _ in range(40):
            F, L = int(rng.integers(1, 9)), int(rng.integers(1, 21))
            cfg = default_config(
                F=F, L=L, M=int(rng.integers(0, F * L + 1)), scheme=scheme,
                gamma=float(rng.choice([0.0, 0.6])), lam=float(10 ** rng.uniform(-1, 1)),
                snr=float(10 ** rng.uniform(0, 4)))
            rows = []
            for _ in range(F):
                kind = rng.integers(4)
                if kind == 0 and rows:
                    rows.append(rows[int(rng.integers(len(rows)))])
                elif kind == 1:
                    rows.append(np.eye(L + 1)[0])
                else:
                    rows.append(rng.dirichlet(np.ones(L + 1)))
            dist = NeighborCacheDistribution(np.array(rows))
            _build_scenario.cache_clear()
            batched = (greedy_placement(dist, cfg)[0], exhaustive_placement(dist, cfg))
            per_row = [from_scratch_pmf(q_i, cfg) for q_i in dist.q]
            # greedy and the DP read no delivery: the batched ones stand in
            reference = (np.array([shortfall_from_pmf(pmf, cfg) for pmf, _, _ in per_row]),
                         np.array([tail for _, _, tail in per_row]),
                         *load.shortfall_tables(dist.q, cfg, link_budget_for(cfg))[2:])
            with monkeypatch.context() as patch:
                patch.setattr(load, "shortfall_tables", lambda *args: reference)
                _build_scenario.cache_clear()
                assert greedy_placement(dist, cfg)[0] == batched[0]
                assert exhaustive_placement(dist, cfg) == batched[1]
            _build_scenario.cache_clear()
            if scheme is Scheme.ORTHOGONAL:
                budget = link_budget_for(cfg)
                deliveries = [delivered_packets_pmf(q_i[None], cfg, budget)[2][0]
                              for q_i in dist.q]
            else:
                deliveries = [noma_delivery_mean(q_i, cfg) for q_i in dist.q]
            assert high_mobility_placement(dist, cfg) == Placement(
                _integerize(np.array(deliveries), cfg), cfg)

    def test_memory_does_not_grow_with_rows_beyond_the_outputs(self):
        """Rows go through the products in blocks: from 2,000 to 10,000
        distinct rows at L=50 the traced peak grows by at most four times the
        (F, L+1) tables, where one (F, L, L) transition array for all rows
        would add 49 times them."""
        import tracemalloc

        from d2dcache.load import shortfall_tables

        L, peaks = 50, []
        for F in (2_000, 10_000):
            cfg = default_config(F=F, L=L, M=0, lam=20.0)
            assert cfg.mean_capable == 10.0
            dist = NeighborCacheDistribution(
                np.random.default_rng(F).dirichlet(np.ones(L + 1), size=F))
            link_budget_for(cfg)
            tracemalloc.start()
            try:
                tables = shortfall_tables(dist.q, cfg, link_budget_for(cfg))[0]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert tables.shape == (F, L + 1)
        assert peaks[1] - peaks[0] <= 4 * 8_000 * (L + 1) * 8

    def test_scenario_is_shared_and_read_only(self, cfg, uniform_dist):
        from d2dcache.load import scenario, shortfall_tables

        s = scenario(uniform_dist, cfg)
        # an equal config and the same distribution hit the same entry
        assert scenario(uniform_dist, default_config()) is s
        for array in (s.f, s.tables, s.gains, s.delivery, link_budget_for(cfg)):
            assert not array.flags.writeable
        # the two bounds are the popularity-weighted sums of the per-content ones
        _, tails, _, bound = shortfall_tables(uniform_dist.q, cfg, link_budget_for(cfg))
        assert s.load_bound == float((s.f * cfg.L * tails).sum())
        assert s.delivery_bound == float(np.dot(s.f, bound))
        with pytest.raises(ValueError):
            s.tables[0, 0] = 1.0
        with pytest.raises(ValueError):
            s.gains[0, 0] = 1.0
        # gains[i, c] is the table decrement of the (c+1)-th packet, bit for bit
        assert s.gains.shape == (cfg.F, cfg.L)
        assert np.array_equal(s.gains, s.f[:, None] * (s.tables[:, :-1] - s.tables[:, 1:]))

    def test_equal_rows_of_another_distribution_build_an_equal_scenario(self, cfg,
                                                                          uniform_dist):
        # a distribution keys its scenario by identity: equal rows build anew
        s = scenario(uniform_dist, cfg)
        other = scenario(NeighborCacheDistribution(uniform_dist.q), cfg)
        assert other is not s
        for field in fields(s):
            assert np.array_equal(getattr(other, field.name), getattr(s, field.name))

    @pytest.mark.parametrize("overrides", [
        # 65,536 rows of 51 entries are 26.7 MB
        pytest.param(dict(F=65_536, L=50, M=0), id="rows"),
        # at mean 5e6 the budget table has 5,013,417 entries, 40 MB
        pytest.param(dict(lam=1e7), id="budget_table"),
    ])
    def test_warm_scenario_hit_copies_nothing(self, overrides):
        import tracemalloc

        cfg = default_config(**overrides)
        dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
        s = scenario(dist, cfg)
        tracemalloc.start()
        try:
            assert scenario(dist, cfg) is s
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_distinct_rows_keep_negative_zero_apart(self):
        from d2dcache.load import distinct_rows

        row = np.array([0.5, 0.5, 0.0])
        twin = np.array([0.5, 0.5, -0.0])   # equal as floats, not as bits
        for q, first, inverse in [([row, twin, row], [0, 1], [0, 1, 0]),
                                  ([twin, twin], [0], [0, 0])]:
            got = distinct_rows(np.array(q))
            assert [a.tolist() for a in got] == [first, inverse]
