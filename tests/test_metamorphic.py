"""Metamorphic relations: exact relations between runs that the model
implies, checked where no oracle reaches (means up to 1e4, L up to 20, or 64
for the Monte Carlo relation, F up to 1000).  Each relation is exact in real
arithmetic; where floating point can break it the comparison allows a few
ulp of the largest load, L, and the test says why.  A violation beyond that
is a fault, not a reason to widen the allowance."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2dcache import (
    NeighborCacheDistribution,
    Placement,
    Scheme,
    average_load_fast,
    default_config,
    estimate_average_load,
    greedy_placement,
    link_budget_for,
    rate,
    success_probability,
    zipf_popularity,
)

EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True)


def _ulps(cfg):
    """4 ulp of L, the largest load a content can carry."""
    return 4 * math.ulp(cfg.L)


@st.composite
def cases(draw, max_mean=1e4, max_F=1000, max_L=20):
    """A config and a cache distribution of one to three distinct rows,
    spread over the F contents."""
    F = draw(st.integers(1, max_F))
    L = draw(st.integers(1, max_L))
    mean = 10.0 ** draw(st.floats(-3, math.log10(max_mean)))
    eta = draw(st.floats(0.05, 1.0))
    mu = 10.0 ** draw(st.floats(-1, 1))
    cfg = default_config(
        F=F, L=L, M=draw(st.integers(0, F * L)), gamma=draw(st.floats(0, 2)),
        eta=eta, lam=mean * mu / eta, mu=mu, tau=10.0 ** draw(st.floats(-1, 1.5)),
        radius=10.0 ** draw(st.floats(-1, 2)), alpha=draw(st.floats(2.1, 6)),
        snr=10.0 ** draw(st.floats(-1, 5)), scheme=draw(st.sampled_from(Scheme)),
        n_trunc_epsilon=draw(st.sampled_from([1e-300, 1e-12, 1e-9, 1e-4])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.ones(L + 1), size=draw(st.integers(1, 3)))
    return cfg, NeighborCacheDistribution(rows[rng.integers(0, len(rows), F)])


@EXAMPLES
@given(case=cases(), factor=st.floats(1, 1e3))
def test_fast_load_never_rises_with_snr(case, factor):
    # every p(u) rises with snr through its noise factor, so every budget
    # does, and snr is not in the law of the neighbour count.  Loads from
    # different tables sum different products, so a budget that rises only
    # where the Poisson mass is negligible can move a load up by rounding
    cfg, dist = case
    hi = replace(cfg, snr=cfg.snr * factor)
    assert (link_budget_for(hi) >= link_budget_for(cfg)).all()
    placement, _ = greedy_placement(dist, cfg)
    lo_load = average_load_fast(placement, dist, cfg).total
    assert average_load_fast(placement, dist, hi).total <= lo_load + _ulps(cfg)


# counts capped at 3 levels, counted level by level, and at 36 after the snr
# rises 100-fold, counted content by content
STRADDLING = (default_config(F=40, L=64, M=40, mu=0.5, snr=1.0),
              NeighborCacheDistribution(np.random.default_rng(0).dirichlet(np.ones(65), 40)))


@EXAMPLES
@given(case=cases(max_mean=100.0, max_F=100, max_L=64), factor=st.floats(1, 1e3),
       seed=st.integers(0, 2**16))
@example(case=STRADDLING, factor=100.0, seed=0)
def test_common_seed_monte_carlo_never_rises_with_snr(case, factor, seed):
    # the streams do not read snr, and counts resolved up to b(1) keep every
    # min(d, b(u)), so no trial's load rises; each trial's load is summed in
    # the same order, but the shifted mean of the trials is not monotone in
    # each of them under rounding.  With L up to 64 the two count caps can
    # fall on either side of LEVEL_LOOP_MAX, so the two estimates may count
    # their draws by different loops
    cfg, dist = case
    hi = replace(cfg, snr=cfg.snr * factor)
    placement, _ = greedy_placement(dist, cfg)
    lo_est, _ = estimate_average_load(placement, dist, cfg, 64, seed)
    hi_est, _ = estimate_average_load(placement, dist, hi, 64, seed)
    assert hi_est <= lo_est + _ulps(cfg)


@EXAMPLES
@given(case=cases(), data=st.data())
def test_greedy_optimum_never_rises_with_memory(case, data):
    # the feasible sets nest and greedy is exact; the two totals are pairwise
    # sums of F products, which may round apart where one gain is tiny
    cfg, dist = case
    more = replace(cfg, M=data.draw(st.integers(cfg.M, cfg.F * cfg.L)))
    small, _ = greedy_placement(dist, cfg)
    large, _ = greedy_placement(dist, more)
    small_load = average_load_fast(small, dist, cfg).total
    assert average_load_fast(large, dist, more).total <= small_load + _ulps(cfg)


@EXAMPLES
@given(case=cases(), k=st.integers(-20, 20), alpha=st.integers(2, 6))
def test_disc_scaled_by_a_power_of_two_changes_no_bit(case, k, alpha):
    # (R, snr) -> (sR, s**alpha snr) leaves r/x and r**alpha/snr alone; with
    # s = 2**k and an integer alpha every scaled value is exact, so each
    # rounding happens alike: success probabilities, tables and loads agree
    cfg, dist = case
    cfg = replace(cfg, alpha=float(alpha))
    s = 2.0**k
    scaled = replace(cfg, radius=cfg.radius * s, snr=cfg.snr * s**alpha)
    u = np.arange(1, 65)
    assert np.array_equal(success_probability(u, scaled), success_probability(u, cfg))
    assert np.array_equal(link_budget_for(scaled), link_budget_for(cfg))
    placement, _ = greedy_placement(dist, cfg)
    assert (average_load_fast(placement, dist, scaled).total
            == average_load_fast(placement, dist, cfg).total)


@EXAMPLES
@given(case=cases(), s=st.floats(1e-3, 1e3))
def test_scaled_disc_keeps_every_budget_but_floor_ties(case, s):
    # at a real scale and exponent, s**alpha and the powers round anew, by a
    # few ulp of the noise exponent, which exp carries into p(u) multiplied
    # by that exponent; a budget may then change only where L*rate/mu lies
    # within that rounding of an integer.  Equal tables give equal loads, as
    # the scenario reads the table and not the channel
    cfg, dist = case
    scaled = replace(cfg, radius=cfg.radius * s, snr=cfg.snr * s**cfg.alpha)
    table, scaled_table = link_budget_for(cfg), link_budget_for(scaled)
    moved = np.flatnonzero(table[1:] != scaled_table[1:]) + 1
    for u in moved:
        x = cfg.L * rate(int(u), cfg) / cfg.mu
        y = scaled.L * rate(int(u), scaled) / scaled.mu
        assert abs(x - y) <= 1e-12 * max(x, y) and math.floor(x) != math.floor(y)
    if moved.size == 0:
        placement, _ = greedy_placement(dist, cfg)
        assert (average_load_fast(placement, dist, scaled).total
                == average_load_fast(placement, dist, cfg).total)


@EXAMPLES
@given(case=cases(), silent=st.sampled_from(["lam", "eta"]), data=st.data())
def test_no_capable_neighbour_leaves_the_own_cache_alone(case, silent, data):
    # with lam = 0 or eta = 0 no neighbour transmits, so content i loads
    # exactly f_i (L - c_i): the window is u = 0 with mass exp(0) = 1
    cfg, dist = case
    cfg = replace(cfg, **{silent: 0.0})
    c = data.draw(st.lists(st.integers(0, cfg.L), min_size=cfg.F, max_size=cfg.F))
    c = np.array(c)
    while c.sum() > cfg.M:
        c[np.argmax(c)] -= 1
    evaluation = average_load_fast(Placement(c, cfg), dist, cfg)
    f = zipf_popularity(cfg.F, cfg.gamma)
    assert np.array_equal(evaluation.per_content, f * (cfg.L - c))
    assert evaluation.total == evaluation.per_content.sum()
    assert evaluation.truncation_bound == 0.0


@EXAMPLES
@given(case=cases())
def test_full_memory_loads_nothing(case):
    cfg, dist = case
    full = replace(cfg, M=cfg.F * cfg.L)
    placement, _ = greedy_placement(dist, full)
    assert (placement.c == cfg.L).all()
    assert average_load_fast(placement, dist, full).total == 0.0
