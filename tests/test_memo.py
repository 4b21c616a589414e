"""Memoized inputs are keyed by the config fields they read: a change to a
field a cache does not read hits it, a change to each field it reads misses
it, and what it serves equals a fresh build.  A key that left out a field
would serve stale results, so every field of SystemConfig is tried."""

from dataclasses import astuple, fields, is_dataclass, replace

import numpy as np
import pytest

from d2dcache import NeighborCacheDistribution, Scheme, SystemConfig, default_config
from d2dcache.channel import _beta, _noise
from d2dcache.load import (
    _build_scenario,
    _truncation_point,
    _windows,
    delivered_packets_pmf,
    link_budget_for,
    scenario,
)
from d2dcache.model import db_to_linear, memo_on

# another valid value of every field of default_config()
OTHER = dict(F=6, gamma=0.7, L=6, M=4, eta=0.25, lam=2.0, mu=2.0, tau=2.0,
             radius=6.0, alpha=3.0, snr=10.0, scheme=Scheme.NON_ORTHOGONAL,
             n_trunc_epsilon=1e-6, quad_nodes=32)
MEAN = {"eta", "lam", "mu"}   # the fields of the mean capable count
Q0 = np.array([0.5, 1.0 / 3.0, 0.0]).tobytes()
# a budget table long enough for the windows of every config below, and
# cache rows of default_config(): F and L come with their shape
BUDGET = np.array([0, 3, 2, 2, 1] + [0] * 59).tobytes()
Q = np.random.default_rng(2).dirichlet(np.ones(6), size=5)

# name: (memo, its arguments after the config, the fields it reads)
CACHES = {
    "beta": (_beta, (), {"quad_nodes", "radius", "alpha", "tau"}),
    "noise": (_noise, (), {"quad_nodes", "radius", "alpha", "tau", "snr"}),
    "windows": (_windows, (Q0,), MEAN | {"n_trunc_epsilon"}),
    "truncation_point": (_truncation_point, (), MEAN | {"n_trunc_epsilon"}),
    "scenario": (_build_scenario, (BUDGET, Q.tobytes(), Q.shape),
                 MEAN | {"gamma", "n_trunc_epsilon"}),
}


def _same(a, b):
    if is_dataclass(a):
        a, b = astuple(a), astuple(b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


def test_every_config_field_is_tried():
    assert set(OTHER) == {f.name for f in fields(SystemConfig)}


@pytest.mark.parametrize("field", OTHER)
@pytest.mark.parametrize("name", CACHES)
def test_a_field_read_misses_and_any_other_hits(name, field):
    memo, args, reads = CACHES[name]
    memo.cache_clear()
    cfg = default_config()
    memo(cfg, *args)
    hits = memo.cache_info().hits
    other = replace(cfg, **{field: OTHER[field]})
    served = memo(other, *args)
    assert (memo.cache_info().hits > hits) == (field not in reads)
    assert _same(served, memo.__wrapped__(other, *args))


def test_windows_are_keyed_by_the_mean_and_the_rows_q0():
    _windows.cache_clear()
    cfg = default_config()
    same_mean = replace(cfg, eta=0.25, lam=2.0)
    assert same_mean.mean_capable == cfg.mean_capable
    first = _windows(cfg, Q0)
    assert _windows(same_mean, Q0) is first
    hits = _windows.cache_info().hits
    other_q0 = np.array([0.5, 0.25, 0.0]).tobytes()
    assert _same(_windows(cfg, other_q0), _windows.__wrapped__(cfg, other_q0))
    assert _windows.cache_info().hits == hits
    # rows that differ past q0 share their windows, not their PMFs
    q = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])
    cfg = default_config(L=2)
    delivered_packets_pmf(q[:1], cfg, link_budget_for(cfg).budget)
    hits = _windows.cache_info().hits
    pmf = delivered_packets_pmf(q[1:], cfg, link_budget_for(cfg).budget)[0]
    assert _windows.cache_info().hits == hits + 1
    _windows.cache_clear()
    assert np.array_equal(pmf, delivered_packets_pmf(q[1:], cfg, link_budget_for(cfg).budget)[0])


def test_windows_are_read_only():
    for a in _windows(default_config(), Q0):
        with pytest.raises(ValueError):
            a[0] = 1


@pytest.mark.parametrize("snr_db,equal_tables", [
    (20.0, False),   # budgets 1 and 0 at u = 2, under orthogonal and non-orthogonal access
    (0.0, True),     # every budget 0 under both schemes
    (25.0, True),    # budgets 2, 1, 0, ... under both schemes
])
def test_a_scenario_after_a_shared_build_equals_a_cold_one(snr_db, equal_tables):
    # both schemes of one grid point share the windows and the factors
    # that read no scheme, and the whole scenario where their budget tables
    # agree; a cold build of each gives the same scenario
    rng = np.random.default_rng(3)
    dist = NeighborCacheDistribution(rng.dirichlet(np.ones(6), size=5))
    cfg = default_config(lam=3.0, snr=db_to_linear(snr_db))
    tables = [link_budget_for(cfg.with_scheme(s)).budget for s in Scheme]
    assert np.array_equal(*tables) == equal_tables
    assert tables[0].any() == (snr_db > 0)
    _build_scenario.cache_clear()
    warm = [scenario(dist, cfg.with_scheme(s)) for s in Scheme]
    assert _build_scenario.cache_info().misses == 2 - equal_tables
    assert (warm[0] is warm[1]) == equal_tables
    for memo in (_beta, _noise, _windows, _truncation_point, _build_scenario):
        memo.cache_clear()
    for s, shared in zip(Scheme, warm):
        assert _same(scenario(dist, cfg.with_scheme(s)), shared)


# another value of each field the scenario does not read, which leaves the
# budget table of BASE (every budget 0, at 0 dB) as it is
BASE = default_config(snr=1.0)
SAME_TABLE = {name: OTHER[name] for name in
              ("scheme", "snr", "tau", "radius", "alpha", "quad_nodes", "M")}


@pytest.mark.parametrize("field", [*SAME_TABLE, "gamma", "eta", "lam", "mu",
                                   "n_trunc_epsilon"])
def test_the_scenario_is_keyed_by_the_budget_table_and_the_fields_it_reads(field):
    dist = NeighborCacheDistribution(Q)
    other = replace(BASE, **{field: OTHER[field]})
    if field in SAME_TABLE:
        assert np.array_equal(link_budget_for(other).budget, link_budget_for(BASE).budget)
    _build_scenario.cache_clear()
    first = scenario(dist, BASE)
    served = scenario(dist, other)
    assert (served is first) == (field in SAME_TABLE)
    q = dist.rows(other)
    cold = _build_scenario.__wrapped__(other, link_budget_for(other).budget.tobytes(),
                                       q.tobytes(), q.shape)
    assert _same(served, cold)


def test_a_field_not_named_cannot_be_read():
    @memo_on("L")
    def reads_m(cfg):
        return cfg.L + cfg.M

    with pytest.raises(AttributeError):
        reads_m(default_config())
