"""Memoized inputs are keyed by the config fields they read: a change to a
field a cache does not read hits it, a change to each field it reads misses
it, and what it serves equals a fresh build.  A key that left out a field
would serve stale results, so every field of SystemConfig is tried."""

import importlib
import pkgutil
from dataclasses import astuple, fields, is_dataclass, replace

import numpy as np
import pytest

import d2dcache
from d2dcache import (
    NeighborCacheDistribution,
    Scheme,
    SystemConfig,
    average_load_fast,
    default_config,
    estimate_average_load,
    exhaustive_placement,
    greedy_placement,
    high_mobility_placement,
    jensen_gap_check,
)
from d2dcache.channel import _beta, _noise
from d2dcache.load import (
    _build_scenario,
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
# a cache distribution of default_config()'s F and L
BUDGET = np.array([0, 3, 2, 2, 1] + [0] * 59).tobytes()
Q = np.random.default_rng(2).dirichlet(np.ones(6), size=5)
DIST = NeighborCacheDistribution(Q)

# name: (memo, its arguments after the config, the fields it reads)
CACHES = {
    "beta": (_beta, (), {"quad_nodes", "radius", "alpha", "tau"}),
    "noise": (_noise, (), {"quad_nodes", "radius", "alpha", "tau", "snr"}),
    "windows": (_windows, (Q0,), MEAN | {"n_trunc_epsilon"}),
    # the widest window, at q0 = 0, whose truncation point sizes the budget table
    "truncation_point": (_windows, (np.zeros(1).tobytes(),), MEAN | {"n_trunc_epsilon"}),
    "scenario": (_build_scenario, (BUDGET, DIST), MEAN | {"gamma", "n_trunc_epsilon"}),
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
    delivered_packets_pmf(q[:1], cfg, link_budget_for(cfg))
    hits = _windows.cache_info().hits
    pmf = delivered_packets_pmf(q[1:], cfg, link_budget_for(cfg))[0]
    assert _windows.cache_info().hits == hits + 1
    _windows.cache_clear()
    assert np.array_equal(pmf, delivered_packets_pmf(q[1:], cfg, link_budget_for(cfg))[0])


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
    tables = [link_budget_for(cfg.with_scheme(s)) for s in Scheme]
    assert np.array_equal(*tables) == equal_tables
    assert tables[0].any() == (snr_db > 0)
    _build_scenario.cache_clear()
    warm = [scenario(dist, cfg.with_scheme(s)) for s in Scheme]
    assert _build_scenario.cache_info().misses == 2 - equal_tables
    assert (warm[0] is warm[1]) == equal_tables
    for memo in (_beta, _noise, _windows, _build_scenario):
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
    other = replace(BASE, **{field: OTHER[field]})
    if field in SAME_TABLE:
        assert np.array_equal(link_budget_for(other), link_budget_for(BASE))
    _build_scenario.cache_clear()
    first = scenario(DIST, BASE)
    served = scenario(DIST, other)
    assert (served is first) == (field in SAME_TABLE)
    cold = _build_scenario.__wrapped__(other, link_budget_for(other).base, DIST)
    assert _same(served, cold)


def test_a_field_not_named_cannot_be_read():
    @memo_on("F", "L")
    def reads_m(cfg):
        return cfg.L + cfg.M

    with pytest.raises(AttributeError):
        reads_m(default_config())


# Every memoized function of the package, "module.name"; a new cache must be
# listed here, so that the warm-vs-cold test below clears it too.
MEMOIZED = {
    "channel._beta", "channel._gauss_legendre", "channel._noise", "cli.build_parser",
    "load._build_scenario", "load._shortfall_weights", "load._transition_index",
    "load._windows", "load.link_budget_for",
    "model.zipf_popularity",
}


def _caches():
    """Every object of a d2dcache module, defined there, with a cache_clear."""
    found = {}
    for info in pkgutil.iter_modules(d2dcache.__path__):
        module = importlib.import_module(f"d2dcache.{info.name}")
        for name, value in vars(module).items():
            if (callable(getattr(value, "cache_clear", None))
                    and getattr(value, "__module__", None) == module.__name__):
                found[f"{info.name}.{name}"] = value
    return found


def test_every_cache_is_listed():
    assert set(_caches()) == MEMOIZED


# A few values of each field, so that a walk over configs keeps hitting
# caches keyed by some of the fields while others change; every M fits F*L.
WALK = dict(F=[3, 4], L=[2, 3, 4], M=[2, 4, 6], gamma=[0.6, 1.5], eta=[0.5, 1.0],
            lam=[1.0, 3.0], mu=[1.0, 0.5], tau=[db_to_linear(5.0), 2.0], radius=[5.0, 3.0],
            alpha=[4.0, 3.0], snr=[1.0, 100.0, 1e4], scheme=list(Scheme),
            n_trunc_epsilon=[1e-9, 1e-6], quad_nodes=[64, 16])


def _walk(rng, steps):
    """Configs and cache distributions, each step changing one to three
    fields of the last config, and the rows only now and then.  Each drawn
    set of rows keeps one distribution, so steps that share rows share its
    scenarios."""
    cfg, dists = default_config(F=3, L=3, M=4), {}
    for _ in range(steps):
        changes = {name: WALK[name][rng.integers(len(WALK[name]))]
                   for name in rng.choice(list(WALK), size=rng.integers(1, 4), replace=False)}
        cfg = replace(cfg, **changes)
        shape = (cfg.F, cfg.L + 1)
        if shape not in dists or rng.random() < 0.2:
            uniform = rng.random() < 0.5
            dists[shape] = NeighborCacheDistribution(
                np.full(shape, 1.0 / shape[1]) if uniform
                else rng.dirichlet(np.ones(shape[1]), size=cfg.F))
        yield cfg, dists[shape]


def _results(dist, cfg):
    """What the public entry points return for one config."""
    placement, trace = greedy_placement(dist, cfg)
    return (placement.c, tuple(trace), exhaustive_placement(dist, cfg).c,
            high_mobility_placement(dist, cfg).c, average_load_fast(placement, dist, cfg),
            jensen_gap_check(placement, dist, cfg),
            estimate_average_load(placement, dist, cfg, trials=300, seed=1),
            scenario(dist, cfg), link_budget_for(cfg))


def test_warm_results_equal_cold_ones():
    # every result of a walk whose caches stay warm equals the result of the
    # same config after every cache is cleared
    caches = _caches().values()
    for cache in caches:
        cache.cache_clear()
    walk = list(_walk(np.random.default_rng(5), 400))
    warm = [_results(dist, cfg) for cfg, dist in walk]
    for (cfg, dist), served in zip(walk, warm):
        for cache in caches:
            cache.cache_clear()
        assert _same(served, _results(dist, cfg)), cfg
