"""Domain parameters and the closed-form traffic/mobility distributions.

The network model: a typical user with a cache of ``M`` packets chooses how
many coded packets of each of ``F`` contents to store.  Neighbors wander in
and out of its communication disc (Poisson arrivals at rate ``lam``, Poisson
departures at rate ``mu``), each is battery-capable with probability ``eta``,
and each independently caches a random number of packets of every content.
Requests follow a Zipf popularity law.  The capable count in the disc is
Poisson(eta*lam/mu), ``poisson_pmf(n, cfg.mean_capable)``, and every sum over
it is cut at ``poisson_truncation``, found for every accepted epsilon.  The
Poisson terms, tails and truncation points are numpy's own: exact
factorials below k = 64, Loader's saddle-point form above, and tails summed
from windows of terms that Chernoff and Bernstein bounds size.  The library
imports no scipy module.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import InitVar, dataclass, field, replace
from enum import Enum
from functools import lru_cache, wraps
from operator import attrgetter

import numpy as np


class Scheme(str, Enum):
    """Multiple-access scheme used by simultaneously transmitting neighbors."""

    ORTHOGONAL = "orthogonal"
    NON_ORTHOGONAL = "non_orthogonal"


class CapacityError(ValueError):
    """An exact/brute-force routine was asked for more work than its cap allows."""


# Caps on an accepted config: F*(L+1), the entries of an (F, L+1) table, which
# SystemConfig checks before the CLI builds F cache rows; and the Poisson
# truncation point, which poisson_truncation checks before any caller sizes a
# window over the capable-user count by it (5,013,417 at mean 5e6).
MAX_TABLE_ENTRIES = MAX_TRUNCATION = 2**23

# Entries per block of an array computation, so that a block's memory grows
# with neither the node count nor the number of means: (u, node) terms of
# the quadrature, max(1, BLOCK_ENTRIES // quad_nodes) rows; and Poisson
# terms of the truncation and tail windows, BLOCK_ENTRIES // 8 of them, as
# each takes several arrays of temporaries.
BLOCK_ENTRIES = 8192 * 64


def db_to_linear(x_db):
    """Convert a dB quantity to linear scale."""
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of the network, channel, and mobility model.

    ``tau`` and ``snr`` are stored in linear scale; dB conversion happens at
    the CLI boundary only.  ``n_trunc_epsilon`` and ``quad_nodes`` are
    numerical-method settings, not physical parameters.
    """

    F: int                      # number of contents
    gamma: float                # Zipf exponent
    L: int                      # packets per content
    M: int                      # typical-user memory, in packets
    eta: float                  # probability a move-in user can transmit
    lam: float                  # mean arrival rate of move-in users
    mu: float                   # mean departure rate
    tau: float                  # SINR threshold, linear
    radius: float               # D2D communication range
    alpha: float                # path-loss exponent
    snr: float                  # transmit SNR, linear
    scheme: Scheme = Scheme.ORTHOGONAL
    n_trunc_epsilon: float = 1e-9
    quad_nodes: int = 64

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if not (isinstance(self.F, int) and self.F >= 1):
            raise ValueError(f"F must be an integer >= 1, got {self.F!r}")
        if not (isinstance(self.L, int) and self.L >= 1):
            raise ValueError(f"L must be an integer >= 1, got {self.L!r}")
        if not (isinstance(self.M, int) and 0 <= self.M <= self.F * self.L):
            raise ValueError(f"M must be an integer in [0, F*L], got {self.M!r}")
        if self.F * (self.L + 1) > MAX_TABLE_ENTRIES:
            raise CapacityError(f"F*(L+1) = {self.F * (self.L + 1)} is above the cap "
                                f"{MAX_TABLE_ENTRIES} on table entries")
        if not (isinstance(self.quad_nodes, int) and self.quad_nodes >= 8):
            raise ValueError(f"quad_nodes must be an integer >= 8, got {self.quad_nodes!r}")
        checks = [
            ("gamma", self.gamma, self.gamma >= 0),
            ("eta", self.eta, 0 <= self.eta <= 1),
            ("lam", self.lam, self.lam >= 0),
            ("mu", self.mu, self.mu > 0),
            ("tau", self.tau, self.tau > 0),
            # the disc density 2r/radius**2 needs a square that is neither 0 nor inf
            ("radius", self.radius, 0 < self.radius * self.radius < math.inf),
            ("alpha", self.alpha, self.alpha > 0),
            ("snr", self.snr, self.snr > 0),
            ("n_trunc_epsilon", self.n_trunc_epsilon, 0 < self.n_trunc_epsilon < 1),
        ]
        for name, value, ok in checks:
            if not (ok and math.isfinite(float(value))):
                raise ValueError(f"{name} out of range: {value!r}")

    @property
    def mean_capable(self) -> float:
        """Mean number of transmit-capable users inside the disc (eta*lam/mu)."""
        return self.eta * self.lam / self.mu

    def with_scheme(self, scheme: Scheme) -> "SystemConfig":
        """This config under ``scheme``: itself when the scheme is already
        its own, as a frozen config may be shared."""
        scheme = Scheme(scheme)
        return self if scheme is self.scheme else replace(self, scheme=scheme)


def default_config(**overrides) -> SystemConfig:
    """Small benchmark scenario used throughout the tests and demos.

    F=5 contents, gamma=0.6, L=5 packets each, M=5 packet memory, eta=0.5,
    lam=mu=1, tau=5 dB, radius=5, alpha=4, snr=20 dB, orthogonal access.
    """
    params = dict(
        F=5, gamma=0.6, L=5, M=5, eta=0.5, lam=1.0, mu=1.0,
        tau=db_to_linear(5.0), radius=5.0, alpha=4.0, snr=db_to_linear(20.0),
        scheme=Scheme.ORTHOGONAL, n_trunc_epsilon=1e-9, quad_nodes=64,
    )
    params.update(overrides)
    return SystemConfig(**params)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def memo_on(*fields: str, maxsize: int = 8):
    """Memoize ``f(cfg, *args)`` on the named fields (two or more) of ``cfg``
    and on ``args``, so configs that differ only in other fields share one entry.

    ``f`` is handed a named tuple of those fields in place of the config:
    reading any other field raises instead of serving a stale result.
    ``__wrapped__(cfg, *args)`` is a fresh build; ``cache_info`` and
    ``cache_clear`` are those of the underlying ``lru_cache``.
    """
    get, make = attrgetter(*fields), namedtuple("Fields", fields)._make

    def decorate(f):
        cached = lru_cache(maxsize=maxsize)(f)

        @wraps(f)
        def memo(cfg, *args):
            return cached(make(get(cfg)), *args)

        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        return memo

    return decorate


@lru_cache(maxsize=8)
def zipf_popularity(F: int, gamma: float) -> np.ndarray:
    """Zipf request probabilities: rank-i weight i**(-gamma), normalized,
    non-increasing and summing to 1; memoized on (F, gamma), and shared, so
    read-only.  At a large gamma the tail may underflow to 0.0: a content
    nobody requests."""
    if not (isinstance(F, int) and F >= 1):
        raise ValueError(f"F must be an integer >= 1, got {F!r}")
    if not gamma >= 0:   # NaN fails it
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    weights = np.arange(1, F + 1, dtype=float) ** (-float(gamma))
    return _readonly(weights / weights.sum())


@dataclass(frozen=True, eq=False)
class NeighborCacheDistribution:
    """Per-content PMF of the packet count a neighboring user caches.

    ``q[i, d]`` is the probability a neighbor holds exactly ``d`` packets of
    content ``i``, with d in 0..L.  Rows are independent and identical across
    neighbors.  The instance owns a read-only copy, so its identity keys the rows.
    """

    q: np.ndarray

    def __post_init__(self):
        arr = np.array(self.q, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("cache distribution must be an (F, L+1) matrix")
        # each check is written so that NaN fails it
        if not (arr >= 0).all():
            raise ValueError("cache PMF entries must be nonnegative numbers")
        sums = arr.sum(axis=1)
        if not (np.abs(sums - 1.0) <= 1e-12).all():
            raise ValueError(f"each per-content PMF must sum to 1, got sums {sums}")
        object.__setattr__(self, "q", _readonly(arr))

    @property
    def F(self) -> int:
        return self.q.shape[0]

    @property
    def L(self) -> int:
        return self.q.shape[1] - 1

    def rows(self, cfg: SystemConfig) -> np.ndarray:
        """The cache rows q; raises unless their shape is cfg's (F, L+1)."""
        if self.q.shape != (cfg.F, cfg.L + 1):
            raise ValueError(f"cache distribution has {self.F} rows for L={self.L}; "
                             f"the config reads {cfg.F} rows for L={cfg.L}")
        return self.q

    @classmethod
    def uniform(cls, F: int, L: int) -> "NeighborCacheDistribution":
        """Uniform PMF 1/(L+1) over {0..L} for every content (the default)."""
        return cls(np.full((F, L + 1), 1.0 / (L + 1)))


@dataclass(frozen=True, eq=False)
class Placement:
    """The typical user's cache vector: packets stored per content.

    Construction validates the cache constraints against the config:
    0 <= c[i] <= L and sum(c) <= M.  Violations raise, never clamp.  The
    evaluators read the counts through ``counts(cfg)``, which checks them
    against the config they evaluate under.
    """

    c: np.ndarray
    cfg: InitVar[SystemConfig]
    top: int = field(init=False)    # the largest count
    used: int = field(init=False)   # packets stored in all

    def __post_init__(self, cfg: SystemConfig):
        arr = np.asarray(self.c)
        if arr.ndim != 1 or arr.size != cfg.F:
            raise ValueError(f"placement must have F={cfg.F} entries, got shape {arr.shape}")
        if not (arr == np.floor(arr)).all():
            raise ValueError("placement entries must be integers")
        arr = arr.astype(int)
        top, used = int(arr.max()), int(arr.sum())
        if arr.min() < 0 or top > cfg.L:
            raise ValueError(f"placement entries must lie in 0..L={cfg.L}: {arr}")
        if used > cfg.M:
            raise ValueError(f"placement uses {used} packets, memory is M={cfg.M}")
        object.__setattr__(self, "c", _readonly(arr))
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "used", used)

    def counts(self, cfg: SystemConfig) -> np.ndarray:
        """The packet counts c; raises unless they fit cfg: F of them, none
        above L and at most M in all.  Checked against the integers recorded
        at construction, so it makes no pass over c."""
        if self.c.size != cfg.F or self.top > cfg.L or self.used > cfg.M:
            raise ValueError(f"placement of {self.c.size} contents holds up to {self.top} "
                             f"packets of one and {self.used} in all; the config reads "
                             f"F={cfg.F}, L={cfg.L}, M={cfg.M}")
        return self.c

    def __eq__(self, other):
        return isinstance(other, Placement) and np.array_equal(self.c, other.c)

    def __repr__(self):
        return f"Placement({self.c.tolist()})"


def poisson_pmf(k, mean):
    """P[X = k] for X ~ Poisson(mean), mean >= 0, elementwise over integers
    k >= 0 and broadcast with the means; at mean 0 it is 1 at k = 0 and 0
    elsewhere.

    Below _TABLE_K a term is exp(k log(mean) - mean) / k!, with k! exact to
    rounding.  From _TABLE_K up it is Loader's saddle-point form
    exp(-stirlerr(k) - bd0(k, mean)) / sqrt(2 pi k), which keeps the digits
    that k log(mean) and log(k!) would cancel at large k.  A term depends on
    its own (k, mean) alone, so any block of them holds each bit for bit.
    """
    k, mean = np.asarray(k, dtype=np.intp), np.asarray(mean, dtype=float)
    zero = None
    if not mean.min(initial=1.0) > 0:
        zero = mean == 0
        mean = np.where(zero, 1.0, mean)
    if k.max(initial=0) < _TABLE_K:
        pmf = np.exp(k * np.log(mean) - mean) / _FACTORIALS[k]
    else:
        pmf = _loader_pmf(k, mean)
    return pmf if zero is None else np.where(zero, k == 0, pmf)


# Terms of k below _TABLE_K divide by an exact k!; the windows of a mean up
# to about 5 stay below it.  Over k < 64 and means up to 200 the table form
# was within 6.7e-14 of 40-digit mpmath (20,000 samples).
_TABLE_K = 64
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(_TABLE_K)])
_STIRLERR = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def _loader_pmf(k, mean):
    """poisson_pmf's terms, at means > 0, where some k reaches _TABLE_K: the
    k below it by the table form, the others by Loader's (C. Loader, "Fast
    and Accurate Computation of Binomial Probabilities", 2000), stirlerr(k)
    by its Stirling series.

    bd0(k, m) = k log(k/m) + m - k is summed as its series in
    v = (k - m)/(k + m), until no term changes it, where |v| < 1/2; elsewhere
    the closed form loses no digit that shows.  A term whose closed-form
    bd0 passes 800 is below e**-800 and so 0, and costs nothing more.  Means
    below 1e-290 are read as 1e-290: every term from _TABLE_K is 0 there.
    """
    big, m = np.maximum(k, _TABLE_K).astype(float), np.maximum(mean, 1e-290)
    bd0 = big * np.log(big / m) - (big - m)
    pmf = np.zeros(bd0.shape)
    small = np.flatnonzero(np.broadcast_to(k < _TABLE_K, pmf.shape))
    ks, ms = np.broadcast_to(k, pmf.shape).flat[small], np.broadcast_to(mean, pmf.shape).flat[small]
    pmf.flat[small] = np.exp(ks * np.log(ms) - ms) / _FACTORIALS[ks]
    live = np.flatnonzero((bd0 < 800) & (k >= _TABLE_K))
    k, m, bd0 = (np.broadcast_to(a, pmf.shape).flat[live] for a in (big, m, bd0))
    near = np.flatnonzero(np.abs(k - m) < 0.5 * (k + m))
    if near.size:
        d = k[near] - m[near]
        v = d / (k[near] + m[near])
        s, ej, v = d * v, 2 * k[near] * v, v * v
        for j in itertools.count(3, 2):
            ej = ej * v
            s, before = s + ej / j, s
            if (s == before).all():
                break
        bd0[near] = s
    kk = k * k
    c0, c1, c2, c3, c4 = _STIRLERR
    stirlerr = (c0 - (c1 - (c2 - (c3 - c4 / kk) / kk) / kk) / kk) / k
    pmf.flat[live] = np.exp(-stirlerr - bd0) / np.sqrt(2 * math.pi * k)
    return pmf


def _chernoff_top(mean: float, a: float) -> float:
    """An x with P[X >= x] <= exp(-a): above the root of
    x ln(x / mean) - x + mean = a, by the Chernoff bound
    P[X >= x] <= exp(-mean) (e mean / x)**x.  Newton steps from the top by
    Bernstein's inequality, P[X >= mean + t] <= exp(-t**2 / (2 (mean + t/3))),
    which is above the root, stay above it on this convex function."""
    if mean == 0:
        return 0.0
    x = mean + a / 3 + math.sqrt(a * a / 9 + 2 * a * mean)
    for _ in range(50):
        log_ratio = math.log(x) - math.log(mean)
        step = (x * log_ratio - x + mean - a) / log_ratio
        x -= step
        if step < 0.25:
            break
    return x


# -log of the share of a tail that its window's top may leave out
_LEFT_OUT = 60 * math.log(2)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
# Poisson terms per block of the truncation and tail windows
_WINDOW_ENTRIES = BLOCK_ENTRIES // 8


def poisson_tail(mean, n):
    """P[X > n] for X ~ Poisson(mean): 0 at mean 0, and 1 for n < 0 at
    mean > 0.  Elementwise over arrays of means and n; a float for scalars.

    The tail is the sum of the terms n+1 .. top, added from n+1 up.  The
    terms past the top sum to at most 2**-60 of the tail, so each is below
    half an ulp of the sum so far and would not change it: a tail is the
    same for any higher top, and so the same in any array.  The window
    starts no lower than mean - sqrt(2 mean 61 ln 2): the terms below sum
    to at most 2**-61, of a tail that is then at least 1/2.  Below 2**-1022
    the terms underflow gradually, each within 2**-1075, so a tail there is
    their sum, and 0 only where every term past n is.
    """
    mean, k = np.asarray(mean, dtype=float), np.asarray(n) + 1
    special = not (k.min(initial=1) >= 1 and mean.min(initial=1.0) > 0)
    if special:   # the tail is 1 for n < 0 at mean > 0, and 0 at mean 0
        below, zero = k < 1, mean == 0
        k, mean = np.maximum(k, 1), np.where(zero, 1.0, mean)
    # past k the terms fall by at least r = mean / k a step, so those
    # past k + w sum to at most r**w / (1 - r) of the first; where some r
    # passes 1/2, Bernstein's inequality bounds them instead, against the
    # term at k, exp(-stirlerr - bd0) / sqrt(2 pi k), stirlerr <= 1/12
    r = max(float((mean / k).max(initial=0.0)), 2.0**-1074)
    if r <= 0.5:   # the width grows with r
        width = (_LEFT_OUT - math.log1p(-r)) / -math.log(r)
    else:
        a = k * (np.log(k) - np.log(mean)) + (mean - k) + 0.5 * np.log(k) + (_LEFT_OUT + 1 + _HALF_LOG_2PI)
        # every term past P[X > top] < 2**-1135 is 0
        a = np.minimum(a, 1135 * math.log(2)) / 3
        top = np.ceil(mean + a + np.sqrt(a * a + 6 * a * mean))
        k = np.maximum(k, np.floor(mean - np.sqrt(mean * (2 * _LEFT_OUT + 2 * math.log(2)))).astype(int))
        width = (top - k).max(initial=0)
    j = np.arange(math.ceil(width) + 1)
    shape = np.broadcast(mean, k)
    if shape.size * j.size <= _WINDOW_ENTRIES:
        tail = np.cumsum(poisson_pmf(k[..., None] + j, mean[..., None]), axis=-1)[..., -1]
    else:
        shape = shape.shape
        m, k = np.broadcast_to(mean, shape).ravel(), np.broadcast_to(k, shape).ravel()
        step, tail = max(1, _WINDOW_ENTRIES // j.size), np.empty(m.size)
        for start in range(0, m.size, step):
            rows = slice(start, start + step)
            tail[rows] = np.cumsum(poisson_pmf(k[rows, None] + j, m[rows, None]), axis=1)[:, -1]
        tail = tail.reshape(shape)
    if special:
        tail = np.where(below, ~zero, np.where(zero, 0.0, tail))
    return float(tail) if tail.ndim == 0 else tail


def poisson_truncation(cfg: SystemConfig, mean=None):
    """Smallest N with Poisson tail mass beyond N below cfg.n_trunc_epsilon.

    Summations over the capable-user count are cut at this N; the induced
    absolute error on the average load is at most L times the tail mass and
    is reported by the evaluators, not hidden.  ``mean`` defaults to the mean
    capable count; an array of means gives an int array, each entry the N of
    its own mean.  A point above MAX_TRUNCATION raises CapacityError.

    Each mean takes one window of terms, and one sum from its top gives the
    tail past every n in it, poisson_tail's tail up to rounding.  A window
    starts at mean - sqrt(2 mean ln(1/(1 - epsilon))) less one, where the
    tail is at least epsilon, as P[X <= mean - t] <= exp(-t**2 / (2 mean)).
    Its terms below 2**-70 epsilon are left out, and by the Chernoff bound
    no term that large lies past its top; so a point does not depend on the
    width of the window, which the largest mean of an array sets.
    """
    if mean is None:
        mean = cfg.mean_capable
    eps = cfg.n_trunc_epsilon
    m = np.ravel(np.asarray(mean, dtype=float))
    c = -2 * math.log1p(-eps)
    m_top = float(m.max(initial=0.0))
    # the point is at least the start, and a window's start and width grow
    # with the mean: so the largest mean refuses, NaN at an infinite mean
    # too, or sizes every window
    if not m_top - math.sqrt(m_top * c) - 2 <= MAX_TRUNCATION:
        _refuse_truncation(mean)
    tiny = eps * 2.0**-70
    a = min(4 - math.log(tiny), 1135 * math.log(2)) if tiny else 1135 * math.log(2)
    j = np.arange(int(_chernoff_top(m_top, a) - m_top + math.sqrt(m_top * c)) + 5)
    lo = None   # every start is 0 at means below 2
    if m_top >= 2:
        lo = np.maximum(np.floor(m - np.sqrt(m * c)) - 1, 0).astype(int)[:, None]
    step = max(1, _WINDOW_ENTRIES // j.size)
    n = np.empty(m.size, dtype=int)
    for start in range(0, m.size, step):
        rows = slice(start, start + step)
        terms = poisson_pmf(j if lo is None else lo[rows] + j, m[rows, None])
        terms *= terms >= tiny
        # the tails past lo - 1 .. lo + j[-1] - 1, added from the top: the
        # point is lo - 1 plus the count of those at least epsilon
        n[rows] = (np.cumsum(terms[:, ::-1], axis=1) >= eps).sum(axis=1)
    n = np.maximum(n - 1 if lo is None else n + (lo[:, 0] - 1), 0)
    if m_top + j.size > MAX_TRUNCATION and n.max() > MAX_TRUNCATION:
        _refuse_truncation(mean)
    return int(n[0]) if np.ndim(mean) == 0 else n.reshape(np.shape(mean))


def _refuse_truncation(mean):
    raise CapacityError(f"Poisson truncation point above the cap {MAX_TRUNCATION} "
                        f"at Poisson mean {np.max(mean):.6g}")


def expected_stay_time(cfg: SystemConfig) -> float:
    """Expected time a neighbor stays inside the disc: 1/mu."""
    return 1.0 / cfg.mu
