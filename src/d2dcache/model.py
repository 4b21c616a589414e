"""Domain parameters and the closed-form traffic/mobility distributions.

The network model: a typical user with a cache of ``M`` packets chooses how
many coded packets of each of ``F`` contents to store.  Neighbors wander in
and out of its communication disc (Poisson arrivals at rate ``lam``, Poisson
departures at rate ``mu``), each is battery-capable with probability ``eta``,
and each independently caches a random number of packets of every content.
Requests follow a Zipf popularity law.  The capable count in the disc is
Poisson(eta*lam/mu), ``poisson_pmf(n, cfg.mean_capable)``, and every sum over
it is cut at ``poisson_truncation``, found for every accepted epsilon.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import InitVar, dataclass, field, replace
from enum import Enum
from functools import lru_cache, wraps
from operator import attrgetter

import numpy as np
from scipy import special


class Scheme(str, Enum):
    """Multiple-access scheme used by simultaneously transmitting neighbors."""

    ORTHOGONAL = "orthogonal"
    NON_ORTHOGONAL = "non_orthogonal"


class CapacityError(ValueError):
    """An exact/brute-force routine was asked for more work than its cap allows."""


# Caps on an accepted config: F*(L+1), the entries of an (F, L+1) table, which
# SystemConfig checks before the CLI builds F cache rows; and the Poisson
# truncation point, which poisson_truncation checks before any caller sizes a
# window over the capable-user count by it (5,013,416 at mean 5e6).
MAX_TABLE_ENTRIES = MAX_TRUNCATION = 2**23


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


def poisson_pmf(k, mean: float):
    """P[X = k] for X ~ Poisson(mean), mean >= 0, elementwise over integers
    k >= 0; at mean 0 it is 1 at k = 0 and 0 elsewhere.

    The log-space formula scipy.stats.poisson evaluates, without its
    per-call argument checking; exp is never negative, so only the cap at 1
    of scipy's clip to [0, 1] can act.
    """
    return np.minimum(np.exp(special.xlogy(k, mean) - special.gammaln(k + 1) - mean), 1.0)


def poisson_tail(mean, n):
    """P[X > n] for X ~ Poisson(mean): 0 at mean 0, as pdtrc gives it for
    n >= 0, and 1 for n < 0 at mean > 0, where pdtrc is NaN.  Elementwise
    over arrays of means and n; a float for scalars."""
    tail = np.where(np.asarray(n) < 0, np.asarray(mean) != 0.0, special.pdtrc(n, mean))
    return float(tail) if tail.ndim == 0 else tail


def poisson_truncation(cfg: SystemConfig, mean=None):
    """Smallest N with Poisson tail mass beyond N below cfg.n_trunc_epsilon.

    Summations over the capable-user count are cut at this N; the induced
    absolute error on the average load is at most L times the tail mass and
    is reported by the evaluators, not hidden.  ``mean`` defaults to the mean
    capable count; an array of means gives an int array, each entry the N of
    its own mean, found by the same start and steps as a scalar mean.
    A point above MAX_TRUNCATION raises CapacityError.
    """
    if mean is None:
        mean = cfg.mean_capable
    eps = cfg.n_trunc_epsilon
    # start at scipy.stats' ppf of 1 - max(eps, 2**-53), finite where 1 - eps
    # rounds to 1; the loops fix n from any start.  At mean 0 every tail is 0.
    n = np.maximum(0.0, np.ceil(special.pdtrik(1.0 - max(eps, 2.0**-53), mean)))
    # the steps move n by far less than the cap, so a start past twice the
    # cap, or NaN as pdtrik gives at means near 1e19, is refused before them
    if not np.all(n <= 2 * MAX_TRUNCATION):
        _refuse_truncation(mean)
    n = n.astype(int)
    step = special.pdtrc(n, mean) >= eps
    while np.count_nonzero(step):
        n += step
        step &= special.pdtrc(n, mean) >= eps
    step = special.pdtrc(n - 1, mean) < eps   # NaN at n - 1 = -1 is not below eps
    while np.count_nonzero(step):
        n -= step
        step &= special.pdtrc(n - 1, mean) < eps
    if np.any(n > MAX_TRUNCATION):
        _refuse_truncation(mean)
    return int(n) if np.ndim(n) == 0 else n


def _refuse_truncation(mean):
    raise CapacityError(f"Poisson truncation point above the cap {MAX_TRUNCATION} "
                        f"at Poisson mean {np.max(mean):.6g}")


def expected_stay_time(cfg: SystemConfig) -> float:
    """Expected time a neighbor stays inside the disc: 1/mu."""
    return 1.0 / cfg.mu
