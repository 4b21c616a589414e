"""Base-station load of a request, and its average over the random model.

The BS must supply whatever part of a requested content neither the typical
user's own cache nor its D2D neighbors can cover.  The average load is an
expectation over the request (Zipf), the capable-user count (Poisson), and
the neighbors' cache contents (i.i.d. per-content PMFs).  Two independent
evaluators are provided: exact enumeration over neighbor cache vectors (the
oracle, feasible only for small truncation points) and a collapsed
thinned-Poisson + capped-convolution evaluator (the fast path, exact up to
the same truncation).  The fast path convolves only where delivery is
uncertain: u transmitters with budget 0 deliver nothing, and u >= L with
budget >= 1 deliver at least L packets, whose bin no shortfall table reads;
so only u < L with budget >= 1 takes convolutions (u < min(L, u0), u0 the
first zero budget, when budgets fall with u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product

import numpy as np

from .channel import LinkBudget, build_link_budget
from .model import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    SystemConfig,
    _readonly,
    poisson_pmf,
    poisson_tail,
    poisson_truncation,
    zipf_popularity,
)

# Enumeration oracle refuses beyond this many neighbors per term: (L+1)**5
# vectors at L=5 is still cheap, (L+1)**6 is not.  Verification-only cap.
N_ENUM_MAX = 5


class Method(Enum):
    ENUM_EXACT = "enum_exact"
    CONVOLUTION = "convolution"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class LoadEvaluation:
    """Average BS load in packets, with per-content breakdown and provenance."""

    total: float
    per_content: np.ndarray
    truncation_bound: float
    method: Method

    def __post_init__(self):
        self.per_content.setflags(write=False)
        if self.truncation_bound < 0:
            raise ValueError("truncation bound must be nonnegative")
        if np.any(self.per_content < -1e-12):
            raise ValueError("per-content loads must be nonnegative")


def request_load(c_i: int, d, cfg: SystemConfig, lb: LinkBudget) -> int:
    """Packets the BS serves for one request, given neighbor cache counts d.

    u counts the neighbors holding at least one packet of the content; each
    of them delivers min(d_k, budget[u]) packets.  Neighbors with zero
    packets neither transmit nor count toward u.
    """
    if not 0 <= c_i <= cfg.L:
        raise ValueError(f"c_i must lie in 0..L={cfg.L}, got {c_i}")
    d = np.asarray(d, dtype=int)
    if d.size and (d.min() < 0 or d.max() > cfg.L):
        raise ValueError(f"neighbor packet counts must lie in 0..L={cfg.L}: {d}")
    transmitters = d[d > 0]
    u = transmitters.size
    if u == 0:
        return cfg.L - c_i
    if u > lb.u_max:
        raise ValueError(f"link budget covers u <= {lb.u_max}, need u = {u}")
    delivered = np.minimum(transmitters, lb.budget[u]).sum()
    return int(max(0, cfg.L - c_i - delivered))


def _saturating_convolve(dist: np.ndarray, pmf: np.ndarray, cap: int) -> np.ndarray:
    """Distribution of dist's sum plus one draw from pmf, mass at >= cap folded into cap.

    Folding is exact for our use: every saturated outcome contributes zero to
    the positive-part load, so only the bins below cap need to be exact.
    """
    full = np.convolve(dist, pmf)
    out = full[: cap + 1].copy()
    out[cap] += full[cap + 1 :].sum()
    return out


def _saturating_self_convolutions(pmf: np.ndarray, copies: int, cap: int) -> np.ndarray:
    """Distribution of a sum of `copies` i.i.d. draws, mass at >= cap folded into cap."""
    dist = np.zeros(cap + 1)
    dist[0] = 1.0
    for _ in range(copies):
        dist = _saturating_convolve(dist, pmf, cap)
    return dist


def _transmitters(q_i: np.ndarray, cfg: SystemConfig):
    """Mean and truncated Poisson PMF of one content's transmitter count: the
    capable users thinned by P[d > 0]."""
    mean = (1.0 - q_i[0]) * cfg.mean_capable
    if mean == 0.0:
        return mean, np.array([1.0])
    return mean, poisson_pmf(np.arange(poisson_truncation(cfg, mean) + 1), mean)


def delivered_packets_pmf(q_i: np.ndarray, cfg: SystemConfig):
    """PMF of the D2D-delivered packet count for one content, and its tail bound.

    Collapses the (capable-count, cache-vector) expectation: the number of
    transmitters is the capable-user Poisson thinned by P[d > 0], and each
    transmitter's packet count is the cache PMF conditioned on d > 0, capped
    at the budget for that transmitter count.  Mass at >= L is folded into
    the L bin (it can never leave residual load).

    Each transmitter count u falls in one of three ranges:

    - silent, budget[u] == 0: nothing is delivered, so pu[u] goes to bin 0;
    - saturated, u >= L and budget[u] >= 1: each transmitter delivers at
      least one packet, so pu[u] goes to bin L;
    - the rest, u < L with budget[u] >= 1: a capped u-fold convolution,
      carried over from u-1 while the budget stays the same and rebuilt
      where it steps, so at most L*(L-1)/2 convolutions whatever the mean.

    LinkBudget enforces non-increasing budgets only under orthogonal access,
    so a power is carried only from a u-1 convolved with the same budget.
    Every bin below L matches a from-scratch power per u bit for bit: a
    convolved power's bin 0 is exactly 0.0, so bin 0 is pu[0] plus the
    silent pu[u] summed in u order, and a saturated power is exactly 0.0
    below L.  Bin L may differ by rounding; no shortfall table reads it, as
    its weight max(0, L - c - L) is 0.
    """
    L = cfg.L
    mean, pu = _transmitters(q_i, cfg)
    if mean == 0.0:
        pmf = np.zeros(L + 1)
        pmf[0] = 1.0
        return pmf, 0.0
    u_max = pu.size - 1
    budget = link_budget_for(cfg).budget[: u_max + 1]
    cond = q_i[1:] / (1.0 - q_i[0])  # packet-count PMF of a transmitter, on 1..L

    mixed = np.zeros(L + 1)
    mixed[0] = np.add.accumulate(pu[budget == 0])[-1]   # in u order; np.sum is pairwise
    for u in range(1, min(L, u_max + 1)):
        b = int(budget[u])
        if b == 0:
            continue
        if u > 1 and b == budget[u - 1]:
            power = _saturating_convolve(power, per_tx, L)
        else:
            per_tx = np.zeros(L + 1)
            if b >= L:
                per_tx[1:] = cond
            else:
                per_tx[1:b] = cond[: b - 1]
                per_tx[b] = cond[b - 1 :].sum()
            power = _saturating_self_convolutions(per_tx, u, L)
        mixed += pu[u] * power
    mixed[L] += pu[L:][budget[L:] >= 1].sum()
    return mixed, poisson_tail(mean, u_max)


def shortfall_table(q_i: np.ndarray, cfg: SystemConfig):
    """E[(L - c - delivered)^+] for c = 0..L, for one content.

    The delivered-packet distribution does not depend on the typical user's
    own cache, so one PMF serves every cache level.
    """
    pmf, tail = delivered_packets_pmf(q_i, cfg)
    k = np.arange(cfg.L + 1)
    return np.vecdot(np.maximum(0, cfg.L - k[:, None] - k), pmf), tail


def _per_distinct_row(fn, q: np.ndarray) -> list:
    """[fn(row) for row in q], calling fn once per distinct row of q.

    Rows are matched by their bytes, so a shared result is exactly what fn
    would have returned for each of its rows.
    """
    memo = {}
    for row in q:
        key = row.tobytes()
        if key not in memo:
            memo[key] = fn(row)
    return [memo[row.tobytes()] for row in q]


def shortfall_tables(dist: NeighborCacheDistribution, cfg: SystemConfig):
    """Per-content shortfall tables, shape (F, L+1), plus per-content tail masses.

    Contents with the same cache PMF share a table, so one table is computed
    per distinct row of ``dist.q`` (the CLI's uniform caches make all F rows
    equal) and scattered back to the F contents.
    """
    pairs = _per_distinct_row(lambda q_i: shortfall_table(q_i, cfg), dist.q[: cfg.F])
    tables = np.array([table for table, _ in pairs])
    tails = np.array([tail for _, tail in pairs])
    return tables, tails


@lru_cache(maxsize=8)   # small, as _disc_terms: a grid point uses one config per scheme
def link_budget_for(cfg: SystemConfig) -> LinkBudget:
    """The link budget of ``cfg``, covering every transmitter count the
    truncated sums can see; memoized, as every evaluator reads it."""
    return build_link_budget(cfg, max(1, poisson_truncation(cfg)))


@dataclass(frozen=True)
class Scenario:
    """Popularity, (F, L+1) shortfall tables, their tail masses and
    the (F, L) per-packet gains ``gains[i, c]``, the load decrease from the
    (c+1)-th packet of content i, for one (cache rows, config) pair; read-only,
    as every caller shares it."""

    f: np.ndarray
    tables: np.ndarray
    tails: np.ndarray
    gains: np.ndarray


def scenario(dist: NeighborCacheDistribution, cfg: SystemConfig) -> Scenario:
    """The scenario of ``dist`` under ``cfg``, memoized by the frozen config
    and the bytes of the F cache rows in use, so a hit equals a fresh build."""
    q = dist.q[: cfg.F]
    return _build_scenario(cfg, q.tobytes(), q.shape)


@lru_cache(maxsize=8)   # small: callers reuse a scenario within one grid point
def _build_scenario(cfg: SystemConfig, q_bytes: bytes, shape: tuple) -> Scenario:
    dist = NeighborCacheDistribution(np.frombuffer(q_bytes).reshape(shape))
    tables, tails = shortfall_tables(dist, cfg)
    f = zipf_popularity(cfg.F, cfg.gamma).probs
    gains = f[:, None] * (tables[:, :-1] - tables[:, 1:])
    return Scenario(f, _readonly(tables), _readonly(tails), _readonly(gains))


def average_load_fast(
    placement: Placement,
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
) -> LoadEvaluation:
    """Average BS load by the thinned-Poisson + capped-convolution collapse.

    Agrees with the enumeration oracle up to the reported truncation bounds;
    the collapse is gated by that equivalence in the test suite.
    """
    s = scenario(dist, cfg)
    per_content = s.f * s.tables[np.arange(cfg.F), placement.c]
    bound = float((s.f * cfg.L * s.tails).sum())
    return LoadEvaluation(
        total=float(per_content.sum()),
        per_content=per_content,
        truncation_bound=bound,
        method=Method.CONVOLUTION,
    )


def average_load_enum(
    placement: Placement,
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
) -> LoadEvaluation:
    """Average BS load by exact enumeration over neighbor cache vectors.

    Enumerates every (L+1)**n cache vector for each capable-user count n up
    to the Poisson truncation point.  Verification oracle: refuses when the
    truncation point exceeds N_ENUM_MAX.
    """
    n_max = poisson_truncation(cfg)
    if n_max > N_ENUM_MAX:
        raise CapacityError(
            f"enumeration needs n <= {N_ENUM_MAX}, truncation point is {n_max}; "
            "use average_load_fast"
        )
    lb = link_budget_for(cfg)
    f = zipf_popularity(cfg.F, cfg.gamma).probs
    mean = cfg.mean_capable
    p_n = poisson_pmf(np.arange(n_max + 1), mean) if mean > 0 else np.array([1.0])

    per_content = np.zeros(cfg.F)
    for i in range(cfg.F):
        q_i = dist.q[i]
        c_i = int(placement.c[i])
        expect = 0.0
        for n in range(p_n.size):
            term = 0.0
            for d in product(range(cfg.L + 1), repeat=n):
                weight = math.prod(q_i[dk] for dk in d)
                if weight == 0.0:
                    continue
                term += weight * request_load(c_i, d, cfg, lb)
            expect += p_n[n] * term
        per_content[i] = f[i] * expect
    bound = float(cfg.L * poisson_tail(mean, n_max))
    return LoadEvaluation(
        total=float(per_content.sum()),
        per_content=per_content,
        truncation_bound=bound,
        method=Method.ENUM_EXACT,
    )


def marginal_gain(
    placement: Placement,
    i: int,
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
) -> float:
    """Decrease in average load from caching one more packet of content i."""
    c_i = int(placement.c[i])
    if c_i >= cfg.L:
        raise ValueError(f"content {i} already holds all L={cfg.L} packets")
    return float(scenario(dist, cfg).gains[i, c_i])
