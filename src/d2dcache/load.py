"""Base-station load of a request, and its average over the random model.

The BS must supply whatever part of a requested content neither the typical
user's own cache nor its D2D neighbors can cover.  The average load is an
expectation over the request (Zipf), the capable-user count (Poisson), and
the neighbors' cache contents (i.i.d. per-content PMFs).  Two independent
evaluators are provided: exact enumeration over neighbor cache vectors (the
oracle, feasible only for small truncation points) and a collapsed
thinned-Poisson + capped-convolution evaluator (the fast path, exact up to
the same truncation).  The fast path keeps delivered-packet PMFs on bins
0..L-1, as the shortfall is 0 from L on, and convolves only where they are
uncertain: u transmitters with budget 0 deliver nothing, and u >= L with
budget >= 1 deliver at least L packets.
Budgets never rise with u under either scheme, so the silent counts are
exactly u >= u0, u0 the first zero budget, and only u < min(L, u0) takes
convolutions.  Budgets depend on u and the config only, so every distinct
cache row shares one schedule: the rows are batched, each with its own
Poisson window, and a convolution step is one (rows, L, L) transition-matrix
product.  The bins equal a per-row construction up to rounding.  The
same Poisson windows give each row's floored delivery E[u * budget(u)] and
its truncation bound; the scenario carries the deliveries for the
high-mobility placement, and the bounds summed over the popularity for the
Jensen-gap check.  Every Poisson window the evaluators read is formed here
(optimize.gap_constant forms the config's truncation point for its scan).
The scenario of a cache distribution reads, of the config, only its budget
table (which it passes to the PMFs), gamma, the mean capable count and
epsilon; it is memoized on those, the table by the bytes object holding it,
and the distribution object, whose rows are exactly the config's: a hit
copies nothing, and configs whose tables agree (often both schemes) share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .channel import BLOCK_ENTRIES, build_link_budget
from .model import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    SystemConfig,
    _readonly,
    memo_on,
    poisson_pmf,
    poisson_tail,
    poisson_truncation,
    zipf_popularity,
)

# Smallest normal float: a divisor floored at it turns 0/0 into 0 and leaves
# every 1 - q0 > 0, which is at least 2**-53, as it is.
_TINY = np.finfo(float).tiny

# The q0 = 0 of a row whose every neighbour holds a packet: its window is
# the widest, and keys the truncation point that sizes a budget table.
_WIDEST = np.zeros(1).tobytes()

# Enumeration oracle refuses beyond this many neighbors per term: (L+1)**5
# vectors at L=5 is still cheap, (L+1)**6 is not.  Verification-only cap.
N_ENUM_MAX = 5


@dataclass(frozen=True)
class LoadEvaluation:
    """Average BS load in packets, with per-content breakdown and truncation bound."""

    total: float
    per_content: np.ndarray
    truncation_bound: float

    def __post_init__(self):
        self.per_content.setflags(write=False)
        if self.truncation_bound < 0:
            raise ValueError("truncation bound must be nonnegative")
        if (self.per_content < -1e-12).any():
            raise ValueError("per-content loads must be nonnegative")


def request_load(c_i: int, d, cfg: SystemConfig, budget: np.ndarray) -> int:
    """Packets the BS serves for one request, given neighbor cache counts d
    and the packet-budget table ``budget``, indexed by u.

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
    if u >= budget.size:
        raise ValueError(f"link budget covers u <= {budget.size - 1}, need u = {u}")
    delivered = np.minimum(transmitters, budget[u]).sum()
    return int(max(0, cfg.L - c_i - delivered))


@lru_cache(maxsize=32)
def _transition_index(L: int) -> np.ndarray:
    """Gather index of the transposed transition matrix on bins 0..L-1 from
    a transmitter's PMF per_tx[0..L-1]: entry (k, j), the chance of a move
    from j to k delivered packets, reads per_tx[k - j] for j <= k, and
    per_tx[0] = 0 (a transmitter delivers one packet at least) for j > k."""
    k, j = np.indices((L, L))
    return _readonly(np.where(j <= k, k - j, 0))


def _transitions(cond: np.ndarray, b: int, L: int) -> np.ndarray:
    """(rows, L, L) transposed transition matrices of one more transmitter
    with budget b >= 1: row k of matrix r holds the chances of reaching k < L
    delivered packets from each j, so a step is one dot per (row, k) over
    j = 0..L-1, in j order.  Mass that reaches L never comes back below it,
    so the source, the transmitter's PMF capped at min(b, L), stops at L-1."""
    b = min(b, L)
    source = np.zeros((cond.shape[0], L))
    source[:, 1:b] = cond[:, : b - 1]
    if b < L:
        source[:, b] = np.add.reduce(cond[:, b - 1 :], axis=1)
    # C order, so each dot runs over contiguous j as np.convolve's dots do
    return np.take(source, _transition_index(L), axis=1)


def _step(power: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """The delivered-packet PMFs on bins 0..L-1 after one more transmitter:
    row r's bin k is the dot of transitions[r, k] with power[r], which adds
    the products power[j] * per_tx[k - j] in j order, the order np.convolve
    adds them in."""
    return np.vecdot(transitions, power[:, None, :])


def delivered_packets_pmf(q_i: np.ndarray, cfg: SystemConfig, budget: np.ndarray):
    """PMFs of the D2D-delivered packet count on bins 0..L-1, one per cache
    row, their tail bounds, the floored deliveries and their truncation
    bounds: ``q_i`` stacks R rows (R, L+1); returns (R, L), (R,), (R,), (R,).
    ``budget`` is cfg's packet-budget table, ``link_budget_for(cfg)``;
    of cfg, only the fields of the Poisson windows are read.

    Collapses the (capable-count, cache-vector) expectation: the number of
    transmitters is the capable-user Poisson thinned by P[d > 0], truncated
    at its row's own point, and each transmitter's packet count is the cache
    PMF conditioned on d > 0, capped at the budget for that transmitter
    count.  Mass at >= L is dropped: it can never leave residual load, and
    as each transmitter hands over at least one packet it never comes back
    below L, so the bins are those of the plain convolution mod x^L.

    Two ranges of transmitter counts u add to the bins; the counts between,
    L <= u < u0, deliver at least L packets and add to none:

    - silent, u >= u0, the first zero budget: nothing is delivered, so
      pu[u] goes to bin 0;
    - u < min(L, u0): a capped u-fold convolution, as products of the
      per-transmitter transition matrices, carried over from u-1 while the
      budget stays the same and rebuilt where it steps, so at most
      L*(L-1)/2 products whatever the mean.  The budgets depend on u and the
      config only, so all rows share one schedule of products.

    Bin 0 is pu[0] plus the silent pu[u] summed in u order, exactly as a
    per-u construction sums them: past a row's window its pu is 0.0, and a
    product's bin 0 is 0.0.  The other bins add the same products as
    np.convolve in the same order, with zero terms between; they equal a
    per-row np.convolve construction up to rounding in the dot products.
    Rows are taken in blocks of at most BLOCK_ENTRIES // max(U+1, L*L) rows,
    U the largest truncation point.

    The floored delivery E[u * budget(u)] is the expected packets D2D hands
    over per stay, floors included: the saturation level of the
    high-mobility regime.  It reads the same pu and budgets, one np.vecdot
    per block, so a single row is summed as np.dot sums it.  Its bound uses
    E[u; u > U] = mean * P[u >= U] and budgets non-increasing in u, so every
    missing term is at most budget(1) per transmitter.
    """
    L = q_i.shape[1] - 1
    mean, u_max, tails = _windows(cfg, np.asarray(q_i[:, 0], dtype=float).tobytes())
    counts = np.arange(u_max.max() + 1)
    b = budget[: counts.size]
    silent = b == 0
    convolved = b[1 : min(L, counts.size)]   # budgets of u = 1..min(L, U+1)-1
    convolved = convolved[convolved > 0].tolist()   # and u < u0: zeros are a suffix
    # packets u transmitters hand over, floors included, in floats: u*b(u) may pass int64
    weight = counts * b.astype(float)
    pmf = np.zeros((q_i.shape[0], L))
    delivery = np.empty(q_i.shape[0])
    step = max(1, BLOCK_ENTRIES // max(counts.size, L * L))
    for lo in range(0, q_i.shape[0], step):
        rows = slice(lo, lo + step)
        pu = poisson_pmf(counts, mean[rows, None])
        pu[counts > u_max[rows, None]] = 0.0   # each row sums over its own window
        delivery[rows] = np.vecdot(pu, weight)
        mixed = pmf[rows]   # a view: the block's rows of the result
        # in u order; np.sum is pairwise
        mixed[:, 0] = np.add.accumulate(pu[:, silent], axis=1)[:, -1]
        # packet-count PMF of a transmitter, on 1..L; 0, not NaN, where q0 = 1
        cond = q_i[rows, 1:] / np.maximum(1.0 - q_i[rows, :1], _TINY)
        for u, b_u in enumerate(convolved, start=1):
            if u > 1 and b_u == convolved[u - 2]:
                power = _step(power, transitions)
            else:
                transitions = _transitions(cond, b_u, L)
                power = transitions[:, :, 0].copy()   # one transmitter: its capped PMF
                for _ in range(u - 1):
                    power = _step(power, transitions)
            mixed += pu[:, u, None] * power
    return pmf, tails[:, 1], delivery, float(budget[1]) * (mean * tails[:, 0])


# Two entries: the widest window, at q0 = 0, which sizes the link budget, and
# the windows of the distinct cache rows, five values a row, key included, up
# to 2**22 rows at the table cap; configs of one mean and epsilon share them.
@memo_on("mean_capable", "n_trunc_epsilon", maxsize=2)
def _windows(cfg: SystemConfig, q0_bytes: bytes):
    """Read-only Poisson windows of the cache rows whose P[d = 0] are
    ``q0_bytes``: each row's mean transmitter count, its truncation point U
    and its tails P[u >= U], P[u > U], shape (R,), (R,), (R, 2)."""
    mean = (1.0 - np.frombuffer(q0_bytes)) * cfg.mean_capable
    u_max = poisson_truncation(cfg, mean)
    tails = poisson_tail(mean[:, None], u_max[:, None] - [1, 0])
    return _readonly(mean), _readonly(u_max), _readonly(tails)


def distinct_rows(q: np.ndarray):
    """The index of each distinct row's first occurrence in q, and each row's
    distinct index.  Rows are matched by their bytes, so a result shared by
    equal rows is exactly what each of them would get."""
    bits = q.view(np.int64)   # bit-equal, so -0.0 and 0.0 stay apart
    if (bits == bits[0]).all():   # the CLI's uniform caches: one row
        return np.zeros(1, dtype=int), np.zeros(len(q), dtype=int)
    ids, first, inverse = {}, [], []
    for r, row in enumerate(q):
        key = row.tobytes()
        if key not in ids:
            ids[key] = len(first)
            first.append(r)
        inverse.append(ids[key])
    return np.array(first), np.array(inverse)


def shortfall_tables(q: np.ndarray, cfg: SystemConfig, budget: np.ndarray):
    """Per-content shortfall tables E[(L - c - delivered)^+] for c = 0..L,
    shape (F, L+1), plus per-content tail masses, floored deliveries and
    their truncation bounds, shape (F,) each, of the F validated cache rows
    ``q``, shape (F, L+1), under cfg's packet-budget table ``budget``.

    The delivered-packet distribution does not depend on the typical user's
    own cache, so one PMF serves every cache level.  Contents with the same
    cache PMF share a table: the distinct rows of ``q`` (the CLI's uniform
    caches make all F rows equal) take one batched PMF call, and the results
    are scattered back to the F contents.
    """
    first, inverse = distinct_rows(q)
    pmf, *per_row = delivered_packets_pmf(q[first], cfg, budget)
    tables = np.vecdot(_shortfall_weights(q.shape[1] - 1), pmf[:, None, :])
    return tables[inverse], *(a[inverse] for a in per_row)


@lru_cache(maxsize=32)
def _shortfall_weights(L: int) -> np.ndarray:
    """max(0, L - c - k): the shortfall at own cache c = 0..L and k = 0..L-1
    delivered packets, shape (L+1, L); at k >= L it is 0."""
    c, k = np.arange(L + 1), np.arange(L)
    return _readonly(np.maximum(0, L - c[:, None] - k))


@lru_cache(maxsize=8)   # small: a grid point reads one budget per scheme
def link_budget_for(cfg: SystemConfig) -> np.ndarray:
    """The read-only packet-budget table of ``cfg``, indexed by u, for every
    transmitter count of the widest window (at q0 = 0); memoized, as every
    evaluator reads it, and a view of the bytes object that keys the scenario."""
    table = build_link_budget(cfg, max(1, int(_windows(cfg, _WIDEST)[1][0])))
    return np.frombuffer(table.tobytes(), dtype=table.dtype)


@dataclass(frozen=True)
class Scenario:
    """Popularity, (F, L+1) shortfall tables, the (F, L) per-packet gains
    ``gains[i, c]``, the load decrease from the (c+1)-th packet of content
    i, the per-content floored deliveries E[u * budget(u)], and bounds on
    the truncation errors of a load sum f_i tables[i, c_i] and of sum f_i
    delivery_i, for one cache distribution under one packet-budget table;
    read-only, as every caller shares it."""

    f: np.ndarray
    tables: np.ndarray
    gains: np.ndarray
    delivery: np.ndarray
    load_bound: float
    delivery_bound: float


def scenario(dist: NeighborCacheDistribution, cfg: SystemConfig) -> Scenario:
    """The scenario of ``dist`` under ``cfg``, memoized by what its build
    reads: the bytes of cfg's packet-budget table, the distribution object,
    ``gamma``, the mean capable count and ``n_trunc_epsilon``.  Both schemes
    of a grid point, and grid points, whose budget tables agree share one
    build, and a hit equals a fresh build."""
    dist.rows(cfg)   # checks F and L
    return _build_scenario(cfg, link_budget_for(cfg).base, dist)


# Two entries: a grid point's two schemes, as a sweep finishes a point first.
# A distribution hashes by identity and its rows are read-only, so it keys them.
@memo_on("gamma", "mean_capable", "n_trunc_epsilon", maxsize=2)
def _build_scenario(cfg: SystemConfig, budget_bytes: bytes,
                    dist: NeighborCacheDistribution) -> Scenario:
    budget = np.frombuffer(budget_bytes, dtype=int)
    tables, tails, delivery, bound = shortfall_tables(dist.q, cfg, budget)
    f = zipf_popularity(dist.F, cfg.gamma)
    gains = f[:, None] * (tables[:, :-1] - tables[:, 1:])
    return Scenario(f, *map(_readonly, (tables, gains, delivery)),
                    float((f * dist.L * tails).sum()), float(np.dot(f, bound)))


def average_load_fast(
    placement: Placement,
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
) -> LoadEvaluation:
    """Average BS load by the thinned-Poisson + capped-convolution collapse.

    Agrees with the enumeration oracle up to the reported truncation bounds;
    the collapse is gated by that equivalence in the test suite.
    """
    c = placement.counts(cfg)
    s = scenario(dist, cfg)
    per_content = s.f * s.tables[np.arange(cfg.F), c]
    return LoadEvaluation(float(per_content.sum()), per_content, s.load_bound)


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
    c = placement.counts(cfg)
    n_max = poisson_truncation(cfg)
    if n_max > N_ENUM_MAX:
        raise CapacityError(
            f"enumeration needs n <= {N_ENUM_MAX}, truncation point is {n_max}; "
            "use average_load_fast"
        )
    budget = link_budget_for(cfg)
    f = zipf_popularity(cfg.F, cfg.gamma)
    mean = cfg.mean_capable
    p_n = poisson_pmf(np.arange(n_max + 1), mean)

    per_content = np.zeros(cfg.F)
    for i, q_i in enumerate(dist.rows(cfg)):
        c_i = int(c[i])
        expect = 0.0
        for n in range(p_n.size):
            term = 0.0
            for d in product(range(cfg.L + 1), repeat=n):
                weight = math.prod(q_i[dk] for dk in d)
                if weight == 0.0:
                    continue
                term += weight * request_load(c_i, d, cfg, budget)
            expect += p_n[n] * term
        per_content[i] = f[i] * expect
    bound = float(cfg.L * poisson_tail(mean, n_max))
    return LoadEvaluation(float(per_content.sum()), per_content, bound)

