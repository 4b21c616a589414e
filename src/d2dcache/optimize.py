"""Placement optimization: greedy, exact DP oracle, high-mobility closed forms.

The load reduction is monotone submodular over the uniform matroid of packet
sets of size at most M, which gives greedy the paper's 1 - 1/e guarantee
(acceptance criterion 4 checks it).  It is also a sum over contents of terms
convex in c_i, so greedy is exactly optimal (Federgruen & Groenevelt, 1986).
Greedy and the high-mobility packing are one sorted selection: the M best of
the F*L per-packet values.  The oracle is an exact min-plus DP over contents
with a work cap.  This module also implements the brute-force
matroid/submodularity harnesses and the high-mobility analysis: the
threshold closed-form placements, the relaxed real-valued objective, the
Jensen-gap constant and bound check.  All of them read the per-content
deliverables of ``per_content_delivery``: the non-orthogonal closed form,
or the orthogonal (floored) delivery that the scenario forms in ``load``
over the same Poisson windows as the shortfall tables.  Every entry point
takes (dist, cfg), and cfg's scheme alone selects the access scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import BLOCK_ENTRIES, expected_successes, success_probability
from .load import average_load_fast, distinct_rows, scenario
from .model import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    Scheme,
    SystemConfig,
    _readonly,
    expected_stay_time,
    poisson_truncation,
    zipf_popularity,
)

# Work cap of the exact placement DP, F * (min(L, M) + 1) * (M + 1) steps.
DP_MAX_WORK = 10**8

# Rounding by which the submodularity harness lets a gain rise or go negative.
GAIN_SLACK = 1e-9

# Transmitter counts u = 1..U_SCAN (at least) scanned for the peak of
# u * P[SINR > tau | u]; past the peak u * p(u) falls towards its u -> inf
# limit.  The peak moves out about tenfold per 10 dB less snr: at radius 5,
# alpha 4 and tau -5-15 dB it lies at u <= 4 for snr 30-40 dB, 10 at 20 dB,
# 123 at 10 dB and about 1250 at 0 dB.
U_SCAN = 4096


# ---------------------------------------------------------------------------
# Greedy and exhaustive placement
# ---------------------------------------------------------------------------

def _packet_order(value: np.ndarray) -> np.ndarray:
    """Flat indices i*L + c of an (F, L) per-packet value matrix in pick order.

    Packets are ranked by the running minimum of their content's values, so a
    packet never precedes an earlier one of its content even where a float
    value rises by a rounding error; ties go to the lower content, then the
    lower c.  This is the order in which a packet-by-packet argmax over the
    contents' next packets picks them.
    """
    key = np.minimum.accumulate(value, axis=1)
    return np.argsort(-key.ravel(), kind="stable")


def greedy_placement(dist: NeighborCacheDistribution, cfg: SystemConfig):
    """Greedy packet-by-packet placement; returns (placement, trace).

    Each of the M steps adds the packet with the largest marginal load
    decrease, ties broken by lowest content index.  Gains depend only on
    per-content counts, so the steps are the first M packets of one sort of
    the scenario's per-packet gains.  The trace lists (content, gain) per step.
    """
    s = scenario(dist, cfg)
    picks = _packet_order(s.gains)[: cfg.M]
    contents = picks // cfg.L
    trace = list(zip(contents.tolist(), s.gains.ravel()[picks].tolist()))
    return Placement(np.bincount(contents, minlength=cfg.F), cfg), trace


def exhaustive_placement(dist: NeighborCacheDistribution, cfg: SystemConfig) -> Placement:
    """Minimize the average load over every feasible placement, exactly.

    A min-plus dynamic program over contents: ``value[b]`` is the least load
    of contents i..F-1 within b packets, and ``choice[i, b]`` the first c
    (fewest packets) attaining it, so ties go to the lexicographically
    smallest placement.  A content's step is one (K+1, M+1) candidate array,
    entry (c, b) = weighted[i, c] + value[b - c] (inf where c > b), and an
    argmin over c, taken BLOCK_ENTRIES entries at a time so that memory
    stays bounded.
    Verification oracle: refuses above DP_MAX_WORK.
    """
    K = min(cfg.L, cfg.M)
    work = cfg.F * (K + 1) * (cfg.M + 1)
    if work > DP_MAX_WORK:
        raise CapacityError(
            f"exact placement search needs {work} steps, above the cap {DP_MAX_WORK}"
        )
    s = scenario(dist, cfg)
    weighted = s.f[:, None] * s.tables[:, : K + 1]
    budgets = np.arange(cfg.M + 1)
    rows = max(1, BLOCK_ENTRIES // (cfg.M + 1))
    padded = np.full(K + cfg.M + 1, np.inf)   # value[b] at K + b, inf below
    padded[K:] = 0.0   # past the last content nothing is left to load
    # a view of 8-byte floats whose row c is value[b - c], at padded[K + b - c]
    shifted = _readonly(np.ndarray((K + 1, cfg.M + 1), float, padded, 8 * K, (-8, 8)))
    choice = np.zeros((cfg.F, cfg.M + 1), dtype=np.min_scalar_type(K))
    for i in reversed(range(cfg.F)):
        for lo in range(0, K + 1, rows):
            cand = weighted[i, lo:lo + rows, None] + shifted[lo:lo + rows]
            pick = cand.argmin(axis=0)
            low = cand[pick, budgets]
            if lo == 0:
                best, choice[i] = low, pick
            else:   # a later block wins only where strictly lower
                better = low < best
                best[better], choice[i, better] = low[better], lo + pick[better]
        padded[K:] = best
    c = np.zeros(cfg.F, dtype=int)
    budget = cfg.M
    for i in range(cfg.F):
        c[i] = choice[i, budget]
        budget -= c[i]
    return Placement(c, cfg)


# ---------------------------------------------------------------------------
# Matroid and submodularity property harnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatroidReport:
    passed: bool
    ground_size: int
    independent_sets: int
    counterexample: str | None = None


@lru_cache(maxsize=None)
def _verify_cardinality_matroid(n: int, M: int):
    """Brute-force the three matroid axioms over all subsets of an n-element set."""
    masks = list(range(1 << n))
    pc = [m.bit_count() for m in masks]
    independent = [pc[m] <= M for m in masks]
    n_indep = sum(independent)

    if not independent[0]:
        return MatroidReport(False, n, n_indep, "empty set not independent")

    # downward closure: every submask of an independent mask is independent
    for y in masks:
        if not independent[y]:
            continue
        sub = y
        while sub:
            sub = (sub - 1) & y
            if not independent[sub]:
                return MatroidReport(
                    False, n, n_indep, f"subset {sub:b} of independent {y:b} dependent"
                )

    # exchange: |X| < |Y| implies some y in Y \ X keeps X independent
    by_size = [np.array([m for m in masks if independent[m] and pc[m] == k], dtype=np.int64)
               for k in range(min(n, M) + 1)]
    for a in range(len(by_size)):
        for b in range(a + 1, len(by_size)):
            xs, ys = by_size[a], by_size[b]
            if xs.size == 0 or ys.size == 0:
                continue
            if a + 1 > M:
                return MatroidReport(
                    False, n, n_indep, f"size-{a} sets cannot grow within M={M}"
                )
            bad = (ys[None, :] & ~xs[:, None]) == 0
            if np.any(bad):
                xi, yi = np.argwhere(bad)[0]
                return MatroidReport(
                    False, n, n_indep,
                    f"no exchange element from {ys[yi]:b} into {xs[xi]:b}",
                )
    return MatroidReport(True, n, n_indep)


def check_matroid_axioms(F: int, L: int, M: int) -> MatroidReport:
    """Verify by exhaustive subset enumeration that packet sets of size <= M
    over the F*L-packet ground set form a matroid."""
    n = F * L
    if n > 12:
        raise CapacityError(f"ground set of {n} packets exceeds the brute-force cap 12")
    if not 0 <= M <= n:
        raise ValueError(f"M must lie in 0..{n}, got {M}")
    return _verify_cardinality_matroid(n, M)


@dataclass(frozen=True)
class SubmodularityReport:
    passed: bool
    samples: int
    violations: int
    worst_excess: float   # largest gain(superset) - gain(subset) observed
    min_gain: float


def check_submodularity(
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
    samples: int,
    seed: int,
) -> SubmodularityReport:
    """Sample chains C' <= C and fresh packets; assert diminishing returns.

    The marginal load decrease from one more packet of content i must be no
    larger at the superset than at the subset, and never negative.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    gains = scenario(dist, cfg).gains
    violations = 0
    worst = -math.inf
    min_gain = math.inf
    for _ in range(samples):
        i = int(rng.integers(cfg.F))
        c = rng.integers(0, cfg.L + 1, cfg.F)
        c[i] = rng.integers(0, cfg.L)          # keep a packet of i addable
        c_sub = rng.integers(0, c + 1)
        g_sup, g_sub = float(gains[i, c[i]]), float(gains[i, c_sub[i]])
        excess = g_sup - g_sub
        worst = max(worst, excess)
        min_gain = min(min_gain, g_sup, g_sub)
        if excess > GAIN_SLACK or min(g_sup, g_sub) < -GAIN_SLACK:
            violations += 1
    return SubmodularityReport(
        passed=(violations == 0),
        samples=samples,
        violations=violations,
        worst_excess=worst,
        min_gain=min_gain,
    )


# ---------------------------------------------------------------------------
# High-mobility analysis
# ---------------------------------------------------------------------------

def noma_delivery_mean(q: np.ndarray, cfg: SystemConfig):
    """Floor-free expected D2D delivery per stay under non-orthogonal access,
    (L/mu) log(1+tau) E[u P[SINR>tau | u]], exactly, by ``expected_successes``.
    ``q`` is one cache row (gives a float) or a stack of rows (gives one value
    per row, m the vector of their mean transmitter counts)."""
    m = (1.0 - q[..., 0]) * cfg.mean_capable
    return cfg.L / cfg.mu * math.log1p(cfg.tau) * expected_successes(m, cfg)


def gap_constant(cfg: SystemConfig) -> float:
    """c = -L sup_u u*rate(u) <= 0, the Jensen-gap constant of cfg's scheme.

    u transmitters deliver at most u*budget(u) <= T*L*u*rate(u) packets in a
    stay of length T, so T*|c| bounds the gap.  The supremum is finite under
    both schemes.  Orthogonal: u*rate(u) = p(1) log(1+tau) at every u.
    Non-orthogonal: the larger of u*p(u) scanned over u = 1..max(U_SCAN,
    poisson_truncation(cfg)), every count the evaluators read, and its
    u -> inf limit.  For alpha > 2, 1-beta(r) ~ K r^2/R^2 near r = 0 with
    K = tau^(2/alpha) (2pi/alpha) / sin(2pi/alpha), so u*p(u) -> 1/K; for
    alpha <= 2 it tends to 0.
    """
    if cfg.scheme is Scheme.ORTHOGONAL:
        sup = success_probability(1, cfg)
    else:
        u = np.arange(1, max(U_SCAN, poisson_truncation(cfg)) + 1)
        a = cfg.alpha
        limit = 0.0
        if a > 2:
            limit = a * math.sin(2 * math.pi / a) / (2 * math.pi * cfg.tau ** (2 / a))
        sup = max(float(np.max(u * success_probability(u, cfg))), limit)
    return -cfg.L * sup * math.log1p(cfg.tau)


def per_content_delivery(dist: NeighborCacheDistribution, cfg: SystemConfig):
    """Expected D2D deliverable packets per stay of each of the F contents
    under cfg's scheme, all nonnegative: the floored E[u * budget(u)] that
    the scenario carries under orthogonal access, noma_delivery_mean under
    non-orthogonal access, taken over the distinct cache rows, as the
    scenario takes them, and gathered back to the F contents."""
    if cfg.scheme is Scheme.NON_ORTHOGONAL:
        q = dist.rows(cfg)
        first, inverse = distinct_rows(q)
        return noma_delivery_mean(q[first], cfg)[inverse]
    return scenario(dist, cfg).delivery


def high_mobility_continuous(deliverable: float, cfg: SystemConfig) -> np.ndarray:
    """Continuous optimum of the relaxed problem: threshold fill at L - deliverable.

    Contents are filled to the threshold t in popularity order until the
    memory runs out; if t <= 0 nothing is cached, and if memory exceeds F*t
    every content sits at t with the excess unused.
    """
    t = cfg.L - deliverable
    return np.clip(cfg.M - t * np.arange(cfg.F), 0.0, max(t, 0.0))


def _integerize(deliverable, cfg: SystemConfig) -> np.ndarray:
    """Exact integer optimum of the relaxed objective by marginal-value packing.

    ``deliverable`` is one count for every content or one per content.  Under
    content i's threshold t_i = L - deliverable_i, its packets up to floor(t_i)
    are each worth f_i, the packet crossing t_i is worth the fractional
    remainder of f_i, and anything beyond ceil(t_i) (or any packet when
    t_i <= 0) is worthless.  The M most valuable packets of one sort (ties to
    the more popular content) are optimal for this separable concave
    objective; worthless ones are left out.
    """
    t = np.minimum(cfg.L, cfg.L - np.asarray(deliverable, dtype=float))
    f = zipf_popularity(cfg.F, cfg.gamma)
    # packet k (0-based) is worth f_i * clip(t_i - k, 0, 1): f_i, f_i*frac_i, 0
    value = f[:, None] * np.clip(np.reshape(t, (-1, 1)) - np.arange(cfg.L), 0.0, 1.0)
    picks = _packet_order(value)[: cfg.M]
    picks = picks[value.ravel()[picks] > 0]
    return np.bincount(picks // cfg.L, minlength=cfg.F)


def high_mobility_placement(dist: NeighborCacheDistribution, cfg: SystemConfig) -> Placement:
    """Closed-form near-optimal placement for fast-moving neighbors.

    Each content's cache threshold is L minus its own expected deliverable
    packet count under cfg's scheme.
    """
    return Placement(_integerize(per_content_delivery(dist, cfg), cfg), cfg)


def relaxed_objective(c, delivery, cfg: SystemConfig) -> float:
    """Relaxed real-valued load: sum_i f_i (L - c_i - delivery_i)^+.

    Accepts real placements subject to 0 <= c_i <= L and sum(c) <= M;
    ``delivery`` holds the per-content deliverable counts (see
    ``per_content_delivery``), or one count for every content.
    """
    c = np.asarray(c, dtype=float)
    tol = 1e-9
    if c.shape != (cfg.F,):
        raise ValueError(f"placement must have F={cfg.F} entries")
    # written so that NaN fails it
    if not ((c >= -tol).all() and (c <= cfg.L + tol).all() and c.sum() <= cfg.M + tol):
        raise ValueError(f"infeasible relaxed placement: {c}")
    f = zipf_popularity(cfg.F, cfg.gamma)
    return float(np.dot(f, np.maximum(0.0, cfg.L - c - delivery)))


@dataclass(frozen=True)
class JensenGapReport:
    gap: float
    bound: float
    ok: bool


def jensen_gap_check(
    placement: Placement, dist: NeighborCacheDistribution, cfg: SystemConfig
) -> JensenGapReport:
    """Gap between the exact average load under cfg's scheme and its
    Jensen-style composite.

    The composite, the relaxed objective at the scenario's floored
    deliveries, moves the positive part outside the expectation; the shift
    is bounded by stay_time times |gap_constant(cfg)|.
    """
    s = scenario(dist, cfg)
    composite = relaxed_objective(placement.counts(cfg), s.delivery, cfg)
    evaluation = average_load_fast(placement, dist, cfg)
    gap = abs(evaluation.total - composite)
    bound = expected_stay_time(cfg) * abs(gap_constant(cfg))
    # both sides of the gap carry surfaced truncation error; allow for it
    slack = 1e-9 + evaluation.truncation_bound + s.delivery_bound
    return JensenGapReport(gap=gap, bound=bound, ok=(gap <= bound + slack))
