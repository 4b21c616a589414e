"""Placement optimization: greedy, exact DP oracle, high-mobility closed forms.

The load reduction is monotone submodular over the uniform matroid of packet
sets of size at most M, which gives greedy the paper's 1 - 1/e guarantee
(acceptance criterion 4 checks it).  It is also a sum over contents of terms
convex in c_i, so greedy is exactly optimal (Federgruen & Groenevelt, 1986).
Greedy and the high-mobility packing are one sorted selection: the M best of
the F*L per-packet values.  The oracle is an exact min-plus DP over contents
with a work cap.  This module also implements the brute-force
matroid/submodularity harnesses and the entire high-mobility analysis:
expected deliverable packet counts, the threshold closed-form placements,
the relaxed real-valued objective, and the Jensen-gap bound check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    _disc_terms,
    _gauss_legendre,
    _interference_complement_at,
    success_probability,
)
from .load import (
    _per_distinct_row,
    _transmitters,
    average_load_fast,
    link_budget_for,
    scenario,
)
from .model import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    Scheme,
    SystemConfig,
    expected_stay_time,
    poisson_tail,
    zipf_popularity,
)

# Work cap of the exact placement DP, F * (min(L, M) + 1) * (M + 1) steps.
DP_MAX_WORK = 10**8


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
    smallest placement.  Verification oracle: refuses above DP_MAX_WORK.
    """
    K = min(cfg.L, cfg.M)
    work = cfg.F * (K + 1) * (cfg.M + 1)
    if work > DP_MAX_WORK:
        raise CapacityError(
            f"exact placement search needs {work} steps, above the cap {DP_MAX_WORK}"
        )
    s = scenario(dist, cfg)
    weighted = s.f[:, None] * s.tables
    value = np.zeros(cfg.M + 1)
    choice = np.zeros((cfg.F, cfg.M + 1), dtype=np.min_scalar_type(K))
    for i in reversed(range(cfg.F)):
        best = weighted[i, 0] + value
        for c in range(1, K + 1):
            cand = weighted[i, c] + value[: cfg.M + 1 - c]    # budgets b >= c
            better = cand < best[c:]
            best[c:][better] = cand[better]
            choice[i, c:][better] = c
        value = best
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
    slack: float = 1e-9,
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
        if excess > slack or min(g_sup, g_sub) < -slack:
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

@dataclass(frozen=True)
class HighMobilityConstants:
    """Per-stay deliverable packet counts and Jensen-gap bound constants."""

    oma_packets: float        # expected floored D2D delivery, orthogonal
    noma_packets: float       # floor-free expected delivery, non-orthogonal
    oma_gap_constant: float   # negative lower-bound constant, orthogonal
    noma_gap_constant: float  # negative lower-bound constant, non-orthogonal
    stay_time: float

    def __post_init__(self):
        if self.oma_packets < 0 or self.noma_packets < 0:
            raise ValueError("deliverable packet counts must be nonnegative")
        if self.oma_gap_constant > 0 or self.noma_gap_constant > 0:
            raise ValueError("gap constants must be nonpositive")


def _floored_delivery(q_i: np.ndarray, cfg: SystemConfig):
    """E[u * budget(u)] and an upper bound on its truncation error.

    The error bound uses E[u; u > U] = mean * P[u >= U] and the fact that
    budgets are non-increasing in u, so every missing term is at most
    budget(1) per transmitter.
    """
    mean, pu = _transmitters(q_i, cfg)
    budget = link_budget_for(cfg).budget
    value = float(np.dot(pu, np.arange(pu.size) * budget[: pu.size]))
    if mean == 0.0:
        return value, 0.0
    tail_mean = mean * poisson_tail(mean, pu.size - 2)   # mean * P[u >= u_max]
    return value, float(budget[1]) * tail_mean


def floored_delivery_mean(q_i: np.ndarray, cfg: SystemConfig) -> float:
    """E[u * budget(u)]: expected packets D2D hands over per stay, with floors.

    This is the saturation level of the high-mobility regime, where every
    transmitter delivers its full per-stay budget regardless of cache depth.
    """
    return _floored_delivery(q_i, cfg)[0]


def oma_delivery_mean(q_i: np.ndarray, cfg: SystemConfig) -> float:
    """Expected floored D2D delivery per stay under orthogonal access."""
    return floored_delivery_mean(q_i, cfg.with_scheme(Scheme.ORTHOGONAL))


def noma_delivery_mean(q_i: np.ndarray, cfg: SystemConfig) -> float:
    """Floor-free expected D2D delivery per stay under non-orthogonal access,
    (L/mu) log(1+tau) E[u P[SINR>tau | u]], exactly: P is a quadrature sum of
    beta_k**(u-1) terms, and E[u beta**(u-1)] = m exp(-m(1-beta)) for Poisson u."""
    cfg = cfg.with_scheme(Scheme.NON_ORTHOGONAL)
    m = (1.0 - q_i[0]) * cfg.mean_capable
    r, w, noise, beta = _disc_terms(cfg)
    integrand = noise * m * np.exp(-m * (1.0 - beta)) * 2.0 * r / cfg.radius**2
    return float(cfg.L / cfg.mu * math.log1p(cfg.tau) * np.dot(w, integrand))


def _beta_complement(r: float, cfg: SystemConfig) -> float:
    """1 - interference factor by adaptive quadrature.

    The integrand's knee sits at x = (tau * r**alpha)**(1/alpha), far below
    any fixed node spacing when tau*r**alpha is tiny; the envelope in the
    gap constant divides by this value, so it must be resolved adaptively.
    """
    from scipy import integrate   # here, not at import: only this constant needs it

    a = cfg.tau * r ** cfg.alpha
    if a == 0.0:
        return 0.0
    knee = min(cfg.radius, a ** (1.0 / cfg.alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(
            lambda x: a / (x ** cfg.alpha + a) * 2.0 * x / cfg.radius**2,
            0.0, cfg.radius, points=[knee], limit=200, epsabs=1e-300, epsrel=1e-10,
        )
    return value


def _noma_gap_constant(cfg: SystemConfig) -> float:
    """Lower-bound constant for the non-orthogonal Jensen gap.

    Integrates the per-distance envelope of u * beta(r)**(u-1) over the disc;
    the envelope peaks at u = -1/ln(beta), giving exp(-1)/(beta * -ln(beta)).
    Computed through the complement 1-beta for stability near beta = 1.
    """
    r, w, noise, _ = _disc_terms(cfg)
    betac = np.maximum([_beta_complement(rk, cfg) for rk in r], 1e-300)
    neg_log_beta = -np.log1p(-np.minimum(betac, 1.0 - 1e-16))
    envelope = math.exp(-1.0) / ((1.0 - betac) * neg_log_beta)
    integrand = noise * envelope * 2.0 * r / cfg.radius**2
    return float(-cfg.L * math.log1p(cfg.tau) * np.dot(w, integrand))


def _gap_constant(cfg: SystemConfig) -> float:
    """Negative lower-bound constant of the Jensen gap under cfg's scheme."""
    if cfg.scheme is Scheme.ORTHOGONAL:
        return -cfg.L * success_probability(1, cfg) * math.log1p(cfg.tau)
    return _noma_gap_constant(cfg)


def high_mobility_constants(
    dist: NeighborCacheDistribution, cfg: SystemConfig, content: int = 0
) -> HighMobilityConstants:
    """All high-mobility constants for one content's cache distribution."""
    q_i = dist.q[content]
    return HighMobilityConstants(
        oma_packets=oma_delivery_mean(q_i, cfg),
        noma_packets=noma_delivery_mean(q_i, cfg),
        oma_gap_constant=_gap_constant(cfg.with_scheme(Scheme.ORTHOGONAL)),
        noma_gap_constant=_gap_constant(cfg.with_scheme(Scheme.NON_ORTHOGONAL)),
        stay_time=expected_stay_time(cfg),
    )


def _per_content_delivery(scheme: Scheme, dist: NeighborCacheDistribution, cfg: SystemConfig):
    """Per-content deliverable counts under the scheme, one per distinct cache row."""
    cfg = cfg.with_scheme(scheme)
    fn = noma_delivery_mean if cfg.scheme is Scheme.NON_ORTHOGONAL else floored_delivery_mean
    return np.array(_per_distinct_row(lambda q_i: fn(q_i, cfg), dist.q[: cfg.F]))


def high_mobility_continuous(deliverable: float, cfg: SystemConfig) -> np.ndarray:
    """Continuous optimum of the relaxed problem: threshold fill at L - deliverable.

    Contents are filled to the threshold t in popularity order until the
    memory runs out; if t <= 0 nothing is cached, and if memory exceeds F*t
    every content sits at t with the excess unused.
    """
    t = cfg.L - deliverable
    c = np.zeros(cfg.F)
    if t <= 0 or cfg.M == 0:
        return c
    if cfg.M >= cfg.F * t:
        c[:] = t
        return c
    k = math.ceil(cfg.M / t)
    c[: k - 1] = t
    c[k - 1] = cfg.M - (k - 1) * t
    return c


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
    f = zipf_popularity(cfg.F, cfg.gamma).probs
    # packet k (0-based) is worth f_i * clip(t_i - k, 0, 1): f_i, f_i*frac_i, 0
    value = f[:, None] * np.clip(np.reshape(t, (-1, 1)) - np.arange(cfg.L), 0.0, 1.0)
    picks = _packet_order(value)[: cfg.M]
    picks = picks[value.ravel()[picks] > 0]
    return np.bincount(picks // cfg.L, minlength=cfg.F)


def high_mobility_placement(
    scheme: Scheme, dist: NeighborCacheDistribution, cfg: SystemConfig
) -> Placement:
    """Closed-form near-optimal placement for fast-moving neighbors.

    Each content's cache threshold is L minus its own expected deliverable
    packet count under the scheme.
    """
    return Placement(_integerize(_per_content_delivery(scheme, dist, cfg), cfg), cfg)


def relaxed_objective(
    c,
    scheme: Scheme,
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
    delivery: np.ndarray | None = None,
) -> float:
    """Relaxed real-valued load: sum_i f_i (L - c_i - deliverable_i)^+.

    Accepts real placements subject to 0 <= c_i <= L and sum(c) <= M.  Pass
    ``delivery`` (per-content deliverable counts) to amortize its computation
    over many evaluations.
    """
    c = np.asarray(c, dtype=float)
    tol = 1e-9
    if c.shape != (cfg.F,):
        raise ValueError(f"placement must have F={cfg.F} entries")
    if np.any(c < -tol) or np.any(c > cfg.L + tol) or c.sum() > cfg.M + tol:
        raise ValueError(f"infeasible relaxed placement: {c}")
    f = zipf_popularity(cfg.F, cfg.gamma).probs
    if delivery is None:
        delivery = _per_content_delivery(scheme, dist, cfg)
    return float(np.dot(f, np.maximum(0.0, cfg.L - c - delivery)))


@dataclass(frozen=True)
class JensenGapReport:
    gap: float
    bound: float
    ok: bool
    degenerate: bool = False


def jensen_gap_check(
    placement: Placement,
    scheme: Scheme,
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
) -> JensenGapReport:
    """Gap between the exact average load and its Jensen-style composite.

    The composite moves the positive part outside the expectation, replacing
    the random D2D delivery with its floored mean; the shift is bounded by
    stay_time times the scheme's gap constant.
    """
    cfg = cfg.with_scheme(scheme)
    s = scenario(dist, cfg)
    pairs = _per_distinct_row(lambda q_i: _floored_delivery(q_i, cfg), dist.q[: cfg.F])
    delivery = np.array([value for value, _ in pairs])
    composite = float(np.dot(s.f, np.maximum(0.0, cfg.L - placement.c - delivery)))
    evaluation = average_load_fast(placement, dist, cfg)
    gap = abs(evaluation.total - composite)

    r, _ = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    degenerate = (cfg.scheme is Scheme.NON_ORTHOGONAL
                  and bool(np.min(_interference_complement_at(r, cfg)) <= 0.0))
    bound = expected_stay_time(cfg) * abs(_gap_constant(cfg))
    # both sides of the gap carry surfaced truncation error; allow for it
    slack = 1e-9 + evaluation.truncation_bound + float(
        np.dot(s.f, [err for _, err in pairs])
    )
    return JensenGapReport(gap=gap, bound=bound, ok=(gap <= bound + slack), degenerate=degenerate)
