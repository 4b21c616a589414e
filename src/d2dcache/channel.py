"""Wireless link layer: per-packet success probability, rates, packet-budget tables.

A transmitting neighbor sits at a uniform-in-disc distance from the typical
user; its signal sees Rayleigh fading, path loss r**(-alpha), noise, and (for
non-orthogonal access) interference from the other transmitters, themselves
uniform in the disc.  The success probability P[SINR > tau | u transmitters]
reduces to a nested 1-d integral over the disc, evaluated here by fixed-order
Gauss-Legendre quadrature and cross-checked by direct Monte Carlo sampling.
Both read an interferer's distance through its ratio to the link's length,
so no accepted radius or path-loss exponent makes a term NaN.  A packet
budget past int64, at a tiny mu, is refused rather than wrapped.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import BLOCK_ENTRIES, CapacityError, Scheme, SystemConfig, _readonly, memo_on

# Most (node, node) pairs of a rule: the interference factors at the nodes
# take (n, n) arrays of about 16 bytes per pair, about 67 MB at 2048 nodes.
MAX_NODE_PAIRS = 2048 * 2048


@lru_cache(maxsize=32)
def _gauss_legendre(n: int, upper: float):
    """Read-only nodes/weights for integrating over [0, upper]; a rule above
    MAX_NODE_PAIRS raises CapacityError before anything is allocated."""
    if n * n > MAX_NODE_PAIRS:
        raise CapacityError(
            f"quad_nodes={n} makes {n * n} node pairs, above the cap {MAX_NODE_PAIRS}"
        )
    t, w = np.polynomial.legendre.leggauss(n)
    return _readonly(0.5 * upper * (t + 1.0)), _readonly(0.5 * upper * w)


def _interference_factor_at(r, cfg: SystemConfig):
    """Vectorized mean of 1/(1 + tau*(r/x)**a) over a uniform-in-disc distance x."""
    x, w = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    r = np.asarray(r, dtype=float)
    # x^a/(x^a + tau r^a) depends on r/x alone; a power past the float range
    # is inf, a term of 0, so for r >= 0 and nodes x > 0 no term is NaN
    with np.errstate(over="ignore"):
        den = 1.0 + cfg.tau * (r[..., None] / x) ** cfg.alpha
    return (2.0 * x / cfg.radius**2 * w / den).sum(axis=-1)


def interference_factor(r: float, cfg: SystemConfig) -> float:
    """Per-interferer attenuation factor of the success probability.

    Equals the disc average of x**alpha / (x**alpha + tau*r**alpha), where x
    is an interferer's distance, computed as 1 / (1 + tau*(r/x)**alpha);
    lies in [0, 1] up to rounding and equals 1 at r=0.
    """
    if not 0 <= r <= cfg.radius:
        raise ValueError(f"r must lie in [0, radius={cfg.radius}], got {r}")
    return float(_interference_factor_at(np.array([r]), cfg)[0])


# Memoized on the fields each reads, so both schemes of a grid point, and
# grid points that differ in no such field, share one build.  beta is a mean
# of terms <= 1; clamped at 1 against rounding, every beta**(u-1) and so
# every success probability is non-increasing in u.  Powers past the float
# range raise no warning: an infinite noise exponent gives a noise factor of 0.
@memo_on("quad_nodes", "radius", "alpha", "tau")
def _beta(cfg: SystemConfig) -> np.ndarray:
    """Read-only interference factor beta at each outer quadrature node."""
    r, _ = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    return _readonly(np.minimum(_interference_factor_at(r, cfg), 1.0))


@memo_on("quad_nodes", "radius", "alpha", "tau", "snr")
def _noise(cfg: SystemConfig) -> np.ndarray:
    """Read-only noise factor exp(-r**alpha * tau / snr) at each outer node."""
    r, _ = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    with np.errstate(over="ignore"):
        return _readonly(np.exp(-(r ** cfg.alpha) * cfg.tau / cfg.snr))


def success_probability(u, cfg: SystemConfig):
    """P[SINR > tau | u transmitters], by nested Gauss-Legendre quadrature.

    Outer integral over the transmitter distance r (density 2r/R^2), inner
    over each of the u-1 interferer distances; the inner factor is the empty
    product (1) at u=1.  Only the power of the inner factor depends on u, so
    the nodes, noise factors and interference factors are memoized; a call
    at u = 1 only, all that orthogonal access asks for, builds no interference
    factor, as beta**0 = 1.  ``u`` is an int (gives a float) or an integer
    array (gives an array), evaluated BLOCK_ENTRIES (u, node) terms at a time.
    """
    k = np.asarray(u) - 1
    if (k < 0).any():
        raise ValueError(f"u must be >= 1 (no transmitter otherwise), got {u}")
    r, w = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    noise = _noise(cfg)
    beta = _beta(cfg) if k.any() else np.ones(1)
    with np.errstate(divide="ignore"):
        log_beta = np.log(beta)
    flat = k.reshape(-1, 1)
    out = np.empty(flat.shape[0])
    rows = max(1, BLOCK_ENTRIES // cfg.quad_nodes)
    for lo in range(0, out.size, rows):
        kb = flat[lo:lo + rows]
        # beta**k as exp(k*log(beta)), with the 0**0 = 1 convention at beta = 0
        with np.errstate(invalid="ignore"):
            power = np.exp(kb * log_beta)
        power[:, beta == 0] = kb == 0
        # the integrand reuses the name, so one block array, not two, outlives a step
        power = noise * power * 2.0 * r / cfg.radius**2
        # vecdot sums each row as np.dot does one vector; a matrix product may not
        out[lo:lo + rows] = np.vecdot(power, w)
    return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)


def expected_successes(m, cfg: SystemConfig):
    """E[u P[SINR > tau | u]] for u ~ Poisson(m), exactly: P is a quadrature
    sum of beta_k**(u-1) terms, and E[u beta**(u-1)] = m exp(-m(1-beta)).
    ``m`` is a float (gives a float) or an array of means (gives one value
    per mean), evaluated BLOCK_ENTRIES (mean, node) terms at a time."""
    r, w = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    noise, beta = _noise(cfg), _beta(cfg)
    flat = np.reshape(m, (-1, 1))
    out = np.empty(flat.shape[0])
    rows = max(1, BLOCK_ENTRIES // cfg.quad_nodes)
    for lo in range(0, out.size, rows):
        mb = flat[lo:lo + rows]
        integrand = noise * mb * np.exp(-mb * (1.0 - beta)) * 2.0 * r / cfg.radius**2
        out[lo:lo + rows] = np.vecdot(integrand, w)
    return float(out[0]) if np.ndim(m) == 0 else out.reshape(np.shape(m))


def success_probability_mc(u: int, cfg: SystemConfig, trials: int, seed: int):
    """Monte Carlo estimate of P[SINR > tau | u] by direct SINR sampling.

    Positions uniform in the disc (r = R*sqrt(U)), Rayleigh power gains
    Exp(1), interference summed over the u-1 other transmitters; the SINR
    is divided through by the signal's path gain, as
    h / (r**alpha/snr + sum hi*(r/x)**alpha).  Returns (estimate, stderr);
    deterministic for a fixed seed.  At an estimate of 0 or 1 the stderr is
    the one-sigma Wilson half-width, never 0.
    """
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    r = cfg.radius * np.sqrt(rng.random(trials))
    h = rng.exponential(1.0, trials)
    # a power past the float range is inf, a SINR of 0; r = 0 is a SINR of inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        interference = 0.0
        if u > 1:
            x = cfg.radius * np.sqrt(rng.random((trials, u - 1)))
            hi = rng.exponential(1.0, (trials, u - 1))
            interference = (hi * (r[:, None] / x) ** cfg.alpha).sum(axis=1)
        sinr = h / (r**cfg.alpha / cfg.snr + interference)
    hits = sinr > cfg.tau
    p = float(hits.mean())
    if 0.0 < p < 1.0:
        stderr = math.sqrt(p * (1.0 - p) / trials)
    else:   # the plug-in stderr is 0 here; the Wilson half-width is not
        lo, up = wilson_interval(p, trials, 1.0)
        stderr = (up - lo) / 2
    return p, float(stderr)


def wilson_interval(p: float, n: int, z: float):
    """Wilson score interval for a binomial proportion p observed in n trials.

    Unlike p +- z*stderr it keeps a nonzero width at p = 0 and p = 1.
    """
    z2n = z * z / n
    center = (p + z2n / 2) / (1 + z2n)
    half = z / (1 + z2n) * math.sqrt(p * (1 - p) / n + z2n / (4 * n))
    return center - half, center + half


def rate(u, cfg: SystemConfig):
    """Average achievable D2D rate with u simultaneous transmitters.

    Orthogonal access splits the resource u ways and sees no interference;
    non-orthogonal access keeps the whole resource but pays the interference
    through the success probability.  Rates are in nats (natural log).  Like
    ``success_probability``, ``u`` is an int or an integer array.
    """
    if (np.asarray(u) < 1).any():
        raise ValueError(f"u must be >= 1, got {u}")
    log_term = math.log1p(cfg.tau)
    if cfg.scheme is Scheme.ORTHOGONAL:
        return success_probability(1, cfg) * log_term / u
    return success_probability(u, cfg) * log_term


def packet_budget(u, cfg: SystemConfig):
    """Packets one neighbor can deliver during an expected stay: floor(L*rate/mu).

    An int for an int ``u``, an integer array for an array ``u``; a budget of
    2**63 or more, past int64 (mu below about 1.5e-19 at the defaults), raises.
    """
    budget = np.floor(cfg.L * rate(u, cfg) / cfg.mu)
    if np.any(budget >= 2.0**63):   # CapacityError, not a cast that wraps
        raise CapacityError(f"packet budget {np.max(budget):.6g} at mu={cfg.mu:.6g} is past int64")
    return int(budget) if np.ndim(budget) == 0 else budget.astype(int)


def build_link_budget(cfg: SystemConfig, u_max: int) -> np.ndarray:
    """Read-only packet budgets of u = 0..u_max, indexed directly by u: one
    ``packet_budget`` call on the array u = 1..u_max, so entries equal the
    scalar calls, and index 0 a sentinel (no transmitter: budget 0).  The
    budgets never rise with u, under either scheme, so the zero budgets
    form a suffix; a table that breaks this raises."""
    if u_max < 1:
        raise ValueError(f"u_max must be >= 1, got {u_max}")
    b = packet_budget(np.arange(1, u_max + 1), cfg)
    if (b < 0).any():
        raise ValueError("packet budgets must be nonnegative")
    if (np.diff(b) > 0).any():
        raise ValueError("packet budget must be non-increasing in u")
    return _readonly(np.concatenate(([0], b)))
