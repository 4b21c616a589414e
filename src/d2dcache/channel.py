"""Wireless link layer: per-packet success probability, rates, packet budgets.

A transmitting neighbor sits at a uniform-in-disc distance from the typical
user; its signal sees Rayleigh fading, path loss r**(-alpha), noise, and (for
non-orthogonal access) interference from the other transmitters, themselves
uniform in the disc.  The success probability P[SINR > tau | u transmitters]
reduces to a nested 1-d integral over the disc, evaluated here by fixed-order
Gauss-Legendre quadrature and cross-checked by direct Monte Carlo sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Scheme, SystemConfig, _readonly


@lru_cache(maxsize=32)
def _gauss_legendre(n: int, upper: float):
    """Read-only nodes/weights for integrating over [0, upper]."""
    t, w = np.polynomial.legendre.leggauss(n)
    return _readonly(0.5 * upper * (t + 1.0)), _readonly(0.5 * upper * w)


def _interference_factor_at(r, cfg: SystemConfig):
    """Vectorized mean of x**a/(x**a + tau*r**a) over a uniform-in-disc distance x."""
    x, w = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    r = np.asarray(r, dtype=float)
    xa = x ** cfg.alpha
    # integrand: x^a / (x^a + tau r^a) * 2x/R^2, for each requested r
    num = xa * 2.0 * x / cfg.radius**2
    den = xa[None, :] + cfg.tau * (r[..., None] ** cfg.alpha)
    return (num[None, :] / den * w[None, :]).sum(axis=-1)


def _interference_complement_at(r, cfg: SystemConfig):
    """1 - interference factor, computed directly (stable for tiny tau*r**a)."""
    x, w = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    r = np.asarray(r, dtype=float)
    ra = cfg.tau * (r[..., None] ** cfg.alpha)
    num = 2.0 * x / cfg.radius**2
    den = x[None, :] ** cfg.alpha + ra
    return (ra * num[None, :] / den * w[None, :]).sum(axis=-1)


def interference_factor(r: float, cfg: SystemConfig) -> float:
    """Per-interferer attenuation factor of the success probability.

    Equals the disc average of x**alpha / (x**alpha + tau*r**alpha), where x
    is an interferer's distance; lies in [0, 1] and equals 1 at r=0.
    """
    if not 0 <= r <= cfg.radius:
        raise ValueError(f"r must lie in [0, radius={cfg.radius}], got {r}")
    return float(_interference_factor_at(np.array([r]), cfg)[0])


def _beta_pow(beta: np.ndarray, k: int) -> np.ndarray:
    """beta**k via exp(k*log(beta)), with the 0**0 = 1 convention at k = 0."""
    if k == 0:
        return np.ones_like(beta)
    out = np.zeros_like(beta)
    pos = beta > 0
    out[pos] = np.exp(k * np.log(beta[pos]))
    return out


@lru_cache(maxsize=8)   # small: a grid point uses one config per scheme
def _disc_terms(cfg: SystemConfig):
    """Read-only outer nodes r, weights w, noise factor and interference factor
    beta at each node: every part of the success probability but the power u-1."""
    r, w = _gauss_legendre(cfg.quad_nodes, cfg.radius)
    noise = np.exp(-(r ** cfg.alpha) * cfg.tau / cfg.snr)
    return r, w, _readonly(noise), _readonly(_interference_factor_at(r, cfg))


def success_probability(u: int, cfg: SystemConfig) -> float:
    """P[SINR > tau | u transmitters], by nested Gauss-Legendre quadrature.

    Outer integral over the transmitter distance r (density 2r/R^2), inner
    over each of the u-1 interferer distances; the inner factor is the empty
    product (1) at u=1.  Only the power of the inner factor depends on u, so
    the rest is built once per config.
    """
    if u < 1:
        raise ValueError(f"u must be >= 1 (no transmitter otherwise), got {u}")
    r, w, noise, beta = _disc_terms(cfg)
    integrand = noise * _beta_pow(beta, u - 1) * 2.0 * r / cfg.radius**2
    return float(np.dot(w, integrand))


def success_probability_mc(u: int, cfg: SystemConfig, trials: int, seed: int):
    """Monte Carlo estimate of P[SINR > tau | u] by direct SINR sampling.

    Positions uniform in the disc (r = R*sqrt(U)), Rayleigh power gains
    Exp(1), interference summed over the u-1 other transmitters.  Returns
    (estimate, stderr); deterministic for a fixed seed.  At an estimate of 0
    or 1 the stderr is the one-sigma Wilson half-width, never 0.
    """
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    r = cfg.radius * np.sqrt(rng.random(trials))
    h = rng.exponential(1.0, trials)
    with np.errstate(divide="ignore"):
        signal = h * r ** (-cfg.alpha) * cfg.snr
        interference = 0.0
        if u > 1:
            x = cfg.radius * np.sqrt(rng.random((trials, u - 1)))
            hi = rng.exponential(1.0, (trials, u - 1))
            interference = (hi * x ** (-cfg.alpha)).sum(axis=1) * cfg.snr
    sinr = signal / (1.0 + interference)
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


def rate(u: int, cfg: SystemConfig) -> float:
    """Average achievable D2D rate with u simultaneous transmitters.

    Orthogonal access splits the resource u ways and sees no interference;
    non-orthogonal access keeps the whole resource but pays the interference
    through the success probability.  Rates are in nats (natural log).
    """
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    log_term = math.log1p(cfg.tau)
    if cfg.scheme is Scheme.ORTHOGONAL:
        return success_probability(1, cfg) * log_term / u
    return success_probability(u, cfg) * log_term


def packet_budget(u: int, cfg: SystemConfig) -> int:
    """Packets one neighbor can deliver during an expected stay: floor(L*rate/mu)."""
    return int(math.floor(cfg.L * rate(u, cfg) / cfg.mu))


@dataclass(frozen=True)
class LinkBudget:
    """Per-u tables of success probability, rate, and packet budget.

    Arrays are indexed directly by u; index 0 is a sentinel (no transmitter:
    success 1, rate 0, budget 0) so that ``budget[u]`` reads naturally.
    """

    p_succ: np.ndarray
    rate: np.ndarray
    budget: np.ndarray
    scheme: Scheme

    @property
    def u_max(self) -> int:
        return self.p_succ.size - 1

    def __post_init__(self):
        for name in ("p_succ", "rate", "budget"):
            getattr(self, name).setflags(write=False)
        ps, b = self.p_succ[1:], self.budget[1:]
        if np.any(ps < -1e-12) or np.any(ps > 1 + 1e-12):
            raise ValueError("success probabilities must lie in [0, 1]")
        if np.any(np.diff(ps) > 1e-12):
            raise ValueError("success probability must be non-increasing in u")
        if np.any(b < 0):
            raise ValueError("packet budgets must be nonnegative")
        if self.scheme is Scheme.ORTHOGONAL and np.any(np.diff(b) > 0):
            raise ValueError("orthogonal packet budget must be non-increasing in u")


def build_link_budget(cfg: SystemConfig, u_max: int) -> LinkBudget:
    """Tabulate success probability, rate, and budget for u = 1..u_max.

    Entries equal the pointwise ops; index 0 holds sentinels.  Each rate is
    derived from the success probability already tabulated (``rate``'s own
    formula).  ``packet_budget`` evaluates ``success_probability`` once more
    per u, but the disc terms are built once per config, so that second
    evaluation costs one power of beta and one dot product.
    """
    if u_max < 1:
        raise ValueError(f"u_max must be >= 1, got {u_max}")
    p_succ = np.ones(u_max + 1)
    rates = np.zeros(u_max + 1)
    budgets = np.zeros(u_max + 1, dtype=int)
    log_term = math.log1p(cfg.tau)
    for u in range(1, u_max + 1):
        p_succ[u] = success_probability(u, cfg)
        if cfg.scheme is Scheme.ORTHOGONAL:
            rates[u] = p_succ[1] * log_term / u
        else:
            rates[u] = p_succ[u] * log_term
        budgets[u] = packet_budget(u, cfg)
    return LinkBudget(p_succ=p_succ, rate=rates, budget=budgets, scheme=cfg.scheme)
