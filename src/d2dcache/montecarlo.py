"""End-to-end sampling of the system model, for statistical cross-validation.

Draws capable-user counts and neighbor cache contents straight from the
model's distributions and averages the resulting per-request BS load.  This
estimates the same mean-field objective the analytic evaluators compute
(budgets built from the expected stay time), so agreement within confidence
intervals validates those evaluators end to end.

Trials are drawn in blocks.  Block ``b`` has its own RNG stream keyed
``[seed, b]`` and is always drawn at full size, then truncated to the trials
requested, so growing the trial count never changes earlier trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import build_link_budget
from .load import link_budget_for
from .model import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    SystemConfig,
    zipf_popularity,
)

BLOCK_TRIALS = 256          # trials per RNG stream unless the draw cap lowers it
MAX_BLOCK_DRAWS = 2**22     # expected cache-count draws per block (32 MB of uniforms)


@dataclass(frozen=True)
class SampledState:
    """Sampled neighborhoods of one or more trials, neighbors stacked in trial order."""

    n: int
    d: np.ndarray          # (n, F) cached-packet counts, smallest unsigned dtype holding L
    trial: np.ndarray      # (n,) int32 trial index of each neighbor

    def __post_init__(self):
        for a in (self.d, self.trial):
            a.setflags(write=False)


def sample_state(
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
    rng: np.random.Generator,
    trials: int = 1,
) -> SampledState:
    """Draw ``trials`` neighborhoods: Poisson counts and i.i.d. caches.

    Neighbors are stacked in trial order; ``trial`` maps each one to its trial.
    """
    counts = rng.poisson(cfg.mean_capable, size=trials)
    n = int(counts.sum())
    cum = np.cumsum(dist.q, axis=1)
    d = np.empty((n, cfg.F), dtype=np.min_scalar_type(cfg.L))   # uint8 when L <= 255
    if n:
        u = rng.random((n, cfg.F))
        for i in range(cfg.F):
            # inverse-CDF draw; clip guards the cumsum's last-bin float fuzz
            d[:, i] = np.minimum(
                np.searchsorted(cum[i], u[:, i], side="right"), cfg.L
            )
    trial = np.repeat(np.arange(trials, dtype=np.int32), counts)
    return SampledState(n=n, d=d, trial=trial)


def _block_trials(cfg: SystemConfig) -> int:
    """Trials per block: BLOCK_TRIALS, fewer when they would exceed MAX_BLOCK_DRAWS."""
    draws = cfg.mean_capable * cfg.F      # expected cache-count draws per trial
    if draws > MAX_BLOCK_DRAWS:
        raise CapacityError(
            f"one trial draws {draws:.3g} cache counts on average (eta*lam/mu * F), "
            f"above the cap {MAX_BLOCK_DRAWS}"
        )
    return min(BLOCK_TRIALS, int(MAX_BLOCK_DRAWS / max(draws, 1.0)))


def estimate_average_load(
    placement: Placement,
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
    trials: int,
    seed: int,
):
    """Monte Carlo estimate of the average BS load; returns (estimate, stderr).

    Trials are drawn in blocks whose size depends on ``cfg`` only.  Each block
    has its own RNG stream keyed ``[seed, block]`` and is drawn at full size,
    then truncated, so growing the trial count never changes earlier trials.
    The request is averaged exactly over the popularity weights inside each
    trial.  Packet budgets come from the memoized ``link_budget_for`` table;
    a longer one is built only when a sampled count passes its end.
    Raises CapacityError when one trial's expected draws exceed the cap.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    B = _block_trials(cfg)
    F = cfg.F
    f = zipf_popularity(F, cfg.gamma).probs
    budget = link_budget_for(cfg).budget   # packet budget at u = 0..
    missing = cfg.L - placement.c

    blocks = -(-trials // B)
    values = np.empty(blocks * B)
    for b in range(blocks):
        rng = np.random.default_rng([seed, b])
        state = sample_state(dist, cfg, rng, B)
        # (trial, content) cell of every draw; intp, as bincount copies other ints to intp
        cell = (state.trial.astype(np.intp)[:, None] * F + np.arange(F)).ravel()
        held = state.d.ravel()
        u = np.bincount(cell[held > 0], minlength=B * F)
        if u.max() >= budget.size:
            budget = build_link_budget(cfg, u.max()).budget
        # min(d, b) = min(d, min(b, L)) as d <= L, so the gathered budget fits d's dtype
        cap = np.minimum(budget[u], cfg.L).astype(held.dtype)
        delivered = np.bincount(cell, weights=np.minimum(held, cap[cell]), minlength=B * F)
        shortfall = np.maximum(0.0, missing - delivered.reshape(B, F))
        values[b * B:(b + 1) * B] = shortfall @ f

    values = values[:trials]
    estimate = float(values.mean())
    # deviations from the first trial: equal trials give a stderr of exactly 0
    spread = values - values[0]
    stderr = float(spread.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return estimate, stderr
