"""End-to-end sampling of the system model, for statistical cross-validation.

Draws capable-user counts and neighbor cache contents straight from the
model's distributions and averages the resulting per-request BS load.  This
estimates the same mean-field objective the analytic evaluators compute
(budgets built from the expected stay time), so agreement within confidence
intervals validates those evaluators end to end.

Trials are drawn in blocks.  Block ``b`` has its own RNG stream keyed
``[seed, b]`` and is always drawn at full size, then truncated to the trials
requested, so growing the trial count never changes earlier trials.  The
streams stay per block, but counting and reduction run once per pass of
consecutive blocks holding at most ``PASS_DRAWS`` expected draws, which
spreads their fixed cost over many blocks and bounds memory by a pass.

A neighbor hands over ``min(d, budget[u])`` packets of a content it holds
``d`` of, and budgets never rise with u, so no count above ``budget[1]``
changes a load.  Counts are therefore resolved only up to ``levels = max(1,
min(L, budget[1]))``, which keeps ``d > 0`` and every ``min(d, budget[u])``:
estimates equal those of counts resolved up to L, bit for bit.  The draws are
content-major, so each content's uniforms, counts and (content, trial) cells
are contiguous.

A count is the number of cut points of ``cumsum(q)`` at or below its uniform.
Where ``levels <= min(F, LEVEL_LOOP_MAX)`` a pass counts level by level, one
comparison per level over all its uniforms at once: inversion by sequential
search (L. Devroye, Non-Uniform Random Variate Generation, 1986, ch. III),
which wins where the expected count is small.  Otherwise it takes one binary
search per content, which makes fewer numpy calls where F < levels and less
work where the levels are many.  Both give the same counts.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

from .channel import build_link_budget
from .load import link_budget_for
from .model import (
    MAX_TABLE_ENTRIES,
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    SystemConfig,
    zipf_popularity,
)

BLOCK_TRIALS = 256          # trials per RNG stream unless the draw cap lowers it
MAX_BLOCK_DRAWS = 2**22     # expected cache-count draws per block (32 MB of uniforms)
PASS_DRAWS = 2**16          # expected draws (and cells) counted and reduced in one pass
# Counts are taken level by level where they cap at most this many levels
# and at most F, else content by content.  Against the per-content loop the
# estimator (2 CPUs, 500 trials) took 0.75-0.97x the time at 8-12 levels.  At
# 16 levels it took 0.90-1.04x where the levels are few of L (L=300, 1000), so
# that most uniforms pass every cut point and the search is cheap, and
# 1.13-1.39x at 32; where they are most of L (L=40) it took 0.75-0.79x at 32.
# With fewer contents than levels, at F=1 and 2 with 8-16 levels, it took
# 1.10-1.43x at one capable neighbor on average and 0.93-1.29x at five.
# perfbench's mc_crosscheck counts 2 levels, so it times the level loop only.
LEVEL_LOOP_MAX = 16


def sample_state(
    dist: NeighborCacheDistribution,
    cfg: SystemConfig,
    rng: np.random.Generator | Sequence[np.random.Generator],
    trials: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``trials`` neighborhoods per stream, counts capped at the largest
    packet budget; returns (d, trial).

    ``d[j, i]`` is neighbor j's packet count of content i, shape (n, F): the
    transposed view of a content-major (F, n) array, in the smallest
    unsigned dtype holding L.  ``trial[j]``, int32, is neighbor j's trial.

    Poisson neighbor counts and i.i.d. caches, but each cache count is
    ``min(count, levels)`` with ``levels = max(1, min(L, budget[1]))`` of
    ``cfg``'s link budget: valid for computing loads, not for the cache
    contents themselves.  ``rng`` is one Generator or a sequence of them;
    each draws its ``trials`` Poisson counts, then its (n_b, F) row-major
    uniforms, exactly as it would alone.  Neighbors are stacked in stream
    and trial order, and ``trial`` numbers the trials of all streams
    consecutively.  The uniforms of all streams are counted at once,
    content-major, against the first ``levels`` cut points of ``cumsum(q)``:
    level by level while ``levels <= min(F, LEVEL_LOOP_MAX)``, reusing one
    bool buffer, else with one ``searchsorted`` per content.
    """
    levels = max(1, min(cfg.L, int(link_budget_for(cfg)[1])))
    cuts = np.cumsum(dist.rows(cfg)[:, :levels], axis=1)   # the first levels cut points
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    counts = [g.poisson(cfg.mean_capable, size=trials) for g in rngs]
    sizes = [int(c.sum()) for c in counts]
    n = sum(sizes)
    u = np.empty((cfg.F, n))                # every stream's uniforms, content-major
    start = 0
    for g, size in zip(rngs, sizes):
        u[:, start:start + size] = g.random((size, cfg.F)).T
        start += size
    # inverse-CDF draw, the count of cut points <= u; at most levels <= L, so the
    # last bin's float fuzz needs no clip
    d = np.zeros((cfg.F, n), dtype=np.min_scalar_type(cfg.L))
    if levels <= min(cfg.F, LEVEL_LOOP_MAX):
        passed = np.empty((cfg.F, n), dtype=bool)   # the one buffer of every level
        for level in range(levels):
            d += np.greater_equal(u, cuts[:, level, None], out=passed).view(np.uint8)
    else:
        for i in range(cfg.F):
            d[i] = cuts[i].searchsorted(u[i], "right")
    trial = np.repeat(np.arange(len(rngs) * trials, dtype=np.int32),
                      np.concatenate(counts))
    return d.T, trial


def _block_trials(cfg: SystemConfig) -> int:
    """Trials per block: BLOCK_TRIALS, fewer when they would exceed MAX_BLOCK_DRAWS."""
    draws = cfg.mean_capable * cfg.F      # expected cache-count draws per trial
    if draws > MAX_BLOCK_DRAWS:
        raise CapacityError(
            f"one trial draws {draws:.3g} cache counts on average (eta*lam/mu * F), "
            f"above the cap {MAX_BLOCK_DRAWS}"
        )
    return min(BLOCK_TRIALS, int(MAX_BLOCK_DRAWS / max(draws, 1.0)))


def _index(name: str, value) -> int:
    """``value`` as an int; a TypeError names ``name`` when it is not integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
    Consecutive blocks are counted and reduced together, in passes of at
    most ``PASS_DRAWS`` expected draws and (content, trial) cells and at
    least one block; the pass size changes no bit of the result.
    The request is averaged exactly over the popularity weights inside each
    trial.  Packet budgets come from the memoized ``link_budget_for`` table;
    a longer one is built only when a sampled count passes its end.
    Raises CapacityError, before anything is allocated, above
    MAX_TABLE_ENTRIES trials or when one trial's expected draws exceed the cap.
    """
    trials, seed = _index("trials", trials), _index("seed", seed)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if trials > MAX_TABLE_ENTRIES:   # the trial values are one float each
        raise CapacityError(f"trials={trials} is above the cap {MAX_TABLE_ENTRIES}")
    B = _block_trials(cfg)
    F = cfg.F
    f = zipf_popularity(F, cfg.gamma)
    budget = link_budget_for(cfg)   # packet budget at u = 0..
    missing = cfg.L - placement.counts(cfg)

    blocks = -(-trials // B)
    # a block draws mean_capable*F*B counts into F*B cells; a pass bounds the larger
    per_pass = max(1, int(PASS_DRAWS / (max(cfg.mean_capable, 1.0) * F * B)))
    values = np.empty(blocks * B)
    for first in range(0, blocks, per_pass):
        rngs = [np.random.default_rng([seed, b])
                for b in range(first, min(blocks, first + per_pass))]
        T = len(rngs) * B
        d, trial = sample_state(dist, cfg, rngs, B)
        # (content, trial) cell of every draw, content-major as the counts;
        # intp, as bincount copies other ints to intp
        cell = (np.arange(F)[:, None] * T + trial).ravel()
        held = d.T.ravel()
        u = np.bincount(cell[held > 0], minlength=F * T)
        if u.max() >= budget.size:
            budget = build_link_budget(cfg, u.max())
        # min(d, b) = min(d, min(b, L)) as d <= L, so the gathered budget fits d's dtype
        cap = np.minimum(budget[u], cfg.L).astype(held.dtype)
        delivered = np.bincount(cell, weights=np.minimum(held, cap[cell]), minlength=F * T)
        # a C-contiguous (T, F) operand, so @ sums each trial as before
        delivered = np.ascontiguousarray(delivered.reshape(F, T).T)
        shortfall = np.maximum(0.0, missing - delivered)
        values[first * B:first * B + T] = shortfall @ f

    # deviations from the first trial: when every trial agrees, the mean is
    # exactly that trial's load and the stderr exactly 0
    values = values[:trials]
    shift = values[0]
    values -= shift
    estimate = float(shift + values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return estimate, stderr
