"""Experiment driver: evaluate, optimize, sweep, and validate from the shell.

Configs are flat UTF-8 ``key=value`` files mirroring the SystemConfig fields
(dB variants ``tau_db``/``snr_db`` are converted at this boundary).  Every
run writes a CSV with a fixed schema plus a ``.manifest`` capturing the full
resolved configuration, seed, and library version, so results are
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields, replace
from functools import lru_cache
from typing import get_type_hints

import numpy as np

from . import __version__
from .load import average_load_fast, average_load_enum
from .model import (
    CapacityError,
    NeighborCacheDistribution,
    Placement,
    Scheme,
    SystemConfig,
    db_to_linear,
    default_config,
)
from .montecarlo import estimate_average_load
from .optimize import (
    check_matroid_axioms,
    check_submodularity,
    exhaustive_placement,
    greedy_placement,
    high_mobility_placement,
    jensen_gap_check,
)
from .channel import success_probability, success_probability_mc, wilson_interval

CSV_HEADER = "axis,value,scheme,method,load,load_normalized,trunc_bound,seed"

# Config-file key of each SystemConfig field (``lam`` is spelled ``lambda``),
# the parser of every key, and the fields a file must set.
_KEY = {f.name: "lambda" if f.name == "lam" else f.name for f in fields(SystemConfig)}
_PARSERS = {_KEY[name]: kind for name, kind in get_type_hints(SystemConfig).items()}
_PARSERS |= {"tau_db": float, "snr_db": float}
_REQUIRED = {f.name for f in fields(SystemConfig) if f.default is MISSING}

AXES = ("snr_db", "mu", "lambda")
METHODS = ("greedy", "exhaustive", "high_mobility", "monte_carlo")
SCHEMES = {"orthogonal": Scheme.ORTHOGONAL, "non_orthogonal": Scheme.NON_ORTHOGONAL}


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, Scheme):
        return x.value
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def parse_config(path: str) -> SystemConfig:
    """Parse a key=value config file into a SystemConfig.

    Unknown keys, duplicate keys, malformed lines, and dB/linear conflicts
    are hard errors carrying the offending line number.
    """
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = _PARSERS[key](val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc

    for linear, db in (("tau", "tau_db"), ("snr", "snr_db")):
        if db in values:
            if linear in values:
                raise ConfigError(f"{path}: give either {linear} or {db}, not both")
            values[linear] = db_to_linear(values.pop(db))
    if "lambda" in values:
        values["lam"] = values.pop("lambda")

    missing = _REQUIRED - values.keys()
    if missing:
        raise ConfigError(f"{path}: missing required keys: {sorted(missing)}")
    try:
        return SystemConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_lines(cfg: SystemConfig) -> list[str]:
    """Canonical key=value listing of a resolved config (linear scales)."""
    return [f"{key}={_fmt(getattr(cfg, name))}" for name, key in _KEY.items()]


def write_manifest(out_path: str, cfg: SystemConfig, seed: int, command: str,
                   extra: list[str] = ()):
    lines = [f"d2dcache_version={__version__}", f"command={command}", f"seed={seed}"]
    lines += config_lines(cfg)
    lines += list(extra)
    with open(out_path + ".manifest", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _row(axis, value, scheme, method, load, L, trunc_bound, seed) -> str:
    return ",".join([
        axis, _fmt(value), scheme, method,
        _fmt(load), _fmt(load / L), _fmt(trunc_bound), str(seed),
    ])


def write_csv(out_path: str, rows: list[str]):
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def apply_axis(cfg: SystemConfig, axis: str, value: float) -> SystemConfig:
    try:
        if axis == "snr_db":
            return replace(cfg, snr=db_to_linear(value))
        if axis == "mu":
            return replace(cfg, mu=value)
        return replace(cfg, lam=value)
    except ValueError as exc:   # SystemConfig's range checks
        raise ConfigError(f"{axis}={_fmt(value)}: {exc}") from exc


def _placement_for(method: str, dist, cfg):
    if method == "exhaustive":
        return exhaustive_placement(dist, cfg)
    if method == "high_mobility":
        return high_mobility_placement(dist, cfg)
    return greedy_placement(dist, cfg)[0]   # greedy and monte_carlo


def sweep_rows(axis: str, points, methods, schemes, seed: int, trials: int):
    """(CSV row, placement) of every (value, scheme, method) grid point, in
    grid order; ``points`` are (axis value, config) pairs.  No axis changes
    F or L, so one uniform cache PMF serves every point."""
    first = points[0][1]
    dist = NeighborCacheDistribution.uniform(first.F, first.L)
    grid = []
    for vi, (value, point) in enumerate(points):
        for si, sname in enumerate(schemes):
            cfg = point.with_scheme(SCHEMES[sname])
            for method in methods:
                placement = _placement_for(method, dist, cfg)
                if method == "monte_carlo":
                    point_seed = seed + 1_000_003 * (vi * len(schemes) + si)
                    load, _ = estimate_average_load(placement, dist, cfg, trials, point_seed)
                    bound = 0.0
                else:
                    ev = average_load_fast(placement, dist, cfg)
                    load, bound = ev.total, ev.truncation_bound
                row = _row(axis, value, sname, method, load, cfg.L, bound, seed)
                grid.append((row, placement))
    return grid


# ---------------------------------------------------------------------------
# validate: quick oracle suites
# ---------------------------------------------------------------------------

def _suite_enum_vs_fast(cfg: SystemConfig, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        F, L = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        q = rng.random((F, L + 1))
        q /= q.sum(axis=1, keepdims=True)
        small = default_config(
            F=F, L=L, M=int(rng.integers(0, F * L + 1)),
            gamma=float(rng.random() * 2), eta=float(rng.random()),
            lam=float(rng.random()), mu=1.0, n_trunc_epsilon=1e-3,
            snr=cfg.snr, tau=cfg.tau, radius=cfg.radius, alpha=cfg.alpha,
        )
        dist = NeighborCacheDistribution(q)
        c = rng.integers(0, L + 1, F)
        while c.sum() > small.M:
            c[np.argmax(c)] -= 1
        pl = Placement(c, small)
        e = average_load_enum(pl, dist, small)
        f = average_load_fast(pl, dist, small)
        tol = 1e-9 + e.truncation_bound + f.truncation_bound
        if abs(e.total - f.total) > tol:
            return False, f"diff {abs(e.total - f.total):.3g} > tol {tol:.3g}"
    return True, "20 random instances"


def _suite_quadrature_vs_mc(cfg: SystemConfig, seed: int):
    trials = 200_000
    for u in (1, 2, 3):
        exact = success_probability(u, cfg)
        est, _ = success_probability_mc(u, cfg, trials, seed + u)
        lo, hi = wilson_interval(est, trials, 3.0)
        if not lo - 1e-12 <= exact <= hi + 1e-12:   # rounding slack at p = 0 or 1
            return False, f"u={u}: {exact:.6f} outside Wilson [{lo:.6f}, {hi:.6f}]"
    return True, "u in {1,2,3} at 2e5 trials"


def _suite_submodularity(cfg: SystemConfig, seed: int):
    dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
    rep = check_submodularity(dist, cfg, samples=2000, seed=seed)
    return rep.passed, f"{rep.samples} samples, {rep.violations} violations"


def _suite_matroid(cfg: SystemConfig, seed: int):
    for F in range(1, 5):
        for L in range(1, 3):
            for M in range(F * L + 1):
                rep = check_matroid_axioms(F, L, M)
                if not rep.passed:
                    return False, f"(F={F}, L={L}, M={M}): {rep.counterexample}"
    return True, "all F*L <= 8"


def _suite_jensen(cfg: SystemConfig, seed: int):
    dist = NeighborCacheDistribution.uniform(cfg.F, cfg.L)
    for mu in (1.0, 5.0, 20.0):
        for scheme in Scheme:
            c = replace(cfg, mu=mu, scheme=scheme)
            rep = jensen_gap_check(greedy_placement(dist, c)[0], dist, c)
            if not rep.ok:
                return False, f"mu={mu}, {scheme.value}: gap {rep.gap:.3g} > {rep.bound:.3g}"
    return True, "mu in {1,5,20}, both schemes"


VALIDATION_SUITES = [
    ("enum-vs-fast", _suite_enum_vs_fast),
    ("quadrature-vs-mc", _suite_quadrature_vs_mc),
    ("submodularity", _suite_submodularity),
    ("matroid", _suite_matroid),
    ("jensen-bound", _suite_jensen),
]


def run_validation(cfg: SystemConfig, seed: int) -> bool:
    all_ok = True
    for name, suite in VALIDATION_SUITES:
        ok, detail = suite(cfg, seed)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok &= ok
    return all_ok


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _parse_placement(text: str, cfg: SystemConfig) -> Placement:
    try:
        counts = [int(part) for part in text.split(",")]
        return Placement(counts, cfg)
    except ValueError as exc:
        raise ConfigError(f"bad --placement {text!r}: {exc}") from exc


def _parse_list(name: str, text: str, allowed) -> tuple:
    """The stripped entries of the comma list --name: distinct, each one of ``allowed``."""
    entries = tuple(part.strip() for part in text.split(","))
    if len(set(entries) & set(allowed)) < len(entries):
        raise ConfigError(f"--{name} must list distinct entries of {tuple(allowed)}, got {text!r}")
    return entries


@lru_cache(maxsize=1)   # parsing does not change the parser; build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dcache",
        description="Average BS load of a mobility-aware D2D caching system",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", default=None, help="output CSV path")

    p_eval = sub.add_parser("eval", help="evaluate the load of one placement")
    common(p_eval)
    p_eval.add_argument("--placement", required=True, help="comma list c1,...,cF")

    p_opt = sub.add_parser("optimize", help="optimize the placement")
    common(p_opt)
    p_opt.add_argument("--methods", default="greedy",
                       help="comma list from greedy,exhaustive,high_mobility")
    p_opt.add_argument("--schemes", default="both")

    p_sweep = sub.add_parser("sweep", help="sweep an axis and tabulate loads")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=AXES)
    p_sweep.add_argument("--values", required=True, help="comma list, increasing")
    p_sweep.add_argument("--methods", default="greedy")
    p_sweep.add_argument("--schemes", default="both")
    p_sweep.add_argument("--trials", type=int, default=10_000,
                         help="Monte Carlo trials per grid point")

    p_val = sub.add_parser("validate", help="run the oracle suites")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = parse_config(args.config)

        if args.command == "validate":
            return 0 if run_validation(cfg, args.seed) else 1

        out = args.out or f"{args.command}.csv"
        if args.command == "eval":
            placement = _parse_placement(args.placement, cfg)
            ev = average_load_fast(
                placement, NeighborCacheDistribution.uniform(cfg.F, cfg.L), cfg
            )
            rows = [_row("snr_db", 10 * np.log10(cfg.snr), cfg.scheme.value,
                         "convolution", ev.total, cfg.L, ev.truncation_bound,
                         args.seed)]
            write_csv(out, rows)
            write_manifest(out, cfg, args.seed, "eval",
                           [f"placement={args.placement}"])
            print(f"load={_fmt(ev.total)} normalized={_fmt(ev.total / cfg.L)}")
            return 0

        # optimize and sweep share one grid loop; Monte Carlo places nothing
        allowed = METHODS if args.command == "sweep" else METHODS[:-1]
        methods = _parse_list("methods", args.methods, allowed)
        schemes = tuple(SCHEMES) if args.schemes == "both" else _parse_list(
            "schemes", args.schemes, SCHEMES)
        if args.command == "optimize":
            # one point of the snr_db grid: the parsed config itself, since
            # rebuilding it from the dB value could move snr in its last bit
            axis, points, trials = "snr_db", [(10 * np.log10(cfg.snr), cfg)], None
        else:
            if args.trials < 1:
                raise ConfigError(f"--trials must be >= 1, got {args.trials}")
            try:
                values = [float(v) for v in args.values.split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad --values {args.values!r}: {exc}") from exc
            if not np.all(np.isfinite(values)) or any(np.diff(values) <= 0):
                raise ConfigError(f"--values must be finite and increasing: {args.values!r}")
            if len({_fmt(v) for v in values}) < len(values):
                # the CSV and manifest write values to 12 significant digits
                raise ConfigError(f"--values collide at 12 significant digits: {args.values!r}")
            axis, trials = args.axis, args.trials
            points = [(v, apply_axis(cfg, axis, v)) for v in values]
        grid = sweep_rows(axis, points, methods, schemes, args.seed, trials)
        write_csv(out, [row for row, _ in grid])

        if args.command == "sweep":
            write_manifest(out, cfg, args.seed, "sweep", [
                f"axis={axis}",
                "values=" + ",".join(_fmt(v) for v, _ in points),
                "methods=" + ",".join(methods),
                "schemes=" + ",".join(schemes),
                f"trials={trials}",
            ])
            print(f"wrote {len(grid)} rows to {out}")
            return 0
        extra = []
        for row, placement in grid:
            _, _, sname, method, load = row.split(",")[:5]
            counts = ",".join(map(str, placement.c.tolist()))
            extra.append(f"placement_{method}_{sname}={counts}")
            print(f"{sname:15s} {method:13s} load={load} placement=[{counts}]")
        write_manifest(out, cfg, args.seed, "optimize", extra)
        return 0

    except (ConfigError, CapacityError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
