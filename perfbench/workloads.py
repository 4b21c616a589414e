"""The benchmark's workloads: op inputs, op bodies and per-op correctness checks.

Each op is one short call into d2dcache's public entry points.  Its inputs
are a pure function of (workload, seed, op index), and every op of a run
gets its own config, so a cache that persists across calls cannot serve
one op from another's work.  Functions are looked up on their modules at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import d2dcache
from d2dcache import cli

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = ROOT / "demos" / "default.cfg"
REFERENCE = Path(__file__).with_name("reference.json")

# The README's sweep, one grid point per op.
SWEEP_METHODS = "greedy,exhaustive,high_mobility"
SWEEP_L = 5                 # L of demos/default.cfg
# F=10 contents of L=20 packets, 5 capable neighbours on average; the other
# keys are those of demos/default.cfg.  snr_db is appended per op.
HEAVY_F, HEAVY_L, HEAVY_M = 10, 20, 20
HEAVY_CFG = f"""\
F={HEAVY_F}
gamma=0.6
L={HEAVY_L}
M={HEAVY_M}
eta=0.5
lambda=10
mu=1
tau_db=5
radius=5
alpha=4
scheme=orthogonal
n_trunc_epsilon=1e-9
quad_nodes=64
"""
HEAVY_METHODS = "greedy,high_mobility"
# Library op on never-repeating random caches.
MC_SHAPE = dict(F=10, L=10, M=20, lam=4.0)
MC_TRIALS = 500
MC_SIGMAS = 5.0
TOL = 1e-9

WORKLOADS = ("readme_sweep", "heavy_scenario", "mc_crosscheck")


@dataclass(frozen=True)
class Op:
    index: int
    key: tuple              # the op's config identity, unique within a run
    snr_db: float = 0.0
    q: np.ndarray | None = None
    mc_seed: int = 0


def make_op(workload: str, seed: int, index: int) -> Op:
    """Inputs of op ``index``; depends only on (workload, seed, index)."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed, index])
    if workload == "readme_sweep":
        snr_db = round(float(rng.uniform(0.0, 40.0)), 9)
        return Op(index, ("snr_db", snr_db), snr_db=snr_db)
    if workload == "heavy_scenario":
        snr_db = round(float(rng.uniform(10.0, 30.0)), 9)
        return Op(index, ("snr_db", snr_db), snr_db=snr_db)
    q = rng.dirichlet(np.ones(MC_SHAPE["L"] + 1), size=MC_SHAPE["F"])
    q /= q.sum(axis=1, keepdims=True)
    mc_seed = int(rng.integers(0, 2**31))
    return Op(index, ("q", q.tobytes()), q=q, mc_seed=mc_seed)


class Runner:
    """Runs and checks ops of one workload, writing CLI files in ``workdir``."""

    def __init__(self, workload: str, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.out = workdir / "out.csv"
        self.cfg_path = workdir / "op.cfg"

    def prepare(self, op: Op):
        """Untimed: what the op needs before it starts (argv or library inputs)."""
        for stale in (self.out, Path(str(self.out) + ".manifest")):
            stale.unlink(missing_ok=True)   # a check must never read an old op's output
        if self.workload == "readme_sweep":
            return ["sweep", "--config", str(DEFAULT_CFG), "--axis", "snr_db",
                    "--values", repr(op.snr_db), "--methods", SWEEP_METHODS,
                    "--schemes", "both", "--out", str(self.out)]
        if self.workload == "heavy_scenario":
            self.cfg_path.write_text(HEAVY_CFG + f"snr_db={op.snr_db!r}\n")
            return ["optimize", "--config", str(self.cfg_path), "--methods",
                    HEAVY_METHODS, "--schemes", "both", "--out", str(self.out)]
        return op.q, op.mc_seed

    def run(self, prepared):
        """The timed op body."""
        if self.workload == "mc_crosscheck":
            return mc_op(*prepared)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(prepared)

    def check(self, op: Op, result) -> str | None:
        """Untimed: None when the op's output is correct, else the reason."""
        if self.workload == "mc_crosscheck":
            return check_mc(result)
        if result != 0:
            return f"cli.main returned {result}"
        rows = read_rows(self.out)
        if self.workload == "readme_sweep":
            return check_sweep_rows(rows, op.snr_db, SWEEP_L)
        return check_heavy(rows, read_placements(self.out))


def mc_op(q, mc_seed):
    cfg = d2dcache.default_config(**MC_SHAPE)
    dist = d2dcache.NeighborCacheDistribution(q)
    placement, _ = d2dcache.greedy_placement(dist, cfg)
    ev = d2dcache.average_load_fast(placement, dist, cfg)
    est, se = d2dcache.estimate_average_load(placement, dist, cfg, MC_TRIALS, mc_seed)
    return ev.total, ev.truncation_bound, est, se


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != cli.CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        fh.seek(0)
        return list(csv.DictReader(fh))


def read_placements(out: Path) -> dict:
    placements = {}
    for line in Path(str(out) + ".manifest").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key.startswith("placement_"):
            placements[key[len("placement_"):]] = [int(x) for x in value.split(",")]
    return placements


def _load_and_bound(row) -> tuple[float, float]:
    return float(row["load"]), float(row["trunc_bound"])


def _check_ranges(rows, L) -> str | None:
    for row in rows:
        load, bound = _load_and_bound(row)
        if not 0.0 <= load <= L or not bound >= 0.0:
            return f"{row['scheme']}/{row['method']}: load {load} or bound {bound} out of range"
    return None


def _by_scheme_method(rows) -> dict:
    return {(r["scheme"], r["method"]): _load_and_bound(r) for r in rows}


def _not_above(loads, scheme, low, high) -> str | None:
    """low's load must not exceed high's load by more than both bounds."""
    (a, ba), (b, bb) = loads[scheme, low], loads[scheme, high]
    if a > b + TOL + ba + bb:
        return f"{scheme}: {low} load {a} > {high} load {b} + bounds"
    return None


def check_sweep_rows(rows, snr_db: float, L: int) -> str | None:
    if len(rows) != 6:
        return f"expected 6 rows, got {len(rows)}"
    if any(abs(float(r["value"]) - snr_db) > 1e-9 * max(1.0, snr_db) for r in rows):
        return "rows carry the wrong axis value"
    loads = _by_scheme_method(rows)
    for scheme in cli.SCHEMES:
        (g, bg), (e, be) = loads[scheme, "greedy"], loads[scheme, "exhaustive"]
        if abs(g - e) > TOL + bg + be:
            return f"{scheme}: greedy {g} != exhaustive {e} beyond bounds"
        err = _not_above(loads, scheme, "exhaustive", "high_mobility")
        if err:
            return err
    return _check_ranges(rows, L)


def check_heavy(rows, placements) -> str | None:
    if len(rows) != 4 or len(placements) != 4:
        return f"expected 4 rows and placements, got {len(rows)} and {len(placements)}"
    loads = _by_scheme_method(rows)
    for scheme in cli.SCHEMES:
        err = _not_above(loads, scheme, "greedy", "high_mobility")
        if err:
            return err
    for name, c in placements.items():
        if len(c) != HEAVY_F or min(c) < 0 or max(c) > HEAVY_L or sum(c) > HEAVY_M:
            return f"infeasible placement {name}={c}"
    return _check_ranges(rows, HEAVY_L)


def check_mc(result) -> str | None:
    analytic, bound, est, se = result
    L = MC_SHAPE["L"]
    if not (0.0 <= analytic <= L and 0.0 <= est <= L and bound >= 0.0 and se >= 0.0):
        return f"out of range: analytic {analytic}, MC {est}, bound {bound}, se {se}"
    if abs(est - analytic) > MC_SIGMAS * se + bound:
        return f"|MC {est} - analytic {analytic}| > {MC_SIGMAS}*{se} + {bound}"
    return None


# ---------------------------------------------------------------------------
# reference rows, checked once per run
# ---------------------------------------------------------------------------

README_SWEEP = ["sweep", "--config", str(DEFAULT_CFG), "--axis", "snr_db",
                "--values", "0,5,10,15,20,25,30,35,40",
                "--methods", "greedy,exhaustive", "--schemes", "both"]
HEAVY_FIXED_SNR_DB = 20.0
REFERENCE_FIELDS = ("axis", "value", "scheme", "method", "load", "trunc_bound")


def reference_outputs(workdir: Path) -> dict:
    """Rows (and placements) of the README sweep and one fixed heavy config."""
    out = workdir / "reference.csv"
    cfg_path = workdir / "reference.cfg"
    cfg_path.write_text(HEAVY_CFG + f"snr_db={HEAVY_FIXED_SNR_DB!r}\n")
    heavy = ["optimize", "--config", str(cfg_path), "--methods", HEAVY_METHODS,
             "--schemes", "both"]
    result = {}
    for name, argv in (("readme_sweep", README_SWEEP), ("heavy_fixed", heavy)):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{name}: cli.main returned {code}")
        result[name] = {
            "rows": [",".join(r[k] for k in REFERENCE_FIELDS) for r in read_rows(out)],
            "placements": {k: ",".join(map(str, c))
                           for k, c in read_placements(out).items()},
        }
    return result


def check_reference(workdir: Path) -> str | None:
    """Compare against the committed reference: placements exactly, loads
    within both reported truncation bounds plus TOL."""
    expected = json.loads(REFERENCE.read_text())
    got = reference_outputs(workdir)
    for name, ref in expected.items():
        if got[name]["placements"] != ref["placements"]:
            return f"{name}: placements {got[name]['placements']} != {ref['placements']}"
        if len(got[name]["rows"]) != len(ref["rows"]):
            return f"{name}: {len(got[name]['rows'])} rows, reference has {len(ref['rows'])}"
        for row, want in zip(got[name]["rows"], ref["rows"]):
            (*key, load, bound), (*want_key, want_load, want_bound) = (
                row.split(","), want.split(","))
            if key != want_key:
                return f"{name}: row {key} != reference {want_key}"
            if abs(float(load) - float(want_load)) > TOL + float(bound) + float(want_bound):
                return f"{name}: {key} load {load} != reference {want_load}"
    return None
