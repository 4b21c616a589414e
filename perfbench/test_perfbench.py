"""Tests of the benchmark harness: input generation, checks, tracer, contract.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Runner, make_op  # noqa: E402


def _inputs(op):
    return (op.key, op.snr_db, op.mc_seed, None if op.q is None else op.q.tolist())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = [_inputs(make_op(workload, 7, i)) for i in range(50)]
    assert first == [_inputs(make_op(workload, 7, i)) for i in range(50)]
    other = [_inputs(make_op(workload, 8, i)) for i in range(50)]
    assert all(a != b for a, b in zip(first, other))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_config_repeats_within_a_run(workload):
    keys = [make_op(workload, 3, i).key for i in range(2000)]
    assert len(set(keys)) == len(keys)


def test_op_inputs_stay_in_their_ranges():
    sweep = [make_op("readme_sweep", 1, i).snr_db for i in range(500)]
    heavy = [make_op("heavy_scenario", 1, i).snr_db for i in range(500)]
    assert 0.0 <= min(sweep) and max(sweep) <= 40.0
    assert 10.0 <= min(heavy) and max(heavy) <= 30.0
    q = make_op("mc_crosscheck", 1, 0).q
    assert q.shape == (10, 11)
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per-layer metrics of two traced ops on every workload."""
    out = {}
    for workload in WORKLOADS:
        runner = Runner(workload, tmp_path_factory.mktemp(workload))
        tracer = spans.Tracer()
        for index in (1, 2):
            op = make_op(workload, 0, index)
            prepared = runner.prepare(op)
            tracer.install()
            try:
                result = runner.run(prepared)
            finally:
                tracer.uninstall()
            tracer.end_op()
            assert runner.check(op, result) is None
        out[workload] = {name: value for name, (value, _) in tracer.metrics().items()}
    return out


def test_every_span_is_seen_on_the_workloads_that_call_it(traced_runs):
    missing = [(name, workload)
               for name, spec in spans.LAYERS["spans"].items()
               for workload in spec["called_on"]
               if traced_runs[workload][f"{name}.calls"] == 0]
    assert not missing


def test_montecarlo_runs_only_on_mc_crosscheck(traced_runs):
    for workload, metrics in traced_runs.items():
        busy = metrics["layer.montecarlo.self_ms"] > 0
        assert busy == (workload == "mc_crosscheck")


def test_tracer_restores_the_program(traced_runs):
    import d2dcache
    from d2dcache import cli, load

    assert not hasattr(d2dcache.greedy_placement, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(load.poisson_truncation, "__wrapped__")


def test_covered_merges_overlapping_children():
    kids = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)]
    assert spans._covered(kids, 0.0, 10.0) == pytest.approx(3.0 + 1.0 + 1.0)


def _sweep_rows(greedy, exhaustive=2.0, high_mobility=2.5):
    rows = []
    for scheme in ("orthogonal", "non_orthogonal"):
        for method, load in (("greedy", greedy), ("exhaustive", exhaustive),
                             ("high_mobility", high_mobility)):
            rows.append({"value": "10", "scheme": scheme, "method": method,
                         "load": str(load), "trunc_bound": "1e-12"})
    return rows


def test_sweep_check_rejects_greedy_off_the_optimum():
    assert workloads.check_sweep_rows(_sweep_rows(2.0), 10.0, 5) is None
    assert "greedy" in workloads.check_sweep_rows(_sweep_rows(2.001), 10.0, 5)
    assert "high_mobility" in workloads.check_sweep_rows(_sweep_rows(2.0, 2.0, 1.9), 10.0, 5)
    assert "out of range" in workloads.check_sweep_rows(_sweep_rows(6.0, 6.0, 6.0), 10.0, 5)


def test_mc_check_rejects_estimates_beyond_five_sigma():
    assert workloads.check_mc((3.0, 0.0, 3.04, 0.01)) is None
    assert workloads.check_mc((3.0, 0.0, 3.06, 0.01)) is not None
    assert workloads.check_mc((3.0, 0.02, 3.06, 0.01)) is None


def test_reference_rows_match_the_program(tmp_path):
    assert workloads.check_reference(tmp_path) is None


def test_reference_check_rejects_a_changed_placement(tmp_path, monkeypatch):
    ref = json.loads(workloads.REFERENCE.read_text())
    ref["heavy_fixed"]["placements"]["greedy_orthogonal"] = "20,0,0,0,0,0,0,0,0,0"
    changed = tmp_path / "reference.json"
    changed.write_text(json.dumps(ref))
    monkeypatch.setattr(workloads, "REFERENCE", changed)
    assert "placements" in workloads.check_reference(tmp_path)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaling_cancels_host_speed():
    import run

    ops = [(0.2 + 0.01 * (i % 3), False, 1e-3) for i in range(20)]
    slow = [(2 * latency, traced, 2 * kernel) for latency, traced, kernel in ops]
    assert run.scaled_latencies(slow) == pytest.approx(run.scaled_latencies(ops))
    assert run.scaled_latencies(ops) == pytest.approx([latency for latency, _, _ in ops])
