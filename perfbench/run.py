"""d2dcache benchmark: one closed-loop client, one op in flight, in-process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload readme_sweep --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` and explained in ``README.md``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics of ``tracer.py`` plus the tracing overhead.  The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` of the checkout this file sits in; a
directory without it makes the run exit with code 2 and print no result.
"""

import os

# Pinned before numpy loads, so that no BLAS thread pool competes with the ops.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_PREFIX = ".perfbench_work-"   # CLI outputs of a run, removed when it ends
REQUIRED = (SRC / "d2dcache" / "__init__.py", ROOT / "demos" / "default.cfg")

SETUP_PROBES = 5          # fresh interpreters per run; setup_s is their median
TAIL_PERCENTILE = 90      # op_p90_ms keeps >= 10 samples beyond it at >= 100 ops
PROBE_TIMEOUT_S = 60
# Host speed on a shared machine drifts by up to 2x over seconds to minutes.
# Op times are scaled as if speed_kernel() took KERNEL_REF_S.  One kernel
# sample follows each op; an op is scaled by the mean of the samples within
# KERNEL_WINDOW ops of it, per-layer times by the mean over the run.  The
# mean, not the median, because the host flips between a fast and a slow
# mode within an op.  Set-up time does not follow the kernel and stays raw.
# Raw values go to the info line.
KERNEL_REF_S = 1e-3
KERNEL_WINDOW = 16
KERNEL_REPEATS = 3
WARMUP_INDEX = 0          # op 0 warms up; timed ops start at 1
MIN_OPS = 2               # quartiles and the traced/untraced pair need two ops


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one fresh set-up and print when ready")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def speed_kernel() -> float:
    """Seconds of fixed work that does not touch the program: an interpreter
    loop and small numpy calls, the same mix as the ops.  The median of
    KERNEL_REPEATS back-to-back runs, so that one run slowed by the caches
    the op left behind, or by preemption, does not count."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 12)
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
        for _ in range(150):
            acc += float(np.convolve(a, a).sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def warm_up(workload, seed, workdir):
    """Build the workload's first input and run it as the warm-up op."""
    import workloads

    runner = workloads.Runner(workload, workdir)
    op = workloads.make_op(workload, seed, WARMUP_INDEX)
    result = runner.run(runner.prepare(op))
    return runner, op, result


def setup_probe(args, workdir) -> int:
    """Child side of a setup_s sample: print the clock when the first timed
    op could start.  perf_counter is CLOCK_MONOTONIC, shared by processes."""
    runner, op, result = warm_up(args.workload, args.seed, workdir)
    ready = time.perf_counter()
    error = runner.check(op, result)
    if error:
        print(f"warm-up op failed its check: {error}", file=sys.stderr)
        return 1
    print(repr(ready))
    return 0


def measure_setup(args) -> list[float]:
    """Seconds from interpreter start to the first timed op, per fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return samples


def context_info(args, ops) -> dict:
    import numpy
    import scipy
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor()   # starts no thread until work is submitted
    workers = pool._max_workers
    pool.shutdown()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": ops, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cli_pool_workers": workers,
    }


def run_ops(args, runner, tracer):
    """The timed closed loop.  Returns per-op (latency, traced, kernel time
    after the op), the number of ops attempted and the failure messages."""
    import workloads

    ops = []
    failures = []
    speed_kernel()
    index = WARMUP_INDEX
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or index < WARMUP_INDEX + MIN_OPS:
        index += 1
        op = workloads.make_op(args.workload, args.seed, index)
        prepared = runner.prepare(op)
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            result = runner.run(prepared)
        except Exception as exc:   # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            tracer.end_op()
        if error is None:
            try:
                error = runner.check(op, result)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error:
            failures.append(f"op {index}: {error}")
        ops.append((elapsed, traced, speed_kernel()))
    return ops, index - WARMUP_INDEX, failures


def scaled_latencies(ops) -> list[float]:
    """Each latency times KERNEL_REF_S over the mean kernel time near it."""
    kernel = [k for _, _, k in ops]
    return [
        latency * KERNEL_REF_S
        / statistics.fmean(kernel[max(0, i - KERNEL_WINDOW): i + KERNEL_WINDOW + 1])
        for i, (latency, _, _) in enumerate(ops)
    ]


def end_to_end_metrics(latencies, setup_s) -> dict:
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        f"op_p{TAIL_PERCENTILE}_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure(args, workdir) -> dict:
    import tracer as spans
    import workloads

    setup = [] if args.trace else measure_setup(args)
    runner, op, result = warm_up(args.workload, args.seed, workdir)
    error = runner.check(op, result) or workloads.check_reference(workdir)
    set_up_failures = [f"before the timed ops: {error}"] if error else []
    tracer = spans.Tracer() if args.trace else None

    gc.collect()
    gc.freeze()     # set-up objects stay out of the collections the ops trigger
    ops, attempted, failures = run_ops(args, runner, tracer)

    for line in (set_up_failures + failures)[:10]:
        print(line, file=sys.stderr)
    info = context_info(args, attempted)
    info["speed_kernel_s"] = statistics.fmean(k for _, _, k in ops)
    run_scale = KERNEL_REF_S / info["speed_kernel_s"]
    if tracer:
        plain = [latency for latency, traced, _ in ops if not traced]
        traced = [latency for latency, traced, _ in ops if traced]
        metrics = tracer.metrics(run_scale)
        metrics["trace.overhead"] = (
            (len(traced) / sum(traced)) / (len(plain) / sum(plain)), "ratio")
    else:
        info["setup_samples_s"] = setup
        raw = end_to_end_metrics([latency for latency, _, _ in ops],
                                 statistics.median(setup))
        info["raw"] = {name: value for name, (value, _) in raw.items()}
        metrics = end_to_end_metrics(scaled_latencies(ops), statistics.median(setup))
    print(json.dumps({"info": info}))
    return {
        "correct": not (set_up_failures or failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"program files missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=ROOT) as tmp:
        if args.setup_probe:
            return setup_probe(args, Path(tmp))
        print(json.dumps(measure(args, Path(tmp))))
        return 0


if __name__ == "__main__":
    sys.exit(main())
