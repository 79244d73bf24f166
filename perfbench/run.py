#!/usr/bin/env python3
"""Benchmark of topobohm scenario runs: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring-ensemble --seed 1 --seconds 20 --trace 0

The workloads and what they load are described in ``perfbench/README.md``.
With ``--trace 0`` the run reports the end-to-end metrics with nothing
patched; with ``--trace 1`` it alternates untraced and traced runs of the
same tasks and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment,
the sample counts and the check details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Run BLAS/OpenMP on one thread; must run before numpy is imported.

    One is at most nproc everywhere.  On a shared two-core host a second BLAS
    thread waits for a busy sibling, which made the matmul-bound workload's
    task times bimodal."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(nproc):
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_model": model,
        "cache": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def import_topobohm():
    sys.path.insert(0, str(SRC))
    import topobohm
    import topobohm.cli
    import topobohm.collapse
    import topobohm.ensembles
    import topobohm.propagation
    import topobohm.scenario
    import topobohm.trajectories
    if Path(topobohm.__file__).resolve().parent != SRC / "topobohm":
        raise ImportError(f"topobohm imported from {topobohm.__file__}, not {SRC}")
    return topobohm


def set_up(wl, seed, work_dir, task_rng):
    """Generate the seeded inputs, build them, and run one short warm-up task."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tasks = [wl.prepare(wl.make_config(task_rng(seed, i)), str(work_dir / f"task{i}.json"))
             for i in range(wl.pool)]
    warm = wl.prepare(wl.make_config(task_rng(seed, wl.pool), warmup=True),
                      str(work_dir / "warmup.json"))
    out = work_dir / "warmup"
    outcome = wl.check(warm, wl.run(warm, str(out)))
    shutil.rmtree(out, ignore_errors=True)
    if not outcome.ok:
        raise RuntimeError(f"warm-up task failed its check: {outcome.detail}")
    return tasks


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_task(wl, task, out, runner):
    """Time one task and check it; an exception counts as a failed check."""
    from workloads import Outcome, tree_bytes

    start = time.perf_counter()
    try:
        raw = runner(task, str(out))
    except Exception:
        elapsed = time.perf_counter() - start
        return elapsed, None, Outcome(False, traceback.format_exc(limit=3)), 0
    elapsed = time.perf_counter() - start
    try:
        outcome = wl.check(task, raw)
    except Exception:
        outcome = Outcome(False, traceback.format_exc(limit=3))
    written = tree_bytes(out) if out.exists() else 0
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, raw, outcome, written


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_threads()
    if not (SRC / "topobohm" / "__init__.py").is_file():
        print(f"error: no topobohm sources under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    topobohm = import_topobohm()
    import_s = time.perf_counter() - start

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](topobohm)
    out_root = HERE / "out"
    work_dir = out_root / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    try:
        return measure(wl, args, import_s, work_dir, out_root, nproc)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(wl, args, import_s, work_dir, out_root, nproc):
    from workloads import task_rng

    kernel = wl.probe_kernel(task_rng(0, 0))
    kernel()  # the first call pays for allocation; not a sample
    # the import is timed before numpy exists, so the probes right after it
    # stand for the host's speed during the import
    import_probe = statistics.median(timed(kernel) for _ in range(3))
    # setup_probes[i] and setup_probes[i + 1] bracket set-up repetition i
    setup_probes = [timed(kernel)]
    setup_reps = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        tasks = set_up(wl, args.seed, work_dir, task_rng)
        setup_reps.append(time.perf_counter() - start)
        setup_probes.append(timed(kernel))

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    # probes[i] and probes[i + 1] bracket untraced task i
    probes = [setup_probes[-1]]
    used, raws, failures = [], [], []
    times = {False: [], True: []}
    work = 0.0
    bytes_written = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        task = tasks[i % len(tasks)]
        # a traced run alternates which of the pair goes first
        order = (False,) if tracer is None else ((False, True) if i % 2 == 0
                                                 else (True, False))
        for traced in order:
            out = work_dir / f"run{i}-{int(traced)}"
            if traced:
                runner = lambda t, o, i=i: tracer.traced(i, wl.run, t, o)
            else:
                runner = wl.run
            elapsed, raw, outcome, written = run_task(wl, task, out, runner)
            if tracer is None:
                probes.append(timed(kernel))
            times[traced].append(elapsed)
            used.append(task)
            raws.append(raw if raw is not None else {})
            if traced:
                bytes_written += written
            else:
                work += wl.work(task)
            if not outcome.ok:
                failures.append(f"task {i}: {outcome.detail}")
        i += 1

    run_outcome = wl.run_check(used, raws)
    attempted = len(used)
    failed = len(failures)
    if not run_outcome.ok:
        failed = attempted
        failures.append(f"run check: {run_outcome.detail}")

    untraced = times[False]
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(nproc),
        "tasks_timed": len(untraced),
        "task_s": untraced,
        "work_unit": f"{wl.work_unit}/s",
        "import_s": import_s,
        "setup_reps_s": setup_reps,
        "run_check": run_outcome.detail,
        "failures": failures[:5],
    }
    if tracer is None:
        # each time in reference-host seconds: scaled by the reference probe
        # time over the mean of the probes that bracket it
        ref = wl.probe_ref_s
        task_ref = [2 * ref * t / (a + b) for t, a, b in zip(untraced, probes, probes[1:])]
        setup_ref = [2 * ref * t / (a + b)
                     for t, a, b in zip(setup_reps, setup_probes, setup_probes[1:])]
        summary.update({"wall_setup_s": import_s + statistics.median(setup_reps),
                        "wall_task_p50_s": statistics.median(untraced),
                        "wall_work_per_s": work / sum(untraced),
                        "import_probe_s": import_probe,
                        "setup_probe_s": setup_probes,
                        "probe_s": probes})
        metrics = {
            "setup_s": (ref * import_s / import_probe + statistics.median(setup_ref), "s"),
            "task_p50_s": (statistics.median(task_ref), "s"),
            "work_per_s": (statistics.median(wl.work(task) / t
                                             for task, t in zip(used, task_ref)), "work/s"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    else:
        from spans import layer_metrics
        overhead = sum(times[True]) / sum(untraced) - 1.0
        metrics = layer_metrics(tracer.spans, len(times[True]), wl.layers,
                                bytes_written, overhead)
        summary["skipped_wrappers"] = tracer.skipped
        summary["active_layers"] = list(wl.layers)
        trace_path = out_root / f"trace-{wl.name}-s{args.seed}.json"
        tracer.write(trace_path)
        summary["spans_file"] = str(trace_path.relative_to(ROOT))
        for name in tracer.skipped:
            print(f"note: wrapped name {name} no longer exists; skipped",
                  file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
