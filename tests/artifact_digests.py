"""Digests of every artifact the test suite and the benchmark's tasks write.

A refactor that claims bit identity is checked by running this script on
the parent commit (with this file copied in) and on the change, and
comparing the two JSON files with ``diff``:

    python tests/artifact_digests.py digests.json

It does three things, in one process:

* It runs the tier-1 suite with ``topobohm.cli.main`` wrapped.  After each
  call the wrapper records the exit code and the sha256 of every file the
  call wrote into its run directory.
* It runs the first ``--tasks`` pool tasks of each ``--seeds`` seed of the
  three CLI workloads of ``perfbench/workloads.py``, through the same
  wrapper.
* For the same seeds and tasks it runs ``pair-ensemble`` through the
  library and records the sha256 of its final positions and evolved values.

Each entry is keyed by test id (or workload, seed and task), call index and
file name.  A manifest is hashed without its ``wall_time_s`` and without a
failure's ``traceback``, which holds source paths and line numbers.  The
suite runs under a fixed ``--basetemp``, so paths that a message quotes are
the same in both runs.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import topobohm.cli  # noqa: E402


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _file_digest(path):
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("wall_time_s", None)
        if isinstance(manifest.get("failure"), dict):
            manifest["failure"].pop("traceback", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return _sha256(data)


def _stats(out):
    """Each file under ``out``: its (mtime, size), keyed by relative path."""
    if out is None or not out.is_dir():
        return {}
    return {str(p.relative_to(out)): (p.stat().st_mtime_ns, p.stat().st_size)
            for p in sorted(out.rglob("*")) if p.is_file()}


def _out_dir(argv):
    """The run directory ``main`` writes to, read off its arguments as its
    parser reads them (without calling it: a bad argv would print twice)."""
    argv = list(argv or ())
    for i, arg in enumerate(argv):
        if arg == "--out" and i + 1 < len(argv):
            return Path(argv[i + 1])
        if arg.startswith("--out="):
            return Path(arg.split("=", 1)[1])
    return Path(os.environ.get(topobohm.cli.DEFAULT_OUT_ENV) or "out")


class Recorder:
    """Wraps ``cli.main`` and keeps the digests; a pytest plugin too."""

    def __init__(self):
        self.digests = {}
        self.key = "(outside a test)"
        self.calls = 0
        original = topobohm.cli.main

        @functools.wraps(original)
        def main(argv=None):
            out = _out_dir(argv)
            before = _stats(out)
            code = original(argv)
            call = f"{self.key} #{self.calls}"
            self.calls += 1
            self.digests[f"{call} exit"] = code
            for name, stat in _stats(out).items():
                if before.get(name) != stat:
                    self.digests[f"{call} {name}"] = _file_digest(out / name)
            return code

        topobohm.cli.main = main

    def start(self, key):
        self.key, self.calls = key, 0

    # -- pytest hooks ------------------------------------------------------

    def pytest_runtest_setup(self, item):
        self.start(item.nodeid)


def run_suite(recorder, basetemp, pytest_args):
    import pytest

    os.chdir(ROOT)
    return pytest.main(["-q", "-p", "no:cacheprovider", f"--basetemp={basetemp}",
                        *pytest_args, "tests"], plugins=[recorder])


def run_workloads(recorder, work_dir, seeds, n_tasks):
    import topobohm
    import topobohm.ensembles
    import topobohm.propagation
    import topobohm.scenario
    import topobohm.trajectories
    import workloads

    work_dir.mkdir(parents=True, exist_ok=True)
    for name in ("ring-ensemble", "spinor-evolve", "grw-ring", "pair-ensemble"):
        wl = workloads.WORKLOADS[name](topobohm)
        for seed in seeds:
            for i in range(n_tasks):
                key = f"workload {name} seed {seed} task {i}"
                recorder.start(key)
                cfg = wl.make_config(workloads.task_rng(seed, i))
                task = wl.prepare(cfg, str(work_dir / f"{name}-{seed}-{i}.json"))
                raw = wl.run(task, str(work_dir / f"{name}-{seed}-{i}"))
                if name == "pair-ensemble":
                    recorder.digests[f"{key} final"] = _sha256(
                        np.ascontiguousarray(raw["final"]).tobytes())
                    recorder.digests[f"{key} evolved"] = _sha256(
                        raw["evolved"].values.tobytes())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="JSON file to write")
    parser.add_argument("--basetemp", default=str(
        Path(tempfile.gettempdir()) / "topobohm-artifact-digests"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--tasks", type=int, default=8)
    parser.add_argument("--skip-suite", action="store_true")
    args, pytest_args = parser.parse_known_args(argv)
    output = Path(args.output).resolve()

    recorder = Recorder()
    status = 0
    if not args.skip_suite:
        status = int(run_suite(recorder, args.basetemp, pytest_args))
    run_workloads(recorder, Path(args.basetemp) / "workloads", args.seeds,
                  args.tasks)
    output.write_text(json.dumps(recorder.digests, sort_keys=True, indent=0) + "\n")
    print(f"{len(recorder.digests)} entries written to {output}; "
          f"pytest exit status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
