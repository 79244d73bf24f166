#!/usr/bin/env python3
"""Show that each workload's correctness check can fail.

For every workload this runs real tasks twice through the same check: once
as the benchmark does, where the check must pass, and once with a corrupted
input, where it must fail.  Usage, from the root of a checkout:

    python3 perfbench/corrupt.py --seed 1

Exit status 0 means every clean case passed and every corrupted case failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import HERE, import_topobohm, pin_threads

GRW_TASKS = 12
GRW_WRONG_LAM = 3.0
SPINOR_PERTURBATION = 1e-6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    pin_threads()
    topobohm = import_topobohm()
    import workloads as w

    work = HERE / "out" / f"corrupt-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = lambda i: w.task_rng(args.seed, i)
    results = []

    def run(wl, cfg, name):
        task = wl.prepare(cfg, str(work / f"{name}.json"))
        return task, wl.run(task, str(work / name))

    try:
        ring = w.RingEnsemble(topobohm)
        cfg = ring.make_config(rng(0))
        results.append(("ring-ensemble", "clean", ring.check(*run(ring, cfg, "ring"))))
        cfg["equivariance"]["velocity_factor"] = -1.0
        results.append(("ring-ensemble", "velocity_factor -1",
                        ring.check(*run(ring, cfg, "ring-flipped"))))

        spinor = w.SpinorEvolve(topobohm)
        task, raw = run(spinor, spinor.make_config(rng(0)), "spinor")
        results.append(("spinor-evolve", "clean", spinor.check(task, raw)))
        state_path = os.path.join(raw["out"], "state.json")
        state = w.read_json(state_path)
        state["components"][0][0][0] += SPINOR_PERTURBATION
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        results.append(("spinor-evolve", f"state perturbed by {SPINOR_PERTURBATION:g}",
                        spinor.check(task, raw)))

        grw = w.GrwRing(topobohm)
        for label, lam in (("clean", None), (f"lam {GRW_WRONG_LAM:g} run, "
                                             f"lam {grw.lam:g} expected", GRW_WRONG_LAM)):
            tasks, raws = [], []
            for i in range(GRW_TASKS):
                task, raw = run(grw, grw.make_config(rng(i), lam=lam), f"grw{i}")
                grw.check(task, raw)
                tasks.append(task)
                raws.append(raw)
            results.append(("grw-ring", label, grw.run_check(tasks, raws)))

        pair = w.PairEnsemble(topobohm)
        task, raw = run(pair, pair.make_config(rng(0)), "pair")
        results.append(("pair-ensemble", "clean", pair.check(task, raw)))
        raw["evolved"] = task["state"]
        results.append(("pair-ensemble", "scored against the initial density",
                        pair.check(task, raw)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = 0
    for workload, case, outcome in results:
        expected = case == "clean"
        verdict = "ok" if outcome.ok == expected else "WRONG"
        wrong += verdict == "WRONG"
        print(f"{verdict:5s} {workload:14s} {case:38s} "
              f"{'passed' if outcome.ok else 'failed'}: {outcome.detail}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
