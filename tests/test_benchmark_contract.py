"""The benchmark's tracer still finds every package function it wraps, and
still counts the propagation steps through them.

``perfbench/spans.py`` patches functions by module and name; a refactor
that renames or unhooks one of them (``evolve``, ``check_commutes``,
``transport``, ...) would otherwise surface only in a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from topobohm import cli
from topobohm.collapse import simulate_grw
from topobohm.factors import Character
from topobohm.propagation import Potential, make_gaussian_state
from topobohm.scenario import SCENARIO_SCHEMA_TAG
from topobohm.trajectories import transport

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_resolves_every_live_wrapper():
    spans = _spans()
    # evolve_vector_potential no longer exists in the package; this list
    # shrinks to [] when the next change to the benchmark drops its entries
    assert spans.Tracer().skipped == [
        "topobohm.cli.evolve_vector_potential",
        "topobohm.trajectories.evolve_vector_potential",
    ]


def _propagation_steps(fn, *args):
    """The steps of the propagation spans of one traced call of ``fn``."""
    spans = _spans()
    tracer = spans.Tracer()
    tracer.traced(0, fn, *args)
    records = [dict(zip(spans.SPAN_FIELDS, span)) for span in tracer.spans]
    return sum(r["counts"]["steps"] for r in records
               if r["layer"] == "propagation" and r["kind"] == "step")


def test_tracer_counts_the_propagation_steps(tmp_path):
    # the traced benchmark reads propagation.steps off the evolve calls in
    # cli, trajectories and collapse; stepping moved off those names would
    # zero it on ring-ensemble and pair-ensemble
    state = make_gaussian_state(Character.ring(0.9), 3.0, 0.5, 1.0, n_points=64)
    potential = Potential.from_callable(lambda t: 0.3 * np.cos(t), 64)
    # two half steps of the wave per RK4 step
    assert _propagation_steps(transport, state, potential,
                              [1.0, 2.0], 1e-3, 5) == 10
    # steps between events go through evolve; the remainder steps do not
    assert _propagation_steps(lambda: simulate_grw(
        state, potential, 0.05, 1.0, 0.3, 3, dt=1e-3)) > 0
    cfg = tmp_path / "evolve.json"
    cfg.write_text(json.dumps({
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "ring", "n_points": 64},
        "factor": {"type": "character", "beta": 0.9},
        "initial_state": {"type": "gaussian", "center": 3.0, "width": 0.5},
        "numerics": {"dt": 1e-3, "t_final": 0.02}}))
    assert _propagation_steps(cli.main, [
        "evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 20
