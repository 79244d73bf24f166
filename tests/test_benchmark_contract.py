"""The benchmark's tracer still finds every package function it wraps.

``perfbench/spans.py`` patches functions by module and name; a refactor
that renames or unhooks one of them (``evolve``, ``check_commutes``,
``transport``, ...) would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_resolves_every_live_wrapper():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # evolve_vector_potential no longer exists in the package; this list
    # shrinks to [] when the next change to the benchmark drops its entries
    assert spans.Tracer().skipped == [
        "topobohm.cli.evolve_vector_potential",
        "topobohm.trajectories.evolve_vector_potential",
    ]
