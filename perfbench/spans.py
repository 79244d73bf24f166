"""Traced runs: spans around each layer's public functions, from outside.

The tracer replaces each wrapped function in the module where its caller
looks it up, for the length of one traced task, and restores it afterwards.
Nothing in the package changes.  A span records its name, layer, start, end,
parent span and task id; spans stay in memory and are written out at exit.
A layer's self time is its spans' duration minus the part their child spans
cover (children are nested and sequential, so that part is the sum of the
children's durations).
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYERS = ("cli", "scenario", "propagation", "trajectories", "ensembles",
          "collapse", "factors")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _evolve_counts(steps_index):
    def count(args, kwargs, out):
        steps = _arg(args, kwargs, steps_index, "n_steps")
        # grid points x components on the ring, n^2 on the torus
        return {"steps": steps, "site_steps": args[0].values.size * steps}
    return count


def _transport_counts(args, kwargs, out):
    result, _ = out
    particles = result.positions.shape[1]
    steps = _arg(args, kwargs, 4, "n_steps")
    halted = int((result.status != "completed").sum())
    return {"particles": particles, "particle_steps": particles * steps,
            "halted": halted}


def _called_from(*layers):
    """Record only when the innermost open span belongs to one of ``layers``."""
    return lambda stack: bool(stack) and stack[-1][1] in layers


# (module, attribute path, layer, kind, counter, condition)
PATCHES = [
    ("topobohm.cli", "main", "cli", "entry", None, None),
    ("topobohm.cli", "Scenario", "scenario", "build", None, None),
    ("topobohm.scenario", "Scenario.initial_state", "scenario", "build", None, None),
    ("topobohm.cli", "evolve", "propagation", "step", _evolve_counts(3), None),
    ("topobohm.cli", "evolve_vector_potential", "propagation", "step",
     _evolve_counts(4), None),
    ("topobohm.trajectories", "evolve", "propagation", "step", _evolve_counts(3), None),
    ("topobohm.trajectories", "evolve_vector_potential", "propagation", "step",
     _evolve_counts(4), None),
    ("topobohm.collapse", "evolve", "propagation", "step", _evolve_counts(3), None),
    ("topobohm.propagation", "WaveGrid.twist_residual", "propagation", "monitor",
     None, _called_from("cli", "collapse")),
    ("topobohm.propagation", "WaveGrid.norm", "propagation", "monitor",
     None, _called_from("cli", "collapse")),
    ("topobohm.ensembles", "transport", "trajectories", "transport",
     _transport_counts, None),
    ("topobohm.trajectories", "transport", "trajectories", "transport",
     _transport_counts, None),
    ("topobohm.cli", "verify_equivariance", "ensembles", "verify", None, None),
    ("topobohm.ensembles", "sample_density", "ensembles", "sample",
     lambda args, kwargs, out: {"samples": _arg(args, kwargs, 1, "n")}, None),
    ("topobohm.cli", "simulate_grw", "collapse", "simulate", None, None),
    ("topobohm.collapse", "total_rate", "collapse", "rate",
     lambda args, kwargs, out: {"rate_evals": 1}, None),
    ("topobohm.collapse", "apply_collapse", "collapse", "event",
     lambda args, kwargs, out: {"events": 1}, None),
    ("topobohm.propagation", "check_commutes", "factors", "gate",
     lambda args, kwargs, out: {"gate_points": len(_arg(args, kwargs, 1,
                                                         "potential_samples"))},
     None),
]


SPAN_FIELDS = ("id", "parent", "task", "name", "layer", "kind", "start", "end",
               "child_s", "counts")


class Tracer:
    """Resolves the wrapped names once; ``traced`` patches them per task."""

    def __init__(self):
        self.spans = []     # tuples laid out as SPAN_FIELDS
        self.stack = []     # open spans as [id, layer, time covered by children]
        self.task = None
        self.skipped = []
        self._resolved = []
        for module_name, path, layer, kind, counter, when in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.skipped.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, f"{module_name}.{path}", layer, kind,
                                 counter, when)
            self._resolved.append((owner, attr, original, wrapper))

    def _wrap(self, fn, name, layer, kind, counter, when):
        call, stack = self.call, self.stack

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if when is not None and not when(stack):
                return fn(*args, **kwargs)
            return call(fn, name, layer, kind, counter, args, kwargs)
        return wrapper

    def call(self, fn, name, layer, kind, counter, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [len(self.spans) + len(stack), layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent[2] += end - start
        self.spans.append((frame[0], parent and parent[0], self.task, name, layer,
                           kind, start, end, frame[2],
                           counter(args, kwargs, out) if counter else {}))
        return out

    def traced(self, task_id, fn, *args):
        """Run ``fn(*args)`` as one task under a root span, patched."""
        self.task = task_id
        for owner, attr, _, wrapper in self._resolved:
            setattr(owner, attr, wrapper)
        try:
            return self.call(fn, "task", "bench", "task", None, args, {})
        finally:
            for owner, attr, original, _ in self._resolved:
                setattr(owner, attr, original)
            self.task = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"skipped": self.skipped,
                       "spans": [dict(zip(SPAN_FIELDS, s)) for s in self.spans]}, fh)


def layer_metrics(spans, n_tasks, active_layers, bytes_written, overhead_frac):
    """Per-layer figures as {name: (value, unit)}, counts and times per traced
    task; a layer marked active that recorded no call is an error, not a zero."""
    self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
    calls = {layer: 0 for layer in LAYERS}
    step_self = step_calls = monitor_s = 0.0
    totals = {}
    task_s = 0.0
    for _, _, _, _, layer, kind, start, end, child_s, counts in spans:
        own = end - start - child_s
        self_s[layer] += own
        if layer in calls:
            calls[layer] += 1
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
        if kind == "step":
            step_self += own
            step_calls += 1
        elif kind == "monitor":
            monitor_s += own
        elif kind == "task":
            task_s += end - start
    missing = [layer for layer in active_layers if calls[layer] == 0]
    if missing:
        raise RuntimeError(f"traced run recorded no call in active layers {missing}")
    per = 1.0 / n_tasks
    total = lambda key: totals.get(key, 0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {
        "propagation.calls": (step_calls * per, "count"),
        "propagation.steps": (total("steps") * per, "count"),
        "propagation.self_s": (self_s["propagation"] * per, "s"),
        "propagation.ns_per_site_step": (ratio(step_self, total("site_steps"), 1e9), "ns"),
        "propagation.us_per_call": (ratio(step_self, step_calls, 1e6), "us"),
        "propagation.monitor_s": (monitor_s * per, "s"),
        "trajectories.particle_steps": (total("particle_steps") * per, "count"),
        "trajectories.self_s": (self_s["trajectories"] * per, "s"),
        "trajectories.ns_per_particle_step": (
            ratio(self_s["trajectories"], total("particle_steps"), 1e9), "ns"),
        "trajectories.halt_frac": (ratio(total("halted"), total("particles")), "frac"),
        "ensembles.samples": (total("samples") * per, "count"),
        "ensembles.self_s": (self_s["ensembles"] * per, "s"),
        "collapse.events": (total("events") * per, "count"),
        "collapse.rate_evals": (total("rate_evals") * per, "count"),
        "collapse.events_per_rate_eval": (ratio(total("events"), total("rate_evals")),
                                          "frac"),
        "collapse.self_s": (self_s["collapse"] * per, "s"),
        "factors.gate_calls": (calls["factors"] * per, "count"),
        "factors.gate_points": (total("gate_points") * per, "count"),
        "factors.self_s": (self_s["factors"] * per, "s"),
        "scenario.self_s": (self_s["scenario"] * per, "s"),
        "cli.self_s": (self_s["cli"] * per, "s"),
        "cli.bytes_written": (bytes_written * per, "bytes"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_share"] = (ratio(self_s[layer], task_s), "frac")
    return m
