"""Scenario-driven batch runner.

Subcommands: evolve, spectrum, trajectories, equivariance, ab-compare,
classify, twisted-check, grw.  A run's settings are its scenario file
(``--config``), whose seed ``--seed`` may replace.  Every run writes its
artifacts plus a manifest (config digest, seed, invariant residuals, file
inventory); runs are reproducible bit for bit from config + seed, wall time
aside.

Exit codes partition failures: 0 success, 2 config/schema, 3 physics
incompatibility (such as a non-unitary generator), 4 numerical tolerance
breach, 5 internal error (any other exception, such as an I/O error while
writing or a bug).  ``main`` has one failure path: every failure prints one
``error[<family>]`` line on stderr, and every failure after the config
parses as JSON writes a ``failed`` manifest with its family; a manifest
that cannot be written never changes the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
import traceback
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from . import __version__
from .covering import BALL_RADIUS, TWO_PI
from .errors import ConfigError, PhysicsError, ToleranceError
from .factors import (
    Character,
    TwistedRepTable,
    classify_dynamics,
    max_abs,
    random_unitary,
    verify_twisted_law,
    worse,
)
from .propagation import (
    evolve,
    factor_commutes,
    gauge_map,
    spectrum,
    state_to_dict,
    whole_steps,
)
from .trajectories import integrate_trajectories
from .ensembles import verify_equivariance
from .collapse import TWIST_PRESERVATION_TOL, simulate_grw
from .scenario import (
    Scenario,
    canonical_config_bytes,
    flux_and_charge,
    square_matrix,
)

EXIT_OK = 0

# each failure family, the first whose exception type matches: its name in
# the manifest and on stderr, and its exit code
FAILURES = (
    (ConfigError, "config", 2),
    (PhysicsError, "physics", 3),
    (ToleranceError, "numerics", 4),
    (Exception, "internal", 5),
)

DEFAULT_OUT_ENV = "TOPOBOHM_OUT"


# ---------------------------------------------------------------------------
# atomic file helpers
# ---------------------------------------------------------------------------

def _atomic_write(path, text):
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        # leave no partial file behind, whatever stopped the write
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path, payload):
    _atomic_write(path, json_text(payload) + "\n")


def json_text(obj, indent=""):
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for an
    ``obj`` whose first line sits at ``indent``.

    With an indent, ``json`` always runs its pure-Python encoder.  Here a
    list of equal-length float lists (a state's (re, im) pairs) is rendered
    from one %-template (``_float_rows_text``) with its floats spelled by
    ``_repr_texts``: about 6 ms for a 2 x 4096 spinor's ``state.json``,
    where ``float.__repr__`` on every value took about 13 ms.  Strings and
    finite floats take ``json``'s own encoders, and whatever else this does
    not walk is ``json.dumps``'s text shifted to ``indent`` (JSON strings
    hold no raw newline, so every newline there is layout).
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = [f"{encode_basestring_ascii(key)}: {json_text(value, inner)}"
                 for key, value in sorted(obj.items())]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(obj, (list, tuple)) and obj:
        rows = _float_rows_text(obj, indent)
        if rows is not None:
            return rows
        items = [json_text(value, inner) for value in obj]
        return "[\n" + inner + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(obj, (dict, list, tuple)):  # empty, or keys json converts
        text = json.dumps(obj, sort_keys=True, indent=2)
        return text.replace("\n", "\n" + indent)
    return json.dumps(obj)  # int, bool, None, NaN, infinities, or TypeError


def _float_rows_text(rows, indent):
    """The text of a list of equal-length lists of floats at ``indent``, or
    None for any other list.  Floats are ``float.__repr__``, as in
    ``json``, and non-finite ones ``json``'s NaN and Infinity."""
    width = len(rows[0]) if type(rows[0]) is list else 0
    if not width or set(map(type, rows)) != {list} or set(
            map(len, rows)) != {width}:
        return None
    flat = list(itertools.chain.from_iterable(rows))
    if set(map(type, flat)) != {float}:
        return None
    texts = (_repr_texts(flat) if all(map(math.isfinite, flat))
             else map(json.dumps, flat))
    row_indent, value_indent = indent + "  ", indent + "    "
    row = (f"[\n{value_indent}" + f",\n{value_indent}".join(["%s"] * width)
           + f"\n{row_indent}]")
    return (f"[\n{row_indent}" + f",\n{row_indent}".join([row] * len(rows))
            + f"\n{indent}]") % tuple(texts)


def _repr_texts(flat):
    """``float.__repr__`` of each of the finite floats ``flat`` (at least
    one).

    orjson's shortest-digit printer writes the same digits as repr's dtoa,
    several times faster, in a layout that differs from repr's in three
    magnitude bands, mended here token by token through index masks:
    1e-9 <= |x| < 1e-5 has a one-digit exponent (``e-7``, repr ``e-07``),
    |x| >= 1e16 no sign on it (``e16``, repr ``e+16``), and orjson writes
    1e-5 <= |x| < 1e-4 positionally (``0.00003``, repr ``3e-05``), so that
    band takes repr itself.
    """
    texts = orjson.dumps(flat)[1:-1].decode().split(",")
    mag = np.abs(np.array(flat))
    for i in np.flatnonzero((mag >= 1e-9) & (mag < 1e-5)).tolist():
        text = texts[i]
        texts[i] = f"{text[:-1]}0{text[-1]}"
    for i in np.flatnonzero(mag >= 1e16).tolist():
        texts[i] = texts[i].replace("e", "e+")
    for i in np.flatnonzero((mag >= 1e-5) & (mag < 1e-4)).tolist():
        texts[i] = float.__repr__(flat[i])
    return texts


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["schema", "subcommand", "config_digest", "invariants",
                 "outputs", "status", "wall_time_s"],
    "properties": {
        "schema": {"const": "topobohm/manifest/1"},
        "subcommand": {"type": "string"},
        "config_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "seed": {"type": ["integer", "null"]},
        "versions": {"type": "object"},
        "invariants": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "residual", "passed"],
                "properties": {
                    "id": {"type": "string"},
                    "residual": {"type": "number"},
                    "tolerance": {"type": ["number", "null"]},
                    "passed": {"type": "boolean"},
                    "structural": {"type": "boolean"},
                },
            },
        },
        "outputs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "sha256", "bytes"],
            },
        },
        "status": {"enum": ["ok", "failed"]},
        "failure": {"type": ["object", "null"]},
        "wall_time_s": {"type": "number"},
    },
}


# Invariants that hold by construction: twisted states are stored
# gauge-fixed, so their twist residual stays at rounding level even for a
# pair that does not commute.  The manifest marks them ``structural``.
STRUCTURAL_INVARIANTS = frozenset({"twist-preservation",
                                   "grw-twist-preservation"})


class RunContext:
    """Collects outputs and invariant checks for the manifest."""

    def __init__(self, out_dir, subcommand, cfg, seed):
        self.out_dir = out_dir
        self.subcommand = subcommand
        self.cfg = cfg
        self.seed = seed
        self.invariants = []
        self.files = []
        self.started = time.monotonic()
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name):
        self.files.append(name)
        return os.path.join(self.out_dir, name)

    def check(self, invariant_id, residual, tolerance):
        if not self.record(invariant_id, residual, tolerance):
            raise ToleranceError(invariant_id, residual, tolerance)

    def record(self, invariant_id, residual, tolerance=None):
        """Add an invariant to the manifest; returns whether it passed.  A
        non-finite residual fails, with a tolerance or without."""
        residual = float(residual)
        entry = {
            "id": invariant_id,
            "residual": residual,
            "tolerance": None if tolerance is None else float(tolerance),
            "passed": math.isfinite(residual) and (
                tolerance is None or bool(residual <= tolerance)),
        }
        if invariant_id in STRUCTURAL_INVARIANTS:
            entry["structural"] = True
        self.invariants.append(entry)
        return entry["passed"]

    def emit_manifest(self, status="ok", failure=None):
        inventory = []
        for name in sorted(set(self.files)):
            full = os.path.join(self.out_dir, name)
            if os.path.exists(full):
                inventory.append({
                    "path": name,
                    "sha256": _sha256(full),
                    "bytes": os.path.getsize(full),
                })
        manifest = {
            "schema": "topobohm/manifest/1",
            "subcommand": self.subcommand,
            "config_digest": hashlib.sha256(
                canonical_config_bytes(self.cfg)).hexdigest(),
            "seed": self.seed,
            # orjson spells state.json's floats but is not listed: the
            # text it writes is repr's, and a new key would move the
            # digest of every manifest
            "versions": {
                "topobohm": __version__,
                "numpy": np.__version__,
            },
            "invariants": self.invariants,
            "outputs": inventory,
            "status": status,
            "failure": failure,
            "wall_time_s": round(time.monotonic() - self.started, 6),
        }
        write_json(os.path.join(self.out_dir, "manifest.json"), manifest)
        return manifest


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_evolve(scenario, ctx):
    nm = scenario.numerics
    dt = nm["dt"]
    n_steps = whole_steps(nm["t_final"], dt)
    every = nm["monitor_every"]
    state = scenario.initial_state()
    norm = norm0 = state.norm()
    rows = [(0, 0.0, f"{norm0:.15g}", 0.0)]
    done = 0
    max_drift = 0.0
    while done < n_steps:
        chunk = min(every, n_steps - done)
        state = evolve(state, scenario.potential, dt, chunk)
        done += chunk
        norm = state.norm()
        drift = abs(norm - norm0)
        max_drift = worse(max_drift, drift)
        rows.append((done, done * dt, f"{norm:.15g}", f"{drift:.3e}"))
    write_csv(ctx.path("monitor.csv"), ("step", "t", "norm", "norm_drift"), rows)
    write_json(ctx.path("state.json"), state_to_dict(state))
    ctx.check("norm-drift", max_drift, nm["max_norm_drift"])
    # no step changes the layout that fixes the twist (factor, sector angles,
    # sector basis), so the final state's residual stands for the whole run
    ctx.check("twist-preservation", state.twist_residual(),
              nm["max_twist_residual"])
    return {"steps": n_steps, "final_norm": norm,
            "step_path": state._split_step.path}


def cmd_spectrum(scenario, ctx):
    nm = scenario.numerics
    levels = spectrum(scenario.factor, scenario.potential,
                      n_levels=nm["n_levels"], n_points=scenario.n_points,
                      radius=scenario.space.radius)
    write_csv(ctx.path("spectrum.csv"), ("index", "energy"),
              [(i, f"{e:.12e}") for i, e in enumerate(levels)])
    return {"levels": [float(e) for e in levels]}


def cmd_trajectories(scenario, ctx):
    nm = scenario.numerics
    tc = scenario.cfg["trajectories"]
    header = ("trajectory", "t", *scenario.space.csv_columns, "status")
    bundle = integrate_trajectories(scenario.initial_state(),
                                    scenario.potential, tc["starts"],
                                    nm["transport_dt"], nm["t_final"],
                                    eps_node=nm["eps_node"],
                                    record_every=tc.get("record_every", 1))
    times = [f"{t:.9g}" for t in bundle.times.tolist()]
    # (M, S, d): each particle's records, one angle or winding per axis
    angles, windings = (np.moveaxis(a, 1, 0).reshape(len(bundle.status),
                                                     len(times), -1).tolist()
                        for a in (bundle.angles, bundle.windings))
    rows = [(i, t, *[f"{a:.12g}" for a in angle], *winding, status)
            for i, status in enumerate(bundle.status)
            for t, angle, winding in zip(times, angles[i], windings[i])]
    write_csv(ctx.path("trajectories.csv"), header, rows)
    return {"n_trajectories": len(tc["starts"])}


def cmd_equivariance(scenario, ctx):
    seed = scenario.seed
    ec = scenario.cfg["equivariance"]
    nm = scenario.numerics
    state = scenario.initial_state()
    report = verify_equivariance(
        state, scenario.potential, ec["n_samples"], nm["t_final"],
        ec["checkpoints"], seed, dt=nm["transport_dt"], bins=ec.get("bins", 64),
        velocity_factor=ec.get("velocity_factor", 1.0),
        eps_node=nm["eps_node"])
    # after the verification, which refuses a state that is not on a ring
    if ec.get("emit_samples", False):
        from .ensembles import sample_density
        samples = sample_density(state, ec["n_samples"], seed)
        write_csv(ctx.path("samples.csv"), ("angle",),
                  [(f"{x:.12g}",) for x in samples])
    write_json(ctx.path("equivariance.json"), report.to_dict())
    if not report.valid:
        raise PhysicsError("more than 1% of trajectories halted at nodes; "
                           "the scenario is not smooth enough to verify")
    worst = functools.reduce(worse, report.tv_values)
    ctx.check("equivariance-tv", worst, report.tv_threshold)
    return {"tv_values": report.tv_values, "threshold": report.tv_threshold}


def cmd_ab_compare(scenario, ctx):
    if scenario.cfg["factor"]["type"] != "flux":
        raise ConfigError("ab-compare compares the two gauges of a flux; this "
                          "scenario's factor is not a flux",
                          field_path="$.factor")
    flux, charge = flux_and_charge(scenario.cfg)
    nm = scenario.numerics
    dt = nm["dt"]
    t_final = nm["t_final"]
    n_steps = whole_steps(t_final, dt)

    # a flux factor's state is the flux gauge: its twist -e flux unreduced
    state_a = scenario.initial_state()
    state_t = gauge_map(state_a)

    # per-step commuting diagram: flux-step then map vs map then twisted-step
    diagram = 0.0
    sa, st = state_a, state_t
    for _ in range(10):
        sa = evolve(sa, scenario.potential, dt, 1)
        st = evolve(st, scenario.potential, dt, 1)
        diagram = worse(diagram, max_abs(gauge_map(sa).values - st.values))

    starts = np.linspace(0.0, TWO_PI, 5, endpoint=False)
    bundle_a = integrate_trajectories(state_a, scenario.potential, starts, dt,
                                      t_final, eps_node=nm["eps_node"])
    bundle_t = integrate_trajectories(state_t, scenario.potential, starts, dt,
                                      t_final, eps_node=nm["eps_node"])
    deviation = max_abs(bundle_a.positions - bundle_t.positions)

    beta = state_t.beta
    spec_args = dict(n_levels=nm["n_levels"], n_points=scenario.n_points,
                     radius=scenario.space.radius)
    spec_a = spectrum(scenario.factor, scenario.potential, **spec_args)
    spec_t = spectrum(Character.ring(beta), scenario.potential, **spec_args)
    spec_diff = float(np.max(np.abs(spec_a - spec_t)))

    report = {
        "flux": flux,
        "charge": charge,
        "twist_beta": beta,
        "max_trajectory_deviation": deviation,
        "spectrum_difference": spec_diff,
        "per_step_diagram_residual": diagram,
        "n_steps": n_steps,
    }
    write_json(ctx.path("ab_compare.json"), report)
    ctx.check("gauge-trajectory-deviation", deviation, 1e-6)
    ctx.check("gauge-spectrum-difference", spec_diff, 1e-10)
    ctx.check("gauge-diagram-residual", diagram, 1e-9)
    return report


def cmd_classify(scenario, ctx):
    factor = scenario.factor
    potential = scenario.potential
    compatible = factor_commutes(factor, potential)
    if potential.kind in ("zero", "scalar"):
        # a scalar field spans only the identity
        dim = 1 if isinstance(factor, Character) else factor.dim
        field = np.eye(dim)[None]
    else:
        field = potential.values
    verdict = classify_dynamics(factor, field, compatible)
    write_json(ctx.path("classification.json"), verdict.__dict__)
    if verdict.label == "incompatible":
        raise PhysicsError(
            "incompatible pair: the factor must commute with the potential at "
            "every configuration point; " + verdict.detail)
    return verdict.__dict__


def cmd_twisted_check(scenario, ctx):
    tw = scenario.cfg["twisted"]
    rng = np.random.default_rng(scenario.seed)
    w = tw["w_dim"]
    if "generators" in tw:
        # the table checks each generator's size; a ragged one stops here
        gens = [square_matrix(g, f"$.twisted.generators[{i}]")
                for i, g in enumerate(tw["generators"])]
    else:
        gens = [random_unitary(w, rng)
                for _ in range(tw.get("random_generators", 1))]
    table = TwistedRepTable.nfermion(tw["n_particles"], w, gens)
    ball = list(table.space.ball)
    report = {"residual": verify_twisted_law(table), "ball_radius": BALL_RADIUS,
              "ball_size": len(ball), "n_particles": tw["n_particles"], "w_dim": w}
    if tw.get("corrupt", False):
        # a negated entry in the ball breaks the law by at least 2 / sqrt(dim)
        sigma = ball[rng.integers(len(ball))]
        report["corrupted_residual"] = verify_twisted_law(
            table.corrupted(sigma, -table.factor(sigma)))
        report["corruption_detected"] = report["corrupted_residual"] >= 0.1
    write_json(ctx.path("twisted_check.json"), report)
    ctx.check("twisted-composition-law", report["residual"], 1e-12)
    if tw.get("corrupt", False):
        # the corrupted residual's shortfall below 0.1
        ctx.check("twisted-corruption-detected",
                  0.1 - report["corrupted_residual"], 0.0)
    return report


def cmd_grw(scenario, ctx):
    seed = scenario.seed
    gc = scenario.cfg["grw"]
    nm = scenario.numerics
    state = scenario.initial_state()
    # desk-scale defaults: rate 1, localization width 0.3 on circumference 2 pi
    result = simulate_grw(state, scenario.potential, nm["t_final"],
                          gc.get("lam", 1.0), gc.get("a", 0.3), seed,
                          dt=nm["dt"])
    write_csv(ctx.path("events.csv"),
              ("t", "x", "pre_norm", "post_norm"),
              [e.csv_row() for e in result.events])
    write_json(ctx.path("state.json"), state_to_dict(result.final_state))
    ctx.record("grw-twist-preservation", result.max_twist_residual,
               TWIST_PRESERVATION_TOL)
    return {"n_events": result.n_events,
            "total_rate": result.total_rate,
            "expected_events": result.total_rate * nm["t_final"],
            "max_twist_residual": result.max_twist_residual}


# what a subcommand reads beyond the schema's required keys: the seed, and
# its config block
SEEDED = frozenset({"equivariance", "twisted-check", "grw"})
BLOCKS = {"trajectories": "trajectories", "equivariance": "equivariance",
          "twisted-check": "twisted", "grw": "grw"}

COMMANDS = {
    "evolve": cmd_evolve,
    "spectrum": cmd_spectrum,
    "trajectories": cmd_trajectories,
    "equivariance": cmd_equivariance,
    "ab-compare": cmd_ab_compare,
    "classify": cmd_classify,
    "twisted-check": cmd_twisted_check,
    "grw": cmd_grw,
}


@functools.cache
def build_parser():
    """One flat parser: the subcommand is a positional choice and every
    option is shared."""
    parser = argparse.ArgumentParser(
        prog="topobohm",
        description="Bohmian dynamics with topological factors: batch runner")
    parser.add_argument("subcommand", choices=COMMANDS)
    parser.add_argument("--config", help="scenario JSON path")
    parser.add_argument("--out", help="output directory "
                                      f"(default ${DEFAULT_OUT_ENV} or ./out)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(DEFAULT_OUT_ENV) or "out"
    ctx = None
    parsed = False
    try:
        if not args.config:
            raise ConfigError(f"subcommand {args.subcommand!r} requires --config")
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: "
                              f"{exc.strerror or exc}") from exc
        except (ValueError, RecursionError) as exc:
            # bad JSON, bytes that are not UTF-8, or nesting too deep
            raise ConfigError(f"not valid JSON: {exc}") from exc
        parsed = True
        if args.seed is not None and isinstance(cfg, dict):
            cfg["seed"] = args.seed         # a list is refused at $ below
        scenario = Scenario(cfg)
        ctx = RunContext(out_dir, args.subcommand, cfg, scenario.seed)
        if args.subcommand in SEEDED and scenario.seed is None:
            raise ConfigError(
                "this subcommand is randomized and requires an explicit seed "
                "(config field 'seed' or flag --seed)", field_path="$.seed")
        block = BLOCKS.get(args.subcommand)
        if block is not None and block not in cfg:
            raise ConfigError(f"{args.subcommand} needs the config block "
                              f"{block!r}", field_path=f"$.{block}")
        result = COMMANDS[args.subcommand](scenario, ctx)
        ctx.emit_manifest(status="ok")
        print(json.dumps({"status": "ok", "subcommand": args.subcommand,
                          "out": out_dir, "summary": _summarize(result)},
                         sort_keys=True))
        return EXIT_OK
    except Exception as exc:
        family, code = next((family, code) for kind, family, code in FAILURES
                            if isinstance(exc, kind))
        field = getattr(exc, "field_path", None)
        failure = {"family": family, "message": str(exc)}
        if field:
            failure["field_path"] = field
        if family == "internal":
            # a fault of the program or its host, not of the scenario
            failure["message"] = f"{type(exc).__name__}: {exc}"
            failure["traceback"] = traceback.format_exc()
        if parsed:
            # a config refused before the run began gets its run directory
            # (no seed: nothing ran); a disk that cannot take the manifest
            # does not hide the failure itself
            with contextlib.suppress(OSError):
                ctx = ctx or RunContext(out_dir, args.subcommand, cfg, None)
                ctx.emit_manifest(status="failed", failure=failure)
        where = f" at {field}" if field else ""
        print(f"error[{family}]{where}: {failure['message']}", file=sys.stderr)
        return code


def _summarize(result):
    if not isinstance(result, dict):
        return result
    out = {}
    for key, value in result.items():
        if isinstance(value, (list, tuple)) and len(value) > 8:
            out[key] = f"[{len(value)} values]"
        else:
            out[key] = value
    return out


if __name__ == "__main__":
    sys.exit(main())
