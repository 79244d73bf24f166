"""Scenario-driven batch runner.

Subcommands: evolve, spectrum, trajectories, equivariance, ab-compare,
classify, twisted-check, grw.  Every run writes its artifacts plus a
manifest (config digest, seed, invariant residuals, file inventory); runs
are reproducible bit for bit from config + seed, wall time aside.

Exit codes partition failures: 0 success, 2 config/schema, 3 physics
incompatibility, 4 numerical tolerance breach, 5 internal error (any other
exception, such as an I/O error while writing or a bug).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import replace

import numpy as np

import jsonschema

from . import __version__
from .covering import TWO_PI
from .errors import ConfigError, PhysicsError, ToleranceError
from .factors import (
    Character,
    TwistedRepTable,
    classify_dynamics,
    random_unitary,
    verify_twisted_law,
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
from .collapse import simulate_grw
from .scenario import SCENARIO_SCHEMA_TAG, Scenario, canonical_config_bytes

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PHYSICS = 3
EXIT_NUMERICS = 4
EXIT_INTERNAL = 5

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
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


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


def validate_manifest(manifest):
    jsonschema.validate(manifest, MANIFEST_SCHEMA)


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
        entry = {
            "id": invariant_id,
            "residual": float(residual),
            "tolerance": None if tolerance is None else float(tolerance),
            "passed": True if tolerance is None else bool(residual <= tolerance),
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
    rows = [(0, 0.0, f"{norm0:.15g}", 0.0, f"{state.twist_residual():.3e}")]
    done = 0
    max_drift = 0.0
    max_twist = 0.0
    while done < n_steps:
        chunk = min(every, n_steps - done)
        state = evolve(state, scenario.potential, dt, chunk)
        done += chunk
        norm = state.norm()
        drift = abs(norm - norm0)
        twist = state.twist_residual()
        max_drift = max(max_drift, drift)
        max_twist = max(max_twist, twist)
        rows.append((done, done * dt, f"{norm:.15g}",
                     f"{drift:.3e}", f"{twist:.3e}"))
    write_csv(ctx.path("monitor.csv"),
              ("step", "t", "norm", "norm_drift", "twist_residual"), rows)
    write_json(ctx.path("state.json"), state_to_dict(state))
    ctx.check("norm-drift", max_drift, nm["max_norm_drift"])
    ctx.check("twist-preservation", max_twist, nm["max_twist_residual"])
    return {"steps": n_steps, "final_norm": norm}


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
    tc = scenario.cfg.get("trajectories")
    if tc is None:
        raise ConfigError("trajectories subcommand needs a 'trajectories' "
                          "config block", field_path="$.trajectories")
    dt = nm.get("transport_dt", nm["dt"])
    state = scenario.initial_state()
    rows = []
    header = ("trajectory", "t", "angle", "winding", "status") \
        if scenario.space.kind == "ring" else \
        ("trajectory", "t", "angle1", "angle2", "winding1", "winding2", "status")
    bundle = integrate_trajectories(state, scenario.potential, tc["starts"],
                                    dt, nm["t_final"], eps_node=nm["eps_node"],
                                    record_every=tc.get("record_every", 1))
    for i, traj in enumerate(bundle):
        for row in traj.csv_rows():
            rows.append((i,) + row)
    write_csv(ctx.path("trajectories.csv"), header, rows)
    return {"n_trajectories": len(tc["starts"])}


def cmd_equivariance(scenario, ctx):
    seed = scenario.require_seed()
    ec = scenario.cfg.get("equivariance")
    if ec is None:
        raise ConfigError("equivariance subcommand needs an 'equivariance' "
                          "config block", field_path="$.equivariance")
    nm = scenario.numerics
    dt = nm.get("transport_dt", nm["dt"])
    state = scenario.initial_state()
    if ec.get("emit_samples", False):
        from .ensembles import sample_density
        samples = sample_density(state, ec["n_samples"], seed)
        write_csv(ctx.path("samples.csv"), ("angle",),
                  [(f"{x:.12g}",) for x in samples])
    report = verify_equivariance(
        state, scenario.potential, ec["n_samples"], nm["t_final"],
        ec["checkpoints"], seed, dt=dt, bins=ec.get("bins", 64),
        velocity_factor=ec.get("velocity_factor", 1.0))
    write_json(ctx.path("equivariance.json"), report.to_dict())
    if not report.valid:
        raise PhysicsError("more than 1% of trajectories halted at nodes; "
                           "the scenario is not smooth enough to verify")
    worst = max(report.tv_values)
    ctx.check("equivariance-tv", worst, report.tv_threshold)
    return {"tv_values": report.tv_values, "threshold": report.tv_threshold}


def cmd_ab_compare(scenario, ctx):
    cmp_cfg = scenario.cfg.get("compare", {})
    flux = cmp_cfg.get("flux", math.pi)
    charge = cmp_cfg.get("charge", 1.0)
    traj_tol = cmp_cfg.get("trajectory_tolerance", 1e-6)
    spec_tol = cmp_cfg.get("spectrum_tolerance", 1e-10)
    nm = scenario.numerics
    dt = nm["dt"]
    t_final = nm["t_final"]
    n_steps = whole_steps(t_final, dt)

    untwisted = scenario.initial_state()
    if abs(math.remainder(untwisted.beta, TWO_PI)) > 1e-12:
        raise PhysicsError(
            "ab-compare threads the flux through untwisted scenario data; "
            "got a twisted state")
    # the flux gauge is the same data under the unreduced twist -e flux
    flux_twist = Character.ring(-charge * flux)
    state_a = replace(untwisted, twist=flux_twist,
                      sector_betas=np.array([flux_twist.beta]))
    state_t = gauge_map(state_a)

    # per-step commuting diagram: flux-step then map vs map then twisted-step
    diagram = 0.0
    sa, st = state_a, state_t
    for _ in range(10):
        sa = evolve(sa, scenario.potential, dt, 1)
        st = evolve(st, scenario.potential, dt, 1)
        mapped = gauge_map(sa)
        diagram = max(diagram, float(np.max(np.abs(mapped.values - st.values))))

    starts = np.linspace(0.0, TWO_PI, 5, endpoint=False)
    deviation = 0.0
    bundle_a = integrate_trajectories(state_a, scenario.potential, starts, dt,
                                      t_final)
    bundle_t = integrate_trajectories(state_t, scenario.potential, starts, dt,
                                      t_final)
    for traj_a, traj_t in zip(bundle_a, bundle_t):
        deviation = max(deviation, float(np.max(np.abs(
            traj_a.unwrapped - traj_t.unwrapped))))

    beta = state_t.beta
    spec_args = dict(n_levels=nm["n_levels"], n_points=scenario.n_points,
                     radius=scenario.space.radius)
    spec_a = spectrum(flux_twist, scenario.potential, **spec_args)
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
    ctx.check("gauge-trajectory-deviation", deviation, traj_tol)
    ctx.check("gauge-spectrum-difference", spec_diff, spec_tol)
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
    if verdict.label == "incompatible":
        write_json(ctx.path("classification.json"), verdict.__dict__)
        raise PhysicsError(
            "incompatible pair: the factor must commute with the potential at "
            "every configuration point; " + verdict.detail)
    write_json(ctx.path("classification.json"), verdict.__dict__)
    return verdict.__dict__


def cmd_twisted_check(scenario, ctx):
    tw = scenario.cfg.get("twisted")
    if tw is None:
        raise ConfigError("twisted-check needs a 'twisted' config block",
                          field_path="$.twisted")
    seed = scenario.require_seed()
    rng = np.random.default_rng(seed)
    if "generators" in tw:
        gens = [np.array([[complex(re, im) for re, im in row] for row in g])
                for g in tw["generators"]]
    else:
        gens = [random_unitary(tw["w_dim"], rng)
                for _ in range(tw.get("random_generators", 1))]
    table = TwistedRepTable.nfermion(tw["n_particles"], tw["w_dim"], gens)
    samples = tw.get("samples", 1000)
    residual = verify_twisted_law(table, samples=samples, seed=seed)
    report = {"residual": residual, "samples": samples,
              "n_particles": tw["n_particles"], "w_dim": tw["w_dim"]}
    if tw.get("corrupt", False):
        sigma = table.space.random_deck(np.random.default_rng(seed + 1))
        bad = table.corrupted(sigma, np.eye(table.dim) * 1j)
        report["corrupted_residual"] = verify_twisted_law(bad, samples=samples,
                                                          seed=seed)
        report["corruption_detected"] = report["corrupted_residual"] > 0.1
    write_json(ctx.path("twisted_check.json"), report)
    ctx.check("twisted-composition-law", residual, 1e-12)
    return report


def cmd_grw(scenario, ctx):
    seed = scenario.require_seed()
    gc = scenario.cfg.get("grw")
    if gc is None:
        raise ConfigError("grw subcommand needs a 'grw' config block",
                          field_path="$.grw")
    nm = scenario.numerics
    state = scenario.initial_state()
    # desk-scale defaults: rate 1, localization width 0.3 on circumference 2 pi
    result = simulate_grw(state, scenario.potential, nm["t_final"],
                          gc.get("lam", 1.0), gc.get("a", 0.3), seed,
                          dt=nm["dt"],
                          allow_aperiodic=gc.get("allow_aperiodic", False))
    write_csv(ctx.path("events.csv"),
              ("t", "x", "pre_norm", "post_norm", "label"),
              [e.csv_row() for e in result.events])
    write_json(ctx.path("state.json"), state_to_dict(result.final_state))
    ctx.record("grw-twist-preservation", result.max_twist_residual, 1e-9)
    return {"n_events": result.n_events,
            "total_rate": result.total_rate,
            "expected_events": result.total_rate * nm["t_final"],
            "max_twist_residual": result.max_twist_residual}


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

_DEFAULT_CONFIGS = {
    "spectrum": {
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "ring", "n_points": 256},
        "factor": {"type": "character", "beta": 0.0},
        "potential": {"type": "zero"},
    },
    "ab-compare": {
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "ring", "n_points": 256},
        "factor": {"type": "character", "beta": 0.0},
        "potential": {"type": "zero"},
        "initial_state": {"type": "gaussian", "center": 3.0, "width": 0.6,
                          "momentum": 1.0},
        "compare": {},
    },
}


def build_parser():
    """One flat parser: the subcommand is a positional choice and every
    option is shared; ``main`` refuses ``--allow-aperiodic`` outside grw."""
    parser = argparse.ArgumentParser(
        prog="topobohm",
        description="Bohmian dynamics with topological factors: batch runner")
    parser.add_argument("subcommand", choices=COMMANDS)
    parser.add_argument("--config", help="scenario JSON path")
    parser.add_argument("--out", help="output directory "
                                      f"(default ${DEFAULT_OUT_ENV} or ./out)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--beta", type=float,
                        help="override character twist angle")
    parser.add_argument("--flux", type=float, help="override flux")
    parser.add_argument("--charge", type=float, help="override charge")
    parser.add_argument("--t-final", type=float, dest="t_final")
    parser.add_argument("--dt", type=float)
    parser.add_argument("--n-levels", type=int, dest="n_levels")
    parser.add_argument("--allow-aperiodic", action="store_true",
                        help="grw only: do not fail on a twist residual")
    return parser


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.beta is not None:
        cfg["factor"] = {"type": "character", "beta": args.beta}
    if args.flux is not None:
        if args.subcommand == "ab-compare":
            cfg.setdefault("compare", {})["flux"] = args.flux
        else:
            cfg["factor"] = {"type": "flux", "flux": args.flux, "charge": 1.0}
    if args.charge is not None and args.subcommand == "ab-compare":
        cfg.setdefault("compare", {})["charge"] = args.charge
    elif args.charge is not None:
        factor = cfg.get("factor")
        if not isinstance(factor, dict) or factor.get("type") != "flux":
            raise ConfigError("--charge needs a flux factor; this scenario's "
                              "factor is not a flux", field_path="$.factor")
        factor["charge"] = args.charge
    if args.t_final is not None:
        cfg.setdefault("numerics", {})["t_final"] = args.t_final
    if args.dt is not None:
        cfg.setdefault("numerics", {})["dt"] = args.dt
    if args.n_levels is not None:
        cfg.setdefault("numerics", {})["n_levels"] = args.n_levels
    if args.allow_aperiodic:
        cfg.setdefault("grw", {}).setdefault("lam", 1.0)
        cfg["grw"]["allow_aperiodic"] = True
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.allow_aperiodic and args.subcommand != "grw":
        parser.error("--allow-aperiodic applies to the grw subcommand only")
    out_dir = args.out or os.environ.get(DEFAULT_OUT_ENV) or "out"
    ctx = None
    try:
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    cfg = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read {args.config}: "
                                  f"{exc.strerror or exc}") from exc
        elif args.subcommand in _DEFAULT_CONFIGS:
            cfg = json.loads(json.dumps(_DEFAULT_CONFIGS[args.subcommand]))
        else:
            raise ConfigError(f"subcommand {args.subcommand!r} requires --config")
        cfg = _apply_overrides(cfg, args)
        scenario = Scenario(cfg)
        ctx = RunContext(out_dir, args.subcommand, cfg, scenario.seed)
        result = COMMANDS[args.subcommand](scenario, ctx)
        manifest = ctx.emit_manifest(status="ok")
        print(json.dumps({"status": "ok", "subcommand": args.subcommand,
                          "out": out_dir, "summary": _summarize(result)},
                         sort_keys=True))
        return EXIT_OK
    except json.JSONDecodeError as exc:
        print(f"error[config]: not valid JSON: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ConfigError, jsonschema.ValidationError) as exc:
        _emit_failure(ctx, "config", exc)
        field = getattr(exc, "field_path", None)
        where = f" at {field}" if field else ""
        print(f"error[config]{where}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except PhysicsError as exc:
        _emit_failure(ctx, "physics", exc)
        print(f"error[physics]: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except ToleranceError as exc:
        _emit_failure(ctx, "numerics", exc)
        print(f"error[numerics]: invariant '{exc.invariant}': {exc}",
              file=sys.stderr)
        return EXIT_NUMERICS
    except Exception as exc:
        # anything else is a fault of the program or its host, not of the
        # scenario: it still ends in a documented code and a manifest
        message = f"{type(exc).__name__}: {exc}"
        with contextlib.suppress(OSError):  # the failure may be the disk's
            _emit_failure(ctx, "internal", message, traceback.format_exc())
        print(f"error[internal]: {message}", file=sys.stderr)
        return EXIT_INTERNAL


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


def _emit_failure(ctx, family, exc, trace=None):
    if ctx is not None:
        failure = {"family": family, "message": str(exc)}
        if trace is not None:
            failure["traceback"] = trace
        ctx.emit_manifest(status="failed", failure=failure)


if __name__ == "__main__":
    sys.exit(main())
