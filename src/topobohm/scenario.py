"""Scenario configs: schema validation and construction of run objects.

A scenario is a fully serialized run description: covering space, factor,
potential, initial state, numerics, seed, and requested outputs.  All
physical quantities are dimensionless (hbar = mass = charge = 1 unless
overridden by the factor's charge field).  Randomized subcommands must
carry an explicit seed; nothing in a run draws implicit entropy.
"""

from __future__ import annotations

import json
import math

import jsonschema
import numpy as np

from .covering import CoveringSpace
from .errors import ConfigError
from .factors import Character, MatrixRep
from .propagation import (
    DEFAULT_N_POINTS,
    Potential,
    angle_grid,
    complex_matrix_from_pairs,
    make_eigenstate,
    make_gaussian_state,
    pair_eigenstate,
    symmetrized_product_state,
    twist_embed,
    wrapped_gaussian,
)

SCENARIO_SCHEMA_TAG = "topobohm/scenario/1"

# a complex number as (re, im), or a pair of angles or momenta
_PAIR = {
    "type": "array", "items": {"type": "number"},
    "minItems": 2, "maxItems": 2,
}
_COMPLEX_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": _PAIR, "minItems": 1},
    "minItems": 1,
}


def _starts_of(item):
    return {"properties": {"trajectories": {"properties": {
        "starts": {"items": item}}}}}


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "space", "factor"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCENARIO_SCHEMA_TAG},
        "seed": {"type": "integer", "minimum": 0},
        "space": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["ring", "two_particle_ring"]},
                "n_points": {"type": "integer", "minimum": 4},
                "radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "factor": {
            "type": "object",
            "required": ["type"],
            "additionalProperties": False,
            "properties": {
                "type": {"enum": ["character", "flux", "exchange", "matrix",
                                  "spin_exp"]},
                "beta": {"type": "number"},
                "flux": {"type": "number"},
                "charge": {"type": "number"},
                "sign": {"enum": [1, -1]},
                "generator": _COMPLEX_MATRIX,
                "angle": {"type": "number"},
                "axis": {"type": "array", "items": {"type": "number"},
                         "minItems": 3, "maxItems": 3},
            },
        },
        "potential": {
            "type": "object",
            "required": ["type"],
            "additionalProperties": False,
            "properties": {
                "type": {"enum": ["zero", "trig", "tabulated", "matrix_const",
                                  "covariant_const", "pair_onebody",
                                  "pair_interaction"]},
                "terms": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["amplitude", "harmonic"],
                        "additionalProperties": False,
                        "properties": {
                            "amplitude": {"type": "number"},
                            "harmonic": {"type": "integer"},
                            "phase": {"type": "number"},
                        },
                    },
                },
                "values": {"type": "array", "items": {"type": "number"}},
                "matrix": _COMPLEX_MATRIX,
            },
        },
        "initial_state": {
            "type": "object",
            "required": ["type"],
            "additionalProperties": False,
            "properties": {
                "type": {"enum": ["eigenstate", "gaussian", "spinor_gaussian",
                                  "pair_eigenstate", "pair_gaussian"]},
                "n": {"type": "integer"},
                "center": {"type": "number"},
                "width": {"type": "number", "exclusiveMinimum": 0},
                "momentum": {"type": "number"},
                "amplitudes": {"type": "array", "items": _PAIR},
                "n1": {"type": "integer"},
                "n2": {"type": "integer"},
                "centers": _PAIR,
                "momenta": _PAIR,
            },
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "t_final": {"type": "number", "exclusiveMinimum": 0},
                "eps_node": {"type": "number", "exclusiveMinimum": 0},
                "n_levels": {"type": "integer", "minimum": 1},
                "max_norm_drift": {"type": "number", "minimum": 0},
                "max_twist_residual": {"type": "number", "minimum": 0},
                "monitor_every": {"type": "integer", "minimum": 1},
                "transport_dt": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "trajectories": {
            "type": "object",
            "required": ["starts"],
            "additionalProperties": False,
            "properties": {
                "starts": {"type": "array", "minItems": 1},
                "record_every": {"type": "integer", "minimum": 1},
            },
        },
        "equivariance": {
            "type": "object",
            "required": ["n_samples", "checkpoints"],
            "additionalProperties": False,
            "properties": {
                "n_samples": {"type": "integer", "minimum": 1000},
                "checkpoints": {"type": "array",
                                "items": {"type": "number"}, "minItems": 1},
                "bins": {"type": "integer", "minimum": 2},
                "velocity_factor": {"type": "number"},
                "emit_samples": {"type": "boolean"},
            },
        },
        "grw": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lam": {"type": "number", "minimum": 0},
                "a": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "twisted": {
            "type": "object",
            "required": ["n_particles", "w_dim"],
            "additionalProperties": False,
            "properties": {
                "n_particles": {"type": "integer", "minimum": 1, "maximum": 3},
                "w_dim": {"type": "integer", "minimum": 1, "maximum": 3},
                "generators": {"type": "array", "items": _COMPLEX_MATRIX,
                               "minItems": 1},
                "random_generators": {"type": "integer", "minimum": 1},
                "samples": {"type": "integer", "minimum": 1},
                "corrupt": {"type": "boolean"},
            },
        },
    },
    # a ring start is an angle, a two-particle start a pair of angles
    "if": {"properties": {"space": {"properties": {
        "kind": {"const": "two_particle_ring"}}}}},
    "then": _starts_of(_PAIR),
    "else": _starts_of({"type": "number"}),
}

_VALIDATOR = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)

NUMERICS_DEFAULTS = {
    "dt": 1e-3,
    "t_final": 1.0,
    "eps_node": 1e-12,
    "n_levels": 8,
    "max_norm_drift": 1e-7,
    "max_twist_residual": 1e-9,
    "monitor_every": 100,
}


def _non_finite_keys(value):
    """The keys down to the first NaN or infinity in a config, innermost
    first, or None.  ``json.load`` reads the ``NaN`` and ``Infinity``
    literals, and the schema's ``number`` admits them."""
    if isinstance(value, float):
        return None if math.isfinite(value) else []
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        keys = _non_finite_keys(item)
        if keys is not None:
            keys.append(key)
            return keys
    return None


def validate_scenario(cfg):
    errors = sorted(_VALIDATOR.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        err = errors[0]
        raise ConfigError(f"config violates the scenario schema at "
                          f"{err.json_path}: {err.message}",
                          field_path=err.json_path)
    keys = _non_finite_keys(cfg)
    if keys is not None:
        where = "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                              for key in reversed(keys))
        raise ConfigError(f"config holds a non-finite number at {where}",
                          field_path=where)


def canonical_config_bytes(cfg):
    return json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def spin_exponential(angle, axis):
    """exp(-i angle (e . sigma)) for the unit 3-vector e along ``axis``
    (2x2 unitary); an axis of zero or non-finite length has no direction."""
    e = np.asarray(axis, dtype=float)
    largest = np.max(np.abs(e))
    if not (largest > 0 and math.isfinite(largest)):
        raise ConfigError(f"spin axis {list(axis)} has no direction: its "
                          f"largest component is {largest}",
                          field_path="$.factor.axis")
    # an axis whose squares would overflow or underflow is first scaled by
    # its largest component; every other axis keeps the plain norm's bits
    if not 1e-150 <= largest <= 1e150:
        e = e / largest
    e = e / np.linalg.norm(e)
    e_sigma = e[0] * PAULI["x"] + e[1] * PAULI["y"] + e[2] * PAULI["z"]
    return math.cos(angle) * np.eye(2) - 1j * math.sin(angle) * e_sigma


def _square_matrix(rows, where):
    """A scenario's complex matrix from its rows of (re, im) pairs, refused
    at its JSON path ``where`` unless every row has one entry per row."""
    if any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"a matrix of {len(rows)} rows needs {len(rows)} "
                          f"entries in every row", field_path=where)
    return complex_matrix_from_pairs(rows)


def build_space(cfg):
    sp = cfg.get("space", {})
    kind = sp.get("kind", "ring")
    radius = sp.get("radius", 1.0)
    if kind == "ring":
        return CoveringSpace.ring(radius=radius)
    return CoveringSpace.two_particle_ring(radius=radius)


def flux_and_charge(cfg):
    """The (flux, charge) of a scenario's ``flux`` factor, defaults filled."""
    fc = cfg["factor"]
    return fc.get("flux", 0.0), fc.get("charge", 1.0)


def build_factor(cfg):
    """Returns a Character or a MatrixRep.

    A ``flux`` factor is the ring character exp(-i e flux) with its angle
    -e flux left unreduced: the twisted storage then evolves with the
    flux-gauge kinetic term (n - e flux / 2 pi)^2 / 2.
    """
    fc = cfg["factor"]
    kind = fc["type"]
    if kind == "character":
        return Character.ring(fc.get("beta", 0.0))
    if kind == "flux":
        flux, charge = flux_and_charge(cfg)
        return Character.ring(-charge * flux)
    if kind == "exchange":
        return Character.exchange(2, fc.get("sign", 1))
    if kind == "matrix":
        return MatrixRep.ring(_square_matrix(fc["generator"],
                                             "$.factor.generator"))
    if kind == "spin_exp":
        return MatrixRep.ring(spin_exponential(fc.get("angle", 0.0),
                                               fc.get("axis", [0, 0, 1])))
    raise ConfigError(f"unknown factor type {kind!r}")


def _trig_values(terms, theta):
    v = np.zeros_like(theta)
    for term in terms:
        v += term["amplitude"] * np.cos(term["harmonic"] * theta
                                        + term.get("phase", 0.0))
    return v


def build_potential(cfg, n_points):
    pc = cfg.get("potential", {"type": "zero"})
    kind = pc["type"]
    theta = angle_grid(n_points)
    if kind == "zero":
        return Potential.zero()
    if kind == "trig":
        return Potential.scalar(_trig_values(pc.get("terms", []), theta),
                                label="trig")
    if kind == "tabulated":
        values = np.asarray(pc["values"], dtype=float)
        if values.shape != (n_points,):
            raise ConfigError(
                f"tabulated potential needs {n_points} values, got {values.shape}")
        return Potential.scalar(values, label="tabulated")
    if kind == "matrix_const":
        return Potential.matrix_constant(
            _square_matrix(pc["matrix"], "$.potential.matrix"), n_points)
    if kind == "covariant_const":
        m = _square_matrix(pc["matrix"], "$.potential.matrix")
        return Potential.covariant(np.broadcast_to(m, (n_points,) + m.shape))
    if kind == "pair_onebody":
        one = _trig_values(pc.get("terms", []), theta)
        return Potential.scalar(one[:, None] + one[None, :], label="pair-onebody")
    if kind == "pair_interaction":
        delta = theta[:, None] - theta[None, :]
        return Potential.scalar(_trig_values(pc.get("terms", []), delta),
                                label="pair-interaction")
    raise ConfigError(f"unknown potential type {kind!r}")


def build_initial_state(cfg, space, factor, n_points):
    ic = cfg.get("initial_state", {"type": "eigenstate", "n": 0})
    kind = ic["type"]
    if space.kind == "two_particle_ring":
        if not isinstance(factor, Character) or factor.group_id[0] != "sym":
            raise ConfigError("two-particle scenarios need an exchange factor")
        sign = factor.sign
        if kind == "pair_eigenstate":
            return pair_eigenstate(ic.get("n1", 0), ic.get("n2", 1), sign,
                                   n_points, space)
        if kind == "pair_gaussian":
            c1, c2 = ic.get("centers", [2.0, 4.5])
            width = ic.get("width", 0.5)
            k1, k2 = ic.get("momenta", [0.0, 0.0])
            return symmetrized_product_state(
                lambda t: wrapped_gaussian(t, c1, width, k1),
                lambda t: wrapped_gaussian(t, c2, width, k2),
                sign, n_points, space)
        raise ConfigError(
            f"a two-particle space needs a pair initial state, got {kind!r}")
    if kind == "eigenstate":
        return make_eigenstate(ic.get("n", 0), factor, n_points, space)
    if kind == "gaussian":
        return make_gaussian_state(factor, ic.get("center", math.pi),
                                   ic.get("width", 0.5),
                                   ic.get("momentum", 0.0), n_points, space)
    if kind == "spinor_gaussian":
        if not isinstance(factor, MatrixRep):
            raise ConfigError("spinor initial state needs a matrix factor")
        amps = np.array([complex(re, im) for re, im in ic["amplitudes"]])
        if len(amps) != factor.dim:
            raise ConfigError("amplitude count must match the factor dimension")
        profile = wrapped_gaussian(angle_grid(n_points),
                                   ic.get("center", math.pi),
                                   ic.get("width", 0.5), ic.get("momentum", 0.0))
        data = amps[:, None] * profile[None, :]
        return twist_embed(data, factor, space=space)
    if kind.startswith("pair"):
        raise ConfigError(f"initial state {kind!r} needs a two-particle space")
    raise ConfigError(f"unknown initial state type {kind!r}")


def numerics(cfg):
    out = dict(NUMERICS_DEFAULTS)
    out.update(cfg.get("numerics", {}))
    return out


class Scenario:
    """Bundle of validated config plus the constructed run objects."""

    def __init__(self, cfg):
        validate_scenario(cfg)
        self.cfg = cfg
        self.space = build_space(cfg)
        self.factor = build_factor(cfg)
        self.n_points = cfg.get("space", {}).get("n_points", DEFAULT_N_POINTS)
        self.potential = build_potential(cfg, self.n_points)
        self.numerics = numerics(cfg)
        self.seed = cfg.get("seed")

    def initial_state(self):
        return build_initial_state(self.cfg, self.space, self.factor,
                                   self.n_points)

    def require_seed(self):
        if self.seed is None:
            raise ConfigError(
                "this subcommand is randomized and requires an explicit seed "
                "(config field 'seed' or flag --seed)", field_path="$.seed")
        return self.seed
