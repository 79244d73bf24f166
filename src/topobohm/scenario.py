"""Scenario configs: schema validation and construction of run objects.

A scenario is a fully serialized run description: covering space, factor,
potential, initial state, numerics, seed, and requested outputs.  All
physical quantities are dimensionless (hbar = mass = charge = 1 unless
overridden by the factor's charge field).  Randomized subcommands must
carry an explicit seed; nothing in a run draws implicit entropy.

``SCENARIO_SCHEMA`` is a JSON Schema 2020-12 document and the one statement
of what a config may hold.  Each type of factor, potential and initial
state takes only the keys its builder reads.  ``validate_scenario`` checks
a config with ``_schema_errors``, a walker over the keywords that schema
uses, and reports the first error path in sorted order; the tests hold the
walker to jsonschema, which the package itself does not import.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

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
from .spaces import GRID_SPACES, grid_space

SCENARIO_SCHEMA_TAG = "topobohm/scenario/1"

_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}
# a complex number as (re, im), or a pair of angles or momenta
_PAIR = {
    "type": "array", "items": _NUMBER,
    "minItems": 2, "maxItems": 2,
}
_COMPLEX_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": _PAIR, "minItems": 1},
    "minItems": 1,
}
_TERMS = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["amplitude", "harmonic"],
        "additionalProperties": False,
        "properties": {
            "amplitude": _NUMBER,
            "harmonic": _INTEGER,
            "phase": _NUMBER,
        },
    },
}
_WIDTH = {"type": "number", "exclusiveMinimum": 0}
# a wave packet's centre, width and momentum on the ring
_PACKET = {"center": _NUMBER, "width": _WIDTH, "momentum": _NUMBER}


def _starts_of(item):
    return {"properties": {"trajectories": {"properties": {
        "starts": {"items": item}}}}}


def _typed(branches, required):
    """A block whose ``type`` picks one of ``branches`` and that takes only
    that type's keys.  ``branches`` maps each type to its keys' schemas,
    ``required`` a type to the keys it cannot run without."""
    def then(kind):
        out = {"properties": {"type": {}, **branches[kind]},
               "additionalProperties": False}
        if kind in required:
            out["required"] = required[kind]
        return out
    return {
        "type": "object",
        "required": ["type"],
        "properties": {"type": {"enum": list(branches)}},
        "allOf": [{"if": {"required": ["type"],
                          "properties": {"type": {"const": kind}}},
                   "then": then(kind)} for kind in branches],
    }


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
                "kind": {"enum": list(GRID_SPACES)},
                "n_points": {"type": "integer", "minimum": 4},
                "radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "factor": _typed({
            "character": {"beta": _NUMBER},
            "flux": {"flux": _NUMBER, "charge": _NUMBER},
            "exchange": {"sign": {"enum": [1, -1]}},
            "matrix": {"generator": _COMPLEX_MATRIX},
            "spin_exp": {"angle": _NUMBER,
                         "axis": {"type": "array", "items": _NUMBER,
                                  "minItems": 3, "maxItems": 3}},
        }, required={"matrix": ["generator"]}),
        "potential": _typed({
            "zero": {},
            "trig": {"terms": _TERMS},
            "tabulated": {"values": {"type": "array", "items": _NUMBER}},
            "matrix_const": {"matrix": _COMPLEX_MATRIX},
            "covariant_const": {"matrix": _COMPLEX_MATRIX},
            "pair_onebody": {"terms": _TERMS},
            "pair_interaction": {"terms": _TERMS},
        }, required={"tabulated": ["values"], "matrix_const": ["matrix"],
                     "covariant_const": ["matrix"]}),
        "initial_state": _typed({
            "eigenstate": {"n": _INTEGER},
            "gaussian": _PACKET,
            "spinor_gaussian": {"amplitudes": {"type": "array",
                                               "items": _PAIR},
                                **_PACKET},
            "pair_eigenstate": {"n1": _INTEGER, "n2": _INTEGER},
            "pair_gaussian": {"centers": _PAIR, "width": _WIDTH,
                              "momenta": _PAIR},
        }, required={"spinor_gaussian": ["amplitudes"]}),
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


def _is_type(value, kind):
    """JSON Schema's types: a bool is no number, and a float with no
    fractional part is an integer."""
    if kind == "object":
        return isinstance(value, dict)
    if kind == "array":
        return isinstance(value, list)
    if kind == "boolean":
        return isinstance(value, bool)
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        return False
    return kind == "number" or isinstance(value, int) or (
        isinstance(value, float) and value.is_integer())


def _equal(a, b):
    """JSON equality of ``const`` and ``enum`` scalars: True is not 1."""
    return (isinstance(a, bool) == isinstance(b, bool)) and a == b


def _schema_errors(value, schema, path="$", out=None):
    """The (json_path, message) pairs for each way ``value`` breaks
    ``schema``, appended to ``out`` and returned.

    Reads the JSON Schema 2020-12 keywords SCENARIO_SCHEMA uses as
    jsonschema does.  A type error ends the descent at its node, and a
    bound fails only on a number strictly past it, so NaN passes here and
    ``_non_finite_keys`` refuses it."""
    out = [] if out is None else out
    kind = schema.get("type")
    if kind is not None and not _is_type(value, kind):
        out.append((path, f"{value!r} is not of type {kind!r}"))
        return out
    if "const" in schema and not _equal(value, schema["const"]):
        out.append((path, f"{schema['const']!r} was expected"))
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        out.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                out.append((path, f"{key!r} is a required property"))
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                _schema_errors(value[key], sub, f"{path}.{key}", out)
        extra = [key for key in value if key not in properties]
        if extra and schema.get("additionalProperties", True) is False:
            out.append((path, f"additional properties are not allowed "
                              f"({', '.join(map(repr, extra))} "
                              f"{'was' if len(extra) == 1 else 'were'} "
                              f"unexpected)"))
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            out.append((path, f"{value!r} should have at least "
                              f"{schema['minItems']} items"))
        if len(value) > schema.get("maxItems", len(value)):
            out.append((path, f"{value!r} should have at most "
                              f"{schema['maxItems']} items"))
        if "items" in schema:
            for index, item in enumerate(value):
                _schema_errors(item, schema["items"], f"{path}[{index}]", out)
    elif _is_type(value, "number"):
        if value < schema.get("minimum", value):
            out.append((path, f"{value!r} is less than the minimum of "
                              f"{schema['minimum']!r}"))
        above = schema.get("exclusiveMinimum")
        if above is not None and value <= above:
            out.append((path, f"{value!r} is less than or equal to the "
                              f"minimum of {above!r}"))
        if value > schema.get("maximum", value):
            out.append((path, f"{value!r} is greater than the maximum of "
                              f"{schema['maximum']!r}"))
    for sub in schema.get("allOf", ()):
        _schema_errors(value, sub, path, out)
    if "if" in schema:
        failed = _schema_errors(value, schema["if"], path)
        branch = schema.get("else" if failed else "then")
        if branch is not None:
            _schema_errors(value, branch, path, out)
    return out


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
    errors = _schema_errors(cfg, SCENARIO_SCHEMA)
    if errors:
        where, message = min(errors, key=lambda error: error[0])
        raise ConfigError(f"config violates the scenario schema: {message}",
                          field_path=where)
    keys = _non_finite_keys(cfg)
    if keys is not None:
        where = "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                              for key in reversed(keys))
        raise ConfigError("config holds a non-finite number", field_path=where)


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


def square_matrix(rows, where):
    """A scenario's complex matrix from its rows of (re, im) pairs, refused
    at its JSON path ``where`` unless every row has one entry per row."""
    if any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"a matrix of {len(rows)} rows needs {len(rows)} "
                          f"entries in every row", field_path=where)
    return complex_matrix_from_pairs(rows)


def build_space(cfg):
    sp = cfg.get("space", {})
    return grid_space(sp.get("kind", "ring"), radius=sp.get("radius", 1.0))


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
        return MatrixRep.ring(square_matrix(fc["generator"],
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
                f"tabulated potential needs {n_points} values, got {values.shape}",
                field_path="$.potential.values")
        return Potential.scalar(values, label="tabulated")
    if kind == "matrix_const":
        return Potential.matrix_constant(
            square_matrix(pc["matrix"], "$.potential.matrix"), n_points)
    if kind == "covariant_const":
        m = square_matrix(pc["matrix"], "$.potential.matrix")
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
    if kind not in space.initial_states:
        raise ConfigError(f"initial state {kind!r} does not fit a "
                          f"{space.kind} space", field_path="$.initial_state.type")
    if space.dims > 1 and not (isinstance(factor, Character)
                               and factor.group_id[0] == "sym"):
        raise ConfigError("two-particle scenarios need an exchange factor",
                          field_path="$.factor.type")
    if kind == "pair_eigenstate":
        return pair_eigenstate(ic.get("n1", 0), ic.get("n2", 1), factor.sign,
                               n_points, space)
    if kind == "pair_gaussian":
        c1, c2 = ic.get("centers", [2.0, 4.5])
        width = ic.get("width", 0.5)
        k1, k2 = ic.get("momenta", [0.0, 0.0])
        return symmetrized_product_state(
            lambda t: wrapped_gaussian(t, c1, width, k1),
            lambda t: wrapped_gaussian(t, c2, width, k2),
            factor.sign, n_points, space)
    if kind == "eigenstate":
        return make_eigenstate(ic.get("n", 0), factor, n_points, space)
    if kind == "gaussian":
        return make_gaussian_state(factor, ic.get("center", math.pi),
                                   ic.get("width", 0.5),
                                   ic.get("momentum", 0.0), n_points, space)
    if kind == "spinor_gaussian":
        if not isinstance(factor, MatrixRep):
            raise ConfigError("spinor initial state needs a matrix factor",
                              field_path="$.initial_state.type")
        amps = np.array([complex(re, im) for re, im in ic["amplitudes"]])
        if len(amps) != factor.dim:
            raise ConfigError("amplitude count must match the factor "
                              "dimension", field_path="$.initial_state.amplitudes")
        profile = wrapped_gaussian(angle_grid(n_points),
                                   ic.get("center", math.pi),
                                   ic.get("width", 0.5), ic.get("momentum", 0.0))
        data = amps[:, None] * profile[None, :]
        return twist_embed(data, factor, space=space)


def numerics(cfg):
    out = dict(NUMERICS_DEFAULTS)
    out.update(cfg.get("numerics", {}))
    out.setdefault("transport_dt", out["dt"])
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
