"""The scenario schema walker against jsonschema, the reference reader of
JSON Schema 2020-12: both must report the same first error path."""

import copy
import math

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topobohm.errors import ConfigError
from topobohm.scenario import (
    PAIR_MAX_POINTS,
    RING_MAX_POINTS,
    SCENARIO_SCHEMA,
    SCENARIO_SCHEMA_TAG,
    _schema_errors,
    validate_scenario,
)

REFERENCE = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)

# the keywords the walker reads, and the JSON types it knows
WALKED = {"type", "const", "enum", "minimum", "exclusiveMinimum", "maximum",
          "minItems", "maxItems", "items", "required", "properties",
          "additionalProperties", "if", "then", "else", "allOf"}
TYPES = {"object", "array", "boolean", "number", "integer"}

SPIN_Z = {"type": "spin_exp", "angle": 0.7, "axis": [0, 0, 1]}
SIGMA_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
SPINOR = {"type": "spinor_gaussian", "amplitudes": [[1, 0], [0, 0.5]],
          "center": 3.0, "width": 0.5, "momentum": 0.0}
TERMS = [{"amplitude": 0.3, "harmonic": 1, "phase": 0.2}]

# valid configs that together use every type of every block and every key
SEEDS = [
    {"schema": SCENARIO_SCHEMA_TAG, "seed": 3,
     "space": {"kind": "ring", "n_points": 64, "radius": 1.0},
     "factor": {"type": "character", "beta": math.pi},
     "potential": {"type": "trig", "terms": TERMS},
     "initial_state": {"type": "gaussian", "center": 3.0, "width": 0.5,
                       "momentum": 1.0},
     "numerics": {"dt": 1e-3, "t_final": 0.05},
     "trajectories": {"starts": [1.0, 3.0], "record_every": 10},
     "equivariance": {"n_samples": 1000, "checkpoints": [0.05], "bins": 8,
                      "velocity_factor": 1.0, "emit_samples": True},
     "grw": {"lam": 1.0, "a": 0.3}},
    {"schema": SCENARIO_SCHEMA_TAG, "space": {"kind": "ring"},
     "factor": {"type": "flux", "flux": 3.0, "charge": 1.0},
     "potential": {"type": "tabulated", "values": [0.0] * 8},
     "initial_state": {"type": "eigenstate", "n": 1},
     "numerics": {"dt": 1e-3, "t_final": 1.0, "eps_node": 1e-12,
                  "n_levels": 4, "max_norm_drift": 1e-7,
                  "max_twist_residual": 1e-9, "monitor_every": 10,
                  "transport_dt": 1e-3}},
    {"schema": SCENARIO_SCHEMA_TAG, "space": {"kind": "ring"},
     "factor": SPIN_Z, "potential": {"type": "matrix_const",
                                     "matrix": SIGMA_X},
     "initial_state": SPINOR},
    {"schema": SCENARIO_SCHEMA_TAG, "space": {"kind": "ring"},
     "factor": {"type": "matrix", "generator": SIGMA_X},
     "potential": {"type": "covariant_const", "matrix": SIGMA_X},
     "initial_state": SPINOR},
    {"schema": SCENARIO_SCHEMA_TAG,
     "space": {"kind": "two_particle_ring", "n_points": 32},
     "factor": {"type": "exchange", "sign": -1},
     "potential": {"type": "pair_interaction", "terms": TERMS},
     "initial_state": {"type": "pair_gaussian", "centers": [2.0, 4.5],
                       "width": 0.5, "momenta": [0.0, 1.0]},
     "trajectories": {"starts": [[2.0, 4.5]]}},
    {"schema": SCENARIO_SCHEMA_TAG, "space": {"kind": "two_particle_ring"},
     "factor": {"type": "exchange", "sign": 1},
     "potential": {"type": "pair_onebody", "terms": TERMS},
     "initial_state": {"type": "pair_eigenstate", "n1": 0, "n2": 1}},
    {"schema": SCENARIO_SCHEMA_TAG, "seed": 1, "space": {"kind": "ring"},
     "factor": {"type": "character", "beta": 0.0},
     "potential": {"type": "zero"},
     "twisted": {"n_particles": 2, "w_dim": 2, "generators": [SIGMA_X],
                 "random_generators": 2, "corrupt": False}},
]


def _subschemas(schema):
    yield schema
    for keyword, value in schema.items():
        if keyword == "properties":
            children = value.values()
        elif keyword == "allOf":
            children = value
        elif keyword in ("items", "if", "then", "else"):
            children = [value]
        else:
            continue
        for child in children:
            yield from _subschemas(child)


def _nodes(value):
    yield value
    children = value.values() if isinstance(value, dict) else value
    for child in children:
        if isinstance(child, (dict, list)):
            yield from _nodes(child)


NAMES = sorted({name for schema in _subschemas(SCENARIO_SCHEMA)
                for name in schema.get("properties", {})} | {"bogus"})
WORDS = sorted({word for schema in _subschemas(SCENARIO_SCHEMA)
                for word in schema.get("enum", [schema.get("const")])
                if isinstance(word, str)})
ODD = [None, True, False, 0, 1, -1, 3, 4.0, 4.5, -0.5, 0.0, 1e9, 1000,
       math.nan, math.inf, -math.inf, "x", [], {}, [1.0, 2.0], [True, 0],
       [1.0, 2.0, 3.0], [[1, 0]], [[[1, 0]]]]
VALUES = st.one_of(st.sampled_from(ODD), st.sampled_from(WORDS),
                   st.integers(-5, 2000), st.floats(allow_nan=True),
                   st.sampled_from([node for seed in SEEDS
                                    for node in _nodes(seed)]))


@st.composite
def mutated_configs(draw):
    """A seed config after one to three edits, each at a dict or list
    anywhere in it: a key or item deleted, added, or given another value."""
    cfg = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_nodes(cfg))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        edit = draw(st.sampled_from(["delete", "add", "replace"]))
        value = copy.deepcopy(draw(VALUES))
        if edit == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(NAMES))] = value
            else:
                node.append(value)
        elif edit == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = value
    return cfg


def reference_first_path(cfg):
    errors = sorted(REFERENCE.iter_errors(cfg), key=lambda e: e.json_path)
    return errors[0].json_path if errors else None


def walker_first_path(cfg):
    return min((path for path, _ in _schema_errors(cfg, SCENARIO_SCHEMA)),
               default=None)


def with_edit(block, **edit):
    return dict(SEEDS[0], **{block: dict(SEEDS[0][block], **edit)})


def test_schema_is_a_valid_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)


def test_walker_reads_every_keyword_the_schema_uses():
    # a keyword the walker skips would pass every config unchecked
    for schema in _subschemas(SCENARIO_SCHEMA):
        assert set(schema) - WALKED <= {"$schema"}, schema
        assert schema.get("type", "object") in TYPES, schema
        assert schema.get("additionalProperties", False) is False, schema


@pytest.mark.parametrize("cfg", SEEDS)
def test_seed_configs_are_valid(cfg):
    assert reference_first_path(cfg) is None
    validate_scenario(cfg)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_configs())
# a bool is no integer, 4.0 is one, and True is not the enum's 1
@example(dict(SEEDS[0], seed=True))
@example(dict(SEEDS[0], seed=4.0))
@example(with_edit("space", n_points=4.0))
@example(dict(SEEDS[4], factor={"type": "exchange", "sign": True}))
@example(dict(SEEDS[4], factor={"type": "exchange", "sign": 1.0}))
# NaN passes every bound
@example(with_edit("grw", lam=math.nan, a=math.nan))
@example(with_edit("space", n_points=math.nan))
# an extra key is reported at its object, a type error ends the descent
@example(with_edit("factor", flux=1.0))
@example(dict(SEEDS[0], initial_state=[{"type": "gaussian", "n1": 2}]))
# a two-particle space types its starts as pairs
@example(dict(SEEDS[4], trajectories={"starts": [1.0]}))
# the space's kind bounds n_points
@example(with_edit("space", n_points=2 ** 80))
@example(dict(SEEDS[4], space={"kind": "two_particle_ring", "n_points": 2 ** 13}))
@example(dict(SEEDS[4], space={"kind": "ring", "n_points": 2 ** 13}))
def test_walker_reports_the_first_path_jsonschema_does(cfg):
    assert walker_first_path(cfg) == reference_first_path(cfg)


def test_the_largest_grids_pass_and_one_point_more_is_refused():
    for seed, bound in ((SEEDS[0], RING_MAX_POINTS), (SEEDS[4], PAIR_MAX_POINTS)):
        for n_points, where in ((bound, None), (bound + 1, "$.space.n_points")):
            cfg = dict(seed, space=dict(seed["space"], n_points=n_points))
            assert walker_first_path(cfg) == reference_first_path(cfg) == where
        validate_scenario(dict(seed, space=dict(seed["space"], n_points=bound)))


def test_validate_scenario_raises_at_the_first_path():
    cfg = dict(SEEDS[0], space={"kind": "ring", "n_points": 2},
               grw={"lam": -1.0, "a": 0.3})
    with pytest.raises(ConfigError) as exc:
        validate_scenario(cfg)
    assert exc.value.field_path == "$.grw.lam" == reference_first_path(cfg)
