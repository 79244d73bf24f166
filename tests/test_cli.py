"""Batch runner: exit codes, artifacts, manifests, reproducibility."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scenario_configs
from topobohm import cli
from topobohm import scenario as scenario_module
from topobohm.cli import json_text, main, write_json
from topobohm.errors import ConfigError, ToleranceError
from topobohm.propagation import (
    Potential,
    WaveGrid,
    evolve,
    gauge_map,
    state_from_dict,
    state_to_dict,
    symmetrized_product_state,
    twist_embed,
)
from topobohm.scenario import PAULI, SCENARIO_SCHEMA_TAG, Scenario
from topobohm.trajectories import integrate_trajectories

BASE = {
    "schema": SCENARIO_SCHEMA_TAG,
    "space": {"kind": "ring", "n_points": 64},
    "factor": {"type": "character", "beta": math.pi},
    "potential": {"type": "trig", "terms": [{"amplitude": 0.3, "harmonic": 1}]},
    "initial_state": {"type": "gaussian", "center": 3.0, "width": 0.5,
                      "momentum": 1.0},
    "numerics": {"dt": 1e-3, "t_final": 0.05},
}


SPINOR = {"type": "spinor_gaussian", "amplitudes": [[1, 0], [0, 0.5]],
          "center": 3.0, "width": 0.5}

SPIN_Z = {"type": "spin_exp", "angle": 0.7, "axis": [0, 0, 1]}

# a 2-row complex matrix whose second row has one entry
RAGGED = [[[1, 0], [0, 0]], [[0, 0]]]


def off_sample_field(n=64):
    # sigma_z everywhere but sigma_x at index 1, a point that a sample of
    # every n/16-th point misses
    field = np.broadcast_to(PAULI["z"], (n, 2, 2)).copy()
    field[1] = PAULI["x"]
    return field


def spanning_covariant_field(n=64):
    # cos t sigma_z + sin t sigma_x: generates all of M_2 and commutes
    # nowhere with an x-axis factor, yet is covariant by construction
    theta = 2 * np.pi * np.arange(n) / n
    return (np.cos(theta)[:, None, None] * PAULI["z"]
            + np.sin(theta)[:, None, None] * PAULI["x"])


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_schema_violation_is_two(self, tmp_path):
        bad = dict(BASE, space={"kind": "moebius"})
        cfg = write_config(tmp_path, bad)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_physics_incompatibility_is_three(self, tmp_path):
        bad = dict(BASE)
        bad["factor"] = {"type": "spin_exp", "angle": math.pi / 2,
                         "axis": [0, 0, 1]}
        bad["potential"] = {"type": "matrix_const",
                            "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
        bad["initial_state"] = {"type": "spinor_gaussian",
                                "amplitudes": [[1, 0], [0, 0.5]],
                                "center": 3.0, "width": 0.5}
        cfg = write_config(tmp_path, bad)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_tolerance_breach_is_four(self, tmp_path):
        bad = dict(BASE, numerics={"dt": 1e-3, "t_final": 0.05,
                                   "max_norm_drift": 0.0})
        cfg = write_config(tmp_path, bad)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        manifest = read_json(tmp_path / "o" / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["failure"]["family"] == "numerics"

    @pytest.mark.parametrize("t_final", [0.0004, 0.0026])
    def test_t_final_off_the_step_grid_is_two(self, tmp_path, t_final):
        # 0.0004 would round to no step at all, 0.0026 to t = 0.003
        bad = dict(BASE, numerics={"dt": 1e-3, "t_final": t_final})
        cfg = write_config(tmp_path, bad)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        manifest = read_json(tmp_path / "o" / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["failure"]["family"] == "config"
        assert "multiple of dt" in manifest["failure"]["message"]

    def test_unreadable_config_is_two(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["evolve", "--config", missing,
                     "--out", str(tmp_path / "o")]) == 2
        assert "error[config]: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b'{"schema": ', b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
        ids=["truncated", "not-utf-8", "too-deep"])
    def test_config_that_is_not_json_is_two(self, tmp_path, capsys, content):
        # bytes that are not UTF-8 exited 5 on a UnicodeDecodeError, and
        # nesting past the parser's depth on a RecursionError
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error[config]: not valid JSON: ")
        assert not out.exists()

    def test_missing_seed_is_two(self, tmp_path):
        cfg_dict = dict(BASE)
        cfg_dict["grw"] = {"lam": 1.0, "a": 0.3}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["grw", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unresolved_grw_width_is_two(self, tmp_path):
        cfg_dict = dict(BASE, seed=3)
        cfg_dict["grw"] = {"lam": 1.0, "a": 0.05}  # grid spacing 2 pi / 64
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o"
        assert main(["grw", "--config", cfg, "--out", str(out)]) == 2
        manifest = read_json(out / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["failure"]["family"] == "config"
        assert "grid spacing" in manifest["failure"]["message"]

    def test_unexpected_exception_is_five(self, tmp_path, capsys, monkeypatch):
        def broken(scenario, ctx):
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(cli.COMMANDS, "evolve", broken)
        cfg = write_config(tmp_path, BASE)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err.strip() == \
            "error[internal]: RuntimeError: disk on fire"
        manifest = read_json(tmp_path / "o" / "manifest.json")
        jsonschema.validate(manifest, cli.MANIFEST_SCHEMA)
        assert manifest["status"] == "failed"
        assert manifest["failure"]["family"] == "internal"
        assert "disk on fire" in manifest["failure"]["traceback"]

    @pytest.mark.parametrize("subcommand", ["evolve", "grw"])
    def test_zero_state_is_two(self, tmp_path, capsys, subcommand):
        # all-zero amplitudes have no norm to scale to one; the run used to
        # step NaN to exit 0 with its checks recorded as passed
        zero = dict(BASE, factor={"type": "spin_exp", "angle": 0.7,
                                  "axis": [0, 0, 1]},
                    potential={"type": "zero"},
                    initial_state={"type": "spinor_gaussian",
                                   "amplitudes": [[0, 0], [0, 0]]},
                    grw={"lam": 1.0, "a": 0.3}, seed=1)
        cfg = write_config(tmp_path, zero)
        assert main([subcommand, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "error[config] at $.initial_state: the state's norm is 0.0")

    @pytest.mark.parametrize("subcommand", ["grw", "spectrum"])
    @pytest.mark.parametrize("axis, where", [
        ([0, 0, 0], "$.factor.axis"), ([math.inf, 0, 0], "$.factor.axis[0]")],
        ids=["zero", "infinite"])
    def test_spin_axis_without_direction_is_two(self, tmp_path, capsys,
                                                subcommand, axis, where):
        # a zero axis used to exit 5 on the NaN generator it normalized to
        cfg_dict = dict(BASE, factor={"type": "spin_exp", "angle": 0.7,
                                      "axis": axis},
                        potential={"type": "zero"},
                        initial_state=SPINOR, grw={"lam": 1.0, "a": 0.3},
                        seed=1)
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        assert f"error[config] at {where}:" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", [[1e308, 1e308, 0], [1e-200, 1e-200, 0]],
                             ids=["squares-overflow", "squares-underflow"])
    def test_spin_axis_far_from_unit_length_keeps_its_direction(self, axis):
        # the plain norm of these axes is inf and 0.0, which refused them
        got = scenario_module.spin_exponential(0.7, axis)
        expected = scenario_module.spin_exponential(0.7, [1, 1, 0])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("field, where", [
        ({"factor": {"type": "matrix", "generator": RAGGED}},
         "$.factor.generator"),
        ({"potential": {"type": "matrix_const", "matrix": RAGGED}},
         "$.potential.matrix"),
        ({"potential": {"type": "covariant_const", "matrix": RAGGED}},
         "$.potential.matrix")],
        ids=["generator", "matrix_const", "covariant_const"])
    def test_ragged_complex_matrix_is_two(self, tmp_path, capsys, field,
                                          where):
        # ragged rows used to exit 5 on numpy's inhomogeneous-shape ValueError
        cfg_dict = dict(BASE, factor={"type": "matrix",
                                      "generator": [[[1, 0], [0, 0]],
                                                    [[0, 0], [1, 0]]]},
                        initial_state=SPINOR)
        cfg_dict.update(field)
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["evolve", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"error[config] at {where}:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, where, key", [
        ({"potential": {"type": "tabulated"}}, "$.potential", "values"),
        ({"potential": {"type": "matrix_const"}}, "$.potential", "matrix"),
        ({"potential": {"type": "covariant_const"}}, "$.potential",
         "matrix"),
        ({"factor": {"type": "matrix"}}, "$.factor", "generator"),
        ({"initial_state": {"type": "spinor_gaussian"}}, "$.initial_state",
         "amplitudes")],
        ids=["tabulated", "matrix_const", "covariant_const", "matrix",
             "spinor_gaussian"])
    def test_key_its_type_needs_is_required(self, tmp_path, capsys, field,
                                            where, key):
        # each used to exit 5 on a KeyError in the builder that reads it
        cfg_dict = dict(BASE, factor={"type": "spin_exp", "angle": 0.7,
                                      "axis": [0, 0, 1]},
                        potential={"type": "zero"}, initial_state=SPINOR)
        cfg_dict.update(field)
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["evolve", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"error[config] at {where}:" in err
        assert f"'{key}' is a required property" in err

    def test_schema_error_names_its_path_once_in_a_failed_manifest(
            self, tmp_path, capsys):
        # the path was printed twice, and no run directory was written
        cfg = write_config(tmp_path, dict(BASE, potential={"type": "zero",
                                                           "bogus": 1}))
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        message = ("config violates the scenario schema: additional "
                   "properties are not allowed ('bogus' was unexpected)")
        assert capsys.readouterr().err == \
            f"error[config] at $.potential: {message}\n"
        manifest = read_json(out / "manifest.json")
        jsonschema.validate(manifest, cli.MANIFEST_SCHEMA)
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == []
        assert manifest["failure"] == {"family": "config", "message": message,
                                       "field_path": "$.potential"}

    def test_config_that_is_no_object_is_two(self, tmp_path, capsys):
        # an override flag used to index the list and exit 5
        cfg = write_config(tmp_path, [1, 2])
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--seed", "3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error[config] at $: ")
        assert read_json(out / "manifest.json")["failure"]["family"] == "config"

    @pytest.mark.parametrize("axis", [[0, 0, 0], [math.nan, 0, 1],
                                      [0, math.inf, 0]])
    def test_spin_exponential_refuses_an_axis_without_direction(self, axis):
        with pytest.raises(ConfigError, match="no direction") as exc:
            scenario_module.spin_exponential(0.7, axis)
        assert exc.value.field_path == "$.factor.axis"

    @pytest.mark.parametrize("twisted, where", [
        ({"random_generators": 0}, "$.twisted.random_generators"),
        ({"generators": []}, "$.twisted.generators"),
        # a 3 x 3 generator on w_dim 2 used to exit 5 in a matmul
        ({"generators": [[[[1, 0], [0, 0], [0, 0]]] * 3]},
         "$.twisted.generators[0]"),
        ({"generators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                         [[[1, 0], [0, 0]], [[0, 0]]]]},
         "$.twisted.generators[1]")],
        ids=["no-random-generators", "empty-generators", "3x3-on-w_dim-2",
             "ragged"])
    def test_twisted_check_without_generators_is_two(self, tmp_path, capsys,
                                                     twisted, where):
        cfg_dict = dict(BASE, seed=1, twisted=dict(
            {"n_particles": 2, "w_dim": 2}, **twisted))
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o"
        assert main(["twisted-check", "--config", cfg, "--out", str(out)]) == 2
        assert f"error[config] at {where}:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, where", [
        ("potential", {"type": "trig", "terms": [
            {"amplitude": math.nan, "harmonic": 1}]},
         "$.potential.terms[0].amplitude"),
        ("numerics", {"dt": math.inf, "t_final": 0.05}, "$.numerics.dt"),
        ("factor", {"type": "character", "beta": -math.inf}, "$.factor.beta"),
    ], ids=["nan-amplitude", "infinite-dt", "minus-infinite-beta"])
    def test_non_finite_number_is_two(self, tmp_path, capsys, section, value,
                                      where):
        # json.load reads NaN and Infinity, and the schema's number admits
        # them; a NaN amplitude used to step NaN to exit 4
        cfg = write_config(tmp_path, dict(BASE, **{section: value}))
        assert any(literal in (tmp_path / "scenario.json").read_text()
                   for literal in ("NaN", "Infinity"))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"error[config] at {where}:" in capsys.readouterr().err

    def test_non_finite_override_is_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--beta", "nan"]) == 2
        assert "error[config] at $.factor.beta:" in capsys.readouterr().err

    def test_numerics_error_names_the_invariant_once(self, tmp_path, capsys):
        bad = dict(BASE, numerics={"dt": 1e-3, "t_final": 0.05,
                                   "max_norm_drift": 1e-30})
        cfg = write_config(tmp_path, bad)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error[numerics]: invariant 'norm-drift' violated:")
        assert err.count("norm-drift") == 1

    def test_non_finite_residual_fails(self, tmp_path):
        ctx = cli.RunContext(str(tmp_path), "evolve", dict(BASE), None)
        for residual in (math.nan, math.inf):
            assert not ctx.record("drift", residual, 1.0)
            assert not ctx.record("drift", residual)
            with pytest.raises(ToleranceError):
                ctx.check("drift", residual, 1.0)
        assert ctx.record("drift", 0.5, 1.0) and ctx.record("drift", 0.5)
        assert [inv["passed"] for inv in ctx.invariants] == [False] * 6 + [
            True] * 2

    def test_argument_errors_exit_as_argparse_does(self, capsys):
        # the parser is built once per process and reused by every call
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["no-such-subcommand"])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
        assert cli.build_parser() is cli.build_parser()

    def test_unwritable_output_is_five(self, tmp_path, capsys, monkeypatch):
        # the artifacts and then the failure manifest cannot be written
        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        cfg = write_config(tmp_path, BASE)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err.strip() == \
            "error[internal]: OSError: no space left on device"

    @pytest.mark.parametrize("changes, code, family", [
        ({"numerics": {"dt": 1e-3, "t_final": 0.0026}}, 2, "config"),
        ({"factor": {"type": "spin_exp", "angle": 0.7, "axis": [0, 0, 1]},
          "potential": {"type": "matrix_const",
                        "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
          "initial_state": SPINOR}, 3, "physics"),
        ({"numerics": {"dt": 1e-3, "t_final": 0.05, "max_norm_drift": 0.0}},
         4, "numerics")],
        ids=["config", "physics", "numerics"])
    def test_unwritable_failure_manifest_keeps_the_exit_code(
            self, tmp_path, capsys, monkeypatch, changes, code, family):
        # each of these escaped main as an OSError traceback
        replace_file = os.replace

        def refuse_manifest(src, dst):
            if os.path.basename(dst) == "manifest.json":
                raise OSError("no space left on device")
            replace_file(src, dst)

        monkeypatch.setattr(os, "replace", refuse_manifest)
        cfg = write_config(tmp_path, dict(BASE, **changes))
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error[{family}]") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_non_unitary_generator_is_three_with_a_manifest(self, tmp_path,
                                                            capsys):
        # the refusal came before the run directory existed, and wrote none
        cfg = write_config(tmp_path, dict(
            BASE, seed=4, initial_state=SPINOR,
            factor={"type": "matrix",
                    "generator": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[physics]: generator is not unitary")
        assert err.count("\n") == 1
        manifest = read_json(out / "manifest.json")
        jsonschema.validate(manifest, cli.MANIFEST_SCHEMA)
        assert manifest["status"] == "failed"
        assert manifest["failure"]["family"] == "physics"
        assert manifest["seed"] is None

    @pytest.mark.parametrize("subcommand, missing, where", [
        ("trajectories", ["trajectories"], "$.trajectories"),
        ("equivariance", ["equivariance"], "$.equivariance"),
        ("twisted-check", ["twisted"], "$.twisted"),
        ("grw", ["grw"], "$.grw"),
        ("equivariance", ["seed"], "$.seed"),
        ("twisted-check", ["seed"], "$.seed"),
        ("grw", ["seed"], "$.seed"),
        ("equivariance", ["seed", "equivariance"], "$.seed"),
        ("twisted-check", ["seed", "twisted"], "$.seed"),
        ("grw", ["seed", "grw"], "$.seed")])
    def test_missing_prerequisite_is_two(self, tmp_path, capsys, subcommand,
                                         missing, where):
        cfg_dict = dict(BASE, seed=5, trajectories={"starts": [1.0]},
                        equivariance={"n_samples": 1000,
                                      "checkpoints": [0.05]},
                        twisted={"n_particles": 2, "w_dim": 2},
                        grw={"lam": 1.0, "a": 0.3})
        for key in missing:
            del cfg_dict[key]
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error[config] at {where}:")
        manifest = read_json(out / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["failure"]["family"] == "config"
        assert manifest["failure"]["field_path"] == where
        assert manifest["seed"] == cfg_dict.get("seed")
        assert manifest["outputs"] == []


    @pytest.mark.parametrize("subcommand", ["trajectories", "equivariance",
                                            "ab-compare", "spectrum",
                                            "evolve", "grw"])
    @pytest.mark.parametrize("flux, radius, where", [
        (1e200, 1.0, "$.factor"), (1.0, 1e-160, "$.space.radius")],
        ids=["flux-1e200", "radius-1e-160"])
    def test_overflowing_wavenumbers_are_two(self, tmp_path, capsys,
                                              subcommand, flux, radius, where):
        # squared, these wavenumbers overflowed to a NaN kinetic phase, and
        # the runs exited 4 or 5
        cfg_dict = dict(BASE, seed=5, trajectories={"starts": [1.0]},
                        equivariance={"n_samples": 1000, "checkpoints": [0.05]},
                        grw={"lam": 1.0, "a": 0.3},
                        space={"kind": "ring", "n_points": 64, "radius": radius},
                        factor={"type": "flux", "flux": flux, "charge": 1.0})
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error[config] at {where}:")
        manifest = read_json(out / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["failure"]["field_path"] == where

    @pytest.mark.parametrize("subcommand, change, where", [
        ("evolve", {"space": {"kind": "two_particle_ring", "n_points": 16},
                    "initial_state": {"type": "pair_eigenstate"}},
         "$.factor.type"),
        ("evolve", {"factor": {"type": "exchange", "sign": -1}},
         "$.factor.type"),
        ("evolve", {"space": {"kind": "two_particle_ring", "n_points": 16},
                    "factor": {"type": "exchange", "sign": -1}},
         "$.initial_state.type"),
        ("evolve", {"initial_state": {"type": "pair_eigenstate"}},
         "$.initial_state.type"),
        ("evolve", {"initial_state": SPINOR}, "$.initial_state.type"),
        ("evolve", {"factor": SPIN_Z}, "$.initial_state.type"),
        ("evolve", {"factor": SPIN_Z, "initial_state": dict(
            SPINOR, amplitudes=[[1, 0]])}, "$.initial_state.amplitudes"),
        ("classify", {"factor": SPIN_Z, "initial_state": SPINOR,
                      "potential": {"type": "matrix_const",
                                    "matrix": [[[1, 0], [1, 0]],
                                               [[0, 0], [1, 0]]]}},
         "$.potential.matrix"),
        ("classify", {"factor": SPIN_Z, "initial_state": SPINOR,
                      "potential": {"type": "covariant_const",
                                    "matrix": [[[0, 1]]]}},
         "$.potential.matrix"),
        ("classify", {"factor": SPIN_Z, "initial_state": SPINOR,
                      "potential": {"type": "covariant_const",
                                    "matrix": [[[1, 0]]]}},
         "$.potential.matrix"),
        ("evolve", {"potential": {"type": "matrix_const",
                                  "matrix": [[[1, 0], [0, 0]],
                                             [[0, 0], [1, 0]]]}},
         "$.potential.matrix"),
        ("evolve", {"potential": {"type": "pair_interaction"}},
         "$.potential.type"),
        ("spectrum", {"numerics": {"n_levels": 17}}, "$.numerics.n_levels"),
        ("grw", {"grw": {"a": 0.05}}, "$.grw.a"),
        ("equivariance", {
            "space": {"kind": "two_particle_ring", "n_points": 16},
            "factor": {"type": "exchange", "sign": -1},
            "potential": {"type": "zero"},
            "initial_state": {"type": "pair_eigenstate"}}, "$.space.kind"),
        ("evolve", {
            "space": {"kind": "two_particle_ring", "n_points": 16},
            "factor": {"type": "exchange", "sign": -1},
            "potential": {"type": "zero"},
            "initial_state": {"type": "pair_eigenstate", "n1": 1, "n2": 1}},
         "$.initial_state"),
    ], ids=["pair-without-exchange", "exchange-on-ring", "ring-state-on-pair",
            "pair-state-on-ring", "spinor-without-matrix",
            "scalar-state-of-a-spinor", "amplitude-count",
            "non-hermitian-matrix", "non-hermitian-covariant",
            "covariant-of-another-dimension", "matrix-on-a-scalar-state", "pair-field-on-ring", "n-levels",
            "unresolved-width", "equivariance-on-pair", "vanishing-pair"])
    def test_config_refusal_names_its_path(self, tmp_path, capsys,
                                           subcommand, change, where):
        cfg_dict = {**BASE, "seed": 5, "grw": {"lam": 1.0, "a": 0.3},
                    "equivariance": {"n_samples": 1000, "checkpoints": [0.05]},
                    **change}
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error[config] at {where}:")
        assert read_json(out / "manifest.json")["failure"]["field_path"] == where


class TestEvolve:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "run"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        state = read_json(out / "state.json")
        assert state["schema"] == "topobohm/state/1"
        manifest = read_json(out / "manifest.json")
        assert manifest["status"] == "ok"
        names = {item["path"] for item in manifest["outputs"]}
        assert {"state.json", "monitor.csv"} <= names
        for inv in manifest["invariants"]:
            assert inv["passed"]
        structural = {inv["id"]: inv.get("structural", False)
                      for inv in manifest["invariants"]}
        assert structural == {"norm-drift": False, "twist-preservation": True}

    def test_manifests_are_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        m = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
            manifest = read_json(out / "manifest.json")
            manifest.pop("wall_time_s")
            m.append(manifest)
        assert m[0] == m[1]

    def test_twist_is_checked_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        residual = WaveGrid.twist_residual

        def counting(state, *args, **kwargs):
            calls.append(1)
            return residual(state, *args, **kwargs)

        monkeypatch.setattr(WaveGrid, "twist_residual", counting)
        cfg = write_config(tmp_path, dict(BASE, numerics={
            "dt": 1e-3, "t_final": 0.05, "monitor_every": 10}))
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 1
        rows = (out / "monitor.csv").read_text().strip().splitlines()
        assert rows[0] == "step,t,norm,norm_drift"
        assert len(rows) == 7                       # step 0 and five chunks

    def test_twist_layout_mismatch_is_four(self, tmp_path, monkeypatch):
        # sector angles that disagree with the factor: the stored layout
        # no longer fixes the twist the factor asks for
        initial = Scenario.initial_state
        monkeypatch.setattr(Scenario, "initial_state", lambda self: replace(
            initial(self), sector_betas=initial(self).sector_betas + 0.5))
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 4
        manifest = read_json(out / "manifest.json")
        assert manifest["failure"]["family"] == "numerics"
        passed = {inv["id"]: inv["passed"] for inv in manifest["invariants"]}
        assert passed == {"norm-drift": True, "twist-preservation": False}


class TestSpectrum:
    def test_free_ring_levels(self, tmp_path):
        out = tmp_path / "spec"
        assert main(["spectrum", "--beta", "0", "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().strip().splitlines()
        assert rows[0] == "index,energy"
        levels = [float(r.split(",")[1]) for r in rows[1:6]]
        assert np.allclose(levels, [0.0, 0.5, 0.5, 2.0, 2.0], atol=1e-9)

    def test_flux_override(self, tmp_path):
        out = tmp_path / "spec2"
        assert main(["spectrum", "--flux", str(math.pi), "--charge", "1",
                     "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().strip().splitlines()
        level0 = float(rows[1].split(",")[1])
        assert level0 == pytest.approx(0.125, abs=1e-9)

    def test_incompatible_pair_exits_three(self, tmp_path):
        cfg_dict = dict(BASE, factor={"type": "spin_exp", "angle": 0.7,
                                      "axis": [0, 0, 1]},
                        potential={"type": "matrix_const",
                                   "matrix": [[[0, 0], [1, 0]],
                                              [[1, 0], [0, 0]]]},
                        initial_state=SPINOR)
        out = tmp_path / "spec"
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
        assert read_json(out / "manifest.json")["status"] == "failed"


def test_charge_override_sets_the_flux_factor_charge(tmp_path):
    cfg = write_config(tmp_path, dict(BASE, factor={"type": "flux", "flux": 1.0}))
    betas = {}
    for charge in ("2", "5"):
        out = tmp_path / f"q{charge}"
        assert main(["evolve", "--config", cfg, "--charge", charge,
                     "--out", str(out)]) == 0
        betas[charge] = read_json(out / "state.json")["sector_betas"]
    assert betas == {"2": [-2.0], "5": [-5.0]}


def test_charge_override_without_a_flux_factor_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["evolve", "--config", cfg, "--charge", "2",
                 "--out", str(tmp_path / "o")]) == 2
    assert "not a flux" in capsys.readouterr().err


def test_ab_compare_defaults(tmp_path):
    out = tmp_path / "ab"
    assert main(["ab-compare", "--flux", str(math.pi), "--charge", "1",
                 "--t-final", "0.2", "--out", str(out)]) == 0
    report = read_json(out / "ab_compare.json")
    assert report["max_trajectory_deviation"] <= 1e-6
    assert report["spectrum_difference"] <= 1e-10
    assert report["per_step_diagram_residual"] <= 1e-9


def test_ab_compare_fails_a_nan_diagram_residual(tmp_path, monkeypatch):
    # a max fold dropped the NaN: the run exited 0 with a residual of 0.0
    mapped = []

    def nan_after_the_first(state):
        out = gauge_map(state)
        mapped.append(out)
        return out if len(mapped) == 1 else out.with_values(
            np.full_like(out.values, np.nan))

    monkeypatch.setattr(cli, "gauge_map", nan_after_the_first)
    out = tmp_path / "ab"
    assert main(["ab-compare", "--t-final", "0.02", "--out", str(out)]) == 4
    assert math.isnan(read_json(out / "ab_compare.json")[
        "per_step_diagram_residual"])
    failed = [inv["id"] for inv in read_json(out / "manifest.json")[
        "invariants"] if not inv["passed"]]
    assert failed == ["gauge-diagram-residual"]


def test_ab_compare_spectra_use_the_scenario_radius(tmp_path, monkeypatch):
    radii = []
    real_spectrum = cli.spectrum

    def recording(*args, **kwargs):
        radii.append(kwargs.get("radius", 1.0))
        return real_spectrum(*args, **kwargs)

    monkeypatch.setattr(cli, "spectrum", recording)
    cfg_dict = dict(BASE, space={"kind": "ring", "n_points": 64, "radius": 2.0},
                    factor={"type": "flux", "flux": math.pi},
                    numerics={"dt": 1e-3, "t_final": 0.02})
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["ab-compare", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 0
    assert radii == [2.0, 2.0]


@pytest.mark.parametrize("override", [[], ["--beta", "0"]])
def test_ab_compare_needs_a_flux_factor(tmp_path, capsys, override):
    # BASE's factor is a character (beta = pi), and --beta sets another
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "o"
    assert main(["ab-compare", "--config", cfg, *override,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "at $.factor" in err and "not a flux" in err
    assert read_json(out / "manifest.json")["failure"]["family"] == "config"


class TestClassify:
    def test_magnetic_moment_factor_with_scalar_potential(self, tmp_path):
        cfg_dict = {
            "schema": SCENARIO_SCHEMA_TAG,
            "space": {"kind": "ring", "n_points": 64},
            "factor": {"type": "spin_exp", "angle": 0.7, "axis": [0, 0, 1]},
            "potential": {"type": "zero"},
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "cls"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        verdict = read_json(out / "classification.json")
        assert verdict["label"] == "C2"

    def test_incompatible_pair_exits_three(self, tmp_path):
        cfg_dict = {
            "schema": SCENARIO_SCHEMA_TAG,
            "space": {"kind": "ring", "n_points": 64},
            "factor": {"type": "spin_exp", "angle": 0.7, "axis": [0, 0, 1]},
            "potential": {"type": "matrix_const",
                          "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "cls2"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 3
        verdict = read_json(out / "classification.json")
        assert verdict["label"] == "incompatible"


    def test_commutation_checks_the_whole_field(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            scenario_module, "build_potential",
            lambda cfg, n: Potential.matrix_field(off_sample_field(n)))
        cfg_dict = {
            "schema": SCENARIO_SCHEMA_TAG,
            "space": {"kind": "ring", "n_points": 64},
            "factor": {"type": "spin_exp", "angle": 0.7, "axis": [0, 0, 1]},
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "cls3"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 3
        verdict = read_json(out / "classification.json")
        assert verdict["label"] == "incompatible"
        assert verdict["span_dim"] == 4  # the one sigma_x point counts

    def test_covariant_field_passes_classify_and_evolve(self, tmp_path):
        # sigma_z does not commute with an x-axis factor, but a covariant
        # field passes the split-step gate by construction; classify must
        # apply the same rule
        cfg_dict = dict(BASE,
                        factor={"type": "spin_exp", "angle": 1.0,
                                "axis": [1, 0, 0]},
                        potential={"type": "covariant_const",
                                   "matrix": [[[1, 0], [0, 0]],
                                              [[0, 0], [-1, 0]]]},
                        initial_state={"type": "spinor_gaussian",
                                       "amplitudes": [[1, 0], [0, 0.5]],
                                       "center": 3.0, "width": 0.5})
        cfg = write_config(tmp_path, cfg_dict)
        for sub in ("classify", "evolve"):
            assert main([sub, "--config", cfg,
                         "--out", str(tmp_path / sub)]) == 0
        verdict = read_json(tmp_path / "classify" / "classification.json")
        assert verdict["label"] == "C2"
        assert not verdict["commutes"]  # the literal pointwise check

    def test_spanning_covariant_field_is_c2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            scenario_module, "build_potential",
            lambda cfg, n: Potential.covariant(spanning_covariant_field(n)))
        cfg_dict = dict(BASE, factor={"type": "spin_exp", "angle": 0.7,
                                      "axis": [1, 0, 0]},
                        initial_state=SPINOR)
        cfg = write_config(tmp_path, cfg_dict)
        for sub in ("classify", "evolve"):
            assert main([sub, "--config", cfg,
                         "--out", str(tmp_path / sub)]) == 0
        verdict = read_json(tmp_path / "classify" / "classification.json")
        assert verdict["label"] == "C2"
        assert not verdict["commutes"]
        assert verdict["span_dim"] == 4
        assert verdict["spans_full_algebra"]
        assert "compatible by construction" in verdict["detail"]

    @pytest.mark.parametrize("factor_axis, potential", [
        ([0, 0, 1], {"type": "zero"}),
        ([0, 0, 1], {"type": "matrix_const",
                     "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}),
        ([0, 0, 1], lambda n: Potential.matrix_field(off_sample_field(n))),
        ([1, 0, 0], {"type": "covariant_const",
                     "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}),
        ([1, 0, 0], {"type": "covariant_const",
                     "matrix": [[[1, 0], [0, 0], [0, 0]],
                                [[0, 0], [1, 0], [0, 0]],
                                [[0, 0], [0, 0], [-1, 0]]]}),
        ([1, 0, 0], lambda n: Potential.covariant(spanning_covariant_field(n))),
    ], ids=["zero", "matrix-const", "off-sample", "covariant-z",
            "covariant-3x3", "covariant-spanning"])
    def test_classify_refuses_exactly_what_evolve_refuses(
            self, tmp_path, monkeypatch, factor_axis, potential):
        cfg_dict = dict(BASE, factor={"type": "spin_exp", "angle": 0.7,
                                      "axis": factor_axis},
                        initial_state=SPINOR)
        if callable(potential):
            monkeypatch.setattr(scenario_module, "build_potential",
                                lambda cfg, n: potential(n))
        else:
            cfg_dict["potential"] = potential
        cfg = write_config(tmp_path, cfg_dict)
        codes = {sub: main([sub, "--config", cfg, "--out", str(tmp_path / sub)])
                 for sub in ("classify", "evolve", "spectrum")}
        assert (codes["classify"] == 3) == (codes["evolve"] == 3)
        assert codes["classify"] == codes["evolve"] == codes["spectrum"]

    def test_covariant_field_of_another_dimension_exits_two(self, tmp_path):
        cfg_dict = dict(BASE,
                        factor={"type": "spin_exp", "angle": 1.0,
                                "axis": [1, 0, 0]},
                        potential={"type": "covariant_const",
                                   "matrix": [[[1, 0], [0, 0], [0, 0]],
                                              [[0, 0], [1, 0], [0, 0]],
                                              [[0, 0], [0, 0], [-1, 0]]]},
                        initial_state={"type": "spinor_gaussian",
                                       "amplitudes": [[1, 0], [0, 0.5]],
                                       "center": 3.0, "width": 0.5})
        cfg = write_config(tmp_path, cfg_dict)
        for sub in ("classify", "evolve", "spectrum"):
            assert main([sub, "--config", cfg,
                         "--out", str(tmp_path / sub)]) == 2

    def test_two_particle_spectrum_exits_two(self, tmp_path):
        # spectrum diagonalizes ring operators only; a torus scenario is a
        # config error, not a ring operator with the pair field on it
        cfg_dict = {
            "schema": SCENARIO_SCHEMA_TAG,
            "space": {"kind": "two_particle_ring", "n_points": 64},
            "factor": {"type": "exchange", "sign": -1},
            "potential": {"type": "pair_interaction",
                          "terms": [{"amplitude": 0.3, "harmonic": 1}]},
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        manifest = read_json(out / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["failure"]["family"] == "config"


def _json_payloads(tmp_path):
    """What ``write_json`` writes, and the corner cases of ``json``'s text."""
    theta = 2 * np.pi * np.arange(64) / 64
    scalar = Scenario(BASE).initial_state()
    spinor = twist_embed(
        [np.exp(np.cos(theta)), 0.5j * np.exp(np.sin(theta))],
        Scenario(dict(BASE, factor={"type": "spin_exp", "angle": 0.7,
                                    "axis": [0.48, 0.6, 0.64]})).factor)
    pair = symmetrized_product_state(
        lambda t: np.exp(-(t - 2.0) ** 2), lambda t: np.exp(-(t - 4.0) ** 2),
        -1, n_points=16)
    cfg_dict = dict(BASE, potential={"type": "zero"},
                    numerics={"dt": 2e-3, "t_final": 0.01},
                    equivariance={"n_samples": 1000, "checkpoints": [0.01]},
                    seed=8)
    out = tmp_path / "eq"
    assert main(["equivariance", "--config", write_config(tmp_path, cfg_dict),
                 "--out", str(out)]) == 0
    nan, inf = float("nan"), float("inf")
    return {
        "scalar-state": state_to_dict(scalar),
        "spinor-state": state_to_dict(spinor),
        "pair-state": state_to_dict(pair),
        "manifest": read_json(out / "manifest.json"),
        "equivariance": read_json(out / "equivariance.json"),
        "empty": [{}, [], [[]], [[], []], {"a": {}, "b": []}, ""],
        "non-finite": [[nan, inf], [-inf, -0.0], [0.0, 5e-324]],
        "mixed": [[[1.0, 2.0]], [[1.0, 2], [3.0, 4.0]], [[1.0], [2.0, 3.0]],
                  (1.5, -0.0), [[True, 1.0]], [[None, 2.0]], [1.0, [2.0]],
                  {"b": 1, "a": [1e300, -1e-300]}, {2: "x", 1: None},
                  {1.5: "y"}, {None: 0}, [np.float64(0.1), 0.2], "\u00e9\n"],
    }


def test_json_text_equals_json_dumps(tmp_path):
    for name, payload in _json_payloads(tmp_path).items():
        expected = json.dumps(payload, sort_keys=True, indent=2)
        assert json_text(payload) == expected, name


def test_spinor_state_json_is_json_dumps_text(tmp_path):
    cfg_dict = dict(BASE, factor={"type": "spin_exp", "angle": 0.7,
                                  "axis": [0, 0, 1]},
                    potential={"type": "matrix_const",
                               "matrix": [[[0.5, 0], [0, 0]],
                                          [[0, 0], [-0.5, 0]]]},
                    initial_state=SPINOR)
    out = tmp_path / "sp"
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    for name in ("state.json", "manifest.json"):
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2) + "\n"


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="no space"):
        write_json(str(tmp_path / "report.json"), {"a": 1})
    assert list(tmp_path.iterdir()) == []


def test_twisted_check(tmp_path):
    cfg_dict = {
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "ring", "n_points": 64},
        "factor": {"type": "character", "beta": 0.0},
        "seed": 17,
        "twisted": {"n_particles": 2, "w_dim": 2, "random_generators": 1,
                    "samples": 300, "corrupt": True},
    }
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "tw"
    assert main(["twisted-check", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out / "twisted_check.json")
    assert report["residual"] <= 1e-12
    assert report["corruption_detected"]


def test_grw_run(tmp_path, capsys):
    cfg_dict = dict(BASE)
    cfg_dict["numerics"] = {"dt": 2e-3, "t_final": 2.0}
    cfg_dict["grw"] = {"lam": 1.0, "a": 0.3}
    cfg_dict["seed"] = 4
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "grw"
    assert main(["grw", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "events.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,pre_norm,post_norm,label"
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["n_events"] == len(lines) - 1
    assert summary["expected_events"] == pytest.approx(
        summary["total_rate"] * 2.0, rel=1e-15)
    assert summary["total_rate"] == pytest.approx(
        math.sqrt(2 * math.pi * 0.3 ** 2), rel=1e-10)  # lam sqrt(2 pi a^2)
    manifest = read_json(out / "manifest.json")
    structural = {inv["id"]: inv.get("structural", False)
                  for inv in manifest["invariants"]}
    assert structural["grw-twist-preservation"] is True


# keys that earlier schemas took although no run read them (or, for the
# compare block, a second flux beside the flux factor): each now exits 2
# in a config of the subcommand that took it, and the error names the key,
# or the block when the whole block is gone
@pytest.mark.parametrize("subcommand, path, value", [
    ("classify", "numerics.word_length_cap", 1),
    ("grw", "grw.bound_refresh", 50),
    ("grw", "grw.allow_aperiodic", True),
    ("evolve", "space.sheet_window", 5),
    ("ab-compare", "compare.flux", math.pi),
    ("ab-compare", "compare.charge", 1.0),
    ("ab-compare", "compare.trajectory_tolerance", 1e-6),
    ("ab-compare", "compare.spectrum_tolerance", 1e-10),
    ("evolve", "factor.flux", 3.0),
    ("evolve", "potential.values", [0.0] * 64),
    ("evolve", "initial_state.n1", 2),
])
def test_removed_scenario_keys_exit_two(tmp_path, capsys, subcommand, path,
                                        value):
    block, key = path.split(".")
    cfg_dict = dict(BASE, seed=4, grw={"lam": 1.0, "a": 0.3})
    if subcommand == "ab-compare":
        cfg_dict["factor"] = {"type": "flux", "flux": math.pi}
    cfg = write_config(tmp_path, cfg_dict, "without.json")
    assert main([subcommand, "--config", cfg,
                 "--out", str(tmp_path / "without")]) == 0
    named = key if block in cfg_dict else block
    cfg_dict[block] = {**cfg_dict.get(block, {}), key: value}
    cfg = write_config(tmp_path, cfg_dict, "with.json")
    capsys.readouterr()
    assert main([subcommand, "--config", cfg,
                 "--out", str(tmp_path / "with")]) == 2
    err = capsys.readouterr().err
    assert f"'{named}' was unexpected" in err


def test_grw_flux_scenario_evolves_in_the_field(tmp_path):
    # a flux factor is the twist exp(-i e flux); without collapses the run
    # must match the character scenario of that angle
    densities = []
    for name, factor in (("flux", {"type": "flux", "flux": math.pi / 2}),
                         ("char", {"type": "character", "beta": -math.pi / 2})):
        cfg_dict = dict(BASE, factor=factor, seed=4,
                        numerics={"dt": 1e-3, "t_final": 0.5},
                        grw={"lam": 0, "a": 0.3})
        cfg = write_config(tmp_path, cfg_dict, f"{name}.json")
        out = tmp_path / name
        assert main(["grw", "--config", cfg, "--out", str(out)]) == 0
        densities.append(state_from_dict(read_json(out / "state.json")).density())
    assert np.max(np.abs(densities[0] - densities[1])) <= 1e-12


def test_flux_state_json_resumes(tmp_path):
    cfg_dict = dict(BASE, factor={"type": "flux", "flux": 5.0, "charge": 1.0})
    finals = {}
    for t_final in (0.05, 0.1):
        cfg_dict["numerics"] = {"dt": 1e-3, "t_final": t_final}
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / f"t{t_final}"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        finals[t_final] = state_from_dict(read_json(out / "state.json"))
    resumed = evolve(finals[0.05], Scenario(cfg_dict).potential, 1e-3, 50)
    assert np.array_equal(resumed.values, finals[0.1].values)


def test_equivariance_run(tmp_path):
    cfg_dict = dict(BASE)
    cfg_dict["initial_state"] = {"type": "gaussian", "center": 2.0,
                                 "width": 0.45, "momentum": 2.0}
    cfg_dict["potential"] = {"type": "zero"}
    cfg_dict["numerics"] = {"dt": 4e-3, "t_final": 0.2}
    cfg_dict["space"] = {"kind": "ring", "n_points": 256}
    cfg_dict["equivariance"] = {"n_samples": 2000, "checkpoints": [0.2]}
    cfg_dict["seed"] = 8
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "eq"
    assert main(["equivariance", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out / "equivariance.json")
    assert report["passed"]


@pytest.mark.parametrize("checkpoint", [0.003, 0.0005])
def test_equivariance_off_grid_checkpoint_exits_two(tmp_path, capsys,
                                                    checkpoint):
    cfg_dict = dict(BASE, potential={"type": "zero"},
                    numerics={"dt": 2e-3, "t_final": 0.01},
                    equivariance={"n_samples": 1000,
                                  "checkpoints": [checkpoint, 0.01]},
                    seed=8)
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "eq"
    assert main(["equivariance", "--config", cfg, "--out", str(out)]) == 2
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert f"checkpoint {checkpoint:g}" in manifest["failure"]["message"]
    assert "$.equivariance.checkpoints" in capsys.readouterr().err


def test_trajectories_run(tmp_path):
    cfg_dict = dict(BASE)
    cfg_dict["trajectories"] = {"starts": [1.0, 2.0, 3.0], "record_every": 10}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "traj"
    assert main(["trajectories", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectories.csv").read_text().strip().splitlines()
    assert lines[0] == "trajectory,t,angle,winding,status"
    assert len(lines) > 3
    first = lines[1].split(",")
    assert first[4] == "completed"


def test_trajectory_past_angle_resolution_is_four(tmp_path, capsys):
    # at flux 1e150 a particle moves by about 1e146 a step, where a double
    # has no bits below one radian; the windings were cast to int64's
    # minimum and the run exited 0
    cfg_dict = dict(BASE, factor={"type": "flux", "flux": 1e150, "charge": 1.0},
                    numerics={"dt": 1e-3, "t_final": 0.005},
                    trajectories={"starts": [1.0]})
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "o"
    assert main(["trajectories", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(
        "error[numerics]: invariant 'trajectory-angle-resolution' violated")
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["failure"]["family"] == "numerics"
    assert not (out / "trajectories.csv").exists()


@pytest.mark.parametrize("space, starts", [
    ("ring", ["x"]), ("ring", [1.0, [1.0, 2.0]]),
    ("two_particle_ring", [[2.0, 4.5], 1.0])],
    ids=["string-on-ring", "pair-on-ring", "angle-on-pair"])
def test_trajectory_start_of_another_space_is_two(tmp_path, capsys, space,
                                                  starts):
    # these used to exit 5, or for a pair on a ring to write two paths
    # under a summary of one
    cfg_dict = dict(BASE, trajectories={"starts": starts})
    if space != "ring":
        cfg_dict.update(space={"kind": space, "n_points": 64},
                        factor={"type": "exchange", "sign": -1},
                        potential={"type": "zero"},
                        initial_state={"type": "pair_eigenstate"})
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "o"
    assert main(["trajectories", "--config", cfg, "--out", str(out)]) == 2
    bad = len(starts) - 1
    assert f"error[config] at $.trajectories.starts[{bad}]:" \
        in capsys.readouterr().err


# a NaN or an infinity as json writes it, or as str(float) does in a CSV
NON_FINITE = re.compile(r"\b(NaN|Infinity|nan|inf)\b")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(drawn=st.tuples(st.sampled_from(sorted(cli.COMMANDS)),
                       scenario_configs()))
def test_drawn_scenario_ends_in_a_documented_code(tmp_path_factory, drawn):
    subcommand, cfg_dict = drawn
    tmp = tmp_path_factory.mktemp("drawn")
    out = tmp / "o"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([subcommand, "--config", write_config(tmp, cfg_dict),
                     "--out", str(out)])
    assert code in (0, 2, 3, 4)
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == ("ok" if code == 0 else "failed")
    if code == 2:
        # every config refusal names where in the config to look
        assert err.getvalue().startswith("error[config] at $"), err.getvalue()
        assert manifest["failure"]["field_path"].startswith("$")
    if code == 0:
        for path in out.iterdir():
            assert not NON_FINITE.search(path.read_text()), path.name


def test_console_entry_point(tmp_path, src_env):
    result = subprocess.run(
        [sys.executable, "-m", "topobohm.cli", "spectrum", "--beta", "0",
         "--out", str(tmp_path / "o")],
        env=src_env, capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "ok"


@pytest.mark.parametrize("argv", [
    ["grw", "--allow-aperiodic"],
    ["collapse", "--seed", "1"],
], ids=["aperiodic-grw", "unknown-subcommand"])
def test_parser_refusals_exit_two(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_help_lists_every_subcommand(src_env):
    from topobohm.cli import COMMANDS
    result = subprocess.run([sys.executable, "-m", "topobohm.cli", "--help"],
                            env=src_env, capture_output=True, text=True)
    assert result.returncode == 0
    for name in COMMANDS:
        assert name in result.stdout


# Runs each (label, argv) pair through main() in one fresh interpreter and
# prints, per label, the exit code and whether scipy, scipy.linalg and
# jsonschema are loaded by then; "import" is the state right after
# importing the runner.
COLD_START_CHILD = """
import contextlib, io, json, sys
import topobohm, topobohm.cli

def loaded():
    return ["scipy" in sys.modules, "scipy.linalg" in sys.modules,
            "jsonschema" in sys.modules]

seen = {"import": [0] + loaded()}
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = topobohm.cli.main(argv)
    seen[label] = [code] + loaded()
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_matrix_work(tmp_path, src_env):
    # a character or flux run factors no matrix, so it must not pay for
    # loading scipy; a matrix factor needs its Schur form and loads it.
    # No run loads jsonschema: the package checks scenarios itself
    runs = []
    for name, factor in (("character", BASE["factor"]),
                         ("flux", {"type": "flux", "flux": 1.0})):
        cfg_dict = dict(BASE, factor=factor, seed=3,
                        trajectories={"starts": [1.0, 3.0]},
                        equivariance={"n_samples": 1000,
                                      "checkpoints": [0.05]},
                        grw={"lam": 20.0, "a": 0.3})
        cfg = write_config(tmp_path, cfg_dict, name=f"{name}.json")
        for command in ("evolve", "trajectories", "equivariance", "grw"):
            runs.append((f"{command}-{name}",
                         [command, "--config", cfg,
                          "--out", str(tmp_path / f"{command}-{name}")]))
    spinor = write_config(tmp_path, dict(
        BASE, factor={"type": "spin_exp", "angle": 0.7, "axis": [0, 0, 1]},
        initial_state=SPINOR), name="spinor.json")
    runs.append(("evolve-spinor", ["evolve", "--config", spinor,
                                   "--out", str(tmp_path / "spinor")]))
    result = subprocess.run(
        [sys.executable, "-c", COLD_START_CHILD, json.dumps(runs)],
        env=src_env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    spinor_seen = seen.pop("evolve-spinor")
    assert len(seen) == 9
    for label, (code, has_scipy, _, has_jsonschema) in seen.items():
        assert (code, has_scipy, has_jsonschema) == (0, False, False), label
    assert spinor_seen == [0, True, True, False]


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TOPOBOHM_OUT", str(tmp_path / "envout"))
    assert main(["spectrum", "--beta", "0"]) == 0
    assert (tmp_path / "envout" / "spectrum.csv").exists()


def test_manifest_validates_against_schema(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "mv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    jsonschema.validate(read_json(out / "manifest.json"), cli.MANIFEST_SCHEMA)


def test_equivariance_samples_csv(tmp_path):
    cfg_dict = dict(BASE)
    cfg_dict["potential"] = {"type": "zero"}
    cfg_dict["space"] = {"kind": "ring", "n_points": 256}
    cfg_dict["initial_state"] = {"type": "gaussian", "center": 2.0,
                                 "width": 0.45, "momentum": 2.0}
    cfg_dict["numerics"] = {"dt": 4e-3, "t_final": 0.1}
    cfg_dict["equivariance"] = {"n_samples": 1000, "checkpoints": [0.1],
                                "emit_samples": True}
    cfg_dict["seed"] = 12
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "eqs"
    assert main(["equivariance", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "angle"
    assert len(lines) == 1001


def test_evolve_spinor_state_through_runner(tmp_path):
    cfg_dict = {
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "ring", "n_points": 64},
        "factor": {"type": "spin_exp", "angle": math.pi / 2, "axis": [0, 0, 1]},
        "potential": {"type": "trig", "terms": [{"amplitude": 0.5, "harmonic": 1}]},
        "initial_state": {"type": "spinor_gaussian",
                          "amplitudes": [[0.8, 0], [0, 0.6]],
                          "center": 3.0, "width": 0.5},
        "numerics": {"dt": 1e-3, "t_final": 0.1},
    }
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "sp"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    state = read_json(out / "state.json")
    assert len(state["components"]) == 2
    assert state["twist"]["type"] == "matrix"


def test_equivariance_in_flux_scenario(tmp_path):
    cfg_dict = {
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "ring", "n_points": 256},
        "factor": {"type": "flux", "flux": math.pi, "charge": 1.0},
        "potential": {"type": "zero"},
        "initial_state": {"type": "gaussian", "center": 2.0, "width": 0.45,
                          "momentum": 2.0},
        "numerics": {"dt": 4e-3, "t_final": 0.2},
        "equivariance": {"n_samples": 2000, "checkpoints": [0.2]},
        "seed": 19,
    }
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "fq"
    assert main(["equivariance", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "equivariance.json")["passed"]


def test_two_particle_through_runner(tmp_path):
    cfg_dict = {
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "two_particle_ring", "n_points": 64},
        "factor": {"type": "exchange", "sign": -1},
        "potential": {"type": "pair_interaction",
                      "terms": [{"amplitude": 0.3, "harmonic": 1}]},
        "initial_state": {"type": "pair_gaussian", "centers": [2.0, 4.3],
                          "width": 0.5, "momenta": [1.0, -1.0]},
        "numerics": {"dt": 1e-3, "t_final": 0.05},
        "trajectories": {"starts": [[2.0, 4.3], [1.5, 4.0]],
                         "record_every": 10},
    }
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "tp"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    state = read_json(out / "state.json")
    assert state["twist"] == {"type": "exchange", "n": 2, "sign": -1}
    out2 = tmp_path / "tp2"
    assert main(["trajectories", "--config", cfg, "--out", str(out2)]) == 0
    lines = (out2 / "trajectories.csv").read_text().strip().splitlines()
    assert lines[0] == "trajectory,t,angle1,angle2,winding1,winding2,status"


def _assert_rows_match_lone_runs(cfg_dict, csv_path):
    scenario = Scenario(cfg_dict)
    nm = scenario.numerics
    tc = cfg_dict["trajectories"]
    expected = []
    for i, start in enumerate(tc["starts"]):
        alone = integrate_trajectories(scenario.initial_state(),
                                       scenario.potential, [start],
                                       nm.get("transport_dt", nm["dt"]),
                                       nm["t_final"], eps_node=nm["eps_node"],
                                       record_every=tc["record_every"])
        # Python's float % and // round as numpy's mod and floor_divide
        for t, q in zip(alone.times.tolist(), alone.positions[:, 0].tolist()):
            q = q if isinstance(q, list) else [q]
            expected.append(",".join(
                [str(i), f"{t:.9g}"]
                + [f"{x % (2 * math.pi):.12g}" for x in q]
                + [str(int(x // (2 * math.pi))) for x in q]
                + [alone.status[0]]))
    assert csv_path.read_text().strip().splitlines()[1:] == expected


def test_trajectory_bundle_rows_equal_lone_runs(tmp_path):
    cfg_dict = dict(BASE)
    cfg_dict["trajectories"] = {"starts": [1.0, 2.0, 3.0, 4.5],
                                "record_every": 10}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "traj"
    assert main(["trajectories", "--config", cfg, "--out", str(out)]) == 0
    _assert_rows_match_lone_runs(cfg_dict, out / "trajectories.csv")


def test_two_particle_bundle_rows_equal_lone_runs(tmp_path):
    cfg_dict = {
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "two_particle_ring", "n_points": 64},
        "factor": {"type": "exchange", "sign": -1},
        "potential": {"type": "pair_interaction",
                      "terms": [{"amplitude": 0.3, "harmonic": 1}]},
        "initial_state": {"type": "pair_gaussian", "centers": [2.0, 4.3],
                          "width": 0.5, "momenta": [1.0, -1.0]},
        "numerics": {"dt": 1e-3, "t_final": 0.05},
        "trajectories": {"starts": [[2.0, 4.3], [1.5, 4.0], [2.4, 4.8]],
                         "record_every": 10},
    }
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "tp"
    assert main(["trajectories", "--config", cfg, "--out", str(out)]) == 0
    _assert_rows_match_lone_runs(cfg_dict, out / "trajectories.csv")


def test_two_particle_asymmetric_potential_exits_three(tmp_path):
    cfg_dict = {
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "two_particle_ring", "n_points": 64},
        "factor": {"type": "exchange", "sign": -1},
        "potential": {"type": "pair_interaction",
                      "terms": [{"amplitude": 0.3, "harmonic": 1,
                                 "phase": 0.7}]},
        "initial_state": {"type": "pair_eigenstate", "n1": 0, "n2": 1},
        "numerics": {"dt": 1e-3, "t_final": 0.01},
    }
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["evolve", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3
