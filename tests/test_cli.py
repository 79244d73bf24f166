"""Batch runner: exit codes, artifacts, manifests, reproducibility."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from topobohm import scenario as scenario_module
from topobohm.cli import main, write_json
from topobohm.propagation import Potential, evolve, state_from_dict
from topobohm.scenario import PAULI, SCENARIO_SCHEMA_TAG, Scenario
from topobohm.trajectories import integrate_trajectory

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
        from topobohm import cli

        def broken(scenario, ctx):
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(cli.COMMANDS, "evolve", broken)
        cfg = write_config(tmp_path, BASE)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err.strip() == \
            "error[internal]: RuntimeError: disk on fire"
        manifest = read_json(tmp_path / "o" / "manifest.json")
        cli.validate_manifest(manifest)
        assert manifest["status"] == "failed"
        assert manifest["failure"]["family"] == "internal"
        assert "disk on fire" in manifest["failure"]["traceback"]

    def test_unwritable_output_is_five(self, tmp_path, capsys, monkeypatch):
        # the artifacts and then the failure manifest cannot be written
        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        cfg = write_config(tmp_path, BASE)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err.strip() == \
            "error[internal]: OSError: no space left on device"


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


def test_ab_compare_spectra_use_the_scenario_radius(tmp_path, monkeypatch):
    from topobohm import cli
    radii = []
    real_spectrum = cli.spectrum

    def recording(*args, **kwargs):
        radii.append(kwargs.get("radius", 1.0))
        return real_spectrum(*args, **kwargs)

    monkeypatch.setattr(cli, "spectrum", recording)
    cfg_dict = dict(BASE, space={"kind": "ring", "n_points": 64, "radius": 2.0},
                    factor={"type": "character", "beta": 0.0},
                    numerics={"dt": 1e-3, "t_final": 0.02})
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["ab-compare", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 0
    assert radii == [2.0, 2.0]


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

    def test_word_length_cap_is_accepted_and_ignored(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(
            scenario_module, "build_potential",
            lambda cfg, n: Potential.covariant(spanning_covariant_field(n)))
        written = []
        for name, numerics in (("plain", {}), ("capped", {"word_length_cap": 1})):
            cfg_dict = dict(BASE, factor={"type": "spin_exp", "angle": 0.7,
                                          "axis": [1, 0, 0]},
                            initial_state=SPINOR, numerics=numerics)
            cfg = write_config(tmp_path, cfg_dict, f"{name}.json")
            out = tmp_path / name
            assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
            written.append((out / "classification.json").read_bytes())
        assert written[0] == written[1]

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


def test_grw_accepts_and_ignores_bound_refresh(tmp_path):
    artifacts = []
    # lam 10: about 15 expected events, so events.csv has rows to compare
    for name, grw in (("plain", {"lam": 10.0, "a": 0.3}),
                      ("refresh", {"lam": 10.0, "a": 0.3, "bound_refresh": 50})):
        cfg_dict = dict(BASE, seed=4, numerics={"dt": 2e-3, "t_final": 2.0},
                        grw=grw)
        cfg = write_config(tmp_path, cfg_dict, f"{name}.json")
        out = tmp_path / name
        assert main(["grw", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "grw_log.json").exists()
        artifacts.append({f: (out / f).read_bytes()
                          for f in ("events.csv", "state.json")})
    assert artifacts[0] == artifacts[1]
    assert len(artifacts[0]["events.csv"].splitlines()) > 1  # some events


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


def test_console_entry_point(tmp_path, src_env):
    result = subprocess.run(
        [sys.executable, "-m", "topobohm.cli", "spectrum", "--beta", "0",
         "--out", str(tmp_path / "o")],
        env=src_env, capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "ok"


@pytest.mark.parametrize("argv", [
    ["evolve", "--allow-aperiodic"],
    ["spectrum", "--beta", "0", "--allow-aperiodic"],
    ["collapse", "--seed", "1"],
], ids=["aperiodic-evolve", "aperiodic-spectrum", "unknown-subcommand"])
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
# prints, per label, the exit code and whether scipy and scipy.linalg are
# loaded by then; "import" is the state right after importing the runner.
COLD_START_CHILD = """
import contextlib, io, json, sys
import topobohm, topobohm.cli

def loaded():
    return ["scipy" in sys.modules, "scipy.linalg" in sys.modules]

seen = {"import": [0] + loaded()}
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = topobohm.cli.main(argv)
    seen[label] = [code] + loaded()
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_matrix_work(tmp_path, src_env):
    # a character or flux run factors no matrix, so it must not pay for
    # loading scipy; a matrix factor needs its Schur form and loads it
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
    for label, (code, has_scipy, _) in seen.items():
        assert (code, has_scipy) == (0, False), label
    assert spinor_seen == [0, True, True]


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TOPOBOHM_OUT", str(tmp_path / "envout"))
    assert main(["spectrum", "--beta", "0"]) == 0
    assert (tmp_path / "envout" / "spectrum.csv").exists()


def test_manifest_validates_against_schema(tmp_path):
    from topobohm.cli import validate_manifest
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "mv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    validate_manifest(read_json(out / "manifest.json"))


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
        traj = integrate_trajectory(scenario.initial_state(),
                                    scenario.potential, start,
                                    nm.get("transport_dt", nm["dt"]),
                                    nm["t_final"], eps_node=nm["eps_node"],
                                    record_every=tc["record_every"])
        expected.extend(",".join(map(str, (i,) + row))
                        for row in traj.csv_rows())
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
