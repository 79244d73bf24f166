"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the residuals.
Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import json
import math

import numpy as np
import pytest
import scipy.stats

from oracles import SheetWindowIntegrator, crank_nicolson_evolve, homomorphism_residual
from topobohm.covering import TWO_PI
from topobohm.errors import NonUnimodularFactorError
from topobohm.factors import (
    Character,
    FiniteGroup,
    MatrixRep,
    TwistedRepTable,
    enumerate_characters,
    random_unitary,
    verify_twisted_law,
)
from topobohm.covering import CoveringSpace
from topobohm.spaces import RingGrid
from topobohm.propagation import (
    Potential,
    angle_grid,
    evolve,
    gauge_map,
    make_gaussian_state,
    spectrum,
    symmetrized_product_state,
    twist_embed,
    wrapped_gaussian,
)
from topobohm.trajectories import integrate_trajectories
from topobohm.ensembles import verify_equivariance
from topobohm.collapse import simulate_grw, total_rate
from topobohm.scenario import SCENARIO_SCHEMA_TAG, spin_exponential, PAULI
from topobohm.cli import main as cli_main


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_01_twisted_spectrum():
    """Lowest 8 levels match ((n + beta/2pi))^2 / 2 at 1e-8 relative."""
    worst = 0.0
    for beta in (0.0, np.pi / 2, np.pi):
        levels = spectrum(Character.ring(beta), Potential.zero(),
                          n_levels=8, n_points=256)
        exact = np.sort([(n + beta / TWO_PI) ** 2 / 2.0
                         for n in range(-8, 9)])[:8]
        err = np.max(np.abs(levels - exact) / np.maximum(1.0, np.abs(exact)))
        worst = max(worst, float(err))
        assert err <= 1e-8
    half_turn = spectrum(Character.ring(np.pi), Potential.zero(), 2)
    assert half_turn[0] == pytest.approx(0.125, abs=1e-10)
    assert half_turn[1] == pytest.approx(0.125, abs=1e-10)
    report("twisted-spectrum",
           f"max relative error {worst:.2e} <= 1e-8; "
           "beta=pi ground level 0.125 doubly degenerate")


def test_02_gauge_equivalence():
    """Flux-gauge and twisted-gauge runs agree in trajectories and spectra."""
    flux, charge = np.pi, 1.0
    state_a = make_gaussian_state(Character.ring(-charge * flux), 3.0, 0.6, 1.0)
    state_t = gauge_map(state_a)
    starts = np.linspace(0.0, TWO_PI, 5, endpoint=False)
    bundle_a = integrate_trajectories(state_a, Potential.zero(), starts, 1e-3, 1.0)
    bundle_t = integrate_trajectories(state_t, Potential.zero(), starts, 1e-3, 1.0)
    deviation = float(np.max(np.abs(bundle_a.positions - bundle_t.positions)))
    assert deviation <= 1e-6
    spec_a = spectrum(Character.ring(-charge * flux), Potential.zero(), 8)
    spec_t = spectrum(Character.ring(state_t.beta), Potential.zero(), 8)
    spec_diff = float(np.max(np.abs(np.sort(spec_a) - np.sort(spec_t))))
    assert spec_diff <= 1e-10
    report("gauge-equivalence",
           f"sup trajectory deviation {deviation:.2e} <= 1e-6 over t<=1; "
           f"spectrum difference {spec_diff:.2e} <= 1e-10")


def test_03_flux_periodicity():
    """Spectra at flux and flux + 2 pi coincide as sets."""
    worst = 0.0
    for flux in (0.0, 1.234, np.pi):
        a = spectrum(Character.ring(-flux), Potential.zero(), 8)
        b = spectrum(Character.ring(-(flux + TWO_PI)), Potential.zero(), 8)
        worst = max(worst, float(np.max(np.abs(np.sort(a) - np.sort(b)))))
    assert worst <= 1e-10
    report("flux-periodicity", f"max sorted-spectrum difference {worst:.2e}")


def test_04_character_laws():
    """Homomorphism residual <= 1e-12 on 10^3 seeded pairs per group."""
    cases = [
        ("ring", Character.ring(0.9), RingGrid(sheet_window=40)),
        ("free-2", Character.free([np.exp(0.4j), np.exp(-1.1j)]),
         CoveringSpace.free_cover(2)),
        ("nfermion-3", Character.nfermion(3, [np.exp(0.8j)], sign=-1),
         CoveringSpace.nfermion_cover(3, 1)),
    ]
    worst = 0.0
    for name, factor, space in cases:
        res = homomorphism_residual(factor, space, n_pairs=1000, seed=1)
        worst = max(worst, res)
        assert res <= 1e-12, name
    for group in (FiniteGroup.symmetric(3), FiniteGroup.symmetric(4)):
        for char in enumerate_characters(group):
            res = char.homomorphism_residual()
            worst = max(worst, res)
            assert res <= 1e-12
    with pytest.raises(NonUnimodularFactorError):
        Character.free([1.1])
    report("character-laws",
           f"worst homomorphism residual {worst:.2e} <= 1e-12; "
           "non-unimodular value rejected at construction")


def test_05_character_census():
    """S3 and S4 each have exactly the trivial and the sign character."""
    n3 = len(enumerate_characters(FiniteGroup.symmetric(3)))
    n4 = len(enumerate_characters(FiniteGroup.symmetric(4)))
    assert n3 == 2 and n4 == 2
    report("character-census", f"S3 -> {n3} characters, S4 -> {n4} characters")


def test_06_twisted_composition():
    """Two-fermion table obeys the twisted law; corruption is detected."""
    rng = np.random.default_rng(12)
    table = TwistedRepTable.nfermion(2, 2, [random_unitary(2, rng)])
    residual = verify_twisted_law(table, samples=1000, seed=2)
    assert residual <= 1e-12
    sigma = table.space.random_deck(np.random.default_rng(3))
    corrupted = verify_twisted_law(table.corrupted(sigma, 1j * np.eye(4)),
                                   samples=1000, seed=2)
    assert corrupted > 0.1
    report("twisted-composition",
           f"residual {residual:.2e} <= 1e-12 over 10^3 pairs; "
           f"corrupted-entry residual {corrupted:.2f} > 0.1")


def test_07_commutation_gate(tmp_path):
    """Non-commuting factor/potential pairs are refused; commuting pairs
    preserve the twist; the ungauged reference shows the decay."""
    # refusal with exit code 3 through the runner
    cfg = {
        "schema": SCENARIO_SCHEMA_TAG,
        "space": {"kind": "ring", "n_points": 64},
        "factor": {"type": "spin_exp", "angle": math.pi / 2, "axis": [0, 0, 1]},
        "potential": {"type": "matrix_const",
                      "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        "initial_state": {"type": "spinor_gaussian",
                          "amplitudes": [[1, 0], [0, 0.5]],
                          "center": 3.0, "width": 0.5},
        "numerics": {"dt": 1e-3, "t_final": 0.05},
    }
    path = tmp_path / "incompatible.json"
    path.write_text(json.dumps(cfg))
    code = cli_main(["evolve", "--config", str(path),
                     "--out", str(tmp_path / "o")])
    assert code == 3

    # commuting scalar potential: twist survives 10^4 steps
    rep = MatrixRep.ring(spin_exponential(math.pi / 2, [0, 0, 1]))
    profile = wrapped_gaussian(angle_grid(256), 3.0, 0.5, 1.0)
    state = twist_embed([profile, 0.5 * profile], rep)
    v = Potential.from_callable(lambda t: 0.5 * np.cos(t), 256)
    out = evolve(state, v, 1e-3, 10_000)
    twist = out.twist_residual()
    assert twist <= 1e-9

    # negative control in the ungauged cover-sheet reference
    chi = wrapped_gaussian(angle_grid(64), np.pi, 0.5)
    chi /= np.sqrt(np.sum(np.abs(chi) ** 2) * TWO_PI / 64)
    integ = SheetWindowIntegrator(rep, PAULI["x"], n_points=64)
    _, history = integ.run(chi, 1e-3, 100)
    broken = history[-1][1]
    assert broken > 1e-3
    report("commutation-gate",
           f"incompatible pair exits 3; twist residual {twist:.2e} <= 1e-9 "
           f"over 10^4 steps; ungauged reference residual {broken:.2e} > 1e-3 "
           "within 100 steps")


def test_08_equivariance():
    """Transported ensemble tracks |psi_t|^2 within the Monte Carlo band."""
    n = 10_000
    state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0)
    rep = verify_equivariance(state, Potential.zero(), n, 1.0,
                              [0.25, 0.5, 1.0], seed=42, dt=2e-3)
    threshold = 0.03 + 2 * math.sqrt(64 / n)
    assert rep.valid
    assert max(rep.tv_values) <= threshold
    neg = verify_equivariance(state, Potential.zero(), 2000, 0.5, [0.5],
                              seed=42, dt=2e-3, velocity_factor=-1.0)
    assert neg.tv_values[0] > 0.2
    report("equivariance",
           f"TV at checkpoints {[f'{v:.3f}' for v in rep.tv_values]} "
           f"<= {threshold:.3f}; sign-flipped control TV "
           f"{neg.tv_values[0]:.2f} > 0.2")


def test_09_unitarity_and_symmetry():
    """Norm drift and exchange-sector residuals stay within budget."""
    v = Potential.from_callable(lambda t: 0.5 * np.cos(t), 256)
    state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0)
    out = evolve(state, v, 1e-3, 10_000)
    drift = abs(out.norm() - 1.0)
    assert drift <= 1e-7

    pair = symmetrized_product_state(
        lambda t: wrapped_gaussian(t, 2.0, 0.5, 1.0),
        lambda t: wrapped_gaussian(t, 4.3, 0.5, -1.0), -1, n_points=128)
    theta = angle_grid(128)
    pair_v = Potential.scalar(0.3 * np.add.outer(np.cos(theta), np.cos(theta)),
                              label="pair")
    pair_out = evolve(pair, pair_v, 1e-3, 1000)
    sector = pair_out.twist_residual()
    diagonal = float(np.max(np.abs(np.diag(pair_out.values))))
    assert sector <= 1e-9
    assert diagonal <= 1e-9
    report("unitarity-symmetry",
           f"norm drift {drift:.2e} <= 1e-7 over 10^4 steps; antisymmetric "
           f"sector residual {sector:.2e} and diagonal node {diagonal:.2e} "
           "<= 1e-9 over 10^3 steps")


def test_10_grw_process():
    """Event counts follow the Poisson law; collapses preserve the sectors."""
    lam, a = 1.0, 0.3
    state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                n_points=128)
    mean_rate = total_rate(state.normalized(), lam, a)
    t_final = 5.0 / mean_rate          # mean event count ~ 5 per run
    n_runs = 200
    counts = []
    worst_twist = 0.0
    for k in range(n_runs):
        result = simulate_grw(state, Potential.zero(), t_final, lam, a,
                              seed=5000 + k, dt=2e-3)
        counts.append(result.n_events)
        worst_twist = max(worst_twist, result.max_twist_residual)
    total = sum(counts)
    mu = n_runs * mean_rate * t_final
    p_lo = scipy.stats.poisson.cdf(total, mu)
    p_hi = scipy.stats.poisson.sf(total - 1, mu)
    p_value = 2 * min(p_lo, p_hi)
    assert p_value > 0.001
    assert worst_twist <= 1e-9

    pair = symmetrized_product_state(
        lambda t: wrapped_gaussian(t, 2.0, 0.5),
        lambda t: wrapped_gaussian(t, 4.3, 0.5), -1, n_points=64)
    worst_exchange = 0.0
    for k in range(20):
        result = simulate_grw(pair, Potential.zero(), 1.0, lam, a,
                              seed=7000 + k, dt=2e-3)
        worst_exchange = max(worst_exchange, result.max_twist_residual)
    assert worst_exchange <= 1e-9
    report("grw-process",
           f"total {total} events over {n_runs} runs vs Poisson mean "
           f"{mu:.0f}: p = {p_value:.3f} > 0.001; twist residual "
           f"{worst_twist:.2e} and exchange residual {worst_exchange:.2e} "
           "<= 1e-9 at every event")


def test_11_cross_integrator():
    """Split-step agrees with the dense Crank-Nicolson oracle."""
    v = Potential.from_callable(lambda t: 0.3 * np.cos(t), 64)
    state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.8, 0.5,
                                n_points=64)
    a = evolve(state, v, 1e-3, 1000)
    b = crank_nicolson_evolve(state, v, 1e-3, 1000)
    diff = float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.dx))
    assert diff <= 1e-6
    report("cross-integrator",
           f"L2 difference {diff:.2e} <= 1e-6 at t=1, dt=1e-3, 64 points")
