"""Twisted propagation: embedding, stepping, spectra, gauge maps, references."""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    cover_evolve,
    crank_nicolson_evolve,
    fold,
    gauge_unmap,
    lift,
    unitary_fractional_power,
)
from topobohm import propagation
from topobohm.collapse import apply_collapse
from topobohm.covering import TWO_PI
from topobohm.errors import (
    ConfigError,
    IncompatibleFactorError,
    PhysicsError,
    ToleranceError,
)
from topobohm.factors import (
    Character,
    MatrixRep,
    max_abs,
    random_unitary,
    unitary_eig,
)
from topobohm.propagation import (
    Potential,
    WaveGrid,
    angle_grid,
    evolve,
    gauge_map,
    make_eigenstate,
    make_gaussian_state,
    make_two_particle_state,
    pair_eigenstate,
    spectrum,
    state_from_dict,
    state_to_dict,
    symmetrized_product_state,
    twist_embed,
    wrapped_gaussian,
    _hamiltonian_blocks,
    _potential_half_phase,
    _sector_potential,
)
from topobohm.scenario import PAULI, spin_exponential
from topobohm.spaces import PairGrid, RingGrid


def l2_diff(a, b):
    return float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.dx))


def bits(a):
    """The raw 64-bit words of an array, so -0.0 and 0.0 count as different."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestTwistEmbed:
    def test_constant_profile_gives_eigenstate_family(self):
        beta = 1.3
        n = 64
        chi = np.full(n, 1.0 / math.sqrt(TWO_PI), dtype=complex)
        state = twist_embed(chi, Character.ring(beta))
        psi = state.psi()[0]
        theta = state.theta
        assert np.allclose(psi, np.exp(1j * beta * theta / TWO_PI) / math.sqrt(TWO_PI))
        assert state.twist_residual() <= 1e-12

    def test_trivial_character_is_plain_grid(self):
        chi = wrapped_gaussian(angle_grid(64), 3.0, 0.5)
        state = twist_embed(chi, Character.ring(0.0))
        assert np.allclose(state.psi()[0], state.values[0])

    def test_spinor_splits_into_character_sectors(self):
        phi = 0.9
        rep = MatrixRep.ring(spin_exponential(phi, [0, 0, 1]))
        chi = wrapped_gaussian(angle_grid(64), 3.0, 0.5)
        state = twist_embed([chi, 0.5 * chi], rep)
        assert sorted(np.round(state.sector_betas, 12)) == pytest.approx(
            sorted([-phi, phi]))
        assert state.twist_residual() <= 1e-9

    def test_cover_data_embedding_round_trip(self):
        beta = 2.1
        theta = angle_grid(64)
        chi = wrapped_gaussian(theta, 2.0, 0.6, 1.0)
        psi = np.exp(1j * beta * theta / TWO_PI) * chi
        state = twist_embed(psi, Character.ring(beta), data_is_periodic=False)
        reference = twist_embed(chi, Character.ring(beta))
        assert l2_diff(state, reference) <= 1e-12

    def test_zero_or_non_finite_data_is_refused(self):
        for data in (np.zeros(64), np.full(64, np.nan)):
            with pytest.raises(ConfigError, match="norm"):
                twist_embed(data, Character.ring(0.3))

    def test_nan_values_give_a_nan_twist_residual(self):
        state = make_gaussian_state(Character.ring(0.3), 3.0, 0.5, n_points=64)
        values = state.values.copy()
        values[0, 5] = np.nan
        assert math.isnan(state.with_values(values).twist_residual())

    def test_power_of_two_enforced(self):
        with pytest.raises(ConfigError, match="power of two"):
            twist_embed(np.ones(100, dtype=complex), Character.ring(0.0))

    def test_component_count_must_match_the_sectors(self):
        # a spinor cut to one component would step as two by broadcasting
        rep = MatrixRep.ring(spin_exponential(0.9, [1, 0, 0]))
        chi = wrapped_gaussian(angle_grid(64), 3.0, 0.5)
        state = twist_embed([chi, 0.5 * chi], rep)
        with pytest.raises(ConfigError, match="sector angles"):
            state.with_values(state.values[:1])
        with pytest.raises(ConfigError, match="sector angles"):
            replace(state, sector_betas=state.sector_betas[:1])
        with pytest.raises(ConfigError, match="sector angles"):
            replace(state, sector_basis=state.sector_basis[:, :1])


class TestSplitStep:
    def test_twisted_ground_phase_rotation(self):
        # E_0 = (1/2)^2 / 2 = 1/8 for the half-turn twist
        state = make_eigenstate(0, Character.ring(np.pi))
        dt = 1e-3
        stepped = evolve(state, Potential.zero(), dt, 1)
        phase = np.angle(stepped.values[0, 0] / state.values[0, 0])
        assert phase == pytest.approx(-0.125 * dt, abs=1e-15)

    def test_plain_first_mode_phase(self):
        state = make_eigenstate(1, Character.ring(0.0))
        stepped = evolve(state, Potential.zero(), 1e-3, 50)
        phase = np.angle(stepped.values[0, 1] / state.values[0, 1])
        assert phase == pytest.approx(-0.5 * 0.05, abs=1e-12)

    def test_gaussian_dispersion_matches_free_line(self):
        # width^2(t) = w0^2 (1 + (t / 2 w0^2)^2) while wrap-around is negligible
        w0 = 0.25
        state = make_gaussian_state(Character.ring(0.0), np.pi, w0, 0.0)
        theta = state.theta
        dt, n_steps = 1e-3, 200
        evolved = evolve(state, Potential.zero(), dt, n_steps)
        t = dt * n_steps
        rho = evolved.density()
        rho /= np.sum(rho) * evolved.dx
        mean = np.sum(theta * rho) * evolved.dx
        var = np.sum((theta - mean) ** 2 * rho) * evolved.dx
        expected = w0 ** 2 * (1.0 + (t / (2 * w0 ** 2)) ** 2)
        assert abs(var - expected) <= 1e-4

    def test_norm_conserved_per_step(self):
        v = Potential.from_callable(lambda t: 0.5 * np.cos(t), 256)
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0)
        for _ in range(20):
            state = evolve(state, v, 1e-3, 1)
            assert abs(state.norm() - 1.0) <= 1e-10

    def test_long_run_norm_and_twist(self):
        v = Potential.from_callable(lambda t: 0.5 * np.cos(t), 256)
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0)
        out = evolve(state, v, 1e-3, 10_000)
        assert abs(out.norm() - 1.0) <= 1e-7
        assert out.twist_residual() <= 1e-9

    def test_incompatible_matrix_potential_refused(self, pauli):
        rep = MatrixRep.ring(spin_exponential(np.pi / 2, [0, 0, 1]))
        chi = wrapped_gaussian(angle_grid(64), 3.0, 0.5)
        state = twist_embed([chi, chi], rep)
        v = Potential.matrix_constant(pauli["x"], 64)
        with pytest.raises(IncompatibleFactorError, match="commute"):
            evolve(state, v, 1e-3, 1)

    def test_gate_checks_every_grid_point(self, pauli):
        rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
        chi = wrapped_gaussian(angle_grid(64), 3.0, 0.5)
        state = twist_embed([chi, 0.3 * chi], rep)
        field = np.broadcast_to(pauli["z"], (64, 2, 2)).copy()
        field[1] = pauli["x"]
        with pytest.raises(IncompatibleFactorError, match="commute"):
            evolve(state, Potential.matrix_field(field), 1e-3, 1)

    def test_commuting_matrix_potential_runs(self, pauli):
        rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
        chi = wrapped_gaussian(angle_grid(64), 3.0, 0.5)
        state = twist_embed([chi, 0.3 * chi], rep)
        v = Potential.matrix_constant(pauli["z"], 64)
        out = evolve(state, v, 1e-3, 100)
        assert abs(out.norm() - 1.0) <= 1e-10
        assert out.twist_residual() <= 1e-9

    @pytest.mark.parametrize("n", [256, 32])  # FFT path, dense path
    @pytest.mark.parametrize("factor_case", ["tilted-spin-exp", "scalar-matrix"])
    def test_commuting_matrix_potential_closed_form(self, pauli, n, factor_case):
        # V = a I + b e.sigma commutes with the factor and with T, so the
        # exact evolution is exp(-i V t) exp(-i T t) chi0, where T acts on
        # the eigenspace projector P_s of the factor with twist angle beta_s.
        # A commuting V is diagonal in a non-degenerate factor's sectors, so
        # only the scalar-matrix factor e^{i phi} I gives the kick
        # off-diagonal (complex, non-symmetric) sector entries.
        tilted = np.array([0.48, 0.6, 0.64])
        e_sigma = sum(c * pauli[ax] for c, ax in zip(tilted, "xyz"))
        if factor_case == "tilted-spin-exp":
            angle = 0.9
            rep = MatrixRep.ring(spin_exponential(angle, tilted))
            sectors = [(-angle, (np.eye(2) + e_sigma) / 2),
                       (angle, (np.eye(2) - e_sigma) / 2)]
        else:
            rep = MatrixRep.ring(np.exp(0.7j) * np.eye(2))
            sectors = [(0.7, np.eye(2))]
        v_matrix = 0.3 * np.eye(2) + 1.1 * e_sigma
        theta = angle_grid(n)
        state = twist_embed(
            [wrapped_gaussian(theta, 3.0, 0.5, 2.0),
             0.5j * wrapped_gaussian(theta, 2.0, 0.4, -1.0)], rep)
        t_final, n_steps = 0.5, 500
        out = evolve(state, Potential.matrix_constant(v_matrix, n),
                     t_final / n_steps, n_steps)
        dense = out._split_step.matrix is not None
        assert dense is (n == 32)
        chi0 = state.sector_basis @ state.values
        modes = np.fft.fftfreq(n, d=1.0 / n)
        free = sum(projector @ np.fft.ifft(np.exp(
                       -0.5j * t_final * (modes + beta / TWO_PI) ** 2)
                       * np.fft.fft(chi0, axis=1), axis=1)
                   for beta, projector in sectors)
        exact = scipy.linalg.expm(-1j * t_final * v_matrix) @ free
        assert max_abs(out.sector_basis @ out.values - exact) <= 1e-9

    def test_covariant_potential_against_exact_propagator(self, pauli):
        # gauge-fixed covariant field: constant sigma_z coupling the sectors
        # of an x-axis twist; cross-checked against the dense eigenpropagator
        rep = MatrixRep.ring(spin_exponential(0.6, [1, 0, 0]))
        n = 64
        chi = wrapped_gaussian(angle_grid(n), 3.0, 0.6)
        state = twist_embed([chi, 0.4 * chi], rep)
        w_field = np.broadcast_to(pauli["z"], (n, 2, 2)).copy()
        v = Potential.covariant(w_field)
        out = evolve(state, v, 1e-3, 250)
        assert out.twist_residual() <= 1e-9
        h = _hamiltonian_blocks(state, v)[0]
        h = (h + h.conj().T) / 2
        w, q = np.linalg.eigh(h)
        flat = state.values.reshape(-1)
        exact = (q @ (np.exp(-1j * w * 0.25) * (q.conj().T @ flat))).reshape(2, n)
        assert np.sqrt(np.sum(np.abs(out.values - exact) ** 2) * out.dx) <= 1e-6

    def test_strang_second_order(self):
        v = Potential.from_callable(lambda t: 0.8 * np.cos(t) + 0.3 * np.sin(2 * t), 128)
        state = make_gaussian_state(Character.ring(np.pi / 2), 2.5, 0.7, 1.0,
                                    n_points=128)
        h = _hamiltonian_blocks(state, v)[0]
        h = (h + h.conj().T) / 2
        w, q = np.linalg.eigh(h)
        t_final = 0.25
        exact = (q @ (np.exp(-1j * w * t_final) * (q.conj().T @ state.values[0])))
        errs = []
        for dt in (2e-3, 1e-3):
            n = int(round(t_final / dt))
            out = evolve(state, v, dt, n)
            errs.append(np.sqrt(np.sum(np.abs(out.values[0] - exact) ** 2) * out.dx))
        ratio = errs[0] / errs[1]
        assert 3.2 <= ratio <= 4.8


def _memo_case(name):
    """A state and a potential for each layout the split step handles."""
    n = 64
    theta = angle_grid(n)
    chi = wrapped_gaussian(theta, 3.0, 0.5, 1.0)
    sigma_z = np.diag([1.0, -1.0])
    if name == "scalar-ring":
        return (make_gaussian_state(Character.ring(np.pi / 3), 3.0, 0.5, 1.0,
                                    n_points=n),
                Potential.from_callable(lambda t: 0.4 * np.cos(t), n))
    if name == "spinor-matrix":
        # a field commuting with a z-axis factor, varying along the ring
        field = (np.cos(theta)[:, None, None] * sigma_z
                 + np.sin(2 * theta)[:, None, None] * np.eye(2))
        rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
        return (twist_embed([chi, 0.4j * chi], rep),
                Potential.matrix_field(field))
    if name == "spinor-covariant":
        rep = MatrixRep.ring(spin_exponential(0.6, [1, 0, 0]))
        return (twist_embed([chi, 0.4 * chi], rep),
                Potential.covariant(np.broadcast_to(sigma_z, (n, 2, 2))))
    one = 0.3 * np.cos(angle_grid(32))
    return (symmetrized_product_state(
                lambda t: np.exp(-(t - 2.0) ** 2), lambda t: np.exp(-(t - 4.0) ** 2),
                -1, n_points=32),
            Potential.scalar(one[:, None] + one[None, :]))


class TestEvolveMemo:
    """An evolved state carries its set-up, and ``evolve`` reuses it; no
    result may depend on that."""

    @pytest.mark.parametrize("name", ["scalar-ring", "spinor-matrix",
                                      "spinor-covariant", "antisymmetric-pair"])
    def test_chunked_calls_equal_one_call(self, name):
        state, potential = _memo_case(name)
        whole = evolve(state, potential, 1e-3, 100)
        chunked = evolve(evolve(state, potential, 1e-3, 37), potential, 1e-3, 63)
        assert np.array_equal(bits(chunked.values), bits(whole.values))

    @pytest.mark.parametrize("n_steps", [-5, -1, 2.5, 3.0])
    def test_step_count_must_be_a_nonnegative_integer(self, n_steps):
        state, potential = _memo_case("scalar-ring")
        with pytest.raises(ConfigError, match="nonnegative integer"):
            evolve(state, potential, 1e-3, n_steps)

    def test_zero_steps_return_the_state(self):
        state, potential = _memo_case("scalar-ring")
        assert evolve(state, potential, 1e-3, 0) is state
        cases = {"dense": (state, potential),
                 "spectral": _in_place_case("none", "ring", False),
                 "fft": _in_place_case("scalar", "ring", False)}
        for path, (state, potential) in cases.items():
            out = evolve(state, potential, 1e-3, np.int64(3))
            assert out._split_step.path == path
            assert np.array_equal(
                bits(out.values),
                bits(evolve(state, potential, 1e-3, 3).values))

    def test_the_set_up_rides_with_the_values(self):
        state, potential = _memo_case("spinor-matrix")
        assert state._split_step is None
        out = evolve(state, potential, 1e-3, 5)
        step = out._split_step
        assert step is not None and step.shape == state.values.shape
        assert out.normalized()._split_step is step
        assert evolve(out, potential, 1e-3, 5)._split_step is step
        assert replace(out, space=RingGrid(radius=2.0))._split_step is None

    def test_no_stale_set_up_is_served(self):
        state, potential = _memo_case("spinor-matrix")
        out = evolve(state, potential, 1e-3, 20)  # carries its set-up
        other_field = potential.values * 1.5
        variants = {
            "potential": (out, Potential.matrix_field(other_field), 1e-3),
            "dt": (out, potential, 2e-3),
            "sector_betas": (replace(out, sector_betas=out.sector_betas + 0.3),
                             potential, 1e-3),
            "sector_basis": (replace(out, sector_basis=out.sector_basis[:, ::-1]),
                             potential, 1e-3),
            # the field does not commute with an x-axis factor: refused
            "twist": (replace(out, twist=MatrixRep.ring(
                spin_exponential(0.7, [1, 0, 0]))), potential, 1e-3),
            "space": (replace(out, space=RingGrid(radius=2.0)),
                      potential, 1e-3),
            # new values keep the set-up; on a finer grid the 64-point
            # field no longer fits and is refused
            "grid_size": (out.with_values(np.repeat(out.values, 2, axis=1)),
                          potential, 1e-3),
        }

        def outcome(s, v, dt):
            try:
                return bits(evolve(s, v, dt, 20).values)
            except (ConfigError, IncompatibleFactorError) as exc:
                return type(exc)

        for name, (s, v, dt) in variants.items():
            carried = outcome(s, v, dt)
            fresh = outcome(replace(s), v, dt)  # replace drops the set-up
            if isinstance(fresh, np.ndarray):
                assert np.array_equal(carried, fresh), name
            else:
                assert carried is fresh, name

    def test_alternating_layouts_build_one_set_up_each(self, monkeypatch):
        # the ab-compare pattern: two states stepped in turn, one step each
        built = []
        original = propagation.SplitStep.__init__

        def counting_init(step, *args):
            built.append(args[0].values.shape)
            original(step, *args)

        monkeypatch.setattr(propagation.SplitStep, "__init__", counting_init)
        a, potential = _memo_case("scalar-ring")
        b = replace(a, twist=Character.ring(-7.3), sector_betas=np.array([-7.3]))
        for _ in range(5):
            a = evolve(a, potential, 1e-3, 1)
            b = evolve(b, potential, 1e-3, 1)
        assert len(built) == 2

    def test_potential_values_are_a_read_only_copy(self):
        arr = np.cos(angle_grid(64))
        potentials = (Potential.scalar(arr), Potential(kind="scalar", values=arr))
        for potential in potentials:
            with pytest.raises(ValueError):
                potential.values[0] = 5.0
        arr[0] = 5.0  # the caller's array stays writable, and apart
        assert all(potential.values[0] == 1.0 for potential in potentials)

    def test_incompatible_pair_refused_on_every_call(self, pauli):
        state, potential = _memo_case("spinor-matrix")
        out = evolve(state, potential, 1e-3, 1)
        cached = out._split_step
        refused = Potential.matrix_constant(pauli["x"], 64)
        for _ in range(2):
            with pytest.raises(IncompatibleFactorError):
                evolve(out, refused, 1e-3, 1)
        assert out._split_step is cached


def _kick_case(name):
    """A matrix-kick layout: a field varying along the ring, a covariant
    field coupling the sectors, or a random covariant field of a
    3-component factor."""
    if name != "three-component":
        return _memo_case(name)
    n = 64
    rng = np.random.default_rng(7)
    rep = MatrixRep.ring(random_unitary(3, rng))
    chi = wrapped_gaussian(angle_grid(n), 3.0, 0.5, 1.0)
    a = rng.normal(size=(n, 3, 3, 2)) @ [1, 1j]
    return (twist_embed([chi, 0.4j * chi, 0.2 * chi[::-1]], rep),
            Potential.covariant(a + np.conj(np.swapaxes(a, 1, 2))))


def _einsum_step(state, potential, dt, values):
    """Reference for ``SplitStep.apply``: the same V/2 - T - V/2 step with
    the half-kicks written as one einsum over the full (k, k, n) phase of
    the sector-basis field, whatever kind the step chose."""
    step = propagation.SplitStep(state, potential, dt)
    half_v = _potential_half_phase(
        "matrix", propagation._sector_field(state, potential), dt)

    def kick(v):
        return np.einsum("abn,...bn->...an", half_v, v)
    return kick(step.ifft(step.kinetic * step.fft(kick(values))))


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("name", ["spinor-matrix", "spinor-covariant",
                                  "three-component"])
def test_matrix_kick_equals_einsum(name, batch):
    # a field commuting with a non-degenerate factor kicks each sector by
    # its own phase; a field coupling the sectors takes the full kick
    state, potential = _kick_case(name)
    step = propagation.SplitStep(state, potential, 1e-2)
    assert step.kind == {"spinor-matrix": "diagonal"}.get(name, "matrix")
    rng = np.random.default_rng(11)
    values = rng.normal(size=batch + state.values.shape + (2,)) @ [1, 1j]
    expected = _einsum_step(state, potential, 1e-2, values)
    got = step.apply(values)
    assert got.shape == expected.shape
    assert max_abs(got - expected) <= 1e-14 * max_abs(expected)


def _spinor_evolve_case(n=4096):
    """The spinor-evolve layout: a tilted spin_exp factor, V = a I + b e.sigma
    constant on the ring."""
    tilted = np.array([0.48, 0.6, 0.64])
    e_sigma = sum(c * PAULI[ax] for c, ax in zip(tilted, "xyz"))
    rep = MatrixRep.ring(spin_exponential(1.3, tilted))
    theta = angle_grid(n)
    state = twist_embed([wrapped_gaussian(theta, 3.0, 0.5, 2.0),
                         0.5j * wrapped_gaussian(theta, 2.0, 0.4, -1.0)], rep)
    return state, Potential.matrix_constant(0.2 * np.eye(2) + 0.9 * e_sigma, n)


class TestDiagonalKick:
    """A field that keeps each character sector kicks by one (k, n) phase;
    every other field keeps the kick it had."""

    def test_near_commuting_field_keeps_the_matrix_kick(self, pauli):
        # an off-diagonal of 1e-12 passes the gate (COMMUTE_TOL) but is far
        # above rounding, so it is not dropped
        rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
        chi = wrapped_gaussian(angle_grid(64), 3.0, 0.5)
        state = twist_embed([chi, 0.4j * chi], rep)
        exact = Potential.matrix_constant(pauli["z"], 64)
        near = Potential.matrix_constant(pauli["z"] + 1e-12 * pauli["x"], 64)
        assert propagation.SplitStep(state, exact, 1e-3).kind == "diagonal"
        step = propagation.SplitStep(state, near, 1e-3)
        assert step.kind == "matrix" and step.half_v.shape == (2, 2, 64)

    def test_rotation_rounding_past_k_eps_takes_the_diagonal_kick(self):
        # a field drawn by the spinor-evolve workload: its sector-basis
        # remainder is 4.6 eps max|v|, past k eps but within the rounding
        # of the rotation that produced it
        axis = [0.13206532306221344, 0.9427892784581975, -0.3061161983115965]
        rep = MatrixRep.ring(spin_exponential(0.3104920555851662, axis))
        x = 0.11108287761136652 + 0.7929995823577797j
        v = np.array([[-0.31924044779809935, np.conj(x)],
                      [x, 0.19572089714004337]])
        chi = wrapped_gaussian(angle_grid(64), 3.0, 0.5)
        state = twist_embed([chi, 0.4j * chi], rep)
        potential = Potential.matrix_constant(v, 64)
        field = propagation._sector_field(state, potential)
        diag = np.diagonal(field, axis1=1, axis2=2)
        off = field - diag[:, :, None] * np.eye(2)
        assert max_abs(off) > 2 * np.finfo(float).eps * max_abs(field)
        assert propagation.SplitStep(state, potential, 1e-3).kind == "diagonal"

    def test_diagonal_step_equals_the_matrix_step(self):
        state, potential = _spinor_evolve_case()
        step = propagation.SplitStep(state, potential, 5e-4)
        assert step.kind == "diagonal" and step.half_v.shape == (2, 4096)
        expected = _einsum_step(state, potential, 5e-4, state.values)
        got = step.apply(state.values)
        assert max_abs(got - expected) <= 1e-14 * max_abs(expected)

    @pytest.mark.parametrize("n", [64, 512])  # dense path, FFT path
    def test_diagonal_run_in_chunks_equals_one_call(self, n):
        state, potential = _spinor_evolve_case(n)
        whole = evolve(state, potential, 1e-3, 100)
        assert whole._split_step.kind == "diagonal"
        assert (whole._split_step.matrix is not None) is (n == 64)
        chunked = evolve(evolve(state, potential, 1e-3, 37), potential, 1e-3, 63)
        assert np.array_equal(bits(chunked.values), bits(whole.values))

    @pytest.mark.parametrize("name", ["scalar-ring", "flux-ring", "pair"])
    def test_fields_without_a_matrix_step_as_written_out(self, name):
        # the scalar Strang step written out from its formulas, operands in
        # the package's order (numpy's complex product need not commute bit
        # for bit): the runs that never reach a matrix kick keep every bit
        dt = 1e-3
        if name == "pair":
            modes = np.fft.fftfreq(32, d=1.0 / 32)
            one = 0.3 * np.cos(angle_grid(32))
            v = one[:, None] + one[None, :]
            state = symmetrized_product_state(
                lambda t: np.exp(-(t - 2.0) ** 2),
                lambda t: np.exp(-(t - 4.0) ** 2), -1, n_points=32)
            kinetic = np.exp(-0.5j * dt * (modes[:, None] ** 2
                                           + modes[None, :] ** 2))
            fft, ifft = np.fft.fft2, np.fft.ifft2
        else:
            modes = np.fft.fftfreq(256, d=1.0 / 256)
            theta = angle_grid(256)
            beta = np.pi / 3 if name == "scalar-ring" else -7.3
            v = 0.4 * np.cos(theta) - 0.2 * np.sin(2 * theta)
            state = make_gaussian_state(Character.ring(beta), 3.0, 0.5, 1.0,
                                        n_points=256)
            kinetic = np.exp(-0.5j * dt * (
                modes[None, :] + np.array([beta])[:, None] / TWO_PI) ** 2)
            fft, ifft = np.fft.fft, np.fft.ifft
        out = evolve(state, Potential.scalar(v), dt, 50)
        assert out._split_step.kind == "scalar"
        half = np.exp(-0.5j * dt * v)
        values = state.values
        for _ in range(50):
            values = ifft(kinetic * fft(values * half)) * half
        assert out.values.tobytes() == values.tobytes()


def _dense_case(name):
    """Layouts of at most ``DENSE_STEP_MAX`` values."""
    if name == "scalar-ring":
        return (make_gaussian_state(Character.ring(np.pi / 3), 3.0, 0.5, 1.0,
                                    n_points=128),
                Potential.from_callable(lambda t: 0.4 * np.cos(t), 128))
    if name == "flux-unreduced":
        return (make_gaussian_state(Character.ring(-7.3), 3.0, 0.5, 1.0,
                                    n_points=128),
                Potential.from_callable(lambda t: 0.4 * np.sin(2 * t), 128))
    if name == "antisymmetric-pair":
        one = 0.3 * np.cos(angle_grid(8))
        return (symmetrized_product_state(
                    lambda t: np.exp(-(t - 2.0) ** 2),
                    lambda t: np.exp(-(t - 4.0) ** 2), -1, n_points=8),
                Potential.scalar(one[:, None] + one[None, :]))
    return _memo_case(name)


class TestDenseStep:
    """Small states step by one stored unitary; it is the FFT step's matrix."""

    @pytest.mark.parametrize("name", ["scalar-ring", "flux-unreduced",
                                      "spinor-matrix", "spinor-covariant",
                                      "antisymmetric-pair"])
    def test_dense_path_agrees_with_fft_path(self, name, monkeypatch):
        state, potential = _dense_case(name)
        assert state.values.size <= propagation.DENSE_STEP_MAX
        if name == "flux-unreduced":
            assert state.sector_betas[0] == -7.3
        dense = evolve(state, potential, 1e-3, 200)
        assert dense._split_step.matrix is not None
        monkeypatch.setattr(propagation, "DENSE_STEP_MAX", 0)
        fft = evolve(state, potential, 1e-3, 200)
        assert fft._split_step.matrix is None
        assert max_abs(dense.values - fft.values) <= 1e-12
        drift_dense = dense.norm() - state.norm()
        drift_fft = fft.norm() - state.norm()
        assert abs(drift_dense - drift_fft) <= 1e-12

    def test_cut_selects_by_state_size(self):
        for n, expect_matrix in ((128, True), (256, False)):
            state = make_gaussian_state(Character.ring(0.4), 3.0, 0.5,
                                        n_points=n)
            step = propagation.SplitStep(state, Potential.zero(), 1e-3)
            assert (step.matrix is not None) is expect_matrix
        spinor, field = _memo_case("spinor-matrix")  # 2 x 64 values
        matrix = propagation.SplitStep(spinor, field, 1e-3).matrix
        assert matrix.shape == (128, 128)
        assert max_abs(matrix @ matrix.conj().T - np.eye(128)) <= 1e-13
        pair, pair_field = _memo_case("antisymmetric-pair")  # 32 x 32 values
        assert propagation.SplitStep(pair, pair_field, 1e-3).matrix is None

    def test_blas_thread_count_does_not_change_the_result(self):
        script = (
            "import hashlib, numpy as np\n"
            "from topobohm.factors import Character\n"
            "from topobohm.propagation import Potential, evolve, "
            "make_gaussian_state\n"
            "state = make_gaussian_state(Character.ring(1.1), 3.0, 0.5, 1.0, "
            "n_points=128)\n"
            "v = Potential.from_callable(lambda t: 0.4 * np.cos(t), 128)\n"
            "out = evolve(state, v, 1e-3, 3000)\n"
            "print(hashlib.sha256(out.values.tobytes()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(propagation.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, check=True)
            digests.add(result.stdout.strip())
        assert len(digests) == 1


def _in_place_case(kind, layout, dense):
    """A state and potential whose step has the given kind, on the ring or
    the torus, of at most ``DENSE_STEP_MAX`` values (dense) or more."""
    if layout == "torus":
        n = 8 if dense else 16
        one = 0.3 * np.cos(angle_grid(n))
        state = symmetrized_product_state(
            lambda t: np.exp(-(t - 2.0) ** 2), lambda t: np.exp(-(t - 4.0) ** 2),
            -1, n_points=n)
        return state, (Potential.zero() if kind == "none"
                       else Potential.scalar(one[:, None] + one[None, :]))
    if kind == "diagonal":
        return _spinor_evolve_case(64 if dense else 128)
    if kind == "matrix":  # a covariant field coupling three sectors
        n = 32 if dense else 64
        rng = np.random.default_rng(7)
        rep = MatrixRep.ring(random_unitary(3, rng))
        chi = wrapped_gaussian(angle_grid(n), 3.0, 0.5, 1.0)
        a = rng.normal(size=(n, 3, 3, 2)) @ [1, 1j]
        return (twist_embed([chi, 0.4j * chi, 0.2 * chi[::-1]], rep),
                Potential.covariant(a + np.conj(np.swapaxes(a, 1, 2))))
    n = 128 if dense else 256
    state = make_gaussian_state(Character.ring(0.7), 3.0, 0.5, 1.0, n_points=n)
    return state, (Potential.zero() if kind == "none"
                   else Potential.from_callable(lambda t: 0.4 * np.cos(t), n))


def _out_of_place_step(step, values, torus):
    """The split step as it was written before it worked in place: every
    operation makes a new array, each multiply in the package's operand
    order."""
    def kick(v):
        if step.kind == "none":
            return v
        if step.kind in ("scalar", "diagonal"):
            return v * step.half_v
        out = step.half_v[:, 0] * v[..., 0:1, :]
        for b in range(1, step.half_v.shape[1]):
            out += step.half_v[:, b] * v[..., b:b + 1, :]
        return out
    fft, ifft = (np.fft.fft2, np.fft.ifft2) if torus else (np.fft.fft,
                                                           np.fft.ifft)
    return kick(ifft(step.kinetic * fft(kick(values))))


_IN_PLACE_CASES = [(kind, layout, dense)
                   for kind, layout in (("none", "ring"), ("scalar", "ring"),
                                        ("diagonal", "ring"),
                                        ("matrix", "ring"), ("none", "torus"),
                                        ("scalar", "torus"))
                   for dense in (True, False)]


class TestInPlaceStep:
    """``apply`` works in place on the one array it allocates: it writes
    nothing it was given and keeps every bit of the out-of-place step."""

    @pytest.mark.parametrize("kind,layout,dense", _IN_PLACE_CASES)
    def test_apply_writes_only_its_own_array(self, kind, layout, dense):
        state, potential = _in_place_case(kind, layout, dense)
        step = propagation.SplitStep(state, potential, 1e-3)
        assert step.kind == kind
        assert (step.matrix is not None) is dense
        torus = layout == "torus"
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(3,) + state.values.shape + (2,)) @ [1, 1j]
        for values in (state.values, batch):
            before = values.copy()
            got = step.apply(values)
            assert got is not values
            assert np.array_equal(bits(values), bits(before))
            expected = _out_of_place_step(step, before, torus)
            assert np.array_equal(bits(got), bits(expected))
        if dense:  # the matrix's rows are the out-of-place steps of the units
            size = state.values.size
            units = np.eye(size, dtype=complex).reshape((size,) + step.shape)
            expected = _out_of_place_step(step, units, torus)
            assert np.array_equal(bits(step.matrix),
                                  bits(expected.reshape(size, size)))

    @pytest.mark.parametrize("kind,layout,dense", _IN_PLACE_CASES)
    def test_evolve_keeps_the_out_of_place_bits(self, kind, layout, dense):
        state, potential = _in_place_case(kind, layout, dense)
        before = state.values.copy()
        out = evolve(state, potential, 1e-3, 5)
        assert np.array_equal(bits(state.values), bits(before))
        step = out._split_step
        torus = layout == "torus"
        # no field and the constant spinor field take the spectral path
        assert step.path == ("dense" if dense else "spectral"
                             if kind in ("none", "diagonal") else "fft")
        # both power paths take square-and-multiply of 5 = 0b101: the step,
        # then its fourth power, each product a new array
        if step.path == "dense":
            matrix = step.matrix
            squared = matrix @ matrix
            flat = (before.reshape(-1) @ matrix) @ (squared @ squared)
            assert np.array_equal(bits(out.values),
                                  bits(flat.reshape(before.shape)))
            return
        if step.path == "spectral":
            # one forward transform before the products, one inverse after
            fft, ifft = (np.fft.fft2, np.fft.ifft2) if torus else (
                np.fft.fft, np.fft.ifft)
            multiplier = step.kinetic
            if kind != "none":
                h0 = step.half_v[:, :1]
                multiplier = (step.kinetic * h0) * h0
            squared = multiplier * multiplier
            spectrum = (squared * squared) * (multiplier * fft(before))
            assert np.array_equal(bits(out.values), bits(ifft(spectrum)))
            return
        values = before
        for _ in range(5):
            values = _out_of_place_step(step, values, torus)
        assert np.array_equal(bits(out.values), bits(values))

    def test_per_axis_in_place_transforms_are_fft2_and_ifft2(self):
        # the torus steps by one-axis transforms, last axis first, in place:
        # np.fft.ifft2(..., out=) would leave its array untransformed
        rng = np.random.default_rng(9)
        values = rng.normal(size=(2, 16, 16, 2)) @ [1, 1j]
        for one_axis, two_axes in ((np.fft.fft, np.fft.fft2),
                                   (np.fft.ifft, np.fft.ifft2)):
            work = values.copy()
            for axis in (-1, -2):
                one_axis(work, axis=axis, out=work)
            assert np.array_equal(bits(work), bits(two_axes(values)))


_SPECTRAL_CASES = [("none", "ring"), ("diagonal", "ring"), ("none", "torus")]


class TestSpectralStep:
    """A layout above ``DENSE_STEP_MAX`` whose field is the same at every
    grid point of each sector steps by a power of one Fourier multiplier,
    and the evolved state carries the spectrum its chain of calls began
    from and the steps taken since."""

    @pytest.mark.parametrize("kind,layout", _SPECTRAL_CASES)
    def test_chunked_calls_equal_one_call(self, kind, layout):
        state, potential = _in_place_case(kind, layout, False)
        whole = evolve(state, potential, 1e-3, 100)
        assert whole._split_step.path == "spectral"
        first = evolve(state, potential, 1e-3, 37)
        memo = first._origin.copy()
        for _ in range(2):  # evolving a state leaves its memo as it was
            chunked = evolve(first, potential, 1e-3, 63)
            assert np.array_equal(bits(first._origin), bits(memo))
            assert np.array_equal(bits(chunked.values), bits(whole.values))

    @pytest.mark.parametrize("kind,layout", _SPECTRAL_CASES)
    def test_a_long_call_is_its_chunks_and_its_sequential_steps(self, kind,
                                                                layout):
        state, potential = _in_place_case(kind, layout, False)
        whole = evolve(state, potential, 1e-3, 2000)
        chunked = state
        for _ in range(20):
            chunked = evolve(chunked, potential, 1e-3, 100)
        assert chunked._origin_steps == 2000
        assert np.array_equal(bits(chunked.values), bits(whole.values))
        step = whole._split_step
        spectrum = step.fft(state.values.copy())
        for _ in range(2000):
            spectrum = step.multiplier * spectrum
        sequential = step.ifft(spectrum)
        assert (max_abs(whole.values - sequential)
                <= 1e-13 * max_abs(sequential))

    def test_a_new_set_up_reads_no_memo(self):
        state = make_gaussian_state(Character.ring(0.7), 3.0, 0.5, 1.0,
                                    n_points=256)
        first = evolve(state, Potential.scalar(np.full(256, 0.3)), 1e-3, 37)
        assert first._origin_steps == 37
        fresh = WaveGrid(space=first.space, values=first.values.copy(),
                         twist=first.twist, sector_betas=first.sector_betas,
                         sector_basis=first.sector_basis)
        for potential, dt in ((Potential.scalar(np.full(256, 0.9)), 1e-3),
                              (first._split_step.potential, 2e-3)):
            got = evolve(first, potential, dt, 63)
            assert got._split_step.path == "spectral"
            assert got._origin_steps == 63
            expected = evolve(fresh, potential, dt, 63).values
            assert np.array_equal(bits(got.values), bits(expected))

    @pytest.mark.parametrize("kind,layout", _SPECTRAL_CASES)
    def test_new_values_carry_no_memo(self, kind, layout):
        state, potential = _in_place_case(kind, layout, False)
        out = evolve(state, potential, 1e-3, 37)
        assert out._origin is not None
        for derived in (out.with_values(out.values.copy()), replace(out),
                        out.normalized()):
            assert derived._origin is None
            assert derived._origin_steps == 0
            fresh = WaveGrid(space=out.space, values=derived.values.copy(),
                             twist=out.twist, sector_betas=out.sector_betas,
                             sector_basis=out.sector_basis)
            got = evolve(derived, potential, 1e-3, 63).values
            expected = evolve(fresh, potential, 1e-3, 63).values
            assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("layout", ["ring", "torus"])
    def test_a_field_one_bit_off_at_one_point_takes_the_fft_path(self, layout):
        state, _ = _in_place_case("none", layout, False)
        field = np.full(state.values.shape[-state.space.dims:], 0.3)
        step = propagation.SplitStep(state, Potential.scalar(field), 1e-3)
        assert step.path == "spectral"
        field.flat[17] = np.nextafter(0.3, 1.0)
        step = propagation.SplitStep(state, Potential.scalar(field), 1e-3)
        assert step.half_v.flat[17] != step.half_v.flat[0]
        assert step.path == "fft" and step.multiplier is None

    @pytest.mark.parametrize("kind,layout", _SPECTRAL_CASES)
    def test_spectral_path_agrees_with_fft_path(self, kind, layout):
        state, potential = _in_place_case(kind, layout, False)
        out = evolve(state, potential, 1e-3, 2000)
        step = out._split_step
        values = state.values
        for _ in range(2000):
            values = step.apply(values)
        assert max_abs(out.values - values) <= 1e-12 * max_abs(values)

    def test_spinor_matches_its_closed_form(self):
        # V = 0.2 I + 0.9 e.sigma: the sector of e.sigma = s has twist angle
        # -1.3 s and energy k^2 / 2 + 0.2 + 0.9 s, exact under Strang
        state, potential = _spinor_evolve_case(512)
        dt, n_steps = 5e-4, 2000
        out = evolve(state, potential, dt, n_steps)
        assert out._split_step.path == "spectral"
        betas = state.sector_betas[:, None]
        k = np.fft.fftfreq(512, d=1.0 / 512)[None, :] + betas / TWO_PI
        energy = 0.5 * k ** 2 + 0.2 - 0.9 * betas / 1.3
        expected = np.fft.ifft(np.exp(-1j * dt * n_steps * energy)
                               * np.fft.fft(state.values, axis=1), axis=1)
        assert max_abs(out.values - expected) <= 1e-12 * max_abs(expected)


_POWER_LAYOUTS = {"ring-128": ("scalar-ring", _dense_case),
                  "spinor-2x64": ("spinor-matrix", _memo_case),
                  "pair-8x8": ("antisymmetric-pair", _dense_case)}


def _power_case(name):
    """A ring of 128 points, a spinor of 2 x 64 and a pair on 8^2: the
    dense layouts, each at ``DENSE_STEP_MAX`` values or below."""
    case, build = _POWER_LAYOUTS[name]
    return build(case)


class TestDensePowers:
    """A dense run multiplies its origin by the cached binary powers of the
    step unitary, and the evolved state carries that origin and the steps
    taken since, as on the spectral path."""

    @pytest.mark.parametrize("name", list(_POWER_LAYOUTS))
    def test_a_long_call_is_its_chunks_and_its_sequential_steps(self, name):
        state, potential = _power_case(name)
        whole = evolve(state, potential, 1e-3, 2000)
        assert whole._split_step.path == "dense"
        chunked = state
        for _ in range(20):
            chunked = evolve(chunked, potential, 1e-3, 100)
        assert chunked._origin_steps == 2000
        assert np.array_equal(bits(chunked.values), bits(whole.values))
        flat = state.values.reshape(-1)
        for _ in range(2000):
            flat = flat @ whole._split_step.matrix
        sequential = flat.reshape(state.values.shape)
        assert (max_abs(whole.values - sequential)
                <= 1e-12 * max_abs(sequential))
        # a grw-ring task's 3,325 steps, its longest dense run
        longest = evolve(whole, potential, 1e-3, 1325)
        assert abs(longest.norm() - state.norm()) <= 1e-12

    def test_powers_grow_to_the_highest_bit_asked_and_no_further(self):
        state, potential = _power_case("ring-128")
        out = evolve(state, potential, 1e-3, 5)
        step = out._split_step
        assert len(step._powers) == 3             # 5 = 0b101
        evolve(out, potential, 1e-3, 1)           # 6 = 0b110
        assert len(step._powers) == 3
        evolve(out, potential, 1e-3, 3320)        # 3,325 < 2^12
        assert len(step._powers) == 12
        for bit in range(1, 12):
            power = step.power(bit)
            assert power.ctypes.data % 64 == 0
            previous = step.power(bit - 1)
            assert np.array_equal(bits(power), bits(previous @ previous))

    def test_threads_sharing_a_set_up_get_the_lone_bits(self):
        state, potential = _power_case("spinor-2x64")
        totals = [3325, 2000, 777, 4095, 1, 2048]
        alone = [evolve(state, potential, 1e-3, n).values for n in totals]
        shared = evolve(state, potential, 1e-3, 1).with_values(state.values)
        got = [None] * len(totals)

        def run(i):
            got[i] = evolve(shared, potential, 1e-3, totals[i]).values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(10):  # each round grows the powers afresh
                shared._split_step._powers = []
                threads = [threading.Thread(target=run, args=(i,))
                           for i in range(len(totals))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                for expected, values in zip(alone, got):
                    assert np.array_equal(bits(values), bits(expected))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("name", list(_POWER_LAYOUTS))
    def test_new_values_carry_no_memo(self, name):
        state, potential = _power_case(name)
        out = evolve(state, potential, 1e-3, 37)
        assert out._origin is not None and out._origin_steps == 37
        derived = [out.with_values(out.values.copy()), replace(out),
                   out.normalized()]
        if name != "pair-8x8":  # a GRW collapse on the ring, by with_values
            derived.append(apply_collapse(out, 2.0, 1.0, 0.3)[0])
        for each in derived:
            assert each._origin is None and each._origin_steps == 0
            fresh = WaveGrid(space=out.space, values=each.values.copy(),
                             twist=out.twist, sector_betas=out.sector_betas,
                             sector_basis=out.sector_basis)
            got = evolve(each, potential, 1e-3, 63).values
            expected = evolve(fresh, potential, 1e-3, 63).values
            assert np.array_equal(bits(got), bits(expected))


@pytest.mark.parametrize("kind,layout", [
    (kind, layout) for kind, layout, dense in _IN_PLACE_CASES if dense]
    + [("scalar", "ring-64")])
def test_dense_step_does_not_depend_on_alignment(kind, layout):
    if layout == "ring-64":
        state = make_gaussian_state(Character.ring(0.7), 3.0, 0.5, 1.0,
                                    n_points=64)
        potential = Potential.from_callable(lambda t: 0.4 * np.cos(t), 64)
    else:
        state, potential = _in_place_case(kind, layout, True)
    out = evolve(state, potential, 1e-3, 5)
    step = out._split_step
    matrix = step.matrix
    assert len(step._powers) == 3
    for bit in range(3):
        assert step.power(bit).ctypes.data % 64 == 0
        assert not np.shares_memory(out.values, step.power(bit))
    assert step.power(0) is matrix

    def shifted(a):
        # a copy that BLAS reads 16 bytes (one value) off its alignment
        copy = propagation._aligned_empty((a.size + 1,))[1:].reshape(a.shape)
        copy[...] = a
        assert copy.ctypes.data % 64 == 16
        return copy

    # square-and-multiply of 5 = 0b101 by np.dot, every operand shifted
    m = shifted(matrix)
    squared = shifted(np.dot(m, m))
    fourth = shifted(np.dot(squared, squared))
    flat = np.dot(np.dot(state.values.reshape(-1), m), fourth)
    assert np.array_equal(bits(out.values),
                          bits(flat.reshape(state.values.shape)))


def test_norm_does_not_depend_on_memory_layout():
    # seed 0 draws a state whose norm, summed in Fortran order, differs in
    # its last bit from the C-order sum
    rng = np.random.default_rng(0)
    v = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    rep = MatrixRep.ring(np.eye(2))
    c_order, f_order = (
        WaveGrid(space=RingGrid(), values=values, twist=rep,
                 sector_betas=np.zeros(2), sector_basis=np.eye(2))
        for values in (v, np.asfortranarray(v)))
    assert c_order.norm() == f_order.norm()


class TestVectorPotential:
    def test_full_flux_quantum_spectrum_is_free(self):
        with_flux = spectrum(Character.ring(-TWO_PI), Potential.zero(), 8)
        free = spectrum(Character.ring(0.0), Potential.zero(), 8)
        assert np.max(np.abs(np.sort(with_flux) - np.sort(free))) <= 1e-10

    def test_half_flux_ground_energy_doubly_degenerate(self):
        levels = spectrum(Character.ring(-np.pi), Potential.zero(), 4)
        assert levels[0] == pytest.approx(0.125, abs=1e-10)
        assert levels[1] == pytest.approx(0.125, abs=1e-10)
        assert levels[2] == pytest.approx(1.125, abs=1e-10)



class TestGaugeMap:
    def test_full_flux_gives_trivial_twist(self):
        state = make_gaussian_state(Character.ring(-TWO_PI), 3.0, 0.5, 0.0)
        mapped = gauge_map(state)
        assert abs(np.exp(1j * mapped.beta) - 1.0) <= 1e-12

    def test_half_flux_gives_antiperiodic_twist(self):
        state = make_gaussian_state(Character.ring(-np.pi), 3.0, 0.5, 0.0)
        mapped = gauge_map(state)
        assert np.exp(1j * mapped.beta) == pytest.approx(-1.0, abs=1e-12)

    def test_round_trip_is_identity(self):
        for flux in (0.4, np.pi, 5.0):
            state = make_gaussian_state(Character.ring(-flux), 3.0, 0.6, 1.0)
            back = gauge_unmap(gauge_map(state), flux, 1.0)
            assert np.max(np.abs(back.values - state.values)) <= 1e-12

    @settings(derandomize=True, deadline=None)
    @given(flux=st.floats(-25.0, 25.0), charge=st.sampled_from([1.0, -1.0, 2.0]),
           momentum=st.floats(-3.0, 3.0))
    def test_unmap_inverts_map_over_windings(self, flux, charge, momentum):
        state = make_gaussian_state(Character.ring(-charge * flux), 3.0, 0.6,
                                    momentum, n_points=64)
        back = gauge_unmap(gauge_map(state), flux, charge)
        assert back.twist == state.twist
        assert np.array_equal(bits(back.sector_betas), bits(state.sector_betas))
        # exp(-i m theta) exp(i m theta) is 1 to a few ulp
        assert np.max(np.abs(back.values - state.values)) \
            <= 1e-14 * np.max(np.abs(state.values))

    def test_step_diagram_commutes(self):
        flux, e = np.pi, 1.0
        v = Potential.from_callable(lambda t: 0.3 * np.cos(t), 256)
        sa = make_gaussian_state(Character.ring(-e * flux), 3.0, 0.6, 1.0)
        st = gauge_map(sa)
        worst = 0.0
        for _ in range(25):
            sa = evolve(sa, v, 1e-3, 1)
            st = evolve(st, v, 1e-3, 1)
            worst = max(worst, float(np.max(np.abs(
                gauge_map(sa).values - st.values))))
        assert worst <= 1e-9


def _block_loop_hamiltonian(state, potential):
    """Reference for ``_hamiltonian_blocks``, laid out block-diagonally:
    the whole (k n, k n) operator, filled one (n, n) block at a time."""
    n, k = state.n_points, state.n_components
    kind, data = _sector_potential(state, potential)
    field = {"none": lambda: np.zeros((n, k, k)),
             "scalar": lambda: data[:, None, None] * np.eye(k),
             "diagonal": lambda: data.T[:, :, None] * np.eye(k),
             "matrix": lambda: data}[kind]()
    f_eye = np.fft.fft(np.eye(n, dtype=complex), axis=0)
    modes = np.fft.fftfreq(n, d=1.0 / n)
    h = np.zeros((k * n, k * n), dtype=complex)
    for a in range(k):
        wavenumber = (modes + state.sector_betas[a] / TWO_PI) / state.radius
        h[a * n:(a + 1) * n, a * n:(a + 1) * n] = np.fft.ifft(
            0.5 * (wavenumber[:, None] ** 2) * f_eye, axis=0)
        for b in range(k):
            h[a * n:(a + 1) * n, b * n:(b + 1) * n] += np.diag(field[:, a, b])
    return h


class TestSpectrum:
    def test_the_bound_on_n_points_is_checked_before_any_block(self,
                                                              monkeypatch):
        # the largest grid reaches the blocks, one more power of two does not
        def no_blocks(layout, potential):
            raise RuntimeError(f"{layout.n_points} points reached the blocks")

        monkeypatch.setattr(propagation, "_hamiltonian_blocks", no_blocks)
        limit = propagation.SPECTRUM_MAX_BLOCK
        with pytest.raises(RuntimeError, match=f"^{limit} points"):
            spectrum(Character.ring(0.0), n_points=limit)
        with pytest.raises(ConfigError) as exc:
            spectrum(Character.ring(0.0), n_points=2 * limit)
        assert exc.value.field_path == "$.space.n_points"

    def test_a_field_coupling_the_sectors_is_bounded_by_k_n(self,
                                                           monkeypatch):
        # under the degenerate factor e^{0.7i} I a constant sigma_x couples
        # the two sectors into one (2n, 2n) block, while sigma_z keeps two
        # (n, n) blocks: at n = 2^12 the first is refused before any block
        # (1 GiB for the coupled one) is built, the second reaches them
        def no_blocks(layout, potential):
            raise RuntimeError(f"{layout.n_points} points reached the blocks")

        monkeypatch.setattr(propagation, "_hamiltonian_blocks", no_blocks)
        factor = MatrixRep.ring(np.exp(0.7j) * np.eye(2))
        limit = propagation.SPECTRUM_MAX_BLOCK
        for n, axis, reaches in ((limit // 2, "x", True), (limit, "z", True),
                                 (limit, "x", False)):
            field = Potential.matrix_constant(PAULI[axis], n)
            if reaches:
                with pytest.raises(RuntimeError, match=f"^{n} points"):
                    spectrum(factor, field, n_points=n)
                continue
            tracemalloc.start()
            try:
                with pytest.raises(ConfigError, match=f"not {2 * n}$") as exc:
                    spectrum(factor, field, n_points=n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert exc.value.field_path == "$.space.n_points"
            assert peak < 2 ** 24  # the coupled block alone is 2^30 bytes

    @pytest.mark.parametrize("case", ["scalar", "spinor-zero", "spinor-scalar",
                                      "spinor-covariant"])
    def test_dense_hamiltonian_equals_block_loop(self, case):
        n = 32
        theta = angle_grid(n)
        space = RingGrid(radius=1.3)
        trig = Potential.scalar(0.3 * np.cos(theta) - 0.7 * np.sin(2 * theta))
        if case == "scalar":
            state = make_gaussian_state(Character.ring(-7.3), 3.0, 0.5,
                                        n_points=n, space=space)
            potential = trig
        else:
            rep = MatrixRep.ring(spin_exponential(0.9, [0.6, 0.0, 0.8]))
            chi = wrapped_gaussian(theta, 3.0, 0.5)
            state = twist_embed([chi, 0.4 * chi], rep, space=space)
            a = np.random.default_rng(2).normal(size=(n, 2, 2, 2)) @ [1, 1j]
            potential = {"spinor-zero": Potential.zero(),
                         "spinor-scalar": trig,
                         "spinor-covariant": Potential.covariant(
                             a + np.conj(np.swapaxes(a, 1, 2)))}[case]
        blocks = _hamiltonian_blocks(state, potential)
        # one block per sector unless the field couples the sectors
        assert blocks.shape[0] == (1 if case == "spinor-covariant"
                                   else state.n_components)
        assert np.array_equal(bits(scipy.linalg.block_diag(*blocks)),
                              bits(_block_loop_hamiltonian(state, potential)))

    def test_twisted_levels(self):
        levels = spectrum(Character.ring(np.pi), Potential.zero(), 6)
        expected = [0.125, 0.125, 1.125, 1.125, 3.125, 3.125]
        assert np.allclose(levels, expected, atol=1e-9)

    def test_free_levels(self):
        levels = spectrum(Character.ring(0.0), Potential.zero(), 5)
        assert np.allclose(levels, [0.0, 0.5, 0.5, 2.0, 2.0], atol=1e-9)

    def test_flux_periodicity(self):
        a = spectrum(Character.ring(-1.234), Potential.zero(), 8)
        b = spectrum(Character.ring(-(1.234 + TWO_PI)), Potential.zero(), 8)
        assert np.max(np.abs(np.sort(a) - np.sort(b))) <= 1e-10

    def test_matrix_factor_merges_sector_spectra(self):
        phi = 0.8
        rep = MatrixRep.ring(spin_exponential(phi, [0, 0, 1]))
        merged = spectrum(rep, Potential.zero(), 8, n_points=64)
        up = spectrum(Character.ring(-phi), Potential.zero(), 8, n_points=64)
        down = spectrum(Character.ring(phi), Potential.zero(), 8, n_points=64)
        union = np.sort(np.concatenate([up, down]))[:8]
        assert np.max(np.abs(merged - union)) <= 1e-10

    @staticmethod
    def _recorded_solves(monkeypatch):
        """The shapes of the matrices that ``spectrum`` diagonalizes."""
        shapes = []
        original = scipy.linalg.eigh

        def recording(h, **kwargs):
            shapes.append(h.shape)
            return original(h, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", recording)
        return shapes

    @pytest.mark.parametrize("field", ["zero", "scalar", "matrix-const"])
    def test_block_spectra_equal_the_full_solve(self, field, pauli,
                                                monkeypatch):
        n, n_levels = 128, 12
        theta = angle_grid(n)
        tilted = np.array([0.48, 0.6, 0.64])
        e_sigma = sum(c * pauli[ax] for c, ax in zip(tilted, "xyz"))
        rep = MatrixRep.ring(spin_exponential(0.9, tilted))
        potential = {
            "zero": Potential.zero(),
            "scalar": Potential.scalar(0.7 * np.cos(theta) + 0.2 * np.sin(3 * theta)),
            "matrix-const": Potential.matrix_constant(
                0.2 * np.eye(2) + 0.9 * e_sigma, n)}[field]
        shapes = self._recorded_solves(monkeypatch)
        levels = spectrum(rep, potential, n_levels, n_points=n, radius=1.3)
        assert shapes == [(n, n), (n, n)]
        betas, basis = propagation._ring_sectors(rep)
        layout = WaveGrid(space=RingGrid(radius=1.3),
                          values=np.zeros((2, n)), twist=rep,
                          sector_betas=betas, sector_basis=basis)
        h = _block_loop_hamiltonian(layout, potential)
        full = np.linalg.eigvalsh((h + h.conj().T) / 2)[:n_levels]
        assert np.max(np.abs(levels - full)) <= 1e-10

    def test_a_field_coupling_the_sectors_takes_the_full_solve(
            self, pauli, monkeypatch):
        n = 64
        rep = MatrixRep.ring(spin_exponential(0.6, [1, 0, 0]))
        potential = Potential.covariant(np.broadcast_to(pauli["z"], (n, 2, 2)))
        shapes = self._recorded_solves(monkeypatch)
        spectrum(rep, potential, 8, n_points=n)
        assert shapes == [(2 * n, 2 * n)]

    def test_gate_refuses_a_non_commuting_pair(self, pauli):
        rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
        with pytest.raises(IncompatibleFactorError, match="commute"):
            spectrum(rep, Potential.matrix_constant(pauli["x"], 64), 8,
                     n_points=64)

    def test_level_cap(self):
        with pytest.raises(ConfigError, match="n_points / 4"):
            spectrum(Character.ring(0.0), Potential.zero(), 64, n_points=64)
        with pytest.raises(ConfigError, match="at least 1"):
            spectrum(Character.ring(0.0), Potential.zero(), 0, n_points=64)

    def test_nan_hamiltonian_fails_its_hermiticity_check(self, monkeypatch):
        # herm > 1e-10 is false for a NaN, which went on to scipy's eigh
        monkeypatch.setattr(propagation, "_hamiltonian_blocks",
                            lambda layout, potential: np.full((1, 16, 16),
                                                              np.nan + 0j))
        with pytest.raises(ToleranceError, match="hamiltonian-hermiticity"):
            spectrum(Character.ring(0.0), Potential.zero(), 2, n_points=16)


class TestTwoParticle:
    def test_antisymmetric_diagonal_node_persists(self):
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5, 1.0),
            lambda t: wrapped_gaussian(t, 4.3, 0.5, -1.0), -1, n_points=64)
        out = evolve(state, Potential.zero(), 1e-3, 300)
        assert np.max(np.abs(np.diag(out.values))) <= 1e-9

    def test_symmetric_sector_survives_long_run(self):
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5),
            lambda t: wrapped_gaussian(t, 4.3, 0.5), +1, n_points=64)
        theta = angle_grid(64)
        v = Potential.scalar(0.4 * np.add.outer(np.cos(theta), np.cos(theta)),
                             label="pair")
        out = evolve(state, v, 1e-3, 1000)
        assert out.twist_residual() <= 1e-10

    def test_pair_eigenstate_energy(self):
        state = pair_eigenstate(1, 2, -1, n_points=64)
        out = evolve(state, Potential.zero(), 1e-3, 100)
        mask = np.abs(state.values) > 1e-3
        phases = np.angle(out.values[mask] / state.values[mask])
        assert np.allclose(phases, -2.5 * 0.1, atol=1e-10)

    def test_swap_asymmetric_potential_rejected(self):
        state = pair_eigenstate(0, 1, -1, n_points=64)
        theta = angle_grid(64)
        v = Potential.scalar(np.add.outer(np.cos(theta), 2 * np.cos(theta)),
                             label="asym")
        with pytest.raises(PhysicsError, match="exchange"):
            evolve(state, v, 1e-3, 1)

    def test_sector_violating_data_rejected(self):
        values = np.outer(wrapped_gaussian(angle_grid(64), 2.0, 0.5),
                          wrapped_gaussian(angle_grid(64), 4.0, 0.5))
        with pytest.raises(PhysicsError, match="sector"):
            make_two_particle_state(values, -1)


class TestReferenceIntegrators:
    def test_crank_nicolson_cross_check(self):
        v = Potential.from_callable(lambda t: 0.3 * np.cos(t), 64)
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.8, 0.5,
                                    n_points=64)
        a = evolve(state, v, 1e-3, 1000)
        b = crank_nicolson_evolve(state, v, 1e-3, 1000)
        assert l2_diff(a, b) <= 1e-6

    @staticmethod
    def _cover_twist_residual(field):
        """A twisted spinor of exp(-i pi/2 sigma_z), whose order is 4,
        lifted to the 4-fold cover and stepped there 100 times: the
        residual of psi(theta + 2 pi) = Gamma psi(theta) over max |psi|."""
        n, sheets = 64, 4
        gamma = spin_exponential(np.pi / 2, [0, 0, 1])
        packet = _cover_packet(n, sheets, [1.0, 0.5])
        psi = cover_evolve(lift(fold(packet, gamma, sheets), gamma, sheets),
                           np.broadcast_to(field, (n, 2, 2)), 1e-3, 100, sheets)
        return max_abs(np.roll(psi, -n, axis=1) - gamma @ psi) / max_abs(psi)

    def test_cover_commuting_control(self):
        assert self._cover_twist_residual(0.3 * np.eye(2)) <= 1e-12

    def test_cover_noncommuting_breaks_twist(self, pauli):
        assert self._cover_twist_residual(pauli["x"]) > 1e-3


class TestStateSerialization:
    def test_scalar_round_trip(self):
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 2.0,
                                    n_points=64)
        payload = json.loads(json.dumps(state_to_dict(state)))
        back = state_from_dict(payload)
        assert np.array_equal(back.values, state.values)
        assert back.beta == state.beta

    def test_spinor_round_trip(self):
        rep = MatrixRep.ring(spin_exponential(0.8, [1, 0, 0]))
        chi = wrapped_gaussian(angle_grid(64), 3.0, 0.5)
        state = twist_embed([chi, 0.5j * chi], rep)
        back = state_from_dict(state_to_dict(state))
        assert np.array_equal(back.values, state.values)
        assert np.array_equal(back.sector_basis, state.sector_basis)
        assert np.allclose(back.twist.generators[0], state.twist.generators[0])

    def test_two_particle_round_trip(self):
        state = pair_eigenstate(0, 1, -1, n_points=32)
        back = state_from_dict(state_to_dict(state))
        assert np.array_equal(back.values, state.values)
        assert back.twist.sign == -1

    def test_a_twist_from_another_deck_group_is_refused(self):
        # a pair under a ring character read sign +1 and evolved as bosons;
        # a ring state under an exchange twist raised TypeError when checked;
        # a pair under a matrix twist on S_2 evolved, and then its exchange
        # residual raised AttributeError (a MatrixRep has no sign)
        pair = state_to_dict(pair_eigenstate(0, 1, -1, n_points=8))
        ring = state_to_dict(make_eigenstate(0, Character.ring(0.3), n_points=8))
        matrix = {"type": "matrix", "group": ["sym", 2],
                  "generators": [[[[-1.0, 0.0]]]]}
        for payload, twist in ((pair, ring["twist"]), (ring, pair["twist"]),
                               (pair, matrix)):
            with pytest.raises(ConfigError, match="twist is a factor on"):
                state_from_dict(dict(payload, twist=twist))

    @settings(derandomize=True, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["scalar", "spinor", "torus"]),
           n=st.sampled_from([4, 8, 16]), fortran=st.booleans())
    def test_json_round_trip_is_exact(self, data, kind, n, fortran):
        shape = {"scalar": (1, n), "spinor": (2, n), "torus": (n, n)}[kind]
        values = data.draw(hnp.arrays(complex, shape, elements=st.complex_numbers(
            allow_nan=False, allow_infinity=False)))
        if fortran:
            values = np.asfortranarray(values)
        angle = data.draw(st.floats(-20.0, 20.0))
        if kind == "torus":
            state = WaveGrid(space=PairGrid(), values=values,
                             twist=Character.exchange(2, -1))
        elif kind == "scalar":
            state = WaveGrid(space=RingGrid(), values=values,
                             twist=Character.ring(angle),
                             sector_betas=np.array([angle]))
        else:
            rep = MatrixRep.ring(spin_exponential(angle, [0.6, 0.0, 0.8]))
            eigvals, basis = unitary_eig(rep.generators[0])
            state = WaveGrid(space=RingGrid(), values=values, twist=rep,
                             sector_betas=np.angle(eigvals), sector_basis=basis)
        back = state_from_dict(json.loads(json.dumps(state_to_dict(state))))
        assert np.array_equal(bits(back.values), bits(values))
        if kind != "torus":
            assert np.array_equal(bits(back.sector_betas), bits(state.sector_betas))
        if kind == "spinor":
            assert np.array_equal(bits(back.sector_basis), bits(state.sector_basis))

    def test_pair_encoding_keeps_every_bit(self):
        m = np.empty((2, 4), dtype=complex)
        m.real = [[0.0, -0.0, -0.0, 0.0], [1.5, -0.0, np.pi, 5e-324]]
        m.imag = [[0.0, 0.0, -0.0, -0.0], [-2.5, -0.0, 0.0, 1e-300]]
        for data in (m, m.T, m[:1]):
            old = [[[float(z.real), float(z.imag)] for z in row] for row in data]
            # JSON text spells each float's repr, so -0.0 stays apart from 0.0
            assert json.dumps(propagation._complex_matrix_to_pairs(data)) \
                == json.dumps(old)

    def test_unknown_schema_rejected(self):
        state = make_eigenstate(0, Character.ring(0.0), n_points=32)
        payload = state_to_dict(state)
        payload["schema"] = "something/else"
        with pytest.raises(ConfigError, match="schema"):
            state_from_dict(payload)


def test_fractional_power_consistency():
    gamma = spin_exponential(1.1, [0.3, 0.5, np.sqrt(1 - 0.34)])
    g13 = unitary_fractional_power(gamma, 1.0 / 3.0)
    assert np.allclose(g13 @ g13 @ g13, gamma, atol=1e-12)


def _cover_packet(n, sheets, amplitudes):
    """A moving Gaussian packet on the W-fold cover of the ring, one
    amplitude per component: centre 2, width 0.5, momentum 1.5."""
    packet = wrapped_gaussian(angle_grid(n * sheets), 2.0 / sheets,
                              0.5 / sheets, 1.5 * sheets)
    return np.outer(amplitudes, packet)


def _cover_fold_error(sectors, field, potential, packet, sheets, n_steps,
                      dt=1e-3):
    """One cover run, folded by each (factor, Gamma) pair, against
    ``evolve`` of the same fold under the factor: the worst error over
    max |psi|.  ``twist_embed`` normalizes, so its state is scaled back to
    the fold's norm."""
    moved = cover_evolve(packet, field, dt, n_steps, sheets)
    worst = 0.0
    for factor, gamma in sectors:
        psi = fold(packet, gamma, sheets)
        state = twist_embed(psi, factor, data_is_periodic=False)
        norm = np.sqrt(np.sum(np.abs(psi) ** 2) * TWO_PI / psi.shape[1])
        out = evolve(state.with_values(state.values * norm), potential, dt,
                     n_steps).psi()
        reference = fold(moved, gamma, sheets)
        worst = max(worst, max_abs(out - reference) / max_abs(reference))
    return worst


def _scalar_cover_error(n, sheets, g, twist_error=0.0, field_scale=1.0):
    """One packet on the W-fold cover under V = g cos theta, folded into
    each of the W sectors, against ``evolve`` at that sector's angle
    2 pi j / W reduced to (-pi, pi] (plus ``twist_error``), 2,000 steps."""
    field = g * np.cos(angle_grid(n))
    sectors = [(Character.ring(beta + twist_error), np.exp(1j * beta))
               for beta in (math.remainder(TWO_PI * j / sheets, TWO_PI)
                            for j in range(sheets))]
    return _cover_fold_error(sectors, field[:, None, None],
                             Potential.scalar(field_scale * field),
                             _cover_packet(n, sheets, [1.0]), sheets, 2000)


def _spinor_cover_error(twist_error=0.0, field_scale=1.0):
    """A spinor packet on the 4-fold cover under V = 0.3 + cos theta
    sigma_z, folded by exp(-i pi/2 sigma_z), which has order 4, against
    ``evolve`` under that factor (its angle plus ``twist_error``), 500
    steps at n = 64."""
    n = 64
    field = 0.3 * np.eye(2) + np.cos(angle_grid(n))[:, None, None] * PAULI["z"]
    rep = MatrixRep.ring(spin_exponential(np.pi / 2 + twist_error, [0, 0, 1]))
    return _cover_fold_error([(rep, spin_exponential(np.pi / 2, [0, 0, 1]))],
                             field, Potential.matrix_field(field_scale * field),
                             _cover_packet(n, 4, [1.0, 0.5j]), 4, 500)


def _pair_cover_error(sign, field_scale=1.0):
    """An unsymmetrized product stepped on the 64^2 torus (the cover of
    the unordered pair, W = 1), folded by S_2 to (psi + sign psi^T) / 2,
    against ``evolve`` of the folded state for 500 steps under V =
    1.5 cos(theta1 - theta2) + 0.3 (cos theta1 + cos theta2)."""
    n, dt, n_steps = 64, 1e-3, 500
    theta = angle_grid(n)
    field = (1.5 * np.cos(theta[:, None] - theta[None, :])
             + 0.3 * (np.cos(theta)[:, None] + np.cos(theta)[None, :]))
    product = np.outer(wrapped_gaussian(theta, 2.0, 0.5, 1.0),
                       wrapped_gaussian(theta, 4.5, 0.6, -0.5))
    moved = cover_evolve(product[None], field[..., None, None], dt, n_steps, 1)[0]
    reference = (moved + sign * moved.T) / 2
    psi = (product + sign * product.T) / 2
    state = make_two_particle_state(psi, sign)
    norm = np.sqrt(np.sum(np.abs(psi) ** 2)) * TWO_PI / n
    out = evolve(state.with_values(state.values * norm),
                 Potential.scalar(field_scale * field), dt, n_steps).psi()
    return max_abs(out - reference) / max_abs(reference)


class TestGaugeFixingCrossValidation:
    def test_split_step_matches_ungauged_cover_evolution(self):
        # the paper's construction: psi itself steps on the W-fold cyclic
        # cover with no twist, sector or shifted wavenumber, and its fold
        # by the factor must be the twisted step's result to rounding
        for n, sheets, g in [(128, 4, 2.0), (256, 8, 1.0), (64, 2, 0.3)]:
            assert _scalar_cover_error(n, sheets, g) <= 1e-11
        assert _spinor_cover_error() <= 1e-11

    @pytest.mark.parametrize("kind", ["scalar", "spinor"])
    @pytest.mark.parametrize("corruption", [{"twist_error": 1e-6},
                                            {"field_scale": 1.001}],
                             ids=["twist-off-by-1e-6", "field-off-by-0.1%"])
    def test_cover_cross_check_fails_a_corrupted_twist_or_field(
            self, kind, corruption):
        error = (_scalar_cover_error(64, 2, 0.3, **corruption)
                 if kind == "scalar" else _spinor_cover_error(**corruption))
        assert error > 1e-11

    @pytest.mark.parametrize("sign", [1, -1], ids=["bosons", "fermions"])
    def test_pair_step_matches_the_folded_torus_run(self, sign):
        assert _pair_cover_error(sign) <= 1e-12
        assert _pair_cover_error(sign, field_scale=1.001) > 1e-12

    def test_matrix_cover_data_embedding(self):
        # peel a genuine spinor cover wave back to gauge-fixed storage
        rep = MatrixRep.ring(spin_exponential(0.8, [1, 0, 0]))
        n = 64
        theta = angle_grid(n)
        chi = np.stack([wrapped_gaussian(theta, 2.0, 0.6),
                        0.5 * wrapped_gaussian(theta, 4.0, 0.6)])
        direct = twist_embed(chi, rep)
        phases = np.exp(1j * np.outer(direct.sector_betas, theta) / TWO_PI)
        psi = direct.sector_basis @ (phases * (direct.sector_basis.conj().T @ chi))
        peeled = twist_embed(psi, rep, data_is_periodic=False)
        assert np.max(np.abs(peeled.values - direct.values)) <= 1e-12


def test_gauge_unmap_rejects_mismatched_flux():
    state = make_gaussian_state(Character.ring(-np.pi), 3.0, 0.5, 0.0)
    twisted = gauge_map(state)
    with pytest.raises(PhysicsError, match="gauge-equivalent"):
        gauge_unmap(twisted, 1.0, 1.0)
