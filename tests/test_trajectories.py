"""Velocity fields and Bohmian trajectory integration."""

import sys
import threading
import warnings

import numpy as np
import pytest

from oracles import velocity_field
from topobohm.covering import TWO_PI
from topobohm.errors import ConfigError
from topobohm.factors import Character, MatrixRep
from topobohm.propagation import (
    Potential,
    WaveGrid,
    angle_grid,
    evolve,
    fourier_modes,
    gauge_map,
    make_eigenstate,
    make_gaussian_state,
    make_two_particle_state,
    symmetrized_product_state,
    twist_embed,
    wrapped_gaussian,
)
from topobohm.scenario import spin_exponential
from topobohm.spaces import PairGrid, RingGrid
from topobohm.trajectories import (
    STATUS_COMPLETED,
    STATUS_HALTED,
    COEFF_CUT,
    _GEMM_COLUMNS,
    _PHASE_LIMIT,
    _RingEvaluator,
    _TorusEvaluator,
    _unit_phase,
    integrate_trajectories,
    transport,
)


class TestVelocityField:
    def test_twisted_eigenstate_constant_half(self):
        state = make_eigenstate(0, Character.ring(np.pi))
        v, mask = velocity_field(state)
        assert not mask.any()
        assert np.allclose(v, 0.5, atol=1e-12)

    def test_real_packet_is_stationary(self):
        state = make_gaussian_state(Character.ring(0.0), np.pi, 0.5, 0.0)
        v, _ = velocity_field(state)
        assert np.max(np.abs(v)) <= 1e-10

    def test_flux_twist_matches_reduced_twist(self):
        flux, e = np.pi, 1.0
        sa = make_gaussian_state(Character.ring(-e * flux), 3.0, 0.6, 1.0)
        st = gauge_map(sa)
        va, _ = velocity_field(sa)
        vt, _ = velocity_field(st)
        assert np.max(np.abs(va - vt)) <= 1e-10

    def test_node_samples_flagged(self):
        # psi = 1 + e^{i theta} vanishes at theta = pi
        theta = angle_grid(1024)
        state = twist_embed(1.0 + np.exp(1j * theta), Character.ring(0.0))
        _, mask = velocity_field(state, eps_node=1e-6)
        assert mask.any()
        assert mask[512]


EPS = np.finfo(float).eps


class TestUnitPhase:
    """The table phase against libm's exp, bit by bit where it must be."""

    @staticmethod
    def assert_near_libm(theta):
        err = np.abs(_unit_phase(theta) - np.exp(1j * theta))
        assert np.max(err) <= 4 * EPS

    @pytest.mark.parametrize("bound", [TWO_PI, 1e3, 1e6])
    def test_uniform_draws(self, bound):
        rng = np.random.default_rng(int(bound))
        self.assert_near_libm(rng.uniform(-bound, bound, 100_000))

    def test_negative_angles(self):
        rng = np.random.default_rng(2)
        self.assert_near_libm(-rng.uniform(0, 1e4, 100_000))

    def test_table_nodes_and_midpoints(self):
        # at a node the remainder is rounding only; midway between nodes
        # rint meets its ties and the remainder is largest
        k = np.concatenate([np.arange(-8192, 8193),
                            4096 * 1000 + np.arange(-50, 50)])
        step = TWO_PI / 4096
        self.assert_near_libm(k * step)
        self.assert_near_libm((k + 0.5) * step)

    def test_signed_zero_gives_one(self):
        z = _unit_phase(np.array([0.0, -0.0]))
        assert np.array_equal(z, [1.0, 1.0])
        assert not np.any(np.signbit(z.imag))

    def test_bundle_elements_equal_lone_elements(self):
        theta = np.random.default_rng(3).uniform(-50, 50, 17)
        for length in range(1, 18):
            bundle = _unit_phase(theta[:length])
            alone = np.concatenate([_unit_phase(theta[i:i + 1])
                                    for i in range(length)])
            assert np.array_equal(bundle.view(np.int64), alone.view(np.int64))

    def test_extremes_take_libm_values(self):
        wild = np.array([_PHASE_LIMIT * (1 + EPS), -3e7, 1e10, -1e300,
                         np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_unit_phase(wild), np.exp(1j * wild))
            mixed = np.array([0.3, 1e300, -2.0])
            z = _unit_phase(mixed)
        assert z[1] == np.exp(1j * 1e300)
        assert z[0] == _unit_phase(mixed[:1])[0]
        assert z[2] == _unit_phase(mixed[2:])[0]
        odd = np.array([np.inf, -np.inf, np.nan, 1.0])
        with np.errstate(invalid="ignore"):
            z, libm = _unit_phase(odd), np.exp(1j * odd)
        np.testing.assert_array_equal(z[:3], libm[:3])
        assert z[3] == _unit_phase(odd[3:])[0]


class TestPointEvaluators:
    """The point evaluators at the grid points against the FFT field."""

    @staticmethod
    def assert_matches_grid(v_eval, rho_eval, v_grid, rho_grid):
        assert np.max(np.abs(rho_eval - rho_grid)) <= 1e-12 * np.max(rho_grid)
        ok = rho_grid > 1e-8 * np.max(rho_grid)
        scale = max(1.0, np.max(np.abs(v_grid[ok])))
        assert np.max(np.abs(v_eval - v_grid)[ok]) <= 1e-9 * scale

    def check_ring(self, state):
        v_grid, _ = velocity_field(state)
        rho_grid = np.sum(np.abs(state.values) ** 2, axis=0)
        v, rho = _RingEvaluator(state)(angle_grid(state.n_points))
        self.assert_matches_grid(v, rho, v_grid, rho_grid)

    def test_twisted_scalar_ring(self):
        self.check_ring(make_gaussian_state(Character.ring(np.pi / 3), 2.0,
                                            0.5, 1.5))

    def test_unreduced_flux_twist(self):
        flux, e = 7.3, 1.0
        state = make_gaussian_state(Character.ring(-e * flux), 3.0, 0.6, 1.0)
        assert abs(state.beta) > TWO_PI
        self.check_ring(state)

    def test_spinor_with_two_sector_betas(self):
        rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
        theta = angle_grid(128)
        state = twist_embed(
            [wrapped_gaussian(theta, 3.0, 0.5, 2.0),
             0.3 * wrapped_gaussian(theta, 1.5, 0.4, -1.0)], rep)
        assert len(set(np.round(state.sector_betas, 12))) == 2
        self.check_ring(state)

    def test_counterpropagating_packets_leave_a_gap_in_the_span(self):
        theta = angle_grid(256)
        data = wrapped_gaussian(theta, 2.0, 0.5, 12.0) \
            + wrapped_gaussian(theta, 4.0, 0.5, -12.0)
        state = twist_embed(data, Character.ring(0.4))
        per_mode = _ring_block_modes(_RingEvaluator(state))
        assert np.any(np.all(per_mode == 0, axis=1))
        self.check_ring(state)

    @staticmethod
    def ring_cases():
        theta, theta_spinor = angle_grid(256), angle_grid(128)
        spinor = twist_embed(
            [wrapped_gaussian(theta_spinor, 3.0, 0.5, 2.0),
             0.3 * wrapped_gaussian(theta_spinor, 1.5, 0.4, -1.0)],
            MatrixRep.ring(spin_exponential(0.7, [0, 0, 1])))
        return {
            "packet": make_gaussian_state(Character.ring(0.9), 2.0, 0.45, 3.0,
                                          space=RingGrid(radius=1.5)),
            "eigenstate": make_eigenstate(3, Character.ring(0.4)),
            "gapped": twist_embed(wrapped_gaussian(theta, 2.0, 0.5, 12.0)
                                  + wrapped_gaussian(theta, 4.0, 0.5, -12.0),
                                  Character.ring(0.4)),
            "spinor": spinor,
        }

    @pytest.mark.parametrize("name", ["packet", "eigenstate", "gapped",
                                      "spinor"])
    def test_ring_off_grid_against_direct_sum(self, name):
        # a span whose length is no multiple of the baby steps, a single
        # mode, a span with a gap and two sectors with their own betas.  The
        # direct sum runs over the coefficients the evaluator keeps, so it
        # checks the evaluation, not the COEFF_CUT truncation
        state = self.ring_cases()[name]
        ev = _RingEvaluator(state)
        baby = ev.block.shape[1]
        span_case = {"packet": ev.span % baby != 0, "eigenstate": ev.span == 1,
                     "gapped": np.any(np.all(_ring_block_modes(ev) == 0,
                                             axis=1)),
                     "spinor": state.values.shape[0] == 2}
        assert span_case[name]
        n = state.n_points
        coeffs = np.fft.fft(state.values, axis=1) / n
        weight = np.max(np.abs(coeffs), axis=0)
        coeffs = np.where(weight > COEFF_CUT * np.max(weight), coeffs, 0.0)
        modes = fourier_modes(n)

        q = np.random.default_rng(7).uniform(-3 * np.pi, 5 * np.pi, 500)
        rho_ref = np.zeros(q.size)
        current = np.zeros(q.size)
        for c, beta in zip(coeffs, state.sector_betas):
            chi = _full_sum(c, q)
            dchi = _full_sum(c * 1j * modes, q)
            density = np.abs(chi) ** 2
            rho_ref += density.astype(float)
            current += (np.imag(np.conj(chi) * dchi)
                        + beta / TWO_PI * density).astype(float)
        v_ref = current / rho_ref / state.radius ** 2

        v, rho = ev(q)
        assert np.max(np.abs(rho - rho_ref)) <= 1e-13 * np.max(rho_ref)
        ok = rho_ref > 1e-6 * np.max(rho_ref)
        assert np.count_nonzero(ok) > 100
        assert np.max(np.abs(v - v_ref)[ok]) <= 1e-10

        v_neg, rho_neg = _RingEvaluator(state, velocity_factor=-1.0)(q)
        assert np.array_equal(v_neg, -v) and np.array_equal(rho_neg, rho)

    @pytest.mark.parametrize("name", ["packet", "spinor"])
    def test_ring_bundle_sizes_give_each_point_its_lone_bits(self, name):
        ev = _RingEvaluator(self.ring_cases()[name])
        q = np.random.default_rng(8).uniform(-20.0, 20.0,
                                             2 * _GEMM_COLUMNS + 1)
        lone = [ev(q[i:i + 1]) for i in range(q.size)]
        for m in range(q.size + 1):
            v, rho = ev(q[:m])
            assert v.shape == rho.shape == (m,)
            for i in range(m):
                assert v[i:i + 1].view(np.int64) == lone[i][0].view(np.int64)
                assert rho[i:i + 1].view(np.int64) == lone[i][1].view(np.int64)

    def test_ring_threads_do_not_share_work_arrays(self):
        # each thread's calls go through its own baby-row and product
        # buffers; numpy drops the GIL inside them, so shared ones would mix
        # one thread's sums into another's
        ev = _RingEvaluator(self.ring_cases()["spinor"])
        bundles = [np.random.default_rng(seed).uniform(0, TWO_PI, 2000 + seed)
                   for seed in range(4)]
        expected = [ev(q) for q in bundles]
        wrong = []

        def run(i):
            for _ in range(30):
                v, rho = ev(bundles[i])
                if not (np.array_equal(v, expected[i][0])
                        and np.array_equal(rho, expected[i][1])):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(bundles))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_antisymmetric_torus_pair(self):
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5, 2.0),
            lambda t: wrapped_gaussian(t, 4.3, 0.5, -1.0), -1, n_points=64)
        v_grid, _ = velocity_field(state)
        theta = angle_grid(64)
        q = np.stack(np.meshgrid(theta, theta, indexing="ij"), axis=-1)
        v, rho = _TorusEvaluator(state)(q.reshape(-1, 2))
        self.assert_matches_grid(v.reshape(v_grid.shape), rho.reshape(64, 64),
                                 v_grid, np.abs(state.values) ** 2)

    def test_torus_off_grid_against_direct_sum(self):
        # a product that is in no exchange sector, so a transposed C or
        # swapped axes would change the field: axis 1 holds two packets at
        # momenta +-12 (a gap in its span), axis 2 two narrower packets.
        # The direct sum runs over the coefficients the evaluator keeps, so
        # it checks the evaluation, not the COEFF_CUT truncation.
        n = 64
        theta = angle_grid(n)
        f1 = wrapped_gaussian(theta, 2.0, 1.0, 12.0) \
            + 0.7 * wrapped_gaussian(theta, 4.5, 1.0, -12.0)
        f2 = wrapped_gaussian(theta, 3.5, 0.6, 3.0) \
            + 0.5 * wrapped_gaussian(theta, 1.0, 0.6, -2.0)
        state = WaveGrid(space=PairGrid(radius=1.5), values=np.outer(f1, f2),
                         twist=Character.exchange(2, -1)).normalized()
        coeffs = np.fft.fft2(state.values) / n ** 2
        kept = np.abs(coeffs) > COEFF_CUT * np.max(np.abs(coeffs))
        coeffs = np.where(kept, coeffs, 0.0)
        modes = np.fft.fftfreq(n, d=1.0 / n)
        kept_a, kept_b = modes[np.any(kept, axis=1)], modes[np.any(kept, axis=0)]
        span_a = kept_a.max() - kept_a.min() + 1
        assert kept_a.size < span_a                            # a gap
        assert span_a != kept_b.max() - kept_b.min() + 1       # na != nb

        q = np.random.default_rng(4).uniform(0, TWO_PI, (500, 2))
        e1 = np.exp(1j * q[:, :1] * modes)                    # (M, n)
        e2 = np.exp(1j * q[:, 1:] * modes)
        psi = np.einsum("ma,ab,mb->m", e1, coeffs, e2)
        d1 = np.einsum("ma,ab,mb->m", e1 * 1j * modes, coeffs, e2)
        d2 = np.einsum("ma,ab,mb->m", e1, coeffs, e2 * 1j * modes)
        rho_ref = np.abs(psi) ** 2
        v_ref = np.stack([np.imag(np.conj(psi) * d1),
                          np.imag(np.conj(psi) * d2)], axis=1) \
            / rho_ref[:, None] / 1.5 ** 2

        v, rho = _TorusEvaluator(state)(q)
        assert np.max(np.abs(rho - rho_ref)) <= 1e-13 * np.max(rho_ref)
        ok = rho_ref > 1e-6 * np.max(rho_ref)
        assert np.count_nonzero(ok) > 100
        for axis in (0, 1):
            err = np.abs(v[ok, axis] - v_ref[ok, axis])
            assert np.max(err) <= 1e-10 * np.max(np.abs(v_ref[ok, axis]))

        v_neg, rho_neg = _TorusEvaluator(state, velocity_factor=-1.0)(q)
        assert np.array_equal(v_neg, -v) and np.array_equal(rho_neg, rho)

    def test_torus_evaluator_works_on_kept_modes_only(self):
        state = _gapped_pair()
        coeffs = np.fft.fft2(state.values) / 64 ** 2
        kept = np.abs(coeffs) > COEFF_CUT * np.max(np.abs(coeffs))
        n_a = np.count_nonzero(np.any(kept, axis=1))
        n_b = np.count_nonzero(np.any(kept, axis=0))
        ev = _TorusEvaluator(state)
        assert ev.blocks.shape == (2 * n_b, n_a)
        assert not np.any(np.all(ev.blocks == 0, axis=0))
        assert not np.any(np.all(ev.blocks == 0, axis=1))

        # each stored row is the row of its mode in a contiguous recurrence
        angles = np.random.default_rng(6).uniform(-40.0, 40.0, 13)
        z = _unit_phase(angles)
        for modes in (ev.modes_a, ev.modes_b):
            plain = np.empty((modes[-1] - modes[0] + 1, angles.size),
                             dtype=complex)
            plain[0] = 1.0
            for j in range(1, len(plain)):
                np.multiply(plain[j - 1], z, out=plain[j])
            assert np.array_equal(_TorusEvaluator._powers(angles, modes),
                                  plain[modes - modes[0]])

    def test_unwrapped_angles_give_the_base_field(self):
        # a lift is off by |theta| eps from its base angle once rounded
        state = make_gaussian_state(Character.ring(0.9), 2.0, 0.45, 3.0)
        ev = _RingEvaluator(state)
        theta = np.random.default_rng(5).uniform(0, TWO_PI, 2000)
        v0, rho0 = ev(theta)
        ok = rho0 > 1e-6 * np.max(rho0)
        for w in (-3, 50, 10 ** 5):
            lifted = theta + TWO_PI * w
            v, rho = ev(lifted)
            scale = 16 * np.max(np.abs(lifted)) * EPS
            assert np.max(np.abs(rho - rho0)) <= (1e-14 + scale) * np.max(rho0)
            assert np.max(np.abs(v - v0)[ok]) \
                <= (1e-11 + scale) * np.max(np.abs(v0[ok]))


def _gapped_pair():
    """An antisymmetric pair whose packets' momenta share a sign.

    One packet's tail aliases across the Nyquist edge, so each axis keeps
    45 modes in a span of 64.
    """
    return symmetrized_product_state(
        lambda t: wrapped_gaussian(t, 2.0, 0.241, -10.8),
        lambda t: wrapped_gaussian(t, 4.3, 0.241, -11.19), -1, n_points=64)


def _ring_block_modes(ev):
    """A ring evaluator's block read back one row per mode of its span,
    lowest mode first: (span, 2k) chi and d chi coefficients."""
    baby = ev.block.shape[1]
    rows = ev.block.reshape(-1, 2 * ev.betas.shape[0], baby)       # (G, 2k, B)
    return rows.transpose(0, 2, 1).reshape(-1, rows.shape[1])[:ev.span]


def _full_sum(coeffs, angles):
    """sum_k c_k exp(i k . q) over every coefficient, in extended precision."""
    n = coeffs.shape[0]
    modes = fourier_modes(n).astype(np.longdouble)
    angles = np.asarray(angles, dtype=np.longdouble).reshape(len(angles), -1)
    bases = []
    for axis in range(angles.shape[1]):
        phase = np.outer(angles[:, axis], modes)
        bases.append(np.cos(phase) + 1j * np.sin(phase))
    c = coeffs.astype(np.clongdouble)
    if len(bases) == 1:
        return bases[0] @ c
    return np.einsum("ma,ab,mb->m", bases[0], c, bases[1])


class TestTruncation:
    """The l1 norm of the coefficients COEFF_CUT drops, per snapshot."""

    @staticmethod
    def ring():
        return make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0)

    @staticmethod
    def narrow():
        return make_gaussian_state(Character.ring(0.5), 2.0, 0.15, 2.0,
                                   n_points=1024)

    @staticmethod
    def pair():
        return symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5, 1.0),
            lambda t: wrapped_gaussian(t, 4.3, 0.5, -1.0), -1, n_points=64)

    def test_figures(self):
        # about 8e-15, 1.3e-13 and 1.4e-12: the pair drops over ten times
        # the cut that bounds each coefficient
        assert 1e-15 < _RingEvaluator(self.ring()).truncation < 3e-14
        assert 5e-14 < _RingEvaluator(self.narrow()).truncation < 5e-13
        pair = _TorusEvaluator(self.pair()).truncation
        assert 10 * COEFF_CUT < pair < 5e-12

    def test_spinor_sums_its_sectors(self):
        rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
        theta = angle_grid(128)
        parts = [wrapped_gaussian(theta, 3.0, 0.5, 2.0),
                 0.3 * wrapped_gaussian(theta, 1.5, 0.4, -1.0)]
        spinor = _RingEvaluator(twist_embed(parts, rep)).truncation
        coeffs = np.fft.fft(twist_embed(parts, rep).values, axis=1)
        weight = np.max(np.abs(coeffs), axis=0)
        dropped = weight <= COEFF_CUT * np.max(weight)
        per_sector = np.sum(np.abs(coeffs[:, dropped]), axis=1) \
            / np.max(weight)
        assert spinor == pytest.approx(np.sum(per_sector), rel=1e-12, abs=0)
        assert spinor > np.max(per_sector)

    @pytest.mark.parametrize("name", ["ring", "narrow", "pair"])
    def test_bounds_the_distance_to_the_full_sum(self, name):
        state = getattr(self, name)()
        rng = np.random.default_rng(6)
        if name == "pair":
            q = rng.uniform(0, TWO_PI, (500, 2))
            ev = _TorusEvaluator(state)
            coeffs = np.fft.fft2(state.values) / state.n_points ** 2
        else:
            q = rng.uniform(0, TWO_PI, 500)
            ev = _RingEvaluator(state)
            coeffs = np.fft.fft(state.values[0]) / state.n_points
        peak = np.max(np.abs(coeffs))
        bound = ev.truncation * peak
        kept = np.where(np.abs(coeffs) > COEFF_CUT * peak, coeffs, 0.0)
        psi_full = _full_sum(coeffs, q)
        gap = np.abs(_full_sum(kept, q) - psi_full)
        assert np.max(gap) <= bound
        assert np.max(gap) > 0.1 * bound           # the bound is not idle
        # the evaluator sums the kept span to rounding; where the
        # truncation dominates that rounding (the pair), it bounds the
        # evaluator's own distance to the full sum
        _, rho = ev(q)
        err = np.abs(np.sqrt(rho) - np.abs(psi_full)).astype(float)
        assert np.max(err) <= bound + 1e-13 * peak
        if name == "pair":
            assert np.max(err) <= bound

    def test_transport_reports_the_worst_snapshot(self):
        state, dt = self.ring(), 2e-3
        potential = Potential.from_callable(lambda t: 0.5 * np.cos(t - 0.3),
                                            state.n_points)
        result, _ = transport(state, potential, [1.5, 2.0], dt, 6)
        worst, s = _RingEvaluator(state).truncation, state
        for _ in range(12):
            s = evolve(s, potential, 0.5 * dt, 1)
            worst = max(worst, _RingEvaluator(s).truncation)
        assert result.truncation == worst


class TestIntegrateTrajectory:
    def test_constant_velocity_winds_half_turn(self):
        state = make_eigenstate(0, Character.ring(np.pi))
        dt = TWO_PI / 1000
        result = integrate_trajectories(state, Potential.zero(), [0.0], dt,
                                        TWO_PI)
        assert result.status[0] == STATUS_COMPLETED
        assert result.positions[-1, 0] == pytest.approx(np.pi, abs=1e-9)
        assert result.angles[-1, 0] == pytest.approx(np.pi, abs=1e-9)
        assert result.windings[-1, 0] == 0

    def test_full_turn_increments_winding(self):
        state = make_eigenstate(1, Character.ring(0.0))  # v = 1
        dt = TWO_PI / 500
        result = integrate_trajectories(state, Potential.zero(), [0.5], dt,
                                        2 * TWO_PI)
        assert result.windings[-1, 0] == 2
        assert result.angles[-1, 0] == pytest.approx(0.5, abs=1e-9)

    def test_real_packet_agrees_with_fine_dt_reference(self):
        state = make_gaussian_state(Character.ring(0.0), np.pi, 0.5, 0.0)
        coarse = integrate_trajectories(state, Potential.zero(), [2.5], 5e-3,
                                        0.4).positions[:, 0]
        fine = integrate_trajectories(state, Potential.zero(), [2.5], 5e-4,
                                      0.4).positions[:, 0]
        assert abs(coarse[-1] - fine[-1]) <= 1e-8
        # starts at rest: negligible motion before the dispersion time 2 w0^2,
        # then the spreading flow carries it outward
        assert abs(coarse[10] - 2.5) <= 0.01   # t = 0.05
        assert coarse[-1] < 2.5                # moving away from center

    def test_node_halt_recorded(self):
        # psi = 1 + e^{i theta} has a node at pi; a trajectory started inside
        # the low-density window halts immediately and stays frozen
        theta = angle_grid(512)
        state = twist_embed(1.0 + np.exp(1j * theta), Character.ring(0.0))
        result = integrate_trajectories(state, Potential.zero(), [3.14], 1e-2,
                                        0.5, eps_node=1e-4)
        assert result.status[0] == STATUS_HALTED
        assert result.halt_times[0] == pytest.approx(0.0)
        assert np.all(result.positions[:, 0] == 3.14)

    def test_trajectory_chasing_a_node_never_halts(self):
        # the node of 1 + e^{i theta} drifts at speed 1/2, exactly the
        # trajectory velocity: the pursuer stays behind it forever
        theta = angle_grid(512)
        state = twist_embed(1.0 + np.exp(1j * theta), Character.ring(0.0))
        result = integrate_trajectories(state, Potential.zero(), [2.0], 1e-2,
                                        3.0, eps_node=1e-4)
        assert result.status[0] == STATUS_COMPLETED
        assert np.isnan(result.halt_times[0])
        assert result.positions[-1, 0] == pytest.approx(2.0 + 0.5 * 3.0,
                                                        abs=1e-6)

    def test_time_step_fourth_order(self):
        theta = angle_grid(256)
        chi = wrapped_gaussian(theta, 2.0, 0.45, 4.0) \
            + 0.8 * wrapped_gaussian(theta, 3.6, 0.5, -2.0)
        state = twist_embed(chi, Character.ring(np.pi))
        reference = integrate_trajectories(state, Potential.zero(), [2.2],
                                           6.25e-4, 0.4).positions[-1, 0]
        errors = []
        for dt in (2e-2, 1e-2, 5e-3):
            end = integrate_trajectories(state, Potential.zero(), [2.2], dt,
                                         0.4).positions[-1, 0]
            errors.append(abs(end - reference))
        for coarse, finer in zip(errors, errors[1:]):
            assert 8.0 <= coarse / finer <= 32.0

    def test_gauge_invariance_of_trajectories(self):
        flux, e = np.pi, 1.0
        sa = make_gaussian_state(Character.ring(-e * flux), 3.0, 0.6, 1.0)
        st = gauge_map(sa)
        for q0 in (0.5, 3.0):
            ta = integrate_trajectories(sa, Potential.zero(), [q0], 1e-3,
                                        0.25)
            tt = integrate_trajectories(st, Potential.zero(), [q0], 1e-3,
                                        0.25)
            assert np.max(np.abs(ta.positions - tt.positions)) <= 1e-6

    def test_t_final_must_divide(self):
        state = make_eigenstate(0, Character.ring(0.0))
        with pytest.raises(ConfigError, match="multiple"):
            integrate_trajectories(state, Potential.zero(), [0.0], 1e-3, 0.0015)


class TestBundles:
    def test_no_crossing_in_bundle(self):
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0)
        rng = np.random.default_rng(77)
        starts = np.sort(rng.uniform(1.0, 3.0, 100))
        result, _ = transport(state, Potential.zero(), starts, 2e-3, 250,
                              record_every=25)
        for snapshot in result.positions:
            gaps = np.diff(np.sort(snapshot))
            assert np.all(gaps > 0.0)

    @pytest.mark.parametrize("n_steps", [-3, 2.5])
    def test_step_count_must_be_a_nonnegative_integer(self, n_steps):
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0)
        with pytest.raises(ConfigError, match="nonnegative integer"):
            transport(state, Potential.zero(), [1.5, 2.0], 2e-3, n_steps)

    def test_zero_steps_record_the_starts(self):
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0)
        result, final = transport(state, Potential.zero(), [1.5, 2.0], 2e-3, 0)
        assert final is state
        assert np.array_equal(result.times, [0.0])
        assert np.array_equal(result.positions, [[1.5, 2.0]])

    def test_bundle_paths_equal_lone_paths(self):
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0)
        starts = [1.5, 2.0, 2.6]
        bundle = integrate_trajectories(state, Potential.zero(), starts,
                                        2e-3, 0.2)
        for i, q0 in enumerate(starts):
            alone = integrate_trajectories(state, Potential.zero(), [q0], 2e-3,
                                           0.2)
            assert np.array_equal(bundle.positions[:, i], alone.positions[:, 0])
            assert bundle.status[i] == alone.status[0]

    def test_pair_bundle_equals_lone_pairs(self):
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5, 1.0),
            lambda t: wrapped_gaussian(t, 4.3, 0.5, -1.0), -1, n_points=64)
        starts = np.array([[2.0, 4.3], [1.7, 4.0], [2.4, 4.8]])
        bundle, _ = transport(state, Potential.zero(), starts, 2e-3, 100)
        for i, start in enumerate(starts):
            alone, _ = transport(state, Potential.zero(), start[None], 2e-3,
                                 100)
            assert np.array_equal(bundle.positions[:, i],
                                  alone.positions[:, 0])
            assert bundle.status[i] == alone.status[0]

    def test_gapped_pair_bundle_equals_lone_pairs(self):
        state = _gapped_pair()
        ev = _TorusEvaluator(state)
        for modes in (ev.modes_a, ev.modes_b):
            assert modes.size == 45
            assert modes[-1] - modes[0] + 1 == 64
        starts = np.array([[2.0, 4.3], [1.8, 4.4], [4.3, 2.0]])
        bundle, _ = transport(state, Potential.zero(), starts, 2e-3, 100)
        for i, start in enumerate(starts):
            alone, _ = transport(state, Potential.zero(), start[None], 2e-3,
                                 100)
            assert np.array_equal(bundle.positions[:, i],
                                  alone.positions[:, 0])
            assert bundle.status[i] == alone.status[0]

    @staticmethod
    def assert_lone_runs_equal(state, starts, n_steps, eps_node):
        """The bundle's positions, statuses and halt times equal each
        start's lone run bit for bit; returns the bundle's result."""
        bundle, _ = transport(state, Potential.zero(), starts, 1e-2, n_steps,
                              eps_node=eps_node)
        for i, start in enumerate(starts):
            alone, _ = transport(state, Potential.zero(), [start], 1e-2,
                                 n_steps, eps_node=eps_node)
            assert np.array_equal(bundle.positions[:, i],
                                  alone.positions[:, 0])
            assert bundle.status[i] == alone.status[0]
            assert np.array_equal(bundle.halt_times[i:i + 1],
                                  alone.halt_times, equal_nan=True)
        return bundle

    def test_ring_bundle_with_halts_midway_equals_lone_paths(self):
        # psi = 1 + 0.9 e^{i theta}: the density's minimum, at phase
        # theta - t/2 = pi, holds 0.0028 of its peak, and every particle
        # drifts backwards through the pattern, fastest where rho is small.
        # The starts at pi + 0.3 and pi + 0.5 reach the window below 1e-2
        # of the peak at different steps after the first; the others stay
        # far from it.  The second halt is indexed within the particles
        # still moving
        theta = angle_grid(64)
        state = twist_embed(1.0 + 0.9 * np.exp(1j * theta), Character.ring(0.0))
        starts = [0.5, np.pi + 0.3, 2.0, np.pi + 0.5, 5.5]
        result = self.assert_lone_runs_equal(state, starts, 60, 1e-2)
        halted = result.status == STATUS_HALTED
        assert list(np.flatnonzero(halted)) == [1, 3]
        assert 0.0 < result.halt_times[1] < result.halt_times[3] < 0.6
        for i in (1, 3):
            step = round(result.halt_times[i] / 1e-2)
            assert np.all(result.positions[step:, i]
                          == result.positions[step, i])

    def test_pair_bundle_with_halts_midway_equals_lone_pairs(self):
        # the same pattern in theta1 + theta2, exchange-symmetric: psi =
        # 1 + 0.9 e^{i (theta1 + theta2)}
        theta = angle_grid(64)
        values = 1.0 + 0.9 * np.exp(1j * (theta[:, None] + theta[None, :]))
        state = make_two_particle_state(values, 1)
        starts = np.array([[0.5, 1.5], [1.0, np.pi - 0.7], [2.5, 3.0],
                           [1.0, np.pi - 0.5]])
        result = self.assert_lone_runs_equal(state, starts, 60, 1e-2)
        halted = result.status == STATUS_HALTED
        assert list(np.flatnonzero(halted)) == [1, 3]
        assert 0.0 < result.halt_times[1] < result.halt_times[3] < 0.6

    def test_antisymmetric_pair_never_meets(self):
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5, 1.0),
            lambda t: wrapped_gaussian(t, 4.3, 0.5, -1.0), -1, n_points=64)
        starts = np.array([[2.0, 4.3], [1.7, 4.0], [2.4, 4.8]])
        result, _ = transport(state, Potential.zero(), starts, 2e-3, 250,
                              record_every=10)
        sep = np.abs(result.positions[..., 0] - result.positions[..., 1])
        sep = np.minimum(np.mod(sep, TWO_PI), TWO_PI - np.mod(sep, TWO_PI))
        assert np.min(sep) > 1e-3


class TestLift:
    """A path's continuous lift is its column of ``positions``."""

    def test_lift_accumulates_windings(self):
        state = make_eigenstate(1, Character.ring(0.0))
        dt = TWO_PI / 500
        result = integrate_trajectories(state, Potential.zero(), [0.25], dt,
                                        2 * TWO_PI)
        lift, windings = result.positions[:, 0], result.windings[:, 0]
        assert np.all(np.diff(lift) > 0)
        assert lift[-1] - lift[0] == pytest.approx(2 * TWO_PI, abs=1e-9)
        assert windings[-1] - windings[0] == 2

    def test_lifts_differ_by_deck_element(self):
        # starts one sheet apart follow paths one full turn apart
        state = make_eigenstate(0, Character.ring(np.pi))
        result = integrate_trajectories(state, Potential.zero(),
                                        [1.0, 1.0 + TWO_PI], 1e-2, 1.0)
        l0, l1 = result.positions.T
        assert np.allclose(l1 - l0, TWO_PI)
        w0, w1 = result.windings.T
        assert np.array_equal(w1 - w0, np.ones_like(w0))

    def test_projection_returns_original(self):
        state = make_eigenstate(0, Character.ring(np.pi))
        result = integrate_trajectories(state, Potential.zero(),
                                        [1.0, 1.0 + 2 * TWO_PI], 1e-2, 1.0)
        base, lift = result.angles.T
        assert np.allclose(lift, base, atol=1e-12)

    def test_stationary_trajectory_constant_lift(self):
        state = make_gaussian_state(Character.ring(0.0), np.pi, 0.4, 0.0)
        lift = integrate_trajectories(state, Potential.zero(), [np.pi], 1e-2,
                                      0.1).positions[:, 0]
        assert np.max(np.abs(lift - lift[0])) < 1e-4


class TestTorusFields:
    def test_velocity_projectable_under_exchange(self):
        # pushing the field forward by the swap exchanges components and
        # arguments; for a sector state it must reproduce itself
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5, 1.0),
            lambda t: wrapped_gaussian(t, 4.3, 0.5, -1.0), -1, n_points=64)
        v, mask = velocity_field(state)
        ok = ~(mask | mask.T)
        assert np.max(np.abs(v[..., 0].T - v[..., 1])[ok]) <= 1e-9

    def test_two_particle_equivariance(self):
        from topobohm.ensembles import sample_density, tv_distance
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5, 2.0),
            lambda t: wrapped_gaussian(t, 4.3, 0.5, -1.0), -1, n_points=64)
        n = 4000
        samples = sample_density(state, n, seed=9)
        result, evolved = transport(state, Potential.zero(), samples, 4e-3, 75)
        final = result.positions[-1]
        # against the exact masses of the 16^2 bins
        moved = tv_distance(final, evolved.density(), 16)
        stale = tv_distance(final, state.density(), 16)
        assert moved <= 0.03 + 2 * np.sqrt(256 / n)
        # the initial density is no longer a match after t = 0.3
        assert stale > moved + 0.1
