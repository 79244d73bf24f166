"""Spontaneous collapse: rates, collapse maps, and the event process."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from oracles import collapse_rate
from topobohm import collapse, propagation
from topobohm.covering import TWO_PI, Winding
from topobohm.errors import ConfigError, PhysicsError, ToleranceError
from topobohm.factors import Character
from topobohm.propagation import (
    Potential,
    angle_grid,
    evolve,
    make_eigenstate,
    make_gaussian_state,
    symmetrized_product_state,
    twist_embed,
    wrapped_gaussian,
)
from topobohm.collapse import (
    _RateDensity,
    _advance,
    apply_collapse,
    collapse_multiplier,
    localization_bump,
    rate_over_centers,
    simulate_grw,
    total_rate,
    wrapped_distance,
)
from topobohm.ensembles import density_bin_masses, sample_from_grid_density

LAM, A = 1.0, 0.3


def quadrature_bump_mass(a, n=200_001):
    """Independent Riemann quadrature of the wrapped Gaussian bump."""
    x = np.linspace(0, TWO_PI, n, endpoint=False)
    return float(np.sum(localization_bump(x, 0.0, a)) * (TWO_PI / n))


class TestRates:
    def test_uniform_state_rate_is_rotation_invariant(self):
        state = make_eigenstate(0, Character.ring(0.0))
        rates = [collapse_rate(state, x, LAM, A)
                 for x in np.linspace(0, TWO_PI, 9, endpoint=False)]
        assert np.max(rates) - np.min(rates) <= 1e-12

    def test_total_rate_matches_quadrature_oracle(self):
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 2.0)
        oracle = LAM * quadrature_bump_mass(A)  # norm-1 state, one particle
        assert total_rate(state, LAM, A) == pytest.approx(oracle, rel=1e-8)
        # and approximately lam * sqrt(2 pi a^2) for a << 2 pi
        assert total_rate(state, LAM, A) == pytest.approx(
            LAM * np.sqrt(2 * np.pi * A ** 2), rel=1e-10)

    def test_two_identical_particles_rates_add(self):
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5),
            lambda t: wrapped_gaussian(t, 4.3, 0.5), -1, n_points=64)
        x = 1.0
        rho = state.density()
        theta = state.theta
        bump = localization_bump(theta, x, A)
        marg1 = rho.sum(axis=1) * state.dx
        marg2 = rho.sum(axis=0) * state.dx
        oracle = LAM * (np.sum(bump * marg1) + np.sum(bump * marg2)) * state.dx
        assert collapse_rate(state, x, LAM, A) == pytest.approx(oracle, rel=1e-10)

    def test_labelled_variant_sums_to_total(self):
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5),
            lambda t: wrapped_gaussian(t, 4.3, 0.5), +1, n_points=64)
        x = 2.5
        total = collapse_rate(state, x, LAM, A)
        labelled = sum(collapse_rate(state, x, LAM, A, label=i) for i in (0, 1))
        assert total == pytest.approx(labelled, rel=1e-12)

    def test_negative_width_rejected(self):
        state = make_eigenstate(0, Character.ring(0.0))
        with pytest.raises(ConfigError, match="positive"):
            collapse_rate(state, 0.0, LAM, -0.1)

    def test_width_below_grid_spacing_rejected(self):
        # a half-spacing bump misses its total rate by 1.4% at n = 128
        state = make_eigenstate(0, Character.ring(0.0), n_points=128)
        a = 0.5 * state.dx
        calls = (lambda: collapse_rate(state, 0.0, LAM, a),
                 lambda: apply_collapse(state, 0.0, LAM, a),
                 lambda: rate_over_centers(state, LAM, a),
                 lambda: total_rate(state, LAM, a),
                 lambda: simulate_grw(state, Potential.zero(), 0.1, LAM, a,
                                      seed=1, dt=2e-3),
                 lambda: simulate_grw(state, Potential.zero(), 0.1, 0.0, a,
                                      seed=1, dt=2e-3))
        for call in calls:
            with pytest.raises(ConfigError, match="grid spacing"):
                call()

    def test_width_of_one_grid_spacing_accepted(self):
        state = make_eigenstate(0, Character.ring(0.0), n_points=128)
        a = state.dx
        expected = LAM * np.sqrt(2 * np.pi) * a
        result = simulate_grw(state, Potential.zero(), 0.1, LAM, a, seed=1,
                              dt=2e-3)
        assert abs(result.total_rate - expected) <= 1e-8 * expected

    def test_wrapped_distance(self):
        assert wrapped_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
        assert wrapped_distance(1.0, 1.0 + np.pi) == pytest.approx(np.pi)


class TestApplyCollapse:
    def test_wide_profile_leaves_state_unchanged(self):
        state = make_gaussian_state(Character.ring(0.0), 2.0, 0.5, 1.0,
                                    n_points=64)
        collapsed, _ = apply_collapse(state, 4.0, LAM, 1e6)
        assert np.max(np.abs(collapsed.values - state.values)) <= 1e-9

    def test_antisymmetric_sector_preserved(self):
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5),
            lambda t: wrapped_gaussian(t, 4.3, 0.5), -1, n_points=64)
        collapsed, event = apply_collapse(state, 2.0, LAM, A)
        assert collapsed.twist_residual() <= 1e-12
        assert collapsed.norm() == pytest.approx(1.0, abs=1e-10)
        assert event.post_norm == pytest.approx(
            np.sqrt(collapse_rate(state, 2.0, LAM, A)), rel=1e-10)

    def test_mass_concentrates_at_nearer_bump(self):
        theta = angle_grid(128)
        two_bump = twist_embed(
            wrapped_gaussian(theta, 1.5, 0.3) + wrapped_gaussian(theta, 4.5, 0.3),
            Character.ring(0.0))
        collapsed, _ = apply_collapse(two_bump, 1.5, LAM, A)
        peak = theta[np.argmax(collapsed.density())]
        assert wrapped_distance(peak, 1.5) <= A

    def test_twist_sector_preserved(self):
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.5, 1.0)
        collapsed, _ = apply_collapse(state, 3.0, LAM, A)
        assert collapsed.twist_residual() <= 1e-9

    def test_zero_rate_rejected(self):
        # state concentrated opposite a very narrow bump: rate underflows to
        # 0 (n = 1024 resolves the bump: its spacing 0.006 is below a)
        state = make_gaussian_state(Character.ring(0.0), 0.0, 0.05, 0.0,
                                    n_points=1024)
        with pytest.raises(PhysicsError, match="rate vanishes"):
            apply_collapse(state, np.pi, LAM, 0.01)

    def test_collapse_commutes_with_symmetrization(self, rng):
        # the identical-particle multiplier is exchange symmetric, so
        # collapsing then projecting equals projecting then collapsing
        raw = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        from topobohm.propagation import make_two_particle_state
        state = make_two_particle_state(raw - raw.T, -1)
        mult = np.sqrt(collapse_multiplier(state, 2.0, LAM, A))
        collapsed_then_projected = state.values * mult
        collapsed_then_projected = (collapsed_then_projected
                                    - collapsed_then_projected.T) / 2
        projected_then_collapsed = ((state.values - state.values.T) / 2) * mult
        assert np.max(np.abs(collapsed_then_projected
                             - projected_then_collapsed)) <= 1e-10


class TestSimulate:
    def test_zero_rate_is_pure_schroedinger(self):
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                    n_points=64)
        v = Potential.from_callable(lambda t: 0.3 * np.cos(t), 64)
        result = simulate_grw(state, v, 0.2, 0.0, A, seed=1, dt=1e-3)
        assert result.events == []
        reference = evolve(state.normalized(), v, 1e-3, 200)
        assert np.max(np.abs(result.final_state.values
                             - reference.values)) <= 1e-12

    def test_zero_rate_lands_on_t_final_between_steps(self):
        # 0.0026 is 2.6 steps of 1e-3: two whole steps and one 0.0006 step
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                    n_points=64)
        v = Potential.from_callable(lambda t: 0.3 * np.cos(t), 64)
        result = simulate_grw(state, v, 0.0026, 0.0, A, seed=1, dt=1e-3)
        reference = evolve(evolve(state.normalized(), v, 1e-3, 2), v, 0.0006, 1)
        assert np.max(np.abs(result.final_state.values
                             - reference.values)) <= 1e-12

    @pytest.mark.parametrize("t_final,lam,match", [
        (-0.5, LAM, "t_final"), (0.5, -1.0, "rate constant")])
    def test_negative_inputs_rejected(self, t_final, lam, match):
        state = make_eigenstate(0, Character.ring(0.0))
        with pytest.raises(ConfigError, match=match):
            simulate_grw(state, Potential.zero(), t_final, lam, A, seed=1)

    def test_event_times_increase_and_twist_survives(self):
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                    n_points=128)
        t_final = 5.0 / (LAM * np.sqrt(2 * np.pi * A ** 2))
        result = simulate_grw(state, Potential.zero(), t_final, LAM, A,
                              seed=33, dt=2e-3)
        times = [e.time for e in result.events]
        assert times == sorted(times)
        assert result.max_twist_residual <= 1e-9
        assert result.final_state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_one_set_up_per_step_size(self, monkeypatch):
        # every interval ends on an event time with a remainder step of its
        # own size; the whole steps between them must reuse one set-up
        built = []
        original = propagation.SplitStep.__init__

        def counting_init(step, *args):
            built.append(args[2])
            original(step, *args)

        monkeypatch.setattr(propagation.SplitStep, "__init__", counting_init)
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                    n_points=64)
        v = Potential.from_callable(lambda t: 0.3 * np.cos(t), 64)
        t_final = 5.0 / (LAM * np.sqrt(2 * np.pi * A ** 2))
        result = simulate_grw(state, v, t_final, LAM, A, seed=11, dt=2e-3)
        assert result.n_events >= 3
        assert built.count(2e-3) == 1
        assert len(built) <= 1 + result.n_events + 1

    def test_remainders_never_build_the_dense_matrix(self, monkeypatch):
        # at n = 128 the whole steps run on the dense matrix; the remainder
        # step of each interval takes the FFT pair and builds none
        made = []
        original = propagation.SplitStep.__init__

        def recording_init(step, *args):
            made.append(step)
            original(step, *args)

        monkeypatch.setattr(propagation.SplitStep, "__init__", recording_init)
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                    n_points=128)
        v = Potential.from_callable(lambda t: 0.3 * np.cos(t), 128)
        t_final = 5.0 / (LAM * np.sqrt(2 * np.pi * A ** 2))
        result = simulate_grw(state, v, t_final, LAM, A, seed=11, dt=2e-3)
        assert result.n_events >= 3
        assert len(made) == result.n_events + 2
        dense = [step.dt for step in made if "matrix" in vars(step)]
        assert dense == [2e-3]

    def test_remainder_agrees_with_a_dense_step(self):
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                    n_points=128)
        v = Potential.from_callable(lambda t: 0.3 * np.cos(t), 128)
        dt = 2e-3
        span = 7.4 * dt
        got = _advance(state, v, span, dt)
        whole = evolve(state, v, dt, 7)
        expected = evolve(whole, v, span - 7 * dt, 1)
        assert np.max(np.abs(got.values - expected.values)) <= 1e-13
        assert got._split_step.dt == dt  # the next interval reuses it

    def test_seed_determinism(self):
        state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                    n_points=64)
        a = simulate_grw(state, Potential.zero(), 2.0, LAM, A, seed=5, dt=2e-3)
        b = simulate_grw(state, Potential.zero(), 2.0, LAM, A, seed=5, dt=2e-3)
        assert [e.time for e in a.events] == [e.time for e in b.events]
        assert [e.center for e in a.events] == [e.center for e in b.events]
        assert np.array_equal(a.final_state.values, b.final_state.values)

    def test_outcome_distribution_matches_rate_density(self):
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.6, 0.0,
                                    n_points=128)
        rng = np.random.default_rng(5)
        n = 10_000
        rates = rate_over_centers(state, LAM, A)
        xs = np.array([sample_from_grid_density(rates, 1, rng)[0]
                       for _ in range(n)])
        masses = density_bin_masses(rates, 32)
        counts, _ = np.histogram(xs, bins=32, range=(0, TWO_PI))
        _, p = scipy.stats.chisquare(counts, masses * n)
        assert p > 0.001

    def test_two_particle_collapse_in_process(self):
        state = symmetrized_product_state(
            lambda t: wrapped_gaussian(t, 2.0, 0.5),
            lambda t: wrapped_gaussian(t, 4.3, 0.5), -1, n_points=64)
        result = simulate_grw(state, Potential.zero(), 1.0, LAM, A,
                              seed=41, dt=2e-3)
        assert result.max_twist_residual <= 1e-9


def _ring_case():
    state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                n_points=128)
    return state, Potential.from_callable(lambda t: 0.3 * np.cos(t), 128), 1


def _spinor_case():
    from topobohm.factors import MatrixRep
    from topobohm.scenario import spin_exponential
    rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
    theta = angle_grid(128)
    profile = wrapped_gaussian(theta, 3.0, 0.5)
    state = twist_embed([0.8 * profile, 0.6j * profile], rep)
    field = np.zeros((128, 2, 2))
    field[:, 0, 0] = 0.3 * np.cos(theta)
    field[:, 1, 1] = -0.2 * np.sin(theta)  # diagonal: commutes with the factor
    return state, Potential.matrix_field(field), 1


def _pair_case():
    state = symmetrized_product_state(
        lambda t: wrapped_gaussian(t, 2.0, 0.5),
        lambda t: wrapped_gaussian(t, 4.3, 0.5), -1, n_points=64)
    one = 0.3 * np.cos(angle_grid(64))
    return state, Potential.scalar(one[:, None] + one[None, :]), 2


@pytest.mark.parametrize("case", [_ring_case, _spinor_case, _pair_case],
                         ids=["ring", "spinor", "antisymmetric-pair"])
def test_total_rate_is_state_independent(case):
    """The homogeneous GRW clock rests on this: for a normalized state the
    total rate is lam * N * sum(bump) dx, through evolution and collapses."""
    state, potential, n_particles = case()
    state = state.normalized()
    bump = localization_bump(state.theta, 0.0, A)
    expected = LAM * n_particles * float(np.sum(bump)) * state.dx
    assert abs(total_rate(state, LAM, A) - expected) <= 1e-12 * expected
    for x in (1.0, 2.5, 4.0):
        state = evolve(state, potential, 1e-3, 50)
        assert abs(total_rate(state, LAM, A) - expected) <= 1e-12 * expected
        state, _ = apply_collapse(state, x, LAM, A)
        assert abs(total_rate(state, LAM, A) - expected) <= 1e-12 * expected


def test_spinor_collapse_preserves_twist():
    from topobohm.factors import MatrixRep
    from topobohm.scenario import spin_exponential
    rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
    profile = wrapped_gaussian(angle_grid(128), 3.0, 0.5)
    state = twist_embed([0.8 * profile, 0.6j * profile], rep)
    collapsed, _ = apply_collapse(state, 3.5, LAM, A)
    assert collapsed.twist_residual() <= 1e-9
    assert collapsed.norm() == pytest.approx(1.0, abs=1e-10)


def test_twist_layout_mismatch_raises():
    # sector angles that disagree with the factor break the twist that the
    # factor asks for; no option lets the run go on
    state = make_gaussian_state(Character.ring(np.pi), 3.0, 0.5, 1.0,
                                n_points=64)
    state = replace(state, sector_betas=state.sector_betas + 0.5)
    with pytest.raises(ToleranceError, match="twist-preservation"):
        simulate_grw(state, Potential.zero(), 1.0, LAM, A, seed=3, dt=2e-3)


def _reference_rates(state, lam, a):
    """r(x|psi) over the centres as first written, kernel built per call."""
    kernel_hat = np.fft.fft(localization_bump(state.theta, 0.0, a))
    rho = state.density()
    if state.space.kind != "ring":
        rho = rho.sum(axis=1) * state.dx + rho.sum(axis=0) * state.dx
    return lam * np.real(np.fft.ifft(kernel_hat * np.fft.fft(rho))) * state.dx


def _reference_twist_residual(state, n_sheets=3):
    """The twist residual as first written: one phase exp and one fold
    step per sheet."""
    if state.space.kind == "two_particle_ring":
        return state.twist_residual()
    sheets = []
    for s in range(n_sheets):
        phases = np.exp(1j * state.sector_betas[:, None]
                        * (state.theta[None, :] + TWO_PI * s) / TWO_PI)
        sector_psi = state.values * phases
        sheets.append(sector_psi if state.sector_basis is None
                      else state.sector_basis @ sector_psi)
    worst = 0.0
    for s, psi_s in enumerate(sheets):
        gamma = state._factor_matrix(Winding(s))
        worst = max(worst, float(np.max(np.abs(psi_s - gamma @ sheets[0]))))
    return worst


@pytest.mark.parametrize("case", [_ring_case, _spinor_case, _pair_case],
                         ids=["ring", "spinor", "antisymmetric-pair"])
def test_run_set_up_reads_as_the_per_call_functions(case):
    """A run builds its rate kernel and twist monitor on its first state and
    reads them after every step and collapse: bit for bit what the public
    functions, which build them per call, and the first formulas give."""
    state, potential, _ = case()
    state = state.normalized()
    if state.space.kind == "ring" and state.n_components == 2:
        assert state.sector_basis is not None
    rates = _RateDensity(state, LAM, A)
    twist = state.space.twist_monitor(state)
    for x in (1.0, 2.5, 4.0):
        state = evolve(state, potential, 1e-3, 20)
        state, _ = apply_collapse(state, x, LAM, A)
        got = rates(state)
        assert np.array_equal(got, rate_over_centers(state, LAM, A))
        assert np.array_equal(got, _reference_rates(state, LAM, A))
        residual = twist(state)
        assert residual == state.twist_residual()
        assert residual == _reference_twist_residual(state)


def test_monitor_sees_every_event(monkeypatch):
    # the label-0 bump multiplies by a function of the first coordinate
    # only, which breaks the antisymmetry: the first collapse must trip the
    # run's monitor, not the final check
    original = collapse.collapse_multiplier

    def labelled(state, x, lam, a, label=None):
        return original(state, x, lam, a, label=0)

    monkeypatch.setattr(collapse, "collapse_multiplier", labelled)
    state = symmetrized_product_state(
        lambda t: wrapped_gaussian(t, 2.0, 0.5),
        lambda t: wrapped_gaussian(t, 4.3, 0.5), -1, n_points=64)
    with pytest.raises(ToleranceError, match="twist-preservation@event-1"):
        simulate_grw(state, Potential.zero(), 5.0, LAM, A, seed=41, dt=2e-3)
