"""Density sampling and statistical equivariance."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topobohm.cli import json_text
from topobohm.covering import TWO_PI
from topobohm.errors import ConfigError, PhysicsError
from topobohm.factors import Character
from topobohm.propagation import (
    Potential,
    angle_grid,
    make_eigenstate,
    make_gaussian_state,
    wrapped_gaussian,
)
from topobohm.scenario import SCENARIO_SCHEMA_TAG, Scenario
from topobohm import ensembles
from topobohm.ensembles import (
    density_bin_masses,
    equivariance_threshold,
    ks_distance,
    sample_density,
    sample_from_grid_density,
    tv_distance,
    verify_equivariance,
)
from topobohm.trajectories import STATUS_COMPLETED, STATUS_HALTED, TransportResult

KS_99 = 1.63  # one-sided 99% critical coefficient c / sqrt(n)


class TestSampler:
    def test_uniform_density(self):
        state = make_eigenstate(0, Character.ring(0.0))
        n = 20_000
        points = sample_density(state, n, seed=7)
        assert ks_distance(points, state.density()) < KS_99 / np.sqrt(n)

    def test_narrow_gaussian_mean_concentrates(self):
        w0 = 0.1
        n = 10_000
        state = make_gaussian_state(Character.ring(0.0), 3.0, w0, 0.0)
        points = sample_density(state, n, seed=11)
        assert abs(np.mean(points) - 3.0) < 3 * w0 / np.sqrt(n) * 3

    def test_twisted_eigenstate_is_uniform(self):
        state = make_eigenstate(2, Character.ring(1.7))
        n = 20_000
        points = sample_density(state, n, seed=13)
        assert ks_distance(points, np.ones(state.n_points)) < KS_99 / np.sqrt(n)

    def test_seed_determinism(self):
        state = make_gaussian_state(Character.ring(0.0), 2.0, 0.5, 0.0)
        a = sample_density(state, 500, seed=3)
        b = sample_density(state, 500, seed=3)
        assert np.array_equal(a, b)

    def test_zero_density_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(PhysicsError, match="vanishes"):
            sample_from_grid_density(np.zeros(64), 10, rng)

    @pytest.mark.parametrize("seed,profile", [
        (101, "uniform"), (102, "gaussian"), (103, "two_bump"),
    ])
    def test_chi2_goodness_of_fit(self, seed, profile):
        theta = angle_grid(256)
        if profile == "uniform":
            rho = np.ones(256)
        elif profile == "gaussian":
            rho = np.abs(wrapped_gaussian(theta, 2.0, 0.6)) ** 2
        else:
            rho = (np.abs(wrapped_gaussian(theta, 1.5, 0.4)) ** 2
                   + 0.5 * np.abs(wrapped_gaussian(theta, 4.5, 0.3)) ** 2)
        n = 50_000
        rng = np.random.default_rng(seed)
        points = sample_from_grid_density(rho, n, rng)
        counts, _ = np.histogram(points, bins=64, range=(0, TWO_PI))
        expected = density_bin_masses(rho, 64) * n
        _, p = scipy.stats.chisquare(counts, expected)
        assert p > 0.001


# grid densities with exact zeros mixed in, so some cells have two zero ends
grid_densities = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
                          min_size=2, max_size=64).map(np.array)
seeds = st.integers(0, 2 ** 32 - 1)


class TestSamplerProperties:
    """Properties of the inverse-CDF sampler that draws every collapse
    centre and every ensemble start."""

    @settings(derandomize=True, deadline=None)
    @given(rho=grid_densities, seed=seeds)
    def test_samples_lie_on_the_circle(self, rho, seed):
        assume(rho.max() > 0)
        x = sample_from_grid_density(rho, 200, np.random.default_rng(seed))
        assert np.all((x >= 0.0) & (x < TWO_PI))

    @settings(derandomize=True, deadline=None)
    @given(rho=grid_densities, seed=seeds)
    def test_no_sample_inside_a_dead_cell(self, rho, seed):
        # a cell whose two end values are zero carries no mass; a sample may
        # touch its end points only from a neighbouring live cell
        assume(rho.max() > 0)
        m = rho.size
        live = (rho > 0) | (np.roll(rho, -1) > 0)
        x = sample_from_grid_density(rho, 200, np.random.default_rng(seed))
        pos = x / (TWO_PI / m)
        cell = np.floor(pos).astype(int) % m
        frac = pos - np.floor(pos)
        ok = (live[cell] | ((frac < 1e-9) & live[cell - 1])
              | ((frac > 1 - 1e-9) & live[(cell + 1) % m]))
        assert np.all(ok)

    @settings(derandomize=True, deadline=None)
    @given(m=st.integers(2, 64), level=st.floats(1e-3, 1e3), seed=seeds)
    def test_constant_density_fills_cells_binomially(self, m, level, seed):
        n = 4000
        x = sample_from_grid_density(np.full(m, level), n,
                                     np.random.default_rng(seed))
        counts = np.bincount(np.minimum((x / (TWO_PI / m)).astype(int), m - 1),
                             minlength=m)
        alpha = 1e-6 / m  # two-sided, Bonferroni over the cells
        lo = scipy.stats.binom.ppf(alpha / 2, n, 1 / m)
        hi = scipy.stats.binom.isf(alpha / 2, n, 1 / m)
        assert np.all((counts >= lo) & (counts <= hi))


def _reference_sample(rho, n, rng):
    """The sampler's arithmetic as first written: ``np.clip``, ``np.roll``
    and the three reductions of its checks."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < -1e-12 * np.max(np.abs(rho))):
        raise ConfigError("density must be nonnegative")
    rho = np.clip(rho, 0.0, None)
    if np.max(rho) == 0.0:
        raise PhysicsError("density vanishes everywhere; nothing to sample")
    m = rho.size
    h = TWO_PI / m
    right = np.roll(rho, -1)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho + right) * h)])
    u = rng.random(n) * cdf[-1]
    cells = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, m - 1)
    residual = u - cdf[cells]
    a = rho[cells]
    slope = (right[cells] - rho[cells]) / h
    s = np.empty_like(residual)
    linear = np.abs(slope) < 1e-14 * np.maximum(a, 1e-30)
    s[linear] = residual[linear] / np.maximum(a[linear], 1e-300)
    q = ~linear
    disc = a[q] ** 2 + 2.0 * slope[q] * residual[q]
    s[q] = (np.sqrt(np.maximum(disc, 0.0)) - a[q]) / slope[q]
    return np.mod(cells * h + np.clip(s, 0.0, h), TWO_PI)


class TestSamplerArithmetic:
    """The sampler keeps its first arithmetic and refusals bit for bit."""

    @settings(derandomize=True, deadline=None)
    @given(rho=grid_densities, seed=seeds, n=st.integers(1, 300))
    def test_draws_equal_the_reference(self, rho, seed, n):
        assume(rho.max() > 0)
        got = sample_from_grid_density(rho, n, np.random.default_rng(seed))
        expected = _reference_sample(rho, n, np.random.default_rng(seed))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("dip, error", [
        (-0.5e-12, None), (-2e-12, ConfigError)], ids=["rounding", "negative"])
    def test_negative_values_refused_where_they_were(self, dip, error):
        rho = np.abs(wrapped_gaussian(angle_grid(64), 2.0, 0.5)) ** 2
        rho[40] = dip * rho.max()
        if error is None:
            got = sample_from_grid_density(rho, 50, np.random.default_rng(1))
            expected = _reference_sample(rho, 50, np.random.default_rng(1))
            assert np.array_equal(got, expected)
        else:
            for sampler in (sample_from_grid_density, _reference_sample):
                with pytest.raises(error, match="nonnegative"):
                    sampler(rho, 50, np.random.default_rng(1))

    @pytest.mark.parametrize("rho", [np.zeros(8), np.array([0.0, -0.0, 0.0])])
    def test_zero_density_refused_as_before(self, rho):
        for sampler in (sample_from_grid_density, _reference_sample):
            with pytest.raises(PhysicsError, match="vanishes"):
                sampler(rho, 5, np.random.default_rng(1))

    def test_nan_passes_through_as_before(self):
        rho = np.array([1.0, np.nan, 2.0, 0.5])
        got = sample_from_grid_density(rho, 20, np.random.default_rng(2))
        expected = _reference_sample(rho, 20, np.random.default_rng(2))
        assert np.array_equal(got, expected, equal_nan=True)


class TestDistances:
    def test_tv_of_matching_samples_is_small(self):
        rho = np.ones(256)
        rng = np.random.default_rng(5)
        points = sample_from_grid_density(rho, 20_000, rng)
        assert tv_distance(points, rho) < 0.03

    def test_tv_detects_displacement(self):
        theta = angle_grid(256)
        rho = np.abs(wrapped_gaussian(theta, 2.0, 0.3)) ** 2
        shifted = np.abs(wrapped_gaussian(theta, 4.0, 0.3)) ** 2
        rng = np.random.default_rng(6)
        points = sample_from_grid_density(shifted, 5000, rng)
        assert tv_distance(points, rho) > 0.8

    def test_bins_must_divide_grid(self):
        with pytest.raises(ConfigError, match="divide"):
            density_bin_masses(np.ones(100), 64)


class TestEquivariance:
    def test_stationary_state_stays_within_band(self):
        state = make_eigenstate(1, Character.ring(np.pi))
        report = verify_equivariance(state, Potential.zero(), 2000, 0.4,
                                     [0.2, 0.4], seed=21, dt=4e-3)
        assert report.valid and report.passed
        assert max(report.tv_values) <= report.tv_threshold

    @pytest.mark.parametrize("beta", [0.0, np.pi / 2, np.pi])
    def test_holds_across_characters(self, beta):
        state = make_gaussian_state(Character.ring(beta), 2.0, 0.45, 2.0)
        report = verify_equivariance(state, Potential.zero(), 4000, 0.3,
                                     [0.3], seed=23, dt=4e-3)
        assert report.passed
        assert report.tv_values[0] <= equivariance_threshold(4000)

    def test_sign_flipped_velocity_fails(self):
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0)
        report = verify_equivariance(state, Potential.zero(), 2000, 0.5,
                                     [0.5], seed=25, dt=4e-3,
                                     velocity_factor=-1.0)
        assert report.tv_values[0] > 0.2
        assert not report.passed

    # three draws from the ring-ensemble benchmark's ranges: n = 256, a
    # twist or a flux, |momentum| 2.5-4, width 0.42-0.48, one trig harmonic
    # of amplitude 0.2-0.8, 10^4 particles over 50 steps of 2e-3
    BENCHMARK_DRAWS = [
        ({"type": "character", "beta": 2.31}, 3.62, 0.44, 1.17, 0.58, 10417),
        ({"type": "flux", "flux": -4.05, "charge": 1.0}, -2.74, 0.47, 4.62,
         0.31, 20233),
        ({"type": "character", "beta": -0.86}, -3.95, 0.42, 2.98, 0.77, 4242),
    ]

    @pytest.mark.parametrize("draw", range(len(BENCHMARK_DRAWS)))
    def test_benchmark_draws_pass_and_fail_under_flipped_field(self, draw):
        factor, momentum, width, center, amplitude, seed = \
            self.BENCHMARK_DRAWS[draw]
        scenario = Scenario({
            "schema": SCENARIO_SCHEMA_TAG,
            "space": {"kind": "ring", "n_points": 256},
            "factor": factor,
            "potential": {"type": "trig", "terms": [
                {"amplitude": amplitude, "harmonic": 1, "phase": 1.3 * draw}]},
            "initial_state": {"type": "gaussian", "center": center,
                              "width": width, "momentum": momentum},
            "numerics": {"dt": 2e-3, "t_final": 0.1}})
        args = (scenario.initial_state(), scenario.potential, 10_000, 0.1,
                [0.05, 0.1], seed)
        report = verify_equivariance(*args, dt=2e-3)
        assert report.passed and report.valid
        flipped = verify_equivariance(*args, dt=2e-3, velocity_factor=-1.0)
        assert flipped.valid and not flipped.passed

    def test_reports_are_byte_deterministic(self):
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0)
        kwargs = dict(n=2000, t_final=0.2, checkpoints=[0.2], seed=31, dt=4e-3)
        a = verify_equivariance(state, Potential.zero(), **kwargs)
        b = verify_equivariance(state, Potential.zero(), **kwargs)
        # the bytes that equivariance.json holds
        assert json_text(a.to_dict()) == json_text(b.to_dict())

    def test_halted_particles_stay_halted_across_checkpoints(self, monkeypatch):
        # a stub transport halts the first 80 particles it is given in each
        # segment (0.8% of the ensemble) and moves the rest by one radian
        calls = []

        def halting_transport(state, potential, q0, dt, n_steps, **kwargs):
            q0 = np.asarray(q0, dtype=float)
            calls.append(q0.copy())
            status = np.full(q0.size, STATUS_COMPLETED, dtype=object)
            status[:80] = STATUS_HALTED
            final = np.where(status == STATUS_HALTED, q0, q0 + 1.0)
            result = TransportResult(
                times=np.array([0.0, n_steps * dt]),
                positions=np.stack([q0, final]), status=status,
                halt_times=np.where(status == STATUS_HALTED, 0.0, np.nan),
                truncation=0.0)
            return result, state

        monkeypatch.setattr(ensembles, "transport", halting_transport)
        state = make_eigenstate(0, Character.ring(0.0), n_points=64)
        report = verify_equivariance(state, Potential.zero(), 10_000, 0.02,
                                     [0.01, 0.02], seed=3, dt=2e-3)
        first, second = calls
        assert second.size == 10_000 - 80
        # the second segment starts where the first left the movers
        assert np.array_equal(second, first[80:] + 1.0)
        # two disjoint halts of 0.8% each: 1.6% over the run, past the 1%
        assert report.node_halt_fraction == 160 / 10_000
        assert not report.valid and not report.passed

    def test_small_samples_rejected(self):
        state = make_eigenstate(0, Character.ring(0.0))
        with pytest.raises(ConfigError, match="10\\^3"):
            verify_equivariance(state, Potential.zero(), 100, 0.1, [0.1], seed=1)

    @pytest.mark.parametrize("checkpoint", [0.003, 0.0005])
    def test_off_grid_checkpoint_rejected(self, checkpoint):
        # 0.003 would be carried to 0.004 and 0.0005 would take no step at
        # all, so either report would name a time it was not taken at
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0,
                                    n_points=64)
        with pytest.raises(ConfigError, match=f"checkpoint {checkpoint:g}") \
                as info:
            verify_equivariance(state, Potential.zero(), 1000, 0.01,
                                [checkpoint, 0.01], seed=1, dt=2e-3)
        assert info.value.field_path == "$.equivariance.checkpoints"

    def test_nan_distance_fails_the_report(self, monkeypatch):
        # tv > threshold is false for a NaN, which left the report passed
        monkeypatch.setattr(ensembles, "tv_distance",
                            lambda samples, rho, bins: np.nan)
        state = make_gaussian_state(Character.ring(np.pi), 2.0, 0.45, 2.0,
                                    n_points=64)
        report = verify_equivariance(state, Potential.zero(), 1000, 0.01,
                                     [0.01], seed=1, dt=2e-3)
        assert report.valid
        assert not report.passed
