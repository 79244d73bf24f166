"""Density sampling and statistical equivariance."""

import mpmath
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
    symmetrized_product_state,
    wrapped_gaussian,
)
from topobohm.scenario import SCENARIO_SCHEMA_TAG, Scenario
from topobohm import ensembles
from topobohm.ensembles import (
    _cell_masses,
    equivariance_threshold,
    exact_bin_masses,
    sample_density,
    sample_from_grid_density,
    tv_distance,
    verify_equivariance,
)
from topobohm.trajectories import STATUS_COMPLETED, STATUS_HALTED, TransportResult

KS_99 = 1.63  # one-sided 99% critical coefficient c / sqrt(n)


def _ks_uniform(points):
    """Kolmogorov-Smirnov distance of ring points from the uniform law."""
    return scipy.stats.kstest(points, "uniform", args=(0.0, TWO_PI)).statistic


def _cell_bin_masses(rho, bins):
    """The sampler's own law on equal ring bins: its multilinear cell
    masses summed per bin, normalized."""
    masses = _cell_masses(rho).reshape(bins, -1).sum(axis=1)
    return masses / masses.sum()


class TestSampler:
    def test_uniform_density(self):
        state = make_eigenstate(0, Character.ring(0.0))
        n = 20_000
        points = sample_density(state, n, seed=7)
        assert _ks_uniform(points) < KS_99 / np.sqrt(n)

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
        assert _ks_uniform(points) < KS_99 / np.sqrt(n)

    def test_seed_determinism(self):
        state = make_gaussian_state(Character.ring(0.0), 2.0, 0.5, 0.0)
        a = sample_density(state, 500, seed=3)
        b = sample_density(state, 500, seed=3)
        assert np.array_equal(a, b)

    def test_zero_density_rejected(self):
        rng = np.random.default_rng(0)
        for shape in [(64,), (8, 8)]:
            with pytest.raises(PhysicsError, match="vanishes"):
                sample_from_grid_density(np.zeros(shape), 10, rng)

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
        expected = _cell_bin_masses(rho, 64) * n
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
    """The ring sampler's arithmetic as first written, ``np.clip``,
    ``np.roll``, the three reductions of its checks and each cell's
    quadratic root, with the cells it picks."""
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
    return cells, np.mod(cells * h + np.clip(s, 0.0, h), TWO_PI)


def _assert_in_reference_cells(rho, n, seed):
    """Draws of one generator land in the cells the reference picks, each
    within half a cell of its cell's centre."""
    got = sample_from_grid_density(rho, n, np.random.default_rng(seed))
    cells, _ = _reference_sample(rho, n, np.random.default_rng(seed))
    h = TWO_PI / np.size(rho)
    gap = np.abs(np.mod(got - (cells + 0.5) * h + np.pi, TWO_PI) - np.pi)
    assert np.all(gap <= 0.5 * h * (1 + 1e-12))


def _exact_inverse(rho, uniforms):
    """The inverse CDF of the trapezoid density through the ring values
    ``rho`` at ``uniforms``, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        m = len(rho)
        h = mpmath.mpf(TWO_PI) / m
        values = [mpmath.mpf(v) for v in rho] + [mpmath.mpf(rho[0])]
        cdf = [mpmath.mpf(0)]
        for a, b in zip(values, values[1:]):
            cdf.append(cdf[-1] + (a + b) * h / 2)
        points = []
        for r in uniforms:
            target = mpmath.mpf(r) * cdf[-1]
            cell = max(c for c in range(m) if cdf[c] <= target)
            a, b = values[cell], values[cell + 1]
            # the root in [0, h] of a s + (b - a) s^2 / 2h = residual
            residual = target - cdf[cell]
            s = 2 * residual / (a + mpmath.sqrt(a ** 2
                                                + 2 * (b - a) / h * residual))
            points.append(float(mpmath.fmod(cell * h + s, mpmath.mpf(TWO_PI))))
        return np.array(points)


class TestSamplerArithmetic:
    """The sampler picks the cells it first picked, from the same uniforms,
    and inverts each cell to rounding."""

    @settings(derandomize=True, deadline=None)
    @given(rho=grid_densities, seed=seeds, n=st.integers(1, 300))
    def test_draws_land_in_the_reference_cells(self, rho, seed, n):
        assume(rho.max() > 0)
        _assert_in_reference_cells(rho, n, seed)

    @pytest.mark.parametrize("rho", [
        np.tile([1.0, 1.0 + 1e-13], 8), np.tile([1.0, 1.0 + 1e-10], 8),
        np.tile([1.0, 1.0 + 1e-6], 8), 1.0 + 0.9 * np.cos(angle_grid(64))],
        ids=["flat-1e-13", "flat-1e-10", "flat-1e-6", "cosine"])
    def test_offsets_are_the_exact_inverse(self, rho):
        # a quadratic root (sqrt(a^2 + 2 slope r) - a) / slope cancels on a
        # nearly flat cell, 1.6e-3 of a cell off on the 1e-13 ring
        n = 200
        got = sample_from_grid_density(rho, n, np.random.default_rng(4))
        exact = _exact_inverse(rho, np.random.default_rng(4).random(n))
        gap = np.abs(np.mod(got - exact + np.pi, TWO_PI) - np.pi)
        assert np.max(gap) <= 1e-12 * TWO_PI / rho.size

    @pytest.mark.parametrize("dip, error", [
        (-0.5e-12, None), (-2e-12, ConfigError)], ids=["rounding", "negative"])
    def test_negative_values_refused_where_they_were(self, dip, error):
        rho = np.abs(wrapped_gaussian(angle_grid(64), 2.0, 0.5)) ** 2
        rho[40] = dip * rho.max()
        if error is None:
            _assert_in_reference_cells(rho, 50, 1)
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
        _, expected = _reference_sample(rho, 20, np.random.default_rng(2))
        assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("shape", [(128,), (16, 16)], ids=["ring", "torus"])
    @pytest.mark.parametrize("n", [1, 37])
    def test_a_point_takes_one_uniform_per_axis(self, shape, n):
        # a GRW run draws its waits and its centres from one generator, so
        # the event times hold only while a centre takes one uniform
        rho = np.random.default_rng(8).random(shape)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        sample_from_grid_density(rho, n, rng)
        twin.random(len(shape) * n)
        assert rng.bit_generator.state == twin.bit_generator.state


def _pair(shift=0.0):
    """The antisymmetric pair of the torus equivariance test, n = 64, its
    two packets moved by ``shift``."""
    return symmetrized_product_state(
        lambda t: wrapped_gaussian(t, 2.0 + shift, 0.5, 2.0),
        lambda t: wrapped_gaussian(t, 4.3 + shift, 0.5, -1.0), -1, n_points=64)


class TestTorusSampler:
    def test_exact_masses_integrate_a_trigonometric_density(self):
        # bin masses of 2 + cos a + sin(2b)/2 + cos(a - 3b)/3 in closed form
        theta = angle_grid(32)
        a, b = np.meshgrid(theta, theta, indexing="ij")
        rho = 2 + np.cos(a) + 0.5 * np.sin(2 * b) + np.cos(a - 3 * b) / 3
        edges = np.arange(5) * (TWO_PI / 4)
        lo, hi = edges[:-1], edges[1:]
        da = (np.sin(hi) - np.sin(lo))[:, None]
        db = (np.cos(2 * lo) - np.cos(2 * hi))[None, :] / 4
        cross = (np.cos(hi[:, None] - 3 * hi[None, :])
                 - np.cos(lo[:, None] - 3 * hi[None, :])
                 - np.cos(hi[:, None] - 3 * lo[None, :])
                 + np.cos(lo[:, None] - 3 * lo[None, :])) / 9
        width = TWO_PI / 4
        exact = 2 * width ** 2 + da * width + db * width + cross
        got = exact_bin_masses(rho, 4)
        assert np.max(np.abs(got - exact / exact.sum())) <= 1e-14

    def test_pair_samples_follow_the_exact_cell_masses(self):
        # The band was fixed before the sampler was measured.  Sampling noise
        # alone gives a mean TV of at most 0.5 sqrt(2 bins^2 / (pi M)) =
        # 0.014 on 16^2 bins at M = 2e5, and 0.006 is left for the bias of
        # bilinear cells, O(h^2).  A cellwise-constant sampler puts its
        # samples half a cell high on both axes: TV 0.053 here.
        state = _pair()
        samples = sample_density(state, 200_000, seed=5)
        assert tv_distance(samples, state.density(), 16) <= 0.02

    def test_pair_sample_mean_is_the_density_mean(self):
        # the mean of the samples' first angle against the grid-point mean
        # of |psi|^2, within four standard errors (0.010); with the
        # half-cell shift they were 0.05 apart, half a cell being 0.049
        state = _pair()
        marginal = state.density().sum(axis=1) / state.density().sum()
        mean = np.sum(state.theta * marginal)
        spread = np.sqrt(np.sum((state.theta - mean) ** 2 * marginal))
        m = 200_000
        samples = sample_density(state, m, seed=6)
        assert abs(np.mean(samples[:, 0]) - mean) <= 4 * spread / np.sqrt(m)

    def test_a_negative_value_is_refused(self):
        # one value of -1 in |psi|^2 is refused as on the ring, not clipped
        # to zero and sampled
        rho = _pair().density()
        rho[5, 9] = -1.0
        with pytest.raises(ConfigError, match="nonnegative") as info:
            sample_from_grid_density(rho, 10, np.random.default_rng(0))
        assert info.value.field_path is None


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
        for samples, rho in [(np.zeros(10), np.ones(100)),
                             (np.zeros((10, 2)), np.ones((100, 100)))]:
            with pytest.raises(ConfigError, match="divide") as info:
                tv_distance(samples, rho, 64)
            assert info.value.field_path == "$.equivariance.bins"

    @pytest.mark.parametrize("shape, bins", [((256,), 64), ((64, 32), 16)],
                             ids=["ring", "torus"])
    def test_tv_is_the_histogram_against_the_exact_masses(self, shape, bins):
        # written out: the wrapped samples' histogram, bins per axis, against
        # exact_bin_masses; the density tells its axes apart, and the cloud
        # is lifted by whole turns first
        rng = np.random.default_rng(12)
        rho = rng.random(shape)
        samples = sample_from_grid_density(rho, 20_000, rng)
        samples = samples + TWO_PI * rng.integers(-3, 4, samples.shape)
        wrapped = np.mod(samples, TWO_PI).reshape(len(samples), rho.ndim)
        counts, _ = np.histogramdd(wrapped, bins=bins,
                                   range=[(0.0, TWO_PI)] * rho.ndim)
        reference = 0.5 * np.sum(np.abs(counts / counts.sum()
                                        - exact_bin_masses(rho, bins)))
        assert abs(tv_distance(samples, rho, bins) - reference) <= 1e-15

    def test_a_torus_cloud_is_scored(self):
        # a cloud of the pair moved by 1.5 on both axes fails the 2-D band
        # of test_two_particle_equivariance at 4000 pairs (0.536); a cloud
        # of the pair itself keeps the 0.02 of the sampler's own test
        rho = _pair().density()
        moved = sample_density(_pair(shift=1.5), 4000, seed=3)
        assert tv_distance(moved, rho, 16) > 0.03 + 2 * np.sqrt(256 / 4000)
        same = sample_density(_pair(), 200_000, seed=3)
        assert tv_distance(same, rho, 16) <= 0.02

    def test_a_cloud_of_the_wrong_shape_is_refused(self):
        # a pair cloud is not pooled into one ring histogram, nor a ring
        # cloud read as pairs
        pair = _pair()
        samples = sample_density(pair, 100, seed=3)
        with pytest.raises(ConfigError, match="1-axis"):
            tv_distance(samples, np.ones(64))
        with pytest.raises(ConfigError, match="2-axis"):
            tv_distance(samples[:, 0], pair.density())

    def test_a_non_finite_point_scores_nan(self):
        # a histogram over [0, 2 pi) would drop it and score the rest
        points = sample_from_grid_density(np.ones(64), 1000,
                                          np.random.default_rng(5))
        points[7] = np.nan
        assert np.isnan(tv_distance(points, np.ones(64)))


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
