"""The four benchmark workloads: seeded inputs, one task each, and checks.

Every workload draws its task inputs from ``numpy.random.default_rng([seed,
index])``, so a seed fixes the inputs and any seed is valid.  The program sees
only the generated scenario files (the three CLI workloads) or the generated
arrays (``pair-ensemble``).  The parameters that set the cost of a task
(grid size, particle count, steps, kept Fourier modes) are fixed or drawn
from narrow ranges, so that run-to-run figures do not depend on which seed
was drawn; the physics parameters (twist, gauge, packet centre, momentum,
potential, spin axis) are drawn freely.

Each workload also carries a probe kernel: a numpy-only rendition of its
hot loop, with no code from the package, sized to about a tenth of a task.
The runner times it around every task and set-up to follow the host's speed,
and reports times scaled to the speed at which the probe takes
``probe_ref_s``, its median time on the host the benchmark was written on
(README.md).

Each check is written so that it can fail; ``corrupt.py`` shows that it
does on a corrupted input.  Reference values (the closed form, the expected
event count) are computed here with numpy alone, not with the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.stats

TWO_PI = 2.0 * math.pi
SCHEMA = "topobohm/scenario/1"


def task_rng(seed, index):
    # a negative seed maps to its 64-bit two's complement: entropy must be >= 0
    return np.random.default_rng([seed % 2 ** 64, index])


def wrapped_gaussian(theta, center, width, momentum):
    """The scenario schema's ``gaussian`` profile: a six-image sum."""
    out = np.zeros_like(theta, dtype=complex)
    for w in range(-6, 7):
        u = theta - center + TWO_PI * w
        out += np.exp(-(u ** 2) / (4.0 * width ** 2) + 1j * momentum * u)
    return out


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


@dataclass
class Outcome:
    """What a check found."""

    ok: bool
    detail: str = ""


class Workload:
    """Seeded task inputs, one task, its work units and its check."""

    def __init__(self, topobohm):
        self.tb = topobohm

    def run_check(self, tasks, raws):
        """Check over the whole run; most workloads have none."""
        return Outcome(True)


# ---------------------------------------------------------------------------
# CLI workloads share the call and the manifest check
# ---------------------------------------------------------------------------

class CliWorkload(Workload):
    """A workload whose task is one in-process ``topobohm`` subcommand run."""

    subcommand = None

    def prepare(self, cfg, path):
        """Write the scenario file and build it once, as a user's run would."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.tb.scenario.Scenario(cfg).initial_state()
        return {"cfg": cfg, "path": path}

    def run(self, task, out_dir):
        argv = [self.subcommand, "--config", task["path"], "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.tb.cli.main(argv)
        return {"code": code, "stderr": err.getvalue(), "out": out_dir}

    @staticmethod
    def manifest_ok(raw):
        if raw["code"] != 0:
            return Outcome(False, f"exit {raw['code']}: {raw['stderr'].strip()}")
        manifest = read_json(os.path.join(raw["out"], "manifest.json"))
        bad = [inv["id"] for inv in manifest["invariants"] if not inv["passed"]]
        if manifest["status"] != "ok" or bad:
            return Outcome(False, f"manifest status {manifest['status']}, "
                                  f"failed invariants {bad}")
        return Outcome(True)


class RingEnsemble(CliWorkload):
    """``topobohm equivariance`` on a ring: 10^4 particles, 50 RK4 steps."""

    name = "ring-ensemble"
    subcommand = "equivariance"
    layers = ("cli", "scenario", "ensembles", "trajectories", "propagation")
    work_unit = "particle-steps"
    probe_ref_s = 0.345
    pool = 48
    n_particles = 10_000
    dt = 2e-3
    n_steps = 50

    def make_config(self, rng, warmup=False):
        if rng.random() < 0.5:
            factor = {"type": "character", "beta": float(rng.uniform(-math.pi, math.pi))}
        else:
            factor = {"type": "flux", "flux": float(rng.uniform(-2 * math.pi, 2 * math.pi)),
                      "charge": 1.0}
        momentum = float(rng.choice([-1, 1]) * rng.uniform(2.5, 4.0))
        t_final = self.dt * (2 if warmup else self.n_steps)
        return {
            "schema": SCHEMA,
            "space": {"kind": "ring", "n_points": 256},
            "factor": factor,
            "potential": {"type": "trig", "terms": [
                {"amplitude": float(rng.uniform(0.2, 0.8)), "harmonic": 1,
                 "phase": float(rng.uniform(0, TWO_PI))}]},
            "initial_state": {"type": "gaussian",
                              "center": float(rng.uniform(0, TWO_PI)),
                              "width": float(rng.uniform(0.42, 0.48)),
                              "momentum": momentum},
            "numerics": {"dt": self.dt, "t_final": t_final},
            "equivariance": {"n_samples": 1000 if warmup else self.n_particles,
                             "checkpoints": [t_final / 2, t_final]},
            "seed": int(rng.integers(0, 2 ** 31)),
        }

    def work(self, task):
        eq = task["cfg"]["equivariance"]
        return eq["n_samples"] * round(task["cfg"]["numerics"]["t_final"] / self.dt)

    @staticmethod
    def probe_kernel(rng):
        """The ring evaluator's dense exp basis and product, in numpy."""
        q, modes = rng.uniform(0, TWO_PI, 10_000), np.arange(-13.0, 13.0)
        coeffs = rng.normal(size=(1, 26)) + 0j

        def kernel():
            for _ in range(24):
                chi = np.exp(1j * np.outer(q, modes)) @ coeffs.T
                np.sum(np.abs(chi) ** 2, axis=1)
        return kernel

    def check(self, task, raw):
        outcome = self.manifest_ok(raw)
        if not outcome.ok:
            return outcome
        report = read_json(os.path.join(raw["out"], "equivariance.json"))
        detail = (f"worst TV {max(report['tv_values']):.3f} (band "
                  f"{report['tv_threshold']:.3f}), valid={report['valid']}")
        return Outcome(report["valid"] and report["passed"], detail)


class SpinorEvolve(CliWorkload):
    """``topobohm evolve`` of a 2-spinor under a commuting constant matrix V."""

    name = "spinor-evolve"
    subcommand = "evolve"
    layers = ("cli", "scenario", "propagation", "factors")
    work_unit = "site-steps"
    probe_ref_s = 0.085
    pool = 48
    n_points = 4096
    dt = 5e-4
    n_steps = 2000
    tolerance = 1e-9

    def make_config(self, rng, warmup=False):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        e_sigma = np.array([[axis[2], axis[0] - 1j * axis[1]],
                            [axis[0] + 1j * axis[1], -axis[2]]])
        a, b = rng.uniform(-1, 1), rng.uniform(0.2, 1.0)
        v = a * np.eye(2) + b * e_sigma
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        return {
            "schema": SCHEMA,
            "space": {"kind": "ring", "n_points": self.n_points},
            "factor": {"type": "spin_exp", "angle": float(rng.uniform(0.3, 2.8)),
                       "axis": [float(x) for x in axis]},
            "potential": {"type": "matrix_const",
                          "matrix": [[[float(z.real), float(z.imag)] for z in row]
                                     for row in v]},
            "initial_state": {"type": "spinor_gaussian",
                              "amplitudes": [[float(z.real), float(z.imag)]
                                             for z in amps],
                              "center": float(rng.uniform(0, TWO_PI)),
                              "width": float(rng.uniform(0.3, 0.6)),
                              "momentum": float(rng.uniform(-3, 3))},
            "numerics": {"dt": self.dt,
                         "t_final": self.dt * (10 if warmup else self.n_steps)},
        }

    def work(self, task):
        steps = round(task["cfg"]["numerics"]["t_final"] / self.dt)
        return self.n_points * 2 * steps

    @staticmethod
    def probe_kernel(rng):
        """Strang steps of a 2-spinor (einsum, FFT pair, einsum) in numpy."""
        values = rng.normal(size=(2, 4096)) + 0j
        phase = rng.normal(size=(4096, 2, 2)) + 0j
        kinetic = np.exp(1j * rng.normal(size=(2, 4096)))

        def kernel():
            w = values
            for _ in range(240):
                w = np.einsum("nab,bn->an", phase, w)
                w = np.fft.ifft(kinetic * np.fft.fft(w, axis=1), axis=1)
                w = np.einsum("nab,bn->an", phase, w)
        return kernel

    def closed_form(self, cfg):
        """exp(-iVt) exp(-iTt) chi_0 in the original spin basis.

        V = a I + b (e.sigma) commutes with the factor exp(-i angle e.sigma)
        and is constant, so it commutes with T and the Strang product is
        exact.  Sector +/-1 of e.sigma carries the twist angle of the factor's
        eigenvalue exp(-/+ i angle) on the principal branch.
        """
        fc, ic = cfg["factor"], cfg["initial_state"]
        e = np.asarray(fc["axis"])
        e_sigma = np.array([[e[2], e[0] - 1j * e[1]], [e[0] + 1j * e[1], -e[2]]])
        m = np.array([[complex(*z) for z in row] for row in cfg["potential"]["matrix"]])
        a = float(np.real(np.trace(m))) / 2
        b = float(np.real(np.trace(m @ e_sigma))) / 2
        n = self.n_points
        theta = np.arange(n) * (TWO_PI / n)
        amps = np.array([complex(*z) for z in ic["amplitudes"]])
        chi0 = amps[:, None] * wrapped_gaussian(theta, ic["center"], ic["width"],
                                                ic["momentum"])[None, :]
        chi0 /= math.sqrt(np.sum(np.abs(chi0) ** 2) * TWO_PI / n)
        t = cfg["numerics"]["t_final"]
        modes = np.fft.fftfreq(n, d=1.0 / n)
        out = np.zeros_like(chi0)
        for s in (+1, -1):
            proj = 0.5 * (np.eye(2) + s * e_sigma)
            beta = float(np.angle(np.exp(-1j * s * fc["angle"])))
            k = modes + beta / TWO_PI
            free = np.fft.ifft(np.exp(-0.5j * t * k ** 2)
                               * np.fft.fft(proj @ chi0, axis=1), axis=1)
            out += np.exp(-1j * (a + s * b) * t) * free
        return out

    @staticmethod
    def final_state(raw):
        d = read_json(os.path.join(raw["out"], "state.json"))
        comps = np.array([[complex(*z) for z in row] for row in d["components"]])
        basis = np.array([[complex(*z) for z in row] for row in d["sector_basis"]])
        return basis @ comps

    def check(self, task, raw):
        outcome = self.manifest_ok(raw)
        if not outcome.ok:
            return outcome
        got = self.final_state(raw)
        err = float(np.max(np.abs(got - self.closed_form(task["cfg"]))))
        if not err <= self.tolerance:
            return Outcome(False, f"closed-form deviation {err:.3e} > {self.tolerance}")
        return Outcome(True, f"closed-form deviation {err:.3e}")


class GrwRing(CliWorkload):
    """``topobohm grw`` on a ring, about five expected collapses per task."""

    name = "grw-ring"
    subcommand = "grw"
    layers = ("cli", "scenario", "propagation", "collapse")
    work_unit = "simulated-time"
    probe_ref_s = 0.022
    pool = 256
    n_points = 128
    dt = 2e-3
    n_steps = 3325
    lam = 1.0
    a = 0.3
    band_alpha = 1e-6

    def make_config(self, rng, warmup=False, lam=None):
        return {
            "schema": SCHEMA,
            "space": {"kind": "ring", "n_points": self.n_points},
            "factor": {"type": "character", "beta": float(rng.uniform(-math.pi, math.pi))},
            "potential": {"type": "trig", "terms": [
                {"amplitude": float(rng.uniform(0.0, 0.8)), "harmonic": 1}]},
            "initial_state": {"type": "gaussian",
                              "center": float(rng.uniform(0, TWO_PI)),
                              "width": float(rng.uniform(0.4, 0.7)),
                              "momentum": float(rng.uniform(-2, 2))},
            "numerics": {"dt": self.dt,
                         "t_final": self.dt * (20 if warmup else self.n_steps)},
            "grw": {"lam": self.lam if lam is None else lam, "a": self.a},
            "seed": int(rng.integers(0, 2 ** 31)),
        }

    def work(self, task):
        return task["cfg"]["numerics"]["t_final"]

    @staticmethod
    def probe_kernel(rng):
        """Single small split steps, rebuilding the kinetic phase each time."""
        values = rng.normal(size=(1, 128)) + 0j
        half = np.exp(1j * rng.normal(size=128))

        def kernel():
            w = values
            for _ in range(600):
                k = np.fft.fftfreq(128, d=1.0 / 128)[None, :]
                kinetic = np.exp(-0.5j * 2e-3 * k ** 2)
                w = w * half[None, :]
                w = np.fft.ifft(kinetic * np.fft.fft(w, axis=1), axis=1) * half[None, :]
        return kernel

    def expected_events(self, task):
        """lambda * sum(bump) dx * t_final: the total rate of a normalized ring
        state does not depend on the state."""
        n = self.n_points
        theta = np.arange(n) * (TWO_PI / n)
        d = np.minimum(theta, TWO_PI - theta)
        bump = np.exp(-d ** 2 / (2 * self.a ** 2))
        return self.lam * float(np.sum(bump)) * (TWO_PI / n) * task["cfg"]["numerics"]["t_final"]

    @staticmethod
    def events(raw):
        with open(os.path.join(raw["out"], "events.csv"), encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1

    def check(self, task, raw):
        outcome = self.manifest_ok(raw)
        if not outcome.ok:
            return outcome
        raw["events"] = self.events(raw)
        return Outcome(True)

    def run_check(self, tasks, raws):
        """Two-sided Poisson band on the run's total event count."""
        mu = sum(self.expected_events(t) for t in tasks)
        total = sum(r.get("events", 0) for r in raws)
        lo = scipy.stats.poisson.ppf(self.band_alpha / 2, mu)
        hi = scipy.stats.poisson.isf(self.band_alpha / 2, mu)
        detail = f"{total} events, expected {mu:.1f}, band [{lo:.0f}, {hi:.0f}]"
        return Outcome(lo <= total <= hi, detail)


# ---------------------------------------------------------------------------
# the two-particle ensemble, driven through the library API
# ---------------------------------------------------------------------------

class PairEnsemble(Workload):
    """sample_density + transport of antisymmetric pairs on a 64^2 torus."""

    name = "pair-ensemble"
    layers = ("ensembles", "trajectories", "propagation")
    work_unit = "particle-steps"
    probe_ref_s = 0.148
    pool = 48
    n_points = 64
    n_pairs = 2000
    dt = 4e-3
    n_steps = 25
    bins = 16
    exchange_tol = 1e-9

    def make_config(self, rng, warmup=False):
        n = self.n_points
        theta = np.arange(n) * (TWO_PI / n)
        width = rng.uniform(0.22, 0.3)
        c1, c2 = rng.uniform(0, TWO_PI, size=2)
        k1, k2 = rng.choice([-1, 1], size=2) * rng.uniform(9, 12, size=2)
        f1 = wrapped_gaussian(theta, c1, width, k1)
        f2 = wrapped_gaussian(theta, c2, width, k2)
        pair = np.outer(f1, f2) - np.outer(f2, f1)
        delta = theta[:, None] - theta[None, :]
        v = rng.uniform(0.2, 1.0) * np.cos(delta) + rng.uniform(0, 0.5) * np.cos(2 * delta)
        return {"values": pair, "potential": v, "seed": int(rng.integers(0, 2 ** 31)),
                "n_pairs": 1000 if warmup else self.n_pairs,
                "n_steps": 2 if warmup else self.n_steps}

    def prepare(self, cfg, path):
        state = self.tb.propagation.make_two_particle_state(cfg["values"], -1)
        potential = self.tb.propagation.Potential.scalar(cfg["potential"],
                                                         label="pair-interaction")
        return {"cfg": cfg, "state": state, "potential": potential}

    def run(self, task, out_dir):
        cfg = task["cfg"]
        samples = self.tb.ensembles.sample_density(task["state"], cfg["n_pairs"],
                                                   cfg["seed"])
        result, evolved = self.tb.trajectories.transport(
            task["state"], task["potential"], samples, self.dt, cfg["n_steps"])
        return {"final": np.mod(result.positions[-1], TWO_PI), "evolved": evolved}

    def work(self, task):
        return task["cfg"]["n_pairs"] * task["cfg"]["n_steps"]

    @staticmethod
    def probe_kernel(rng):
        """The torus evaluator's two exp bases and dense products, in numpy."""
        q = rng.uniform(0, TWO_PI, (2000, 2))
        modes = np.fft.fftfreq(64, d=1.0 / 64)
        coeffs = rng.normal(size=(64, 64)) + 0j

        def kernel():
            for _ in range(10):
                e1 = np.exp(1j * np.outer(q[:, 0], modes))
                e2 = np.exp(1j * np.outer(q[:, 1], modes))
                np.sum((e1 @ coeffs) * e2, axis=1)
                np.sum((e1 * (1j * modes)) @ coeffs * e2, axis=1)
        return kernel

    def tv(self, points, rho):
        b = self.bins
        h, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=b,
                                 range=[[0, TWO_PI], [0, TWO_PI]])
        cell = rho.reshape(b, rho.shape[0] // b, b, rho.shape[1] // b).sum(axis=(1, 3))
        return 0.5 * float(np.sum(np.abs(h / h.sum() - cell / cell.sum())))

    def check(self, task, raw):
        evolved = raw["evolved"]
        tv = self.tv(raw["final"], evolved.density())
        band = 0.03 + 2 * math.sqrt(self.bins ** 2 / task["cfg"]["n_pairs"])
        residual = float(np.max(np.abs(evolved.values.T + evolved.values)))
        detail = f"2-D TV {tv:.3f} (band {band:.3f}), exchange residual {residual:.1e}"
        return Outcome(tv <= band and residual <= self.exchange_tol, detail)


WORKLOADS = {w.name: w for w in (RingEnsemble, SpinorEvolve, GrwRing, PairEnsemble)}
