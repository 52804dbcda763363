import numpy as np
import pytest

from relequil import dynamics
from relequil.central import refine_central_configuration, regular_polygon
from relequil.dynamics import estimate_growth_rate, integrate_rotating_frame
from relequil.model import (
    BodyConfiguration,
    Equilibrium,
    PotentialSpec,
    angular_frequency_squared,
    euler_omega_squared,
    potential_gradient,
)
from relequil.pipeline import _worst_direction
from relequil.presets import PRESET_NAMES, get_case
from relequil.spectrum import full_linearization_spectrum
from relequil.symmetry import block_symplectic

from conftest import random_safe_configuration

EPS = np.finfo(float).eps


class _ReferenceFrame:
    """The flat-state field the incidence-matrix kernel replaced: the pair
    formulas of model.BodyPairs scattered per body, 2 omega Jhat v as a
    2n x 2n matmul, and the Jacobi integral from the pair distances."""

    def __init__(self, config, spec, omega2=None):
        self.pairs = config.pairs
        self.spec = spec
        self.mass_vector = config.mass_vector
        if omega2 is None:
            omega2 = euler_omega_squared(config, spec)
        self.omega2 = float(omega2)
        self.omega = float(np.sqrt(self.omega2))
        self.Jh = block_symplectic(config.n)
        self.acc_offset = None

    def rhs(self, state):
        half = state.size // 2
        pos, vel = state[:half], state[half:]
        acc = (
            2.0 * self.omega * (self.Jh @ vel)
            + self.omega2 * pos
            + self.pairs.gradient(pos.reshape(-1, 2), self.spec) / self.mass_vector
        )
        if self.acc_offset is not None:
            acc = acc - self.acc_offset
        return np.concatenate([vel, acc])

    def set_reference_equilibrium(self, positions):
        self.acc_offset = None
        self.acc_offset = self.rhs(
            np.concatenate([positions, np.zeros_like(positions)])
        )[positions.size:]

    def energy_parts(self, state):
        half = state.size // 2
        pos, vel = state[:half], state[half:]
        return (
            0.5 * float(self.mass_vector @ (vel * vel)),
            0.5 * self.omega2 * float(self.mass_vector @ (pos * pos)),
            float(self.pairs.energy_terms(pos.reshape(-1, 2), self.spec).sum()),
        )

    def energy(self, state):
        kinetic, centrifugal, potential = self.energy_parts(state)
        return kinetic - centrifugal - potential


def _reference_integrate(config, spec, initial_velocity, duration, dt,
                         sample_every=1, omega2=None, reference_equilibrium=None):
    """The step loop the fused kernel replaced: (times, states, energies,
    blew_up) with every check recomputing its own distances and energy."""
    frame = _ReferenceFrame(config, spec, omega2=omega2)
    if reference_equilibrium is not None:
        frame.set_reference_equilibrium(np.asarray(reference_equilibrium, float))
    state = np.concatenate([config.positions, np.asarray(initial_velocity, float)])
    floor = dynamics.COLLISION_FACTOR * config.min_pair_distance()
    steps = int(np.ceil(duration / dt))
    e0 = frame.energy(state)
    energy_cap = 1e3 * (sum(map(abs, frame.energy_parts(state))) + 1.0)
    times, states, energies = [0.0], [state.copy()], [e0]
    blew_up = False
    for k in range(1, steps + 1):
        k1 = frame.rhs(state)
        k2 = frame.rhs(state + 0.5 * dt * k1)
        k3 = frame.rhs(state + 0.5 * dt * k2)
        k4 = frame.rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (
            not np.all(np.isfinite(state))
            or frame.pairs.separations(state[: 2 * config.n].reshape(-1, 2))[1].min()
            < floor
            or abs(frame.energy(state) - e0) > energy_cap
        ):
            blew_up = True
            break
        if k % sample_every == 0 or k == steps:
            times.append(k * dt)
            states.append(state.copy())
            energies.append(frame.energy(state))
    return np.array(times), np.array(states), np.array(energies), blew_up


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _deck_case(name, kick):
    """A preset kicked in velocity and pinned, run over a tenth of a period
    at 2000 steps per period as in the benchmark's dynamics deck."""
    preset = get_case(name)
    config, spec = preset.configuration(), preset.potential
    period = 2.0 * np.pi / np.sqrt(angular_frequency_squared(config, spec))
    return config, spec, dict(
        initial_velocity=kick, duration=0.1 * period, dt=period / 2000,
        sample_every=10, reference_equilibrium=config.positions,
    )


def _deck():
    rng = np.random.default_rng(20220713)
    out = []
    for name in PRESET_NAMES:
        kick = rng.standard_normal(2 * get_case(name).n)
        out.append((name, 1e-6 * kick / np.linalg.norm(kick)))
    return out


def _ring_case():
    # a central mass 10 and five unit masses on the unit circle: central
    # for every central mass, here under Schwarzschild
    ang = 2.0 * np.pi * np.arange(5) / 5
    q = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
    config = BodyConfiguration(np.r_[10.0, np.ones(5)], q.ravel())
    spec = PotentialSpec.schwarzschild()
    period = 2.0 * np.pi / np.sqrt(angular_frequency_squared(config, spec))
    kick = 1e-3 * np.random.default_rng(5).standard_normal(12)
    return config, spec, dict(
        initial_velocity=kick, duration=0.25 * period, dt=period / 2000,
        sample_every=25, reference_equilibrium=config.positions,
    )


def _collinear_case():
    # an unequal-mass collinear Manev configuration refined by Newton
    masses = np.array([0.5123324524160306, 0.6434860886199383, 1.0168287284150226])
    guess = np.zeros(6)
    guess[0::2] = (-1.0137406811094807, 0.08902479261011717, 1.0200564567511092)
    spec = PotentialSpec.manev()
    config = refine_central_configuration(BodyConfiguration(masses, guess), spec)
    period = 2.0 * np.pi / np.sqrt(angular_frequency_squared(config, spec))
    kick = np.array([0.0, 1e-3, 2e-3, 0.0, -1e-3, 1e-3])
    return config, spec, dict(
        initial_velocity=kick, duration=0.25 * period, dt=period / 2000,
        sample_every=25, reference_equilibrium=None,
    )


@pytest.fixture(scope="module")
def newton_triangle():
    return regular_polygon(3), PotentialSpec.homogeneous(1.0)


class TestIntegrator:
    def test_equilibrium_is_fixed_point(self, newton_triangle):
        cfg, spec = newton_triangle
        period = Equilibrium(cfg, spec).period
        traj = integrate_rotating_frame(
            cfg, spec, duration=10.0 * period, dt=period / 2000.0, sample_every=100
        )
        drift = np.max(np.abs(traj.positions - cfg.positions[None, :]))
        assert drift < 1e-8
        assert not traj.blew_up

    def test_jacobi_energy_conserved(self, newton_triangle):
        cfg, spec = newton_triangle
        period = Equilibrium(cfg, spec).period
        kick = np.array([0.0, 0.01, -0.01, 0.0, 0.01, -0.01])
        traj = integrate_rotating_frame(
            cfg, spec, initial_velocity=kick,
            duration=2.0 * period, dt=period / 4000.0, sample_every=100,
        )
        drift = np.max(np.abs(traj.jacobi_energy - traj.jacobi_energy[0]))
        assert drift <= 1e-8 * abs(traj.jacobi_energy[0])

    def test_fourth_order_convergence(self, newton_triangle):
        cfg, spec = newton_triangle
        period = Equilibrium(cfg, spec).period
        kick = np.zeros(6)
        kick[0] = 0.01
        errs = []
        for steps in (800, 1600):
            traj = integrate_rotating_frame(
                cfg, spec, initial_velocity=kick,
                duration=period, dt=period / steps,
                sample_every=steps,
            )
            errs.append(traj.states[-1])
        fine = integrate_rotating_frame(
            cfg, spec, initial_velocity=kick,
            duration=period, dt=period / 12800, sample_every=12800,
        ).states[-1]
        e_coarse = np.linalg.norm(errs[0] - fine)
        e_half = np.linalg.norm(errs[1] - fine)
        # halving dt buys roughly 2^4
        assert e_coarse / e_half > 10.0

    def test_collision_truncates(self):
        cfg = regular_polygon(2, radius=0.5)
        spec = PotentialSpec.schwarzschild()
        # head-on infall across the singularity
        kick = -4.0 * cfg.positions
        traj = integrate_rotating_frame(
            cfg, spec, initial_velocity=kick, duration=5.0, dt=1e-3
        )
        assert traj.blew_up
        assert traj.times[-1] < 5.0

    def test_trajectory_records(self, newton_triangle):
        cfg, spec = newton_triangle
        traj = integrate_rotating_frame(cfg, spec, duration=0.05, dt=0.01)
        recs = traj.records()
        assert len(recs) == len(traj.times)
        assert set(recs[0]) == {"t", "state", "energy"}
        assert len(recs[0]["state"]) == 12


class TestAgainstReference:
    """The fused kernel against the per-body scatter loop it replaced:
    the arithmetic is reordered, so states and energies agree to a few
    ulps, not bitwise."""

    PARITY_TOL = 1e-13

    def _assert_parity(self, config, spec, kwargs):
        traj = integrate_rotating_frame(config, spec, **kwargs)
        times, states, energies, blew_up = _reference_integrate(config, spec, **kwargs)
        assert traj.blew_up == blew_up
        assert traj.times.shape == times.shape and traj.states.shape == states.shape
        assert np.array_equal(traj.times, times)
        assert _rel(traj.states, states) <= self.PARITY_TOL
        assert _rel(traj.jacobi_energy, energies) <= self.PARITY_TOL

    @pytest.mark.parametrize("name, kick", _deck(), ids=lambda v: v if isinstance(v, str) else "")
    def test_dynamics_deck(self, name, kick):
        self._assert_parity(*_deck_case(name, kick))

    def test_unequal_mass_ring(self):
        self._assert_parity(*_ring_case())

    def test_unequal_mass_collinear(self):
        self._assert_parity(*_collinear_case())

    @pytest.mark.parametrize("floor_factor", [dynamics.COLLISION_FACTOR, 0.5])
    def test_truncates_at_the_same_step(self, monkeypatch, floor_factor):
        # head-on infall across the singularity; a floor at half the initial
        # distance is crossed long before the energy tears away, so there
        # the squared-distance test is the one that fires
        monkeypatch.setattr(dynamics, "COLLISION_FACTOR", floor_factor)
        cfg = regular_polygon(2, radius=0.5)
        spec = PotentialSpec.schwarzschild()
        kwargs = dict(initial_velocity=-4.0 * cfg.positions, duration=5.0, dt=1e-3)
        traj = integrate_rotating_frame(cfg, spec, **kwargs)
        times, _, _, blew_up = _reference_integrate(cfg, spec, **kwargs)
        assert traj.blew_up and blew_up
        assert np.array_equal(traj.times, times)
        last = traj.positions[-1].reshape(-1, 2)
        assert np.linalg.norm(last[0] - last[1]) >= floor_factor * cfg.min_pair_distance()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_pinned_equilibrium_is_bitwise_fixed(self, name):
        config, spec, kwargs = _deck_case(name, np.zeros(2 * get_case(name).n))
        traj = integrate_rotating_frame(config, spec, **kwargs)
        assert not traj.blew_up
        assert np.array_equal(traj.positions, np.tile(config.positions, (traj.times.size, 1)))
        assert not traj.states[:, config.positions.size:].any()

    def test_gradient_term_matches_potential_gradient(self, rng, any_spec):
        # with omega^2 = 0 and zero velocity the field's acceleration is
        # the kernel's (D^T / m)(w d) alone
        for n in (2, 3, 5, 8):
            for _ in range(5):
                cfg = random_safe_configuration(rng, n=n, masses=rng.uniform(0.5, 2.0, n))
                frame = dynamics._RotatingFrame(cfg, any_spec, omega2=0.0)
                acc = frame.field(np.stack((cfg.points, np.zeros((n, 2)))))[1]
                ref = (potential_gradient(cfg, any_spec) / cfg.mass_vector).reshape(-1, 2)
                pairs = n * (n - 1) // 2
                assert np.max(np.abs(acc - ref)) <= 8 * pairs * EPS * np.max(np.abs(ref))


class TestGrowthRate:
    def test_matches_spectral_prediction(self, newton_triangle):
        cfg, spec = newton_triangle
        eq = Equilibrium(cfg, spec)
        predicted = full_linearization_spectrum(eq).max_real_part()
        direction = _worst_direction(eq)
        est = estimate_growth_rate(eq, direction)
        assert not est.no_growth
        assert est.rate == pytest.approx(predicted, rel=0.10)

    def test_translation_direction_no_growth(self, newton_triangle):
        cfg, spec = newton_triangle
        translation = np.zeros(6)
        translation[0::2] = 1.0
        eq = Equilibrium(cfg, spec)
        est = estimate_growth_rate(
            eq, translation, duration=4.0 * eq.period
        )
        assert est.no_growth
        assert est.rate == 0.0

    def test_rejects_zero_direction(self, newton_triangle):
        eq = Equilibrium(*newton_triangle)
        with pytest.raises(ValueError):
            estimate_growth_rate(eq, np.zeros(6))
