import warnings

import numpy as np
import pytest

from relequil import dynamics
from relequil.central import refine_central_configuration, regular_polygon
from relequil.dynamics import (
    equilibrium_check,
    estimate_growth_rate,
    integrate_rotating_frame,
    worst_direction,
)
from relequil.model import (
    BodyConfiguration,
    Equilibrium,
    PotentialSpec,
    angular_frequency_squared,
    is_central_configuration,
    potential_gradient,
    rotation_period,
)
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
            omega2 = is_central_configuration(config, spec).multiplier
        self.omega2 = float(omega2)
        self.omega = float(np.sqrt(self.omega2))
        self.Jh = block_symplectic(config.n)
        self.acc_offset = None

    def _sep(self, pos):
        return self.pairs.separations(pos.reshape(-1, 2))

    def rhs(self, state):
        half = state.size // 2
        pos, vel = state[:half], state[half:]
        acc = (
            2.0 * self.omega * (self.Jh @ vel)
            + self.omega2 * pos
            + self.pairs.gradient(self._sep(pos), self.spec.terms) / self.mass_vector
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
            float(self.pairs.energy_terms(self._sep(pos), self.spec.terms).sum()),
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
    steps = int(np.ceil(duration / dt - 4.0 * EPS * (duration / dt)))
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


def _allocating_field(frame, state):
    """The field before it wrote into stage buffers: a new row per call.
    An unpinned frame's offset was 0.0 then and is a 0-d 0j now; either is
    subtracted as the complex zero."""
    y = frame.A.dot(state)
    d = y[: frame.P]
    acc = y[frame.P + frame.n:]
    acc += frame.W.dot((abs(d) ** frame.force_exponents * d).ravel())
    acc -= frame.offset
    return y[frame.P:]


def _allocating_rk4_steps(frame, state, rows, half, full, sixth, two):
    """The step before the stage buffers: each stage state, each stage and
    the combination a new array."""
    for row in rows:
        k1 = _allocating_field(frame, state)
        k2 = _allocating_field(frame, state + half * k1)
        k3 = _allocating_field(frame, state + half * k2)
        k4 = _allocating_field(frame, state + full * k3)
        state = state + sixth * (k1 + two * (k2 + k3) + k4)
        row[:] = state


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


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


def _head_on():
    # two Schwarzschild bodies falling head-on across the singularity
    cfg = regular_polygon(2, radius=0.5)
    return cfg, PotentialSpec.schwarzschild(), dict(
        initial_velocity=-4.0 * cfg.positions, duration=5.0, dt=1e-3)


def _growth_run():
    # the triangle kicked along its worst direction, stopped once 1e-2 away
    case = get_case("triangle-homogeneous")
    eq = Equilibrium(case.configuration(), case.potential)
    config = eq.config.with_positions(eq.config.positions + 1e-6 * worst_direction(eq))
    return config, eq.spec, dict(
        duration=12.0 * eq.period, dt=eq.period / 500.0, sample_every=10, omega2=eq.omega2,
        reference_equilibrium=eq.config.positions, stop_deviation=1e-2)


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
        cfg, spec, kwargs = _head_on()
        traj = integrate_rotating_frame(cfg, spec, **kwargs)
        assert traj.blew_up
        assert traj.times[-1] < 5.0

    def test_non_rotating_frame_with_given_run_lengths_stays_silent(self):
        # omega^2 = 0 has no rotation period; with duration and dt given
        # none is needed, so nothing divides by zero
        cfg, spec, kwargs = _head_on()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_rotating_frame(cfg, spec, omega2=0.0, **kwargs)
        assert traj.blew_up

    @pytest.mark.parametrize("given", [{}, {"duration": 1.0}, {"dt": 0.01}])
    def test_non_rotating_frame_needs_duration_and_dt(self, newton_triangle, given):
        # the defaults are fractions of a period, which omega^2 = 0 lacks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^omega2 must be finite and positive for a "
                                                 "rotation period"):
                integrate_rotating_frame(*newton_triangle, omega2=0.0, **given)

    @pytest.mark.parametrize("omega2", [-1.0, np.nan, np.inf])
    def test_frame_frequency_must_be_finite_and_non_negative(self, newton_triangle, omega2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^omega2 must be finite and non-negative"):
                integrate_rotating_frame(*newton_triangle, omega2=omega2,
                                         duration=1.0, dt=0.01)

    def test_default_frame_is_the_unchecked_euler_multiplier(self):
        # a non-central configuration integrates in the frame of the
        # centrality test's Euler multiplier, which is not checked here
        cfg = BodyConfiguration(np.ones(3), np.array([0.0, 1.3, -1.0, 0.0, 1.0, 0.0]))
        spec = PotentialSpec.manev()
        report = is_central_configuration(cfg, spec)
        assert not report.is_central
        traj = integrate_rotating_frame(cfg, spec, duration=0.5, dt=0.01)
        given = integrate_rotating_frame(cfg, spec, duration=0.5, dt=0.01,
                                         omega2=report.multiplier)
        assert traj.omega == float(np.sqrt(report.multiplier))
        assert not traj.blew_up and traj.times.size == given.times.size > 1
        assert np.array_equal(traj.states, given.states)
        assert np.array_equal(traj.jacobi_energy, given.jacobi_energy)

    def test_trajectory_records(self, newton_triangle):
        cfg, spec = newton_triangle
        traj = integrate_rotating_frame(cfg, spec, duration=0.05, dt=0.01)
        recs = traj.records()
        assert len(recs) == len(traj.times)
        assert set(recs[0]) == {"t", "state", "energy"}
        assert len(recs[0]["state"]) == 12
        assert all(type(v) is float for rec in recs for v in rec["state"])

    @pytest.mark.parametrize("name", ["duration", "dt"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_run_lengths_must_be_finite_and_positive(self, newton_triangle, name, value):
        # a negative duration used to return one sample, a nan or infinite
        # one to end in a conversion error
        kwargs = {"duration": 0.05, "dt": 0.01, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            integrate_rotating_frame(*newton_triangle, **kwargs)

    @pytest.mark.parametrize("value", [0, -1, np.nan, np.inf, 2.5])
    def test_sample_every_must_be_a_positive_integer(self, newton_triangle, value):
        # 0 used to divide by zero, -3 to sample every third step and 2.5
        # only at the end
        with pytest.raises(ValueError, match="sample_every must be a positive integer"):
            integrate_rotating_frame(*newton_triangle, duration=0.05, dt=0.01,
                                     sample_every=value)

    @pytest.mark.parametrize("name", ["triangle-homogeneous", "schwarzschild-square"])
    def test_a_ratio_rounded_above_an_integer_takes_that_many_steps(self, name):
        # a tenth of a period at period / 2000 is 200.00000000000003 steps
        # in floating point; the run used to take 201 and end at 1.005 x duration
        config, spec, kwargs = _deck_case(name, np.zeros(2 * get_case(name).n))
        dt = kwargs["dt"]
        assert kwargs["duration"] / dt > 200.0
        traj = integrate_rotating_frame(config, spec, **dict(kwargs, sample_every=1))
        assert traj.times.size == 201 and traj.times[-1] == 200 * dt

    @pytest.mark.parametrize("duration, dt, steps", [
        (0.2295, 0.01, 23), (1.0, 0.25, 4), (1.0, 0.3, 4), (1.0, 1.0 / 3.0, 3),
        (0.1 * 2.0 * np.pi, 2.0 * np.pi / 2000, 200), (3.0 * (1.0 + 1e-12), 1.0, 4),
        (1e-300, 1.0, 1)])
    def test_step_count(self, duration, dt, steps):
        # only a ratio within a few ulps above an integer is that integer
        assert dynamics._step_count(duration, dt) == steps


class TestBlocks:
    """The stopping rules are read once per block of BLOCK_STEPS steps; a
    run must not depend on where its steps fall in the blocks."""

    @staticmethod
    def _place(step, block):
        """Where a 1-based step falls in blocks of the given length."""
        position = (step - 1) % block
        return "first" if position == 0 else "last" if position == block - 1 else "middle"

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_truncates_at_the_failing_step_anywhere_in_a_block(self, monkeypatch, where):
        cfg, spec, kwargs = _head_on()
        times, states, _, blew_up = _reference_integrate(cfg, spec, **kwargs)
        failing = times.size            # every step before it was sampled
        block = {"first": failing - 1, "middle": 2 * failing // 3, "last": failing}[where]
        assert self._place(failing, block) == where
        monkeypatch.setattr(dynamics, "BLOCK_STEPS", block)
        traj = integrate_rotating_frame(cfg, spec, **kwargs)
        assert traj.blew_up and blew_up
        assert np.array_equal(traj.times, times)
        assert _rel(traj.states, states) <= TestAgainstReference.PARITY_TOL

    @pytest.mark.parametrize("where", ["middle", "last"])
    def test_stops_at_the_deviation_anywhere_in_a_block(self, monkeypatch, where):
        config, spec, kwargs = _growth_run()
        monkeypatch.setattr(dynamics, "BLOCK_STEPS", 1)
        per_step = integrate_rotating_frame(config, spec, **kwargs)
        stop = round(per_step.times[-1] / kwargs["dt"])
        block = {"middle": 2 * stop // 3, "last": stop}[where]
        assert self._place(stop, block) == where
        monkeypatch.setattr(dynamics, "BLOCK_STEPS", block)
        traj = integrate_rotating_frame(config, spec, **kwargs)
        assert not traj.blew_up
        assert np.array_equal(traj.times, per_step.times)
        assert np.array_equal(traj.states, per_step.states)
        # the last sample is the first past the stop
        dev = np.linalg.norm(traj.positions - kwargs["reference_equilibrium"], axis=1)
        assert dev[-1] > kwargs["stop_deviation"] >= dev[:-1].max()
        assert traj.times[-1] < kwargs["duration"]

    def test_the_last_step_is_sampled(self, monkeypatch, newton_triangle):
        # 23 steps in blocks of 7, sampled every 5: 5, 10, 15, 20 and 23
        monkeypatch.setattr(dynamics, "BLOCK_STEPS", 7)
        cfg, spec = newton_triangle
        kwargs = dict(initial_velocity=np.array([0.0, 0.01, -0.01, 0.0, 0.01, -0.01]),
                      duration=0.2295, dt=0.01, sample_every=5)
        traj = integrate_rotating_frame(cfg, spec, **kwargs)
        times, states, energies, _ = _reference_integrate(cfg, spec, **kwargs)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(np.round(times / 0.01), [0, 5, 10, 15, 20, 23])
        assert _rel(traj.states, states) <= TestAgainstReference.PARITY_TOL
        assert _rel(traj.jacobi_energy, energies) <= TestAgainstReference.PARITY_TOL

    def test_steps_past_the_failure_stay_silent(self):
        # a head-on infall timed so that the first step's second stage puts
        # both bodies on the origin: that stage divides by a zero distance,
        # and the rest of the block steps on nan.  The run ends blown up at
        # the start, and no floating-point warning reaches the caller
        cfg = BodyConfiguration(np.ones(2), np.array([0.5, 0.0, -0.5, 0.0]))
        kwargs = dict(initial_velocity=np.array([-1024.0, 0.0, 1024.0, 0.0]),
                      duration=0.1, dt=2.0 ** -10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_rotating_frame(cfg, PotentialSpec.schwarzschild(), **kwargs)
        assert traj.blew_up
        assert np.array_equal(traj.times, [0.0])

    def test_only_the_steps_ignore_floating_point_errors(self, monkeypatch):
        # the pin and the initial energy are computed under the caller's
        # error state; only the steps and their checks ignore errors
        seen = {"field": [], "energy_parts": []}
        for name, calls in seen.items():
            method = getattr(dynamics._RotatingFrame, name)

            def spy(self, *args, _method=method, _calls=calls):
                _calls.append(np.geterr()["invalid"])
                return _method(self, *args)

            monkeypatch.setattr(dynamics._RotatingFrame, name, spy)
        cfg, spec, kwargs = _deck_case("manev-square", np.zeros(8))
        with np.errstate(all="raise"):
            integrate_rotating_frame(cfg, spec, **kwargs)
        for calls in seen.values():
            assert calls[0] == "raise" and set(calls[1:]) == {"ignore"}


class TestAgainstReference:
    """The fused kernel against the per-body scatter loop it replaced:
    the arithmetic is reordered, so states and energies agree to a few
    ulps, not bitwise."""

    PARITY_TOL = 1e-13

    @pytest.fixture(params=[1, 7, dynamics.BLOCK_STEPS], ids=lambda b: f"block={b}")
    def block_steps(self, request, monkeypatch):
        monkeypatch.setattr(dynamics, "BLOCK_STEPS", request.param)

    def _assert_parity(self, config, spec, kwargs):
        traj = integrate_rotating_frame(config, spec, **kwargs)
        times, states, energies, blew_up = _reference_integrate(config, spec, **kwargs)
        assert traj.blew_up == blew_up
        assert traj.times.shape == times.shape and traj.states.shape == states.shape
        assert np.array_equal(traj.times, times)
        assert _rel(traj.states, states) <= self.PARITY_TOL
        assert _rel(traj.jacobi_energy, energies) <= self.PARITY_TOL

    @pytest.mark.parametrize("name, kick", _deck(), ids=lambda v: v if isinstance(v, str) else "")
    def test_dynamics_deck(self, block_steps, name, kick):
        self._assert_parity(*_deck_case(name, kick))

    def test_unequal_mass_ring(self, block_steps):
        self._assert_parity(*_ring_case())

    def test_unequal_mass_collinear(self, block_steps):
        self._assert_parity(*_collinear_case())

    @pytest.mark.parametrize("floor_factor", [dynamics.COLLISION_FACTOR, 0.5])
    def test_truncates_at_the_same_step(self, monkeypatch, floor_factor):
        # head-on infall across the singularity; a floor at half the initial
        # distance is crossed long before the energy tears away, so there
        # the distance floor is the test that fires
        monkeypatch.setattr(dynamics, "COLLISION_FACTOR", floor_factor)
        cfg, spec, kwargs = _head_on()
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
        # the kernel's pair forces W (|d|^(-a - 2) d) alone
        for n in (2, 3, 5, 8):
            for _ in range(5):
                cfg = random_safe_configuration(rng, n=n, masses=rng.uniform(0.5, 2.0, n))
                frame = dynamics._RotatingFrame(cfg, any_spec, omega2=0.0)
                state = dynamics._complex_state(cfg.positions, np.zeros(2 * n))
                acc = frame.field(state)[n:].view(float).reshape(-1, 2)
                ref = (potential_gradient(cfg, any_spec) / cfg.mass_vector).reshape(-1, 2)
                pairs = n * (n - 1) // 2
                assert np.max(np.abs(acc - ref)) <= 8 * pairs * EPS * np.max(np.abs(ref))


class TestInPlaceSteps:
    """The in-place step against the allocating one it replaced: the same
    operations in the same order, so the runs agree to the bit."""

    @pytest.fixture(params=[1, dynamics.BLOCK_STEPS], ids=lambda b: f"block={b}")
    def block_steps(self, request, monkeypatch):
        monkeypatch.setattr(dynamics, "BLOCK_STEPS", request.param)

    @staticmethod
    def _assert_bitwise(monkeypatch, config, spec, kwargs):
        traj = integrate_rotating_frame(config, spec, **kwargs)
        monkeypatch.setattr(dynamics, "_rk4_steps", _allocating_rk4_steps)
        ref = integrate_rotating_frame(config, spec, **kwargs)
        assert traj.blew_up == ref.blew_up
        for a, b in ((traj.times, ref.times), (traj.states, ref.states),
                     (traj.jacobi_energy, ref.jacobi_energy)):
            assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))
        return traj

    @pytest.mark.parametrize("name, kick", _deck(), ids=lambda v: v if isinstance(v, str) else "")
    def test_dynamics_deck(self, monkeypatch, block_steps, name, kick):
        self._assert_bitwise(monkeypatch, *_deck_case(name, kick))

    def test_unequal_mass_ring(self, monkeypatch, block_steps):
        self._assert_bitwise(monkeypatch, *_ring_case())

    def test_growth_run(self, monkeypatch, block_steps):
        config, spec, kwargs = _growth_run()
        traj = self._assert_bitwise(monkeypatch, config, spec, kwargs)
        assert not traj.blew_up and traj.times[-1] < kwargs["duration"]

    def test_head_on(self, monkeypatch, block_steps):
        assert self._assert_bitwise(monkeypatch, *_head_on()).blew_up

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_pinned_equilibrium(self, monkeypatch, block_steps, name):
        config, spec, kwargs = _deck_case(name, np.zeros(2 * get_case(name).n))
        frame = dynamics._RotatingFrame(config, spec, angular_frequency_squared(config, spec))
        frame.set_reference_equilibrium(config.positions)
        state = dynamics._complex_state(config.positions, np.zeros(2 * config.n))
        frame.stage_buffer[:] = np.nan
        derivative = frame.field(state, frame.stages[2])
        assert np.shares_memory(derivative, frame.stage_buffer[2])
        assert not derivative.any()
        traj = self._assert_bitwise(monkeypatch, config, spec, kwargs)
        assert not traj.states[:, config.positions.size:].any()

    def test_field_in_a_stage_is_the_allocating_field(self, rng, any_spec):
        # away from equilibrium, pinned and not, in every stage row
        for n in (2, 3, 5):
            cfg = random_safe_configuration(rng, n=n, masses=rng.uniform(0.5, 2.0, n))
            frame = dynamics._RotatingFrame(cfg, any_spec, omega2=rng.uniform(0.5, 2.0))
            for pin in (None, cfg.positions):
                if pin is not None:
                    frame.set_reference_equilibrium(pin)
                state = dynamics._complex_state(cfg.positions, rng.standard_normal(2 * n))
                expected = _bits(_allocating_field(frame, state))
                assert np.array_equal(_bits(frame.field(state)), expected)
                for stage in frame.stages:
                    assert np.array_equal(_bits(frame.field(state, stage)), expected)


class TestGrowthRate:
    def test_matches_spectral_prediction(self, newton_triangle):
        cfg, spec = newton_triangle
        eq = Equilibrium(cfg, spec)
        predicted = float(full_linearization_spectrum(eq).real.max())
        direction = worst_direction(eq)
        est = estimate_growth_rate(eq, direction)
        assert not est.no_growth
        assert est.rate == pytest.approx(predicted, rel=0.10)

    def test_translation_direction_no_growth(self, monkeypatch, newton_triangle):
        cfg, spec = newton_triangle
        translation = np.zeros(6)
        translation[0::2] = 1.0
        eq = Equilibrium(cfg, spec)
        runs = self._recorded(monkeypatch)
        est = estimate_growth_rate(
            eq, translation, duration=4.0 * eq.period
        )
        assert est.no_growth
        assert est.rate == 0.0
        # the deviation never leaves the window, so the one run is the whole duration
        assert len(runs) == 1 and runs[0].times[-1] == pytest.approx(4.0 * eq.period)

    @staticmethod
    def _recorded(monkeypatch):
        """The trajectories of every integrate_rotating_frame call from now on."""
        integrate, runs = dynamics.integrate_rotating_frame, []

        def recorded(*args, **kw):
            runs.append(integrate(*args, **kw))
            return runs[-1]

        monkeypatch.setattr(dynamics, "integrate_rotating_frame", recorded)
        return runs

    @staticmethod
    def _stopped_and_full(monkeypatch, eq, direction, **kwargs):
        """(estimate, its runs, full-length estimate, its run): the second
        with stop_deviation dropped, so it integrates the whole duration."""
        runs = TestGrowthRate._recorded(monkeypatch)
        recorded = dynamics.integrate_rotating_frame
        stopped = estimate_growth_rate(eq, direction, **kwargs)
        stopped_runs = list(runs)
        monkeypatch.setattr(dynamics, "integrate_rotating_frame",
                            lambda *args, stop_deviation, **kw: recorded(*args, **kw))
        full = estimate_growth_rate(eq, direction, **kwargs)
        return stopped, stopped_runs, full, runs[-1]

    @pytest.mark.parametrize("case_kind", ["default", "epsilon=1e-4", "scaled by 100"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_stopping_at_the_window_keeps_the_fit(self, monkeypatch, name, case_kind):
        # the run ends past both the window's top and 300 epsilon, which
        # closes the stretch the fit reads and passes the growth test, so a
        # full-length run (the 12 periods) fits the same rate to the bit;
        # at epsilon = 1e-4, 300 epsilon lies above the top, and scaled by
        # 100 the default epsilon and the top both scale with the radius
        case = get_case(name)
        config, kwargs = case.configuration(), {}
        if case_kind == "scaled by 100":
            config = config.scaled(100.0)
        elif case_kind == "epsilon=1e-4":
            kwargs["epsilon"] = 1e-4
        eq = Equilibrium(config, case.potential)
        direction = worst_direction(eq)
        stopped, runs, full, full_run = self._stopped_and_full(
            monkeypatch, eq, direction, dt=eq.period / 500.0, **kwargs)
        assert not stopped.no_growth
        assert stopped == full
        assert len(runs) == 1
        assert not runs[0].blew_up and runs[0].times[-1] < full_run.times[-1]

    def test_returns_into_the_window_are_not_fitted(self, monkeypatch):
        # the presets' deviations never come back into the window, so a
        # recorded one that does stands in: 3 samples inside, out past the
        # stop, then 10 inside.  The fit reads only the first stretch, and
        # 3 samples are below the 8 it needs; the later return is never
        # integrated, so one run is all there is
        case = get_case("triangle-homogeneous")
        eq = Equilibrium(case.configuration(), case.potential)
        u = np.zeros(2 * eq.config.n)
        u[0] = 1.0
        dev = np.concatenate([[1e-6], np.geomspace(2e-5, 8e-3, 3), [5e-2],
                              np.geomspace(2e-3, 9e-3, 10), [6e-2]])
        est, calls = self._fit_recorded(monkeypatch, eq, u, dev)
        assert calls == [dynamics.GROWTH_WINDOW_TOP]
        assert est == dynamics.GrowthEstimate(0.0, True, (0.0, 0.0), 3)

    @staticmethod
    def _fit_recorded(monkeypatch, eq, u, dev):
        """(estimate, stop deviations asked for) at epsilon 1e-6 of a run
        that deviates by ``dev`` along ``u``, a sample every 0.1, cut at the
        first sample past the stop."""
        calls = []

        def recorded(config, spec, reference_equilibrium, stop_deviation, **kwargs):
            calls.append(stop_deviation)
            past = np.flatnonzero(dev > stop_deviation)
            k = past[0] + 1 if len(past) else dev.size
            positions = reference_equilibrium + dev[:k, None] * u
            return dynamics.Trajectory(np.arange(k) * 0.1, np.hstack([positions, 0 * positions]),
                                       np.zeros(k), eq.omega)

        monkeypatch.setattr(dynamics, "integrate_rotating_frame", recorded)
        return estimate_growth_rate(eq, u, epsilon=1e-6), calls

    def test_no_sample_inside_the_window(self, monkeypatch):
        # from below 10 epsilon straight past the top: an empty stretch
        case = get_case("triangle-homogeneous")
        eq = Equilibrium(case.configuration(), case.potential)
        u = np.zeros(2 * eq.config.n)
        u[1] = 1.0
        est, _ = self._fit_recorded(monkeypatch, eq, u, np.array([1e-6, 5e-6, 5e-2]))
        assert est == dynamics.GrowthEstimate(0.0, True, (0.0, 0.0), 0)

    def test_a_stretch_that_runs_to_the_last_sample(self, monkeypatch):
        # the run never passes the stop, so the stretch ends with the run
        case = get_case("triangle-homogeneous")
        eq = Equilibrium(case.configuration(), case.potential)
        u = np.zeros(2 * eq.config.n)
        u[1] = 1.0
        dev = np.concatenate([[1e-6], np.geomspace(2e-5, 8e-3, 12)])
        est, _ = self._fit_recorded(monkeypatch, eq, u, dev)
        t = np.arange(dev.size) * 0.1
        q = eq.config.positions
        fitted = np.linalg.norm(q + dev[1:, None] * u - q, axis=1)
        slope = float(np.polyfit(t[1:], np.log(fitted), 1)[0])
        assert est == dynamics.GrowthEstimate(slope, False, (float(t[1]), float(t[-1])), 12)

    @pytest.mark.parametrize("radius", [1e3, 1e4])
    def test_rate_scales_with_the_radius(self, radius):
        # under 1/r the rate scales as radius^-3/2.  The window's top was an
        # absolute 1e-2, so from radius 1e3 up the window [10 eps, 1e-2] was
        # empty and the fit read no growth.  The prediction is the radius-1
        # rate scaled by that law, which test_radius_scaling_law checks
        # against the oracle at radius 1e-3 and 1e3
        unit = Equilibrium(regular_polygon(3), PotentialSpec.homogeneous(1.0))
        predicted = float(full_linearization_spectrum(unit).real.max()) * radius ** -1.5
        eq = Equilibrium(unit.config.scaled(radius), unit.spec)
        est = estimate_growth_rate(eq, worst_direction(unit))
        assert not est.no_growth
        assert est.rate == pytest.approx(predicted, rel=0.10)

    @pytest.mark.parametrize("epsilon", [1e-3, 9e-4, 1.0000000000000002e-4])
    def test_epsilon_whose_window_spans_less_than_a_decade_is_refused(self, epsilon):
        # at 9e-4 fewer than 8 samples fell between 10 epsilon and the top,
        # and the fit read no growth though Re lambda = 0.977; 1e-4, exactly
        # one decade, fits (test_stopping_at_the_window_keeps_the_fit)
        case = get_case("manev-triangle")
        eq = Equilibrium(case.configuration(), case.potential)
        with pytest.raises(ValueError, match=r"100 \* epsilon must be at most GROWTH_WINDOW_TOP"):
            estimate_growth_rate(eq, worst_direction(eq), epsilon=epsilon)

    def test_stop_deviation_needs_a_reference(self, newton_triangle):
        with pytest.raises(ValueError, match="reference_equilibrium"):
            integrate_rotating_frame(*newton_triangle, stop_deviation=1e-2)

    def test_rejects_zero_direction(self, newton_triangle):
        eq = Equilibrium(*newton_triangle)
        with pytest.raises(ValueError, match="^direction must be finite and nonzero$"):
            estimate_growth_rate(eq, np.zeros(6))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_direction_must_be_finite(self, newton_triangle, value):
        eq = Equilibrium(*newton_triangle)
        with pytest.raises(ValueError, match="^direction must be finite and nonzero$"):
            estimate_growth_rate(eq, np.full(6, value))

    def test_zero_epsilon_is_refused(self):
        # a kick of zero never leaves the equilibrium; it used to be fitted
        # as rate nan, no_growth False, from the log of zero deviations
        case = get_case("manev-triangle")
        eq = Equilibrium(case.configuration(), case.potential)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            estimate_growth_rate(eq, worst_direction(eq), epsilon=0.0)

    @pytest.mark.parametrize("name", ["epsilon", "duration", "dt"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_growth_run_lengths_must_be_finite_and_positive(self, newton_triangle,
                                                             name, value):
        eq = Equilibrium(*newton_triangle)
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            estimate_growth_rate(eq, np.ones(6), **{name: value})


class TestEquilibriumCheck:
    def test_negative_periods_are_refused(self):
        # a run of no steps used to report a drift of 0.0
        case = get_case("manev-triangle")
        eq = Equilibrium(case.configuration(), case.potential)
        with pytest.raises(ValueError, match="periods must be finite and positive"):
            equilibrium_check(eq.config, eq.spec, eq.omega2, periods=-1)

    def test_negative_frame_frequency_is_named(self, newton_triangle):
        with pytest.raises(ValueError, match="^omega2 must be finite and non-negative"):
            equilibrium_check(*newton_triangle, -1.0)

    def test_non_rotating_frame_has_no_period(self, newton_triangle):
        # the run is counted in periods of the frame; this once divided by
        # zero and then blamed a duration of inf that the caller never gave
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^omega2 must be finite and positive for a "
                                                 "rotation period"):
                equilibrium_check(*newton_triangle, 0.0)

    @pytest.mark.parametrize("name", ["periods", "steps_per_period", "sample_every"])
    @pytest.mark.parametrize("value", [0, -1, np.nan, np.inf])
    def test_run_lengths_must_be_finite_and_positive(self, newton_triangle, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            equilibrium_check(*newton_triangle, **{name: value})


@pytest.mark.parametrize("omega2", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
def test_rotation_period_needs_a_finite_positive_frequency(omega2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^omega2 must be finite and positive"):
            rotation_period(omega2)
