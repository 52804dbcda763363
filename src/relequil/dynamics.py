"""Nonlinear rotating-frame trajectories and empirical growth rates.

The integrated system is the full equation of motion in the frame rotating
at the equilibrium frequency,

    x_i'' = 2 omega J x_i' + omega^2 x_i + (1/m_i) grad_i U(x),

not its linearization, so instability rates measured here are an
end-to-end check on the spectral predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import euler_omega_squared, rotation_period
from .symmetry import block_symplectic

COLLISION_FACTOR = 1e-6     # blow-up when min distance falls below this x initial
DEFAULT_STEPS_PER_PERIOD = 10_000


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # rows (positions | velocities), length 4n
    jacobi_energy: np.ndarray
    omega: float
    blew_up: bool = False

    @property
    def positions(self):
        return self.states[:, : self.states.shape[1] // 2]

    def records(self):
        """Plain records (time, state, energy) for external plotting."""
        return [
            {"t": float(t), "state": list(map(float, s)), "energy": float(e)}
            for t, s, e in zip(self.times, self.states, self.jacobi_energy)
        ]


class _RotatingFrame:
    """Right-hand side and Jacobi integral for one (config, spec) pair."""

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
        """Subtract the field's float residual at an equilibrium.

        The correction is at machine-eps scale but makes the equilibrium a
        bit-exact fixed point of the discrete map; without it, rounding
        noise seeds the unstable modes and is amplified exponentially over
        long windows.
        """
        self.acc_offset = None
        self.acc_offset = self.rhs(
            np.concatenate([positions, np.zeros_like(positions)])
        )[positions.size:]

    def energy_parts(self, state):
        """Kinetic, centrifugal and potential parts of the Jacobi integral."""
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


def integrate_rotating_frame(config, spec, initial_velocity=None, duration=None,
                             dt=None, sample_every=1, omega2=None,
                             reference_equilibrium=None):
    """Fixed-step classical fourth-order integration of the nonlinear flow.

    Records the Jacobi-type integral at every sample.  Integration stops
    early (with ``blew_up`` set) if bodies approach collision.  The frame
    frequency defaults to the configuration's own Euler value; pass
    ``omega2`` when integrating perturbed states in an equilibrium's frame,
    and ``reference_equilibrium`` (flat positions) to pin that equilibrium
    as a bit-exact fixed point of the discrete map (an eps-sized field
    correction; see _RotatingFrame.set_reference_equilibrium).
    Defaults: duration = one rotation period, dt = period / 10^4.
    """
    frame = _RotatingFrame(config, spec, omega2=omega2)
    if reference_equilibrium is not None:
        frame.set_reference_equilibrium(np.asarray(reference_equilibrium, float))
    period = rotation_period(frame.omega2)
    if duration is None:
        duration = period
    if dt is None:
        dt = period / DEFAULT_STEPS_PER_PERIOD
    if dt <= 0:
        raise ValueError("dt must be positive")
    if initial_velocity is None:
        initial_velocity = np.zeros(2 * config.n)
    state = np.concatenate([config.positions, np.asarray(initial_velocity, float)])
    floor = COLLISION_FACTOR * config.min_pair_distance()

    steps = int(np.ceil(duration / dt))
    e0 = frame.energy(state)
    # the integral's scale: the sum of its parts' sizes
    energy_cap = 1e3 * (sum(map(abs, frame.energy_parts(state))) + 1.0)
    times, states, energies = [0.0], [state.copy()], [e0]
    blew_up = False
    for k in range(1, steps + 1):
        k1 = frame.rhs(state)
        k2 = frame.rhs(state + 0.5 * dt * k1)
        k3 = frame.rhs(state + 0.5 * dt * k2)
        k4 = frame.rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # a fixed-step scheme can hop straight across the singularity with
        # finite garbage values; the conserved energy tearing away from its
        # initial value is the reliable collision tell alongside the
        # distance floor
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
    return Trajectory(
        np.array(times), np.array(states), np.array(energies), frame.omega, blew_up
    )


@dataclass(frozen=True)
class GrowthEstimate:
    rate: float
    no_growth: bool
    window: tuple               # (t_start, t_end) of the fitted stretch
    n_samples: int


def equilibrium_drift(eq, periods, steps_per_period, sample_every):
    """Integrate the unkicked, pinned equilibrium ``eq`` in its own frame;
    returns the trajectory and the largest distance of a sample from it."""
    z = eq.config.positions
    traj = integrate_rotating_frame(
        eq.config, eq.spec, duration=periods * eq.period,
        dt=eq.period / steps_per_period, sample_every=sample_every,
        omega2=eq.omega2, reference_equilibrium=z,
    )
    return traj, float(np.max(np.linalg.norm(traj.positions - z[None, :], axis=1)))


def estimate_growth_rate(eq, direction, epsilon=None, duration=None, dt=None,
                         window_upper=1e-2):
    """Fit the exponential departure rate from a perturbed equilibrium.

    The equilibrium ``eq`` is kicked by epsilon * direction in position, the
    nonlinear system is integrated, and log |deviation| is fitted linearly
    over the stretch where the deviation sits between 10 * epsilon and
    ``window_upper`` (staying inside the linear regime).  Returns rate 0
    with ``no_growth`` when the deviation never reaches the window.
    """
    direction = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(direction)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    direction = direction / nrm
    config = eq.config
    radius = float(np.max(np.hypot(*config.points.T)))
    if epsilon is None:
        epsilon = 1e-6 * radius
    if duration is None:
        duration = 12.0 * eq.period
    if dt is None:
        dt = eq.period / 4000.0
    perturbed = config.with_positions(config.positions + epsilon * direction)
    traj = integrate_rotating_frame(
        perturbed, eq.spec, duration=duration, dt=dt, sample_every=10,
        omega2=eq.omega2, reference_equilibrium=config.positions,
    )
    dev = np.linalg.norm(traj.positions - config.positions[None, :], axis=1)
    inside = (dev >= 10.0 * epsilon) & (dev <= window_upper)
    # secular (polynomial) drift of neutral modes enters the window but
    # never covers a real exponential range; demand 1.5 decades of growth
    if inside.sum() < 8 or float(dev.max()) < 300.0 * epsilon:
        return GrowthEstimate(0.0, True, (0.0, 0.0), int(inside.sum()))
    # first contiguous run inside the window
    start = int(np.argmax(inside))
    stop = start
    while stop < dev.size and inside[stop]:
        stop += 1
    t, y = traj.times[start:stop], np.log(dev[start:stop])
    slope = float(np.polyfit(t, y, 1)[0])
    return GrowthEstimate(slope, False, (float(t[0]), float(t[-1])), int(t.size))
