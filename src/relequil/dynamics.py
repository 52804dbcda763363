"""Nonlinear rotating-frame trajectories and empirical growth rates.

The integrated system is the full equation of motion in the frame rotating
at the equilibrium frequency,

    x_i'' = 2 omega J x_i' + omega^2 x_i + (1/m_i) grad_i U(x),

not its linearization, so instability rates measured here are an
end-to-end check on the spectral predictions.

The integrator holds its state as a (2, n, 2) array: positions, then
velocities, one (x, y) row per body, so a stage input s + h k is one array
operation.  The potential's field is read from the pair incidence matrix
D (rows e_i - e_j over the pairs i < j): d = D q gives every separation at
once and D^T / m scatters the pair forces back onto the bodies as
accelerations.  Trajectory.states stays flat, (positions | velocities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import euler_omega_squared, rotation_period

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
    """Vector field and Jacobi integral of one (config, spec) pair on states
    of shape (2, n, 2): positions q and velocities v, one row per body.

    With the pair incidence matrix D (P x n, rows e_i - e_j for the pairs
    i < j), the separations are d = D q and r^2 = sum(d^2) per pair.  The
    potential U = sum_k c_k sum_{i<j} m_i m_j r^-a_k gives the pair weights
    w = sum_k -a_k c_k m_i m_j (r^2)^(-a_k/2 - 1), and M^-1 grad U is
    (D^T / m)(w d).  The acceleration is

        omega^2 q + v @ Lv + (D^T / m)(w d) - offset,

    with Lv = [[0, -2 omega], [2 omega, 0]], so that v @ Lv is 2 omega J v
    body by body; ``offset`` is the pin (see set_reference_equilibrium),
    zero until one is set.  D, D^T / m and the per-term weights and
    exponents are built once per frame.
    """

    def __init__(self, config, spec, omega2=None):
        if omega2 is None:
            omega2 = euler_omega_squared(config, spec)
        self.omega2 = float(omega2)
        self.omega = float(np.sqrt(self.omega2))
        pairs, n = config.pairs, config.n
        self.mass_vector = config.mass_vector
        self.D = np.zeros((pairs.iu.size, n))
        rows = np.arange(pairs.iu.size)
        self.D[rows, pairs.iu] = 1.0
        self.D[rows, pairs.ju] = -1.0
        self.DTm = self.D.T / config.masses[:, None]
        c, a = np.array(spec.terms).T[:, :, None]
        self.force_weights = -a * c * pairs.mm       # (K, P)
        self.force_exponents = -0.5 * a - 1.0        # (K, 1), on r^2
        self.energy_weights = c * pairs.mm
        self.energy_exponents = -0.5 * a
        # state @ L = (omega^2 q, v @ Lv)
        w2 = 2.0 * self.omega
        self.L = np.array([[[self.omega2, 0.0], [0.0, self.omega2]],
                           [[0.0, -w2], [w2, 0.0]]])
        self.offset = 0.0

    def geometry(self, q):
        """Separations d = D q (P x 2) and squared distances r^2 (P,)."""
        d = self.D @ q
        return d, (d * d).sum(axis=1)

    def field(self, state, geometry=None):
        """Time derivative (v, acc) of a (2, n, 2) state; ``geometry`` is the
        state's (d, r^2) when already computed."""
        d, r2 = self.geometry(state[0]) if geometry is None else geometry
        w = (self.force_weights * r2 ** self.force_exponents).sum(axis=0)
        linear = state @ self.L
        acc = linear[0] + linear[1] + (self.DTm * w) @ d - self.offset
        # np.array of the two (n, 2) rows costs a third of np.stack
        return np.array((state[1], acc))

    def set_reference_equilibrium(self, positions):
        """Pin an equilibrium: subtract the field's float residual there.

        The offset is the acceleration at (positions, zero velocity),
        omega^2 q + M^-1 grad U, which at an equilibrium is F / m (F the
        centrality residual) and of machine-eps scale.  Subtracting it
        makes the field bitwise zero at the equilibrium, so the discrete
        map fixes it exactly; without it, rounding noise seeds the
        unstable modes and is amplified exponentially over long windows.
        """
        self.offset = 0.0
        q = np.asarray(positions, float).reshape(-1, 2)
        self.offset = self.field(np.stack((q, np.zeros_like(q))))[1]

    def energy_parts(self, state, r2):
        """Kinetic, centrifugal and potential parts of the Jacobi integral at
        a (2, n, 2) state whose squared pair distances are r2."""
        mq2, mv2 = np.square(state).reshape(2, -1) @ self.mass_vector
        potential = np.vdot(self.energy_weights, r2 ** self.energy_exponents)
        return 0.5 * float(mv2), 0.5 * self.omega2 * float(mq2), float(potential)

    def energy(self, state, r2):
        kinetic, centrifugal, potential = self.energy_parts(state, r2)
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
        frame.set_reference_equilibrium(reference_equilibrium)
    period = rotation_period(frame.omega2)
    if duration is None:
        duration = period
    if dt is None:
        dt = period / DEFAULT_STEPS_PER_PERIOD
    if dt <= 0:
        raise ValueError("dt must be positive")
    if initial_velocity is None:
        initial_velocity = np.zeros(2 * config.n)
    state = np.stack((config.points, np.asarray(initial_velocity, float).reshape(-1, 2)))
    floor2 = (COLLISION_FACTOR * config.min_pair_distance()) ** 2

    steps = int(np.ceil(duration / dt))
    geometry = frame.geometry(state[0])
    e0 = frame.energy(state, geometry[1])
    # the integral's scale: the sum of its parts' sizes
    energy_cap = 1e3 * (sum(map(abs, frame.energy_parts(state, geometry[1]))) + 1.0)
    # every step makes a new state array, so the samples can be its views
    times, states, energies = [0.0], [state.ravel()], [e0]
    half, sixth = 0.5 * dt, dt / 6.0
    blew_up = True              # until every step has passed its checks
    for k in range(1, steps + 1):
        k1 = frame.field(state, geometry)
        k2 = frame.field(state + half * k1)
        k3 = frame.field(state + half * k2)
        k4 = frame.field(state + dt * k3)
        state = state + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # a fixed-step scheme can hop straight across the singularity with
        # finite garbage values; the conserved energy tearing away from its
        # initial value is the reliable collision tell alongside the
        # distance floor.  The new state's (d, r^2) serves the floor, the
        # energy and the next step's first stage.
        if not np.isfinite(state).all():
            break
        geometry = frame.geometry(state[0])
        if geometry[1].min() < floor2:
            break
        energy = frame.energy(state, geometry[1])
        if abs(energy - e0) > energy_cap:
            break
        if k % sample_every == 0 or k == steps:
            times.append(k * dt)
            states.append(state.ravel())
            energies.append(energy)
    else:
        blew_up = False
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
