"""Nonlinear rotating-frame trajectories and empirical growth rates.

The integrated system is the full equation of motion in the frame rotating
at the equilibrium frequency,

    x_i'' = 2 omega J x_i' + omega^2 x_i + (1/m_i) grad_i U(x),

not its linearization, so instability rates measured here are an
end-to-end check on the spectral predictions.

The integrator holds each body's position and velocity as complex numbers
z = x + iy and u = v_x + i v_y, a complex state (z | u) of length 2n.  J is
then multiplication by i, so one matmul with a fixed matrix gives both the
pair separations d = D z (D the pair incidence matrix, rows e_i - e_j over
the pairs i < j) and the linear part of the field; a second one adds the
pair forces.  RK4 steps a block of BLOCK_STEPS states into a buffer with no
test between them.  The stopping rules (finite states, the distance floor,
the energy tear and, at samples, the deviation) are then read off the
whole block at once, and the run is cut at the first step that fails them,
where a test after every step would have stopped.  Trajectory.states stays
flat, (positions | velocities) with (x, y) interleaved: the float view of
the complex states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import first_order_matrix, is_central_configuration, rotation_period

COLLISION_FACTOR = 1e-6     # blow-up when min distance falls below this x initial
GROWTH_WINDOW_TOP = 1e-2    # the growth fit's window top, times the radius
DEFAULT_STEPS_PER_PERIOD = 10_000
BLOCK_STEPS = 64            # steps taken between two checks of the stopping rules


def _require_positive(**values):
    """ValueError unless every given value is finite and positive."""
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _step_count(duration, dt):
    """Steps of dt that cover duration: ceil(duration / dt), with a ratio
    that rounding put a few ulps above an integer counted as that integer
    (0.1 period / (period / 2000) is 200.00000000000003, not 201 steps)."""
    ratio = duration / dt
    return int(np.ceil(ratio - 4.0 * np.finfo(float).eps * ratio))


def _complex_state(positions, velocities):
    """The complex state (z | u) of flat (x, y)-interleaved vectors."""
    return np.concatenate((np.ravel(positions), np.ravel(velocities)), dtype=float).view(complex)


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
            {"t": float(t), "state": s.tolist(), "energy": float(e)}
            for t, s, e in zip(self.times, self.states, self.jacobi_energy)
        ]


class _RotatingFrame:
    """Vector field and Jacobi integral of one (config, spec) pair on complex
    states (z | u) of length 2n: the positions z = x + iy, then the
    velocities u = v_x + i v_y, one entry per body.

    With the pair incidence matrix D (P x n, rows e_i - e_j for the pairs
    i < j), the separations are d = D z.  The potential
    U = sum_k c_k sum_{i<j} m_i m_j |d|^-a_k gives M^-1 grad U as
    W (|d|^(-a_k - 2) d) over the (term, pair) entries, where
    W[i, (k, p)] = D[p, i] (-a_k c_k m_i m_j) / m_i folds the force weights
    and the inverse masses into one n x KP matrix.  J is multiplication by
    i, so 2 omega J v is -2i omega u and one matmul gives the separations
    and the linear part of the field together:

        A (z | u) = (d | u | omega^2 z - 2i omega u),
        A = [[D, 0], [0, I], [omega^2 I, -2i omega I]].

    The field is its last 2n entries, (u | acc), with the pair forces added
    to acc and then ``offset``, the pin (see set_reference_equilibrium),
    subtracted last; it is zero until one is set.  A, W and the per-term
    exponents are built once per frame.

    So are the buffers of the step loop: ``stages``, one row of
    ``stage_buffer`` (4 x (P + 2n)) per RK4 stage as the views
    (row, d, acc, (u | acc)), the stage state ``stage_state`` (2n) and the
    field's scratch for |d|, its powers, the pair forces (K x P) and their
    matvec (n).  field writes a stage in place, so a step allocates nothing.
    """

    def __init__(self, config, spec, omega2):
        self.omega2 = float(omega2)
        self.omega = float(np.sqrt(self.omega2))
        pairs, n = config.pairs, config.n
        self.n, self.P = n, pairs.iu.size
        self.mass_vector = config.mass_vector
        rows = np.arange(self.P)
        D = np.zeros((self.P, n))
        D[rows, pairs.iu] = 1.0
        D[rows, pairs.ju] = -1.0
        eye, zero = np.eye(n), np.zeros((n, n))
        # complex, so that no matmul converts them on every call
        self.A = np.block([[D, np.zeros_like(D)], [zero, eye],
                           [self.omega2 * eye, -2j * self.omega * eye]])
        self.DT = D.T.astype(complex)
        c, a = np.array(spec.terms).T[:, :, None]
        DTm = D.T / config.masses[:, None]
        self.W = (DTm[:, None, :] * (-a * c * pairs.mm)).reshape(n, -1).astype(complex)
        self.force_exponents = -a - 2.0             # (K, 1), on |d|
        self.energy_weights = (c * pairs.mm).ravel()
        self.energy_exponents = -a
        # (squared flat positions | velocities) @ masses = (m |z|^2, m |u|^2)
        self.masses2 = np.kron(np.eye(2), self.mass_vector[:, None])
        # 0-d: subtracting a Python 0.0 converts it at every call
        self.offset = np.zeros((), complex)
        self.stage_buffer = np.empty((4, self.P + 2 * n), complex)
        self.stages = tuple(self._views(row) for row in self.stage_buffer)
        self.stage_state = np.empty(2 * n, complex)
        self._distance = np.empty(self.P)
        self._powers = np.empty((c.shape[0], self.P))
        self._forces = np.empty((c.shape[0], self.P), complex)
        self._forces_flat = self._forces.reshape(-1)
        self._force_sum = np.empty(n, complex)

    def _views(self, row):
        """(row, d, acc, (u | acc)) of one (P + 2n) row of A (z | u)."""
        return row, row[: self.P], row[self.P + self.n:], row[self.P:]

    def field(self, state, out=None):
        """Time derivative (u | acc) of a complex state (z | u), written into
        the stage ``out`` (one of ``stages``) or, without one, a new row."""
        if out is None:
            out = self._views(np.empty(self.P + 2 * self.n, complex))
        row, d, acc, derivative = out
        # out passed by position: as a keyword it costs each call more
        np.dot(self.A, state, row)
        np.abs(d, self._distance)
        np.power(self._distance, self.force_exponents, self._powers)
        np.multiply(self._powers, d, self._forces)
        np.dot(self.W, self._forces_flat, self._force_sum)
        acc += self._force_sum
        acc -= self.offset
        return derivative

    def set_reference_equilibrium(self, positions):
        """Pin an equilibrium: subtract the field's float residual there.

        The offset is the acceleration at (positions, zero velocity),
        omega^2 z + M^-1 grad U, which at an equilibrium is F / m (F the
        centrality residual) and of machine-eps scale.  Subtracting it
        makes the field bitwise zero at the equilibrium, so the discrete
        map fixes it exactly; without it, rounding noise seeds the
        unstable modes and is amplified exponentially over long windows.
        """
        self.offset = 0.0
        q = np.ravel(positions)
        self.offset = self.field(_complex_state(q, np.zeros_like(q)))[self.n:]

    def energy_parts(self, states):
        """Kinetic, centrifugal and potential parts of the Jacobi integral,
        and the pair distances (B x P), of a B x 2n stack of states."""
        mq2, mv2 = (np.square(states.view(float)) @ self.masses2).T
        r = abs(states[:, : self.n] @ self.DT)
        terms = r[:, None] ** self.energy_exponents               # (B, K, P)
        potential = terms.reshape(r.shape[0], -1) @ self.energy_weights
        return 0.5 * mv2, 0.5 * self.omega2 * mq2, potential, r


def _rk4_steps(frame, state, rows, half, full, sixth, two):
    """RK4 steps from ``state``, each into the next of ``rows``, in place on
    the frame's stage buffers with the operand order of

        k1 = f(state), k2 = f(state + half k1), k3 = f(state + half k2),
        k4 = f(state + full k3), state + sixth (k1 + two (k2 + k3) + k4),

    so that each step is bitwise that of the allocating expressions."""
    field, s1, s2, s3, s4, x = frame.field, *frame.stages, frame.stage_state
    add, mul = np.add, np.multiply
    for row in rows:
        k1 = field(state, s1)
        k2 = field(add(state, mul(half, k1, x), x), s2)
        k3 = field(add(state, mul(half, k2, x), x), s3)
        k4 = field(add(state, mul(full, k3, x), x), s4)
        add(k2, k3, x)
        add(k1, mul(two, x, x), x)
        add(x, k4, x)
        state = add(state, mul(sixth, x, x), row)


def integrate_rotating_frame(config, spec, initial_velocity=None, duration=None,
                             dt=None, sample_every=1, omega2=None,
                             reference_equilibrium=None, stop_deviation=None):
    """Fixed-step classical fourth-order integration of the nonlinear flow.

    Records the Jacobi-type integral at every sample.  Integration stops
    early (with ``blew_up`` set) if bodies approach collision.  The frame
    frequency defaults to the configuration's own Euler value; pass
    ``omega2`` when integrating perturbed states in an equilibrium's frame,
    and ``reference_equilibrium`` (flat positions) to pin that equilibrium
    as a bit-exact fixed point of the discrete map (an eps-sized field
    correction; see _RotatingFrame.set_reference_equilibrium).  With
    ``stop_deviation`` the run ends, without ``blew_up``, at the first
    sample whose positions lie farther than that (Euclidean norm) from
    ``reference_equilibrium``.
    Defaults: duration = one rotation period, dt = period / 10^4.  duration
    and dt must be finite and positive, sample_every a positive integer
    (ValueError).
    """
    if not (np.isfinite(sample_every) and sample_every > 0
            and sample_every == int(sample_every)):
        raise ValueError(f"sample_every must be a positive integer, got {sample_every!r}")
    if omega2 is None:
        # unchecked: non-central inputs integrate in their Euler frame too
        omega2 = is_central_configuration(config, spec).multiplier
    frame = _RotatingFrame(config, spec, omega2)
    if reference_equilibrium is not None:
        frame.set_reference_equilibrium(reference_equilibrium)
        origin = np.ravel(reference_equilibrium)
    elif stop_deviation is not None:
        raise ValueError("stop_deviation needs a reference_equilibrium")
    if duration is None or dt is None:
        # only the defaults need the period, which omega2 = 0 lacks
        period = rotation_period(frame.omega2)
        duration = period if duration is None else duration
        dt = period / DEFAULT_STEPS_PER_PERIOD if dt is None else dt
    _require_positive(duration=duration, dt=dt)
    if initial_velocity is None:
        initial_velocity = np.zeros(2 * config.n)
    state = _complex_state(config.positions, initial_velocity)
    floor = COLLISION_FACTOR * config.min_pair_distance()

    steps = _step_count(duration, dt)
    kinetic, centrifugal, potential, _ = frame.energy_parts(state[None])
    e0 = kinetic - centrifugal - potential
    # the integral's scale: the sum of its parts' sizes
    energy_cap = 1e3 * (abs(kinetic) + abs(centrifugal) + abs(potential) + 1.0)
    times, states, energies = [np.zeros(1)], [state.view(float)[None]], [e0]
    # 0-d complex arrays: a Python float is converted at every product
    half, full, sixth, two = (np.array(h, complex) for h in (0.5 * dt, dt, dt / 6.0, 2.0))
    buffer = np.empty((BLOCK_STEPS, state.size), complex)
    blew_up, done = False, 0
    while done < steps:
        block = buffer[: min(BLOCK_STEPS, steps - done)]
        k = np.arange(done + 1, done + block.shape[0] + 1)
        # the steps past a failure in the block compute garbage, silently
        with np.errstate(all="ignore"):
            _rk4_steps(frame, state, block, half, full, sixth, two)
            state = block[-1]
            # a fixed-step scheme can hop straight across the singularity
            # with finite garbage values; the conserved energy tearing away
            # from its initial value is the reliable collision tell
            # alongside the distance floor
            kinetic, centrifugal, potential, r = frame.energy_parts(block)
            energy = kinetic - centrifugal - potential
            failed = (~np.isfinite(block).all(axis=1) | (r.min(axis=1) < floor)
                      | (abs(energy - e0) > energy_cap))
            blew_up, stopped = bool(failed.any()), False
            kept = int(np.argmax(failed)) if blew_up else block.shape[0]
            sampled = (k % sample_every == 0) | (k == steps)
            if stop_deviation is not None:
                # axis given: summed as estimate_growth_rate's row norms
                deviation = np.linalg.norm(block[:kept, : config.n].view(float) - origin, axis=1)
                over = sampled[:kept] & (deviation > stop_deviation)
                stopped = bool(over.any())
                if stopped:
                    kept, blew_up = int(np.argmax(over)) + 1, False
        rows = np.flatnonzero(sampled[:kept])
        times.append(k[rows] * dt)
        states.append(block[rows].view(float))
        energies.append(energy[rows])
        if blew_up or stopped:
            break
        done += block.shape[0]
    return Trajectory(np.concatenate(times), np.concatenate(states),
                      np.concatenate(energies), frame.omega, blew_up)


@dataclass(frozen=True)
class GrowthEstimate:
    rate: float
    no_growth: bool
    window: tuple               # (t_start, t_end) of the fitted stretch
    n_samples: int


def equilibrium_check(config, spec, omega2=None, periods=1.0, steps_per_period=2000,
                      sample_every=200):
    """(pin_ratio, drift, trajectory): ``config`` checked as an equilibrium
    of the frame at omega2 (default: its Euler value).

    The pin that makes an equilibrium a bitwise fixed point of the
    integrator is the field there, omega^2 q + grad U / m.  At a true
    equilibrium that is F / m, with F = grad U + omega^2 M q the centrality
    residual, up to the rounding of its two terms: 4 eps of their sizes.
    pin_ratio is the pin's distance from F / m over that bound, at most 1
    at an equilibrium.  drift is the largest coordinate's distance from the
    start over the unpinned ``trajectory`` of ``periods``: a wrong frame or
    a moved body leaves within a period.  The three run lengths must be
    finite and positive (ValueError).
    """
    _require_positive(periods=periods, steps_per_period=steps_per_period,
                      sample_every=sample_every)
    centrality = is_central_configuration(config, spec)
    grad, residual = centrality.gradient, centrality.residual
    frame = _RotatingFrame(config, spec, centrality.multiplier if omega2 is None else omega2)
    frame.set_reference_equilibrium(config.positions)
    pin_defect = float(np.max(np.abs(frame.offset.view(float) - residual / config.mass_vector)))
    pin_bound = 4.0 * np.finfo(float).eps * (
        frame.omega2 * np.max(np.abs(config.positions))
        + np.max(np.abs(grad / config.mass_vector))
    )
    period = rotation_period(frame.omega2)
    traj = integrate_rotating_frame(
        config, spec, duration=periods * period, dt=period / steps_per_period,
        sample_every=sample_every, omega2=frame.omega2,
    )
    drift = float(np.max(np.abs(traj.positions - config.positions[None, :])))
    return pin_defect / pin_bound, drift, traj


def worst_direction(eq):
    """Position part of the eigenvector of the largest-real-part eigenvalue
    of the equilibrium's linearization."""
    vals, vecs = np.linalg.eig(first_order_matrix(eq.omega2, eq.omega, eq.Hw, eq.Jh))
    k = int(np.argmax(vals.real))
    # the mass-weighted form's eigenvectors are diag(M^{1/2}, M^{1/2}) times A's
    vec = vecs[: 2 * eq.n, k] / np.sqrt(eq.config.mass_vector)
    pos = np.real(vec)
    if np.linalg.norm(pos) < 1e-12:
        pos = np.imag(vec)
    return pos / np.linalg.norm(pos)


def estimate_growth_rate(eq, direction, epsilon=None, duration=None, dt=None):
    """Fit the exponential departure rate from a perturbed equilibrium.

    The equilibrium ``eq`` is kicked by epsilon * direction in position, the
    nonlinear system is integrated, and log |deviation| is fitted linearly
    over the first contiguous stretch of samples where the deviation sits
    between 10 * epsilon and top = GROWTH_WINDOW_TOP * radius (inside the
    linear regime), the radius being the largest |q_i|.  The run stops at
    the first sample above both top and 300 * epsilon, which closes that
    stretch.  Returns rate 0 with ``no_growth`` when the stretch holds fewer
    than 8 samples or the deviation never reaches 300 * epsilon;
    ``n_samples`` is the stretch's length either way.

    epsilon, duration and dt, given or defaulted, must be finite and
    positive, and 100 * epsilon at most top (ValueError): samples come every
    10 steps of the default dt = period / 4000, so the window's one decade
    holds ln(10) 400 / (sigma period) of them at growth rate sigma, at
    least 8 while sigma period <= 115.
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
    _require_positive(epsilon=epsilon, duration=duration, dt=dt)
    top = GROWTH_WINDOW_TOP * radius
    if 100.0 * epsilon > top:
        raise ValueError(f"epsilon {epsilon!r} leaves the fit window less than a decade: "
                         f"100 * epsilon must be at most GROWTH_WINDOW_TOP * radius = {top!r}")
    traj = integrate_rotating_frame(
        config.with_positions(config.positions + epsilon * direction), eq.spec,
        duration=duration, dt=dt, sample_every=10, omega2=eq.omega2,
        reference_equilibrium=config.positions, stop_deviation=max(top, 300.0 * epsilon),
    )
    dev = np.linalg.norm(traj.positions - config.positions[None, :], axis=1)
    # the first contiguous run inside the window, closed by a False past the
    # last sample; with no sample inside, start = stop = 0
    inside = np.append((dev >= 10.0 * epsilon) & (dev <= top), False)
    start = int(np.argmax(inside))
    stop = start + int(np.argmin(inside[start:]))
    # secular (polynomial) drift of neutral modes enters the window but
    # never covers a real exponential range; demand 1.5 decades of growth
    if stop - start < 8 or float(dev.max()) < 300.0 * epsilon:
        return GrowthEstimate(0.0, True, (0.0, 0.0), stop - start)
    t, y = traj.times[start:stop], np.log(dev[start:stop])
    slope = float(np.polyfit(t, y, 1)[0])
    return GrowthEstimate(slope, False, (float(t[0]), float(t[-1])), stop - start)
