"""Construction, verification, and Newton refinement of central configurations."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .model import BodyConfiguration, BodyPairs, potential_hessian
from .symmetry import rotation

MERIT_TOL = 1e-12           # Newton refinement's merit at success

# a Newton iterate's pairs and separations, which potential_hessian reads
_Point = namedtuple("_Point", "pairs separations")


class RefinementError(RuntimeError):
    """Newton refinement failed to converge or ran into a collision."""


def regular_polygon(n, radius=1.0):
    """Unit-mass regular n-gon on a circle, body i at angle 2*pi*(i-1)/n."""
    if n < 2:
        raise ValueError("need n >= 2")
    if radius <= 0:
        raise ValueError("radius must be positive")
    ang = 2.0 * np.pi * np.arange(n) / n
    pos = np.empty(2 * n)
    pos[0::2] = radius * np.cos(ang)
    pos[1::2] = radius * np.sin(ang)
    # roots of unity sum to zero; remove the float residue so the center of
    # mass is exact
    pts = pos.reshape(-1, 2)
    pts -= pts.mean(axis=0)
    return BodyConfiguration(np.ones(n), pts.ravel())


def _normalize_gauges(z, pairs, theta_pin, inertia_pin):
    """Center the configuration, restore the pinned inertia and body-1 angle."""
    masses = pairs.masses
    q = z.reshape(-1, 2).copy()
    q -= (masses @ q)[None, :] / masses.sum()
    if inertia_pin is not None:
        q *= np.sqrt(inertia_pin / pairs.inertia(q))
    theta = np.arctan2(q[0, 1], q[0, 0])
    return (q @ rotation(theta_pin - theta).T).ravel()


def _gauge_basis(z, masses):
    """Orthonormal gauge directions: weighted translations, rotation, scale.

    The columns are M(1 x e_x), M(1 x e_y), the rotation (y, -x) and z
    itself, each divided by its norm.  At a mass-centred z, which
    ``_normalize_gauges`` makes of every iterate, they are orthogonal up to
    rounding: sum_i m_i q_i = 0 makes z and the rotation orthogonal to both
    translations, the translations are orthogonal to each other, and the
    rotation is orthogonal to z for any z.  No column vanishes: the masses
    are positive, and |rot| = |z| > 0 once the bodies are distinct.
    """
    G = np.zeros((z.size, 4))
    G[0::2, 0] = masses
    G[1::2, 1] = masses
    G[0::2, 2] = z[1::2]
    G[1::2, 2] = -z[0::2]
    G[:, 3] = z
    return G / np.linalg.norm(G, axis=0)


def refine_central_configuration(config, spec, max_iter=60, fix_inertia=None,
                                 return_history=False):
    """Damped Newton iteration on grad(U) + lambda(z) grad(I) = 0.

    The multiplier is eliminated through the Euler formula at each step and
    the linear solve is restricted to the complement of the gauge
    directions (weighted translations, rotation, scaling).  Accepted
    iterates are re-centered, optionally rescaled to ``fix_inertia``, and
    rotated so the angular coordinate of body 1 keeps its initial value.
    Damping halves any step that fails to decrease the scale-free merit
    |F| / (|grad U| + 1) or that steps into a near-collision.

    MERIT_TOL bounds the merit at success, as CENTRALITY_TOL_FACTOR bounds
    it in is_central_configuration.
    ``fix_inertia`` selects the scale of the returned configuration; leave
    None to stay near the initial scale (only meaningful when the solution
    family is scale-free, as for regular polygons under every potential
    spec in scope).
    """
    masses = np.asarray(config.masses, dtype=float)
    pairs = BodyPairs(masses)
    mass_vector = np.repeat(masses, 2)
    mass_matrix = np.diag(mass_vector)
    eye = np.eye(mass_vector.size)
    q0 = config.positions.reshape(-1, 2)
    theta_pin = float(np.arctan2(q0[0, 1], q0[0, 0]))

    def residual(z, sep):
        """(F, merit, lam, g, I) at z, read from its separations sep."""
        q = z.reshape(-1, 2)
        U = pairs.energy_terms(sep, spec.terms)
        I = pairs.inertia(q)
        lam, g, F = pairs.centrality_residual(q, sep, spec.terms, U, I)
        return F, float(np.linalg.norm(F) / (np.linalg.norm(g) + 1.0)), lam, g, I

    z = _normalize_gauges(config.positions.copy(), pairs, theta_pin, fix_inertia)
    sep = pairs.separations(z.reshape(-1, 2))
    pairs.check_distinct(sep[1])
    floor = 1e-6 * float(sep[1].min())

    F, merit, lam, g, I = residual(z, sep)
    history = [merit]
    for _ in range(max_iter):
        if merit <= MERIT_TOL:
            break
        # Jacobian of F(z) = grad U + lam(z) M z with
        # grad lam = (sum_k a_k grad U_k)/(2I) - lam M z / I;
        # one term's weighted gradient is a grad U, the residual's g
        H = potential_hessian(_Point(pairs, sep), spec)
        Mz = mass_vector * z
        if len(spec.terms) == 1:
            grad_weighted = spec.terms[0][1] * g
        else:
            grad_weighted = sum(a * pairs.gradient(sep, ((c, a),)) for c, a in spec.terms)
        grad_lam = grad_weighted / (2.0 * I) - lam * Mz / I
        J = H + lam * mass_matrix + np.outer(Mz, grad_lam)

        gauge = _gauge_basis(z, masses)
        P = eye - gauge @ gauge.T
        step = -P @ np.linalg.lstsq(J @ P, F, rcond=1e-12)[0]

        for _halving in range(40):
            z_new = _normalize_gauges(z + step, pairs, theta_pin, fix_inertia)
            sep_new = pairs.separations(z_new.reshape(-1, 2))
            # a collision (r == 0) or a step into a near-collision
            if not sep_new[1].all() or sep_new[1].min() < floor:
                step *= 0.5
                continue
            F_new, merit_new, lam_new, g_new, I_new = residual(z_new, sep_new)
            if merit_new < merit or merit_new <= MERIT_TOL:
                z, sep, F, merit, lam, g, I = (z_new, sep_new, F_new, merit_new,
                                               lam_new, g_new, I_new)
                history.append(merit)
                break
            step *= 0.5
        else:
            raise RefinementError(
                f"no progress at merit {merit:.3e} (step damping exhausted)"
            )
    if merit > MERIT_TOL:
        raise RefinementError(
            f"not converged after {max_iter} iterations: merit {merit:.3e}"
        )
    cfg = BodyConfiguration(masses, z)
    return (cfg, history) if return_history else cfg
