"""Construction, verification, and Newton refinement of central configurations."""

from __future__ import annotations

import numpy as np

# the centrality test lives in model; central re-exports it
from .model import (
    BodyConfiguration,
    CentralityReport,
    CollisionError,
    PotentialSpec,
    centrality_residual,
    is_central_configuration,
    moment_of_inertia,
    potential_gradient,
    potential_hessian,
)


class RefinementError(RuntimeError):
    """Newton refinement failed to converge or ran into a collision."""


def regular_polygon(n, radius=1.0, mass=1.0):
    """Equal-mass regular n-gon on a circle, body i at angle 2*pi*(i-1)/n."""
    if n < 2:
        raise ValueError("need n >= 2")
    if radius <= 0 or mass <= 0:
        raise ValueError("radius and mass must be positive")
    ang = 2.0 * np.pi * np.arange(n) / n
    pos = np.empty(2 * n)
    pos[0::2] = radius * np.cos(ang)
    pos[1::2] = radius * np.sin(ang)
    # roots of unity sum to zero; remove the float residue so the center of
    # mass is exact
    pts = pos.reshape(-1, 2)
    pts -= pts.mean(axis=0)
    return BodyConfiguration(np.full(n, float(mass)), pts.ravel())


def _normalize_gauges(z, masses, theta_pin, inertia_pin):
    """Center the configuration, restore the pinned inertia and body-1 angle."""
    q = z.reshape(-1, 2).copy()
    q -= (masses @ q)[None, :] / masses.sum()
    if inertia_pin is not None:
        I = 0.5 * float(masses @ (q * q).sum(axis=1))
        q *= np.sqrt(inertia_pin / I)
    theta = np.arctan2(q[0, 1], q[0, 0])
    c, s = np.cos(theta_pin - theta), np.sin(theta_pin - theta)
    q = q @ np.array([[c, s], [-s, c]])
    return q.ravel()


def _gauge_basis(z, masses):
    """Orthonormalized gauge directions: weighted translations, rotation, scale."""
    n = masses.size
    tx = np.zeros(2 * n)
    tx[0::2] = masses
    ty = np.zeros(2 * n)
    ty[1::2] = masses
    rot = np.empty(2 * n)
    rot[0::2] = z[1::2]
    rot[1::2] = -z[0::2]
    G = np.column_stack([tx, ty, rot, z])
    U, S, _ = np.linalg.svd(G, full_matrices=False)
    return U[:, S > 1e-12 * S[0]]


def _residual(positions, masses, spec):
    cfg = BodyConfiguration(masses, positions)
    lam, g, F = centrality_residual(cfg, spec)
    merit = np.linalg.norm(F) / (np.linalg.norm(g) + 1.0)
    return F, float(merit), cfg, lam, g


def refine_central_configuration(config, spec, max_iter=60, tol=1e-12,
                                 fix_inertia=None, return_history=False):
    """Damped Newton iteration on grad(U) + lambda(z) grad(I) = 0.

    The multiplier is eliminated through the Euler formula at each step and
    the linear solve is restricted to the complement of the gauge
    directions (weighted translations, rotation, scaling).  Accepted
    iterates are re-centered, optionally rescaled to ``fix_inertia``, and
    rotated so the angular coordinate of body 1 keeps its initial value.
    Damping halves any step that fails to decrease the scale-free merit
    |F| / (|grad U| + 1) or that steps into a near-collision.

    ``tol`` plays the role of the centrality tolerance factor: success
    means the result passes is_central_configuration(..., tol_factor=tol).
    ``fix_inertia`` selects the scale of the returned configuration; leave
    None to stay near the initial scale (only meaningful when the solution
    family is scale-free, as for regular polygons under every potential
    spec in scope).
    """
    masses = np.asarray(config.masses, dtype=float)
    n = masses.size
    q0 = config.positions.reshape(-1, 2)
    theta_pin = float(np.arctan2(q0[0, 1], q0[0, 0]))
    z = _normalize_gauges(config.positions.copy(), masses, theta_pin, fix_inertia)
    floor = 1e-6 * BodyConfiguration(masses, z).min_pair_distance()

    F, merit, cfg, lam, g = _residual(z, masses, spec)
    history = [merit]
    for _ in range(max_iter):
        if merit <= tol:
            break
        # Jacobian of F(z) = grad U + lam(z) M z with
        # grad lam = (sum_k a_k grad U_k)/(2I) - lam M z / I
        H = potential_hessian(cfg, spec)
        Mz = cfg.mass_vector * z
        I = moment_of_inertia(cfg)
        grad_weighted = np.zeros(2 * n)
        for c, a in spec.terms:
            grad_weighted += a * potential_gradient(cfg, PotentialSpec(((c, a),)))
        grad_lam = grad_weighted / (2.0 * I) - lam * Mz / I
        J = H + lam * np.diag(cfg.mass_vector) + np.outer(Mz, grad_lam)

        gauge = _gauge_basis(z, masses)
        P = np.eye(2 * n) - gauge @ gauge.T
        step = -P @ np.linalg.lstsq(J @ P, F, rcond=1e-12)[0]

        accepted = False
        for _halving in range(40):
            z_new = _normalize_gauges(z + step, masses, theta_pin, fix_inertia)
            try:
                trial = BodyConfiguration(masses, z_new)
            except (CollisionError, ValueError):
                step *= 0.5
                continue
            if trial.min_pair_distance() < floor:
                step *= 0.5
                continue
            F_new, merit_new, cfg_new, lam_new, g_new = _residual(
                z_new, masses, spec
            )
            if merit_new < merit or merit_new <= tol:
                z, F, merit, cfg, lam, g = (
                    z_new, F_new, merit_new, cfg_new, lam_new, g_new
                )
                history.append(merit)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise RefinementError(
                f"no progress at merit {merit:.3e} (step damping exhausted)"
            )
    if merit > tol:
        raise RefinementError(
            f"not converged after {max_iter} iterations: merit {merit:.3e}"
        )
    if return_history:
        return cfg, history
    return cfg
