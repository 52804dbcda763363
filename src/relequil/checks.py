"""Always-on invariant battery shared by the CLI selfcheck and the tests.

Each check returns (name, passed, detail); run_selfcheck executes the lot
and reports the worst observed defect for every property.
"""

from __future__ import annotations

import numpy as np

from .central import regular_polygon
from .model import (
    BodyConfiguration,
    Equilibrium,
    PotentialSpec,
    first_order_matrix,
    potential_energy,
    potential_gradient,
    potential_hessian,
)
from .presets import all_standard_cases
from .spectrum import (
    block_spectrum,
    compare_spectra,
    full_linearization_spectrum,
)
from .symmetry import (
    J2,
    block_symplectic,
    build_polygon_symmetry_group,
    dihedral,
    invariance_defect,
    wave_number_stack,
)

PRESET_POTENTIALS = {
    "homogeneous(1)": PotentialSpec.homogeneous(1.0),
    "manev": PotentialSpec.manev(),
    "schwarzschild": PotentialSpec.schwarzschild(),
}


def random_configuration(rng, n=4):
    while True:
        pos = rng.uniform(-1.5, 1.5, size=2 * n)
        try:
            cfg = BodyConfiguration(np.ones(n), pos)
        except ValueError:
            continue
        if cfg.min_pair_distance() >= 0.35:
            return cfg


def check_gradient_fd(n_samples=100):
    rng = np.random.default_rng(11)
    worst = 0.0
    for name, spec in PRESET_POTENTIALS.items():
        for _ in range(n_samples):
            cfg = random_configuration(rng)
            g = potential_gradient(cfg, spec)
            h = 1e-5
            fd = np.empty_like(g)
            for k in range(g.size):
                e = np.zeros_like(g)
                e[k] = h
                up = potential_energy(cfg.with_positions(cfg.positions + e), spec)
                dn = potential_energy(cfg.with_positions(cfg.positions - e), spec)
                up2 = potential_energy(cfg.with_positions(cfg.positions + 2 * e), spec)
                dn2 = potential_energy(cfg.with_positions(cfg.positions - 2 * e), spec)
                # Richardson-refined central difference
                fd[k] = (8.0 * (up - dn) - (up2 - dn2)) / (12.0 * h)
            rel = np.max(np.abs(fd - g)) / max(np.max(np.abs(g)), 1e-300)
            worst = max(worst, rel)
    return "gradient vs finite differences", worst <= 1e-6, f"worst rel {worst:.3e}"


def check_hessian_fd(n_samples=100):
    rng = np.random.default_rng(12)
    worst = 0.0
    for name, spec in PRESET_POTENTIALS.items():
        for _ in range(n_samples):
            cfg = random_configuration(rng)
            H = potential_hessian(cfg, spec)
            h = 1e-5
            fd = np.empty_like(H)
            for k in range(H.shape[0]):
                e = np.zeros(H.shape[0])
                e[k] = h
                gp = potential_gradient(cfg.with_positions(cfg.positions + e), spec)
                gm = potential_gradient(cfg.with_positions(cfg.positions - e), spec)
                fd[:, k] = (gp - gm) / (2.0 * h)
            rel = np.max(np.abs(fd - H)) / max(np.max(np.abs(H)), 1e-300)
            worst = max(worst, rel)
    return "hessian vs finite differences", worst <= 1e-5, f"worst rel {worst:.3e}"


def representation_matrices(group):
    """The 2n x 2n matrices D(g) of every element as a (2n, 2n, 2n) stack:
    block (perms[g, i], i) of D(g) is orthos[g]."""
    order, n = group.perms.shape
    D = np.zeros((order, n, 2, n, 2))
    D[np.arange(order)[:, None], group.perms, :, np.arange(n), :] = group.orthos[:, None]
    return D.reshape(order, 2 * n, 2 * n)


def check_homomorphism():
    """The matrices against the dihedral presentation on a = D[1] and
    r = D[n]: a^n = r^2 = (ra)^2 = e, D[k] = a^k and D[n + k] = a^k r.  The
    classes must partition the group, and conjugation by a and by r, which
    generate it, must map each class onto itself."""
    worst, classes_ok = 0.0, True
    for n in range(3, 9):
        group = build_polygon_symmetry_group(n)
        D = representation_matrices(group)
        e, a, r = np.eye(2 * n), D[1], D[n]
        ra = r @ a
        defects = (D[0] - e, D[1:n] - D[:n - 1] @ a, D[n - 1] @ a - e,
                   D[n:] - D[:n] @ r, r @ r - e, ra @ ra - e)
        worst = max(worst, *(float(np.max(np.abs(x))) for x in defects))
        members = sorted(i for cl in group.conjugacy_classes for i in cl)
        classes_ok &= members == list(range(group.order))
        for g in (a, r):
            # the element each conjugate g D g^T lands on
            image = np.abs(g @ D @ g.T - D[:, None]).max(axis=(2, 3)).argmin(axis=0)
            classes_ok &= all(set(image[list(cl)]) == set(cl)
                              for cl in group.conjugacy_classes)
    return ("representation homomorphism and conjugacy classes",
            worst <= 1e-13 and classes_ok,
            f"worst defect {worst:.3e}, classes {'ok' if classes_ok else 'BROKEN'}")


def check_invariance_bound():
    """The two-generator defect of invariance_defect bounds max |D H - H D|
    over every representation matrix D, on group-averaged, slightly
    perturbed and random symmetric matrices.  The detail is the worst ratio
    of that maximum to the bound plus 8 eps max |H|, the rounding of either
    side; it must not exceed 1."""
    rng = np.random.default_rng(15)
    eps = np.finfo(float).eps
    worst = 0.0
    for n in range(3, 9):
        group = build_polygon_symmetry_group(n, axis_angle=0.3)
        D = representation_matrices(group)
        M, E = (X + X.T for X in rng.standard_normal((2, 2 * n, 2 * n)))
        averaged = sum(D @ M @ D.transpose(0, 2, 1)) / len(D)
        for H in (averaged, averaged + 1e-9 * E, E):
            full = float(np.max(np.abs(D @ H - H @ D)))
            bound = invariance_defect(H, group)
            worst = max(worst, full / (bound + 8 * eps * float(np.max(np.abs(H)))))
    return ("invariance defect bounds every element", worst <= 1.0,
            f"worst max |DH - HD| / bound {worst:.3f}")


def check_character_orthonormality():
    worst = 0.0
    for n in (3, 4, 5, 6):
        table = dihedral(n)
        gram = (table.characters * table.class_sizes) @ table.characters.T / (2 * n)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(table.names))))))
    return "character orthonormality", worst <= 1e-12, f"worst defect {worst:.3e}"


def check_wave_number_bases():
    """The wave-number bases W_k, k = 0..n/2, are together an orthonormal
    basis of R^{2n}, and W_k carries the characters of A1 + A2 at k = 0, of
    B1 + B2 at k = n/2 and of twice E_k otherwise: Tr(W_k^T D(g) W_k)."""
    worst = 0.0
    for n in range(3, 9):
        group = build_polygon_symmetry_group(n, axis_angle=0.3)
        rows = dict(zip(group.names, group.characters))
        reps = representation_matrices(group)[[cl[0] for cl in group.conjugacy_classes]]
        bases = [W[:, :d] for W, d in zip(wave_number_stack(group.vertices()), group.wave_dims)]
        V = np.column_stack(bases)
        worst = max(worst, float(np.max(np.abs(V.T @ V - np.eye(2 * n)))))
        for k, W in enumerate(bases):
            if k == 0:
                expected = rows["A1"] + rows["A2"]
            elif 2 * k == n:
                expected = rows["B1"] + rows["B2"]
            else:
                expected = 2.0 * rows[f"E{k}"]
            chi = np.array([np.trace(W.T @ D @ W) for D in reps])
            worst = max(worst, float(np.max(np.abs(chi - expected))))
    return "wave-number bases and their characters", worst <= 1e-12, \
        f"worst defect {worst:.3e}"


def check_wave_number_blocks():
    """On Hessians of random configurations averaged over the group, each
    h_k = W_k^T H W_k of the wave-number stack is the realification
    [[A, -B], [B, A]] of the 2x2 Hermitian K_k = A + iB, and W_k^T Jhat W_k
    is diag(J2, J2); where W_k has dimension 2, the sine half of both is
    zero.  The wave-number pairing and coupled blocks rest on these.  The
    detail is the worst defect, relative to max |H| for h_k."""
    rng = np.random.default_rng(16)
    spec = PRESET_POTENTIALS["manev"]
    worst = 0.0
    for n in range(3, 9):
        for angle in (0.0, 0.3):
            group = build_polygon_symmetry_group(n, axis_angle=angle)
            D = representation_matrices(group)
            H = potential_hessian(random_configuration(rng, n), spec)
            H = (D @ H @ D.transpose(0, 2, 1)).mean(axis=0)
            W = wave_number_stack(group.vertices())
            h = W.transpose(0, 2, 1) @ H @ W
            half = (group.wave_dims == 4)[:, None, None]
            A, B = h[:, :2, :2], h[:, 2:, :2]
            realified = np.block([[A, -B], [B, A * half]])
            Jw = W.transpose(0, 2, 1) @ block_symplectic(n) @ W
            zero = np.zeros_like(A)
            expected = np.block([[J2 + zero, zero], [zero, J2 * half]])
            worst = max(worst, float(np.max(np.abs(h - realified))) / float(np.max(np.abs(H))),
                        float(np.max(np.abs(Jw - expected))))
    return "wave-number blocks are realified 2x2 Hermitian", worst <= 1e-12, \
        f"worst defect {worst:.3e}"


def check_hamiltonian_symmetry():
    worst = 0.0
    for case in all_standard_cases():
        v = full_linearization_spectrum(Equilibrium(case.configuration(), case.potential))
        scale = max(float(np.max(np.abs(v))), 1e-300)
        for transform in (lambda s: -s, np.conj):
            worst = max(worst, compare_spectra(v, transform(v)).max_distance / scale)
    return "Hamiltonian spectral symmetry", worst <= 1e-9, f"worst rel {worst:.3e}"


def check_scaling_law():
    """Radius scaling rho multiplies every eigenvalue by rho^{-(a+2)/2}."""
    worst = 0.0
    for n, alpha, rho in ((3, 1.0, 1.7), (4, 1.4, 0.6), (5, 0.8, 2.3)):
        spec = PotentialSpec.homogeneous(alpha)
        base = full_linearization_spectrum(Equilibrium(regular_polygon(n), spec))
        scaled = full_linearization_spectrum(Equilibrium(regular_polygon(n, radius=rho), spec))
        predicted = base * rho ** (-(alpha + 2.0) / 2.0)
        scale = max(float(np.max(np.abs(predicted))), 1e-300)
        worst = max(worst, compare_spectra(predicted, scaled).max_distance / scale)
    return "radius scaling law", worst <= 1e-8, f"worst rel {worst:.3e}"


def check_block_closed_form(n_samples=1000):
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(n_samples):
        omega = rng.uniform(0.1, 10.0)
        lam1, lam2 = rng.uniform(-10.0, 10.0, size=2)
        closed = block_spectrum(omega, lam1, lam2)
        dense = np.linalg.eigvals(first_order_matrix(omega ** 2, omega, np.diag([lam1, lam2]), J2))
        scale = max(float(np.max(np.abs(dense))), 1e-300)
        worst = max(worst, compare_spectra(closed, dense).max_distance / scale)
    return "block closed form vs dense eigensolver", worst <= 1e-10, \
        f"worst rel {worst:.3e}"


ALL_CHECKS = (
    check_gradient_fd,
    check_hessian_fd,
    check_homomorphism,
    check_invariance_bound,
    check_character_orthonormality,
    check_wave_number_bases,
    check_wave_number_blocks,
    check_hamiltonian_symmetry,
    check_scaling_law,
    check_block_closed_form,
)


def run_selfcheck(fast=False):
    """Run the battery; returns (all_passed, [(name, ok, detail), ...])."""
    results = []
    for chk in ALL_CHECKS:
        if fast and chk in (check_gradient_fd, check_hessian_fd):
            results.append(chk(n_samples=10))
        elif fast and chk is check_block_closed_form:
            results.append(chk(n_samples=100))
        else:
            results.append(chk())
    return all(ok for _, ok, _ in results), results
