import numpy as np
import pytest

from relequil import central, model
from relequil.central import RefinementError, refine_central_configuration, regular_polygon
from relequil.model import (
    BodyConfiguration,
    CollisionError,
    PotentialSpec,
    is_central_configuration,
    potential_gradient,
    potential_hessian,
)

SQRT3 = np.sqrt(3.0)

# the benchmark's four potentials
BENCH_SPECS = {
    "r-1": PotentialSpec(((1.0, 1.0),)),
    "r-2.5": PotentialSpec(((1.0, 2.5),)),
    "manev": PotentialSpec.manev(),
    "schwarzschild": PotentialSpec.schwarzschild(),
}


def _reference_normalize(z, masses, theta_pin, inertia_pin):
    q = z.reshape(-1, 2).copy()
    q -= (masses @ q)[None, :] / masses.sum()
    if inertia_pin is not None:
        I = 0.5 * float(masses @ (q * q).sum(axis=1))
        q *= np.sqrt(inertia_pin / I)
    theta = np.arctan2(q[0, 1], q[0, 0])
    c, s = np.cos(theta_pin - theta), np.sin(theta_pin - theta)
    q = q @ np.array([[c, s], [-s, c]])
    return q.ravel()


def _reference_residual(positions, masses, spec):
    cfg = BodyConfiguration(masses, positions)
    report = is_central_configuration(cfg, spec)
    lam, g, F = report.multiplier, report.gradient, report.residual
    merit = np.linalg.norm(F) / (np.linalg.norm(g) + 1.0)
    return F, float(merit), cfg, lam


def _reference_refine(config, spec, max_iter=60, tol=1e-12, fix_inertia=None):
    """The refinement that one pass over the pairs per trial point replaced:
    a BodyConfiguration per trial point, the model functions on it, and a
    PotentialSpec per term for the Jacobian; returns (config, history)."""
    masses = np.asarray(config.masses, dtype=float)
    n = masses.size
    q0 = config.positions.reshape(-1, 2)
    theta_pin = float(np.arctan2(q0[0, 1], q0[0, 0]))
    z = _reference_normalize(config.positions.copy(), masses, theta_pin, fix_inertia)
    floor = 1e-6 * BodyConfiguration(masses, z).min_pair_distance()
    F, merit, cfg, lam = _reference_residual(z, masses, spec)
    history = [merit]
    for _ in range(max_iter):
        if merit <= tol:
            break
        H = potential_hessian(cfg, spec)
        Mz = cfg.mass_vector * z
        I = cfg.inertia
        grad_weighted = np.zeros(2 * n)
        for c, a in spec.terms:
            grad_weighted += a * potential_gradient(cfg, PotentialSpec(((c, a),)))
        grad_lam = grad_weighted / (2.0 * I) - lam * Mz / I
        J = H + lam * np.diag(cfg.mass_vector) + np.outer(Mz, grad_lam)
        gauge = central._gauge_basis(z, masses)
        P = np.eye(2 * n) - gauge @ gauge.T
        step = -P @ np.linalg.lstsq(J @ P, F, rcond=1e-12)[0]
        for _halving in range(40):
            z_new = _reference_normalize(z + step, masses, theta_pin, fix_inertia)
            try:
                trial = BodyConfiguration(masses, z_new)
            except CollisionError:
                step *= 0.5
                continue
            if trial.min_pair_distance() < floor:
                step *= 0.5
                continue
            F_new, merit_new, cfg_new, lam_new = _reference_residual(z_new, masses, spec)
            if merit_new < merit or merit_new <= tol:
                z, F, merit, cfg, lam = z_new, F_new, merit_new, cfg_new, lam_new
                history.append(merit)
                break
            step *= 0.5
        else:
            raise RefinementError("no progress")
    if merit > tol:
        raise RefinementError("not converged")
    return cfg, history


def _svd_gauge_basis(z, masses):
    """The gauge basis as an SVD of its four columns, rank cut at 1e-12."""
    n = masses.size
    tx = np.zeros(2 * n)
    tx[0::2] = masses
    ty = np.zeros(2 * n)
    ty[1::2] = masses
    rot = np.empty(2 * n)
    rot[0::2] = z[1::2]
    rot[1::2] = -z[0::2]
    U, S, _ = np.linalg.svd(np.column_stack([tx, ty, rot, z]), full_matrices=False)
    return U[:, S > 1e-12 * S[0]]


def _collinear_guesses():
    rng = np.random.default_rng(7)
    for n in range(3, 11):
        for name, spec in BENCH_SPECS.items():
            masses = rng.uniform(0.5, 2.0, n)
            guess = np.zeros(2 * n)
            guess[0::2] = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.2, 0.2, n) / (n - 1)
            yield pytest.param(BodyConfiguration(masses, guess), spec, id=f"n={n}-{name}")


class TestRegularPolygon:
    def test_triangle_positions(self):
        z = regular_polygon(3).positions
        expected = np.array([1.0, 0.0, -0.5, SQRT3 / 2.0, -0.5, -SQRT3 / 2.0])
        np.testing.assert_allclose(z, expected, atol=1e-15)

    def test_square_positions(self):
        z = regular_polygon(4).positions
        np.testing.assert_allclose(
            z, np.array([1.0, 0, 0, 1, -1, 0, 0, -1]), atol=1e-15
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_center_of_mass_at_origin(self, n):
        cfg = regular_polygon(n)
        com = cfg.masses @ cfg.points / cfg.masses.sum()
        assert np.max(np.abs(com)) <= 1e-16

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            regular_polygon(1)
        with pytest.raises(ValueError):
            regular_polygon(3, radius=-1.0)


class TestIsCentral:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_triangle_any_alpha(self, triangle, alpha):
        report = is_central_configuration(triangle, PotentialSpec.homogeneous(alpha))
        assert report.is_central
        assert report.residual_norm < 1e-12

    def test_square_schwarzschild(self, square):
        report = is_central_configuration(square, PotentialSpec.schwarzschild())
        assert report.is_central
        assert report.residual_norm < 1e-12

    def test_isosceles_not_central(self):
        cfg = BodyConfiguration(
            np.ones(3), np.array([0.0, 1.3, -1.0, 0.0, 1.0, 0.0])
        )
        report = is_central_configuration(cfg, PotentialSpec.homogeneous(1.0))
        assert not report.is_central

    def test_all_six_preset_cases(self, standard_cases):
        for case in standard_cases:
            report = is_central_configuration(case.configuration(), case.potential)
            assert report.residual_norm < 1e-12, case.name

    @pytest.mark.parametrize("central", [True, False], ids=["polygon", "isosceles"])
    def test_gradient_and_residual_are_kept_read_only(self, square, central):
        cfg = square if central else BodyConfiguration(
            np.ones(3), np.array([0.0, 1.3, -1.0, 0.0, 1.0, 0.0]))
        spec = PotentialSpec.manev()
        report = is_central_configuration(cfg, spec)
        assert report.is_central == central
        g, F = report.gradient, report.residual
        assert not g.flags.writeable and not F.flags.writeable
        assert np.array_equal(g, potential_gradient(cfg, spec))
        assert np.array_equal(F, g + report.multiplier * cfg.mass_vector * cfg.positions)
        assert report.residual_norm == float(np.linalg.norm(F))


class TestRefine:
    def test_perturbed_triangle_returns_to_polygon(self, rng, triangle):
        spec = PotentialSpec.homogeneous(1.0)
        noise = rng.standard_normal(6)
        noise *= 0.05 / np.linalg.norm(noise)
        start = triangle.with_positions(triangle.positions + noise)
        refined, history = refine_central_configuration(
            start, spec, fix_inertia=triangle.inertia,
            return_history=True,
        )
        assert is_central_configuration(refined, spec).is_central
        np.testing.assert_allclose(
            np.sort(refined.separations[1]), np.full(3, SQRT3), atol=1e-8
        )
        # merit never increases between accepted steps
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_exact_input_is_fixed_point(self, triangle):
        refined = refine_central_configuration(
            triangle, PotentialSpec.homogeneous(1.0)
        )
        np.testing.assert_allclose(
            refined.positions, triangle.positions, atol=1e-14
        )

    def test_collinear_guess_converges(self):
        spec = PotentialSpec.homogeneous(1.0)
        start = BodyConfiguration(
            np.ones(3), np.array([-1.1, 0.0, 0.05, 0.0, 1.2, 0.0])
        )
        refined = refine_central_configuration(start, spec)
        assert is_central_configuration(refined, spec).residual_norm < 1e-11

    def test_gauge_constraints_hold(self, rng, square):
        spec = PotentialSpec.manev()
        noise = rng.standard_normal(8)
        noise *= 0.03 / np.linalg.norm(noise)
        start = square.with_positions(square.positions + noise)
        target_inertia = square.inertia
        refined = refine_central_configuration(
            start, spec, fix_inertia=target_inertia
        )
        com = refined.masses @ refined.points / refined.masses.sum()
        assert np.max(np.abs(com)) <= 1e-14
        assert refined.inertia == pytest.approx(
            target_inertia, rel=1e-14
        )
        theta_start = np.arctan2(start.points[0, 1], start.points[0, 0])
        theta_out = np.arctan2(refined.points[0, 1], refined.points[0, 0])
        assert theta_out == pytest.approx(theta_start, abs=1e-13)

    def test_nonconvergence_raises(self, rng):
        # a single Newton step cannot reach tolerance
        spec = PotentialSpec.homogeneous(1.0)
        tri = regular_polygon(3)
        noise = rng.standard_normal(6)
        noise *= 0.05 / np.linalg.norm(noise)
        start = tri.with_positions(tri.positions + noise)
        with pytest.raises(RefinementError):
            refine_central_configuration(start, spec, max_iter=1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_polygons_refine_under_mixed_specs(self, rng, n):
        for spec in (PotentialSpec.homogeneous(1.4), PotentialSpec.manev(),
                     PotentialSpec.schwarzschild()):
            poly = regular_polygon(n)
            noise = rng.standard_normal(2 * n)
            noise *= 0.02 / np.linalg.norm(noise)
            start = poly.with_positions(poly.positions + noise)
            refined = refine_central_configuration(
                start, spec, fix_inertia=poly.inertia
            )
            assert is_central_configuration(refined, spec).is_central


def _perturbed_polygon(n):
    poly = regular_polygon(n)
    noise = np.random.default_rng(n).standard_normal(2 * n)
    return poly.with_positions(poly.positions + 0.03 * noise / np.linalg.norm(noise))


class TestGaugeBasis:
    @pytest.mark.parametrize("start", [param.values[0] for param in _collinear_guesses()]
                             + [_perturbed_polygon(n) for n in (3, 4, 5, 6, 8)])
    def test_projector_matches_the_svd(self, start):
        # at a mass-centred iterate the normalized columns are orthogonal
        # up to the centring's rounding, cosines of about n eps; the norms
        # and the SVD are accurate to a few 2n eps, so the two projectors
        # agree entrywise to 4 (2n) eps
        q0 = start.points
        z = central._normalize_gauges(start.positions.copy(), model.BodyPairs(start.masses),
                                      float(np.arctan2(q0[0, 1], q0[0, 0])), None)
        U = central._gauge_basis(z, start.masses)
        ref = _svd_gauge_basis(z, start.masses)
        assert U.shape == ref.shape == (z.size, 4)
        eye = np.eye(z.size)
        bound = 4 * z.size * np.finfo(float).eps
        assert np.max(np.abs((eye - U @ U.T) - (eye - ref @ ref.T))) <= bound


class TestRefineAgainstReference:
    def _assert_same(self, start, spec, **kwargs):
        ref, ref_history = _reference_refine(start, spec, **kwargs)
        got, history = refine_central_configuration(start, spec, return_history=True, **kwargs)
        assert got.positions.tobytes() == ref.positions.tobytes()
        assert history == ref_history
        return history

    @pytest.mark.parametrize("start,spec", _collinear_guesses())
    def test_collinear_guesses(self, start, spec):
        assert len(self._assert_same(start, spec)) > 2

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    @pytest.mark.parametrize("name", BENCH_SPECS)
    def test_perturbed_polygons_at_fixed_inertia(self, n, name):
        self._assert_same(_perturbed_polygon(n), BENCH_SPECS[name],
                          fix_inertia=regular_polygon(n).inertia)

    def test_one_pass_over_the_pairs_per_trial_point(self, monkeypatch):
        # one BodyPairs for the refinement, one separation pass per trial
        # point (the start included), none more for the Jacobian, and one
        # BodyConfiguration, the result; each Jacobian's Hessian comes from
        # model.potential_hessian, at the accepted point's separations.
        # Each trial point's residual makes one energy and one gradient pass;
        # a one-term Jacobian reuses the accepted point's gradient, a
        # two-term one makes a pass per term
        made, passes, trials, configs, hessians = [], [], [], [], []
        energies, gradients = [], []

        class CountedPairs(model.BodyPairs):
            def __init__(self, masses):
                super().__init__(masses)
                made.append(self)

            def separations(self, points):
                passes.append(self)
                return super().separations(points)

            def energy_terms(self, sep, terms):
                energies.append(terms)
                return super().energy_terms(sep, terms)

            def gradient(self, sep, terms):
                gradients.append(terms)
                return super().gradient(sep, terms)

        normalize = central._normalize_gauges

        def counted_normalize(*args):
            trials.append(args)
            return normalize(*args)

        def counted_config(*args):
            configs.append(args)
            return BodyConfiguration(*args)

        def counted_hessian(point, spec):
            hessians.append(point.separations)
            return potential_hessian(point, spec)

        monkeypatch.setattr(central, "BodyPairs", CountedPairs)
        monkeypatch.setattr(central, "potential_hessian", counted_hessian)
        monkeypatch.setattr(central, "_normalize_gauges", counted_normalize)
        monkeypatch.setattr(central, "BodyConfiguration", counted_config)
        guesses = [param.values for param in _collinear_guesses()]
        for start, spec in (guesses[0], guesses[2]):     # n = 3: r-1, manev
            for counted in (made, passes, trials, configs, hessians, energies, gradients):
                counted.clear()
            _, history = refine_central_configuration(start, spec, return_history=True)
            assert len(made) == 1 and len(configs) == 1
            assert len(trials) >= len(history) > 2
            assert passes == made * len(trials)
            assert len(hessians) == len(history) - 1
            jacobian_passes = 0 if len(spec.terms) == 1 else len(spec.terms)
            assert len(gradients) == len(energies) + jacobian_passes * len(hessians)
