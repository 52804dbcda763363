import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_safe_configuration
from relequil.model import (
    BodyConfiguration,
    BodyPairs,
    CollisionError,
    NonCentralConfigurationError,
    PotentialSpec,
    angular_frequency_squared,
    potential_energy,
    potential_energy_terms,
    potential_gradient,
    potential_hessian,
)
from relequil.central import regular_polygon

SQRT3 = np.sqrt(3.0)


class TestBodyConfiguration:
    def test_rejects_collision(self):
        with pytest.raises(CollisionError) as err:
            BodyConfiguration(np.ones(3), np.array([0.0, 0, 1, 1, 0, 0]))
        assert err.value.pair == (0, 2)
        # two colliding pairs, (0, 3) and (1, 2): the first in i < j order
        with pytest.raises(CollisionError) as err:
            BodyConfiguration(np.ones(4), np.array([0.0, 0, 1, 0, 1, 0, 0, 0]))
        assert err.value.pair == (0, 3)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            BodyConfiguration(np.array([1.0, -1.0]), np.array([0.0, 0, 1, 0]))

    @pytest.mark.parametrize("field", ["masses", "positions"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, field, bad):
        # named before any RuntimeWarning or a later "not central: residual nan"
        args = {"masses": np.ones(2), "positions": np.array([0.0, 0, 1, 0])}
        args[field][-1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            BodyConfiguration(**args)

    def test_immutable(self, triangle):
        with pytest.raises(ValueError):
            triangle.positions[0] = 5.0


class TestPotentialSpec:
    def test_presets(self):
        assert PotentialSpec.homogeneous(1.0).terms == ((1.0, 1.0),)
        assert PotentialSpec.manev().terms == ((1.0, 1.0), (1.0, 2.0))
        assert PotentialSpec.schwarzschild().terms == ((1.0, 1.0), (1.0, 3.0))

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            PotentialSpec(())
        with pytest.raises(ValueError):
            PotentialSpec(((1.0, 2.0), (1.0, 1.0)))  # not increasing
        with pytest.raises(ValueError):
            PotentialSpec(((-1.0, 1.0),))

    @pytest.mark.parametrize("terms", [((np.nan, 1.0),), ((1.0, np.inf),),
                                       ((1.0, 1.0), (1.0, np.nan))])
    def test_rejects_non_finite_terms(self, terms):
        with pytest.raises(ValueError, match="coefficients and exponents must be finite"):
            PotentialSpec(terms)


class TestMomentOfInertia:
    def test_triangle(self, triangle):
        assert triangle.inertia == pytest.approx(1.5, abs=1e-15)

    def test_square(self, square):
        assert square.inertia == pytest.approx(2.0, abs=1e-15)

    @given(s=st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_scales_quadratically(self, s):
        cfg = regular_polygon(3)
        assert cfg.scaled(s).inertia == pytest.approx(
            s * s * cfg.inertia, rel=1e-12
        )


class TestPotentialEnergy:
    def test_triangle_newtonian(self, triangle):
        # all three distances are sqrt(3)
        assert potential_energy(
            triangle, PotentialSpec.homogeneous(1.0)
        ) == pytest.approx(SQRT3, rel=1e-15)

    def test_square_newtonian(self, square):
        # four sides sqrt(2), two diagonals 2
        assert potential_energy(
            square, PotentialSpec.homogeneous(1.0)
        ) == pytest.approx(2.0 * np.sqrt(2.0) + 1.0, rel=1e-15)

    def test_linear_in_coefficients(self, rng, any_spec):
        cfg = random_safe_configuration(rng)
        doubled = PotentialSpec(tuple((2 * c, a) for c, a in any_spec.terms))
        assert potential_energy(cfg, doubled) == pytest.approx(
            2.0 * potential_energy(cfg, any_spec), rel=1e-14
        )

    @given(s=st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity_per_term(self, s):
        cfg = regular_polygon(4)
        spec = PotentialSpec.manev()
        base = potential_energy_terms(cfg, spec)
        scaled = potential_energy_terms(cfg.scaled(s), spec)
        for (c, a), u0, u1 in zip(spec.terms, base, scaled):
            assert u1 == pytest.approx(s ** (-a) * u0, rel=1e-12)


def _finite_difference_gradient(cfg, spec, h=1e-5):
    g = np.empty(2 * cfg.n)
    for k in range(g.size):
        e = np.zeros(g.size)
        e[k] = h
        up = potential_energy(cfg.with_positions(cfg.positions + e), spec)
        dn = potential_energy(cfg.with_positions(cfg.positions - e), spec)
        up2 = potential_energy(cfg.with_positions(cfg.positions + 2 * e), spec)
        dn2 = potential_energy(cfg.with_positions(cfg.positions - 2 * e), spec)
        g[k] = (8.0 * (up - dn) - (up2 - dn2)) / (12.0 * h)
    return g


class TestGradient:
    def test_triangle_is_central(self, triangle):
        # gradient is -omega^2 * (mass-weighted positions) at the equilibrium
        g = potential_gradient(triangle, PotentialSpec.homogeneous(1.0))
        np.testing.assert_allclose(
            g, -(3.0 ** -0.5) * triangle.positions, atol=1e-14
        )

    def test_two_body_antisymmetry(self):
        cfg = BodyConfiguration(np.ones(2), np.array([0.7, 0.2, -0.7, -0.2]))
        g = potential_gradient(cfg, PotentialSpec.manev())
        np.testing.assert_allclose(g[:2], -g[2:], atol=1e-15)

    def test_matches_finite_differences(self, rng, any_spec):
        for _ in range(10):
            cfg = random_safe_configuration(rng)
            g = potential_gradient(cfg, any_spec)
            fd = _finite_difference_gradient(cfg, any_spec)
            assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(g))

    def test_rotational_equivariance(self, rng, any_spec):
        cfg = random_safe_configuration(rng)
        theta = 0.83
        g = potential_gradient(cfg, any_spec)
        g_rot = potential_gradient(cfg.rotated(theta), any_spec)
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        expected = (g.reshape(-1, 2) @ R.T).ravel()
        np.testing.assert_allclose(g_rot, expected, atol=1e-12)
        assert potential_energy(cfg.rotated(theta), any_spec) == pytest.approx(
            potential_energy(cfg, any_spec), rel=1e-12
        )

    def test_euler_identity_single_term(self, rng):
        for alpha in (0.7, 1.0, 2.5):
            spec = PotentialSpec.homogeneous(alpha)
            cfg = random_safe_configuration(rng)
            zdotg = float(cfg.positions @ potential_gradient(cfg, spec))
            assert zdotg == pytest.approx(
                -alpha * potential_energy(cfg, spec), rel=1e-12
            )


class TestBodyPairs:
    def test_pair_indices_are_the_upper_triangle(self):
        for n in range(2, 41):
            pairs = BodyPairs(np.ones(n))
            for got, want in zip((pairs.iu, pairs.ju), np.triu_indices(n, 1)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


class TestHessian:
    def test_symmetric(self, rng, any_spec):
        cfg = random_safe_configuration(rng)
        H = potential_hessian(cfg, any_spec)
        np.testing.assert_allclose(H, H.T, atol=1e-15)

    def test_matches_finite_differences(self, rng, any_spec):
        for _ in range(5):
            cfg = random_safe_configuration(rng)
            H = potential_hessian(cfg, any_spec)
            h = 1e-5
            fd = np.empty_like(H)
            for k in range(H.shape[0]):
                e = np.zeros(H.shape[0])
                e[k] = h
                gp = potential_gradient(cfg.with_positions(cfg.positions + e), any_spec)
                gm = potential_gradient(cfg.with_positions(cfg.positions - e), any_spec)
                fd[:, k] = (gp - gm) / (2.0 * h)
            assert np.max(np.abs(H - fd)) <= 1e-5 * np.max(np.abs(H))

    def test_translation_invariance(self, rng, any_spec):
        cfg = random_safe_configuration(rng, n=5)
        H = potential_hessian(cfg, any_spec)
        tx = np.zeros(10)
        tx[0::2] = 1.0
        ty = np.zeros(10)
        ty[1::2] = 1.0
        assert np.max(np.abs(H @ tx)) <= 1e-12
        assert np.max(np.abs(H @ ty)) <= 1e-12

    def test_triangle_entry_closed_form(self, triangle):
        # FD-verified closed form; the commonly printed (3+2a) variant only
        # agrees at a=1
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            H = potential_hessian(triangle, PotentialSpec.homogeneous(alpha))
            expected = 3.0 ** (-alpha / 2.0) * alpha * (2.0 + 3.0 * alpha) / 6.0
            assert H[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_manev_triangle_entry(self, triangle):
        H = potential_hessian(triangle, PotentialSpec.manev())
        assert H[0, 0] == pytest.approx((16.0 + 5.0 * SQRT3) / 18.0, abs=1e-14)

    def test_schwarzschild_triangle_zero_entry(self, triangle):
        H = potential_hessian(triangle, PotentialSpec.schwarzschild())
        assert abs(H[1, 1]) <= 1e-14


class TestAngularFrequency:
    def test_triangle_homogeneous(self, triangle):
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            w2 = angular_frequency_squared(
                triangle, PotentialSpec.homogeneous(alpha)
            )
            assert w2 == pytest.approx(3.0 ** (-alpha / 2.0) * alpha, rel=1e-14)

    def test_square_homogeneous(self, square):
        for alpha in (0.5, 1.0, 2.0):
            w2 = angular_frequency_squared(square, PotentialSpec.homogeneous(alpha))
            expected = (2.0 ** (-1 - alpha) + 2.0 ** (-alpha / 2.0)) * alpha
            assert w2 == pytest.approx(expected, rel=1e-14)

    def test_manev_triangle(self, triangle):
        w2 = angular_frequency_squared(triangle, PotentialSpec.manev())
        assert w2 == pytest.approx(2.0 / 3.0 + 1.0 / SQRT3, rel=1e-14)

    def test_manev_square_euler_value(self, square):
        # the Euler value zeroes the centrality residual; the often-quoted
        # triangle-like value does not
        spec = PotentialSpec.manev()
        w2 = angular_frequency_squared(square, spec)
        assert w2 == pytest.approx((3.0 + np.sqrt(2.0)) / 2.0, rel=1e-14)
        g = potential_gradient(square, spec)
        residual = np.linalg.norm(g + w2 * square.mass_vector * square.positions)
        assert residual <= 1e-12

    def test_rejects_noncentral(self, rng):
        cfg = random_safe_configuration(rng)
        with pytest.raises(NonCentralConfigurationError):
            angular_frequency_squared(cfg, PotentialSpec.homogeneous(1.0))
