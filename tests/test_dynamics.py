import numpy as np
import pytest

from relequil.central import regular_polygon
from relequil.dynamics import estimate_growth_rate, integrate_rotating_frame
from relequil.model import Equilibrium, PotentialSpec
from relequil.pipeline import _worst_direction
from relequil.spectrum import full_linearization_spectrum


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
