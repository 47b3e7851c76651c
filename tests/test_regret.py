import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftcast.regret import (FAMILIES, OCOProblem, OCORun, check_bound,
                              make_problem, path_variation, project_ball,
                              report_rows, run_oco, run_sweep)

finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=64)


class TestProjection:
    def test_interior_point_untouched(self):
        theta = np.array([0.3, -0.4])
        out = project_ball(theta, 1.0)
        np.testing.assert_array_equal(out, theta)

    def test_exterior_point_lands_on_sphere(self):
        out = project_ball(np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    @given(arrays(np.float64, shape=st.integers(1, 6), elements=finite),
           st.floats(0.1, 10, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_radius_and_preserves_direction(self, theta, r):
        out = project_ball(theta, r)
        assert np.linalg.norm(out) <= r + 1e-9
        if np.linalg.norm(theta) > 1e-9:
            cross = np.outer(out, theta) - np.outer(theta, out)
            np.testing.assert_allclose(cross, 0.0, atol=1e-6)


class TestPathVariation:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        star = rng.standard_normal((15, 4))
        manual = sum(float(np.sqrt(np.sum((star[t + 1] - star[t]) ** 2)))
                     for t in range(14))
        assert path_variation(star) == pytest.approx(manual, abs=1e-12)

    def test_constant_path_has_zero_variation(self):
        assert path_variation(np.tile([1.0, 2.0], (9, 1))) == 0.0

    def test_stock_family_values(self):
        assert path_variation(make_problem("static", 0).theta_star) == 0.0
        assert path_variation(make_problem("piecewise", 0).theta_star) \
            == pytest.approx(3.0, abs=1e-12)


class TestGeometricFamily:
    def test_regret_matches_geometric_series(self):
        run = run_oco(make_problem("geometric", 2025))
        T = run.T
        closed = (1.0 - 0.25 ** T) / 0.75
        assert run.R_d == pytest.approx(closed, abs=1e-12)

    def test_trajectory_halves_exactly(self):
        run = run_oco(make_problem("geometric", 7))
        np.testing.assert_allclose(run.trajectory[:, 0],
                                   0.5 ** np.arange(run.T), atol=1e-15)

    def test_deterministic_gradients_have_no_bias_or_variance(self):
        run = run_oco(make_problem("geometric", 123))
        assert run.b_hat <= 1e-12
        assert run.lambda_hat <= 1e-12

    @pytest.mark.parametrize("T, R_d, bound, passed", [
        (1, 1.0, 0.5, False), (2, 1.25, 1.0, False), (3, 1.3125, 1.5, True)])
    def test_bound_has_no_start_distance_term(self, T, R_d, bound, passed):
        # B lacks a ||theta_0 - theta*_1|| term, so the shortest runs fail;
        # a B that gains one should flip T=1 and T=2 to passing on purpose
        run = run_oco(make_problem("geometric", 2025, T=T))
        assert (run.R_d, run.bound) == (R_d, bound)
        assert check_bound(run).passed is passed

    def test_bound_formula_recomposes(self):
        for family in FAMILIES:
            run = run_oco(make_problem(family, 9))
            expect = (run.T * run.r * run.b_hat ** 2
                      + (run.r / run.gamma) * run.V
                      + run.T * run.gamma * (run.G_hat + run.lambda_hat) / 2.0)
            assert run.bound == pytest.approx(expect, rel=1e-12)


class TestStochasticFamilies:
    @pytest.mark.parametrize("family", ["static", "piecewise"])
    def test_bound_holds(self, family):
        for seed in (2025, 2026, 2027):
            run = run_oco(make_problem(family, seed))
            assert check_bound(run).passed, (family, seed)

    def test_static_family_converges_toward_target(self):
        run = run_oco(make_problem("static", 2025))
        target = np.array([1.0, -0.5])
        far = np.linalg.norm(run.trajectory[0] - target)
        near = np.linalg.norm(run.trajectory[-1] - target)
        assert near < 0.25 * far

    def test_same_seed_reproduces_run(self):
        a = run_oco(make_problem("piecewise", 77))
        b = run_oco(make_problem("piecewise", 77))
        np.testing.assert_array_equal(a.trajectory, b.trajectory)
        assert (a.R_d, a.b_hat, a.lambda_hat, a.G_hat) \
            == (b.R_d, b.b_hat, b.lambda_hat, b.G_hat)

    def test_different_seeds_differ(self):
        a = run_oco(make_problem("static", 1))
        b = run_oco(make_problem("static", 2))
        assert a.R_d != b.R_d


class TestCheckBound:
    def test_adversarial_comparator_fails_cleanly(self):
        run = run_oco(make_problem("geometric", 5))
        rigged = OCORun(family=run.family, seed=run.seed, T=run.T,
                        gamma=run.gamma, r=run.r, trajectory=run.trajectory,
                        R_d=run.R_d, V=run.V, b_hat=run.b_hat,
                        lambda_hat=run.lambda_hat, G_hat=run.G_hat,
                        bound=run.R_d * 0.5)
        assert not check_bound(rigged).passed
        assert check_bound(run).passed


class TestProblemValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_problem("convexish", 0)

    @pytest.mark.parametrize("family, T", [(f, 0) for f in FAMILIES] + [
        ("geometric", -1), ("piecewise", 1), ("piecewise", 2), ("piecewise", 3)])
    def test_horizon_too_short_rejected(self, family, T):
        # T=0 gave a run whose bound of 0 passes trivially; piecewise with
        # T < 4 divided by a zero segment length
        with pytest.raises(ValueError, match=f"{family}.*T={T}"):
            make_problem(family, 0, T=T)

    @pytest.mark.parametrize("family, T", [("geometric", 1), ("static", 1),
                                           ("piecewise", 4)])
    def test_shortest_horizon_runs(self, family, T):
        run = run_oco(make_problem(family, 0, T=T, mc_draws=20))
        assert run.trajectory.shape == (T, run.trajectory.shape[1])
        assert np.isfinite(run.bound)

    def test_comparator_must_stay_in_ball(self):
        with pytest.raises(ValueError, match="ball"):
            OCOProblem(family="x", dim=1, T=3, r=1.0, gamma=0.1,
                       theta0=np.zeros(1), theta_star=np.full((3, 1), 5.0),
                       x_mode="gaussian", noise_std=0.0, seed=0)

    def test_fixed_mode_needs_x(self):
        with pytest.raises(ValueError, match="x_fixed"):
            OCOProblem(family="x", dim=1, T=3, r=1.0, gamma=0.1,
                       theta0=np.zeros(1), theta_star=np.zeros((3, 1)),
                       x_mode="fixed", noise_std=0.0, seed=0)

    def test_start_must_stay_in_ball(self):
        p = make_problem("geometric", 0)
        p.theta0 = np.array([9.0])
        with pytest.raises(ValueError, match="theta0"):
            run_oco(p)


class TestSweepAndReport:
    def test_sweep_covers_families_times_seeds(self):
        runs = run_sweep(seeds=2, base_seed=100)
        assert len(runs) == 6
        assert [(r.family, r.seed) for r in runs[:2]] \
            == [("geometric", 100), ("geometric", 101)]

    def test_report_layout_and_roundtrip(self):
        runs = run_sweep(families=("geometric",), seeds=2)
        rows = report_rows(runs)
        assert rows[0] == ("family,seed,T,gamma,R_d,V,b_hat,lambda_hat,"
                           "G_hat,bound,pass")
        cells = rows[1].split(",")
        assert cells[0] == "geometric" and cells[-1] == "1"
        assert float(cells[4]) == runs[0].R_d  # repr round-trips exactly
        assert float(cells[9]) == runs[0].bound
