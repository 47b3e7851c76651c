import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import reduction_inputs, same_bytes
from driftcast.regret import (FAMILIES, OCOProblem, OCORun, _draw_x, _row_sq_norms,
                              _true_grad, check_bound, make_problem, path_variation,
                              project_ball, report_rows, run_oco, run_sweep)

finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=64)


def run_oco_reference(problem: OCOProblem) -> OCORun:
    """run_oco by the estimators its one-pass step replaces: np.mean,
    np.linalg.norm and np.sum over each row, and xs @ err taken twice."""
    T, M = problem.T, problem.mc_draws
    root = np.random.SeedSequence(problem.seed)
    run_ss, mc_ss = root.spawn(2)
    rng_run = np.random.default_rng(run_ss)
    mc_children = mc_ss.spawn(T)
    theta = problem.theta0.copy()
    trajectory = np.empty((T, problem.dim))
    regret = b_hat = lambda_hat = g_hat = 0.0
    for t in range(T):
        trajectory[t] = theta
        rng_mc = np.random.default_rng(mc_children[t])
        xs = _draw_x(problem, rng_mc, M)
        err = theta - problem.theta_star[t]
        regret += float(np.mean((xs @ err) ** 2))
        noises = problem.noise_std * rng_mc.standard_normal(M)
        etas = 2.0 * ((xs @ err) - noises)[:, None] * xs
        g_true = _true_grad(problem, theta, t)
        b_hat = max(b_hat, float(np.mean(np.linalg.norm(etas - g_true, axis=1))))
        centered = etas - etas.mean(axis=0)
        lambda_hat = max(lambda_hat, float(np.mean(np.sum(centered ** 2, axis=1))))
        g_hat = max(g_hat, float(g_true @ g_true),
                    float(np.mean(np.sum(etas ** 2, axis=1))))
        x_run = _draw_x(problem, rng_run, 1)[0]
        noise_run = problem.noise_std * rng_run.standard_normal()
        eta = 2.0 * (float(x_run @ err) - noise_run) * x_run
        theta = project_ball(theta - problem.gamma * eta, problem.r)
    V = path_variation(problem.theta_star)
    bound = (T * problem.r * b_hat ** 2 + (problem.r / problem.gamma) * V
             + T * problem.gamma * (g_hat + lambda_hat) / 2.0)
    return OCORun(family=problem.family, seed=problem.seed, T=T,
                  gamma=problem.gamma, r=problem.r, trajectory=trajectory,
                  R_d=regret, V=V, b_hat=b_hat, lambda_hat=lambda_hat,
                  G_hat=g_hat, bound=bound)


@st.composite
def oco_problems(draw):
    """A stock family at stock size (one draw in eight, as it is slow), or a
    direct problem: dim 1-4, Gaussian or fixed x, T 1-30, 1-64 draws a step,
    with or without noise."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.integers(0, 7)) == 0:
        return make_problem(draw(st.sampled_from(FAMILIES)), seed)
    dim, T = draw(st.integers(1, 4)), draw(st.integers(1, 30))
    r = draw(st.floats(0.1, 5.0))
    rng = np.random.default_rng(seed)
    inside = r / np.sqrt(dim)                 # a cube that fits in the ball
    fixed = draw(st.booleans())
    return OCOProblem(family="direct", dim=dim, T=T, r=r,
                      gamma=draw(st.floats(0.01, 1.0)),
                      theta0=rng.uniform(-inside, inside, dim),
                      theta_star=rng.uniform(-inside, inside, (T, dim)),
                      seed=seed, x_fixed=rng.standard_normal(dim) if fixed else None,
                      noise_std=draw(st.sampled_from([0.0, 0.05, 1.0])),
                      mc_draws=draw(st.integers(1, 64)))


class TestOnePassStep:
    @given(oco_problems())
    @settings(max_examples=200, deadline=None)
    def test_every_field_and_row_equals_reference(self, problem):
        run, want = run_oco(problem), run_oco_reference(problem)
        for field in dataclasses.fields(OCORun):
            a, b = getattr(run, field.name), getattr(want, field.name)
            assert type(a) is type(b) and same_bytes(a, b), field.name
        assert report_rows([run]) == report_rows([want])

    @given(reduction_inputs(cols=st.integers(1, 6)))
    @settings(max_examples=120, deadline=None)
    def test_row_sq_norms_bytes_equal_reduce(self, a):
        assert same_bytes(_row_sq_norms(a), np.add.reduce(a * a, axis=1))


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
                       noise_std=0.0, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("gamma", 0.0), ("gamma", -0.1), ("gamma", np.inf), ("gamma", np.nan),
        ("r", 0.0), ("r", -1.0), ("r", np.inf), ("r", np.nan),
        ("noise_std", -0.1), ("noise_std", np.inf), ("noise_std", np.nan),
        ("mc_draws", 0), ("mc_draws", -1), ("T", 0), ("dim", 0)])
    def test_bad_setting_rejected_by_name(self, field, value):
        # gamma=0 raised ZeroDivisionError after the whole run, gamma<0 ran
        # gradient ascent and passed check_bound, mc_draws=0 gave R_d=nan,
        # and T=0 or dim=0 passed with a bound of 0
        kw = dict(family="x", dim=2, T=3, r=1.0, gamma=0.1,
                  noise_std=0.1, seed=0, mc_draws=10)
        kw[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            OCOProblem(theta0=np.zeros(kw["dim"]),
                       theta_star=np.zeros((kw["T"], kw["dim"])), **kw)

    @pytest.mark.parametrize("field, length", [("theta0", 1), ("theta0", 3),
                                               ("x_fixed", 1), ("x_fixed", 3)])
    def test_vector_of_wrong_length_rejected_by_name(self, field, length):
        # a length-1 vector was broadcast into every coordinate and ran; other
        # lengths failed inside run_oco with a message naming no field
        kw = dict(family="x", dim=2, T=3, r=1.0, gamma=0.1, theta0=np.zeros(2),
                  theta_star=np.zeros((3, 2)),
                  x_fixed=np.ones(2), noise_std=0.0, seed=0, mc_draws=10)
        kw[field] = np.zeros(length)
        with pytest.raises(ValueError,
                           match=f"^{field} must have length dim=2, got {length}$"):
            OCOProblem(**kw)

    def test_replaced_start_of_wrong_length_rejected(self):
        # static T=8 gave R_d = 11.28 with the one value broadcast
        with pytest.raises(ValueError, match="^theta0 must have length dim=2"):
            dataclasses.replace(make_problem("static", 3, T=8), theta0=np.zeros(1))

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

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_sweep_without_seeds_rejected(self, seeds):
        # it returned [] silently
        with pytest.raises(ValueError, match="seeds must be >= 1"):
            run_sweep(seeds=seeds)

    def test_report_layout_and_roundtrip(self):
        runs = run_sweep(families=("geometric",), seeds=2)
        rows = report_rows(runs)
        assert rows[0] == ("family,seed,T,gamma,R_d,V,b_hat,lambda_hat,"
                           "G_hat,bound,pass")
        cells = rows[1].split(",")
        assert cells[0] == "geometric" and cells[-1] == "1"
        assert float(cells[4]) == runs[0].R_d  # repr round-trips exactly
        assert float(cells[9]) == runs[0].bound
