"""Empirical dynamic-regret bound verifier for noisy projected OGD.

Convex instances only: squared error of a linear model f(x|theta) = theta.x
with an analytically known optimal path theta*_t. The iterate follows
theta_{t+1} = proj_r(theta_t - gamma * eta_t) with eta_t a single-sample
gradient; the run measures

    R_d     sum over t of E[(f(x|theta*_t) - f(x|theta_t))^2]
    V       sum of ||theta*_t - theta*_{t+1}||_2
    b_hat   max over t of E||true_grad_t - eta_t||        (deviation norm)
    l_hat   max over t of tr(cov(eta_t))
    G_hat   max over t of max(||true_grad_t||^2, E||eta_t||^2)

and checks R_d <= B with B = T*r*b_hat^2 + (r/gamma)*V + T*gamma*(G_hat+l_hat)/2.

B has no term for the start distance ||theta_0 - theta*_1||, and the regret
of the first steps is made of it. So the stock geometric family fails the
check at T=1 (R_d 1.0 against B 0.5) and T=2 (1.25 against 1.0) and passes
from T=3 on; its stock run has T=40. B is kept as written until the theorem
it comes from can be checked.

Expectations are Monte Carlo with M fixed-sub-seed draws per step; maxima
over visited iterates stand in for suprema. Instances with a fixed input
and no noise make every estimator exact (the closed-form check relies on
that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

FAMILIES = ("geometric", "static", "piecewise")


@dataclass
class OCOProblem:
    family: str
    dim: int
    T: int
    r: float
    gamma: float
    theta0: np.ndarray
    theta_star: np.ndarray          # T x dim optimal path
    noise_std: float
    seed: int
    x_fixed: Optional[np.ndarray] = None    # every input if given, else N(0, I) draws
    mc_draws: int = 1000

    def __post_init__(self) -> None:
        for name, ok, need in (
                ("dim", self.dim >= 1, ">= 1"), ("T", self.T >= 1, ">= 1"),
                ("mc_draws", self.mc_draws >= 1, ">= 1"),
                ("r", 0 < self.r < np.inf, "> 0 and finite"),
                ("gamma", 0 < self.gamma < np.inf, "> 0 and finite"),
                ("noise_std", 0 <= self.noise_std < np.inf, ">= 0 and finite")):
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)!r}")
        self.theta0 = np.asarray(self.theta0, dtype=np.float64).reshape(-1)
        self.theta_star = np.asarray(self.theta_star, dtype=np.float64)
        if self.theta_star.shape != (self.T, self.dim):
            raise ValueError(f"theta_star shape {self.theta_star.shape} != (T, dim)")
        if self.x_fixed is not None:
            self.x_fixed = np.asarray(self.x_fixed, dtype=np.float64).reshape(-1)
        vectors = ("theta0",) if self.x_fixed is None else ("theta0", "x_fixed")
        for name in vectors:
            got = len(getattr(self, name))
            if got != self.dim:
                raise ValueError(f"{name} must have length dim={self.dim}, got {got}")
        norms = np.linalg.norm(self.theta_star, axis=1)
        if np.any(norms > self.r + 1e-12):
            raise ValueError("optimal path leaves the radius-r ball")


@dataclass
class OCORun:
    family: str
    seed: int
    T: int
    gamma: float
    r: float
    trajectory: np.ndarray
    R_d: float
    V: float
    b_hat: float
    lambda_hat: float
    G_hat: float
    bound: float


@dataclass
class BoundReport:
    passed: bool


def project_ball(theta: np.ndarray, r: float) -> np.ndarray:
    norm = np.linalg.norm(theta)
    if norm > r:
        return theta * (r / norm)
    return theta


def path_variation(theta_star: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(theta_star, axis=0), axis=1)))


def _draw_x(problem: OCOProblem, rng: np.random.Generator, m: int) -> np.ndarray:
    if problem.x_fixed is None:
        return rng.standard_normal((m, problem.dim))
    return np.tile(problem.x_fixed, (m, 1))


def _true_grad(problem: OCOProblem, theta: np.ndarray, t: int) -> np.ndarray:
    """Gradient of the expected loss: 2 * E[x x^T] (theta - theta*_t)."""
    err = theta - problem.theta_star[t]
    if problem.x_fixed is None:
        return 2.0 * err                    # E[x x^T] = I for standard normal
    x0 = problem.x_fixed
    return 2.0 * x0 * float(x0 @ err)


def _row_sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norm of each row, byte-equal to np.add.reduce(a * a, axis=1).

    For one or two columns the squared columns are added directly, the order
    in which that reduce adds them, at a fraction of its per-call cost; wider
    rows keep the reduce.
    """
    if a.shape[1] == 1:
        return a[:, 0] * a[:, 0]
    if a.shape[1] == 2:
        return a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1]
    return np.add.reduce(a * a, axis=1)


def run_oco(problem: OCOProblem) -> OCORun:
    """Projected noisy-gradient descent with per-step Monte Carlo estimates."""
    T, M = problem.T, problem.mc_draws
    root = np.random.SeedSequence(problem.seed)
    run_ss, mc_ss = root.spawn(2)
    rng_run = np.random.default_rng(run_ss)
    mc_children = mc_ss.spawn(T)
    theta = problem.theta0.copy()
    if np.linalg.norm(theta) > problem.r + 1e-12:
        raise ValueError("theta0 outside the radius-r ball")
    trajectory = np.empty((T, problem.dim))
    regret = 0.0
    b_hat = 0.0
    lambda_hat = 0.0
    g_hat = 0.0
    for t in range(T):
        trajectory[t] = theta
        rng_mc = np.random.default_rng(mc_children[t])
        xs = _draw_x(problem, rng_mc, M)
        err = theta - problem.theta_star[t]
        xe = xs @ err
        regret += float(np.add.reduce(xe * xe) / M)
        noises = problem.noise_std * rng_mc.standard_normal(M)
        etas = 2.0 * (xe - noises)[:, None] * xs
        g_true = _true_grad(problem, theta, t)
        dev = np.sqrt(_row_sq_norms(etas - g_true))
        b_hat = max(b_hat, float(np.add.reduce(dev) / M))
        centered = etas - np.add.reduce(etas, axis=0) / M
        lambda_hat = max(lambda_hat,
                         float(np.add.reduce(_row_sq_norms(centered)) / M))
        g_hat = max(g_hat, float(g_true @ g_true),
                    float(np.add.reduce(_row_sq_norms(etas)) / M))
        # the deployed update uses its own single sample
        x_run = _draw_x(problem, rng_run, 1)[0]
        noise_run = problem.noise_std * rng_run.standard_normal()
        eta = 2.0 * (float(x_run @ err) - noise_run) * x_run
        if not np.isfinite(eta).all():
            raise FloatingPointError("non-finite gradient in OCO run")
        theta = project_ball(theta - problem.gamma * eta, problem.r)
    V = path_variation(problem.theta_star)
    bound = (T * problem.r * b_hat ** 2 + (problem.r / problem.gamma) * V
             + T * problem.gamma * (g_hat + lambda_hat) / 2.0)
    return OCORun(family=problem.family, seed=problem.seed, T=T,
                  gamma=problem.gamma, r=problem.r, trajectory=trajectory,
                  R_d=regret, V=V, b_hat=b_hat, lambda_hat=lambda_hat,
                  G_hat=g_hat, bound=bound)


def check_bound(run: OCORun) -> BoundReport:
    """Pass iff the measured dynamic regret sits below the bound value."""
    return BoundReport(passed=bool(run.R_d <= run.bound))


def make_problem(family: str, seed: int, T: Optional[int] = None,
                 mc_draws: int = 1000) -> OCOProblem:
    """The three stock convex families of the verification sweep.

    geometric: scalar, fixed x = 1, no noise, theta* = 0; the iterate halves
      each step, so R_d is an exact geometric series.
    static: dim 2, Gaussian inputs, observation noise, constant theta* (V=0).
    piecewise: dim 2, Gaussian inputs, theta* jumps between two points three
      times, so V counts exactly J * jump_size; it needs T >= 4 for its four
      segments.
    """
    min_T = 4 if family == "piecewise" else 1
    if family in FAMILIES and T is not None and T < min_T:
        raise ValueError(f"family {family!r} needs T >= {min_T}, got T={T}")
    if family == "geometric":
        T = 40 if T is None else T
        return OCOProblem(family=family, dim=1, T=T, r=1.0, gamma=0.25,
                          theta0=np.array([1.0]),
                          theta_star=np.zeros((T, 1)),
                          x_fixed=np.array([1.0]), noise_std=0.0, seed=seed,
                          mc_draws=mc_draws)
    if family == "static":
        T = 200 if T is None else T
        star = np.tile(np.array([1.0, -0.5]), (T, 1))
        return OCOProblem(family=family, dim=2, T=T, r=2.0, gamma=0.05,
                          theta0=np.zeros(2), theta_star=star,
                          noise_std=0.1, seed=seed,
                          mc_draws=mc_draws)
    if family == "piecewise":
        T = 200 if T is None else T
        star = np.empty((T, 2))
        a = np.array([0.5, 0.0])
        seg = T // 4
        for t in range(T):
            flips = min(t // seg, 3)
            star[t] = a if flips % 2 == 0 else -a
        return OCOProblem(family=family, dim=2, T=T, r=1.0, gamma=0.1,
                          theta0=np.zeros(2), theta_star=star,
                          noise_std=0.05, seed=seed,
                          mc_draws=mc_draws)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def run_sweep(families: Tuple[str, ...] = FAMILIES, seeds: int = 20,
              base_seed: int = 2025) -> List[OCORun]:
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    runs = []
    for family in families:
        for i in range(seeds):
            runs.append(run_oco(make_problem(family, base_seed + i)))
    return runs


REPORT_HEADER = "family,seed,T,gamma,R_d,V,b_hat,lambda_hat,G_hat,bound,pass"


def report_rows(runs: List[OCORun]) -> List[str]:
    rows = [REPORT_HEADER]
    for run in runs:
        rep = check_bound(run)
        rows.append(",".join([
            run.family, str(run.seed), str(run.T), repr(float(run.gamma)),
            repr(float(run.R_d)), repr(float(run.V)), repr(float(run.b_hat)),
            repr(float(run.lambda_hat)), repr(float(run.G_hat)),
            repr(float(run.bound)), "1" if rep.passed else "0",
        ]))
    return rows
