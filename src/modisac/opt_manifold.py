"""Joint Riemannian-Euclidean gradient descent for the digital beamformer.

The digital stage factors as W_BB = U_B Sigma_B^{-1/2} Q diag(b), where
U_B Sigma_B U_B^H is the top-n_streams eigensystem of the reduced rate form,
Q is an n_streams x n_streams unitary matrix and b a real gain vector. The
rate objective, power budget and sensing constraint become functions of
(Q, b); inequality constraints enter through a logarithmic barrier and the
pair is descended jointly over U(n_streams) x R^n_streams, with Q kept on
the manifold via tangent-space projection and an SVD polar retraction. The
problem data come from the same `MaxDetProblem` that the SDR solvers take,
whose power constraint tr(W_BB W_BB^H) <= n_streams/M is the barrier's.

This is the descent over the n_rf x n_rf unitary V~ = [U_B Q, N] of the
factorization W_BB = U_B Sigma_B^{-1/2} U_B^H V~ Sigma~ (N spanning the
complement of col(U_B)), with the inert part left out. The reduction is
exact: the power and sensing forms have range col(U_B), so the Euclidean
gradient vanishes on N, the tangent projection moves only the active
columns and keeps them inside col(U_B), and the polar factor of
[U_B (Q + s xi), N] is [U_B polar(Q + s xi), N].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .opt_sdr import MaxDetProblem


class RankDeficiencyError(ValueError):
    """Requested stream count exceeds the numerical rank of the rate form."""


class InfeasiblePointError(ValueError):
    """Barrier gradient requested at a point outside the strict interior."""


class InfeasibleProblemError(RuntimeError):
    """No strictly feasible digital beamformer exists; carries a certificate."""

    def __init__(self, message: str, bound: float = np.nan):
        super().__init__(message)
        self.bound = bound


@dataclass(frozen=True)
class EigB:
    """Truncated eigensystem of the reduced rate form plus problem data.

    b_mat is the noise-normalized Gram matrix of the effective channel,
    truncated to its top n_streams eigenpairs (u_b, sigma_b). In the
    coordinates of W_BB = U_B Sigma_B^{-1/2} Q diag(b) the power form is
    diag(1 / sigma_b) and the sensing form is phi_q = Sigma_B^{-1/2} U_B^H
    Psi U_B Sigma_B^{-1/2}, both n_streams x n_streams; the sensing
    constraint tr(W_BB^H Psi W_BB) > gamma0 is active when gamma0 > 0.
    """

    b_mat: np.ndarray
    u_b: np.ndarray
    sigma_b: np.ndarray
    phi_q: np.ndarray
    power_budget: float
    gamma0: float
    n_streams: int


@dataclass
class ManifoldState:
    """Iterate of the joint descent: n_streams x n_streams unitary q, real gains b.

    `_terms` caches Q's quadratic terms as (q, eig, Phi_q Q, (diag_b,
    diag_phi)), keyed by the q array and problem they were computed from
    (see `_quadratic_terms`).
    """

    q: np.ndarray
    b: np.ndarray
    _terms: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> "ManifoldState":
        return ManifoldState(self.q.copy(), self.b.copy())

    def with_gains(self, b: np.ndarray) -> "ManifoldState":
        """The state at the same Q with gains b, sharing Q's cached terms."""
        state = ManifoldState(self.q, b)
        state._terms = self._terms
        return state


# Stopping tolerances on the squared tangent-gradient norms of Q and b.
EPS_V = 1e-6
EPS_B = 1e-6
# Armijo backtracking: step shrink factor, sufficient-decrease slope, first
# trial step, and the step below which a search gives up.
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
ARMIJO_INITIAL = 1.0
MIN_STEP = 1e-12
# Each search starts at STEP_GROWTH x its block's last accepted step, so a
# steady step is accepted on rung LADDER_RUNGS of the halving (4s, 2s, s);
# the Q-search retracts that many rungs in one stacked SVD.
STEP_GROWTH = 4.0
LADDER_RUNGS = 1 + round(np.log(STEP_GROWTH) / -np.log(ARMIJO_SHRINK))
# Rate-form eigenvalues at or below this fraction of the largest count as zero.
RANK_CUTOFF = 1e-10
# Largest ||Q^H Q - I|| that `tangent_project` accepts.
DRIFT_TOL = 1e-6


@dataclass
class ManifoldConfig:
    """Barrier weight t and iteration cap of the descent."""

    barrier_t: float = 100.0
    max_iterations: int = 500

    def __post_init__(self) -> None:
        if self.barrier_t <= 0 or self.max_iterations <= 0:
            raise ValueError("barrier_t and max_iterations must be positive")


@dataclass
class RmJgdResult:
    """Converged state, assembled digital beamformer and objective trace."""

    state: ManifoldState
    w_bb: np.ndarray
    trace: list[float]
    iterations: int
    status: str


def reduce_b(problem: MaxDetProblem) -> EigB:
    """Reduce the digital problem to the top eigensystem of its rate form.

    The rate form is the Gram matrix of problem.h_eff over the communication
    noise power, so that the manifold objective equals the spectral
    efficiency in nats.
    """
    g = problem.h_eff
    b_mat = (g.conj().T @ g) / problem.sigma_c_sq
    b_mat = 0.5 * (b_mat + b_mat.conj().T)
    vals, vecs = np.linalg.eigh(b_mat)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vals = np.clip(vals, 0.0, None)
    rank = int(np.count_nonzero(vals > RANK_CUTOFF * vals[0])) if vals[0] > 0 else 0
    n_streams = problem.n_streams
    if n_streams > rank:
        raise RankDeficiencyError(
            f"n_streams={n_streams} exceeds numerical rank {rank} of the rate form"
        )
    u_b = vecs[:, :n_streams]
    sigma_b = vals[:n_streams]
    scaled = u_b / np.sqrt(sigma_b)[None, :]
    phi_q = scaled.conj().T @ problem.psi @ scaled
    return EigB(
        b_mat=b_mat,
        u_b=u_b,
        sigma_b=sigma_b,
        phi_q=0.5 * (phi_q + phi_q.conj().T),
        power_budget=problem.power_budget,
        gamma0=problem.gamma0,
        n_streams=n_streams,
    )


def assemble_wbb(eig: EigB, state: ManifoldState) -> np.ndarray:
    """Digital beamformer U_B Sigma_B^{-1/2} Q diag(b) for the state."""
    return (eig.u_b / np.sqrt(eig.sigma_b)[None, :]) @ (state.q * state.b[None, :])


def _quadratic_terms(
    state: ManifoldState, eig: EigB
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Phi_q Q and Q's diagonals (`_terms_of`), computed once per state.

    The terms depend on Q and the problem alone, so the gradients and the
    barrier at one state, and every b-trial made from it by `with_gains`,
    share one computation. They are kept on the state with the very q array
    and eig they came from, and a state whose q was reassigned, or that is
    asked about another problem, computes them afresh.
    """
    terms = state._terms
    if terms is None or terms[0] is not state.q or terms[1] is not eig:
        terms = state._terms = (state.q, eig, *_terms_of(state.q, eig))
    return terms[2], terms[3]


def _terms_of(
    q: np.ndarray, eig: EigB
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Phi_q Q and (diag(Q^H Sigma_B^{-1} Q), real diag(Q^H Phi_q Q)).

    q may be a stack (..., n, n); each matrix's terms then equal, bit for
    bit, its terms alone.
    """
    phi_q_q = eig.phi_q @ q
    diag_b = (np.abs(q) ** 2 / eig.sigma_b[:, None]).sum(axis=-2)
    diag_phi = (q.conj() * phi_q_q).sum(axis=-2).real
    return phi_q_q, (diag_b, diag_phi)


def _slacks(state: ManifoldState, eig: EigB) -> tuple[float, float, bool]:
    """(power slack, sensing slack, sensing_active)."""
    b2 = state.b**2
    diag_b, diag_phi = _quadratic_terms(state, eig)[1]
    power_slack = eig.power_budget - float(b2 @ diag_b)
    active = eig.gamma0 > 0.0
    sens_slack = float(b2 @ diag_phi) - eig.gamma0 if active else np.inf
    return power_slack, sens_slack, active


def _interior_slacks(state: ManifoldState, eig: EigB) -> tuple[float, float, bool]:
    """`_slacks` at a strictly feasible state; raises InfeasiblePointError
    anywhere else, where the barrier has no gradient."""
    power_slack, sens_slack, active = _slacks(state, eig)
    if power_slack <= 0.0 or (active and sens_slack <= 0.0):
        raise InfeasiblePointError("gradient requested at an infeasible point")
    return power_slack, sens_slack, active


def barrier_value(state: ManifoldState, eig: EigB, config: ManifoldConfig) -> float:
    """Barrier objective; +inf outside the strictly feasible region.

    f = -sum ln(1+b_i^2) + phi(power slack) + phi(sensing slack) with
    phi(u) = -ln(u)/t. Natural log throughout; conversion to bits happens
    only at the metric layer.
    """
    power_slack, sens_slack, active = _slacks(state, eig)
    if power_slack <= 0.0 or (active and sens_slack <= 0.0):
        return np.inf
    t = config.barrier_t
    val = -float(np.log1p(state.b**2).sum()) - np.log(power_slack) / t
    if active:
        val -= np.log(sens_slack) / t
    return val


def grad_b(state: ManifoldState, eig: EigB, config: ManifoldConfig) -> np.ndarray:
    """Euclidean gradient of the barrier objective with respect to b."""
    b = state.b
    diag_b, diag_phi = _quadratic_terms(state, eig)[1]
    power_slack, sens_slack, active = _interior_slacks(state, eig)
    t = config.barrier_t
    grad = -2.0 * b / (1.0 + b**2) + (2.0 / t) * (diag_b / power_slack) * b
    if active:
        grad -= (2.0 / t) * (diag_phi / sens_slack) * b
    return grad


def grad_v(state: ManifoldState, eig: EigB, config: ManifoldConfig) -> np.ndarray:
    """Euclidean gradient of the barrier objective with respect to Q."""
    phi_q_q = _quadratic_terms(state, eig)[0]
    power_slack, sens_slack, active = _interior_slacks(state, eig)
    b2 = state.b**2
    t = config.barrier_t
    grad = (2.0 / t) * (state.q / eig.sigma_b[:, None]) * b2[None, :] / power_slack
    if active:
        grad -= (2.0 / t) * phi_q_q * b2[None, :] / sens_slack
    return grad


def tangent_project(q: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Project the negated gradient onto the unitary-group tangent space.

    Returns -Q skew(Q^H G); the result Z satisfies Z^H Q + Q^H Z = 0 and has
    nonpositive inner product with G.
    """
    drift = float(np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])))
    if drift > DRIFT_TOL:
        raise ValueError(f"q drifted off the manifold (||Q^HQ-I||={drift:.2e})")
    a = q.conj().T @ grad
    skew = 0.5 * (a - a.conj().T)
    return -q @ skew


def stiefel_retract(z: np.ndarray) -> np.ndarray:
    """SVD polar factor: a unitary matrix nearest to z in Frobenius norm.

    U V^H is unitary for every z, rank deficient or not; it is unique when z
    has full rank. z may also be a stack (..., n, n); each matrix is then
    retracted in one batched SVD, bit for bit as it would be alone.
    """
    u, _, vh = np.linalg.svd(z)
    return u @ vh


def _waterfill(gains: np.ndarray, budget: float) -> np.ndarray:
    """Power allocation maximizing sum log(1 + p_i g_i) under sum p_i <= budget."""
    gains = np.asarray(gains, dtype=float)
    powers = np.zeros_like(gains)
    active = gains > 0
    order = np.argsort(gains[active])[::-1]
    idx = np.nonzero(active)[0][order]
    for keep in range(idx.size, 0, -1):
        sel = idx[:keep]
        level = (budget + np.sum(1.0 / gains[sel])) / keep
        p = level - 1.0 / gains[sel]
        if p[-1] >= 0:
            powers[sel] = p
            break
    return powers


def phase1_feasible(eig: EigB) -> ManifoldState:
    """Construct a strictly feasible starting state or certify infeasibility.

    The streams first get a waterfilling split of 90% of the budget over the
    channel directions (Q = I); that start is returned whenever it clears
    the sensing threshold. Otherwise, in the coordinates Y = Q diag(b^2) Q^H
    the power is tr(Sigma_B^{-1} Y) and the sensing value tr(Phi_q Y), and
    along v = Sigma_B^{1/2} p, p the top eigenvector of the pencil
    Sigma_B^{1/2} Phi_q Sigma_B^{1/2}, a unit of power buys lambda_max of
    sensing. The infeasibility certificate is that bound: no point reaches
    more than budget * lambda_max. Below it, Y = beta v v^H + eps Sigma_B
    puts beta a tenth of the way from the threshold's power gamma0/lambda_max
    to the budget and spends at most half of what remains of the power and
    of the sensing surplus on eps Sigma_B, which is positive definite; Y's
    eigenvectors are Q and b^2 = diag(Q^H Y Q), a sum of nonnegative terms,
    so every gain is positive (a phase-I point; Boyd & Vandenberghe 2004,
    sec. 11.4).
    """
    ns, budget = eig.n_streams, eig.power_budget
    start = ManifoldState(
        q=np.eye(ns, dtype=complex),
        b=np.sqrt(_waterfill(eig.sigma_b, 0.9 * budget) * eig.sigma_b),
    )
    power_slack, sens_slack, _ = _slacks(start, eig)
    if power_slack > 0.0 and sens_slack > 0.0:
        return start

    scale = np.sqrt(eig.sigma_b)
    pencil = (scale[:, None] * eig.phi_q) * scale[None, :]
    pvals, pvecs = np.linalg.eigh(0.5 * (pencil + pencil.conj().T))
    lam = float(pvals[-1])
    bound = budget * lam
    if bound <= eig.gamma0:
        raise InfeasibleProblemError(
            f"sensing threshold unattainable: max value at full power "
            f"{bound:.6g} <= required {eig.gamma0:.6g}",
            bound=bound,
        )
    # beta*lam clears gamma0 by surplus; eps*Sigma_B costs eps*ns of power
    # and adds eps*tr(pencil) of sensing, which may be negative
    beta = eig.gamma0 / lam + 0.1 * (budget - eig.gamma0 / lam)
    surplus = beta * lam - eig.gamma0
    eps = 0.5 * (budget - beta) / ns
    if pvals.sum() < 0.0:
        eps = min(eps, 0.5 * surplus / -pvals.sum())
    v = scale * pvecs[:, -1]
    y = beta * np.outer(v, v.conj()) + eps * np.diag(eig.sigma_b)
    _, q = np.linalg.eigh(y)
    b2 = beta * np.abs(q.conj().T @ v) ** 2 + eps * (eig.sigma_b @ np.abs(q) ** 2)
    return ManifoldState(q=q, b=np.sqrt(b2))


def _backtrack(
    f_cur: float,
    trial: float,
    slope: float,
    ladder,
) -> tuple[Optional[float], float, object]:
    """Armijo backtracking from a growing trial step.

    The steps trial, trial/2, ... go to `ladder` LADDER_RUNGS at a time; it
    yields (f, point) for each step in order, and the first that decreases
    enough is returned as (step, f, point), else (None, f_cur, None).
    """
    step = trial
    while step >= MIN_STEP:
        steps = []
        while step >= MIN_STEP and len(steps) < LADDER_RUNGS:
            steps.append(step)
            step *= ARMIJO_SHRINK
        for s, (f_new, point) in zip(steps, ladder(steps)):
            if f_new < f_cur + ARMIJO_SLOPE * s * slope:
                return s, f_new, point
    return None, f_cur, None


def rm_jgd(eig: EigB, config: ManifoldConfig, init: ManifoldState) -> RmJgdResult:
    """Joint gradient descent over (Q, b) with backtracking line search.

    Each iteration projects the Q-gradient to the tangent space, takes the
    steepest-descent pair direction, and backtracks first a Q-step, retracted
    back onto the manifold, then a b-step until the barrier decreases
    sufficiently (Armijo). Each search starts at STEP_GROWTH x its own
    block's last accepted step (at most 1e12), and at ARMIJO_INITIAL on the
    first iteration and after a search that failed or was skipped. Every
    trial is a state scored by `barrier_value`; the b-trials share the
    accepted Q-trial's cached quadratic terms (`with_gains`), and the
    accepted trial becomes the next iterate. Terminates when both squared
    gradient norms fall below the tolerances, the iteration cap is reached,
    or no decreasing step exists.
    """
    state = init.copy()
    f_cur = barrier_value(state, eig, config)
    if not np.isfinite(f_cur):
        raise InfeasiblePointError("initial state is infeasible for the barrier")
    trace = [f_cur]
    status = "max_iter"
    iters = 0
    # Per-block trial steps grow between iterations: the landscape is nearly
    # flat in b far from the budget while the barrier makes Q steep, so a
    # shared unit step would stall one block or the other. Each search starts
    # at STEP_GROWTH x its block's last accepted step (capped at 1e12), and at
    # ARMIJO_INITIAL only after a failed or skipped search: restarting every
    # search at ARMIJO_INITIAL would spend ~20 rejected trials climbing down
    # to the 1e-8..1e-6 Q-steps the barrier allows.
    trial_v = ARMIJO_INITIAL
    trial_b = ARMIJO_INITIAL
    for n in range(config.max_iterations):
        gv = grad_v(state, eig, config)
        gb = grad_b(state, eig, config)
        xi_v = tangent_project(state.q, gv)
        xi_b = -gb
        norm_v_sq = float(np.linalg.norm(xi_v) ** 2)
        norm_b_sq = float(xi_b @ xi_b)
        if norm_v_sq < EPS_V and norm_b_sq < EPS_B:
            status = "converged"
            break

        def q_ladder(steps):
            rungs = stiefel_retract(state.q + np.array(steps)[:, None, None] * xi_v)
            phi_q_q, (diag_b, diag_phi) = _terms_of(rungs, eig)
            for k, q in enumerate(rungs):
                trial = ManifoldState(q, state.b)
                trial._terms = (q, eig, phi_q_q[k], (diag_b[k], diag_phi[k]))
                yield barrier_value(trial, eig, config), trial

        step_v, f_mid, q_state = None, f_cur, state
        if norm_v_sq >= EPS_V:
            step_v, f_mid, q_state = _backtrack(f_cur, trial_v, -norm_v_sq, q_ladder)
            q_state = state if step_v is None else q_state

        def b_ladder(steps):
            for s in steps:
                trial = q_state.with_gains(state.b + s * xi_b)
                yield barrier_value(trial, eig, config), trial

        step_b, f_new, b_state = None, f_mid, q_state
        if norm_b_sq >= EPS_B:
            step_b, f_new, b_state = _backtrack(f_mid, trial_b, -norm_b_sq, b_ladder)
            b_state = q_state if step_b is None else b_state

        if step_v is None and step_b is None:
            status = "stalled"
            break
        state, f_cur = b_state, f_new
        trial_v = min(STEP_GROWTH * step_v, 1e12) if step_v is not None else ARMIJO_INITIAL
        trial_b = min(STEP_GROWTH * step_b, 1e12) if step_b is not None else ARMIJO_INITIAL
        trace.append(f_cur)
        iters = n + 1
    return RmJgdResult(
        state=state,
        w_bb=assemble_wbb(eig, state),
        trace=trace,
        iterations=iters,
        status=status,
    )
