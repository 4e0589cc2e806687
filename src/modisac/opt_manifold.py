"""Joint Riemannian-Euclidean gradient descent for the digital beamformer.

The digital stage factors as W_BB = U_B Sigma_B^{-1/2} Q diag(b), where
U_B Sigma_B U_B^H is the top-n_streams eigensystem of the reduced rate form,
Q is an n_streams x n_streams unitary matrix and b a real gain vector. The
rate objective, power budget and sensing constraint become functions of
(Q, b); inequality constraints enter through a logarithmic barrier and the
pair is descended jointly over U(n_streams) x R^n_streams, with Q kept on
the manifold via tangent-space projection and an SVD polar retraction.

This is the descent over the n_rf x n_rf unitary V~ = [U_B Q, N] of the
factorization W_BB = U_B Sigma_B^{-1/2} U_B^H V~ Sigma~ (N spanning the
complement of col(U_B)), with the inert part left out. The reduction is
exact: the power and sensing forms have range col(U_B), so the Euclidean
gradient vanishes on N, the tangent projection moves only the active
columns and keeps them inside col(U_B), and the polar factor of
[U_B (Q + s xi), N] is [U_B polar(Q + s xi), N].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beamform import PhiSet, SubspaceBasis


class RankDeficiencyError(ValueError):
    """Requested stream count exceeds the numerical rank of the rate form."""


class InfeasiblePointError(ValueError):
    """Barrier gradient requested at a point outside the strict interior."""


class InfeasibleProblemError(RuntimeError):
    """No strictly feasible digital beamformer exists; carries a certificate."""

    def __init__(self, message: str, bound: float = np.nan):
        super().__init__(message)
        self.bound = bound


class RetractionError(RuntimeError):
    """Polar retraction failed on a numerically rank-deficient step."""


@dataclass(frozen=True)
class EigB:
    """Truncated eigensystem of the reduced rate form plus problem data.

    b_mat is the noise-normalized Gram matrix of the effective channel,
    truncated to its top n_streams eigenpairs (u_b, sigma_b). In the
    coordinates of W_BB = U_B Sigma_B^{-1/2} Q diag(b) the power form is
    diag(1 / sigma_b) and the sensing form is phi_q = Sigma_B^{-1/2} U_B^H
    Psi U_B Sigma_B^{-1/2}, both n_streams x n_streams.
    """

    b_mat: np.ndarray
    u_b: np.ndarray
    sigma_b: np.ndarray
    phi_q: np.ndarray
    power_budget: float
    n_streams: int


@dataclass
class ManifoldState:
    """Iterate of the joint descent: n_streams x n_streams unitary q, real gains b."""

    q: np.ndarray
    b: np.ndarray

    def copy(self) -> "ManifoldState":
        return ManifoldState(self.q.copy(), self.b.copy())


# Stopping tolerances on the squared tangent-gradient norms of Q and b.
EPS_V = 1e-6
EPS_B = 1e-6
# Armijo backtracking: step shrink factor, sufficient-decrease slope, first
# trial step, and the step below which a search gives up.
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
ARMIJO_INITIAL = 1.0
MIN_STEP = 1e-12
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


def reduce_b(
    basis: SubspaceBasis,
    h: np.ndarray,
    n_streams: int,
    m_antennas: int,
    sigma_c_sq: float = 1.0,
    psi: Optional[np.ndarray] = None,
) -> EigB:
    """Build the reduced problem data from the channel and subspace basis.

    The communication noise power is folded into the rate form so that the
    manifold objective equals the spectral efficiency in nats; without this
    the reduced objective and the reported SE would disagree whenever
    sigma_c_sq != 1.
    """
    u = basis.u_tilde
    g = h @ u
    b_mat = (g.conj().T @ g) / sigma_c_sq
    b_mat = 0.5 * (b_mat + b_mat.conj().T)
    vals, vecs = np.linalg.eigh(b_mat)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vals = np.clip(vals, 0.0, None)
    rank = int(np.count_nonzero(vals > RANK_CUTOFF * vals[0])) if vals[0] > 0 else 0
    if n_streams > rank:
        raise RankDeficiencyError(
            f"n_streams={n_streams} exceeds numerical rank {rank} of the rate form"
        )
    u_b = vecs[:, :n_streams]
    sigma_b = vals[:n_streams]
    if psi is None:
        phi_q = np.zeros((n_streams, n_streams), dtype=complex)
    else:
        scaled = u_b / np.sqrt(sigma_b)[None, :]
        phi_q = scaled.conj().T @ psi @ scaled
        phi_q = 0.5 * (phi_q + phi_q.conj().T)
    return EigB(
        b_mat=b_mat,
        u_b=u_b,
        sigma_b=sigma_b,
        phi_q=phi_q,
        power_budget=n_streams / m_antennas,
        n_streams=n_streams,
    )


def assemble_wbb(eig: EigB, state: ManifoldState) -> np.ndarray:
    """Digital beamformer U_B Sigma_B^{-1/2} Q diag(b) for the state."""
    return (eig.u_b / np.sqrt(eig.sigma_b)[None, :]) @ (state.q * state.b[None, :])


def _quadratic_diagonals(
    state: ManifoldState, eig: EigB
) -> tuple[np.ndarray, np.ndarray]:
    """Real diagonals of Q^H Sigma_B^{-1} Q and Q^H Phi_q Q."""
    q = state.q
    diag_b = np.sum(np.abs(q) ** 2 / eig.sigma_b[:, None], axis=0)
    diag_phi = np.real(np.sum(q.conj() * (eig.phi_q @ q), axis=0))
    return diag_b, diag_phi


def _slacks(
    state: ManifoldState, eig: EigB, phi_set: PhiSet
) -> tuple[float, float, bool]:
    """(power slack, sensing slack, sensing_active)."""
    return _slacks_at(state.b, _quadratic_diagonals(state, eig), eig, phi_set)


def _slacks_at(
    b: np.ndarray,
    diagonals: tuple[np.ndarray, np.ndarray],
    eig: EigB,
    phi_set: PhiSet,
) -> tuple[float, float, bool]:
    """`_slacks` at gains b, given Q's `_quadratic_diagonals`."""
    b2 = b**2
    diag_b, diag_phi = diagonals
    power_slack = eig.power_budget - float(b2 @ diag_b)
    active = phi_set.gamma0 > 0.0
    sens_slack = float(b2 @ diag_phi) - phi_set.gamma0 if active else np.inf
    return power_slack, sens_slack, active


def barrier_value(
    state: ManifoldState, eig: EigB, phi_set: PhiSet, config: ManifoldConfig
) -> float:
    """Barrier objective; +inf outside the strictly feasible region.

    f = -sum ln(1+b_i^2) + phi(power slack) + phi(sensing slack) with
    phi(u) = -ln(u)/t. Natural log throughout; conversion to bits happens
    only at the metric layer.
    """
    return _barrier_at(
        state.b, _quadratic_diagonals(state, eig), eig, phi_set, config.barrier_t
    )


def _barrier_at(
    b: np.ndarray,
    diagonals: tuple[np.ndarray, np.ndarray],
    eig: EigB,
    phi_set: PhiSet,
    t: float,
) -> float:
    """`barrier_value` at gains b, given Q's `_quadratic_diagonals`.

    The diagonals depend on Q alone, so a line search over b computes them
    once and evaluates every trial from them.
    """
    power_slack, sens_slack, active = _slacks_at(b, diagonals, eig, phi_set)
    if power_slack <= 0.0 or (active and sens_slack <= 0.0):
        return np.inf
    val = -float(np.sum(np.log1p(b**2))) - np.log(power_slack) / t
    if active:
        val -= np.log(sens_slack) / t
    return val


def grad_b(
    state: ManifoldState, eig: EigB, phi_set: PhiSet, config: ManifoldConfig
) -> np.ndarray:
    """Euclidean gradient of the barrier objective with respect to b."""
    b = state.b
    diag_b, diag_phi = _quadratic_diagonals(state, eig)
    power_slack, sens_slack, active = _slacks_at(b, (diag_b, diag_phi), eig, phi_set)
    if power_slack <= 0.0 or (active and sens_slack <= 0.0):
        raise InfeasiblePointError("gradient requested at an infeasible point")
    t = config.barrier_t
    grad = -2.0 * b / (1.0 + b**2) + (2.0 / t) * (diag_b / power_slack) * b
    if active:
        grad -= (2.0 / t) * (diag_phi / sens_slack) * b
    return grad


def grad_v(
    state: ManifoldState, eig: EigB, phi_set: PhiSet, config: ManifoldConfig
) -> np.ndarray:
    """Euclidean gradient of the barrier objective with respect to Q."""
    power_slack, sens_slack, active = _slacks(state, eig, phi_set)
    if power_slack <= 0.0 or (active and sens_slack <= 0.0):
        raise InfeasiblePointError("gradient requested at an infeasible point")
    q = state.q
    b2 = state.b**2
    t = config.barrier_t
    grad = (2.0 / t) * (q / eig.sigma_b[:, None]) * b2[None, :] / power_slack
    if active:
        grad -= (2.0 / t) * (eig.phi_q @ q) * b2[None, :] / sens_slack
    return grad


def tangent_project(q: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Project the negated gradient onto the unitary-group tangent space.

    Returns -Q skew(Q^H G); the result Z satisfies Z^H Q + Q^H Z = 0 and has
    nonpositive inner product with G.
    """
    drift = _orthonormality_drift(q)
    if drift > DRIFT_TOL:
        raise ValueError(f"q drifted off the manifold (||Q^HQ-I||={drift:.2e})")
    a = q.conj().T @ grad
    skew = 0.5 * (a - a.conj().T)
    return -q @ skew


def stiefel_retract(z: np.ndarray) -> np.ndarray:
    """SVD polar factor: the unitary matrix nearest to z in Frobenius norm."""
    u, s, vh = np.linalg.svd(z)
    if s[0] == 0.0 or s[-1] < 1e-12 * s[0]:
        scale = max(s[0], 1.0)
        u, s, vh = np.linalg.svd(z + 1e-10 * scale * np.eye(z.shape[0]))
        if s[0] == 0.0 or s[-1] < 1e-12 * s[0]:
            raise RetractionError("step matrix is numerically rank deficient")
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


def phase1_feasible(eig: EigB, phi_set: PhiSet) -> ManifoldState:
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
    power_slack, sens_slack, _ = _slacks(start, eig, phi_set)
    if power_slack > 0.0 and sens_slack > 0.0:
        return start

    scale = np.sqrt(eig.sigma_b)
    pencil = (scale[:, None] * eig.phi_q) * scale[None, :]
    pvals, pvecs = np.linalg.eigh(0.5 * (pencil + pencil.conj().T))
    lam = float(pvals[-1])
    bound = budget * lam
    if bound <= phi_set.gamma0:
        raise InfeasibleProblemError(
            f"sensing threshold unattainable: max value at full power "
            f"{bound:.6g} <= required {phi_set.gamma0:.6g}",
            bound=bound,
        )
    # beta*lam clears gamma0 by surplus; eps*Sigma_B costs eps*ns of power
    # and adds eps*tr(pencil) of sensing, which may be negative
    beta = phi_set.gamma0 / lam + 0.1 * (budget - phi_set.gamma0 / lam)
    surplus = beta * lam - phi_set.gamma0
    eps = 0.5 * (budget - beta) / ns
    if pvals.sum() < 0.0:
        eps = min(eps, 0.5 * surplus / -pvals.sum())
    v = scale * pvecs[:, -1]
    y = beta * np.outer(v, v.conj()) + eps * np.diag(eig.sigma_b)
    _, q = np.linalg.eigh(y)
    b2 = beta * np.abs(q.conj().T @ v) ** 2 + eps * (eig.sigma_b @ np.abs(q) ** 2)
    return ManifoldState(q=q, b=np.sqrt(b2))


def _orthonormality_drift(v: np.ndarray) -> float:
    return float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))


def _backtrack(
    f_cur: float,
    trial: float,
    slope: float,
    evaluate,
) -> tuple[Optional[float], float]:
    """Armijo backtracking from a growing trial step; (step, f_new) or (None, f)."""
    step = trial
    while step >= MIN_STEP:
        f_new = evaluate(step)
        if f_new < f_cur + ARMIJO_SLOPE * step * slope:
            return step, f_new
        step *= ARMIJO_SHRINK
    return None, f_cur


def rm_jgd(
    eig: EigB,
    phi_set: PhiSet,
    config: ManifoldConfig,
    init: ManifoldState,
) -> RmJgdResult:
    """Joint gradient descent over (Q, b) with backtracking line search.

    Each iteration projects the Q-gradient to the tangent space, takes the
    steepest-descent pair direction, and backtracks first a Q-step, retracted
    back onto the manifold, then a b-step until the barrier decreases
    sufficiently (Armijo). Each search starts at 4x its own block's last
    accepted step (at most 1e12), and at ARMIJO_INITIAL on the first
    iteration and after a search that failed or was skipped. Terminates when
    both squared gradient norms fall below the tolerances, the iteration cap
    is reached, or no decreasing step exists.
    """
    f_cur = barrier_value(init, eig, phi_set, config)
    if not np.isfinite(f_cur):
        raise ValueError("initial state is infeasible for the barrier")
    state = init.copy()
    trace = [f_cur]
    status = "max_iter"
    iters = 0
    # Per-block trial steps grow between iterations: the landscape is nearly
    # flat in b far from the budget while the barrier makes Q steep, so a
    # shared unit step would stall one block or the other. Each search starts
    # at 4x its block's last accepted step (capped at 1e12), and at
    # ARMIJO_INITIAL only after a failed or skipped search: restarting every
    # search at ARMIJO_INITIAL would spend ~20 rejected trials climbing down
    # to the 1e-8..1e-6 Q-steps the barrier allows.
    trial_v = ARMIJO_INITIAL
    trial_b = ARMIJO_INITIAL
    for n in range(config.max_iterations):
        gv = grad_v(state, eig, phi_set, config)
        gb = grad_b(state, eig, phi_set, config)
        xi_v = tangent_project(state.q, gv)
        xi_b = -gb
        norm_v_sq = float(np.linalg.norm(xi_v) ** 2)
        norm_b_sq = float(xi_b @ xi_b)
        if norm_v_sq < EPS_V and norm_b_sq < EPS_B:
            status = "converged"
            break

        # the accepted trial is the last one evaluated, so keep its retraction
        q_trial = state.q

        def q_value(s: float) -> float:
            nonlocal q_trial
            q_trial = stiefel_retract(state.q + s * xi_v)
            return barrier_value(ManifoldState(q_trial, state.b), eig, phi_set, config)

        step_v, f_mid = _backtrack(
            f_cur, trial_v, -norm_v_sq, q_value
        ) if norm_v_sq >= EPS_V else (None, f_cur)
        q_new = q_trial if step_v is not None else state.q

        step_b, f_new = None, f_mid
        if norm_b_sq >= EPS_B:
            diagonals = _quadratic_diagonals(ManifoldState(q_new, state.b), eig)
            step_b, f_new = _backtrack(
                f_mid,
                trial_b,
                -norm_b_sq,
                lambda s: _barrier_at(
                    state.b + s * xi_b, diagonals, eig, phi_set, config.barrier_t
                ),
            )
        b_new = state.b + step_b * xi_b if step_b is not None else state.b

        if step_v is None and step_b is None:
            status = "stalled"
            break
        state = ManifoldState(q=q_new, b=b_new)
        f_cur = f_new
        if _orthonormality_drift(state.q) > 1e-8:
            state.q = stiefel_retract(state.q)
        trial_v = min(4.0 * step_v, 1e12) if step_v is not None else ARMIJO_INITIAL
        trial_b = min(4.0 * step_b, 1e12) if step_b is not None else ARMIJO_INITIAL
        trace.append(f_cur)
        iters = n + 1
    return RmJgdResult(
        state=state,
        w_bb=assemble_wbb(eig, state),
        trace=trace,
        iterations=iters,
        status=status,
    )
