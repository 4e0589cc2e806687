"""Riemannian Newton method (RM-JGD) for the digital beamformer.

The digital stage factors as W_BB = U_B Sigma_B^{-1/2} Q diag(b), where
U_B Sigma_B U_B^H is the top-n_streams eigensystem of the reduced rate form,
Q is an n_streams x n_streams unitary matrix and b a real gain vector. The
rate objective, power budget and sensing constraint become functions of
(Q, b); inequality constraints enter through a logarithmic barrier and the
pair is optimized jointly over U(n_streams) x R^n_streams, with Q kept on
the manifold by an SVD polar retraction. The problem data come from the
same `MaxDetProblem` that the SDR solvers take: the barrier has one term
per row of its constraint list (`MaxDetProblem.constraints`), the power
budget and, when it is set, the sensing floor.

The paper descends this barrier by first-order Riemannian-Euclidean
gradient steps. Here each step is a damped Newton step with the exact
Hessian of the barrier pulled back through the retraction (Absil, Mahony &
Sepulchre 2008, ch. 6), stopped by the Newton decrement (Boyd &
Vandenberghe 2004, sec. 9.5): the power form diag(1/sigma_B) makes the
barrier's curvature span up to 14 decades at desk scale, where gradient
steps stopped at their iteration cap 0.03-2.5 bits short of the optimum
and Newton steps converge in a handful of iterations.

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

import numpy as np

from .channel import numerical_rank
from .opt_sdr import RANK_TOL, MaxDetProblem, water_level


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
    """Truncated eigensystem of the reduced rate form plus the constraint list.

    b_mat is the noise-normalized Gram matrix of the effective channel,
    truncated to its top n_streams eigenpairs (u_b, sigma_b). With
    T = U_B Sigma_B^{-1/2} and W_BB = T Q diag(b), each constraint
    tr(W_BB^H D_i W_BB) <= offsets_i of `MaxDetProblem.constraints` reads
    sum_j b_j^2 (Q^H F_i Q)_jj <= offsets_i with forms[i] = F_i = T^H D_i T,
    n_streams x n_streams: the power form (Sigma_B^{-1} up to rounding),
    then the sensing form -T^H Psi T when the problem has a sensing row.
    """

    b_mat: np.ndarray
    u_b: np.ndarray
    sigma_b: np.ndarray
    forms: np.ndarray
    offsets: np.ndarray
    n_streams: int


@dataclass
class ManifoldState:
    """Iterate of the joint descent: n_streams x n_streams unitary q, real gains b."""

    q: np.ndarray
    b: np.ndarray


# Armijo backtracking from the full Newton step: step shrink factor,
# sufficient-decrease slope, first trial step, and the step below which the
# search gives up.
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
ARMIJO_INITIAL = 1.0
MIN_STEP = 1e-12
# The descent has converged once the squared Newton decrement g^T H^{-1} g,
# twice the predicted decrease of the barrier, is below this (nats).
NEWTON_TOL = 1e-12
# Hessian eigenvalues below this fraction of the largest magnitude are raised
# to it. The power form puts the barrier's curvature over up to 14 decades
# at desk scale, and a floor of 1e-10 left 42 of the 45 feasible desk runs
# at the iteration cap.
EIG_FLOOR = 1e-16
# Largest ||Q^H Q - I|| that `tangent_project` accepts.
DRIFT_TOL = 1e-6
# Iteration cap of `rm_jgd`.
MAX_ITERATIONS = 500
# Barrier weight t of the runs in `harness` and `validation`: each barrier
# term is -ln(slack)/t.
BARRIER_T = 100.0


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
    efficiency in nats. The problem's constraint forms D_i are mapped
    through T = U_B Sigma_B^{-1/2} to T^H D_i T; the offsets are kept. A
    stream count above the numerical rank of h_eff at `opt_sdr.RANK_TOL`,
    the rule that sets the default count, raises RankDeficiencyError.
    """
    g = problem.h_eff
    n_streams, rank = problem.n_streams, numerical_rank(g, RANK_TOL)
    if n_streams > rank:
        raise RankDeficiencyError(
            f"n_streams={n_streams} exceeds numerical rank {rank} of the rate form"
        )
    b_mat = (g.conj().T @ g) / problem.sigma_c_sq
    b_mat = 0.5 * (b_mat + b_mat.conj().T)
    vals, vecs = np.linalg.eigh(b_mat)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vals = np.clip(vals, 0.0, None)
    u_b = vecs[:, :n_streams]
    sigma_b = vals[:n_streams]
    scaled = u_b / np.sqrt(sigma_b)[None, :]
    forms, offsets = problem.constraints
    forms = scaled.conj().T @ forms @ scaled
    return EigB(
        b_mat=b_mat,
        u_b=u_b,
        sigma_b=sigma_b,
        forms=0.5 * (forms + forms.conj().transpose(0, 2, 1)),
        offsets=offsets,
        n_streams=n_streams,
    )


def assemble_wbb(eig: EigB, state: ManifoldState) -> np.ndarray:
    """Digital beamformer U_B Sigma_B^{-1/2} Q diag(b) for the state."""
    return (eig.u_b / np.sqrt(eig.sigma_b)[None, :]) @ (state.q * state.b[None, :])


def _terms_of(q: np.ndarray, eig: EigB) -> tuple[np.ndarray, np.ndarray]:
    """F_i Q and real diag(Q^H F_i Q) for every constraint form F_i, by row."""
    forms_q = eig.forms @ q
    return forms_q, (q.conj() * forms_q).sum(axis=-2).real


def _slacks(state: ManifoldState, eig: EigB) -> np.ndarray:
    """Constraint slacks offsets_i - sum_j b_j^2 (Q^H F_i Q)_jj, one per row."""
    return eig.offsets - _terms_of(state.q, eig)[1] @ state.b**2


def _interior_terms(state: ManifoldState, eig: EigB) -> tuple[np.ndarray, ...]:
    """`_terms_of` and `_slacks` from one F_i Q at a strictly feasible state;
    raises InfeasiblePointError anywhere else, where the barrier has no gradient."""
    forms_q, diags = _terms_of(state.q, eig)
    slacks = eig.offsets - diags @ state.b**2
    if np.any(slacks <= 0.0):
        raise InfeasiblePointError("gradient requested at an infeasible point")
    return forms_q, diags, slacks


def barrier_value(state: ManifoldState, eig: EigB, t: float) -> float:
    """Barrier objective; +inf outside the strictly feasible region.

    f = -sum_j ln(1+b_j^2) - sum_i ln(s_i)/t over the constraint slacks s_i.
    Natural log throughout; conversion to bits happens only at the metric
    layer.
    """
    slacks = _slacks(state, eig)
    if np.any(slacks <= 0.0):
        return np.inf
    return -float(np.log1p(state.b**2).sum()) - float(np.log(slacks).sum()) / t


def grad_b(state: ManifoldState, eig: EigB, t: float) -> np.ndarray:
    """Euclidean gradient of the barrier objective with respect to b."""
    b, (_, diags, slacks) = state.b, _interior_terms(state, eig)
    return -2.0 * b / (1.0 + b**2) + (2.0 / t) * ((1.0 / slacks) @ diags) * b


def grad_v(state: ManifoldState, eig: EigB, t: float) -> np.ndarray:
    """Euclidean gradient of the barrier objective with respect to Q."""
    forms_q, _, slacks = _interior_terms(state, eig)
    weighted = ((1.0 / slacks) @ forms_q.reshape(len(slacks), -1)).reshape(forms_q.shape[1:])
    return (2.0 / t) * weighted * state.b[None, :] ** 2


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


def phase1_feasible(eig: EigB) -> ManifoldState:
    """Construct a strictly feasible starting state or certify infeasibility.

    The budget is the first offset. The streams first get a waterfilling split
    of 90% of it over the channel directions (Q = I). Where every slack is
    positive there, the start is the barrier's own split: at Q = I under the
    power row, `water_level` with the power slack as one more channel of
    weight 1/t (t = BARRIER_T) minimizes the barrier over the gains and leaves
    a slack of level/t, the central path's point (Boyd & Vandenberghe 2004,
    ex. 5.2, sec. 11.2). The 90% split stays where that split is not strictly
    feasible or has no active channel (t budget <= min 1/sigma_B). Otherwise,
    in the coordinates Y = Q diag(b^2) Q^H the power is tr(Sigma_B^{-1} Y) and
    the sensing value tr(Phi Y), Phi = -forms[1] and floor = -offsets[1] being
    the sensing row, and along v = Sigma_B^{1/2} p, p the top eigenvector of
    the pencil Sigma_B^{1/2} Phi Sigma_B^{1/2}, a unit of power buys
    lambda_max of sensing. The infeasibility certificate is that bound: no
    point reaches more than budget * lambda_max. Below it, Y = beta v v^H +
    eps Sigma_B puts beta a tenth of the way from the threshold's power
    floor/lambda_max to the budget and spends at most half of what remains of
    the power and of the sensing surplus on eps Sigma_B, which is positive
    definite; Y's eigenvectors are Q and b^2 = diag(Q^H Y Q), a sum of
    nonnegative terms, so every gain is positive (a phase-I point; Boyd &
    Vandenberghe 2004, sec. 11.4).
    """
    ns, budget = eig.n_streams, eig.offsets[0]
    inv = 1.0 / eig.sigma_b
    split, barrier = (
        ManifoldState(np.eye(ns, dtype=complex), np.sqrt(np.maximum(lv - inv, 0.0) * eig.sigma_b))
        for lv in (water_level(inv, 0.9 * budget), water_level(inv, budget, 1.0 / BARRIER_T))
    )
    if np.all(_slacks(split, eig) > 0.0):
        interior = np.any(barrier.b > 0.0) and np.all(_slacks(barrier, eig) > 0.0)
        return barrier if interior else split

    phi, floor = -eig.forms[1], -eig.offsets[1]
    scale = np.sqrt(eig.sigma_b)
    pencil = (scale[:, None] * phi) * scale[None, :]
    pvals, pvecs = np.linalg.eigh(0.5 * (pencil + pencil.conj().T))
    lam = float(pvals[-1])
    bound = budget * lam
    if bound <= floor:
        raise InfeasibleProblemError(
            f"sensing threshold unattainable: max value at full power "
            f"{bound:.6g} <= required {floor:.6g}",
            bound=bound,
        )
    # beta*lam clears floor by surplus; eps*Sigma_B costs eps*ns of power
    # and adds eps*tr(pencil) of sensing, which may be negative
    beta = floor / lam + 0.1 * (budget - floor / lam)
    surplus = beta * lam - floor
    eps = 0.5 * (budget - beta) / ns
    if pvals.sum() < 0.0:
        eps = min(eps, 0.5 * surplus / -pvals.sum())
    v = scale * pvecs[:, -1]
    y = beta * np.outer(v, v.conj()) + eps * np.diag(eig.sigma_b)
    _, q = np.linalg.eigh(y)
    b2 = beta * np.abs(q.conj().T @ v) ** 2 + eps * (eig.sigma_b @ np.abs(q) ** 2)
    return ManifoldState(q=q, b=np.sqrt(b2))


def _skew_basis(n: int) -> np.ndarray:
    """Real basis of the skew-Hermitian n x n matrices with a zero diagonal.

    For the pairs i < j in `np.triu_indices` order, first the real
    directions e_i e_j^T - e_j e_i^T, then the imaginary ones i (e_i e_j^T +
    e_j e_i^T), stacked (n(n-1), n, n). The diagonal, Q's column phases, is
    left out: the barrier does not depend on it.
    """
    rows, cols = np.triu_indices(n, 1)
    k, half = np.arange(rows.size), rows.size
    basis = np.zeros((2 * half, n, n), dtype=complex)
    basis[k, rows, cols], basis[k, cols, rows] = 1.0, -1.0
    basis[half + k, rows, cols] = basis[half + k, cols, rows] = 1j
    return basis


def _pair_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairs i < j (`np.triu_indices`), P = `_skew_basis` flattened to
    (n(n-1), n^2), and the (n(n-1), n) table with -1 at i and +1 at j on
    each row of P. `rm_jgd` builds them once and passes them down."""
    rows, cols = np.triu_indices(n, 1)
    ends, k = np.zeros((2 * rows.size, n)), np.arange(2 * rows.size)
    ends[k, np.tile(rows, 2)], ends[k, np.tile(cols, 2)] = -1.0, 1.0
    return rows, cols, _skew_basis(n).reshape(-1, n * n), ends


def barrier_derivatives(
    state: ManifoldState, eig: EigB, t: float, tables: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the barrier's pullback at x = 0.

    The pullback is x = (omega, delta b) -> f(polar(Q (I + Omega)), b +
    delta b), Omega = sum_k omega_k E_k over `_skew_basis`: n_streams^2 real
    coordinates. The polar factor agrees with Q e^{Omega} to second order,
    so the Hessian is exact for the step taken. The gradient comes from
    `grad_v`, `tangent_project` and `grad_b`: with K = skew(Q^H grad_v), it
    is 2 (Re, Im) K_ij along the pair (i, j)'s real and imaginary directions.

    The Hessian is closed-form in M_i = Q^H F_i Q (`tables`: `_pair_tables`,
    built when absent). With w = b^2, the value s_i of F_i has gradient
    2 (w_j - w_i) (Re, Im) (M_i)_ij along the pair (i, j) and 2 b diag(M_i)
    along the gains; each term -ln(u_i)/t, u_i = offset_i - s_i, adds
    (grad s_i grad s_i^T / u_i^2 + hess s_i / u_i)/t, and hess s is linear in
    the form: all rows' curvature is that of M = sum_i M_i / u_i. As
    e^{-Omega} M e^{Omega} = M + [M, Omega] + (Omega^2 M + M Omega^2)/2 -
    Omega M Omega + O(Omega^3), its omega block is Re(X + X^T), X = P (W (x)
    M - (M W)^T (x) I) P^H, W = diag(w), P the flattened basis (tr(A E_k B
    E_l) = vec(E_k)^T (A^T (x) B) vec(E_l^T), E_l^T = -conj(E_l)), its mixed
    block 4 (Re, Im) M_ij (-b_i, b_j) and its gain block diag(2 diag M). The
    rate -ln(1 + b_i^2) adds -2(1 - b_i^2)/(1 + b_i^2)^2 on the gains.
    """
    q, b = state.q, state.b
    n, w = b.size, b**2
    rows, cols, basis, ends = tables or _pair_tables(n)
    skew = -q.conj().T @ tangent_project(q, grad_v(state, eig, t))
    pairs = skew[rows, cols]
    grad = np.concatenate([2.0 * pairs.real, 2.0 * pairs.imag, grad_b(state, eig, t)])
    forms_q, diags = _terms_of(q, eig)
    slacks = (eig.offsets - diags @ w)[:, None]  # `_slacks`, checked by grad_v
    forms, diags = (q.conj().T @ forms_q) / slacks[..., None], diags / slacks
    entries, m = forms[:, rows, cols], forms.sum(0)
    coords = np.concatenate([entries.real, entries.imag], axis=1)
    g_s = 2.0 * np.concatenate([(ends @ w) * coords, b * diags], axis=1)
    # K[(b, c), (a, d)] = W_ba M_cd - (M W)_ab delta_cd, i.e. W (x) M - (M W)^T (x) I
    kron = np.diag(w)[:, None, :, None] * m[:, None, :]
    kron -= (m * w).T[:, None, :, None] * np.eye(n)[:, None, :]
    x = basis @ kron.reshape(n * n, n * n) @ basis.conj().T
    p, mixed = basis.shape[0], 4.0 * coords.sum(0)[:, None] * ends * b
    hess = g_s.T @ g_s
    hess[:p, :p] += (x + x.T).real
    hess[:p, p:] += mixed
    hess[p:, :p] += mixed.T
    hess[p:, p:] += np.diag(2.0 * diags.sum(0) - 2.0 * t * (1.0 - w) / (1.0 + w) ** 2)
    return grad, hess / t


def newton_step(
    state: ManifoldState, eig: EigB, t: float, tables: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Newton direction (Omega, delta b) and squared decrement g^T H^{-1} g.

    H is `barrier_derivatives`' closed-form Hessian with each eigenvalue
    lambda replaced by max(|lambda|, EIG_FLOOR max|lambda|): positive
    definite, so the direction descends wherever the gradient is nonzero,
    and equal to the exact Hessian near a minimizer. `tables` are
    `_pair_tables(n_streams)`, built here when absent."""
    n, tables = state.b.size, tables or _pair_tables(state.b.size)
    grad, hess = barrier_derivatives(state, eig, t, tables)
    lam, vecs = np.linalg.eigh(hess)
    lam = np.abs(lam)
    lam = np.maximum(lam, EIG_FLOOR * lam.max())
    coef = vecs.T @ grad
    step = -vecs @ (coef / lam)
    omega = (step[: n * n - n] @ tables[2]).reshape(n, n)
    return omega, step[n * n - n :], float(coef @ (coef / lam))


def rm_jgd(eig: EigB, t: float, init: ManifoldState) -> RmJgdResult:
    """Damped Riemannian Newton descent over (Q, b) at barrier weight t > 0.

    Each iteration takes the Newton direction of `newton_step` and
    backtracks along it from the full step (Armijo): the trial at step s is
    Q+ = polar(Q (I + s Omega)), b+ = b + s delta b, scored by
    `barrier_value`, and the first that decreases the barrier by
    ARMIJO_SLOPE s times the squared decrement becomes the next iterate.
    Status `converged` once the squared decrement falls below NEWTON_TOL,
    `stalled` when no step down to MIN_STEP decreases the barrier, and
    `max_iter` after MAX_ITERATIONS iterations.
    """
    if not t > 0:
        raise ValueError(f"barrier weight t must be positive, got {t}")
    state = init
    f_cur = barrier_value(state, eig, t)
    if not np.isfinite(f_cur):
        raise InfeasiblePointError("initial state is infeasible for the barrier")
    trace, status, iters = [f_cur], "max_iter", 0
    eye, tables = np.eye(eig.n_streams), _pair_tables(eig.n_streams)
    for n in range(MAX_ITERATIONS):
        omega, delta_b, decrement = newton_step(state, eig, t, tables)
        if decrement < NEWTON_TOL:
            status = "converged"
            break
        step, accepted = ARMIJO_INITIAL, None
        while step >= MIN_STEP and accepted is None:
            trial = ManifoldState(
                stiefel_retract(state.q @ (eye + step * omega)), state.b + step * delta_b
            )
            f_new = barrier_value(trial, eig, t)
            if f_new < f_cur - ARMIJO_SLOPE * step * decrement:
                accepted = trial
            step *= ARMIJO_SHRINK
        if accepted is None:
            status = "stalled"
            break
        state, f_cur = accepted, f_new
        trace.append(f_cur)
        iters = n + 1
    return RmJgdResult(
        state=state,
        w_bb=assemble_wbb(eig, state),
        trace=trace,
        iterations=iters,
        status=status,
    )
