"""Determinant-maximization SDP relaxation and Gaussian randomization.

The rank-relaxed digital covariance problem

    max  log det(I + H_eff R H_eff^H / sigma_c^2)
    s.t. tr(R) <= budget,  tr(R Psi) >= gamma0,  R >= 0

is solved through its dual in the two multipliers mu (power) and nu
(sensing): for fixed multipliers the Lagrangian maximizer is a waterfilling
in closed form, and damped Newton steps on the convex two-scalar dual (a
2x2 Hessian) find the multipliers (Yu & Lan 2007; Palomar & Fonollosa 2005).
The dual value certifies an upper bound on the relaxation. Over R_BB the
budget is the per-subarray power proxy n_streams/M; the exact transmit
power is the same trace in the coordinates of an orthonormal basis of the
analog subspace. A rank-n_streams beamformer is then recovered by scaling
random Gaussian sketches of the optimal covariance and keeping the best
rate among those meeting the sensing constraint. The same `MaxDetProblem`
is RM-JGD's problem too (`opt_manifold.reduce_b`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beamform import PhiSet, SubspaceBasis, sensing_form
from .channel import ObjectResponse


class RandomizationFailure(RuntimeError):
    """No randomized candidate satisfied the sensing constraint."""


@dataclass
class MaxDetProblem:
    """Problem data for the relaxed digital covariance optimization."""

    h_eff: np.ndarray
    sigma_c_sq: float
    power_budget: float
    psi: np.ndarray
    gamma0: float
    n_streams: int

    @property
    def dim(self) -> int:
        return self.h_eff.shape[1]

    @property
    def sensing_active(self) -> bool:
        return self.gamma0 > 0.0


@dataclass
class SdpSolution:
    """Primal-feasible covariance, its rate and the dual bound on the optimum.

    r_bb meets the power budget with equality and the sensing constraint;
    objective_bits is its rate and dual_bits the dual value at the final
    multipliers, an upper bound on every feasible rate. newton_steps counts
    dual Newton steps.
    """

    r_bb: np.ndarray
    objective_bits: float
    dual_bits: float
    status: str
    newton_steps: int = 0
    message: str = ""


# Gaussian sketches per stream in the first randomization round, and in the
# one retry after no sketch met the sensing constraint.
TRIALS_PER_STREAM = 10
RETRY_PER_STREAM = 100


@dataclass
class SdrResult:
    """Recovered digital beamformer plus its achieved rate."""

    w_bb: Optional[np.ndarray]
    se_bits: float
    status: str
    solution: Optional[SdpSolution] = None


def make_maxdet_problem(
    h: np.ndarray,
    basis: SubspaceBasis,
    phi_set: PhiSet,
    alphas: np.ndarray,
    scnr_min: float,
    sigma_c_sq: float,
    n_streams: int,
) -> MaxDetProblem:
    """Reduced problem over R_BB with the proxy power budget.

    The proxy constrains M*||W_BB||_F^2, i.e. tr(R_BB) <= n_streams/M.
    """
    return MaxDetProblem(
        h_eff=h @ basis.u_tilde,
        sigma_c_sq=sigma_c_sq,
        power_budget=n_streams / basis.m_antennas,
        psi=sensing_form(phi_set, alphas, scnr_min),
        gamma0=phi_set.gamma0,
        n_streams=n_streams,
    )


def make_fullspace_problem(
    h: np.ndarray,
    responses: tuple[ObjectResponse, ...],
    alphas: np.ndarray,
    scnr_min: float,
    w: np.ndarray,
    sigma_c_sq: float,
    sigma_s_sq: float,
    n_streams: int,
) -> MaxDetProblem:
    """Covariance problem over the full N-dimensional transmit space.

    Used to verify that the optimum of the unreduced problem lands in the
    subarray-response subspace; the budget is the full transmit power.
    """
    alphas = np.asarray(alphas, dtype=float)
    n = h.shape[1]
    psi = np.zeros((n, n), dtype=complex)
    for q, resp in enumerate(responses):
        c = float(np.abs(w.conj() @ resp.g_r) ** 2)
        term = alphas[q] ** 2 * c * np.outer(resp.g_t, resp.g_t.conj())
        psi += term if q == 0 else -scnr_min * term
    psi = 0.5 * (psi + psi.conj().T)
    w_norm_sq = float(np.real(w.conj() @ w))
    return MaxDetProblem(
        h_eff=h,
        sigma_c_sq=sigma_c_sq,
        power_budget=float(n_streams),
        psi=psi,
        gamma0=scnr_min * sigma_s_sq * w_norm_sq,
        n_streams=n_streams,
    )


def _slacks(r: np.ndarray, problem: MaxDetProblem) -> tuple[float, float]:
    # tr(R) as the sum of all of R o I, not of the diagonal alone: another
    # summation order moves every covariance `_make_feasible` rescales by rounding
    p_slack = problem.power_budget - float(np.real(np.sum(r * np.eye(len(r)))))
    s_slack = (
        float(np.real(np.sum(r * problem.psi.T))) - problem.gamma0
        if problem.sensing_active
        else np.inf
    )
    return p_slack, s_slack


def _candidate_se_bits(w: np.ndarray, problem: MaxDetProblem) -> float:
    s = np.linalg.svd(problem.h_eff @ w, compute_uv=False)
    return float(np.sum(np.log2(1.0 + s**2 / problem.sigma_c_sq)))


def _factor(r: np.ndarray, rank: Optional[int] = None) -> np.ndarray:
    """F with F F^H the best rank-`rank` PSD approximation of r (all if None)."""
    vals, vecs = np.linalg.eigh(r)
    vals, vecs = vals[::-1][:rank], vecs[:, ::-1][:, :rank]
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]


@dataclass
class _DualPoint:
    """Dual value, gradient and Hessian at theta, and the Lagrangian maximizer."""

    theta: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray
    r: np.ndarray


def _dual_point(
    theta: np.ndarray, forms: np.ndarray, offsets: np.ndarray, channel: np.ndarray
) -> Optional[_DualPoint]:
    """Dual function at multipliers theta; None outside its domain A > 0.

    The constraints read tr(R D_i) <= b_i with D = (I, -Psi), b = (P, -gamma0)
    and A = sum_i theta_i D_i. With A = L L^H and the SVD
    (H_eff / sigma_c) L^-H = U diag(sqrt(kappa)) V^H, W = L^-H V has
    W^H A W = I and W^H H_eff^H H_eff W / sigma_c^2 = diag(kappa), so the
    Lagrangian maximizer is the waterfilling R = W diag((1 - 1/kappa)^+) W^H,
    g = sum_{kappa > 1} (ln kappa - 1 + 1/kappa) + theta . b, and the gradient
    is the residuals b_i - tr(R D_i). R moves with A as
    dR = -W (Gamma o W^H dA W) W^H, Gamma the divided differences of
    (kappa - 1)^+ (Daleckii-Krein), which gives the Hessian.
    """
    a = np.tensordot(theta, forms, axes=1)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    w = np.linalg.inv(chol).conj().T
    _, sv, vh = np.linalg.svd(channel @ w)
    kappa = np.zeros(len(w))
    kappa[: sv.size] = sv**2
    w = w @ vh.conj().T
    active = kappa > 1.0
    excess = np.maximum(kappa - 1.0, 0.0)
    x = excess / np.maximum(kappa, 1.0)  # (1 - 1/kappa)^+
    f = w.conj().T @ forms @ w
    gamma = np.divide(
        excess[:, None] - excess[None, :],
        kappa[:, None] - kappa[None, :],
        out=(active[:, None] & active[None, :]).astype(float),
        where=active[:, None] != active[None, :],
    )
    return _DualPoint(
        theta=theta,
        value=float(np.sum(np.log(kappa[active]) - x[active]) + theta @ offsets),
        grad=offsets - np.real(np.diagonal(f, axis1=1, axis2=2)) @ x,
        hess=np.real(np.einsum("ab,iab,jab->ij", gamma, f.conj(), f)),
        r=(w * x) @ w.conj().T,
    )


def _newton_step(
    point: _DualPoint, forms: np.ndarray, offsets: np.ndarray, channel: np.ndarray
) -> Optional[_DualPoint]:
    """Damped Newton step on the dual, projected onto nu >= 0.

    A trial is accepted when it decreases g by the Armijo rule or, once g is
    flat to rounding, when it shrinks the Newton decrement measured in the
    current Hessian (Deuflhard's natural monotonicity test). Returns None
    when no trial does.
    """
    hess_inv = np.linalg.pinv(point.hess)
    direction = -hess_inv @ point.grad
    decrement = -float(point.grad @ direction)
    if not decrement > 0.0:
        return None
    step = 1.0
    while step > 1e-12:
        trial = point.theta + step * direction
        trial[1:] = np.maximum(trial[1:], 0.0)
        cand = _dual_point(trial, forms, offsets, channel)
        if cand is not None and (
            cand.value < point.value + 0.25 * float(point.grad @ (trial - point.theta))
            or float(cand.grad @ hess_inv @ cand.grad) < (1.0 - 0.5 * step) ** 2 * decrement
        ):
            return cand
        step *= 0.5
    return None


def _make_feasible(
    r: np.ndarray, problem: MaxDetProblem, top: Optional[np.ndarray]
) -> np.ndarray:
    """Rescale r to the power budget with equality, then mix in the
    max-sensing covariance `top` until the sensing constraint holds."""
    used = problem.power_budget - _slacks(r, problem)[0]
    if used <= 0.0:
        return top if top is not None else r
    r = 0.5 * (r + r.conj().T) * (problem.power_budget / used)
    if top is None:
        return r
    # the slack is affine in mix: aim at zero, then step past what rounding leaves
    s_slack, top_slack = _slacks(r, problem)[1], _slacks(top, problem)[1]
    mix, out = 0.0, r
    while s_slack < 0.0 and mix < 1.0:
        mix = min(1.0, max(mix - s_slack / (top_slack - s_slack), np.nextafter(mix, 1.0)))
        out = (1.0 - mix) * r + mix * top
        s_slack = _slacks(out, problem)[1]
    return out


def solve_maxdet(
    problem: MaxDetProblem,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> SdpSolution:
    """Solve the relaxed covariance problem through its two-multiplier dual.

    At nu = 0 the dual g(mu, nu) (`_dual_point`) is plain waterfilling and
    the water level minimizes it exactly. If that leaves the sensing
    constraint violated, damped Newton steps on g follow (`_newton_step`).
    Every iterate's Lagrangian maximizer is made primal feasible, so each
    round has a feasible rate and the certified bound g; the solve stops
    when their gap is at most tol nats (`optimal`), after max_iter Newton
    steps (`max_iter`) or when no step decreases g (`stalled`).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    budget = problem.power_budget
    eye = np.eye(problem.dim)
    zero = SdpSolution(
        r_bb=np.zeros_like(eye, dtype=complex),
        objective_bits=0.0,
        dual_bits=0.0,
        status="optimal",
    )
    if budget <= 0:
        if problem.sensing_active:
            zero.status = "infeasible"
            zero.message = "zero power budget cannot meet the sensing constraint"
        return zero
    forms, offsets, top = eye[None], np.array([budget]), None
    if problem.sensing_active:
        lams, vecs = np.linalg.eigh(problem.psi)
        bound = budget * float(lams[-1])
        if bound <= problem.gamma0:
            zero.status = "infeasible"
            zero.message = (
                f"sensing constraint infeasible: budget*lambda_max = {bound:.6g} "
                f"<= gamma0 = {problem.gamma0:.6g}"
            )
            return zero
        v = vecs[:, -1]
        top = budget * np.outer(v, v.conj())
        forms = np.stack([eye, -problem.psi])
        offsets = np.array([budget, -problem.gamma0])
    channel = problem.h_eff / np.sqrt(problem.sigma_c_sq)
    # at nu = 0 the kappa are the squared singular values of the channel
    # over mu, so the water level sets mu exactly
    sv = np.linalg.svd(channel, compute_uv=False)
    inv = np.sort(1.0 / sv[sv > 0.0] ** 2)
    theta = np.eye(len(offsets))[0]  # (mu, nu) = (1, 0)
    if inv.size:
        levels = (budget + np.cumsum(inv)) / np.arange(1, inv.size + 1)
        theta[0] = 1.0 / levels[np.flatnonzero(levels > inv)[-1]]
    point = _dual_point(theta, forms, offsets, channel)
    steps = 0
    message = ""
    while True:
        r = _make_feasible(point.r, problem, top)
        # the rate from singular values keeps its digits where the slogdet of
        # I + H R H^H / sigma_c^2 loses them to the channel's conditioning
        bits = _candidate_se_bits(_factor(r), problem)
        gap = point.value - bits * np.log(2.0)
        if gap <= tol or steps >= max_iter:
            status = "optimal" if gap <= tol else "max_iter"
            break
        nxt = _newton_step(point, forms, offsets, channel)
        if nxt is None:
            status = "stalled"
            message = f"no dual step decreases the gap {gap:.3g} nats"
            break
        point = nxt
        steps += 1
    return SdpSolution(
        r_bb=r,
        objective_bits=bits,
        dual_bits=point.value / np.log(2.0),
        status=status,
        newton_steps=steps,
        message=message,
    )


def randomize_rank(
    solution: SdpSolution,
    problem: MaxDetProblem,
    rng: np.random.Generator,
    trials: Optional[int] = None,
) -> np.ndarray:
    """Recover a rank-n_streams beamformer from the relaxed optimum.

    Factor the top n_streams eigenspace of R*, sketch it with i.i.d. CN(0,1)
    matrices, rescale every candidate to the power budget with equality and
    return the rate-best candidate meeting the sensing constraint. The
    identity sketch is always injected first so an already rank-n_streams
    optimum is recovered exactly. A `max_iter` or `stalled` solution is
    primal feasible too and is randomized like an optimal one.
    """
    if solution.status == "infeasible":
        raise ValueError("cannot randomize an infeasible solution")
    ns = problem.n_streams
    if trials is None:
        trials = TRIALS_PER_STREAM * ns
    factor = _factor(solution.r_bb, ns)
    feas_tol = 1e-9 * max(1.0, abs(problem.gamma0))

    best_w = None
    best_se = -np.inf
    for i in range(trials + 1):
        if i == 0:
            z = np.eye(ns, dtype=complex)
        else:
            z = (
                rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns))
            ) / np.sqrt(2.0)
        w = factor @ z
        # ||w||_F^2 summed in the (stream, antenna) order of w^H o w^T: another
        # order moves the rescaled candidate, and all built on it, by rounding
        power = float(np.real(np.sum(np.multiply(w.conj().T, w.T, order="C"))))
        if power <= 0.0:
            continue
        w = w * np.sqrt(problem.power_budget / power)
        if problem.sensing_active:
            sens = float(np.real(np.sum(w.conj() * (problem.psi @ w))))
            if sens < problem.gamma0 - feas_tol:
                continue
        se = _candidate_se_bits(w, problem)
        if se > best_se:
            best_se = se
            best_w = w
    if best_w is None:
        raise RandomizationFailure(
            f"no candidate out of {trials + 1} met the sensing constraint"
        )
    return best_w


def sdr_rrs(problem: MaxDetProblem, rng: np.random.Generator) -> SdrResult:
    """Full SDR pipeline: solve the relaxation, then randomize the rank.

    The status is the solver's own (`optimal`, `max_iter`, `stalled`,
    `infeasible`), or `randomization_failed` when no sketch meets the
    sensing constraint even after the sketch count is increased once. A
    relaxation stopped short of its gap tolerance still yields a
    beamformer; only `infeasible` and `randomization_failed` leave w_bb
    None.
    """
    solution = solve_maxdet(problem)
    if solution.status == "infeasible":
        return SdrResult(
            w_bb=None, se_bits=np.nan, status="infeasible", solution=solution
        )
    try:
        w = randomize_rank(
            solution, problem, rng, trials=TRIALS_PER_STREAM * problem.n_streams
        )
    except RandomizationFailure:
        try:
            w = randomize_rank(
                solution, problem, rng, trials=RETRY_PER_STREAM * problem.n_streams
            )
        except RandomizationFailure:
            return SdrResult(
                w_bb=None,
                se_bits=np.nan,
                status="randomization_failed",
                solution=solution,
            )
    se = _candidate_se_bits(w, problem)
    return SdrResult(w_bb=w, se_bits=se, status=solution.status, solution=solution)
