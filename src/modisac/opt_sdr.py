"""Determinant-maximization SDP relaxation and Gaussian randomization.

The rank-relaxed digital covariance problem

    max  log det(I + H_eff R H_eff^H / sigma_c^2)
    s.t. tr(R) <= budget,  tr(R Psi) >= gamma0,  R >= 0

is solved through its dual in the two multipliers mu (power) and nu
(sensing): for fixed multipliers the Lagrangian maximizer is a waterfilling
in closed form, and damped Newton steps on the convex two-scalar dual (a
2x2 Hessian) find the multipliers (Yu & Lan 2007; Palomar & Fonollosa 2005).
The dual value certifies an upper bound on the relaxation.
`make_maxdet_problem` forms the problem, sensing constraint included, in
any (K, M, c) block transmit basis and is the one place that sets the
stream count and the power budget n_streams/M: over R_BB (the analog
blocks) that is the per-subarray power proxy; with N blocks of 1x1 ones
(M = 1) it is the full N-dimensional problem under the exact transmit
power. A rank-n_streams beamformer is then recovered by scaling random
Gaussian sketches of the optimal covariance and keeping the best rate among
those meeting the sensing constraint. Both constraints are one list,
tr(R D_i) <= b_i with D = (I, -Psi) and b = (budget, -gamma0)
(`MaxDetProblem.constraints`): the dual's multipliers weight it, and
RM-JGD's barrier sums over the same list (`opt_manifold.reduce_b`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .beamform import _rate_bits, phi_matrices, sensing_form, times_analog
from .channel import ObjectResponse, numerical_rank


class RandomizationFailure(RuntimeError):
    """No randomized candidate satisfied the sensing constraint."""


@dataclass(frozen=True)
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

    @cached_property
    def constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """Forms D and offsets b of the constraints tr(R D_i) <= b_i.

        D = (I, -Psi) and b = (P, -gamma0): the power budget, then the
        sensing floor, whose row is left out when gamma0 <= 0; built once, read-only.
        """
        forms, offsets = np.eye(self.dim)[None], np.array([self.power_budget])
        if self.sensing_active:
            forms = np.stack([forms[0], -self.psi])
            offsets = np.array([self.power_budget, -self.gamma0])
        forms.flags.writeable = offsets.flags.writeable = False
        return forms, offsets


@dataclass
class SdpSolution:
    """Primal-feasible covariance, its factor, its rate and the dual bound on the optimum.

    r_bb meets the power budget with equality and the sensing constraint.
    w_bb = `_factor(r_bb)`, zeros when infeasible or at zero budget, has its
    columns in descending eigenvalue order: w_bb[:, :n] is the best rank-n
    factor. objective_bits is its rate and dual_bits the dual value at the
    final multipliers, an upper bound on every feasible rate. newton_steps
    counts dual Newton steps.
    """

    r_bb: np.ndarray
    w_bb: np.ndarray
    objective_bits: float
    dual_bits: float
    status: str
    newton_steps: int = 0
    message: str = ""


# Gaussian sketches per stream in the first randomization round, and in the
# one retry after no sketch met the sensing constraint.
TRIALS_PER_STREAM = 10
RETRY_PER_STREAM = 100
# `solve_maxdet` stops once the duality gap is at most GAP_TOL nats, or
# after MAX_NEWTON_STEPS dual Newton steps.
GAP_TOL = 1e-10
MAX_NEWTON_STEPS = 500
# Singular values of H_eff at or below this fraction of the largest count as
# zero: the default stream count, and the most streams `reduce_b` accepts.
RANK_TOL = 1e-5


@dataclass
class SdrResult:
    """Recovered digital beamformer plus its achieved rate."""

    w_bb: Optional[np.ndarray]
    se_bits: float
    status: str


def make_maxdet_problem(
    h: np.ndarray,
    basis: np.ndarray,
    responses: tuple[ObjectResponse, ...],
    w: np.ndarray,
    scnr_min: float,
    sigma_c_sq: float,
    sigma_s_sq: float,
    n_streams: Optional[int],
) -> MaxDetProblem:
    """Problem over R with R_X = B R B^H: the SCNR floor under filter w and tr(R) <= n_s/M.

    B is a (K, M, c) block basis. tr(R Psi) >= gamma0 = scnr_min * sigma_s^2
    * ||w||^2. n_streams None takes n_s as the numerical rank of H_eff = H B
    at RANK_TOL. The analog blocks give the proxy budget M*||W_BB||_F^2 <=
    n_s; np.ones((N, 1, 1)) gives the full problem under the exact transmit
    power.
    """
    h_eff = times_analog(h, basis)
    if n_streams is None:
        n_streams = numerical_rank(h_eff, RANK_TOL)
    phis = phi_matrices(basis, responses, w)
    return MaxDetProblem(
        h_eff=h_eff,
        sigma_c_sq=sigma_c_sq,
        power_budget=n_streams / basis.shape[1],
        psi=sensing_form(phis, responses, scnr_min),
        gamma0=scnr_min * sigma_s_sq * float(np.real(w.conj() @ w)),
        n_streams=n_streams,
    )


def _slacks(r: np.ndarray, problem: MaxDetProblem) -> np.ndarray:
    """Residuals b_i - tr(R D_i), one per row of `problem.constraints`."""
    forms, offsets = problem.constraints
    # tr(R D) as the sum of all of R o D^T, not of the diagonal alone: another
    # summation order moves every covariance `_make_feasible` rescales by rounding
    return offsets - np.array([np.real(np.sum(r * d.T)) for d in forms])


def _factor(r: np.ndarray) -> np.ndarray:
    """F with F F^H = r (negative eigenvalues clipped), columns in descending eigenvalue order."""
    vals, vecs = np.linalg.eigh(r)
    return vecs[:, ::-1] * np.sqrt(np.clip(vals[::-1], 0.0, None))[None, :]


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

    The constraints read tr(R D_i) <= b_i (`MaxDetProblem.constraints`)
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


def water_level(inv: np.ndarray, budget: float, weight: float = 0.0) -> float:
    """Water level of max sum ln(1 + p_i / inv_i) + weight ln(s), s = budget - sum p_i.

    inv holds the channels' positive inverse gains in ascending order; the
    optimal powers are (level - inv_i)^+. Weight 0 is plain waterfilling
    under sum p_i <= budget (budget > 0); with weight > 0 the slack s is one
    more channel and ends at weight * level, or, where budget <= weight *
    inv_0 and no channel is active, at the budget, with level budget/weight.
    """
    levels = (budget + np.cumsum(inv)) / (np.arange(1, inv.size + 1) + weight)
    active = np.flatnonzero(levels > inv)
    return float(levels[active[-1]]) if active.size else budget / weight


def solve_maxdet(problem: MaxDetProblem) -> SdpSolution:
    """Solve the relaxed covariance problem through its two-multiplier dual.

    At nu = 0 the dual g(mu, nu) (`_dual_point`) is plain waterfilling and
    the water level minimizes it exactly. If that leaves the sensing
    constraint violated, damped Newton steps on g follow (`_newton_step`).
    Every iterate's Lagrangian maximizer is made primal feasible, so each
    round has a feasible rate and the certified bound g; the solve stops
    when their gap is at most GAP_TOL nats (`optimal`), after
    MAX_NEWTON_STEPS Newton steps (`max_iter`) or when no step decreases g
    (`stalled`).
    """
    budget = problem.power_budget
    zero = SdpSolution(
        r_bb=np.zeros((problem.dim,) * 2, dtype=complex),
        w_bb=np.zeros((problem.dim,) * 2, dtype=complex),
        objective_bits=0.0,
        dual_bits=0.0,
        status="optimal",
    )
    if budget <= 0:
        if problem.sensing_active:
            zero.status = "infeasible"
            zero.message = "zero power budget cannot meet the sensing constraint"
        return zero
    forms, offsets = problem.constraints
    top = None
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
    channel = problem.h_eff / np.sqrt(problem.sigma_c_sq)
    # at nu = 0 the kappa are the squared singular values of the channel
    # over mu, so the water level sets mu exactly
    sv = np.linalg.svd(channel, compute_uv=False)
    inv = np.sort(1.0 / sv[sv > 0.0] ** 2)
    theta = np.eye(len(offsets))[0]  # (mu, nu) = (1, 0)
    if inv.size:
        theta[0] = 1.0 / water_level(inv, budget)
    point = _dual_point(theta, forms, offsets, channel)
    steps = 0
    message = ""
    while True:
        r = _make_feasible(point.r, problem, top)
        # the rate from singular values keeps its digits where the slogdet of
        # I + H R H^H / sigma_c^2 loses them to the channel's conditioning
        w_bb = _factor(r)
        bits = _rate_bits(problem.h_eff @ w_bb, problem.sigma_c_sq)
        gap = point.value - bits * np.log(2.0)
        if gap <= GAP_TOL or steps >= MAX_NEWTON_STEPS:
            status = "optimal" if gap <= GAP_TOL else "max_iter"
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
        w_bb=w_bb,
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
    trials: int,
) -> np.ndarray:
    """Recover a rank-n_streams beamformer from the relaxed optimum.

    Sketch the best rank-n_streams factor F of R*, the first n_streams
    columns of `solution.w_bb`, with `trials` i.i.d. CN(0,1) matrices z,
    rescale every candidate F z to the power budget with equality and return
    the rate-best candidate meeting the sensing constraint, the first on a
    tie. The identity sketch is always injected first so an already
    rank-n_streams optimum is recovered exactly. All candidates are scored
    at once in the n_streams-square sketch space: power tr(z^H F^H F z),
    sensing tr(z^H F^H Psi F z) and the rate from the singular values of
    (H_eff F) z, each scaled by budget/power; only the winner is formed. A
    `max_iter` or `stalled` solution is primal feasible too and is
    randomized like an optimal one.
    """
    if solution.status == "infeasible":
        raise ValueError("cannot randomize an infeasible solution")
    ns = problem.n_streams
    factor = solution.w_bb[:, :ns]
    # one draw, in the order of a real then an imaginary (ns, ns) draw per trial
    draws = rng.standard_normal((trials, 2, ns, ns))
    z = np.empty((trials + 1, ns, ns), dtype=complex)
    z[0], z[1:] = np.eye(ns), (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
    power = np.real(np.sum(z.conj() * (factor.conj().T @ factor @ z), axis=(1, 2)))
    keep = power > 0.0
    scale = np.divide(problem.power_budget, power, out=np.zeros_like(power), where=keep)
    if problem.sensing_active:
        form = factor.conj().T @ (problem.psi @ factor)
        sens = scale * np.real(np.sum(z.conj() * (form @ z), axis=(1, 2)))
        keep &= ~(sens < problem.gamma0 - 1e-9 * max(1.0, abs(problem.gamma0)))
    sv = np.linalg.svd((problem.h_eff @ factor) @ z, compute_uv=False)
    se = np.sum(np.log2(1.0 + scale[:, None] * sv**2 / problem.sigma_c_sq), axis=1)
    keep &= ~np.isnan(se)
    if not keep.any():
        raise RandomizationFailure(f"no candidate out of {trials + 1} met the sensing constraint")
    w = factor @ z[np.argmax(np.where(keep, se, -np.inf))]
    # ||w||_F^2 summed in the (stream, antenna) order of w^H o w^T: another
    # order moves the rescaled candidate, and all built on it, by rounding
    power = float(np.real(np.sum(np.multiply(w.conj().T, w.T, order="C"))))
    return w * np.sqrt(problem.power_budget / power)


def sdr_rrs(problem: MaxDetProblem, rng: np.random.Generator, solution: SdpSolution) -> SdrResult:
    """SDR recovery: randomize `solution`, the relaxation `solve_maxdet(problem)`.

    `randomize_rank` draws TRIALS_PER_STREAM * n_streams sketches, and
    RETRY_PER_STREAM * n_streams once more when none meets the sensing
    constraint. The status is the solver's own (`optimal`, `max_iter`,
    `stalled`, `infeasible`), or `randomization_failed` when the retry
    misses too. A relaxation stopped short of its gap tolerance still
    yields a beamformer; only `infeasible` and `randomization_failed` leave
    w_bb None.
    """
    if solution.status == "infeasible":
        return SdrResult(w_bb=None, se_bits=np.nan, status="infeasible")
    for per_stream in (TRIALS_PER_STREAM, RETRY_PER_STREAM):
        try:
            w = randomize_rank(solution, problem, rng, trials=per_stream * problem.n_streams)
            break
        except RandomizationFailure:
            pass
    else:
        return SdrResult(w_bb=None, se_bits=np.nan, status="randomization_failed")
    se = _rate_bits(problem.h_eff @ w, problem.sigma_c_sq)
    return SdrResult(w_bb=w, se_bits=se, status=solution.status)
