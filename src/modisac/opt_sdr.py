"""Determinant-maximization SDP relaxation and Gaussian randomization.

The rank-relaxed digital covariance problem

    max  log det(I + H_eff R H_eff^H / sigma_c^2)
    s.t. tr(R C) <= budget,  tr(R Psi) >= gamma0,  R >= 0

is solved by a log-barrier interior-point method with damped Newton steps,
each computed in closed form in O(n^3) from a Cholesky factor of R and one
eigendecomposition (Vandenberghe, Boyd & Wu 1998). C defaults to the
identity (the per-subarray power proxy); passing the analog Gram matrix
instead gives the exact transmit-power constraint. A rank-n_streams
beamformer is then recovered by scaling random Gaussian sketches of the
optimal covariance and keeping the best rate among those meeting the
sensing constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beamform import PhiSet, SubspaceBasis, scnr_reduced, sensing_form
from .channel import SensingResponses


class RandomizationFailure(RuntimeError):
    """No randomized candidate satisfied the sensing constraint."""


class SdpInfeasibleError(RuntimeError):
    """The SDP has no strictly feasible point; message names the constraint."""


@dataclass
class MaxDetProblem:
    """Problem data for the relaxed digital covariance optimization.

    power_weight is the Hermitian PD matrix C in tr(R C) <= power_budget;
    None means identity. alphas/phi_set are optional extras that let results
    report the achieved reduced SCNR.
    """

    h_eff: np.ndarray
    sigma_c_sq: float
    power_budget: float
    psi: np.ndarray
    gamma0: float
    n_streams: int
    power_weight: Optional[np.ndarray] = None
    alphas: Optional[np.ndarray] = None
    phi_set: Optional[PhiSet] = None

    @property
    def dim(self) -> int:
        return self.h_eff.shape[1]

    @property
    def sensing_active(self) -> bool:
        return self.gamma0 > 0.0

    def weight(self) -> np.ndarray:
        if self.power_weight is None:
            return np.eye(self.dim)
        return self.power_weight


@dataclass
class SdpSolution:
    """Optimal covariance with feasibility and stationarity diagnostics."""

    r_bb: np.ndarray
    objective_nats: float
    objective_bits: float
    kkt_residual: float
    status: str
    newton_steps: int = 0
    message: str = ""


@dataclass
class SdrConfig:
    """Knobs for the SDR pipeline: solver tolerance and randomization size."""

    tol: float = 1e-7
    max_iter: int = 500
    trials_per_stream: int = 10
    retry_per_stream: int = 100


@dataclass
class SdrResult:
    """Recovered digital beamformer plus achieved metrics."""

    w_bb: Optional[np.ndarray]
    se_bits: float
    scnr: float
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
    exact_power: bool = False,
) -> MaxDetProblem:
    """Reduced problem over R_BB; proxy power budget unless exact_power.

    The proxy constrains M*||W_BB||_F^2 (tr(R_BB) <= n_streams/M); the exact
    variant weights the trace by the analog Gram matrix so that the budget
    matches the true radiated power n_streams.
    """
    h_eff = h @ basis.u_tilde
    psi = sensing_form(phi_set, alphas, scnr_min)
    if exact_power:
        gram = basis.u_tilde.conj().T @ basis.u_tilde
        weight = 0.5 * (gram + gram.conj().T)
        budget = float(n_streams)
    else:
        weight = None
        budget = n_streams / basis.m_antennas
    return MaxDetProblem(
        h_eff=h_eff,
        sigma_c_sq=sigma_c_sq,
        power_budget=budget,
        psi=psi,
        gamma0=phi_set.gamma0,
        n_streams=n_streams,
        power_weight=weight,
        alphas=np.asarray(alphas, dtype=float),
        phi_set=phi_set,
    )


def make_fullspace_problem(
    h: np.ndarray,
    responses: SensingResponses,
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
    for q, resp in enumerate(responses.objects):
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
        alphas=alphas,
    )


def _slacks(
    r: np.ndarray, problem: MaxDetProblem, weight: np.ndarray
) -> tuple[float, float]:
    p_slack = problem.power_budget - float(np.real(np.sum(r * weight.T)))
    s_slack = (
        float(np.real(np.sum(r * problem.psi.T))) - problem.gamma0
        if problem.sensing_active
        else np.inf
    )
    return p_slack, s_slack


def _barrier_objective(
    r: np.ndarray, t: float, problem: MaxDetProblem, weight: np.ndarray
) -> float:
    """Barrier function to minimize; +inf outside the strict interior."""
    p_slack, s_slack = _slacks(r, problem, weight)
    if p_slack <= 0.0 or s_slack <= 0.0:
        return np.inf
    try:
        chol_r = np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        return np.inf
    logdet_r = 2.0 * float(np.sum(np.log(np.real(np.diag(chol_r)))))
    a = _rate_matrix(r, problem)
    sign, logdet_a = np.linalg.slogdet(a)
    if sign.real <= 0:
        return np.inf
    val = -t * float(logdet_a) - logdet_r - np.log(p_slack)
    if problem.sensing_active:
        val -= np.log(s_slack)
    return val


def _rate_matrix(r: np.ndarray, problem: MaxDetProblem) -> np.ndarray:
    h = problem.h_eff
    a = np.eye(h.shape[0], dtype=complex) + (h @ r @ h.conj().T) / problem.sigma_c_sq
    return 0.5 * (a + a.conj().T)


def _objective_nats(r: np.ndarray, problem: MaxDetProblem) -> float:
    sign, logdet = np.linalg.slogdet(_rate_matrix(r, problem))
    return float(logdet)


def _initial_point(problem: MaxDetProblem, weight: np.ndarray) -> np.ndarray:
    """Strictly feasible start, or raise with the violated constraint named."""
    n = problem.dim
    p = problem.power_budget
    tr_c = float(np.real(np.trace(weight)))
    iso = np.eye(n, dtype=complex) / tr_c
    if not problem.sensing_active:
        return 0.5 * p * iso
    vals, vecs = np.linalg.eigh(weight)
    inv_half = (vecs / np.sqrt(vals)[None, :]) @ vecs.conj().T
    pencil = inv_half @ problem.psi @ inv_half
    pencil = 0.5 * (pencil + pencil.conj().T)
    pvals, pvecs = np.linalg.eigh(pencil)
    lam = float(pvals[-1])
    bound = p * lam
    if bound <= problem.gamma0:
        raise SdpInfeasibleError(
            f"sensing constraint infeasible: budget*lambda_max = {bound:.6g} "
            f"<= gamma0 = {problem.gamma0:.6g}"
        )
    v = inv_half @ pvecs[:, -1]
    rank1 = np.outer(v, v.conj())  # unit weighted power: tr(rank1 @ weight) == 1
    a = float(np.real(np.trace(problem.psi))) / tr_c
    for j in range(51):
        rho = 1.0 - 0.01 * 0.5**j
        if rho * bound <= problem.gamma0:
            continue
        target = 0.5 * (problem.gamma0 + rho * bound)
        if abs(lam - a) < 1e-300:
            s = 0.9
        else:
            s = (target / (rho * p) - a) / (lam - a)
        s = float(np.clip(s, 0.0, 1.0 - 1e-9))
        r = rho * p * ((1.0 - s) * iso + s * rank1)
        p_slack, s_slack = _slacks(r, problem, weight)
        if p_slack > 0.0 and s_slack > 0.0:
            return r
    raise SdpInfeasibleError(
        "sensing constraint infeasible: no strictly interior point found"
    )


def _newton_direction(
    r: np.ndarray, t: float, problem: MaxDetProblem, weight: np.ndarray
) -> tuple[np.ndarray, float]:
    """Newton direction of the barrier at r and its slope <gradient, direction>.

    With R = L L^H, M = H_eff^H A^-1 H_eff / sigma_c^2 (A the rate matrix),
    L^H M L = V diag(lam) V^H and P = L V, the coordinates Z = P^-1 dR P^-H
    turn the log-det Hessian into the elementwise map
    Z -> (t lam_i lam_j + 1) Z. The power and sensing barriers add one
    rank-one term each, removed by Woodbury. The elementwise factor is >= 1
    and the Woodbury capacitance is >= I, so both solves are positive
    definite.
    """
    p_slack, s_slack = _slacks(r, problem, weight)
    chol = np.linalg.cholesky(r)
    b = problem.h_eff @ chol
    lml = b.conj().T @ np.linalg.solve(_rate_matrix(r, problem), b) / problem.sigma_c_sq
    lam, v = np.linalg.eigh(0.5 * (lml + lml.conj().T))
    lam = np.maximum(lam, 0.0)  # M is PSD; drop rounding below zero
    p = chol @ v
    # rank-one gradient terms u_k; each adds u_k <u_k, .> to the Hessian
    terms = [p.conj().T @ weight @ p / p_slack]
    if problem.sensing_active:
        terms.append(-(p.conj().T @ problem.psi @ p) / s_slack)
    u = np.stack([0.5 * (x + x.conj().T) for x in terms])
    grad = np.diag(-t * lam - 1.0) + u.sum(axis=0)
    d = t * np.outer(lam, lam) + 1.0
    u_d = u / d
    cap = np.eye(len(u)) + np.real(np.einsum("aij,bij->ab", u.conj(), u_d))
    z0 = grad / d
    y = np.linalg.solve(cap, np.real(np.einsum("aij,ij->a", u.conj(), z0)))
    z = np.einsum("a,aij->ij", y, u_d) - z0
    delta = p @ z @ p.conj().T
    return 0.5 * (delta + delta.conj().T), float(np.real(np.vdot(grad, z)))


def solve_maxdet(
    problem: MaxDetProblem,
    tol: float = 1e-7,
    max_iter: int = 500,
) -> SdpSolution:
    """Log-barrier interior-point solve of the relaxed covariance problem.

    Each Newton direction is solved in closed form in O(n^3) by
    `_newton_direction`; the outer loop multiplies the barrier weight by 10
    until the gap surrogate m/t (m = number of barrier terms) drops below
    tol. The returned covariance is rescaled to meet the power budget with
    equality, which never hurts the objective or the sensing constraint.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = problem.dim
    weight = problem.weight()
    zero = SdpSolution(
        r_bb=np.zeros((n, n), dtype=complex),
        objective_nats=0.0,
        objective_bits=0.0,
        kkt_residual=0.0,
        status="optimal",
    )
    if problem.power_budget <= 0:
        if problem.sensing_active:
            zero.status = "infeasible"
            zero.message = "zero power budget cannot meet the sensing constraint"
        return zero
    try:
        r = _initial_point(problem, weight)
    except SdpInfeasibleError as err:
        zero.status = "infeasible"
        zero.message = str(err)
        return zero

    m_terms = 3 if problem.sensing_active else 2
    t = 1.0
    steps = 0
    status = "optimal"
    newton_lambda = np.inf
    while True:
        for _ in range(60):
            if steps >= max_iter:
                status = "max_iter"
                break
            delta, slope = _newton_direction(r, t, problem, weight)
            if slope < 0.0:
                newton_lambda = np.sqrt(-slope)
            # approximate centering suffices: the objective error the Newton
            # decrement leaves behind is ~lambda^2/t, far below the gap m/t
            if slope >= 0.0 or 0.5 * (-slope) < 1e-4:
                break
            f_cur = _barrier_objective(r, t, problem, weight)
            step = 1.0
            moved = False
            while step >= 1e-14:
                r_new = r + step * delta
                r_new = 0.5 * (r_new + r_new.conj().T)
                f_new = _barrier_objective(r_new, t, problem, weight)
                if f_new <= f_cur + 0.25 * step * slope:
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
            r = r_new
            steps += 1
            if f_cur - f_new < 4e-16 * (1.0 + abs(f_new)):
                break  # progress below the floating-point floor
        gap = m_terms / t
        if status == "max_iter" or gap < tol:
            break
        t *= 10.0

    # Full-power rescale: the objective is nondecreasing in a uniform scale-up
    # and the sensing value scales with it, so equality at the budget is free.
    used = problem.power_budget - _slacks(r, problem, weight)[0]
    if used > 0:
        r = r * (problem.power_budget / used)
    p_slack, s_slack = _slacks(r, problem, weight)
    min_eig = float(np.linalg.eigvalsh(r)[0])
    # stationarity in the Newton metric: the raw gradient norm is O(t) with
    # cancelling barrier terms and says nothing about centering quality
    kkt = max(
        max(0.0, -p_slack),
        max(0.0, -s_slack) if problem.sensing_active else 0.0,
        max(0.0, -min_eig),
        float(newton_lambda) if np.isfinite(newton_lambda) else 0.0,
    )
    nats = _objective_nats(r, problem)
    return SdpSolution(
        r_bb=r,
        objective_nats=nats,
        objective_bits=nats / np.log(2.0),
        kkt_residual=kkt,
        status=status,
        newton_steps=steps,
    )


def _candidate_se_bits(w: np.ndarray, problem: MaxDetProblem) -> float:
    s = np.linalg.svd(problem.h_eff @ w, compute_uv=False)
    return float(np.sum(np.log2(1.0 + s**2 / problem.sigma_c_sq)))


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
    optimum is recovered exactly. A `max_iter` solution is a strictly
    feasible interior iterate and is randomized like an optimal one.
    """
    if solution.status == "infeasible":
        raise ValueError("cannot randomize an infeasible solution")
    ns = problem.n_streams
    if trials is None:
        trials = 10 * ns
    vals, vecs = np.linalg.eigh(solution.r_bb)
    vals, vecs = vals[::-1][:ns], vecs[:, ::-1][:, :ns]
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]
    weight = problem.weight()
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
        power = float(np.real(np.sum((w.conj().T @ weight) * w.T)))
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


def sdr_rrs(
    problem: MaxDetProblem,
    config: Optional[SdrConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> SdrResult:
    """Full SDR pipeline: solve the relaxation, then randomize the rank.

    On randomization failure the sketch count is increased once before the
    failure is reported. A relaxation stopped at its iteration cap still
    yields a beamformer, reported with status `max_iter`.
    """
    cfg = config or SdrConfig()
    rng = rng or np.random.default_rng(0)
    solution = solve_maxdet(problem, tol=cfg.tol, max_iter=cfg.max_iter)
    if solution.status == "infeasible":
        return SdrResult(
            w_bb=None, se_bits=np.nan, scnr=np.nan, status="infeasible",
            solution=solution,
        )
    try:
        w = randomize_rank(
            solution, problem, rng, trials=cfg.trials_per_stream * problem.n_streams
        )
    except RandomizationFailure:
        try:
            w = randomize_rank(
                solution, problem, rng, trials=cfg.retry_per_stream * problem.n_streams
            )
        except RandomizationFailure:
            return SdrResult(
                w_bb=None,
                se_bits=np.nan,
                scnr=np.nan,
                status="randomization_failed",
                solution=solution,
            )
    se = _candidate_se_bits(w, problem)
    scnr_val = np.nan
    if problem.phi_set is not None and problem.alphas is not None:
        scnr_val = scnr_reduced(w, problem.phi_set, problem.alphas)
    status = "max_iter" if solution.status == "max_iter" else "ok"
    return SdrResult(w_bb=w, se_bits=se, scnr=scnr_val, status=status, solution=solution)


def fdb_upper_bound(
    problem: MaxDetProblem, tol: float = 1e-7, max_iter: int = 500
) -> float:
    """Rate of the rank-unconstrained optimum: the fully digital bound."""
    solution = solve_maxdet(problem, tol=tol, max_iter=max_iter)
    if solution.status == "infeasible":
        raise SdpInfeasibleError(solution.message or "SDP infeasible")
    return solution.objective_bits
