"""Independent closed-form oracles used to pin expected values in tests."""

import dataclasses

import numpy as np


def waterfilling_se_bits(gains, budget: float) -> float:
    """Capacity of parallel channels: max sum log2(1 + p_i g_i), sum p_i <= budget.

    Classic water level over the channels sorted by gain; channels whose
    inverse gain sits above the water get nothing.
    """
    gains = np.sort(np.asarray(gains, dtype=float))[::-1]
    gains = gains[gains > 0]
    if gains.size == 0 or budget <= 0:
        return 0.0
    inv = 1.0 / gains
    for k in range(gains.size, 0, -1):
        level = (budget + np.sum(inv[:k])) / k
        if level - inv[k - 1] >= 0:
            powers = level - inv[:k]
            return float(np.sum(np.log2(1.0 + powers * gains[:k])))
    return 0.0


def channel_gains(h_eff: np.ndarray, sigma_c_sq: float) -> np.ndarray:
    """Noise-normalized eigenchannel gains of an effective channel matrix."""
    s = np.linalg.svd(h_eff, compute_uv=False)
    return s**2 / sigma_c_sq


def exact_power_problems(data):
    """The full-space problem of a `ScenarioData` and the same restricted to col(U~).

    The restriction is R = B X B^H with B an orthonormal basis of col(U~)
    (singular values kept as in `beamform.verify_covariance_subspace`), so
    tr(R) = tr(X) and the budget n_streams stays the exact transmit power:
    the reduced problem under the exact power constraint, in whitened
    coordinates.
    """
    from modisac.beamform import GRAM_CUTOFF
    from modisac.opt_sdr import make_fullspace_problem

    cfg = data.config
    full = make_fullspace_problem(
        data.h,
        data.responses,
        data.alphas,
        cfg.scnr_min,
        data.w_fixed.w,
        cfg.sigma_c_sq,
        cfg.sigma_s_sq,
        data.n_streams,
    )
    u, s, _ = np.linalg.svd(data.basis.u_tilde, full_matrices=False)
    b = u[:, s**2 > GRAM_CUTOFF * s[0] ** 2]
    psi = b.conj().T @ full.psi @ b
    restricted = dataclasses.replace(
        full, h_eff=full.h_eff @ b, psi=0.5 * (psi + psi.conj().T)
    )
    return full, restricted


def restricted_optimum_bits(eig, psi: np.ndarray) -> float:
    """Certified optimum (dual bound, bits) of rm_jgd's own problem.

    rm_jgd searches W_BB = U_B X over col(U_B); in X the rate form is
    Sigma_B, the proxy power tr(X X^H) and the sensing form U_B^H Psi U_B, so
    the problem is `solve_maxdet` at size n_streams with h_eff =
    diag(sqrt(sigma_B)) and unit noise. An oracle for tests only.
    """
    from modisac.opt_sdr import MaxDetProblem, solve_maxdet

    psi_b = eig.u_b.conj().T @ psi @ eig.u_b
    problem = MaxDetProblem(
        h_eff=np.diag(np.sqrt(eig.sigma_b)).astype(complex),
        sigma_c_sq=1.0,
        power_budget=eig.power_budget,
        psi=0.5 * (psi_b + psi_b.conj().T),
        gamma0=eig.gamma0,
        n_streams=eig.n_streams,
    )
    solution = solve_maxdet(problem)
    assert solution.status == "optimal", solution.status
    return solution.dual_bits


def rm_jgd_reference(eig, config, init, max_iterations: int):
    """RM-JGD one trial at a time, every term from scratch: a test oracle.

    The same Armijo searches as `opt_manifold.rm_jgd` (trial steps 4x the
    last accepted one, halved until the sufficient decrease holds), but each
    Q-trial is retracted alone and each barrier value and gradient, of the
    b-trials too, is taken at a fresh state, so no cached term or batched
    retraction takes part. Returns (q, b, trace, iterations, status).
    """
    from modisac import opt_manifold as om

    def search(f_cur, trial, slope, evaluate):
        step = trial
        while step >= om.MIN_STEP:
            f_new = evaluate(step)
            if f_new < f_cur + om.ARMIJO_SLOPE * step * slope:
                return step, f_new
            step *= om.ARMIJO_SHRINK
        return None, f_cur

    def fresh(q_at, b_at):
        return om.ManifoldState(q_at, b_at), eig, config

    q, b = init.q.copy(), init.b.copy()
    f_cur = om.barrier_value(*fresh(q, b))
    trace, status, iters, trial_v, trial_b = [f_cur], "max_iter", 0, 1.0, 1.0
    for n in range(max_iterations):
        xi_v = om.tangent_project(q, om.grad_v(*fresh(q, b)))
        xi_b = -om.grad_b(*fresh(q, b))
        norm_v, norm_b = float(np.linalg.norm(xi_v) ** 2), float(xi_b @ xi_b)
        if norm_v < om.EPS_V and norm_b < om.EPS_B:
            status = "converged"
            break
        retracted = {}

        def q_value(s):
            retracted[s] = om.stiefel_retract(q + s * xi_v)
            return om.barrier_value(*fresh(retracted[s], b))

        step_v, f_mid = search(f_cur, trial_v, -norm_v, q_value) if (
            norm_v >= om.EPS_V) else (None, f_cur)
        q_new = q if step_v is None else retracted[step_v]
        step_b, f_new = search(f_mid, trial_b, -norm_b, lambda s: om.barrier_value(
            *fresh(q_new, b + s * xi_b)
        )) if norm_b >= om.EPS_B else (None, f_mid)
        if step_v is None and step_b is None:
            status = "stalled"
            break
        q, b = q_new, b if step_b is None else b + step_b * xi_b
        trial_v = 1.0 if step_v is None else min(4.0 * step_v, 1e12)
        trial_b = 1.0 if step_b is None else min(4.0 * step_b, 1e12)
        f_cur = f_new
        trace.append(f_cur)
        iters = n + 1
    return q, b, trace, iters, status
