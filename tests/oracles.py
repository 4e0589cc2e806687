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


def dense_basis(analog: np.ndarray) -> np.ndarray:
    """U~ = blkdiag(blocks) of a (K, M, c) analog array, as a dense (K*M, K*c) matrix."""
    k, m, c = analog.shape
    u = np.zeros((k * m, k * c), dtype=analog.dtype)
    for i in range(k):
        u[i * m : (i + 1) * m, i * c : (i + 1) * c] = analog[i]
    return u


def full_problem(data, w=None):
    """The full N-dimensional problem of a `ScenarioData` at its stream count.

    The basis is N blocks of 1x1 ones (the identity, M = 1); the filter is
    the fixed one unless `w` is given.
    """
    from modisac.opt_sdr import make_maxdet_problem

    cfg = data.config
    return make_maxdet_problem(
        data.h, np.ones((cfg.n_antennas, 1, 1)), data.responses,
        data.w_fixed if w is None else w, cfg.scnr_min, cfg.sigma_c_sq,
        cfg.sigma_s_sq, data.problem.n_streams,
    )


def exact_power_problems(data):
    """The full-space problem of a `ScenarioData` and the same restricted to col(U~).

    The restriction is R = B X B^H with B an orthonormal basis of col(U~),
    taken block by block from each block's SVD (singular values kept as in
    `beamform.outside_subspace`, against the largest over all blocks), so
    tr(R) = tr(X) and the budget n_streams stays the exact transmit power:
    the reduced problem under the exact transmit power, in whitened
    coordinates.
    """
    from modisac.beamform import GRAM_CUTOFF

    full = full_problem(data)
    u, s, _ = np.linalg.svd(data.analog, full_matrices=False)
    keep = s**2 > GRAM_CUTOFF * np.max(s) ** 2
    b = dense_basis(u)[:, keep.ravel()]
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
        power_budget=eig.offsets[0],
        psi=0.5 * (psi_b + psi_b.conj().T),
        gamma0=-eig.offsets[1] if eig.offsets.size > 1 else 0.0,
        n_streams=eig.n_streams,
    )
    solution = solve_maxdet(problem)
    assert solution.status == "optimal", solution.status
    return solution.dual_bits


def ninety_percent_split(eig):
    """Waterfilling split of 90% of the power budget at Q = I: b_j^2 =
    sigma_j (level - 1/sigma_j)^+ with `opt_sdr.water_level`'s level for
    0.9 * offsets[0].

    `opt_manifold.phase1_feasible` tests this split for feasibility and,
    where it clears every row, starts at the barrier's own split, whose
    power slack level/t is far smaller. Derivative tests that need an
    interior state with a 10% power slack build it here.
    """
    from modisac.opt_manifold import ManifoldState
    from modisac.opt_sdr import water_level

    inv = 1.0 / eig.sigma_b
    level = water_level(inv, 0.9 * eig.offsets[0])
    b = np.sqrt(np.maximum(level - inv, 0.0) * eig.sigma_b)
    return ManifoldState(q=np.eye(eig.n_streams, dtype=complex), b=b)


def barrier_split_gains(inv: np.ndarray, budget: float, t: float):
    """Gains w minimizing -sum ln(1 + w_j) - ln(s)/t, s = budget - sum_j w_j inv_j.

    Over p_j = w_j inv_j this is waterfilling with the slack s as one more
    channel of weight 1/t: p_j = (level - inv_j)^+ and s = level/t, at the
    level of the largest k whose (budget + sum_{j<k} inv_j)/(k + 1/t) clears
    inv_{k-1} (inv ascending); every gain is 0 when no channel is active.
    """
    for k in range(inv.size, 0, -1):
        level = (budget + np.sum(inv[:k])) / (k + 1.0 / t)
        if level > inv[k - 1]:
            return np.maximum(level - inv, 0.0) / inv
    return np.zeros(inv.size)


def _interior_slacks(state, eig) -> np.ndarray:
    """`opt_manifold._slacks` at a strictly feasible state; raises
    InfeasiblePointError anywhere else, where the barrier has no gradient."""
    from modisac.opt_manifold import InfeasiblePointError, _slacks

    slacks = _slacks(state, eig)
    if np.any(slacks <= 0.0):
        raise InfeasiblePointError("gradient requested at an infeasible point")
    return slacks


def basis_contraction_derivatives(state, eig, t: float):
    """Gradient and Hessian of the barrier's pullback by a per-form basis contraction.

    For each constraint form F_i, M0 = Q^H F_i Q and s(x) = sum_j b_j^2
    (e^{-Omega} M0 e^{Omega})_jj with Omega = sum_k omega_k E_k over the skew
    basis; to second order e^{-Omega} M0 e^{Omega} = M0 + [M0, Omega] +
    (Omega^2 M0 + M0 Omega^2)/2 - Omega M0 Omega, so with W = diag(b^2) the
    omega block of s's Hessian is Re(T + T^T - T' - T'^T), T_kl =
    tr(M0 W E_k E_l) and T'_kl = tr(W E_k M0 E_l), each taken as one product
    of the flattened (n(n-1), n, n) basis stacks. Each barrier term -ln(u)/t,
    u = offset_i - s, adds grad s / (t u) and (grad s grad s^T / u^2 +
    hess s / u)/t; the rate -ln(1 + b_j^2) adds its own gain terms. An
    oracle for tests only: one form at a time, with no shared sum.
    """
    from modisac.opt_manifold import _skew_basis

    q, b = state.q, state.b
    n, w = b.size, b**2
    basis = _skew_basis(n)
    p = basis.shape[0]
    e_t = basis.transpose(0, 2, 1).reshape(p, n * n).T
    grad = np.concatenate([np.zeros(p), -2.0 * b / (1.0 + w)])
    hess = np.zeros((n * n, n * n))
    hess[np.arange(p, n * n), np.arange(p, n * n)] = -2.0 * (1.0 - w) / (1.0 + w) ** 2
    for form, slack in zip(eig.forms, _interior_slacks(state, eig)):
        m0 = q.conj().T @ form @ q
        e_m0 = basis @ m0
        first = np.diagonal(m0 @ basis - e_m0, axis1=1, axis2=2).real  # diag [M0, E_k]
        t_mat = ((m0 * w) @ basis).reshape(p, n * n) @ e_t
        t_mid = (w[:, None] * e_m0).reshape(p, n * n) @ e_t
        d = np.diagonal(m0).real
        mixed = 2.0 * first * b
        g_s = np.concatenate([first @ w, 2.0 * b * d])
        h_s = np.block([
            [(t_mat + t_mat.T - t_mid - t_mid.T).real, mixed],
            [mixed.T, np.diag(2.0 * d)],
        ])
        grad += g_s / (t * slack)
        hess += (np.outer(g_s, g_s) / slack**2 + h_s / slack) / t
    return grad, hess


def randomize_rank_loop(solution, problem, rng, trials: int) -> np.ndarray:
    """`opt_sdr.randomize_rank` one candidate at a time, each formed in full.

    Draws each sketch z as a real then an imaginary (n_s, n_s) block, forms
    w = F z, rescales it to the power budget and scores its sensing value
    tr(w^H Psi w) and rate in the full transmit space; the identity sketch
    comes first and the first strict maximum wins. An oracle for tests only.
    """
    from modisac.beamform import _rate_bits
    from modisac.opt_sdr import RandomizationFailure

    if solution.status == "infeasible":
        raise ValueError("cannot randomize an infeasible solution")
    ns = problem.n_streams
    factor = solution.w_bb[:, :ns]
    feas_tol = 1e-9 * max(1.0, abs(problem.gamma0))
    best_w, best_se = None, -np.inf
    for i in range(trials + 1):
        if i == 0:
            z = np.eye(ns, dtype=complex)
        else:
            z = (
                rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns))
            ) / np.sqrt(2.0)
        w = factor @ z
        power = float(np.real(np.sum(np.multiply(w.conj().T, w.T, order="C"))))
        if power <= 0.0:
            continue
        w = w * np.sqrt(problem.power_budget / power)
        if problem.sensing_active:
            sens = float(np.real(np.sum(w.conj() * (problem.psi @ w))))
            if sens < problem.gamma0 - feas_tol:
                continue
        se = _rate_bits(problem.h_eff @ w, problem.sigma_c_sq)
        if se > best_se:
            best_se, best_w = se, w
    if best_w is None:
        raise RandomizationFailure(f"no candidate out of {trials + 1} met the sensing constraint")
    return best_w
