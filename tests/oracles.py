"""Independent closed-form oracles used to pin expected values in tests."""

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



def restricted_optimum_bits(eig, psi: np.ndarray, gamma0: float) -> float:
    """Certified optimum (dual bound, bits) of rm_jgd's own problem.

    rm_jgd searches W_BB = U_B X over col(U_B); in X the rate form is
    Sigma_B, the proxy power tr(X X^H) and the sensing form U_B^H Psi U_B, so
    the problem is `solve_maxdet` at size n_streams with h_eff =
    diag(sqrt(sigma_B)), unit noise and C = I. An oracle for tests only.
    """
    from modisac.opt_sdr import MaxDetProblem, solve_maxdet

    psi_b = eig.u_b.conj().T @ psi @ eig.u_b
    problem = MaxDetProblem(
        h_eff=np.diag(np.sqrt(eig.sigma_b)).astype(complex),
        sigma_c_sq=1.0,
        power_budget=eig.power_budget,
        psi=0.5 * (psi_b + psi_b.conj().T),
        gamma0=gamma0,
        n_streams=eig.n_streams,
    )
    solution = solve_maxdet(problem)
    assert solution.status == "optimal", solution.status
    return solution.dual_bits
