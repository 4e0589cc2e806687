"""Beamformer checks, performance metrics and the subarray-response subspace.

Values go in and out plain: H, the response tuple, a design's echo weights
(all the SCNR reads of it), the MVDR filter and the (N, N_RF) basis U_tilde,
which is block diagonal: its k-th block stacks subarray k's steering vectors
toward all sensing objects and communication paths side by side. U_tilde is
simultaneously the optimal analog beamformer: every entry of a block is unit
modulus, so the group-connected phase-shifter constraint is met for free. The
sensing forms (`phi_matrices`, `sensing_form`) take any transmit basis B:
U_tilde for the reduced problem, the identity for the full N-dimensional one;
`opt_sdr.make_maxdet_problem` builds both problems from them.
"""

from __future__ import annotations

import numpy as np

from .channel import ObjectResponse, PathSpec
from .geometry import ArrayGeometry, steering_vector


def check_hybrid(
    w_rf: np.ndarray, w_bb: np.ndarray, k_subarrays: int, budget: float
) -> None:
    """Enforce the structural invariants of W_RF W_BB; raises on violation.

    Off-block analog entries must be exactly zero, in-block entries unit
    modulus, and ||W_BB||_F^2 within `budget`, the problem's power_budget:
    the proxy M ||W_BB||_F^2, M the rows per subarray, may exceed M * budget
    by at most 1e-9.
    """
    ok, mod_err = analog_feasibility(w_rf, k_subarrays)
    if not ok:
        raise ValueError("analog beamformer has support outside its blocks")
    if mod_err > 1e-9:
        raise ValueError(f"analog entries deviate from unit modulus by {mod_err:.2e}")
    m = w_rf.shape[0] // k_subarrays
    proxy = m * float(np.linalg.norm(w_bb) ** 2)
    if proxy > m * budget + 1e-9:
        raise ValueError(
            f"proxy transmit power {proxy:.12g} exceeds M * budget = {m * budget:.12g}"
        )


def build_subspace(
    geometry: ArrayGeometry,
    paths: list[PathSpec],
    responses: tuple[ObjectResponse, ...],
) -> np.ndarray:
    """The (N, K*(Q+Np)) block-diagonal U_tilde of per-subarray steering vectors.

    Block k holds subarray k's steering vectors toward each sensing object,
    then toward each communication path's AoD.
    """
    k, m = geometry.k_subarrays, geometry.m_antennas
    # (K, M, Q+Np): subarray k's steering vectors, the columns of block k
    steer = np.stack([resp.a_t_blocks for resp in responses] + [
        steering_vector(m, p.aod, geometry.d, geometry.wavelength) for p in paths], axis=2)
    cols = steer.shape[2]
    # column-major: the rounding of BLAS products with U_tilde (phi_matrices,
    # reduce_b) depends on the layout, and the sweep CSVs are pinned to this one
    u_tilde = np.zeros((k * m, k * cols), dtype=complex, order="F")
    # entry (k*M + i, k*cols + j) is [i, k, j, k] of this F-ordered view
    block_view = u_tilde.reshape((m, k, cols, k), order="F")
    block_view[:, np.arange(k), :, np.arange(k)] = steer
    return u_tilde


def optimal_analog(u_tilde: np.ndarray) -> np.ndarray:
    """Closed-form analog beamformer: a C-ordered copy of the basis itself."""
    return u_tilde.copy()


def analog_feasibility(
    w_rf: np.ndarray, k_subarrays: int
) -> tuple[bool, float]:
    """Check group-connected membership: exact off-block zeros, unit modulus.

    Returns (support_ok, max in-block modulus deviation from 1).
    """
    n, n_rf = w_rf.shape
    if n % k_subarrays or n_rf % k_subarrays:
        return False, np.inf
    # allowed nonzero pattern: row block k (M rows) meets column block k
    mask = (np.arange(n)[:, None] // (n // k_subarrays)
            == np.arange(n_rf)[None, :] // (n_rf // k_subarrays))
    support_ok = bool(np.all(w_rf[~mask] == 0.0))
    mod_err = float(np.max(np.abs(np.abs(w_rf[mask]) - 1.0))) if mask.any() else 0.0
    return support_ok, mod_err


def spectral_efficiency(
    h: np.ndarray, w_rf: np.ndarray, w_bb: np.ndarray, sigma_c_sq: float
) -> float:
    """Achievable rate log2 det(I + H W W^H H^H / sigma_c^2) in bits/s/Hz.

    Evaluated through the singular values of H W_RF W_BB, which keeps the
    determinant symmetric and nonnegative by construction.
    """
    if sigma_c_sq <= 0:
        raise ValueError("sigma_c_sq must be positive")
    g = h @ w_rf @ w_bb
    if not np.all(np.isfinite(g.view(float))):
        raise ValueError("non-finite effective channel")
    return _rate_bits(g, sigma_c_sq)


def _rate_bits(g: np.ndarray, sigma_c_sq: float) -> float:
    """log2 det(I + G G^H / sigma_c^2) from the singular values of G."""
    s = np.linalg.svd(g, compute_uv=False)
    return float(np.sum(np.log2(1.0 + s**2 / sigma_c_sq)))


def echo_weights(responses: tuple[ObjectResponse, ...], f: np.ndarray) -> np.ndarray:
    """Per-object echo weights alpha_q^2 ||F^H g_tq||^2 = alpha_q^2 g_tq^H R_X g_tq, R_X = F F^H."""
    g_t = np.stack([resp.g_t for resp in responses])
    alphas = np.array([resp.alpha for resp in responses])
    return alphas ** 2 * np.sum(np.abs(g_t.conj() @ f) ** 2, axis=1)


def scnr(
    w: np.ndarray,
    responses: tuple[ObjectResponse, ...],
    weights: np.ndarray,
    sigma_s_sq: float,
) -> float:
    """Output SCNR of receive filter w for the `echo_weights` of a transmit design.

    Object 0 is the target; the rest are clutter. Object q's received echo
    power is weights[q] |w^H g_rq|^2.
    """
    if np.linalg.norm(w) == 0.0:
        raise ValueError("receive filter must be nonzero")
    gains = weights * np.array([np.abs(w.conj() @ resp.g_r) ** 2 for resp in responses])
    noise = sigma_s_sq * float(np.real(w.conj() @ w))
    denom = float(np.sum(gains[1:])) + noise
    if denom <= 0.0:
        raise ZeroDivisionError("zero clutter-plus-noise power (sigma_s_sq=0, no clutter)")
    return float(gains[0] / denom)


def mvdr_receive(
    responses: tuple[ObjectResponse, ...],
    weights: np.ndarray,
    sigma_s_sq: float,
) -> np.ndarray:
    """Closed-form SCNR-optimal receive filter w* = C^{-1} g_r0 / (g_r0^H C^{-1} g_r0).

    C = sigma_s^2 I + G D G^H, G the clutter receive responses, D = diag(weights[1:]), is
    never formed: by Woodbury, sigma_s^2 C^{-1} g_r0 = g_r0 - G D (sigma_s^2 I + G^H G D)^{-1}
    G^H g_r0, a (Q-1)-square solve whose matrix has eigenvalues >= sigma_s^2.
    """
    if sigma_s_sq <= 0:
        raise ValueError("sigma_s_sq must be positive")
    g = np.stack([resp.g_r for resp in responses], axis=1)
    g0, g_c, g_d = g[:, 0], g[:, 1:], g[:, 1:] * weights[1:]
    inner = sigma_s_sq * np.eye(g_c.shape[1]) + g_c.conj().T @ g_d
    sol = g0 - g_d @ np.linalg.solve(inner, g_c.conj().T @ g0)
    w = sol / np.real(g0.conj() @ sol)
    if not np.all(np.isfinite(w.view(float))):
        raise ValueError("receive beamformer has non-finite entries")
    if np.linalg.norm(w) == 0.0:
        raise ValueError("receive beamformer is zero")
    return w


def phi_matrices(
    basis: np.ndarray, responses: tuple[ObjectResponse, ...], w: np.ndarray
) -> np.ndarray:
    """Rank-1 sensing forms Phi_q = |w^H g_rq|^2 (B^H g_tq)(B^H g_tq)^H, stacked (Q, n, n)."""
    phis = []
    for resp in responses:
        v = basis.conj().T @ resp.g_t
        c = float(np.abs(w.conj() @ resp.g_r) ** 2)
        phis.append(c * np.outer(v, v.conj()))
    return np.stack(phis)


def sensing_form(
    phis: np.ndarray, responses: tuple[ObjectResponse, ...], scnr_min: float
) -> np.ndarray:
    """Constraint matrix Psi = alpha_0^2 Phi_0 - scnr_min * sum_q alpha_q^2 Phi_q."""
    psi = responses[0].alpha ** 2 * phis[0]
    for q in range(1, len(phis)):
        psi -= scnr_min * responses[q].alpha ** 2 * phis[q]
    return 0.5 * (psi + psi.conj().T)


def transmit_power(w_rf: np.ndarray, w_bb: np.ndarray) -> tuple[float, float]:
    """(exact, proxy) transmit powers.

    exact = ||W_RF W_BB||_F^2; proxy = M ||W_BB||_F^2 with M the squared
    column norm of the analog stage (the per-subarray antenna count for
    unit-modulus blocks). The proxy is exact only when each analog block has
    orthogonal columns, so both are returned and the gap is the caller's to
    report.
    """
    exact = float(np.linalg.norm(w_rf @ w_bb) ** 2)
    m = float(np.round(np.linalg.norm(w_rf[:, 0]) ** 2))
    proxy = float(m * np.linalg.norm(w_bb) ** 2)
    return exact, proxy


# Gram eigenvalues of U_tilde at or below this fraction of the largest are
# left out of the projector onto col(U_tilde).
GRAM_CUTOFF = 1e-10


def verify_covariance_subspace(r_x: np.ndarray, u: np.ndarray) -> float:
    """Relative residual of R_X outside the span of U_tilde.

    Returns ||P_perp R_X P_perp||_F / ||R_X||_F with P_perp the orthogonal
    projector onto the complement of col(U_tilde); zero exactly when R_X is
    supported on the subspace.
    """
    norm = float(np.linalg.norm(r_x))
    if norm == 0.0:
        return 0.0
    gram = u.conj().T @ u
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > GRAM_CUTOFF * vals.max()
    inv = (vecs[:, keep] / vals[keep][None, :]) @ vecs[:, keep].conj().T
    proj = u @ inv @ u.conj().T
    p_perp = np.eye(u.shape[0]) - proj
    return float(np.linalg.norm(p_perp @ r_x @ p_perp) / norm)
