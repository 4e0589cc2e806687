"""Beamformer checks, performance metrics and the subarray-response subspace.

Values go in and out plain: H, the response tuple, a design's echo weights
(all the SCNR reads of it), the MVDR filter and the analog stage, a (K, M,
Q+Np) array whose block k stacks subarray k's steering vectors toward all
sensing objects and communication paths. The blocks are both the basis
U_tilde = blkdiag(blocks) and the optimal group-connected analog beamformer
W_RF: every entry is unit modulus, and none lies outside a block. Products
with them are stacked matmuls over the blocks. The sensing forms take any
block basis B: the steering blocks for the reduced problem, N blocks of 1x1
ones for the full N-dimensional one (`opt_sdr.make_maxdet_problem`).
"""

from __future__ import annotations

import numpy as np

from .channel import ObjectResponse, PathSpec
from .geometry import ArrayGeometry, steering_vector


def check_hybrid(analog: np.ndarray, w_bb: np.ndarray, budget: float) -> None:
    """Enforce the invariants of the hybrid design; raises on violation.

    Every entry of the (K, M, c) analog blocks must be unit modulus, and the
    proxy M ||W_BB||_F^2 may exceed M * budget, `budget` the problem's
    power_budget, by at most 1e-9.
    """
    mod_err = float(np.max(np.abs(np.abs(analog) - 1.0)))
    if mod_err > 1e-9:
        raise ValueError(f"analog entries deviate from unit modulus by {mod_err:.2e}")
    m = analog.shape[1]
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
    """The (K, M, Q+Np) analog blocks: block k holds subarray k's steering
    vectors toward each sensing object, then toward each communication path's AoD."""
    # each block column-major, its steering vectors contiguous: BLAS rounds
    # products by layout, and the rows are pinned to this one
    return np.stack([resp.a_t_blocks for resp in responses] + [
        steering_vector(geometry.m_antennas, p.aod, geometry.d, geometry.wavelength)
        for p in paths], axis=1).transpose(0, 2, 1)


def analog_times(analog: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B x for the (K, M, c) blocks B and x with K*c rows, e.g. F = W_RF W_BB."""
    k, m, c = analog.shape
    return np.matmul(analog, x.reshape(k, c, -1)).reshape(k * m, -1)


def times_analog(h: np.ndarray, analog: np.ndarray) -> np.ndarray:
    """H B for the (K, M, c) blocks B and H with K*M columns, e.g. H_eff."""
    k, m, c = analog.shape
    blocks = np.matmul(h.reshape(-1, k, m).transpose(1, 0, 2), analog)
    return blocks.transpose(1, 0, 2).reshape(h.shape[0], k * c)


def spectral_efficiency(
    h: np.ndarray, analog: np.ndarray, w_bb: np.ndarray, sigma_c_sq: float
) -> float:
    """Achievable rate log2 det(I + H W W^H H^H / sigma_c^2) in bits/s/Hz.

    Evaluated through the singular values of H W_RF W_BB, W_RF the (K, M, c)
    analog blocks, which keeps the determinant symmetric and nonnegative by
    construction.
    """
    if sigma_c_sq <= 0:
        raise ValueError("sigma_c_sq must be positive")
    g = h @ analog_times(analog, w_bb)
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
    """Rank-1 sensing forms Phi_q = |w^H g_rq|^2 (B^H g_tq)(B^H g_tq)^H, stacked (Q, n, n).

    B is a (K, M, c) block basis and n = K*c.
    """
    k, m, cols = basis.shape
    adjoint = basis.conj().transpose(0, 2, 1)
    phis = []
    for resp in responses:
        v = np.matmul(adjoint, resp.g_t.reshape(k, m, 1)).reshape(k * cols)
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


def transmit_power(f: np.ndarray, w_bb: np.ndarray, m: int) -> tuple[float, float]:
    """(exact, proxy) transmit powers of F = W_RF W_BB.

    exact = ||F||_F^2; proxy = M ||W_BB||_F^2, M the antennas per subarray.
    The proxy is exact only when each analog block has orthogonal columns,
    so both are returned and the gap is the caller's to report.
    """
    return float(np.linalg.norm(f) ** 2), float(m * np.linalg.norm(w_bb) ** 2)


# Gram eigenvalues of the analog blocks at or below this fraction of the
# largest over all blocks are left out of the projector onto col(U_tilde).
GRAM_CUTOFF = 1e-10


def outside_subspace(analog: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P_perp x for x with N rows, P_perp the projector onto the complement of col(U_tilde).

    U_tilde is block diagonal, so P_perp is too: block k's projector comes
    from the c-square Gram of analog block k.
    """
    vals, vecs = np.linalg.eigh(analog.conj().transpose(0, 2, 1) @ analog)
    keep = vals > GRAM_CUTOFF * vals.max()
    inv = np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)
    basis = analog @ vecs
    k, m, _ = analog.shape
    xb = x.reshape(k, m, -1)
    coef = inv[:, :, None] * (basis.conj().transpose(0, 2, 1) @ xb)
    return (xb - basis @ coef).reshape(x.shape)


def verify_covariance_subspace(r_x: np.ndarray, analog: np.ndarray) -> float:
    """Relative residual of R_X outside col(U_tilde), U_tilde = blkdiag(analog blocks).

    Returns ||P_perp R_X P_perp||_F / ||R_X||_F; zero exactly when R_X is
    supported on the subspace.
    """
    norm = float(np.linalg.norm(r_x))
    if norm == 0.0:
        return 0.0
    half = outside_subspace(analog, r_x)
    # P_perp (P_perp R_X)^H = (P_perp R_X P_perp)^H, of the same norm
    return float(np.linalg.norm(outside_subspace(analog, half.conj().T)) / norm)
