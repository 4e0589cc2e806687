"""Beamformer checks, performance metrics and the subarray-response subspace.

Inputs come from the channel layer as plain values: the channel array H and
the tuple of per-object responses. The joint basis U_tilde is block diagonal:
its k-th block stacks subarray k's intra-subarray steering vectors toward all
sensing objects and communication paths side by side. U_tilde is
simultaneously the optimal analog beamformer: every entry of a block is unit
modulus, so the group-connected phase-shifter constraint is met for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ObjectResponse, PathSpec
from .geometry import ArrayGeometry, steering_vector


@dataclass(frozen=True)
class SubspaceBasis:
    """Joint communication/sensing subspace of the transmit array.

    u_tilde has shape (N, K*(Q+Np)) and is exactly block diagonal with blocks
    a_blocks[k] of shape (M, Q+Np), object columns before path columns.
    """

    u_tilde: np.ndarray
    a_blocks: np.ndarray
    k_subarrays: int
    m_antennas: int

    @property
    def n_rf(self) -> int:
        return self.u_tilde.shape[1]

    @property
    def cols_per_block(self) -> int:
        return self.a_blocks.shape[2]


@dataclass(frozen=True)
class ReceiveBeamformer:
    """Sensing receive filter over the N-element receive array."""

    w: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.w.view(float))):
            raise ValueError("receive beamformer has non-finite entries")
        if np.linalg.norm(self.w) == 0.0:
            raise ValueError("receive beamformer is zero")


@dataclass(frozen=True)
class PhiSet:
    """Reduced-space sensing quadratic forms and the SCNR constraint level.

    phi[q] = c_q * v_q v_q^H with v_q = U_tilde^H g_tq and c_q = |w^H g_rq|^2;
    gamma0 = scnr_min * sigma_s_sq * ||w||^2. noise_term = sigma_s_sq*||w||^2
    is kept separately so the reduced SCNR value can be reported.
    """

    phi: tuple[np.ndarray, ...]
    gamma0: float
    noise_term: float


def check_hybrid(
    w_rf: np.ndarray, w_bb: np.ndarray, k_subarrays: int, m_antennas: int
) -> None:
    """Enforce the structural invariants of W_RF W_BB; raises on violation.

    Off-block analog entries must be exactly zero, in-block entries unit
    modulus, and the per-subarray power proxy within the stream budget.
    """
    ok, mod_err = analog_feasibility(w_rf, k_subarrays)
    if not ok:
        raise ValueError("analog beamformer has support outside its blocks")
    if mod_err > 1e-9:
        raise ValueError(f"analog entries deviate from unit modulus by {mod_err:.2e}")
    n_streams = w_bb.shape[1]
    proxy = m_antennas * float(np.linalg.norm(w_bb) ** 2)
    if proxy > n_streams + 1e-9:
        raise ValueError(
            f"proxy transmit power {proxy:.12g} exceeds the stream budget {n_streams}"
        )


def build_subspace(
    geometry: ArrayGeometry,
    paths: list[PathSpec],
    responses: tuple[ObjectResponse, ...],
) -> SubspaceBasis:
    """Assemble the block-diagonal U_tilde from per-subarray steering vectors.

    Block k holds subarray k's steering vectors toward each sensing object,
    then toward each communication path's AoD.
    """
    k, m = geometry.k_subarrays, geometry.m_antennas
    n_objects = len(responses)
    cols = n_objects + len(paths)
    a_blocks = np.zeros((k, m, cols), dtype=complex)
    for q, resp in enumerate(responses):
        a_blocks[:, :, q] = resp.a_t_blocks
    for p, path in enumerate(paths):
        for i in range(k):
            a_blocks[i, :, n_objects + p] = steering_vector(
                m, path.aod[i], geometry.d, geometry.wavelength
            )

    # column-major: the rounding of BLAS products with U_tilde (phi_matrices,
    # reduce_b) depends on the layout, and the sweep CSVs are pinned to this one
    u_tilde = np.zeros((k * m, k * cols), dtype=complex, order="F")
    for i in range(k):
        u_tilde[i * m : (i + 1) * m, i * cols : (i + 1) * cols] = a_blocks[i]
    return SubspaceBasis(u_tilde=u_tilde, a_blocks=a_blocks, k_subarrays=k, m_antennas=m)


def optimal_analog(basis: SubspaceBasis) -> np.ndarray:
    """Closed-form analog beamformer: the block-diagonal basis itself."""
    return basis.u_tilde.copy()


def analog_support(n: int, k_subarrays: int, m_rf: int) -> np.ndarray:
    """Boolean mask of the allowed nonzero pattern of a block-diagonal W_RF."""
    m = n // k_subarrays
    mask = np.zeros((n, k_subarrays * m_rf), dtype=bool)
    for i in range(k_subarrays):
        mask[i * m : (i + 1) * m, i * m_rf : (i + 1) * m_rf] = True
    return mask


def analog_feasibility(
    w_rf: np.ndarray, k_subarrays: int
) -> tuple[bool, float]:
    """Check group-connected membership: exact off-block zeros, unit modulus.

    Returns (support_ok, max in-block modulus deviation from 1).
    """
    n, n_rf = w_rf.shape
    if n % k_subarrays or n_rf % k_subarrays:
        return False, np.inf
    mask = analog_support(n, k_subarrays, n_rf // k_subarrays)
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
    s = np.linalg.svd(g, compute_uv=False)
    return float(np.sum(np.log2(1.0 + s**2 / sigma_c_sq)))


def se_from_covariance(h_eff: np.ndarray, r: np.ndarray, sigma_c_sq: float) -> float:
    """log2 det(I + H_eff R H_eff^H / sigma_c^2) for a PSD covariance R."""
    vals, vecs = np.linalg.eigh(0.5 * (r + r.conj().T))
    vals = np.clip(vals, 0.0, None)
    factor = vecs * np.sqrt(vals)[None, :]
    s = np.linalg.svd(h_eff @ factor, compute_uv=False)
    return float(np.sum(np.log2(1.0 + s**2 / sigma_c_sq)))


def scnr(
    w: np.ndarray,
    responses: tuple[ObjectResponse, ...],
    alphas: np.ndarray,
    r_x: np.ndarray,
    sigma_s_sq: float,
) -> float:
    """Output SCNR of receive filter w for transmit covariance R_X.

    Object 0 is the target; the rest are clutter. alphas holds the
    reflection amplitudes alpha_q; object q's received echo power is
    alpha_q^2 |w^H g_rq|^2 g_tq^H R_X g_tq.
    """
    if np.linalg.norm(w) == 0.0:
        raise ValueError("receive filter must be nonzero")
    alphas = np.asarray(alphas, dtype=float)
    gains = np.empty(len(responses))
    for q, resp in enumerate(responses):
        forward = np.real(resp.g_t.conj() @ r_x @ resp.g_t)
        gains[q] = alphas[q] ** 2 * np.abs(w.conj() @ resp.g_r) ** 2 * forward
    noise = sigma_s_sq * float(np.real(w.conj() @ w))
    denom = float(np.sum(gains[1:])) + noise
    if denom <= 0.0:
        raise ZeroDivisionError("zero clutter-plus-noise power (sigma_s_sq=0, no clutter)")
    return float(gains[0] / denom)


def mvdr_receive(
    responses: tuple[ObjectResponse, ...],
    alphas: np.ndarray,
    r_x: np.ndarray,
    sigma_s_sq: float,
) -> ReceiveBeamformer:
    """Closed-form SCNR-optimal receive filter.

    w* = (Sigma + sigma_s^2 I)^{-1} g_r0 / (g_r0^H (Sigma + sigma_s^2 I)^{-1} g_r0)
    with Sigma the clutter covariance sum_q alpha_q^2 (g_tq^H R g_tq) g_rq g_rq^H.
    """
    if sigma_s_sq <= 0:
        raise ValueError("sigma_s_sq must be positive")
    alphas = np.asarray(alphas, dtype=float)
    n = responses[0].g_r.size
    cov = sigma_s_sq * np.eye(n, dtype=complex)
    for q in range(1, len(responses)):
        resp = responses[q]
        forward = np.real(resp.g_t.conj() @ r_x @ resp.g_t)
        cov += alphas[q] ** 2 * forward * np.outer(resp.g_r, resp.g_r.conj())
    g0 = responses[0].g_r
    sol = np.linalg.solve(cov, g0)
    return ReceiveBeamformer(w=sol / np.real(g0.conj() @ sol))


def phi_matrices(
    basis: SubspaceBasis,
    responses: tuple[ObjectResponse, ...],
    w: np.ndarray,
    scnr_min: float,
    sigma_s_sq: float,
) -> PhiSet:
    """Rank-1 reduced sensing forms Phi_q = |w^H g_rq|^2 (U~^H g_tq)(U~^H g_tq)^H."""
    phis = []
    for resp in responses:
        v = basis.u_tilde.conj().T @ resp.g_t
        c = float(np.abs(w.conj() @ resp.g_r) ** 2)
        phis.append(c * np.outer(v, v.conj()))
    w_norm_sq = float(np.real(w.conj() @ w))
    return PhiSet(
        phi=tuple(phis),
        gamma0=scnr_min * sigma_s_sq * w_norm_sq,
        noise_term=sigma_s_sq * w_norm_sq,
    )


def sensing_form(phi_set: PhiSet, alphas: np.ndarray, scnr_min: float) -> np.ndarray:
    """Constraint matrix Psi = alpha_0^2 Phi_0 - scnr_min * sum_q alpha_q^2 Phi_q."""
    alphas = np.asarray(alphas, dtype=float)
    psi = alphas[0] ** 2 * phi_set.phi[0].copy()
    for q in range(1, len(phi_set.phi)):
        psi -= scnr_min * alphas[q] ** 2 * phi_set.phi[q]
    return 0.5 * (psi + psi.conj().T)


def scnr_reduced(w_bb: np.ndarray, phi_set: PhiSet, alphas: np.ndarray) -> float:
    """Reduced-space SCNR of a digital beamformer under the fixed filter.

    alpha_0^2 tr(W^H Phi_0 W) / (sum_{q>=1} alpha_q^2 tr(W^H Phi_q W) + noise).
    """
    alphas = np.asarray(alphas, dtype=float)
    traces = np.array(
        [float(np.real(np.sum(w_bb.conj() * (p @ w_bb)))) for p in phi_set.phi]
    )
    denom = float(np.sum(alphas[1:] ** 2 * traces[1:])) + phi_set.noise_term
    return float(alphas[0] ** 2 * traces[0] / denom)


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


def verify_covariance_subspace(r_x: np.ndarray, basis: SubspaceBasis) -> float:
    """Relative residual of R_X outside the span of U_tilde.

    Returns ||P_perp R_X P_perp||_F / ||R_X||_F with P_perp the orthogonal
    projector onto the complement of col(U_tilde); zero exactly when R_X is
    supported on the subspace.
    """
    norm = float(np.linalg.norm(r_x))
    if norm == 0.0:
        return 0.0
    u = basis.u_tilde
    gram = u.conj().T @ u
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > GRAM_CUTOFF * vals.max()
    inv = (vecs[:, keep] / vals[keep][None, :]) @ vecs[:, keep].conj().T
    proj = u @ inv @ u.conj().T
    p_perp = np.eye(u.shape[0]) - proj
    return float(np.linalg.norm(p_perp @ r_x @ p_perp) / norm)
