"""Piecewise-far-field channel synthesis and sensing responses.

The layer hands over plain values: `build_comm_channel` returns the
n_user x K*M array H = [H_1 ... H_K], which stacks K far-field subarray blocks
horizontally; near-field behaviour across subarrays enters through
per-subarray angles, distances and path phases. `build_responses` returns a
tuple with one `ObjectResponse` per scene object, target first; each combines
intra-subarray steering vectors with inter-subarray spherical phase terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    ArrayGeometry,
    ConfigurationError,
    DegenerateGeometryError,
    PolarPoint,
    ScenarioConfig,
    SceneObject,
    bearing,
    steering_vector,
    subarray_view,
)

# Path amplitudes follow free-space 1/D decay referenced to GAIN_REFERENCE,
# NLoS paths NLOS_EXTRA_LOSS_DB below that law; NLoS scatterers are uniform
# over SCATTER_RANGE (m) x SCATTER_ANGLE (rad).
GAIN_REFERENCE = 1.0
NLOS_EXTRA_LOSS_DB = 10.0
SCATTER_RANGE = (5.0, 30.0)
SCATTER_ANGLE = tuple(float(np.deg2rad(v)) for v in (-60.0, 60.0))


@dataclass(frozen=True)
class PathSpec:
    """One propagation path between the transmit array and the user.

    Per-subarray arrays have length K: reference-to-reference distances along
    the path, departure angles at each subarray and arrival angles at the
    user. `gains` holds the linear amplitude |mu| per subarray. A path is LoS
    exactly when it has no scatterer; an NLoS path bounces off its one
    scatterer.
    """

    gains: np.ndarray
    distances: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray
    scatterer: Optional[PolarPoint] = None

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.gains) <= 0):
            raise ConfigurationError("path gains must be positive")


def _path_geometry(
    geometry: ArrayGeometry, user: PolarPoint, scatterer: Optional[PolarPoint]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-subarray (distances, aod, aoa) for a LoS or single-bounce path."""
    if scatterer is None:
        dists, aod = subarray_view(geometry, "tx", user)
        # each reference antenna, seen from the user, lies on the opposite bearing
        return dists, aod, -aod
    leg1, aod = subarray_view(geometry, "tx", scatterer)
    leg2 = float(np.linalg.norm(user.xy - scatterer.xy))
    if leg2 <= 0.0:
        raise DegenerateGeometryError("scatterer coincides with the user")
    return leg1 + leg2, aod, np.full(aod.size, bearing(scatterer.xy - user.xy))


def draw_paths(
    config: ScenarioConfig, geometry: ArrayGeometry, rng: np.random.Generator
) -> list[PathSpec]:
    """Draw the LoS path plus n_paths-1 NLoS paths with random scatterers.

    Each scatterer draws its range, then its angle, uniform over
    SCATTER_RANGE x SCATTER_ANGLE. Amplitudes follow free-space 1/D decay
    referenced to GAIN_REFERENCE, with NLoS paths attenuated by
    NLOS_EXTRA_LOSS_DB below the LoS law.
    """
    if config.n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    scatterers = [
        PolarPoint(r=float(rng.uniform(*SCATTER_RANGE)), theta=float(rng.uniform(*SCATTER_ANGLE)))
        for _ in range(config.n_paths - 1)
    ]
    paths = []
    for sc in [None] + scatterers:
        dists, aod, aoa = _path_geometry(geometry, config.user, sc)
        scale = 1.0 if sc is None else 10.0 ** (-NLOS_EXTRA_LOSS_DB / 20.0)
        paths.append(
            PathSpec(
                gains=scale * GAIN_REFERENCE / dists,
                distances=dists,
                aod=aod,
                aoa=aoa,
                scatterer=sc,
            )
        )
    return paths


def build_comm_channel(
    geometry: ArrayGeometry, paths: list[PathSpec], n_user: int
) -> np.ndarray:
    """Assemble the n_user x K*M stacked channel H = [H_1 ... H_K].

    Block k sums over paths p the rank-1 term
    mu_p^k * a_user(aoa_p^k) a_tx(aod_p^k)^H with complex gain
    mu_p^k = gain_p^k * exp(-j*2*pi*D_p^k/lambda).
    """
    if not paths:
        raise ConfigurationError("need at least one path")
    k, m = geometry.k_subarrays, geometry.m_antennas
    lam, d = geometry.wavelength, geometry.d
    h = np.zeros((k, n_user, m), dtype=complex)  # H_k stacked, moved side by side at the end
    for p in paths:
        mu = p.gains * np.exp(-2j * np.pi * p.distances / lam)
        a_rx = steering_vector(n_user, p.aoa, d, lam)
        a_tx = steering_vector(m, p.aod, d, lam)
        h += mu[:, None, None] * (a_rx[:, :, None] * a_tx.conj()[:, None, :])
    return h.transpose(1, 0, 2).reshape(n_user, k * m)


def rank_bounds(n_paths: int, n_user: int, k_subarrays: int) -> tuple[int, int]:
    """Structural bounds on rank(H): (min(Np, Nc), min(K*Np, Nc))."""
    if min(n_paths, n_user, k_subarrays) < 1:
        raise ValueError("all arguments must be >= 1")
    return min(n_paths, n_user), min(k_subarrays * n_paths, n_user)


def numerical_rank(matrix: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Count singular values above rel_tol times the largest one."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


@dataclass(frozen=True)
class ObjectResponse:
    """One scene object's transmit/receive array responses and its amplitude.

    g_t/g_r have length N = K*M and unit-modulus entries, a_t_blocks are the
    (K, M) transmit intra-subarray steering vectors and alpha is the
    object's reflection amplitude alpha_q.
    """

    g_t: np.ndarray
    g_r: np.ndarray
    a_t_blocks: np.ndarray
    alpha: float


def sensing_response(geometry: ArrayGeometry, obj: SceneObject) -> ObjectResponse:
    """Piecewise-far-field response vectors toward one object.

    Block k of g_t equals nu_k * a_t^k with nu_k = exp(-j*2*pi*r_k/lambda)
    and a_t^k the intra-subarray steering vector at angle theta_k, where
    (r_k, theta_k) come from `geometry.subarray_view`; likewise g_r.
    """
    k, m = geometry.k_subarrays, geometry.m_antennas
    lam, d = geometry.wavelength, geometry.d

    def side_response(side: str) -> tuple[np.ndarray, np.ndarray]:
        ranges, angles = subarray_view(geometry, side, obj.location)
        nu = np.exp(-2j * np.pi / lam * ranges)
        blocks = steering_vector(m, angles, d, lam)
        return (nu[:, None] * blocks).reshape(k * m), blocks

    g_t, a_t = side_response("tx")
    g_r, _ = side_response("rx")
    return ObjectResponse(g_t=g_t, g_r=g_r, a_t_blocks=a_t, alpha=obj.alpha)


def build_responses(
    geometry: ArrayGeometry, objects: tuple[SceneObject, ...]
) -> tuple[ObjectResponse, ...]:
    """Responses for a whole scene (target first, then interferers)."""
    if not objects:
        raise ConfigurationError("scene needs at least the target")
    return tuple(sensing_response(geometry, o) for o in objects)


def simulate_echoes(
    responses: tuple[ObjectResponse, ...],
    x: np.ndarray,
    sigma_s_sq: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Raw echo snapshots Y = sum_q beta_q g_rq g_tq^H X + Z.

    Reflection coefficients beta_q ~ CN(0, alpha_q^2) are drawn once per call
    (one coherent block); Z entries are i.i.d. CN(0, sigma_s_sq).
    """
    n = responses[0].g_t.size
    if x.shape[0] != n:
        raise ValueError(f"X must have {n} rows, got {x.shape[0]}")
    length = x.shape[1]
    y = np.zeros((n, length), dtype=complex)
    for resp in responses:
        beta = resp.alpha * (
            rng.standard_normal() + 1j * rng.standard_normal()
        ) / np.sqrt(2.0)
        y += beta * np.outer(resp.g_r, resp.g_t.conj() @ x)
    if sigma_s_sq > 0:
        noise = rng.standard_normal((n, length)) + 1j * rng.standard_normal((n, length))
        y += np.sqrt(sigma_s_sq / 2.0) * noise
    return y
