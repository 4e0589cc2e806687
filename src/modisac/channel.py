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
    inter_subarray_phase,
    steering_vector,
    subarray_angle,
)


@dataclass(frozen=True)
class PathSpec:
    """One propagation path between the transmit array and the user.

    Per-subarray arrays have length K: reference-to-reference distances along
    the path, departure angles at each subarray and arrival angles at the
    user. `gains` holds the linear amplitude |mu| per subarray. The LoS path
    has no scatterer; NLoS paths carry exactly one.
    """

    kind: str
    gains: np.ndarray
    distances: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray
    scatterer: Optional[PolarPoint] = None

    def __post_init__(self) -> None:
        if self.kind not in ("los", "nlos"):
            raise ConfigurationError(f"path kind must be 'los' or 'nlos', got {self.kind!r}")
        if (self.kind == "nlos") != (self.scatterer is not None):
            raise ConfigurationError("NLoS paths carry a scatterer, LoS paths do not")
        if np.any(np.asarray(self.gains) <= 0):
            raise ConfigurationError("path gains must be positive")


def _angle_from(src_xy: np.ndarray, dst_xy: np.ndarray) -> float:
    """Angle of `src` seen from `dst`, from the positive y-axis."""
    delta = src_xy - dst_xy
    dist = float(np.hypot(*delta))
    if dist <= 0.0:
        raise DegenerateGeometryError("coincident scene points")
    return float(np.arcsin(np.clip(delta[0] / dist, -1.0, 1.0)))


def _path_geometry(
    geometry: ArrayGeometry, user: PolarPoint, scatterer: Optional[PolarPoint]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-subarray (distances, aod, aoa) for a LoS or single-bounce path."""
    refs = geometry.reference_positions("tx")
    k = refs.shape[0]
    user_xy = user.xy
    if scatterer is None:
        dists = np.linalg.norm(user_xy[None, :] - refs, axis=1)
        if np.any(dists <= 0.0):
            raise DegenerateGeometryError("user coincides with a reference antenna")
        aod = np.array([subarray_angle(geometry, "tx", i, user) for i in range(k)])
        aoa = np.array([_angle_from(refs[i], user_xy) for i in range(k)])
    else:
        sc_xy = scatterer.xy
        leg1 = np.linalg.norm(sc_xy[None, :] - refs, axis=1)
        leg2 = float(np.linalg.norm(user_xy - sc_xy))
        if np.any(leg1 <= 0.0) or leg2 <= 0.0:
            raise DegenerateGeometryError("scatterer coincides with an endpoint")
        dists = leg1 + leg2
        aod = np.array([subarray_angle(geometry, "tx", i, scatterer) for i in range(k)])
        aoa = np.full(k, _angle_from(sc_xy, user_xy))
    return dists, aod, aoa


def draw_paths(
    config: ScenarioConfig, geometry: ArrayGeometry, rng: np.random.Generator
) -> list[PathSpec]:
    """Draw the LoS path plus n_paths-1 NLoS paths with random scatterers.

    Scatterers are uniform over the configured range/angle sector. Amplitudes
    follow free-space 1/D decay referenced to `gain_reference`, with NLoS
    paths attenuated by `nlos_extra_loss_db` below the LoS law.
    """
    if config.n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    nlos_scale = 10.0 ** (-config.nlos_extra_loss_db / 20.0)
    paths = []
    dists, aod, aoa = _path_geometry(geometry, config.user, None)
    paths.append(
        PathSpec(
            kind="los",
            gains=config.gain_reference / dists,
            distances=dists,
            aod=aod,
            aoa=aoa,
        )
    )
    r_lo, r_hi = config.scatter_range
    a_lo, a_hi = config.scatter_angle
    for _ in range(config.n_paths - 1):
        sc = PolarPoint(
            r=float(rng.uniform(r_lo, r_hi)),
            theta=float(rng.uniform(a_lo, a_hi)),
        )
        dists, aod, aoa = _path_geometry(geometry, config.user, sc)
        paths.append(
            PathSpec(
                kind="nlos",
                gains=nlos_scale * config.gain_reference / dists,
                distances=dists,
                aod=aod,
                aoa=aoa,
                scatterer=sc,
            )
        )
    return paths


def build_comm_channel(
    geometry: ArrayGeometry,
    paths: list[PathSpec],
    user: PolarPoint,
    n_user: int,
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
    refs = geometry.reference_positions("tx")
    if np.any(np.linalg.norm(user.xy[None, :] - refs, axis=1) <= 0.0):
        raise DegenerateGeometryError("user coincides with a reference antenna")
    h = np.zeros((n_user, k * m), dtype=complex)
    for p in paths:
        mu = p.gains * np.exp(-2j * np.pi * p.distances / lam)
        for i in range(k):
            a_rx = steering_vector(n_user, p.aoa[i], d, lam)
            a_tx = steering_vector(m, p.aod[i], d, lam)
            h[:, i * m : (i + 1) * m] += mu[i] * np.outer(a_rx, a_tx.conj())
    return h


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
    """Transmit/receive array responses toward one scene object.

    g_t/g_r have length N = K*M and unit-modulus entries. a_t_blocks are the
    (K, M) transmit intra-subarray steering vectors, nu_t the length-K
    inter-subarray phase vector and tx_angles the per-subarray observation
    angles.
    """

    g_t: np.ndarray
    g_r: np.ndarray
    nu_t: np.ndarray
    tx_angles: np.ndarray
    a_t_blocks: np.ndarray


def sensing_response(geometry: ArrayGeometry, location: PolarPoint) -> ObjectResponse:
    """Piecewise-far-field response vectors toward one location.

    Block k of g_t equals nu_t[k] * a_t^k with a_t^k the intra-subarray
    steering vector at the per-subarray observation angle; likewise g_r on
    the receive side.
    """
    k, m = geometry.k_subarrays, geometry.m_antennas
    lam, d = geometry.wavelength, geometry.d
    out: dict[str, np.ndarray] = {}
    for side in ("tx", "rx"):
        angles = np.array(
            [subarray_angle(geometry, side, i, location) for i in range(k)]
        )
        nu = inter_subarray_phase(geometry, side, location)
        blocks = np.stack([steering_vector(m, a, d, lam) for a in angles])
        g = (nu[:, None] * blocks).reshape(k * m)
        out[side] = (g, nu, angles, blocks)
    g_t, nu_t, tx_angles, a_t = out["tx"]
    return ObjectResponse(
        g_t=g_t, g_r=out["rx"][0], nu_t=nu_t, tx_angles=tx_angles, a_t_blocks=a_t
    )


def build_responses(
    geometry: ArrayGeometry, objects: tuple[SceneObject, ...]
) -> tuple[ObjectResponse, ...]:
    """Responses for a whole scene (target first, then interferers)."""
    if not objects:
        raise ConfigurationError("scene needs at least the target")
    return tuple(sensing_response(geometry, o.location) for o in objects)


def simulate_echoes(
    responses: tuple[ObjectResponse, ...],
    objects: tuple[SceneObject, ...],
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
    if len(objects) != len(responses):
        raise ValueError("scene and responses disagree on object count")
    length = x.shape[1]
    y = np.zeros((n, length), dtype=complex)
    for obj, resp in zip(objects, responses):
        beta = obj.alpha * (
            rng.standard_normal() + 1j * rng.standard_normal()
        ) / np.sqrt(2.0)
        y += beta * np.outer(resp.g_r, resp.g_t.conj() @ x)
    if sigma_s_sq > 0:
        noise = rng.standard_normal((n, length)) + 1j * rng.standard_normal((n, length))
        y += np.sqrt(sigma_s_sq / 2.0) * noise
    return y
