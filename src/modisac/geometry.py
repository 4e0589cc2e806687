"""Array geometry for a modular widely-spaced multi-subarray transceiver.

Transmit and receive linear arrays sit on the x-axis, mirror-symmetric about
the origin. Each of the K subarrays holds M elements at half-wavelength
spacing d; reference antennas of adjacent subarrays are d_s = Gamma*d apart.
Scene points (user, target, scatterers, interferers) are polar: range r from
the origin and angle theta from the positive y-axis, positive toward +x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SPEED_OF_LIGHT = 299792458.0


class ConfigurationError(ValueError):
    """Scenario parameters violate a structural constraint."""


class DegenerateGeometryError(ValueError):
    """A scene point coincides with a reference antenna."""


@dataclass(frozen=True)
class PolarPoint:
    """Scene point: range r (m) and angle theta (rad) from the positive y-axis."""

    r: float
    theta: float

    def __post_init__(self) -> None:
        if not self.r > 0:
            raise ConfigurationError(f"range must be positive, got {self.r}")
        if not -np.pi / 2 <= self.theta <= np.pi / 2:
            raise ConfigurationError(
                f"angle must lie in [-pi/2, pi/2], got {self.theta}"
            )

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.r * np.sin(self.theta), self.r * np.cos(self.theta)])


@dataclass(frozen=True)
class SceneObject:
    """A sensed object: location plus reflection amplitude alpha (RCS scale)."""

    location: PolarPoint
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be nonnegative, got {self.alpha}")


@dataclass
class ScenarioConfig:
    """Full scene description for one simulation instance.

    Every field is required; `harness.config_from_dict` fills the defaults
    from the config-file field names. Angles are radians, distances meters,
    powers linear watts. The SCNR threshold scnr_min is linear. `gamma` is
    the inter-subarray spacing factor (d_s = gamma * d) and must satisfy
    gamma >= m_antennas so that subarrays never overlap.
    """

    carrier_frequency: float
    k_subarrays: int
    m_antennas: int
    gamma: float
    d0: float
    n_user_antennas: int
    n_paths: int
    user: PolarPoint
    target: SceneObject
    interferers: tuple[SceneObject, ...]
    sigma_c_sq: float
    sigma_s_sq: float
    scnr_min: float
    n_streams: Optional[int]
    snapshots: int
    seed: int
    layout: str

    def __post_init__(self) -> None:
        if self.carrier_frequency <= 0:
            raise ConfigurationError("carrier_frequency must be positive")
        if self.k_subarrays < 1 or self.m_antennas < 1 or self.n_user_antennas < 1:
            raise ConfigurationError("k_subarrays, m_antennas, n_user_antennas must be >= 1")
        if self.gamma < self.m_antennas:
            raise ConfigurationError(
                f"gamma={self.gamma} must be >= m_antennas={self.m_antennas}"
            )
        if self.n_paths < 1:
            raise ConfigurationError("n_paths must be >= 1")
        if self.d0 < 0:
            raise ConfigurationError("d0 must be nonnegative")
        if self.sigma_c_sq <= 0 or self.sigma_s_sq <= 0:
            raise ConfigurationError("noise powers must be positive")
        if self.scnr_min < 0:
            raise ConfigurationError("scnr_min must be nonnegative")
        n_rf = self.k_subarrays * (self.n_objects + self.n_paths)
        if self.n_streams is not None and not 1 <= self.n_streams <= n_rf:
            raise ConfigurationError(
                f"n_streams={self.n_streams} must lie in [1, N_RF={n_rf}]"
            )
        if self.snapshots < 1:
            raise ConfigurationError("snapshots must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.layout not in ("uniform", "random", "collocated"):
            raise ConfigurationError(f"unknown layout {self.layout!r}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def d(self) -> float:
        return self.wavelength / 2.0

    @property
    def d_s(self) -> float:
        return self.gamma * self.d

    @property
    def n_antennas(self) -> int:
        return self.k_subarrays * self.m_antennas

    @property
    def scene_objects(self) -> tuple[SceneObject, ...]:
        return (self.target,) + tuple(self.interferers)

    @property
    def n_objects(self) -> int:
        return 1 + len(self.interferers)


@dataclass(frozen=True)
class ArrayGeometry:
    """Element coordinates of the transmit and receive modular arrays.

    tx_positions/rx_positions have shape (K, M, 2). The receive array is the
    mirror image of the transmit array about the origin. Reference antenna of
    subarray k is element m=0.
    """

    tx_positions: np.ndarray
    rx_positions: np.ndarray
    wavelength: float
    d: float

    @property
    def k_subarrays(self) -> int:
        return self.tx_positions.shape[0]

    @property
    def m_antennas(self) -> int:
        return self.tx_positions.shape[1]

    @property
    def n_antennas(self) -> int:
        return self.k_subarrays * self.m_antennas

    def reference_positions(self, side: str) -> np.ndarray:
        """(K, 2) coordinates of the reference antennas on the given side."""
        return self._positions(side)[:, 0, :]

    def _positions(self, side: str) -> np.ndarray:
        if side == "tx":
            return self.tx_positions
        if side == "rx":
            return self.rx_positions
        raise ValueError(f"side must be 'tx' or 'rx', got {side!r}")


def build_geometry(
    config: ScenarioConfig,
    subarray_offsets: Optional[Sequence[float]] = None,
) -> ArrayGeometry:
    """Place array elements per the uniform modular layout.

    x-coordinate of element m in subarray k (0-based) on the transmit side is
    d0 + k*d_s + m*d; receive positions are the negated transmit positions.
    `subarray_offsets` overrides the reference x-coordinates (layout variants);
    offsets must be increasing with at least M*d separation.
    """
    k, m = config.k_subarrays, config.m_antennas
    d, d_s = config.d, config.d_s
    if subarray_offsets is None:
        offsets = config.d0 + np.arange(k) * d_s
    else:
        offsets = np.asarray(subarray_offsets, dtype=float)
        if offsets.shape != (k,):
            raise ConfigurationError(f"need {k} subarray offsets, got {offsets.shape}")
        if np.any(np.diff(offsets) < m * d - 1e-12):
            raise ConfigurationError("subarray offsets overlap (separation < M*d)")
    x = offsets[:, None] + np.arange(m)[None, :] * d
    tx = np.stack([x, np.zeros_like(x)], axis=-1)
    return ArrayGeometry(
        tx_positions=tx,
        rx_positions=-tx,
        wavelength=config.wavelength,
        d=d,
    )


def steering_vector(m: int, angle, d: float, wavelength: float) -> np.ndarray:
    """Far-field intra-subarray steering vector of length m.

    Entry i (0-based) is exp(-j*2*pi/wavelength * i * d * sin(angle)); the
    reference element carries phase 0. An array of angles gives one row per
    angle, shape (len(angle), m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    phase = np.multiply.outer(-2.0 * np.pi / wavelength * d * np.sin(angle), np.arange(m))
    return np.exp(1j * phase)


# A scene point within COINCIDENT_TOL * max(1, r) of a reference antenna has
# no observation angle: `subarray_view` raises, `music` flags the grid cell.
COINCIDENT_TOL = 1e-12


def bearing(delta: np.ndarray) -> np.ndarray:
    """Angle from the positive y-axis of displacements delta (..., 2), in [-pi/2, pi/2]."""
    sine = delta[..., 0] / np.hypot(delta[..., 0], delta[..., 1])
    return np.arcsin(np.clip(sine, -1.0, 1.0))


def subarray_view(
    geometry: ArrayGeometry, side: str, location: PolarPoint
) -> tuple[np.ndarray, np.ndarray]:
    """(ranges, angles), both length K: `location` seen from each reference antenna.

    Entry k holds ||l_loc - l_k|| and the observation angle
    arcsin((x_loc - x_k) / ||l_loc - l_k||), with l_k the reference antenna
    of subarray k on the given side: the pair the piecewise-far-field model
    builds subarray k's response from.
    """
    delta = location.xy - geometry.reference_positions(side)
    # norm for the ranges, hypot for the angles: the two round differently,
    # and ranges through hypot move rm_jgd sweep rows in the 4th-7th digit
    ranges = np.linalg.norm(delta, axis=1)
    if np.any(ranges <= COINCIDENT_TOL * max(1.0, location.r)):
        raise DegenerateGeometryError(f"location coincides with a reference antenna ({side})")
    return ranges, bearing(delta)

