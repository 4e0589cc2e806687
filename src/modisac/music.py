"""Near-field MUSIC localization over a 2-D Cartesian grid.

The receive response at each grid point follows the piecewise-far-field
model (planar within a subarray, spherical across subarrays), so the
pseudo-spectrum resolves range as well as angle once several subarrays
observe the scene from sufficiently different positions.

Grid responses use that factorization directly: receive block k toward a
cell is nu_k * [1, z_k, ..., z_k^(M-1)], one inter-subarray phase nu_k and
one intra-subarray phase step z_k, so a cell costs 2K unit phasors and
K*(M-1) products rather than one exponential per antenna. Each unit phasor
comes from a 4096-entry table of e^(2*pi*j*n/4096) times a degree-5 series
in the remainder (Tang 1989), with no libm cos or sin. A cell within
`geometry.COINCIDENT_TOL`*max(1, r) of a receive reference antenna has no
observation angle (`geometry.subarray_view` raises); it is zeroed and flagged.

Each response g has unit-modulus entries, so ||g||^2 = N and the MUSIC
denominator ||E^H g||^2 equals N - ||S^H g||^2, with S the orthonormal
complement of the noise basis E (Schmidt 1986). Cells are projected onto
whichever of E and S has fewer columns: with few sources that is an
N x n_src product per cell (32x2 on the desk localization scene).

Cells go CHUNK_ENTRIES/N at a time (2048 at N=32) through work arrays
allocated once per spectrum, ~1.7 MB whatever N is; a spectrum holds 9 bytes
a cell beyond them. A chunk's arrays keep the cells innermost: coordinates
and ranges are (K, n), the phasors (M+1, K, n), so each step is one
contiguous pass over K*n entries, and the M*K x n block of responses is the
right operand of one GEMM against the basis rows put in its (i, k) order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import COINCIDENT_TOL, ArrayGeometry, DegenerateGeometryError

# Response entries per grid chunk: CHUNK_ENTRIES/N cells at a time.
CHUNK_ENTRIES = 65_536
# The -3 dB range-lobe width is read off a range cut from LOBE_EXTENT m
# below to LOBE_EXTENT m above the peak, in steps of LOBE_STEP m.
LOBE_EXTENT = 5.0
LOBE_STEP = 0.002


@dataclass(frozen=True)
class GridSpec:
    """Rectangular search grid: inclusive ranges with fixed steps (meters)."""

    x0: float
    dx: float
    x1: float
    y0: float
    dy: float
    y1: float

    def __post_init__(self) -> None:
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid steps must be positive")
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("grid ranges must be nonempty")

    @property
    def x_axis(self) -> np.ndarray:
        n = int(np.floor((self.x1 - self.x0) / self.dx + 1e-9)) + 1
        return self.x0 + self.dx * np.arange(n)

    @property
    def y_axis(self) -> np.ndarray:
        n = int(np.floor((self.y1 - self.y0) / self.dy + 1e-9)) + 1
        return self.y0 + self.dy * np.arange(n)

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse "x0:dx:x1,y0:dy:y1" (the y part defaults to the x part)."""
        parts = [part.split(":") for part in text.split(",")]
        if len(parts) > 2 or any(len(part) != 3 for part in parts):
            raise ValueError(f"bad grid spec {text!r}")
        return cls(*(float(v) for part in (parts * 2)[:2] for v in part))


@dataclass
class MusicResult:
    """Normalized spectrum surface with peak and -3 dB range-lobe width."""

    spectrum: np.ndarray  # shape (len(y_axis), len(x_axis)), max value 1
    x_axis: np.ndarray
    y_axis: np.ndarray
    peak_location: tuple[float, float]
    peak_index: tuple[int, int]
    mainlobe_width: float
    flagged_cells: list[tuple[int, int]] = field(default_factory=list)


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Hermitian sample covariance (1/L) Y Y^H of column snapshots."""
    if snapshots.ndim != 2 or snapshots.shape[1] < 1:
        raise ValueError("snapshots must be a nonempty N x L matrix")
    cov = snapshots @ snapshots.conj().T / snapshots.shape[1]
    return 0.5 * (cov + cov.conj().T)


def noise_subspace(cov: np.ndarray, assumed_sources: int) -> np.ndarray:
    """Orthonormal basis of the noise subspace: smallest eigenvectors of cov."""
    n = cov.shape[0]
    if not 0 <= assumed_sources < n:
        raise ValueError(f"assumed_sources must lie in [0, {n}), got {assumed_sources}")
    _, vecs = np.linalg.eigh(0.5 * (cov + cov.conj().T))
    return vecs[:, : n - assumed_sources]


_TABLE_SIZE = 4096
# e^(2*pi*j*n/T) for n = 0..T-1: a quarter turn rounded once from long
# double, then the other three by exact multiples of j
_QUARTER = np.exp(
    2j * np.arccos(np.longdouble(-1)) / _TABLE_SIZE * np.arange(_TABLE_SIZE // 4)
).astype(complex)
_TABLE = np.concatenate([_QUARTER, 1j * _QUARTER, -_QUARTER, -1j * _QUARTER])


def _unit_phasors(source, scale, out, rho, rho_sq, index, lookup) -> None:
    """Write exp(j*scale*source) into `out` with no libm cos or sin.

    With t = scale*source*T/(2*pi) and n = rint(t), the phasor is
    TABLE[n mod T] * e^(j*rho), rho = (t - n)*2*pi/T, |rho| <= pi/T; e^(j*rho)
    is 1 - rho^2/2 + rho^4/24 + j*rho*(1 - rho^2/6 + rho^4/120), whose next
    terms are below 3e-22 (Tang 1989, ACM TOMS 15(2)). The error is about
    eps*(1 + |phase|), set by rounding t. `rho`, `rho_sq` (float), `index`
    (int64) and `lookup` (complex, C-contiguous) are work arrays of out's
    shape.
    """
    np.multiply(source, scale * _TABLE_SIZE / (2 * np.pi), out=rho)
    np.rint(rho, out=rho_sq)
    np.subtract(rho, rho_sq, out=rho)
    np.copyto(index, rho_sq, casting="unsafe")
    np.bitwise_and(index, _TABLE_SIZE - 1, out=index)
    np.multiply(rho, 2 * np.pi / _TABLE_SIZE, out=rho)
    np.multiply(rho, rho, out=rho_sq)
    # each series by Horner in rho^2 in the first half of `lookup`, a
    # contiguous buffer until the lookup, so `out`'s strided parts are
    # written once each
    poly = lookup.view(float).reshape(-1)[: rho.size].reshape(rho.shape)
    np.add(np.multiply(rho_sq, 1 / 120, out=poly), -1 / 6, out=poly)
    np.add(np.multiply(poly, rho_sq, out=poly), 1.0, out=poly)
    np.multiply(poly, rho, out=out.imag)
    np.add(np.multiply(rho_sq, 1 / 24, out=poly), -1 / 2, out=poly)
    np.add(np.multiply(poly, rho_sq, out=poly), 1.0, out=out.real)
    # every index lies in [0, T) already; "clip" only skips the bounds check
    np.multiply(out, np.take(_TABLE, index, out=lookup, mode="clip"), out=out)


def _grid_work(cells: int, k: int, m: int) -> tuple:
    """Work arrays of `_receive_responses_grid` for up to `cells` cells.

    A chunk of n cells takes the first entries of each, reshaped with the
    cells innermost, so a partial last chunk is as contiguous as a full one.
    """
    return (np.empty((4, k * cells)), np.empty(cells), np.empty(k * cells, dtype=bool),
            np.empty(cells, dtype=bool), np.empty((m + 1) * k * cells, dtype=complex),
            np.empty(k * cells, dtype=np.int64))


def _receive_responses_grid(
    geometry: ArrayGeometry, x: np.ndarray, y: np.ndarray, work: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Receive responses for flat coordinate arrays, element-major.

    Returns (G, degenerate). G has shape (M, K, n) for n = x.size: G[i, k, c]
    is entry k*M + i of the receive response g_r of `channel.sensing_response`
    toward (x[c], y[c]), not its conjugate, so G.reshape(M*K, n) holds one
    response per column with its rows in (i, k) order. Block k is
    nu_k * [1, z_k, ..., z_k^(M-1)] with nu_k = exp(-j*2*pi*r_k/lambda) and
    z_k = exp(-j*2*pi*d*sin(theta_k)/lambda), r_k and theta_k the range and
    angle from receive reference antenna k, so a cell costs 2K unit phasors
    (`_unit_phasors`: a table entry times a short series each) and K*(M-1)
    products, each running product one contiguous (K, n) multiply.
    `degenerate` marks cells within COINCIDENT_TOL*max(1, r) of a reference
    antenna, where `geometry.subarray_view` raises; their columns are
    meaningless. Both are views into `work` (`_grid_work` for at least
    n cells); the ranges r_k stay in work[0][2][:K*n], read as (K, n).
    """
    refs = geometry.reference_positions("rx")
    k, m, n = geometry.k_subarrays, geometry.m_antennas, x.size
    real, tol, mask, bad, phasors, index = work
    dx, dy, dist, phase = real[:, : k * n].reshape(4, k, n)
    tol, bad = tol[:n], bad[:n]
    mask, index = mask[: k * n].reshape(k, n), index[: k * n].reshape(k, n)
    phasors = phasors[: (m + 1) * k * n].reshape(m + 1, k, n)
    g, step = phasors[:m], phasors[m]
    np.subtract(x, refs[:, 0, None], out=dx)
    np.subtract(y, refs[:, 1, None], out=dy)
    # sqrt(dx^2 + dy^2) rounds as subarray_view's norm does; hypot does not
    np.add(np.multiply(dx, dx, out=dist), np.multiply(dy, dy, out=dy), out=dist)
    np.sqrt(dist, out=dist)
    np.multiply(COINCIDENT_TOL, np.maximum(1.0, np.hypot(x, y, out=tol), out=tol), out=tol)
    if np.less_equal(dist, tol, out=mask).any():
        np.any(mask, axis=0, out=bad)
    else:
        bad.fill(False)
    # dx becomes sin(theta) = dx/dist, clipped; where dist is 0 it keeps dx/1
    np.divide(dx, dist, out=dx, where=np.greater(dist, 0.0, out=mask))
    np.clip(dx, -1.0, 1.0, out=dx)
    wavenumber = -2.0 * np.pi / geometry.wavelength
    # dy and phase are free now, and phasors[1], written after nu_k and z_k
    # (and z_k is not needed when M = 1), lends them the table lookup
    _unit_phasors(dist, wavenumber, g[0], phase, dy, index, phasors[1])
    if m > 1:
        _unit_phasors(dx, wavenumber * geometry.d, step, phase, dy, index, phasors[1])
    for i in range(1, m):
        np.multiply(g[i - 1], step, out=g[i])
    return g, bad


def _pseudo_spectrum(
    geometry: ArrayGeometry,
    noise_basis: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized 1/(||E^H g||^2 + 1e-18) values, flat, for x, y of one shape.

    x and y are read CHUNK_ENTRIES/N cells at a time in row-major order
    (broadcast views of the axes serve) into work arrays allocated once per
    call.

    Each cell is projected onto whichever subspace has fewer columns. With
    S the orthonormal complement of E, ||E^H g||^2 = ||g||^2 - ||S^H g||^2,
    and ||g||^2 = N because every entry of g has unit modulus. So E itself
    is used when it has at most N/2 columns (an empty basis gives the exact
    flat spectrum 1e18); otherwise S, taken once from a complete QR of E,
    and the denominator is N - ||S^H g||^2, clamped at 0 before the 1e-18
    floor. The signal side carries an absolute rounding error of about N*eps
    in the denominator; at a noiseless null that error is all there is, and
    it may have either sign, hence the clamp. Off such nulls it is negligible
    (the smallest is 2.4e-5 over the localize workload's first 15 grids).
    """
    n, width = noise_basis.shape
    if 2 * width <= n:
        basis, offset, sign = noise_basis, 0.0, 1.0
    else:
        basis = np.linalg.qr(noise_basis, mode="complete")[0][:, width:]
        offset, sign = float(n), -1.0
    k, m = geometry.k_subarrays, geometry.m_antennas
    width = basis.shape[1]
    # B^H with its columns in the (i, k) order of the grid responses' rows,
    # so each chunk is one product B^H G, read straight off the phasors
    basis_h = basis.reshape(k, m, width).transpose(2, 1, 0).reshape(width, n).conj()
    chunk = CHUNK_ENTRIES // n
    cells = min(chunk, x.size)
    # the outputs before the work arrays, so that glibc's heap frees the
    # work as one block above them
    values, degenerate = np.empty(x.size), np.empty(x.size, dtype=bool)
    work = _grid_work(cells, k, m)
    proj_work, sum_work = np.empty(width * cells, dtype=complex), np.empty(2 * cells)
    denom_work = np.empty(cells)
    for start in range(0, x.size, chunk):
        sl = slice(start, min(start + chunk, x.size))
        g, bad = _receive_responses_grid(geometry, x.flat[sl], y.flat[sl], work)
        cols = bad.size
        degenerate[sl] = bad
        proj = proj_work[: width * cols].reshape(width, cols)
        np.matmul(basis_h, g.reshape(n, cols), out=proj)
        # |B^H g|^2: square a real view in place, sum it down the basis
        # columns, then add each cell's re^2 and im^2 sums
        proj = proj.view(np.float64)
        np.multiply(proj, proj, out=proj)
        sums = np.add.reduce(proj, axis=0, out=sum_work[: 2 * cols])
        denom = np.add(sums[0::2], sums[1::2], out=denom_work[:cols])
        # 1 / (max(offset + sign * denom, 0) + 1e-18), in place
        np.add(offset, np.multiply(sign, denom, out=denom), out=denom)
        np.add(np.maximum(denom, 0.0, out=denom), 1e-18, out=denom)
        np.divide(1.0, denom, out=values[sl])
        values[sl][bad] = 0.0
    return values, degenerate


def music_spectrum(
    noise_basis: np.ndarray, geometry: ArrayGeometry, grid: GridSpec
) -> MusicResult:
    """Evaluate the MUSIC pseudo-spectrum over the grid and locate the peak.

    The surface is normalized to a maximum of one; ties at the peak break
    toward the lowest linear index (row-major over y then x). Cells within
    COINCIDENT_TOL*max(1, r) of a reference antenna are zeroed and flagged;
    when every cell is, DegenerateGeometryError is raised.
    The mainlobe width is the -3 dB extent of a fine range cut through the
    peak at its angle.
    """
    k, m = geometry.k_subarrays, geometry.m_antennas
    if noise_basis.ndim != 2 or noise_basis.shape[0] != k * m:
        raise ValueError(
            f"noise_basis has shape {noise_basis.shape}, expected ({k * m}, p) "
            f"for K={k} subarrays of M={m} antennas"
        )
    xs, ys = grid.x_axis, grid.y_axis
    values, degenerate = _pseudo_spectrum(
        geometry, noise_basis, *np.broadcast_arrays(xs, ys[:, None])
    )
    peak_flat = int(np.argmax(values))
    peak_val = values[peak_flat]
    if peak_val <= 0.0:
        raise DegenerateGeometryError(
            "spectrum is identically zero: every grid cell coincides with a receive "
            "reference antenna"
        )
    values /= peak_val
    iy, ix = divmod(peak_flat, len(xs))
    x_pk, y_pk = float(xs[ix]), float(ys[iy])
    width = _range_lobe_width(noise_basis, geometry, x_pk, y_pk)
    flagged = [divmod(int(i), len(xs)) for i in np.nonzero(degenerate)[0]]
    return MusicResult(
        spectrum=values.reshape(len(ys), len(xs)),
        x_axis=xs,
        y_axis=ys,
        peak_location=(x_pk, y_pk),
        peak_index=(iy, ix),
        mainlobe_width=width,
        flagged_cells=flagged,
    )


def _range_lobe_width(
    noise_basis: np.ndarray,
    geometry: ArrayGeometry,
    x_pk: float,
    y_pk: float,
) -> float:
    """-3 dB width of the spectrum along the range axis at the peak angle."""
    r_pk = float(np.hypot(x_pk, y_pk))
    if r_pk == 0.0:
        return 0.0
    theta = np.arctan2(x_pk, y_pk)
    radii = np.arange(
        max(LOBE_STEP, r_pk - LOBE_EXTENT), r_pk + LOBE_EXTENT + LOBE_STEP, LOBE_STEP
    )
    x = radii * np.sin(theta)
    y = radii * np.cos(theta)
    vals, _ = _pseudo_spectrum(geometry, noise_basis, x, y)
    i_max = int(np.argmax(vals))
    threshold = 10.0 ** (-0.3) * vals[i_max]
    edges = []
    for d in (-1, 1):  # walk down, then up, to the last radius above threshold
        i = i_max
        while 0 <= i + d < vals.size and vals[i + d] >= threshold:
            i += d
        edge = radii[i]
        if 0 <= i + d < vals.size:  # interpolate the crossing toward i + d
            frac = (vals[i] - threshold) / max(vals[i] - vals[i + d], 1e-300)
            edge = edge + d * (frac * LOBE_STEP)
        edges.append(edge)
    return float(edges[1] - edges[0])


def save_spectrum_csv(result: MusicResult, path: str) -> None:
    """Write (x, y, value) rows, y-major to match the stored surface."""
    with open(path, "w") as f:
        f.write("x,y,value\n")
        for iy, y in enumerate(result.y_axis):
            for ix, x in enumerate(result.x_axis):
                f.write(f"{x:.6f},{y:.6f},{result.spectrum[iy, ix]:.9e}\n")


def save_spectrum_grid(result: MusicResult, path: str) -> None:
    """Compact binary dump: int64 nx, ny; float64 x0, y0, dx, dy; row-major data."""
    nx, ny = result.x_axis.size, result.y_axis.size
    dx = result.x_axis[1] - result.x_axis[0] if nx > 1 else 0.0
    dy = result.y_axis[1] - result.y_axis[0] if ny > 1 else 0.0
    with open(path, "wb") as f:
        f.write(struct.pack("<qqdddd", nx, ny, result.x_axis[0], result.y_axis[0], dx, dy))
        result.spectrum.astype("<f8").tofile(f)
