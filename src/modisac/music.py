"""Near-field MUSIC localization over a 2-D Cartesian grid.

The receive response at each grid point follows the piecewise-far-field
model (planar within a subarray, spherical across subarrays), so the
pseudo-spectrum resolves range as well as angle once several subarrays
observe the scene from sufficiently different positions.

Grid responses use that factorization directly: receive block k toward a
cell is nu_k * [1, z_k, ..., z_k^(M-1)], one inter-subarray phase nu_k and
one intra-subarray phase step z_k, with nu_k relative to subarray K-1
(MUSIC is blind to a per-cell phase), so a cell costs 2K-1 unit phasors and
K*(M-1) products rather than one exponential per antenna. Phases are
positions in a 4096-entry table of e^(2*pi*j*n/4096), indexed with no
integer cast, times a short series in the remainder (Tang 1989), with no
libm cos or sin. A cell within `geometry.COINCIDENT_TOL`*max(1, r) of a
receive reference antenna has no observation angle (`geometry.subarray_view`
raises); it is zeroed and flagged.

Each response g has unit-modulus entries, so ||g||^2 = N and the MUSIC
denominator ||E^H g||^2 equals N - ||S^H g||^2, with S the orthonormal
complement of the noise basis E (Schmidt 1986). Cells are projected onto
whichever of E and S has fewer columns: with few sources that is an
N x n_src product per cell (32x2 on the desk localization scene).

The grid goes in blocks of whole rows, CHUNK_ENTRIES/N cells or fewer (2048
at N=32) and a longer row in pieces, through work arrays allocated once per
spectrum, ~1.4 MB whatever N is (a spectrum holds 8 bytes a cell beyond
them); a block's views are built once per spectrum for each block shape.
(x - x_k)^2 and A_k = -(d*T/lambda)*(x - x_k) come once per spectrum from
the x axis and y - y_k once per block from the y axis, so a block's ranges
are one broadcast add and one sqrt and z_k's table positions A_k/r_k; the
cells near an antenna are found once, from the axes. A block keeps the cells
innermost: ranges are (K, n), table positions (2K-1, n), phasors (M+1, K, n),
and the real view of the M*K x n block of responses is the right operand of
one real GEMM against [Re B^T; Im B^T], the basis rows put in its (i, k) order.
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


def _unit_phasors(t, out, rho, rho_sq, index, lookup, poly) -> None:
    """Write exp(2*pi*j*t/T) into `out`, for table positions t, with no libm cos or sin.

    With n = rint(t) and r = t - n, exact, the phasor is TABLE[n mod T] *
    e^(j*rho), rho = h*r, h = 2*pi/T, |rho| <= pi/T; e^(j*rho) is
    1 - rho^2/2 + rho^4/24 + j*rho*(1 - rho^2/6), whose next terms are below
    2.2e-18 (Tang 1989, ACM TOMS 15(2)), with h folded into the coefficients.
    t + 1.5*2^52 is n + 1.5*2^52, rounded half to even as by rint, with
    n mod T in the low bits of its int64 view, for |t| < 2^51; the error is
    a few eps whatever t is. `rho` (which may be t), `rho_sq` (float),
    `index` (int64) and `lookup` (complex, C-contiguous) are work arrays of
    out's shape, and `poly` is lookup's first half as floats of that shape.
    """
    h, rounder = 2 * np.pi / _TABLE_SIZE, 1.5 * 2.0**52
    np.add(t, rounder, out=rho_sq)
    np.bitwise_and(rho_sq.view(np.int64), _TABLE_SIZE - 1, out=index)
    np.subtract(t, np.subtract(rho_sq, rounder, out=rho_sq), out=rho)
    np.multiply(rho, rho, out=rho_sq)
    # `rho` holds r and `rho_sq` r^2: each series by Horner in r^2 in `poly`,
    # contiguous until the lookup, so `out`'s strided parts are written once
    np.add(np.multiply(rho_sq, -h**3 / 6, out=poly), h, out=poly)
    np.multiply(poly, rho, out=out.imag)
    np.add(np.multiply(rho_sq, h**4 / 24, out=poly), -h**2 / 2, out=poly)
    np.add(np.multiply(poly, rho_sq, out=poly), 1.0, out=out.real)
    # every index lies in [0, T) already; "clip" only skips the bounds check
    np.multiply(out, _TABLE.take(index, out=lookup, mode="clip"), out=out)


def _grid_work(cells: int, k: int, m: int) -> tuple:
    """Work arrays of `_receive_responses_grid` for blocks of up to `cells`
    cells: the ranges and at least 7 phasor slots (2-6 lend the scratch).
    Both are cut from one buffer, the phasors at a page boundary and the
    ranges 1024 bytes past one: sharing an offset mod 4096, as the heap may
    place them, cost `music_spectrum` 8-12%."""
    phasor_bytes = 16 * max(m + 1, 7) * k * cells
    gap = -(-phasor_bytes // 4096) * 4096 + 1024
    raw = np.empty(4096 + gap + 8 * k * cells, dtype=np.uint8)
    raw = raw[-raw.ctypes.data % 4096 :]
    phasors = raw[:phasor_bytes].view(complex).reshape(-1, k * cells)
    return raw[gap : gap + 8 * k * cells].view(float), phasors


def _x_offsets(geometry: ArrayGeometry, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x - x_k)^2 and A_k = -(d*T/lambda)*(x - x_k), shape (K,) + x.shape, for
    receive reference antenna k: A_k/r_k is z_k's table position."""
    dx = np.subtract(x, geometry.reference_positions("rx")[:, 0, None, None])
    return dx * dx, dx * (-geometry.d * _TABLE_SIZE / geometry.wavelength)


def _grid_views(geometry: ArrayGeometry, work: tuple, shape: tuple, y_shape: tuple) -> tuple:
    """What `_receive_responses_grid` reads for blocks of `shape` = (rows,
    cols) cells whose y has `y_shape`: views of `work` (`_grid_work` for at
    least rows*cols cells) and constants, built once for each block shape.
    Sets nu_(K-1) = 1, which a block of another shape writes over.
    """
    k, m, (rows, cols) = geometry.k_subarrays, geometry.m_antennas, shape
    n, slots, run = rows * cols, len(work[1]), (2 * k - 1, rows * cols)
    dist = work[0][: k * n].reshape(k, rows, cols)
    phasors = work[1].reshape(-1)[: slots * k * n].reshape(slots, k, n)
    # z_0..z_(K-1) in slot 0 and nu_0..nu_(K-1) in slot 1, so the 2K-1
    # phasors are one contiguous run. Scratch until the products: the table
    # lookup in slots 2-3, then the table positions, their squares and the
    # table index, (2K-1, n) each, in slots 4, 5 and 6; y - y_k in slot 5
    out, lookup, poly, t, t_sq, index = (
        phasors[i:].reshape(-1).view(dt)[: run[0] * n].reshape(run)
        for i, dt in ((0, complex), (2, complex), (2, float), (4, float), (5, float), (6, np.int64))
    )
    dy = t_sq.reshape(-1)[: k * y_shape[0] * y_shape[1]].reshape(k, *y_shape)
    phasors[1, k - 1] = 1.0
    positions = (t[:k].reshape(k, rows, cols), dist[:-1], dist[-1],
                 t[k:].reshape(k - 1, rows, cols), -_TABLE_SIZE / geometry.wavelength)
    steps = [(phasors[i], phasors[0], phasors[i + 1]) for i in range(1, m)]
    ref_y = geometry.reference_positions("rx")[:, 1, None, None]
    return (dist, ref_y, dy, positions, (t, out, t, t_sq, index, lookup, poly), steps,
            phasors[1, k - 1], phasors[1 : m + 1])


def _receive_responses_grid(x_offsets: tuple, y, views: tuple) -> np.ndarray:
    """Receive responses for one (rows, cols) block of cells, element-major,
    relative to receive subarray K-1.

    The block is the broadcast of `x_offsets` (`_x_offsets` of its x,
    (K, rows or 1, cols or 1)) and of its y, (rows or 1, cols or 1); `views`
    is `_grid_views` of its shape. Returns G of shape (M, K, n), n =
    rows*cols: G[i, k, c] times nu_ref = exp(-j*2*pi*r_(K-1)/lambda) is entry
    k*M + i of the receive response g_r of `channel.sensing_response` toward
    cell c (row-major). Block k is nu_k * [1, z_k, ..., z_k^(M-1)], at table
    positions -(T/lambda)*(r_k - r_(K-1)) and A_k/r_k = -(d*T/lambda)*sin(theta_k)
    for r_k and theta_k seen from receive reference antenna k: one
    `_unit_phasors` call over the 2K-1 phasors (nu_(K-1) = 1), then M-1
    contiguous (K, n) products. A cell on an antenna gets NaN columns (0/0,
    under the caller's error state), one within COINCIDENT_TOL*max(1, r) of
    it finite, meaningless ones. G is a view into the work arrays; the
    ranges stay in work[0][:K*n], read as (K, n).
    """
    dx_sq, a = x_offsets
    dist, ref_y, dy, (z_t, head, last, nu_t, scale), phasor_args, steps, _, g = views
    np.subtract(y, ref_y, out=dy)
    # sqrt(dx^2 + dy^2) rounds as subarray_view's norm does; hypot does not
    np.sqrt(np.add(dx_sq, np.multiply(dy, dy, out=dy), out=dist), out=dist)
    np.divide(a, dist, out=z_t)
    np.multiply(np.subtract(head, last, out=nu_t), scale, out=nu_t)
    _unit_phasors(*phasor_args)
    for prev, z, cur in steps:
        np.multiply(prev, z, out=cur)
    return g


def _coincident_cells(geometry: ArrayGeometry, x, y) -> np.ndarray:
    """Sorted flat indices of the cells of the grid of x and y within
    COINCIDENT_TOL*max(1, r) of a receive reference antenna. Such a cell has
    |x - x_k| and |y - y_k| below `reach`, so only rows and columns that pass
    both get `geometry.subarray_view`'s exact test, in the ranges' float ops.
    """
    refs = geometry.reference_positions("rx")
    rows, cols = np.broadcast_shapes(x.shape, y.shape)
    reach = 2.0 * COINCIDENT_TOL * max(1.0, float(np.hypot(np.abs(x).max(), np.abs(y).max())))
    near_x = np.abs(x - refs[:, 0, None, None]) <= reach
    near_y = np.abs(y - refs[:, 1, None, None]) <= reach
    x, y = np.broadcast_to(x, (rows, cols)), np.broadcast_to(y, (rows, cols))
    hits = set()
    for k in np.flatnonzero(near_x.any(axis=(1, 2)) & near_y.any(axis=(1, 2))):
        cand_rows = np.nonzero(near_x[k].any(axis=1) & near_y[k].any(axis=1))[0]
        cand_cols = np.nonzero(near_x[k].any(axis=0) & near_y[k].any(axis=0))[0]
        cell = np.ix_(cand_rows, cand_cols)
        u, v = x[cell] - refs[k, 0], y[cell] - refs[k, 1]
        tol = COINCIDENT_TOL * np.maximum(1.0, np.hypot(x[cell], y[cell]))
        r, c = np.nonzero(np.sqrt(u * u + v * v) <= tol)
        hits.update((cand_rows[r] * cols + cand_cols[c]).tolist())
    # sorted() rather than np.unique, whose first call imports numpy.ma
    return np.array(sorted(hits), dtype=np.int64)


def _block(a: np.ndarray, rs: slice, cs: slice) -> np.ndarray:
    """Rows `rs` and columns `cs` of the grid that `a` broadcasts to."""
    return a[..., rs if a.shape[-2] > 1 else slice(None), cs if a.shape[-1] > 1 else slice(None)]


def _pseudo_spectrum(
    geometry: ArrayGeometry, noise_basis: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized 1/(||E^H g||^2 + 1e-18) values over the grid of x and y.

    x and y are 2-D (1-D is one row) and broadcast to the grid, as the axes
    do as (1, nx) and (ny, 1). Returns the values, flat in row-major order,
    and the `_coincident_cells`, whose values are 0.

    Cells are projected onto the noise basis E when it has at most N/2
    columns (an empty basis gives the exact flat spectrum 1e18); otherwise
    onto its orthonormal complement S, from a complete QR of E, with the
    denominator N - ||S^H g||^2 clamped at 0 before the 1e-18 floor: its
    rounding error, about N*eps and of either sign, is all there is at a
    noiseless null (the smallest over the localize workload's first 15
    grids is 2.4e-5). The block loop runs with divide and invalid ignored.
    """
    n, width = noise_basis.shape
    flip = 2 * width > n  # project onto S, the denominator N - ||S^H g||^2
    basis = np.linalg.qr(noise_basis, mode="complete")[0][:, width:] if flip else noise_basis
    k, m, width = geometry.k_subarrays, geometry.m_antennas, basis.shape[1]
    # [Re B^T; Im B^T] with B's rows in the (i, k) order of the grid
    # responses' rows, so each block is one real GEMM off the phasors
    basis_t = basis.reshape(k, m, width).transpose(2, 1, 0).reshape(width, n)
    basis_ri = np.concatenate([basis_t.real, basis_t.imag])
    x, y = np.atleast_2d(x, y)
    rows, cols = np.broadcast_shapes(x.shape, y.shape)
    x_offsets = _x_offsets(geometry, x)
    flagged = _coincident_cells(geometry, x, y)
    piece, height = min(cols, CHUNK_ENTRIES // n), max(1, CHUNK_ENTRIES // n // cols)
    cells = min(height, rows) * piece
    # the output before the work arrays, so that glibc's heap frees the
    # work as one block above it
    values = np.empty(rows * cols)
    work = _grid_work(cells, k, m)
    proj_work, sum_work = np.empty(4 * width * cells), np.empty(2 * cells)
    shapes, x_blocks, last = {}, {}, None  # views of each block shape and x block
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on an antenna
        for r0 in range(0, rows, height):
            rs = slice(r0, min(r0 + height, rows))
            for c0 in range(0, cols, piece):
                cs = slice(c0, min(c0 + piece, cols))
                y_block, shape = _block(y, rs, cs), (rs.stop - r0, cs.stop - c0)
                if shape not in shapes:
                    count = shape[0] * shape[1]
                    views = _grid_views(geometry, work, shape, y_block.shape)
                    # conj(B)^T g for B^T = C + jD and g = a + jb is (Ca + Db) + j(Cb - Da):
                    # [C; D] times g's real view (N x 2n) holds Ca, Cb, interleaved by
                    # cell, in its top half and Da, Db in its bottom
                    proj = proj_work[: 4 * width * count].reshape(2 * width, 2 * count)
                    top, bottom, sums = proj[:width], proj[width:], sum_work[: 2 * count]
                    shapes[shape] = (views, views[-1].reshape(n, count).view(np.float64), proj,
                                     top, top[:, 0::2], bottom[:, 1::2], top[:, 1::2],
                                     bottom[:, 0::2], sums, sums[0::2], sums[1::2], count)
                if shape != last:
                    views, g, proj, top, ca, db, cb, da, sums, re_sq, im_sq, count = shapes[shape]
                    views[-2].fill(1.0)  # nu_(K-1): a block of another shape writes over it
                    last = shape
                key = (r0 if x.shape[0] > 1 else 0, c0)
                if key not in x_blocks:
                    x_blocks[key] = tuple(_block(a, rs, cs) for a in x_offsets)
                _receive_responses_grid(x_blocks[key], y_block, views)
                np.matmul(basis_ri, g, out=proj)
                np.add(ca, db, out=ca)
                np.subtract(cb, da, out=cb)
                # |B^H g|^2: square the top half, now B^H g's real view, sum it
                # down the basis columns, then add each cell's re^2 and im^2
                np.multiply(top, top, out=top)
                np.add.reduce(top, axis=0, out=sums)
                denom = values[r0 * cols + c0 :][:count]
                np.add(re_sq, im_sq, out=denom)
                if flip:  # N - ||S^H g||^2, clamped at 0
                    np.maximum(np.subtract(n, denom, out=denom), 0.0, out=denom)
                np.divide(1.0, np.add(denom, 1e-18, out=denom), out=denom)
    values[flagged] = 0.0
    return values, flagged


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
    values, flagged = _pseudo_spectrum(geometry, noise_basis, xs[None], ys[:, None])
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
    return MusicResult(
        spectrum=values.reshape(len(ys), len(xs)),
        x_axis=xs, y_axis=ys,
        peak_location=(x_pk, y_pk),
        peak_index=(iy, ix),
        mainlobe_width=width,
        flagged_cells=[divmod(int(i), len(xs)) for i in flagged],
    )


def _range_lobe_width(
    noise_basis: np.ndarray, geometry: ArrayGeometry, x_pk: float, y_pk: float
) -> float:
    """-3 dB width of the spectrum along the range axis at the peak angle."""
    r_pk = float(np.hypot(x_pk, y_pk))
    if r_pk == 0.0:
        return 0.0
    theta = np.arctan2(x_pk, y_pk)
    radii = np.arange(
        max(LOBE_STEP, r_pk - LOBE_EXTENT), r_pk + LOBE_EXTENT + LOBE_STEP, LOBE_STEP
    )
    vals, _ = _pseudo_spectrum(
        geometry, noise_basis, (radii * np.sin(theta))[None], (radii * np.cos(theta))[None]
    )
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
