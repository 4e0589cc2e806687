import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modisac import harness, music
from modisac.channel import build_responses, sensing_response
from modisac.geometry import (
    COINCIDENT_TOL,
    DegenerateGeometryError,
    PolarPoint,
    SceneObject,
    build_geometry,
    subarray_view,
)
from modisac.music import (
    GridSpec,
    _coincident_cells,
    _grid_views,
    _grid_work,
    _pseudo_spectrum,
    _receive_responses_grid,
    _unit_phasors,
    _x_offsets,
    music_spectrum,
    noise_subspace,
    sample_covariance,
    save_spectrum_csv,
    save_spectrum_grid,
)


def _g_r(g, x, y):
    """Receive response of `sensing_response` toward the grid point (x, y)."""
    return sensing_response(g, SceneObject(PolarPoint(np.hypot(x, y), np.arctan2(x, y)))).g_r


def _row_responses(g, x, y):
    """`_receive_responses_grid` over one row of cells at (x[c], y[c]), with
    fresh work arrays; returns (G, work, flagged cells)."""
    x, y = x[None], y[None]
    offsets = _x_offsets(g, x)
    work = _grid_work(x.size, g.k_subarrays, g.m_antennas)
    responses = _receive_responses_grid(offsets, y, _grid_views(g, work, x.shape, y.shape))
    return responses, work, _coincident_cells(g, x, y)


def _nu_ref(g, points):
    """exp(-j*2*pi*r_(K-1)/lambda) toward each point, from subarray_view's range:
    the phase `_receive_responses_grid` leaves out of every entry."""
    ranges = np.array([subarray_view(g, "rx", p)[0][-1] for p in points])
    return np.exp(-2j * np.pi / g.wavelength * ranges)


def test_sample_covariance_single_snapshot(rng):
    y = (rng.standard_normal(6) + 1j * rng.standard_normal(6))[:, None]
    cov = sample_covariance(y)
    assert np.allclose(cov, y @ y.conj().T)


def test_sample_covariance_concentrates(rng):
    n, length, sigma_sq = 6, 10_000, 2.0
    y = np.sqrt(sigma_sq / 2) * (
        rng.standard_normal((n, length)) + 1j * rng.standard_normal((n, length))
    )
    cov = sample_covariance(y)
    assert np.linalg.norm(cov - sigma_sq * np.eye(n)) < 0.05 * sigma_sq * n


def test_sample_covariance_rank_one(rng):
    g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    cov = sample_covariance(np.outer(g, s))
    assert np.linalg.matrix_rank(cov, tol=1e-10) == 1


def test_noise_subspace_identity_covariance():
    basis = noise_subspace(np.eye(6), 2)
    assert basis.shape == (6, 4)
    assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-10)


def test_noise_subspace_orthogonal_to_signal(rng):
    g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    cov = np.outer(g, g.conj()) + 1e-4 * np.eye(8)
    basis = noise_subspace(cov, 1)
    assert np.linalg.norm(basis.conj().T @ g) < 1e-6 * np.linalg.norm(g)


def test_noise_subspace_validates_order():
    with pytest.raises(ValueError):
        noise_subspace(np.eye(4), 4)


def test_music_exact_covariance_peaks_at_truth():
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    # put the object exactly on a grid node
    x0, y0 = 14.0, 14.0
    loc = PolarPoint(float(np.hypot(x0, y0)), float(np.arctan2(x0, y0)))
    resp = build_responses(g, (SceneObject(loc, 1.0),))
    cov = np.outer(resp[0].g_r, resp[0].g_r.conj()) + 1e-6 * np.eye(cfg.n_antennas)
    basis = noise_subspace(cov, 1)
    grid = GridSpec(x0 - 2, 0.5, x0 + 2, y0 - 2, 0.5, y0 + 2)
    result = music_spectrum(basis, g, grid)
    assert result.peak_location == (pytest.approx(x0), pytest.approx(y0))
    assert result.spectrum.max() == 1.0


def test_music_noise_basis_rotation_invariance(rng):
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    loc = PolarPoint(20.0, 0.6)
    resp = build_responses(g, (SceneObject(loc, 1.0),))
    cov = np.outer(resp[0].g_r, resp[0].g_r.conj()) + 1e-6 * np.eye(cfg.n_antennas)
    basis = noise_subspace(cov, 1)
    q, _ = np.linalg.qr(
        rng.standard_normal((basis.shape[1],) * 2)
        + 1j * rng.standard_normal((basis.shape[1],) * 2)
    )
    grid = GridSpec(10.0, 0.5, 14.0, 12.0, 0.5, 16.0)
    r1 = music_spectrum(basis, g, grid)
    r2 = music_spectrum(basis @ q, g, grid)
    assert np.allclose(r1.spectrum, r2.spectrum, atol=1e-10)


def test_music_tie_breaks_lowest_index():
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    empty = np.zeros((cfg.n_antennas, 0), dtype=complex)  # flat spectrum
    grid = GridSpec(5.0, 1.0, 7.0, 5.0, 1.0, 7.0)
    result = music_spectrum(empty, g, grid)
    assert result.peak_index == (0, 0)


def test_music_flags_antenna_cells():
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    rx_ref = g.reference_positions("rx")[0]
    loc = PolarPoint(25.0, 0.4)
    resp = build_responses(g, (SceneObject(loc, 1.0),))
    cov = np.outer(resp[0].g_r, resp[0].g_r.conj()) + 1e-6 * np.eye(cfg.n_antennas)
    basis = noise_subspace(cov, 1)
    grid = GridSpec(rx_ref[0], 25.0 * np.sin(0.4) - rx_ref[0], 25.0 * np.sin(0.4),
                    0.0, 25.0 * np.cos(0.4), 25.0 * np.cos(0.4))
    result = music_spectrum(basis, g, grid)
    assert (0, 0) in result.flagged_cells
    assert result.spectrum[0, 0] == 0.0


def _random_noise_basis(rng, n, p):
    q, _ = np.linalg.qr(rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))
    return q


def test_music_flags_cells_within_tolerance_of_antenna():
    # geometry.subarray_view calls a point degenerate within
    # COINCIDENT_TOL*max(1, r) of a reference antenna, so a cell 1e-14 m away
    # must be flagged too
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    rx_ref = g.reference_positions("rx")[1]
    x0 = rx_ref[0] + 1e-14
    assert 0.0 < abs(x0 - rx_ref[0]) < 1e-12 and rx_ref[1] == 0.0
    basis = _random_noise_basis(np.random.default_rng(5), cfg.n_antennas, 8)
    grid = GridSpec(x0, 0.5, x0 + 1.0, 0.0, 0.5, 1.0)
    result = music_spectrum(basis, g, grid)
    assert result.flagged_cells == [(0, 0)]
    assert result.spectrum[0, 0] == 0.0
    assert np.all(result.spectrum.ravel()[1:] > 0.0)


@pytest.mark.parametrize("fraction, degenerate", [(0.5, True), (2.0, False)])
def test_view_and_grid_share_the_coincidence_rule(fraction, degenerate):
    # a point `fraction` tolerances from a receive reference antenna: inside,
    # subarray_view raises and the grid cell is flagged; outside, neither
    g = build_geometry(harness.desk_config(seed=0))
    ref_x = g.reference_positions("rx")[2, 0]
    x = ref_x + fraction * COINCIDENT_TOL * max(1.0, abs(ref_x))
    point = PolarPoint(abs(x), np.arctan2(x, 0.0))
    assert np.hypot(*(point.xy - (ref_x, 0.0))) == pytest.approx(x - ref_x, rel=1e-3)
    if degenerate:
        with pytest.raises(DegenerateGeometryError):
            subarray_view(g, "rx", point)
    else:
        subarray_view(g, "rx", point)
    basis = _random_noise_basis(np.random.default_rng(5), g.n_antennas, 8)
    result = music_spectrum(basis, g, GridSpec(x, 0.5, x + 1.0, 0.0, 0.5, 1.0))
    assert result.flagged_cells == ([(0, 0)] if degenerate else [])


@pytest.mark.parametrize("desk", [True, False], ids=["desk", "full"])
def test_grid_responses_match_sensing_response(desk):
    cfg = harness.config_from_dict({"seed": 0}, desk_scale=desk)
    g = build_geometry(cfg)
    rng = np.random.default_rng(11)
    points = [
        PolarPoint(float(r), float(t))
        for r, t in zip(rng.uniform(1.0, 80.0, 400), rng.uniform(-1.5, 1.5, 400))
    ]
    xy = np.array([p.xy for p in points])
    responses, _, flagged = _row_responses(g, xy[:, 0], xy[:, 1])
    expected = np.array([sensing_response(g, SceneObject(p)).g_r for p in points])
    # G[i, k, c] * nu_ref[c] is entry k*M + i of the response toward cell c
    assert responses.shape == (g.m_antennas, g.k_subarrays, 400)
    assert np.all(responses[0, -1] == 1.0)
    rows = responses.transpose(2, 1, 0).reshape(400, cfg.n_antennas) * _nu_ref(g, points)[:, None]
    assert flagged.size == 0
    assert np.max(np.abs(rows - expected)) <= 5e-11


def test_grid_responses_with_one_antenna_per_subarray():
    # with M = 1 there is no running product, and the phasor buffer has
    # more slots than responses so that it can lend the block its scratch
    g = build_geometry(harness.apply_axis(harness.desk_config(seed=0), "subarray_scale", (32, 1)))
    rng = np.random.default_rng(13)
    points = [PolarPoint(float(r), float(t))
              for r, t in zip(rng.uniform(1.0, 80.0, 50), rng.uniform(-1.5, 1.5, 50))]
    xy = np.array([p.xy for p in points])
    responses, _, flagged = _row_responses(g, xy[:, 0], xy[:, 1])
    expected = np.array([sensing_response(g, SceneObject(p)).g_r for p in points])
    assert responses.shape == (1, 32, 50)
    assert flagged.size == 0
    assert np.max(np.abs(responses[0].T * _nu_ref(g, points)[:, None] - expected)) <= 5e-11


def test_music_all_flagged_grid_raises():
    g = build_geometry(harness.desk_config(seed=0))
    x, y = g.reference_positions("rx")[1]
    basis = _random_noise_basis(np.random.default_rng(2), g.n_antennas, 8)
    with pytest.raises(DegenerateGeometryError, match="identically zero"):
        music_spectrum(basis, g, GridSpec(x, 1.0, x, y, 1.0, y))


def test_spectrum_leaves_the_floating_point_error_state_alone():
    # the block loop ignores divide and invalid, the 0/0 of a cell on an
    # antenna, inside np.errstate: the caller's state is back after a
    # spectrum and after one that raises
    g = build_geometry(harness.desk_config(seed=0))
    basis = _random_noise_basis(np.random.default_rng(2), g.n_antennas, 8)
    x, y = g.reference_positions("rx")[1]
    before = np.geterr()
    music_spectrum(basis, g, GridSpec(x, 0.5, x + 2.0, y, 0.5, y + 2.0))
    assert np.geterr() == before
    with pytest.raises(DegenerateGeometryError):
        music_spectrum(basis, g, GridSpec(x, 1.0, x, y, 1.0, y))
    assert np.geterr() == before


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("width", [8, 30])
def test_cells_on_antennas_leave_the_rest_finite(width):
    # one cell exactly on each receive reference antenna, the first K of the
    # grid: 0/0 there, zeroed, and finite, nonzero values everywhere else,
    # projected on either side
    g = build_geometry(harness.desk_config(seed=0))
    refs = g.reference_positions("rx")
    basis = _random_noise_basis(np.random.default_rng(4), g.n_antennas, width)
    xs = np.concatenate([refs[:, 0], [0.3, 4.0]])
    ys = np.array([refs[0, 1], 0.7, 12.0])
    assert np.all(refs[:, 1] == refs[0, 1])
    values, flagged = _pseudo_spectrum(g, basis, xs[None], ys[:, None])
    assert flagged.tolist() == list(range(g.k_subarrays))
    assert np.all(np.isfinite(values)) and np.all(values[flagged] == 0.0)
    assert np.all(np.delete(values, flagged) > 0.0)
    result = music_spectrum(basis, g, GridSpec(refs[0, 0], 0.5, refs[0, 0] + 3.0, 0.0, 0.5, 2.0))
    assert result.flagged_cells[0] == (0, 0) and np.all(np.isfinite(result.spectrum))


@pytest.mark.parametrize("k, m", [(1, 32), (32, 1)])
@pytest.mark.parametrize("width", [12, 24])
def test_one_subarray_or_one_antenna_grids_match_per_cell_oracle(k, m, width):
    # K = 1: no inter-subarray phase but the reference's, nu_0 = 1; M = 1: no
    # running product. Both sides of the projection
    g = build_geometry(harness.apply_axis(harness.desk_config(seed=0), "subarray_scale", (k, m)))
    rng = np.random.default_rng(17)
    basis = _random_noise_basis(rng, g.n_antennas, width)
    x, y = rng.uniform(-15.0, 15.0, 300), rng.uniform(0.5, 25.0, 300)
    vals, bad = _pseudo_spectrum(g, basis, x, y)
    expected = np.array([
        1.0 / (np.linalg.norm(basis.conj().T @ _g_r(g, u, v)) ** 2 + 1e-18)
        for u, v in zip(x, y)
    ])
    assert bad.size == 0
    assert np.allclose(vals, expected, rtol=1e-9, atol=0.0)


def _long_double_spectrum(g, basis, x, y):
    """1/(||E^H g||^2 + 1e-18) per cell with g and its projection in long double."""
    ld = np.longdouble
    refs = g.reference_positions("rx").astype(ld)
    dx = x.astype(ld)[:, None] - refs[:, 0]
    dy = y.astype(ld)[:, None] - refs[:, 1]
    r = np.sqrt(dx * dx + dy * dy)
    steps = np.arange(g.m_antennas) * ld(g.d)
    phase = -2 * np.arccos(ld(-1)) / ld(g.wavelength) * (r[..., None] + steps * (dx / r)[..., None])
    g_r = (np.cos(phase) + 1j * np.sin(phase)).reshape(x.size, -1)
    proj = g_r @ basis.astype(np.clongdouble).conj()
    return 1 / (np.sum(proj.real**2 + proj.imag**2, axis=1) + ld(1e-18))


def test_spectrum_near_the_localize_range_matches_long_double_oracle():
    # cells within 5 m of the localize target (20 m at 45 degrees) and a 1 cm
    # grid, offset half a cell, around it; the noise basis of an exact
    # covariance of the target and an interferer at (30 m, 40 degrees). The
    # largest error, 8.0e-10 (5.7e-10 with absolute phases), is at the cell
    # nearest the target, whose denominator is the smallest (3.8e-4); the
    # median is 3.7e-13 (4.6e-13 with absolute phases)
    g = build_geometry(harness.desk_config(seed=0))
    objects = [SceneObject(PolarPoint(r, np.radians(a)), 1.0)
               for r, a in ((20.0, 45.0), (30.0, 40.0))]
    cov = sum(np.outer(o.g_r, o.g_r.conj()) for o in build_responses(g, tuple(objects)))
    basis = noise_subspace(cov + 1e-3 * np.eye(g.n_antennas), 2)
    rng = np.random.default_rng(41)
    tx, ty = objects[0].location.xy
    near = 0.01 * np.arange(-20, 21) + 0.005
    gx, gy = np.meshgrid(tx + near, ty + near)
    x = np.concatenate([tx + rng.uniform(-5.0, 5.0, 2000), gx.ravel()])
    y = np.concatenate([ty + rng.uniform(-5.0, 5.0, 2000), gy.ravel()])
    vals, bad = _pseudo_spectrum(g, basis, x, y)
    exact = _long_double_spectrum(g, basis, x, y)
    rel = np.abs((vals - exact) / exact).astype(float)
    assert bad.size == 0 and basis.shape[1] == 30
    assert np.max(rel) <= 1e-9
    assert np.median(rel) <= 1e-12


@pytest.mark.parametrize("desk", [True, False], ids=["desk", "full"])
def test_grid_ranges_match_subarray_view_bitwise(desk):
    # the ranges behind nu_k round as subarray_view's norm does, bit for bit
    cfg = harness.config_from_dict({"seed": 0}, desk_scale=desk)
    g = build_geometry(cfg)
    rng = np.random.default_rng(29)
    points = [
        PolarPoint(float(r), float(t))
        for r, t in zip(rng.uniform(1.0, 40.0, 2000), rng.uniform(-1.5, 1.5, 2000))
    ]
    xy = np.array([p.xy for p in points])
    _, work, flagged = _row_responses(g, xy[:, 0], xy[:, 1])
    expected = np.array([subarray_view(g, "rx", p)[0] for p in points])
    ranges = work[0][: g.k_subarrays * len(points)].reshape(g.k_subarrays, len(points))
    assert flagged.size == 0
    assert np.array_equal(ranges.T, expected)


def _phasors(t):
    """`_unit_phasors` of a flat array of table positions, with fresh work arrays."""
    out, lookup = np.empty(t.size, dtype=complex), np.empty(t.size, dtype=complex)
    rho, rho_sq, index = np.empty(t.size), np.empty(t.size), np.empty(t.size, np.int64)
    _unit_phasors(t, out, rho, rho_sq, index, lookup, lookup.view(float)[: t.size])
    return out


def test_unit_phasors_match_long_double_reference():
    # table nodes n and half-nodes n + 1/2, where rint rounds half to even,
    # and the positions of random phases from 0 to +-1e5 rad; then negative
    # ties n + 1/2 exactly and positions up to the documented bound |t| < 2^51
    rng = np.random.default_rng(31)
    nodes = np.concatenate([np.arange(-9000, 9001), rng.integers(-65_000_000, 65_000_000, 4000)])
    turns = 4096 / (2 * np.pi)
    ties = -0.5 - np.concatenate([np.arange(20_000), 2.0**51 - 2.0 ** np.arange(1, 50)])
    near_bound = rng.uniform(0.99, 0.999, 2000) * rng.choice([-1.0, 1.0], 2000) * 2.0**51
    t = np.concatenate([
        [0.0, 1e-300, -1e-300, 1e5 * turns, -1e5 * turns],
        nodes, nodes + 0.5,
        rng.uniform(-1e5, 1e5, 20000) * turns,
        rng.uniform(-10.0, 10.0, 20000) * turns,
        ties, near_bound,
    ])
    assert np.sum(t % 1 == 0.5) >= 10_000 and np.abs(t).max() < 2.0**51
    out = _phasors(t.copy())
    # the exact phase 2*pi*t/T, reduced mod 2*pi in exact float steps first
    whole = np.floor(t)
    turn = np.fmod(whole, 4096).astype(np.longdouble) + (t - whole).astype(np.longdouble)
    exact = 2 * np.arccos(np.longdouble(-1)) / 4096 * turn
    err = np.hypot((out.real - np.cos(exact)).astype(float), (out.imag - np.sin(exact)).astype(float))
    # t - rint(t) is exact, so what is left is the table's and the series'
    # rounding, 0.87 eps at most here, whatever |t| is
    eps = np.finfo(float).eps
    assert np.all(err <= 2 * eps)
    assert np.max(np.abs(np.abs(out) - 1.0)) <= 4 * eps
    assert out[0] == 1.0


def test_music_spectrum_matches_per_cell_oracle():
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    basis = _random_noise_basis(np.random.default_rng(3), cfg.n_antennas, 12)
    grid = GridSpec(-4.0, 1.5, 5.0, 2.0, 2.5, 20.0)
    result = music_spectrum(basis, g, grid)
    expected = np.empty(result.spectrum.shape)
    for iy, y in enumerate(grid.y_axis):
        for ix, x in enumerate(grid.x_axis):
            g_r = _g_r(g, x, y)
            expected[iy, ix] = 1.0 / (np.linalg.norm(basis.conj().T @ g_r) ** 2 + 1e-18)
    expected /= expected.max()
    assert result.flagged_cells == []
    assert np.allclose(result.spectrum, expected, rtol=1e-9, atol=0.0)


def test_music_spectrum_rows_longer_than_a_block_match_per_cell_oracle():
    # 2101 cells a row against blocks of 2048: each row is cut into a piece
    # of 2048 cells and one of 53
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    basis = _random_noise_basis(np.random.default_rng(37), cfg.n_antennas, 12)
    grid = GridSpec(-10.5, 0.01, 10.5, 4.0, 7.5, 11.5)
    assert grid.x_axis.size == 2101 > music.CHUNK_ENTRIES // cfg.n_antennas
    result = music_spectrum(basis, g, grid)
    expected = np.array([
        [1.0 / (np.linalg.norm(basis.conj().T @ _g_r(g, x, y)) ** 2 + 1e-18)
         for x in grid.x_axis]
        for y in grid.y_axis
    ])
    expected /= expected.max()
    assert result.spectrum.shape == (2, 2101)
    assert result.flagged_cells == []
    assert np.allclose(result.spectrum, expected, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("cells", [3, 5, 4096])
def test_flags_on_block_edges_match_the_per_cell_rule(monkeypatch, cells):
    # columns on the first two receive reference antennas, 1e-14 m off them
    # and one tolerance off (where rounding decides), rows on the array's
    # line, 1e-14 m and half a tolerance off it; blocks of 3 or 5 cells cut
    # each 11-cell row into pieces, blocks of 4096 hold whole rows. A cell is
    # flagged exactly where geometry.subarray_view's rule holds
    g = build_geometry(harness.desk_config(seed=0))
    refs = g.reference_positions("rx")
    monkeypatch.setattr(music, "CHUNK_ENTRIES", cells * g.n_antennas)
    xs = np.append([x + np.array([0.0, 1e-14, -1e-14, -1e-12 * x, 1e-12 * x])
                    for x in refs[:2, 0]], 0.7)
    ys = np.array([0.0, 1e-14, -1e-14, 0.5e-12, 0.4])
    basis = _random_noise_basis(np.random.default_rng(3), g.n_antennas, 8)
    values, flagged = _pseudo_spectrum(g, basis, xs[None], ys[:, None])
    expected = [
        iy * xs.size + ix
        for iy, y in enumerate(ys)
        for ix, x in enumerate(xs)
        if np.any(np.linalg.norm(np.array([x, y]) - refs, axis=1)
                  <= COINCIDENT_TOL * max(1.0, np.hypot(x, y)))
    ]
    # the tolerance columns go both ways: 3 is flagged, 4 is not
    assert {0, 1, 2, 3, 5, 6, 7, 11, 22, 33} <= set(expected)
    assert not {4, 10, 44} & set(expected)
    assert flagged.tolist() == expected
    assert np.all(values[flagged] == 0.0)
    assert np.all(np.delete(values, flagged) > 0.0)


def test_pseudo_spectrum_chunk_invariance(monkeypatch):
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    rng = np.random.default_rng(7)
    basis = _random_noise_basis(rng, cfg.n_antennas, 8)
    x = rng.uniform(-15.0, 15.0, 2003)
    y = rng.uniform(0.5, 25.0, 2003)
    refs = g.reference_positions("rx")
    # one row of 2003 cells, cut into pieces of 8192, 1000 and 7 cells, with
    # flagged cells on both sides of the piece boundaries at 7 and at 1000,
    # exact and 1e-14 m off an antenna
    for i, (k, off) in zip((6, 7, 999, 1000), ((0, 0.0), (1, 1e-14), (2, -1e-14), (3, 0.0))):
        x[i], y[i] = refs[k, 0] + off, refs[k, 1]
    runs = []
    for cells in (8192, 1000, 7):
        monkeypatch.setattr(music, "CHUNK_ENTRIES", cells * cfg.n_antennas)
        runs.append(_pseudo_spectrum(g, basis, x, y))
    ref_vals, ref_bad = runs[0]
    assert np.array_equal(ref_bad, [6, 7, 999, 1000])
    for vals, bad in runs[1:]:
        assert np.array_equal(bad, ref_bad)
        assert np.allclose(vals, ref_vals, rtol=1e-13, atol=0.0)


def test_music_spectrum_matches_flat_grid_path():
    # music_spectrum passes the grid axes as (1, nx) and (ny, 1); it must give
    # bit for bit what the full (ny, nx) meshgrid arrays give through the same
    # blocks, 11 blocks of 20 rows (2000 cells, the last one 10 rows) with an
    # antenna cell first in block 5
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    basis = _random_noise_basis(np.random.default_rng(23), cfg.n_antennas, 30)
    nx, ny, step = 100, 210, 0.05
    ref_x = g.reference_positions("rx")[0, 0]
    chunk = music.CHUNK_ENTRIES // cfg.n_antennas
    iy, ix = divmod(8000, nx)
    grid = GridSpec(ref_x - ix * step, step, ref_x + (nx - 1 - ix) * step,
                    -iy * step, step, (ny - 1 - iy) * step)
    result = music_spectrum(basis, g, grid)
    gx, gy = np.meshgrid(grid.x_axis, grid.y_axis)
    assert gx.shape == (ny, nx) and chunk // nx == 20 and ny % 20 != 0
    values, flagged = _pseudo_spectrum(g, basis, gx, gy)
    peak = int(np.argmax(values))
    assert np.array_equal(result.spectrum, (values / values[peak]).reshape(ny, nx))
    assert result.peak_index == divmod(peak, nx)
    assert result.flagged_cells == [divmod(int(i), nx) for i in flagged]
    assert (iy, ix) in result.flagged_cells


def test_music_spectrum_memory_per_cell():
    # beyond fixed block buffers, a spectrum keeps its values (8 bytes a
    # cell): no full-grid coordinates, flags or copies
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    resp = build_responses(g, (SceneObject(PolarPoint(18.0, 0.5), 1.0),))
    cov = np.outer(resp[0].g_r, resp[0].g_r.conj()) + 1e-6 * np.eye(cfg.n_antennas)
    basis = noise_subspace(cov, 1)
    peaks = {}
    for side in (300, 600):
        span = 0.02 * (side - 1)
        grid = GridSpec(2.0, 0.02, 2.0 + span, 10.0, 0.02, 10.0 + span)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = music_spectrum(basis, g, grid)
            peaks[side] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert result.spectrum.shape == (side, side)
        del result
    assert (peaks[600] - peaks[300]) / (600**2 - 300**2) <= 10.0


def test_music_spectrum_keeps_no_state():
    # the views of each block shape are built inside the call: once the
    # result goes, so does everything the call allocated, ~1 MB of work
    # arrays here, but for some 6 kB that numpy and Python keep for reuse
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    basis = _random_noise_basis(np.random.default_rng(7), cfg.n_antennas, cfg.n_antennas - 2)
    music_spectrum(basis, g, GridSpec(-1.0, 0.5, 1.0, 5.0, 0.5, 6.0))  # first-call set-up
    # rows of 351 cells in blocks of 5 rows, the last block of 1
    grid = GridSpec(2.0, 0.02, 9.0, 10.0, 0.02, 12.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = music_spectrum(basis, g, grid)
        assert result.spectrum.shape == (101, 351)
        del result
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert left <= 64_000


def test_music_spectrum_memory_full_scale():
    # blocks of 65536/N cells keep the work arrays near 1.4 MB at N = 192
    # as at N = 32, and this grid at 2.5 MB, 0.5 MB of it the range cut's
    # (x - x_k)^2 and A_k, (K, 5000) each; chunks of 8192 cells whatever
    # N is peaked at 54 MB here, and a (cells, N) copy of the responses
    # beside the phasors adds ~1 MB
    cfg = harness.config_from_dict({"seed": 0})
    g = build_geometry(cfg)
    basis = _random_noise_basis(np.random.default_rng(5), cfg.n_antennas, cfg.n_antennas - 2)
    grid = GridSpec(2.0, 0.02, 3.98, 10.0, 0.02, 11.98)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = music_spectrum(basis, g, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.spectrum.shape == (100, 100)
    assert peak <= 2.6e6


def test_pseudo_spectrum_block_work_set():
    # one 2048-cell block at N = 32 with 2 signal columns: the (K, n) ranges,
    # 9 phasor slots of (K, n) complex, a 4 x 2n projection and 2n sums are
    # 1,409,024 bytes, and the call's traced peak read 1,650,393. The bounds
    # are what the kernel took with (K, n) sines stored beside the ranges: a
    # larger work set can move localize peak_rss_mb by a ~4 MB heap-layout step
    g = build_geometry(harness.desk_config(seed=0))
    basis = _random_noise_basis(np.random.default_rng(3), g.n_antennas, 30)
    x, y = np.linspace(2.0, 6.0, 2048)[None], np.array([[15.0]])
    work = _grid_work(2048, g.k_subarrays, g.m_antennas)
    assert sum(a.nbytes for a in work) + (4 * 2 + 2) * 2048 * 8 <= 1_474_560
    _pseudo_spectrum(g, basis, x, y)  # first-call set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _pseudo_spectrum(g, basis, x, y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1_715_545


@pytest.mark.parametrize("width", [0, 1, 16, 17, 30, 31])
def test_pseudo_spectrum_both_sides_match_per_cell_oracle(width):
    # widths up to N/2 = 16 project onto the noise basis, wider ones onto
    # its complement with the denominator N - ||S^H g||^2
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    rng = np.random.default_rng(19)
    if width:
        basis = _random_noise_basis(rng, cfg.n_antennas, width)
    else:
        basis = np.zeros((cfg.n_antennas, 0), dtype=complex)
    x = rng.uniform(-15.0, 15.0, 300)
    y = rng.uniform(0.5, 25.0, 300)
    vals, bad = _pseudo_spectrum(g, basis, x, y)
    expected = np.array([
        1.0 / (np.linalg.norm(basis.conj().T @ _g_r(g, u, v)) ** 2 + 1e-18)
        for u, v in zip(x, y)
    ])
    assert bad.size == 0
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert np.allclose(vals, expected, rtol=1e-9, atol=0.0)


def test_pseudo_spectrum_signal_side_at_noiseless_nulls():
    # on-grid nulls of rank-1 covariances: ||E^H g||^2 is ~0, so N - ||S^H g||^2
    # is rounding noise of either sign and the clamp must keep it >= 0
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    for x0, y0 in [(14.0, 14.0), (-3.0, 9.5), (6.5, 21.0), (0.0, 4.0),
                   (-11.0, 17.5), (9.0, 2.5), (2.0, 30.0), (-6.5, 6.0)]:
        loc = PolarPoint(float(np.hypot(x0, y0)), float(np.arctan2(x0, y0)))
        resp = build_responses(g, (SceneObject(loc, 1.0),))
        cov = np.outer(resp[0].g_r, resp[0].g_r.conj()) + 1e-6 * np.eye(cfg.n_antennas)
        basis = noise_subspace(cov, 1)
        vals, _ = _pseudo_spectrum(g, basis, np.array([x0, x0 + 0.5]), np.array([y0, y0]))
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        assert vals[0] >= 1e12 * vals[1]


def test_music_spectrum_rejects_basis_of_wrong_height():
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    basis = _random_noise_basis(np.random.default_rng(2), cfg.n_antennas - 1, 4)
    grid = GridSpec(5.0, 1.0, 7.0, 5.0, 1.0, 7.0)
    with pytest.raises(ValueError, match=r"\(31, 4\).*\(32, p\)"):
        music_spectrum(basis, g, grid)


def test_grid_parse_and_axes():
    grid = GridSpec.parse("0:0.5:2,1:1:3")
    assert np.allclose(grid.x_axis, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(grid.y_axis, [1.0, 2.0, 3.0])
    same = GridSpec.parse("0:0.25:1")
    assert np.allclose(same.x_axis, same.y_axis)
    for bad in ("1:2", "0:1:2:3,0:1", "0:1:2,0:1:2,0:1:2"):
        with pytest.raises(ValueError):
            GridSpec.parse(bad)
    with pytest.raises(ValueError):
        GridSpec(0, -1.0, 1, 0, 1.0, 1)


def _load_spectrum_grid(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a `save_spectrum_grid` dump; returns (x_axis, y_axis, spectrum)."""
    with open(path, "rb") as f:
        nx, ny = struct.unpack("<qq", f.read(16))
        x0, y0, dx, dy = struct.unpack("<dddd", f.read(32))
        data = np.fromfile(f, dtype="<f8", count=nx * ny).reshape(ny, nx)
    return x0 + dx * np.arange(nx), y0 + dy * np.arange(ny), data


def test_spectrum_exports(tmp_path):
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    loc = PolarPoint(18.0, 0.5)
    resp = build_responses(g, (SceneObject(loc, 1.0),))
    cov = np.outer(resp[0].g_r, resp[0].g_r.conj()) + 1e-6 * np.eye(cfg.n_antennas)
    basis = noise_subspace(cov, 1)
    grid = GridSpec(8.0, 0.5, 10.0, 14.0, 0.5, 17.0)
    result = music_spectrum(basis, g, grid)

    csv_path = str(tmp_path / "spec.csv")
    save_spectrum_csv(result, csv_path)
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + result.spectrum.size

    bin_path = str(tmp_path / "spec.grid")
    save_spectrum_grid(result, bin_path)
    xs, ys, data = _load_spectrum_grid(bin_path)
    assert np.allclose(xs, result.x_axis)
    assert np.allclose(ys, result.y_axis)
    assert np.allclose(data, result.spectrum)


def test_end_to_end_localization_single_seed():
    cfg = harness.desk_config(
        seed=3,
        target={"range_m": 20.0, "angle_deg": 45.0, "rcs": 0.15},
        interferers=[{"range_m": 30.0, "angle_deg": 40.0, "rcs": 0.3}],
        noise_sens_dbm=-10.0,
    )
    truth = cfg.target.location.xy
    grid = GridSpec(truth[0] - 2, 0.25, truth[0] + 2, truth[1] - 2, 0.25, truth[1] + 2)
    result, _, _ = harness.run_music(cfg, grid)
    err = np.hypot(result.peak_location[0] - truth[0], result.peak_location[1] - truth[1])
    assert err <= 0.25 * np.sqrt(2.0) + 1e-9
    assert 0.0 < result.mainlobe_width < 5.0


def test_run_music_with_config_snapshots():
    cfg = harness.desk_config(
        seed=3,
        target={"range_m": 20.0, "angle_deg": 45.0, "rcs": 0.15},
        interferers=[{"range_m": 30.0, "angle_deg": 40.0, "rcs": 0.3}],
        noise_sens_dbm=-10.0,
        snapshots=128,
    )
    truth = cfg.target.location.xy
    grid = GridSpec(truth[0] - 1, 0.5, truth[0] + 1, truth[1] - 1, 0.5, truth[1] + 1)
    result, data, f_tx = harness.run_music(cfg, grid)
    assert result.spectrum.shape == (len(grid.y_axis), len(grid.x_axis))
    assert f_tx.shape == (cfg.n_antennas, data.problem.n_streams)
