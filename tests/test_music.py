from pathlib import Path

import numpy as np
import pytest

from modisac import harness
from modisac.channel import build_responses, sensing_response
from modisac.geometry import PolarPoint, SceneObject, build_geometry
from modisac.music import (
    GridSpec,
    _pseudo_spectrum,
    _receive_responses_grid,
    load_spectrum_grid,
    music_spectrum,
    noise_subspace,
    sample_covariance,
    save_spectrum_csv,
    save_spectrum_grid,
)


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
    # geometry.subarray_angle calls a point degenerate within 1e-12*max(1, r)
    # of a reference antenna, so a cell 1e-14 m away must be flagged too
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
    rows, degenerate = _receive_responses_grid(g, xy[:, 0], xy[:, 1])
    expected = np.array([sensing_response(g, p).g_r for p in points])
    assert rows.shape == (400, cfg.n_antennas)
    assert not degenerate.any()
    assert np.max(np.abs(rows - expected)) <= 5e-11


def test_music_spectrum_matches_per_cell_oracle():
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    basis = _random_noise_basis(np.random.default_rng(3), cfg.n_antennas, 12)
    grid = GridSpec(-4.0, 1.5, 5.0, 2.0, 2.5, 20.0)
    result = music_spectrum(basis, g, grid)
    expected = np.empty(result.spectrum.shape)
    for iy, y in enumerate(grid.y_axis):
        for ix, x in enumerate(grid.x_axis):
            g_r = sensing_response(g, PolarPoint(np.hypot(x, y), np.arctan2(x, y))).g_r
            expected[iy, ix] = 1.0 / (np.linalg.norm(basis.conj().T @ g_r) ** 2 + 1e-18)
    expected /= expected.max()
    assert result.flagged_cells == []
    assert np.allclose(result.spectrum, expected, rtol=1e-9, atol=0.0)


def test_pseudo_spectrum_chunk_invariance():
    cfg = harness.desk_config(seed=0)
    g = build_geometry(cfg)
    rng = np.random.default_rng(7)
    basis = _random_noise_basis(rng, cfg.n_antennas, 8)
    x = rng.uniform(-15.0, 15.0, 2003)
    y = rng.uniform(0.5, 25.0, 2003)
    refs = g.reference_positions("rx")
    # flagged cells on both sides of the chunk-7 boundary at 7 and of the
    # chunk-1000 boundary at 1000, exact and 1e-14 m off an antenna
    for i, (k, off) in zip((6, 7, 999, 1000), ((0, 0.0), (1, 1e-14), (2, -1e-14), (3, 0.0))):
        x[i], y[i] = refs[k, 0] + off, refs[k, 1]
    runs = [_pseudo_spectrum(g, basis, x, y, chunk=c) for c in (8192, 1000, 7)]
    ref_vals, ref_bad = runs[0]
    assert np.array_equal(np.nonzero(ref_bad)[0], [6, 7, 999, 1000])
    for vals, bad in runs[1:]:
        assert np.array_equal(bad, ref_bad)
        assert np.allclose(vals, ref_vals, rtol=1e-13, atol=0.0)


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
        1.0 / (np.linalg.norm(
            basis.conj().T @ sensing_response(g, PolarPoint(np.hypot(u, v), np.arctan2(u, v))).g_r
        ) ** 2 + 1e-18)
        for u, v in zip(x, y)
    ])
    assert not bad.any()
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
    with pytest.raises(ValueError):
        GridSpec.parse("1:2")
    with pytest.raises(ValueError):
        GridSpec(0, -1.0, 1, 0, 1.0, 1)


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
    xs, ys, data = load_spectrum_grid(bin_path)
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
    assert f_tx.shape == (cfg.n_antennas, data.n_streams)
