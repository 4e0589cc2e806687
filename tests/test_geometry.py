import dataclasses

import numpy as np
import pytest

from modisac.geometry import (
    ConfigurationError,
    DegenerateGeometryError,
    PolarPoint,
    build_geometry,
    steering_vector,
    subarray_view,
)
from modisac.harness import config_from_dict


def _config(**kw):
    base = dict(
        carrier_frequency=38e9,
        k_subarrays=2,
        m_antennas=2,
        gamma=2.0,
        d0=0.0,
        n_user_antennas=2,
        n_paths=1,
    )
    base.update(kw)
    return dataclasses.replace(config_from_dict({}), **base)


def test_single_element_positions():
    cfg = _config(k_subarrays=1, m_antennas=1, gamma=1.0, d0=1.0)
    g = build_geometry(cfg)
    assert np.allclose(g.tx_positions, [[[1.0, 0.0]]])
    assert np.allclose(g.rx_positions, [[[-1.0, 0.0]]])


def test_positions_hand_evaluated():
    # K=2, M=2, Gamma=2, D0=0: tx x-coordinates are 0, d, 2d, 3d
    cfg = _config()
    g = build_geometry(cfg)
    d = cfg.d
    xs = g.tx_positions[:, :, 0].ravel()
    assert np.allclose(xs, [0.0, d, 2 * d, 3 * d])
    assert np.allclose(g.tx_positions[:, :, 1], 0.0)


def test_half_wavelength_spacing_at_38ghz():
    cfg = _config(k_subarrays=6, m_antennas=32, gamma=64.0)
    assert cfg.d == pytest.approx(0.00395, abs=1e-5)


def test_mirror_symmetry_exact(assert_check):
    assert_check("mirror_symmetry")


def test_gamma_below_m_rejected():
    with pytest.raises(ConfigurationError, match="gamma"):
        _config(gamma=1.0, m_antennas=2)


def test_bad_angle_rejected():
    with pytest.raises(ConfigurationError):
        PolarPoint(10.0, 2.0)
    with pytest.raises(ConfigurationError):
        PolarPoint(-1.0, 0.0)


def test_steering_broadside_all_ones():
    v = steering_vector(8, 0.0, 0.005, 0.01)
    assert np.allclose(v, 1.0)


def test_steering_endfire_alternates():
    lam = 0.01
    v = steering_vector(2, np.pi / 2, lam / 2, lam)
    assert np.allclose(v, [1.0, -1.0], atol=1e-12)


def test_steering_hand_phases():
    # M=4, angle=pi/6, d=lambda/2: phases 0, -pi/2, -pi, -3pi/2
    lam = 0.02
    v = steering_vector(4, np.pi / 6, lam / 2, lam)
    expected = np.exp(1j * np.array([0.0, -np.pi / 2, -np.pi, -3 * np.pi / 2]))
    assert np.allclose(v, expected, atol=1e-12)
    diffs = np.angle(v[1:] / v[:-1])
    assert np.allclose(diffs, diffs[0], atol=1e-12)


def test_steering_rows_match_scalar_form():
    angles = np.array([-1.2, 0.0, 0.3, np.pi / 2])
    rows = steering_vector(5, angles, 0.004, 0.008)
    assert rows.shape == (4, 5)
    for row, angle in zip(rows, angles):
        assert np.array_equal(row, steering_vector(5, angle, 0.004, 0.008))


def test_steering_unit_modulus(assert_check):
    assert_check("steering_modulus")


def test_subarray_angle_directly_above():
    cfg = _config(d0=1.0)
    g = build_geometry(cfg)
    ref_x = g.tx_positions[1, 0, 0]
    loc = PolarPoint(np.hypot(ref_x, 5.0), np.arctan2(ref_x, 5.0))
    ranges, angles = subarray_view(g, "tx", loc)
    assert angles[1] == pytest.approx(0.0, abs=1e-12)
    assert ranges[1] == pytest.approx(5.0, rel=1e-12)


def test_subarray_angle_reference_at_origin():
    g = build_geometry(_config(d0=0.0))
    loc = PolarPoint(10.0, np.pi / 6)
    ranges, angles = subarray_view(g, "tx", loc)
    assert angles[0] == pytest.approx(np.pi / 6, abs=1e-12)
    assert ranges[0] == pytest.approx(10.0, rel=1e-12)


def test_subarray_angle_differs_across_subarrays():
    cfg = _config(k_subarrays=2, m_antennas=2, gamma=200.0, d0=1.0)
    g = build_geometry(cfg)
    loc = PolarPoint(20.0, 0.2)
    a0, a1 = subarray_view(g, "tx", loc)[1]
    assert abs(a0 - a1) > 1e-6


def test_subarray_angle_monotone_in_x():
    g = build_geometry(_config(d0=1.0))
    angles = [
        subarray_view(g, "tx", PolarPoint(np.hypot(x, 15.0), np.arctan2(x, 15.0)))[1][0]
        for x in np.linspace(-5.0, 5.0, 21)
    ]
    assert np.all(np.diff(angles) > 0)


def test_subarray_angle_degenerate_raises():
    g = build_geometry(_config(d0=1.0))
    ref_x = g.tx_positions[0, 0, 0]
    with pytest.raises(DegenerateGeometryError):
        subarray_view(g, "tx", PolarPoint(ref_x, np.pi / 2))


def test_inter_phase_single_subarray():
    g = build_geometry(_config(k_subarrays=1, m_antennas=2, gamma=2.0, d0=1.0))
    loc = PolarPoint(5.0, 0.1)
    ranges, angles = subarray_view(g, "tx", loc)
    assert ranges.shape == angles.shape == (1,)
    ref = g.reference_positions("tx")[0]
    assert ranges[0] == pytest.approx(np.hypot(*(loc.xy - ref)), rel=1e-12)
    assert angles[0] == pytest.approx(np.arcsin((loc.xy[0] - ref[0]) / ranges[0]), abs=1e-12)


def test_inter_phase_equidistant_subarrays():
    cfg = _config(k_subarrays=2, m_antennas=2, gamma=100.0, d0=1.0)
    g = build_geometry(cfg)
    mid_x = 0.5 * (g.tx_positions[0, 0, 0] + g.tx_positions[1, 0, 0])
    loc = PolarPoint(np.hypot(mid_x, 7.0), np.arctan2(mid_x, 7.0))
    ranges, angles = subarray_view(g, "tx", loc)
    # equal ranges put nu_0 and nu_1 within 1e-9 of each other
    assert 2 * np.pi / g.wavelength * abs(ranges[0] - ranges[1]) < 1e-9
    assert angles[0] == pytest.approx(-angles[1], abs=1e-12)


def test_inter_phase_distance_oracle(assert_check):
    assert_check("interphase_oracle")


def test_geometry_offsets_override():
    cfg = _config(k_subarrays=2, m_antennas=2, gamma=4.0, d0=1.0)
    offsets = [1.0, 1.5]
    g = build_geometry(cfg, offsets)
    assert g.tx_positions[1, 0, 0] == pytest.approx(1.5)
    with pytest.raises(ConfigurationError):
        build_geometry(cfg, [1.0, 1.0])  # overlapping subarrays
