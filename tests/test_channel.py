import numpy as np
import pytest

from modisac import harness
from modisac.channel import (
    PathSpec,
    build_comm_channel,
    build_responses,
    draw_paths,
    numerical_rank,
    rank_bounds,
    sensing_response,
    simulate_echoes,
)
from modisac.geometry import PolarPoint, SceneObject, build_geometry


def _geometry(**kw):
    cfg = harness.desk_config(**kw)
    return cfg, build_geometry(cfg)


def test_draw_paths_single_los():
    cfg, g = _geometry(paths=1)
    paths = draw_paths(cfg, g, np.random.default_rng(0))
    assert len(paths) == 1
    assert paths[0].kind == "los"
    assert paths[0].scatterer is None


def test_draw_paths_deterministic():
    cfg, g = _geometry(paths=3)
    a = draw_paths(cfg, g, np.random.default_rng(7))
    b = draw_paths(cfg, g, np.random.default_rng(7))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.distances, pb.distances)
        assert np.array_equal(pa.aod, pb.aod)
        assert np.array_equal(pa.gains, pb.gains)


def test_draw_paths_scatterer_region():
    cfg, g = _geometry(paths=4)
    paths = draw_paths(cfg, g, np.random.default_rng(3))
    assert len(paths) == 4
    for p in paths[1:]:
        assert p.kind == "nlos"
        assert cfg.scatter_range[0] <= p.scatterer.r <= cfg.scatter_range[1]
        assert cfg.scatter_angle[0] <= p.scatterer.theta <= cfg.scatter_angle[1]


def _manual_path(geometry, user, n_user, gains=None, aoa=None):
    """LoS-style PathSpec with overridable gains/arrival angles."""
    from modisac.channel import _path_geometry

    dists, aod, aoa_true = _path_geometry(geometry, user, None)
    k = dists.size
    return PathSpec(
        kind="los",
        gains=np.ones(k) if gains is None else gains,
        distances=dists,
        aod=aod,
        aoa=aoa_true if aoa is None else aoa,
    )


def test_channel_rank1_unit_gain_norm():
    cfg, g = _geometry(subarrays=1, antennas_per_subarray=8, user_antennas=4)
    path = _manual_path(g, cfg.user, 4)
    h = build_comm_channel(g, [path], cfg.user, 4)
    assert numerical_rank(h) == 1
    assert np.linalg.norm(h) == pytest.approx(np.sqrt(4 * 8), rel=1e-12)


def test_channel_rank2_two_subarrays():
    # near-field user: the two subarrays arrive at distinct user angles
    cfg, g = _geometry(
        subarrays=2,
        antennas_per_subarray=8,
        user_antennas=4,
        paths=1,
        user={"range_m": 8.0, "angle_deg": 10.0},
    )
    paths = draw_paths(cfg, g, np.random.default_rng(0))
    h = build_comm_channel(g, paths, cfg.user, 4)
    assert numerical_rank(h, 1e-8) == 2


def test_channel_equal_aoa_rank1():
    cfg, g = _geometry(subarrays=2, antennas_per_subarray=8, user_antennas=4)
    path = _manual_path(g, cfg.user, 4, aoa=np.full(2, 0.17))
    h = build_comm_channel(g, [path], cfg.user, 4)
    assert numerical_rank(h, 1e-8) == 1


@pytest.mark.parametrize(
    "np_, nc, k, expected",
    [(1, 16, 6, (1, 6)), (4, 16, 6, (4, 16)), (4, 2, 6, (2, 2))],
)
def test_rank_bounds(np_, nc, k, expected):
    assert rank_bounds(np_, nc, k) == expected


def test_numerical_rank_cases(rng):
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((4, 5))) == 0
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert numerical_rank(np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))) == 1


def test_lemma1_bounds_random_instances(assert_check):
    assert_check("rank_bounds")


def test_sensing_response_single_subarray():
    cfg, g = _geometry(subarrays=1, antennas_per_subarray=8)
    loc = PolarPoint(15.0, 0.4)
    resp = sensing_response(g, loc)
    # with one subarray g_t is the intra steering vector times a unit phase
    assert np.allclose(resp.g_t, resp.nu_t[0] * resp.a_t_blocks[0])
    assert abs(abs(resp.nu_t[0]) - 1.0) < 1e-12


def test_sensing_response_unit_modulus(assert_check):
    assert_check("response_modulus")


def test_sensing_response_element_oracle():
    cfg, g = _geometry(subarrays=3)
    loc = PolarPoint(20.0, np.pi / 4)
    resp = sensing_response(g, loc)
    lam, d = g.wavelength, g.d
    refs = g.reference_positions("tx")
    for k in range(3):
        dist = np.linalg.norm(loc.xy - refs[k])
        for m in range(g.m_antennas):
            phase = -2 * np.pi / lam * (dist + m * d * np.sin(resp.tx_angles[k]))
            assert resp.g_t[k * g.m_antennas + m] == pytest.approx(
                np.exp(1j * phase), abs=1e-10
            )


def test_channel_block_locality(assert_check):
    assert_check("block_locality")


def test_echoes_zero_scene():
    cfg, g = _geometry(subarrays=2, antennas_per_subarray=4)
    objs = (SceneObject(PolarPoint(20.0, 0.3), alpha=0.0),)
    resp = build_responses(g, objs)
    x = np.ones((8, 5), dtype=complex)
    y = simulate_echoes(resp, objs, x, 0.0, np.random.default_rng(0))
    assert np.all(y == 0.0)


def test_echoes_rank1_column_space():
    cfg, g = _geometry(subarrays=2, antennas_per_subarray=4)
    objs = (SceneObject(PolarPoint(20.0, 0.3), alpha=1.0),)
    resp = build_responses(g, objs)
    n = 8
    x = np.outer(resp[0].g_t, np.ones(6))
    y = simulate_echoes(resp, objs, x, 0.0, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    beta = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    assert np.allclose(y, beta * n * np.outer(resp[0].g_r, np.ones(6)), atol=1e-10)
    assert numerical_rank(y) == 1


def test_echo_noise_covariance_concentration():
    cfg, g = _geometry(subarrays=2, antennas_per_subarray=4)
    objs = (SceneObject(PolarPoint(20.0, 0.3), alpha=0.0),)
    resp = build_responses(g, objs)
    n, length, sigma = 8, 10_000, 1e-3
    y = simulate_echoes(
        resp, objs, np.zeros((n, length)), sigma, np.random.default_rng(11)
    )
    cov = y @ y.conj().T / length
    err = np.linalg.norm(cov - sigma * np.eye(n))
    assert err < 3.0 * sigma * n / np.sqrt(length)


def test_echo_linearity_with_fixed_draws(assert_check):
    assert_check("echo_linearity")
