import cmath
import math

import numpy as np
import pytest

from modisac import harness
from modisac.channel import (
    GAIN_REFERENCE,
    NLOS_EXTRA_LOSS_DB,
    SCATTER_ANGLE,
    SCATTER_RANGE,
    PathSpec,
    build_comm_channel,
    build_responses,
    draw_paths,
    numerical_rank,
    rank_bounds,
    sensing_response,
    simulate_echoes,
)
from modisac.geometry import (
    PolarPoint,
    SceneObject,
    build_geometry,
    steering_vector,
    subarray_view,
)


def _geometry(**kw):
    cfg = harness.desk_config(**kw)
    return cfg, build_geometry(cfg)


def test_draw_paths_single_los():
    cfg, g = _geometry(paths=1)
    paths = draw_paths(cfg, g, np.random.default_rng(0))
    assert len(paths) == 1
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
        assert p.scatterer is not None
        assert SCATTER_RANGE[0] <= p.scatterer.r <= SCATTER_RANGE[1]
        assert SCATTER_ANGLE[0] <= p.scatterer.theta <= SCATTER_ANGLE[1]


@pytest.mark.parametrize("n_paths", [1, 2, 4])
def test_draw_paths_draw_order_and_gain_law(n_paths):
    # each scatterer draws its range, then its angle; LoS gains follow the 1/D
    # law, NLoS gains sit NLOS_EXTRA_LOSS_DB below it
    cfg, g = _geometry(paths=n_paths)
    paths = draw_paths(cfg, g, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    expected = [
        PolarPoint(rng.uniform(*SCATTER_RANGE), rng.uniform(*SCATTER_ANGLE))
        for _ in range(n_paths - 1)
    ]
    assert len(paths) == n_paths and paths[0].scatterer is None
    assert np.array_equal(
        np.reshape([(p.scatterer.r, p.scatterer.theta) for p in paths[1:]], (-1, 2)),
        np.reshape([(p.r, p.theta) for p in expected], (-1, 2)),
    )
    assert np.array_equal(paths[0].gains, GAIN_REFERENCE / paths[0].distances)
    for p in paths[1:]:
        nlos = 10 ** (-NLOS_EXTRA_LOSS_DB / 20) * GAIN_REFERENCE / p.distances
        assert np.array_equal(p.gains, nlos)


def _manual_path(geometry, user, n_user, gains=None, aoa=None):
    """LoS-style PathSpec with overridable gains/arrival angles."""
    dists, aod = subarray_view(geometry, "tx", user)
    return PathSpec(
        gains=np.ones(dists.size) if gains is None else gains,
        distances=dists,
        aod=aod,
        aoa=-aod if aoa is None else aoa,
    )


def test_channel_rank1_unit_gain_norm():
    cfg, g = _geometry(subarrays=1, antennas_per_subarray=8, user_antennas=4)
    path = _manual_path(g, cfg.user, 4)
    h = build_comm_channel(g, [path], 4)
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
    h = build_comm_channel(g, paths, 4)
    assert numerical_rank(h, 1e-8) == 2


def test_channel_element_oracle():
    # H[u, kM+m] = sum_p g_p^k e^{-j2pi D_p^k/lam} e^{-j2pi u d sin(aoa)/lam} e^{+j2pi m d sin(aod)/lam}
    cfg, g = _geometry(subarrays=3, antennas_per_subarray=4, user_antennas=3, paths=2)
    los, nlos = draw_paths(cfg, g, np.random.default_rng(4))
    assert los.scatterer is None and nlos.scatterer is not None
    h = build_comm_channel(g, [los, nlos], 3)
    lam, d = g.wavelength, g.d
    (ux, uy), (sx, sy) = cfg.user.xy, nlos.scatterer.xy
    oracle = np.zeros((3, 12), dtype=complex)
    for k in range(3):
        rx, ry = g.tx_positions[k, 0]
        to_user, to_sc, sc_user = (
            math.hypot(ux - rx, uy - ry), math.hypot(sx - rx, sy - ry), math.hypot(ux - sx, uy - sy)
        )
        for path, dist, aod, aoa in (
            (los, to_user, math.asin((ux - rx) / to_user), math.asin((rx - ux) / to_user)),
            (nlos, to_sc + sc_user, math.asin((sx - rx) / to_sc), math.asin((sx - ux) / sc_user)),
        ):
            for u in range(3):
                for m in range(4):
                    oracle[u, 4 * k + m] += path.gains[k] * cmath.exp(
                        -2j * math.pi / lam
                        * (dist + u * d * math.sin(aoa) - m * d * math.sin(aod))
                    )
    assert np.max(np.abs(h - oracle)) <= 1e-10 * np.max(np.abs(oracle))
    # the per-subarray loop, bit for bit: the same products in the same order
    loop = np.zeros((3, 12), dtype=complex)
    for path in (los, nlos):
        mu = path.gains * np.exp(-2j * np.pi * path.distances / lam)
        for k in range(3):
            a_rx = steering_vector(3, path.aoa[k], d, lam)
            a_tx = steering_vector(4, path.aod[k], d, lam)
            loop[:, 4 * k : 4 * k + 4] += mu[k] * np.outer(a_rx, a_tx.conj())
    assert np.array_equal(h, loop)


def test_channel_equal_aoa_rank1():
    cfg, g = _geometry(subarrays=2, antennas_per_subarray=8, user_antennas=4)
    path = _manual_path(g, cfg.user, 4, aoa=np.full(2, 0.17))
    h = build_comm_channel(g, [path], 4)
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
    resp = sensing_response(g, SceneObject(loc))
    # with one subarray g_t is the intra steering vector times a unit phase
    ranges, _ = subarray_view(g, "tx", loc)
    nu = np.exp(-2j * np.pi / g.wavelength * ranges)
    assert nu.shape == (1,)
    assert np.allclose(resp.g_t, nu[0] * resp.a_t_blocks[0])


def test_sensing_response_unit_modulus(assert_check):
    assert_check("response_modulus")


def test_sensing_response_element_oracle():
    cfg, g = _geometry(subarrays=3)
    loc = PolarPoint(20.0, np.pi / 4)
    resp = sensing_response(g, SceneObject(loc))
    lam, d = g.wavelength, g.d
    ranges, angles = subarray_view(g, "tx", loc)
    for k, (dist, angle) in enumerate(zip(ranges, angles)):
        for m in range(g.m_antennas):
            phase = -2 * np.pi / lam * (dist + m * d * np.sin(angle))
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
    y = simulate_echoes(resp, x, 0.0, np.random.default_rng(0))
    assert np.all(y == 0.0)


def test_echoes_rank1_column_space():
    cfg, g = _geometry(subarrays=2, antennas_per_subarray=4)
    objs = (SceneObject(PolarPoint(20.0, 0.3), alpha=1.0),)
    resp = build_responses(g, objs)
    n = 8
    x = np.outer(resp[0].g_t, np.ones(6))
    y = simulate_echoes(resp, x, 0.0, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    beta = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    assert np.allclose(y, beta * n * np.outer(resp[0].g_r, np.ones(6)), atol=1e-10)
    assert numerical_rank(y) == 1


def test_responses_carry_alpha_and_silent_objects_echo_nothing():
    cfg, g = _geometry(subarrays=2, antennas_per_subarray=4)
    target = SceneObject(PolarPoint(20.0, 0.3), alpha=0.7)
    objs = (target, SceneObject(PolarPoint(25.0, -0.4), alpha=0.0))
    resp = build_responses(g, objs)
    assert [r.alpha for r in resp] == [0.7, 0.0]
    assert np.array_equal(resp[0].g_t, sensing_response(g, target).g_t)
    # noiseless: the silent interferer still draws its reflection coefficient
    x = np.random.default_rng(3).standard_normal((8, 5)) + 0j
    both = simulate_echoes(resp, x, 0.0, np.random.default_rng(9))
    alone = simulate_echoes(resp[:1], x, 0.0, np.random.default_rng(9))
    assert np.any(alone != 0.0)
    assert np.array_equal(both, alone)


def test_echo_noise_covariance_concentration():
    cfg, g = _geometry(subarrays=2, antennas_per_subarray=4)
    objs = (SceneObject(PolarPoint(20.0, 0.3), alpha=0.0),)
    resp = build_responses(g, objs)
    n, length, sigma = 8, 10_000, 1e-3
    y = simulate_echoes(resp, np.zeros((n, length)), sigma, np.random.default_rng(11))
    cov = y @ y.conj().T / length
    err = np.linalg.norm(cov - sigma * np.eye(n))
    assert err < 3.0 * sigma * n / np.sqrt(length)


def test_echo_linearity_with_fixed_draws(assert_check):
    assert_check("echo_linearity")
