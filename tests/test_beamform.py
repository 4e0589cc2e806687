import dataclasses

import numpy as np
import pytest

from modisac import harness
from modisac.beamform import (
    analog_feasibility,
    mvdr_receive,
    optimal_analog,
    phi_matrices,
    scnr,
    sensing_form,
    spectral_efficiency,
    transmit_power,
    verify_covariance_subspace,
)
from modisac.channel import build_responses
from modisac.geometry import build_geometry


def test_subspace_single_subarray_layout():
    cfg = harness.desk_config(subarrays=1, antennas_per_subarray=8, paths=1,
                              interferers=[])
    data = harness.prepare_scenario(cfg)
    u_tilde = data.basis.u_tilde
    assert u_tilde.shape == (8, 2)  # Q=1 target + Np=1 path
    assert np.max(np.abs(np.abs(u_tilde) - 1.0)) < 1e-12


def test_subspace_block_diagonal(assert_check):
    assert_check("subspace_structure")


def test_subspace_contains_sensing_and_row_space(assert_check):
    assert_check("subspace_contains")


def test_optimal_analog_is_basis(desk_data):
    w_rf = optimal_analog(desk_data.basis)
    assert np.array_equal(w_rf, desk_data.basis.u_tilde)
    ok, mod_err = analog_feasibility(w_rf, desk_data.basis.k_subarrays)
    assert ok and mod_err < 1e-12


def test_se_zero_beamformer(desk_data):
    w_rf = optimal_analog(desk_data.basis)
    w_bb = np.zeros((desk_data.n_rf, desk_data.n_streams))
    assert spectral_efficiency(desk_data.comm.h, w_rf, w_bb, 1e-6) == 0.0


def test_se_rank1_scalar_oracle(rng):
    n, nc = 12, 4
    h = np.outer(
        rng.standard_normal(nc) + 1j * rng.standard_normal(nc),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
    )
    w = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    sigma = 0.3
    se = spectral_efficiency(h, np.eye(n), w, sigma)
    assert se == pytest.approx(np.log2(1 + np.linalg.norm(h @ w) ** 2 / sigma), rel=1e-12)


def test_se_monotone_in_noise(rng):
    for _ in range(50):
        h = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        w = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        sigma = float(rng.uniform(0.1, 2.0))
        assert spectral_efficiency(h, np.eye(6), w, 2 * sigma) <= spectral_efficiency(
            h, np.eye(6), w, sigma
        )


def test_scnr_zero_covariance(desk_data):
    cfg = desk_data.config
    val = scnr(
        desk_data.w_fixed.w,
        desk_data.responses,
        desk_data.alphas,
        np.zeros((cfg.n_antennas, cfg.n_antennas)),
        cfg.sigma_s_sq,
    )
    assert val == 0.0


def test_scnr_matched_filter_oracle():
    # no interferers, R_X = I, w = g_r0/||g_r0||^2: SCNR = alpha^2 N^2 / sigma^2
    cfg = harness.desk_config(interferers=[])
    g = build_geometry(cfg)
    objs = cfg.scene_objects
    resp = build_responses(g, objs)
    n = cfg.n_antennas
    w = resp[0].g_r / n
    val = scnr(w, resp, [o.alpha for o in objs], np.eye(n), cfg.sigma_s_sq)
    expected = cfg.target.alpha**2 * n**2 / cfg.sigma_s_sq
    assert val == pytest.approx(expected, rel=1e-10)


def test_scnr_scaling_in_covariance():
    cfg = harness.desk_config(interferers=[])
    data = harness.prepare_scenario(cfg)
    n = cfg.n_antennas
    vals = [
        scnr(data.w_fixed.w, data.responses, data.alphas, c * np.eye(n), cfg.sigma_s_sq)
        for c in (1.0, 2.0, 4.0)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_scnr_zero_denominator_raises():
    cfg = harness.desk_config(interferers=[])
    g = build_geometry(cfg)
    resp = build_responses(g, cfg.scene_objects)
    n = cfg.n_antennas
    with pytest.raises(ZeroDivisionError):
        scnr(resp[0].g_r, resp, [1.0], np.eye(n), 0.0)


def test_mvdr_no_interference_matched():
    cfg = harness.desk_config(interferers=[])
    g = build_geometry(cfg)
    resp = build_responses(g, cfg.scene_objects)
    n = cfg.n_antennas
    w = mvdr_receive(resp, [1.0], np.eye(n), cfg.sigma_s_sq).w
    assert np.allclose(w, resp[0].g_r / n, atol=1e-12)


def test_mvdr_omnidirectional_finite(desk_data):
    cfg = desk_data.config
    w = mvdr_receive(
        desk_data.responses, desk_data.alphas, np.eye(cfg.n_antennas), cfg.sigma_s_sq
    ).w
    assert np.all(np.isfinite(w.view(float)))
    assert np.linalg.norm(w) > 0


def test_mvdr_argmax_sampled(assert_check):
    assert_check("mvdr_argmax")


def test_phi_orthogonal_receive_filter(desk_data):
    cfg = desk_data.config
    g_r0 = desk_data.responses[0].g_r
    w = np.ones(cfg.n_antennas, dtype=complex)
    w -= (g_r0.conj() @ w) / np.linalg.norm(g_r0) ** 2 * g_r0
    phi = phi_matrices(desk_data.basis, desk_data.responses, w, cfg.scnr_min, cfg.sigma_s_sq)
    assert np.linalg.norm(phi.phi[0]) < 1e-20 * max(1.0, np.linalg.norm(w) ** 2)


def test_phi_trace_identity(desk_data):
    cfg = desk_data.config
    w = desk_data.w_fixed.w
    phi = desk_data.phi_set
    for q, resp in enumerate(desk_data.responses.objects):
        expected = (
            np.abs(w.conj() @ resp.g_r) ** 2
            * np.linalg.norm(desk_data.basis.u_tilde.conj().T @ resp.g_t) ** 2
        )
        assert np.trace(phi.phi[q]).real == pytest.approx(expected, rel=1e-10)


def test_phi_rank_one(desk_data):
    for mat in desk_data.phi_set.phi:
        vals = np.linalg.eigvalsh(mat)
        assert vals[-1] >= 0
        assert np.all(np.abs(vals[:-1]) <= 1e-10 * max(np.trace(mat).real, 1e-300))


def test_reduced_matches_full_metrics(assert_check):
    assert_check("reduced_equals_full")


def test_transmit_power_zero(desk_data):
    w_rf = optimal_analog(desk_data.basis)
    exact, proxy = transmit_power(w_rf, np.zeros((desk_data.n_rf, 2)))
    assert exact == 0.0 and proxy == 0.0


def test_transmit_power_orthogonal_columns(assert_check):
    assert_check("power_accounting")


def test_transmit_power_generic_gap(desk_data, rng):
    w_rf = optimal_analog(desk_data.basis)
    w_bb = rng.standard_normal((desk_data.n_rf, 3)) + 1j * rng.standard_normal(
        (desk_data.n_rf, 3)
    )
    exact, proxy = transmit_power(w_rf, w_bb)
    assert exact != pytest.approx(proxy, rel=1e-6)  # steering columns overlap


def test_covariance_subspace_residuals(assert_check):
    assert_check("covariance_subspace")


def test_covariance_subspace_basis_invariance(desk_data, rng):
    n_rf = desk_data.n_rf
    q, _ = np.linalg.qr(
        rng.standard_normal((n_rf, n_rf)) + 1j * rng.standard_normal((n_rf, n_rf))
    )
    rotated = dataclasses.replace(desk_data.basis, u_tilde=desk_data.basis.u_tilde @ q)
    n = desk_data.config.n_antennas
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r_x = a @ a.conj().T
    r1 = verify_covariance_subspace(r_x, desk_data.basis)
    r2 = verify_covariance_subspace(r_x, rotated)
    assert r1 == pytest.approx(r2, abs=1e-10)


def test_sensing_form_hermitian(desk_data):
    psi = sensing_form(desk_data.phi_set, desk_data.alphas, desk_data.config.scnr_min)
    assert np.allclose(psi, psi.conj().T)


def test_hybrid_beamformer_invariants(desk_data, rng):
    from modisac.beamform import HybridBeamformer

    cfg = desk_data.config
    w_rf = optimal_analog(desk_data.basis)
    w_bb = rng.standard_normal((desk_data.n_rf, desk_data.n_streams)) + (
        1j * rng.standard_normal((desk_data.n_rf, desk_data.n_streams))
    )
    w_bb *= np.sqrt(desk_data.n_streams / cfg.m_antennas) / np.linalg.norm(w_bb)
    hybrid = HybridBeamformer(w_rf, w_bb, cfg.k_subarrays, cfg.m_antennas)
    hybrid.check()
    r_x = hybrid.covariance()
    assert np.allclose(r_x, r_x.conj().T)

    # power-proxy violation is caught
    with pytest.raises(ValueError, match="proxy"):
        HybridBeamformer(w_rf, 2.0 * w_bb, cfg.k_subarrays, cfg.m_antennas).check()

    # off-block support is caught
    bad = w_rf.copy()
    bad[0, -1] = 1.0
    with pytest.raises(ValueError, match="support"):
        HybridBeamformer(bad, w_bb, cfg.k_subarrays, cfg.m_antennas).check()
