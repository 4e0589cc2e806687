import dataclasses

import numpy as np
import pytest

from modisac import harness, opt_sdr
from modisac.beamform import (
    analog_feasibility,
    build_subspace,
    check_hybrid,
    echo_weights,
    mvdr_receive,
    optimal_analog,
    phi_matrices,
    scnr,
    sensing_form,
    spectral_efficiency,
    transmit_power,
    verify_covariance_subspace,
)
from modisac.channel import build_responses, draw_paths
from modisac.geometry import build_geometry, steering_vector
from modisac.validation import CHECKS


def test_subspace_single_subarray_layout():
    cfg = harness.desk_config(subarrays=1, antennas_per_subarray=8, paths=1,
                              interferers=[])
    data = harness.prepare_scenario(cfg)
    u_tilde = data.u_tilde
    assert u_tilde.shape == (8, 2)  # Q=1 target + Np=1 path
    assert np.max(np.abs(np.abs(u_tilde) - 1.0)) < 1e-12


def test_subspace_block_diagonal(assert_check):
    assert_check("subspace_structure")


def test_subspace_contains_sensing_and_row_space(assert_check):
    assert_check("subspace_contains")


def test_optimal_analog_is_basis(desk_data):
    w_rf = optimal_analog(desk_data.u_tilde)
    assert np.array_equal(w_rf, desk_data.u_tilde)
    ok, mod_err = analog_feasibility(w_rf, desk_data.config.k_subarrays)
    assert ok and mod_err < 1e-12


def test_basis_and_analog_memory_layout(desk_data):
    """U_tilde is column-major and the analog beamformer a row-major copy:
    BLAS rounds products by layout, and the sweep CSVs are pinned to this one."""
    u = desk_data.u_tilde
    assert u.flags.f_contiguous and not u.flags.c_contiguous
    w_rf = optimal_analog(u)
    assert w_rf.flags.c_contiguous and not w_rf.flags.f_contiguous
    assert not np.shares_memory(w_rf, u)
    assert np.array_equal(w_rf, u)


def test_se_zero_beamformer(desk_data):
    w_rf = optimal_analog(desk_data.u_tilde)
    w_bb = np.zeros((desk_data.problem.dim, desk_data.problem.n_streams))
    assert spectral_efficiency(desk_data.h, w_rf, w_bb, 1e-6) == 0.0


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
        desk_data.w_fixed,
        desk_data.responses,
        echo_weights(desk_data.responses, np.zeros((cfg.n_antennas, 1))),
        cfg.sigma_s_sq,
    )
    assert val == 0.0


def test_scnr_matched_filter_oracle():
    # no interferers, R_X = I, w = g_r0/||g_r0||^2: SCNR = alpha^2 N^2 / sigma^2
    cfg = harness.desk_config(interferers=[])
    g = build_geometry(cfg)
    resp = build_responses(g, cfg.scene_objects)
    n = cfg.n_antennas
    w = resp[0].g_r / n
    val = scnr(w, resp, echo_weights(resp, np.eye(n)), cfg.sigma_s_sq)
    expected = cfg.target.alpha**2 * n**2 / cfg.sigma_s_sq
    assert val == pytest.approx(expected, rel=1e-10)


def test_scnr_scaling_in_covariance():
    cfg = harness.desk_config(interferers=[])
    data = harness.prepare_scenario(cfg)
    n = cfg.n_antennas
    vals = [
        scnr(data.w_fixed, data.responses, echo_weights(data.responses, f), cfg.sigma_s_sq)
        for f in (np.sqrt(c) * np.eye(n) for c in (1.0, 2.0, 4.0))
    ]
    assert vals[0] < vals[1] < vals[2]


def test_scnr_zero_denominator_raises():
    cfg = harness.desk_config(interferers=[])
    g = build_geometry(cfg)
    resp = build_responses(g, cfg.scene_objects)
    n = cfg.n_antennas
    with pytest.raises(ZeroDivisionError):
        scnr(resp[0].g_r, resp, echo_weights(resp, np.eye(n)), 0.0)


def test_mvdr_no_interference_matched():
    cfg = harness.desk_config(interferers=[])
    g = build_geometry(cfg)
    resp = build_responses(g, cfg.scene_objects)
    n = cfg.n_antennas
    w = mvdr_receive(resp, echo_weights(resp, np.eye(n)), cfg.sigma_s_sq)
    assert np.allclose(w, resp[0].g_r / n, atol=1e-12)


def test_mvdr_omnidirectional_finite(desk_data):
    cfg = desk_data.config
    weights = echo_weights(desk_data.responses, np.eye(cfg.n_antennas))
    w = mvdr_receive(desk_data.responses, weights, cfg.sigma_s_sq)
    assert np.all(np.isfinite(w.view(float)))
    assert np.linalg.norm(w) > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a zero weight is never divided by
@pytest.mark.parametrize("desk", [True, False], ids=["desk", "full"])
def test_mvdr_matches_dense_covariance(desk):
    # oracle: the dense clutter-plus-noise covariance C = sigma^2 I + G D G^H and its LU
    for seed in range(10):
        cfg = harness.desk_config(seed=seed) if desk else harness.config_from_dict({"seed": seed})
        data = harness.prepare_scenario(cfg)
        n, sigma_sq = cfg.n_antennas, cfg.sigma_s_sq
        # distinct amplitudes, so that alpha_q^2 shows in the weights
        objs = tuple(dataclasses.replace(r, alpha=1.0 - 0.25 * q)
                     for q, r in enumerate(data.responses))
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        r_x = f @ f.conj().T
        dense = np.array([r.alpha ** 2 * np.real(r.g_t.conj() @ r_x @ r.g_t) for r in objs])
        assert np.allclose(echo_weights(objs, f), dense, rtol=1e-12, atol=0), seed
        g = np.stack([r.g_r for r in objs], axis=1)
        for weights in (echo_weights(objs, np.eye(n)), echo_weights(objs, f)):
            c = sigma_sq * np.eye(n) + (g[:, 1:] * weights[1:]) @ g[:, 1:].conj().T
            w = mvdr_receive(objs, weights, sigma_sq)
            cw = c @ w
            kappa = np.vdot(g[:, 0], cw) / np.vdot(g[:, 0], g[:, 0])
            backward = np.linalg.norm(cw - kappa * g[:, 0]) / (
                np.linalg.norm(c, 2) * np.linalg.norm(w))
            assert backward <= 1e-14, (seed, backward)
            sol = np.linalg.solve(c, g[:, 0])
            w_lu = sol / np.real(np.vdot(g[:, 0], sol))
            ours, lu = scnr(w, objs, weights, sigma_sq), scnr(w_lu, objs, weights, sigma_sq)
            assert ours == pytest.approx(lu, rel=1e-11, abs=0), seed
            # a clutter object with zero weight drops out; with all zero, the matched filter
            silent = weights.copy()
            silent[1] = 0.0
            kept = objs[:1] + objs[2:]
            assert np.allclose(
                mvdr_receive(objs, silent, sigma_sq),
                mvdr_receive(kept, np.delete(weights, 1), sigma_sq), rtol=1e-13, atol=0,
            ), seed
            silent[1:] = 0.0
            assert np.allclose(mvdr_receive(objs, silent, sigma_sq), g[:, 0] / n,
                               rtol=1e-14, atol=0), seed


def test_mvdr_argmax_sampled(assert_check):
    assert_check("mvdr_argmax")


def test_phi_orthogonal_receive_filter(desk_data):
    cfg = desk_data.config
    g_r0 = desk_data.responses[0].g_r
    w = np.ones(cfg.n_antennas, dtype=complex)
    w -= (g_r0.conj() @ w) / np.linalg.norm(g_r0) ** 2 * g_r0
    phi = phi_matrices(desk_data.u_tilde, desk_data.responses, w)
    assert phi.shape == (cfg.n_objects, desk_data.problem.dim, desk_data.problem.dim)
    assert np.linalg.norm(phi[0]) < 1e-20 * max(1.0, np.linalg.norm(w) ** 2)


def test_phi_trace_identity(desk_data):
    w = desk_data.w_fixed
    phi = phi_matrices(desk_data.u_tilde, desk_data.responses, w)
    for q, resp in enumerate(desk_data.responses):
        expected = (
            np.abs(w.conj() @ resp.g_r) ** 2
            * np.linalg.norm(desk_data.u_tilde.conj().T @ resp.g_t) ** 2
        )
        assert np.trace(phi[q]).real == pytest.approx(expected, rel=1e-10)


def test_phi_rank_one(desk_data):
    for mat in phi_matrices(desk_data.u_tilde, desk_data.responses, desk_data.w_fixed):
        vals = np.linalg.eigvalsh(mat)
        assert vals[-1] >= 0
        assert np.all(np.abs(vals[:-1]) <= 1e-10 * max(np.trace(mat).real, 1e-300))


def test_reduced_matches_full_metrics(assert_check):
    assert_check("reduced_equals_full")


def test_reduced_equals_full_sees_the_clutter_term(monkeypatch):
    # the MVDR filter nulls the clutter (|w^H g_r1|^2 ~ 1e-17 on desk seed
    # 0), so only the matched filter's problem shows a Psi whose clutter term
    # lacks scnr_min: the check must fail on that mutant
    real = opt_sdr.sensing_form
    monkeypatch.setattr(opt_sdr, "sensing_form", lambda phis, resp, _: real(phis, resp, 1.0))
    ok, detail = dict(CHECKS)["reduced_equals_full"]()
    assert not ok, detail


def test_transmit_power_zero(desk_data):
    w_rf = optimal_analog(desk_data.u_tilde)
    exact, proxy = transmit_power(w_rf, np.zeros((desk_data.problem.dim, 2)))
    assert exact == 0.0 and proxy == 0.0


def test_transmit_power_orthogonal_columns(assert_check):
    assert_check("power_accounting")


def test_transmit_power_generic_gap(desk_data, rng):
    w_rf = optimal_analog(desk_data.u_tilde)
    w_bb = rng.standard_normal((desk_data.problem.dim, 3)) + 1j * rng.standard_normal(
        (desk_data.problem.dim, 3)
    )
    exact, proxy = transmit_power(w_rf, w_bb)
    assert exact != pytest.approx(proxy, rel=1e-6)  # steering columns overlap


def test_covariance_subspace_residuals(assert_check):
    assert_check("covariance_subspace")


def test_covariance_subspace_basis_invariance(desk_data, rng):
    n_rf = desk_data.problem.dim
    q, _ = np.linalg.qr(
        rng.standard_normal((n_rf, n_rf)) + 1j * rng.standard_normal((n_rf, n_rf))
    )
    rotated = desk_data.u_tilde @ q
    n = desk_data.config.n_antennas
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r_x = a @ a.conj().T
    r1 = verify_covariance_subspace(r_x, desk_data.u_tilde)
    r2 = verify_covariance_subspace(r_x, rotated)
    assert r1 == pytest.approx(r2, abs=1e-10)


def test_sensing_form_hermitian(desk_data):
    phis = phi_matrices(desk_data.u_tilde, desk_data.responses, desk_data.w_fixed)
    psi = sensing_form(phis, desk_data.responses, desk_data.config.scnr_min)
    assert np.array_equal(psi, psi.conj().T)
    assert np.array_equal(psi, desk_data.problem.psi)


def test_hybrid_beamformer_invariants(desk_data, rng):
    cfg = desk_data.config
    k, m = cfg.k_subarrays, cfg.m_antennas
    budget = desk_data.problem.power_budget
    w_rf = optimal_analog(desk_data.u_tilde)
    shape = (desk_data.problem.dim, desk_data.problem.n_streams)
    w_bb = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w_bb *= np.sqrt(budget) / np.linalg.norm(w_bb)
    check_hybrid(w_rf, w_bb, k, budget)

    # power-proxy violation is caught
    with pytest.raises(ValueError, match="proxy"):
        check_hybrid(w_rf, 2.0 * w_bb, k, budget)

    # the budget is the caller's, not n_streams/M: M ||W_BB||^2 may exceed
    # M * budget by 1e-9 and no more
    other = 0.3
    check_hybrid(w_rf, w_bb * np.sqrt((other + 0.5e-9 / m) / budget), k, other)
    with pytest.raises(ValueError, match="proxy"):
        check_hybrid(w_rf, w_bb * np.sqrt((other + 2e-9 / m) / budget), k, other)

    # off-block support is caught
    bad = w_rf.copy()
    bad[0, -1] = 1.0
    with pytest.raises(ValueError, match="support"):
        check_hybrid(bad, w_bb, k, budget)

    # an in-block entry off the unit circle is caught
    bad = w_rf.copy()
    bad[0, 0] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="unit modulus"):
        check_hybrid(bad, w_bb, k, budget)


def test_build_subspace_columns():
    """Block k holds the objects' intra-subarray steering vectors, then the
    paths' AoD steering vectors, bit for bit; everything off the blocks is 0."""
    cfg = harness.desk_config()
    g = build_geometry(cfg)
    paths = draw_paths(cfg, g, np.random.default_rng(3))
    responses = build_responses(g, cfg.scene_objects)
    u = build_subspace(g, paths, responses)
    k, m = cfg.k_subarrays, cfg.m_antennas
    n_obj = len(responses)
    cols = n_obj + len(paths)
    assert u.shape == (k * m, k * cols)
    for i in range(k):
        block = u[i * m : (i + 1) * m, i * cols : (i + 1) * cols]
        for q, resp in enumerate(responses):
            assert np.array_equal(block[:, q], resp.a_t_blocks[i])
        for p, path in enumerate(paths):
            expected = steering_vector(m, path.aod[i], g.d, g.wavelength)
            assert np.array_equal(block[:, n_obj + p], expected)
    in_block = np.kron(np.eye(k, dtype=bool), np.ones((m, cols), dtype=bool))
    assert np.all(u[~in_block] == 0.0)
