import dataclasses

import numpy as np
import pytest

from modisac import harness, opt_sdr
from modisac.beamform import _rate_bits, echo_weights, scnr, verify_covariance_subspace
from modisac.channel import numerical_rank
from modisac.opt_sdr import (
    RANK_TOL,
    TRIALS_PER_STREAM,
    MaxDetProblem,
    RandomizationFailure,
    make_maxdet_problem,
    randomize_rank,
    sdr_rrs,
    solve_maxdet,
    _dual_point,
    _slacks,
)
from modisac.validation import central_differences
from oracles import channel_gains, exact_power_problems, waterfilling_se_bits


def no_sensing_problem(h_eff, sigma_c_sq, budget, n_streams):
    n = h_eff.shape[1]
    return MaxDetProblem(
        h_eff=h_eff,
        sigma_c_sq=sigma_c_sq,
        power_budget=budget,
        psi=np.zeros((n, n), dtype=complex),
        gamma0=0.0,
        n_streams=n_streams,
    )


@pytest.fixture(scope="module")
def small_problem(small_data):
    return small_data, small_data.problem


def test_waterfilling_two_channel_oracle():
    # singular values {2, 1}: waterfilling over gains {4, 1} at unit budget
    h = np.diag([2.0, 1.0]).astype(complex)
    problem = no_sensing_problem(h, 1.0, 1.0, 2)
    sol = solve_maxdet(problem)
    assert sol.status == "optimal"
    expected = waterfilling_se_bits([4.0, 1.0], 1.0)
    assert expected == pytest.approx(2.3399, abs=1e-3)  # frozen from the oracle
    assert sol.objective_bits == pytest.approx(expected, abs=1e-3)


def test_zero_budget_without_sensing():
    h = np.eye(2, dtype=complex)
    sol = solve_maxdet(no_sensing_problem(h, 1.0, 0.0, 2))
    assert sol.status == "optimal"
    assert sol.objective_bits == 0.0
    assert np.all(sol.r_bb == 0.0)


def test_zero_budget_with_sensing_infeasible(small_problem):
    _, problem = small_problem
    sol = solve_maxdet(dataclasses.replace(problem, power_budget=0.0))
    assert sol.status == "infeasible"


def test_unreachable_threshold_infeasible(small_problem):
    _, problem = small_problem
    lam_max = float(np.linalg.eigvalsh(problem.psi)[-1])
    bound = problem.power_budget * lam_max
    sol = solve_maxdet(dataclasses.replace(problem, gamma0=2.0 * bound))
    assert sol.status == "infeasible"
    assert "lambda_max" in sol.message


def test_solution_invariants(assert_check):
    assert_check("sdp_invariants")


def test_budget_monotonicity(rng):
    for _ in range(20):
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        base = no_sensing_problem(h, 1.0, 0.5, 3)
        lo = solve_maxdet(base).objective_bits
        hi = solve_maxdet(dataclasses.replace(base, power_budget=1.0)).objective_bits
        assert hi >= lo - 1e-6


def test_randomization_rank_recovery(small_problem):
    _, problem = small_problem
    sol = solve_maxdet(problem)
    w = randomize_rank(sol, problem, np.random.default_rng(0))
    assert w.shape == (problem.dim, problem.n_streams)
    # identity sketch reproduces an (effectively) rank-n_streams optimum
    assert abs(_rate_bits(problem.h_eff @ w, problem.sigma_c_sq) - sol.objective_bits) < 1e-6


def test_randomization_power_equality(small_problem, rng):
    _, problem = small_problem
    sol = solve_maxdet(problem)
    for seed in range(3):
        w = randomize_rank(sol, problem, np.random.default_rng(seed))
        power = float(np.linalg.norm(w) ** 2)
        assert power == pytest.approx(problem.power_budget, abs=1e-9)


def test_randomization_never_beats_relaxation(small_problem):
    _, problem = small_problem
    sol = solve_maxdet(problem)
    rng = np.random.default_rng(42)
    for _ in range(5):
        w = randomize_rank(sol, problem, rng, trials=20)
        assert _rate_bits(problem.h_eff @ w, problem.sigma_c_sq) <= sol.objective_bits + 1e-9


def test_randomization_deterministic(small_problem):
    _, problem = small_problem
    sol = solve_maxdet(problem)
    w1 = randomize_rank(sol, problem, np.random.default_rng(9))
    w2 = randomize_rank(sol, problem, np.random.default_rng(9))
    assert np.array_equal(w1, w2)


def test_randomization_failure_raised(small_problem):
    _, problem = small_problem
    sol = solve_maxdet(problem)
    achieved = float(np.real(np.sum(sol.r_bb * problem.psi.T)))
    rigged = dataclasses.replace(problem, gamma0=achieved * 1.5)
    with pytest.raises(RandomizationFailure):
        randomize_rank(sol, rigged, np.random.default_rng(0), trials=5)


def test_sdr_rrs_close_to_relaxation_no_sensing(small_data):
    problem = dataclasses.replace(small_data.problem, gamma0=0.0)
    result = sdr_rrs(problem, np.random.default_rng(0))
    assert result.status == "optimal"
    bound = solve_maxdet(problem).objective_bits
    assert result.se_bits >= 0.98 * bound


@pytest.mark.parametrize(
    "seed, streams, row",
    [
        # the retry's 100 n_s sketches find a beamformer
        (2, 2, "sdr_rrs,2,4,8,64,4,2,2,2,16,uniform,40,15,60,1e-06,1e-05,"
               "26.2118921,60.0604427,2.11314101,2,7,ok"),
        # they miss too: no beamformer
        (0, 1, "sdr_rrs,0,4,8,64,4,2,2,1,16,uniform,40,15,60,1e-06,1e-05,"
               "nan,nan,nan,nan,0,randomization_failed"),
    ],
    ids=["retry_succeeds", "retry_fails"],
)
def test_sdr_rrs_retries_a_failed_randomization(seed, streams, row):
    cfg = harness.desk_config(seed=seed, scnr_threshold_db=60.0, streams=streams)
    problem = harness.prepare_scenario(cfg).problem
    # no sketch of the first round, drawn as run_scenario draws it, meets
    # the sensing constraint
    rng = np.random.default_rng(harness.derive_seed(seed, 2))
    with pytest.raises(RandomizationFailure):
        randomize_rank(solve_maxdet(problem), problem, rng, trials=TRIALS_PER_STREAM * streams)
    assert harness.run_scenario(cfg, "sdr_rrs").to_csv().rsplit(",", 1)[0] == row


def test_sdr_rrs_deterministic(small_problem):
    _, problem = small_problem
    r1 = sdr_rrs(problem, np.random.default_rng(11))
    r2 = sdr_rrs(problem, np.random.default_rng(11))
    assert np.array_equal(r1.w_bb, r2.w_bb)
    assert r1.se_bits == r2.se_bits


def test_sdr_rrs_meets_scnr_threshold(small_problem):
    data, problem = small_problem
    result = sdr_rrs(problem, np.random.default_rng(0))
    weights = echo_weights(data.responses, data.u_tilde @ result.w_bb)
    achieved = scnr(data.w_fixed, data.responses, weights, data.config.sigma_s_sq)
    assert achieved >= data.config.scnr_min - 1e-6


def test_fdb_upper_bounds_sdr(small_problem):
    _, problem = small_problem
    solution = solve_maxdet(problem)
    assert solution.status == "optimal"
    fdb = solution.dual_bits
    result = sdr_rrs(problem, np.random.default_rng(0))
    # slack covers the solver gap: both sides are solved to tol=1e-10 nats
    assert fdb >= result.se_bits - 1e-6


def test_fdb_no_sensing_equals_waterfilling(small_data):
    problem = dataclasses.replace(small_data.problem, gamma0=0.0)
    solution = solve_maxdet(problem)
    assert solution.status == "optimal"
    fdb = solution.dual_bits
    expected = waterfilling_se_bits(
        channel_gains(problem.h_eff, problem.sigma_c_sq), problem.power_budget
    )
    assert fdb == pytest.approx(expected, abs=1e-3)


@pytest.mark.parametrize("receive", ["fixed", "matched"])
def test_identity_basis_problem_matches_explicit_sensing_form(desk_data, receive):
    # the full-space problem is the builder at B = I_N, M = 1: its Psi is
    # sum_q +-alpha_q^2 |w^H g_rq|^2 g_tq g_tq^H (+ for the target, -scnr_min
    # for clutter), and U~^H Psi U~ is the reduced Psi at the same filter; the
    # matched filter g_r0 couples the clutter, which the fixed filter nulls
    data, cfg = desk_data, desk_data.config
    w = data.w_fixed if receive == "fixed" else data.responses[0].g_r
    full = make_maxdet_problem(
        data.h, np.eye(cfg.n_antennas), data.responses, w, cfg.scnr_min,
        cfg.sigma_c_sq, cfg.sigma_s_sq, data.problem.n_streams, 1,
    )
    reduced = make_maxdet_problem(
        data.h, data.u_tilde, data.responses, w, cfg.scnr_min,
        cfg.sigma_c_sq, cfg.sigma_s_sq, data.problem.n_streams, cfg.m_antennas,
    )
    explicit = sum(
        (1.0 if q == 0 else -cfg.scnr_min) * o.alpha**2 * abs(np.vdot(w, r.g_r)) ** 2
        * np.outer(r.g_t, r.g_t.conj())
        for q, (o, r) in enumerate(zip(cfg.scene_objects, data.responses))
    )
    assert np.linalg.norm(full.psi - explicit) <= 1e-12 * np.linalg.norm(explicit)
    projected = data.u_tilde.conj().T @ full.psi @ data.u_tilde
    assert np.linalg.norm(projected - reduced.psi) <= 1e-12 * np.linalg.norm(reduced.psi)
    assert full.power_budget == data.problem.n_streams
    assert full.gamma0 == reduced.gamma0
    assert full.gamma0 == pytest.approx(cfg.scnr_min * cfg.sigma_s_sq * np.vdot(w, w).real, rel=1e-12)
    assert np.array_equal(full.h_eff, data.h)


def test_default_stream_count_is_channel_rank_on_identity_basis(desk_data):
    # with no configured count, the full-space problem (B = I_N, M = 1) takes
    # the numerical rank of H itself at RANK_TOL, under the budget n_s
    data, cfg = desk_data, desk_data.config
    full = make_maxdet_problem(
        data.h, np.eye(cfg.n_antennas), data.responses, data.w_fixed, cfg.scnr_min,
        cfg.sigma_c_sq, cfg.sigma_s_sq, None, 1,
    )
    assert full.n_streams == numerical_rank(data.h, RANK_TOL)
    assert full.power_budget == full.n_streams


def test_fullspace_matches_reduced(small_data):
    # the covariance optimum over the full antenna space lands in the
    # subarray-response subspace; the same problem restricted to that
    # subspace reproduces it
    full, reduced = exact_power_problems(small_data)
    sol_full = solve_maxdet(full)
    sol_red = solve_maxdet(reduced)
    assert sol_full.status == "optimal" and sol_red.status == "optimal"
    assert abs(sol_full.objective_bits - sol_red.objective_bits) < 1e-4
    assert verify_covariance_subspace(sol_full.r_bb, small_data.u_tilde) < 1e-6


def test_max_iter_solution_is_primal_feasible(monkeypatch):
    data = harness.prepare_scenario(harness.desk_config(seed=0, scnr_threshold_db=60.0))
    problem = data.problem
    monkeypatch.setattr(opt_sdr, "MAX_NEWTON_STEPS", 1)
    sol = solve_maxdet(problem)
    assert sol.status == "max_iter" and sol.newton_steps == 1
    assert sol.dual_bits - sol.objective_bits > 1e-6  # sensing binds: not converged
    p_slack, s_slack = _slacks(sol.r_bb, problem)
    assert abs(p_slack) <= 1e-9 * problem.power_budget
    assert s_slack >= 0.0
    result = sdr_rrs(problem, np.random.default_rng(0))
    assert result.status == "max_iter" and result.w_bb is not None
    assert result.se_bits <= sol.dual_bits


def desk_cells():
    """The desk sweep cells: 27 scenario seeds at 0 and 60 dB, seeded as
    `harness.sweep` seeds them (repetition 0)."""
    for seed in range(3):
        for slot in range(9):
            master = int(np.random.SeedSequence([seed, slot]).generate_state(1)[0])
            base = harness.desk_config(seed=master)
            for threshold_db in (0.0, 60.0):
                cfg = harness.apply_axis(base, "scnr_threshold", threshold_db)
                yield dataclasses.replace(cfg, seed=harness.derive_seed(master, 0))


def test_certificate_on_desk_cells():
    for cfg in desk_cells():
        problem = harness.prepare_scenario(cfg).problem
        sol = solve_maxdet(problem)
        assert sol.status == "optimal"
        assert abs(sol.dual_bits - sol.objective_bits) <= 1e-9
        p_slack, s_slack = _slacks(sol.r_bb, problem)
        assert abs(p_slack) <= 1e-9 * problem.power_budget
        assert s_slack >= 0.0
        vals = np.linalg.eigvalsh(sol.r_bb)
        rank = int(np.sum(vals > 1e-9 * vals[-1]))
        assert rank <= np.linalg.matrix_rank(problem.h_eff)


@pytest.fixture(scope="module")
def full_data():
    """Full-scale default scenario (K=6, N_RF=42), seed 0."""
    return harness.prepare_scenario(harness.config_from_dict({"seed": 0}))


def power_problem(data, power):
    """The proxy problem ("identity", tr(R_BB) <= n_streams/M) or the exact
    transmit-power problem over col(U~) in whitened coordinates ("exact")."""
    return data.problem if power == "identity" else exact_power_problems(data)[1]


def off_optimum_multipliers(problem):
    """Multipliers away from the optimum: two eigenchannels active and, with
    sensing, nu halfway to the edge of the domain A = mu I - nu Psi > 0."""
    channel = problem.h_eff / np.sqrt(problem.sigma_c_sq)
    kappa = np.linalg.svd(channel, compute_uv=False) ** 2
    theta = np.array([np.sqrt(kappa[1] * kappa[2])])
    if problem.sensing_active:
        lam = np.linalg.eigvalsh(problem.psi)[-1]
        theta = np.append(theta, 0.5 * theta[0] / lam)
    return theta


@pytest.mark.parametrize("power", ["identity", "exact"])
@pytest.mark.parametrize("sensing", [False, True], ids=["no_sensing", "sensing"])
@pytest.mark.parametrize("scale", ["small_data", "full_data"])
def test_dual_gradient_is_constraint_residuals(request, scale, sensing, power):
    problem = power_problem(request.getfixturevalue(scale), power)
    if not sensing:
        problem = dataclasses.replace(problem, gamma0=0.0)
    forms, offsets = problem.constraints
    channel = problem.h_eff / np.sqrt(problem.sigma_c_sq)
    theta = off_optimum_multipliers(problem)
    point = _dual_point(theta, forms, offsets, channel)
    assert point.grad == pytest.approx(_slacks(point.r, problem), rel=1e-9)

    # central differences in relative coordinates theta * z, z near 1
    def value(z):
        return _dual_point(theta * z, forms, offsets, channel).value

    def grad(z):
        return _dual_point(theta * z, forms, offsets, channel).grad

    ones = np.ones_like(theta)
    grad_z = theta * point.grad
    hess_z = theta[:, None] * point.hess * theta[None, :]
    num_grad = central_differences(value, ones, h=1e-5)
    assert np.linalg.norm(num_grad - grad_z) <= 1e-9 * np.linalg.norm(grad_z)
    num_hess = np.stack(
        [central_differences(lambda z, i=i: grad(z)[i], ones, h=1e-4) for i in range(theta.size)]
    ) * theta[:, None]
    assert np.linalg.norm(num_hess - hess_z) <= 1e-5 * np.linalg.norm(hess_z)


def hermitian_basis(n):
    """Orthonormal basis of Hermitian n x n matrices under Re tr(X^H Y).

    Ordered as the n diagonal units, then the real and the imaginary
    off-diagonal pairs of the upper triangle in row-major order.
    """
    iu, ju = np.triu_indices(n, 1)
    re = n + np.arange(len(iu))
    im = re + len(iu)
    s = 1.0 / np.sqrt(2.0)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[re, iu, ju] = basis[re, ju, iu] = s
    basis[im, iu, ju] = 1j * s
    basis[im, ju, iu] = -1j * s
    return basis


def hermitian_coords(x):
    """Coordinates of Hermitian matrices (..., n, n) in hermitian_basis."""
    iu, ju = np.triu_indices(x.shape[-1], 1)
    upper = np.sqrt(2.0) * x[..., iu, ju]
    diag = np.real(np.diagonal(x, axis1=-2, axis2=-1))
    return np.concatenate([diag, upper.real, upper.imag], axis=-1)


def dense_newton(theta, forms, offsets, channel):
    """Dual Newton direction and slope from the dense n^2 x n^2 Jacobian.

    The Lagrangian maximizer R(A) = W diag((1 - 1/kappa)^+) W^H moves with A
    as dR = -W (Gamma o W^H dA W) W^H (Daleckii-Krein). Here that map is
    assembled column by column on hermitian_basis into a dense real matrix
    J, and the dual Hessian is -D J D^T with D the coordinates of the
    constraint forms; the gradient is the residuals b - D r.
    """
    a = np.tensordot(theta, forms, axes=1)
    w = np.linalg.inv(np.linalg.cholesky(a)).conj().T
    _, sv, vh = np.linalg.svd(channel @ w)
    w = w @ vh.conj().T
    kappa = np.zeros(len(w))
    kappa[: sv.size] = sv**2
    excess = np.maximum(kappa - 1.0, 0.0)
    r = (w * (excess / np.maximum(kappa, 1.0))) @ w.conj().T
    # divided differences of (kappa - 1)^+, its derivative on the diagonal
    den = kappa[:, None] - kappa[None, :]
    deriv = np.broadcast_to((kappa > 1.0)[:, None], den.shape).astype(float)
    gamma = np.divide(excess[:, None] - excess[None, :], den, out=deriv, where=den != 0.0)

    basis = hermitian_basis(len(w))
    jac = hermitian_coords(-w @ (gamma * (w.conj().T @ basis @ w)) @ w.conj().T).T
    d = hermitian_coords(forms)
    hess = -d @ jac @ d.T
    grad = offsets - d @ hermitian_coords(r)
    direction = -np.linalg.solve(hess, grad)
    return direction, float(grad @ direction)


@pytest.mark.parametrize("gain", [1.0, 1e6])
@pytest.mark.parametrize("power", ["identity", "exact"])
@pytest.mark.parametrize("sensing", [False, True], ids=["no_sensing", "sensing"])
@pytest.mark.parametrize("scale", ["small_data", "full_data"])
def test_newton_direction_matches_dense(request, scale, sensing, power, gain):
    # gain raises the SNR at fixed multipliers: at 1 two eigenchannels are
    # active, at 1e6 (60 dB) every eigenchannel of H_eff is
    problem = power_problem(request.getfixturevalue(scale), power)
    if not sensing:
        problem = dataclasses.replace(problem, gamma0=0.0)
    theta = off_optimum_multipliers(problem)
    forms, offsets = problem.constraints
    channel = np.sqrt(gain / problem.sigma_c_sq) * problem.h_eff
    point = _dual_point(theta, forms, offsets, channel)
    delta = -np.linalg.pinv(point.hess) @ point.grad  # as in _newton_step
    slope = float(point.grad @ delta)
    ref_delta, ref_slope = dense_newton(theta, forms, offsets, channel)
    assert slope < 0.0
    assert np.linalg.norm(delta - ref_delta) <= 1e-9 * np.linalg.norm(ref_delta)
    assert slope == pytest.approx(ref_slope, rel=1e-9)
