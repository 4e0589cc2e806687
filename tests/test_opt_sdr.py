import dataclasses

import numpy as np
import pytest

from modisac import harness
from modisac.beamform import verify_covariance_subspace
from modisac.opt_sdr import (
    MaxDetProblem,
    RandomizationFailure,
    SdrConfig,
    fdb_upper_bound,
    make_fullspace_problem,
    randomize_rank,
    sdr_rrs,
    solve_maxdet,
    _candidate_se_bits,
    _initial_point,
    _newton_direction,
)
from oracles import channel_gains, waterfilling_se_bits


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
    return small_data, small_data.sdr_problem()


def test_waterfilling_two_channel_oracle():
    # singular values {2, 1}: waterfilling over gains {4, 1} at unit budget
    h = np.diag([2.0, 1.0]).astype(complex)
    problem = no_sensing_problem(h, 1.0, 1.0, 2)
    sol = solve_maxdet(problem, tol=1e-9)
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


def test_solution_invariants(small_problem):
    _, problem = small_problem
    sol = solve_maxdet(problem)
    assert sol.status == "optimal"
    r = sol.r_bb
    assert np.linalg.eigvalsh(r)[0] >= -1e-8 * np.real(np.trace(r))
    assert np.real(np.trace(r)) <= problem.power_budget + 1e-8
    assert np.real(np.sum(r * problem.psi.T)) >= problem.gamma0 - 1e-8
    assert sol.kkt_residual < 0.1


def test_budget_monotonicity(rng):
    for _ in range(20):
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        base = no_sensing_problem(h, 1.0, 0.5, 3)
        lo = solve_maxdet(base).objective_bits
        hi = solve_maxdet(dataclasses.replace(base, power_budget=1.0)).objective_bits
        assert hi >= lo - 1e-6


def test_randomization_rank_recovery(small_problem):
    _, problem = small_problem
    sol = solve_maxdet(problem, tol=1e-10)
    w = randomize_rank(sol, problem, np.random.default_rng(0))
    assert w.shape == (problem.dim, problem.n_streams)
    # identity sketch reproduces an (effectively) rank-n_streams optimum
    assert abs(_candidate_se_bits(w, problem) - sol.objective_bits) < 1e-6


def test_randomization_power_equality(small_problem, rng):
    _, problem = small_problem
    sol = solve_maxdet(problem)
    for seed in range(3):
        w = randomize_rank(sol, problem, np.random.default_rng(seed))
        power = float(np.linalg.norm(w) ** 2)
        assert power == pytest.approx(problem.power_budget, abs=1e-9)


def test_randomization_never_beats_relaxation(small_problem):
    _, problem = small_problem
    sol = solve_maxdet(problem, tol=1e-10)
    rng = np.random.default_rng(42)
    for _ in range(5):
        w = randomize_rank(sol, problem, rng, trials=20)
        assert _candidate_se_bits(w, problem) <= sol.objective_bits + 1e-9


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
    problem = dataclasses.replace(small_data.sdr_problem(), gamma0=0.0)
    result = sdr_rrs(problem, None, np.random.default_rng(0))
    assert result.status == "ok"
    bound = solve_maxdet(problem).objective_bits
    assert result.se_bits >= 0.98 * bound


def test_sdr_rrs_deterministic(small_problem):
    _, problem = small_problem
    r1 = sdr_rrs(problem, None, np.random.default_rng(11))
    r2 = sdr_rrs(problem, None, np.random.default_rng(11))
    assert np.array_equal(r1.w_bb, r2.w_bb)
    assert r1.se_bits == r2.se_bits


def test_sdr_rrs_reports_scnr(small_problem):
    data, problem = small_problem
    result = sdr_rrs(problem, None, np.random.default_rng(0))
    assert result.scnr >= data.config.scnr_min - 1e-6


def test_fdb_upper_bounds_sdr(small_problem):
    _, problem = small_problem
    fdb = fdb_upper_bound(problem)
    result = sdr_rrs(problem, None, np.random.default_rng(0))
    # slack covers the solver gap: both sides are solved to tol=1e-7
    assert fdb >= result.se_bits - 1e-6


def test_fdb_no_sensing_equals_waterfilling(small_data):
    problem = dataclasses.replace(small_data.sdr_problem(), gamma0=0.0)
    fdb = fdb_upper_bound(problem, tol=1e-9)
    expected = waterfilling_se_bits(
        channel_gains(problem.h_eff, problem.sigma_c_sq), problem.power_budget
    )
    assert fdb == pytest.approx(expected, abs=1e-3)


def test_fullspace_matches_reduced(small_data):
    # the covariance optimum over the full antenna space lands in the
    # subarray-response subspace; the reduced solve with the exact power
    # weighting reproduces it
    data = small_data
    cfg = data.config
    full = make_fullspace_problem(
        data.comm.h,
        data.responses,
        data.alphas,
        cfg.scnr_min,
        data.w_fixed.w,
        cfg.sigma_c_sq,
        cfg.sigma_s_sq,
        data.n_streams,
    )
    reduced = data.sdr_problem(exact_power=True)
    sol_full = solve_maxdet(full, tol=1e-9)
    sol_red = solve_maxdet(reduced, tol=1e-9)
    assert sol_full.status == "optimal" and sol_red.status == "optimal"
    assert abs(sol_full.objective_bits - sol_red.objective_bits) < 1e-4
    assert verify_covariance_subspace(sol_full.r_bb, data.basis) < 1e-6


@pytest.fixture(scope="module")
def full_data():
    """Full-scale default scenario (K=6, N_RF=42), seed 0."""
    return harness.prepare_scenario(harness.config_from_dict({"seed": 0}))


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


def dense_newton(r, t, problem, weight):
    """Newton direction and slope from the dense n^2 x n^2 real Hessian.

    The system is written in the eigenbasis W of the rate term's Hessian
    factor M and solved after symmetric diagonal (Jacobi) scaling. There
    t M (x) M is nearly diagonal, so the scaled system keeps its digits at
    large t, where the unscaled one loses about log10(t |M|^2) of them.
    """
    n = problem.dim
    h = problem.h_eff
    a = np.eye(h.shape[0]) + h @ r @ h.conj().T / problem.sigma_c_sq
    m = h.conj().T @ np.linalg.solve(a, h) / problem.sigma_c_sq
    r_inv = np.linalg.inv(r)
    p_slack = problem.power_budget - np.real(np.trace(r @ weight))
    grad = -t * m - r_inv + weight / p_slack
    rank_one = [weight / p_slack]
    if problem.sensing_active:
        s_slack = np.real(np.trace(r @ problem.psi)) - problem.gamma0
        grad = grad - problem.psi / s_slack
        rank_one.append(problem.psi / s_slack)
    w = np.linalg.eigh(m)[1]
    m, r_inv, grad, *rank_one = (w.conj().T @ x @ w for x in (m, r_inv, grad, *rank_one))

    basis = hermitian_basis(n)
    assert np.array_equal(hermitian_coords(basis), np.eye(n * n))
    hess = t * hermitian_coords(m @ basis @ m) + hermitian_coords(r_inv @ basis @ r_inv)
    for x in rank_one:
        u = hermitian_coords(x)
        hess += np.outer(u, u)
    g = hermitian_coords(grad)
    scale = 1.0 / np.sqrt(np.diag(hess))
    direction = -scale * np.linalg.solve(hess * np.outer(scale, scale), scale * g)
    delta = w @ np.tensordot(direction, basis, axes=1) @ w.conj().T
    return delta, float(g @ direction)


@pytest.mark.parametrize("t", [1.0, 1e6])
@pytest.mark.parametrize("exact_power", [False, True], ids=["identity", "gram"])
@pytest.mark.parametrize("sensing", [False, True], ids=["no_sensing", "sensing"])
@pytest.mark.parametrize("scale", ["small_data", "full_data"])
def test_newton_direction_matches_dense(request, scale, sensing, exact_power, t):
    problem = request.getfixturevalue(scale).sdr_problem(exact_power=exact_power)
    if not sensing:
        problem = dataclasses.replace(problem, gamma0=0.0)
    weight = problem.weight()
    # strictly feasible and anisotropic: midpoint of the start and a rough optimum
    r = 0.5 * (_initial_point(problem, weight) + solve_maxdet(problem, tol=1e-3).r_bb)
    delta, slope = _newton_direction(r, t, problem, weight)
    ref_delta, ref_slope = dense_newton(r, t, problem, weight)
    assert np.linalg.norm(delta - ref_delta) <= 1e-9 * np.linalg.norm(ref_delta)
    assert slope == pytest.approx(ref_slope, rel=1e-9)
