import dataclasses

import numpy as np
import pytest

from modisac import harness, opt_manifold
from modisac.beamform import optimal_analog, spectral_efficiency
from modisac.opt_manifold import (
    EigB,
    InfeasiblePointError,
    InfeasibleProblemError,
    ManifoldConfig,
    ManifoldState,
    RankDeficiencyError,
    assemble_wbb,
    barrier_value,
    grad_b,
    grad_v,
    phase1_feasible,
    reduce_b,
    rm_jgd,
    stiefel_retract,
    tangent_project,
)
from modisac.opt_sdr import MaxDetProblem
from modisac.validation import central_differences, gradient_error, probe_state
from oracles import restricted_optimum_bits, rm_jgd_reference, waterfilling_se_bits


def fake_problem(h: np.ndarray, budget: float) -> MaxDetProblem:
    """Problem whose effective channel is h, so the rate form is set directly;
    unit noise, no sensing form."""
    n = h.shape[1]
    return MaxDetProblem(
        h_eff=h,
        sigma_c_sq=1.0,
        power_budget=budget,
        psi=np.zeros((n, n), dtype=complex),
        gamma0=0.0,
        n_streams=n,
    )


def synthetic_eig(eigenvalues, budget: float) -> EigB:
    """EigB for a diagonal rate form with the given positive eigenvalues."""
    h = np.diag(np.sqrt(np.asarray(eigenvalues, dtype=float))).astype(complex)
    return reduce_b(fake_problem(h, budget))


def no_sensing(eig: EigB) -> EigB:
    return dataclasses.replace(eig, gamma0=0.0)


def random_feasible_state(eig, cfg, rng, scale=0.15) -> ManifoldState:
    """Random rotation + gain jitter around the constructed feasible point.

    Accepts only points with comfortable constraint slacks so that the
    barrier is locally smooth (finite-difference probes stay accurate).
    """
    from modisac.opt_manifold import _slacks

    base = phase1_feasible(eig)
    ns = eig.n_streams
    for _ in range(60):
        q1, _ = np.linalg.qr(
            np.eye(ns) + scale * (rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns)))
        )
        b = base.b * rng.uniform(0.5, 0.85, size=ns)
        state = ManifoldState(q=q1, b=b)
        power_slack, sens_slack, active = _slacks(state, eig)
        healthy = power_slack > 0.05 * eig.power_budget and (
            not active or sens_slack > 0.5 * eig.gamma0
        )
        if healthy and np.isfinite(barrier_value(state, eig, cfg)):
            return state
        scale *= 0.8
    return base


@pytest.fixture(scope="module")
def desk_problem(desk_data):
    return desk_data, desk_data.reduced_eig()


def test_reduce_b_identity_case():
    eig = reduce_b(fake_problem(np.eye(4, dtype=complex), budget=4.0))
    assert np.allclose(eig.sigma_b, 1.0)
    assert np.allclose(eig.u_b.conj().T @ eig.u_b, np.eye(4), atol=1e-12)
    # power form U_B Sigma_B^{-1} U_B^H
    power_form = (eig.u_b / eig.sigma_b[None, :]) @ eig.u_b.conj().T
    assert np.allclose(power_form, np.eye(4), atol=1e-12)


def test_reduce_b_reconstruction(desk_problem):
    _, eig = desk_problem
    recon = (eig.u_b * eig.sigma_b[None, :]) @ eig.u_b.conj().T
    assert np.linalg.norm(eig.b_mat - recon) <= 1e-8 * np.linalg.norm(eig.b_mat)


def test_reduce_b_rank_error(desk_data):
    # n_rf streams: far above the channel rank
    problem = dataclasses.replace(desk_data.sdr_problem(), n_streams=desk_data.n_rf)
    with pytest.raises(RankDeficiencyError, match="rank"):
        reduce_b(problem)


def test_reduced_eig_shares_budget_and_threshold(desk_problem):
    data, eig = desk_problem
    problem = data.sdr_problem()
    assert problem.gamma0 > 0.0
    assert (eig.power_budget, eig.gamma0) == (problem.power_budget, problem.gamma0)


def test_phi_tilde_hermitian_and_quadratic_identity(desk_problem, rng):
    data, eig = desk_problem
    assert np.max(np.abs(eig.phi_q - eig.phi_q.conj().T)) < 1e-12
    psi = data.sdr_problem().psi
    cfg = ManifoldConfig()
    state = random_feasible_state(eig, cfg, rng)
    w = assemble_wbb(eig, state)
    cols = state.q * state.b[None, :]
    lhs = float(np.real(np.sum(cols.conj() * (eig.phi_q @ cols))))
    rhs = float(np.real(np.sum(w.conj() * (psi @ w))))
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


def test_assemble_zero_gains(desk_problem):
    _, eig = desk_problem
    state = ManifoldState(
        q=np.eye(eig.n_streams, dtype=complex),
        b=np.zeros(eig.n_streams),
    )
    assert np.all(assemble_wbb(eig, state) == 0.0)


def test_assemble_diagonal_case():
    eig = synthetic_eig([1.0, 1.0, 1.0], budget=1.0)
    b = np.array([0.5, 0.2, 0.1])
    # V~ = I in the full factorization is Q = U_B^H
    state = ManifoldState(q=eig.u_b.conj().T, b=b)
    w = assemble_wbb(eig, state)
    assert np.allclose(w, np.diag(b), atol=1e-12)


def test_wbb_diagonalizes_rate_form(assert_check):
    assert_check("wbb_diagonalizes")


def test_barrier_infeasible_is_infinite(desk_problem):
    _, eig = desk_problem
    huge = ManifoldState(
        q=np.eye(eig.n_streams, dtype=complex),
        b=np.full(eig.n_streams, 1e6),
    )
    assert barrier_value(huge, eig, ManifoldConfig()) == np.inf


def test_barrier_t_scaling(desk_problem, rng):
    _, eig = desk_problem
    cfg10 = ManifoldConfig(barrier_t=10.0)
    cfg100 = ManifoldConfig(barrier_t=100.0)
    state = random_feasible_state(eig, cfg10, rng)
    core = -float(np.sum(np.log1p(state.b**2)))
    part10 = barrier_value(state, eig, cfg10) - core
    part100 = barrier_value(state, eig, cfg100) - core
    assert part10 == pytest.approx(10.0 * part100, rel=1e-9)


def _barrier_from_wbb(eig, state, psi, gamma0, t):
    """Barrier written on W = U_B Sigma_B^{-1/2} Q diag(b) itself.

    -ln det(I + W^H B W) - ln(P - ||W||_F^2)/t - ln(tr(W^H Psi W) - gamma0)/t,
    the sensing term only when gamma0 > 0; +inf outside the strict interior.
    """
    w = assemble_wbb(eig, state)
    _, rate = np.linalg.slogdet(np.eye(w.shape[1]) + w.conj().T @ eig.b_mat @ w)
    power_slack = eig.power_budget - np.linalg.norm(w) ** 2
    sens_slack = np.real(np.trace(w.conj().T @ psi @ w)) - gamma0
    if power_slack <= 0 or (gamma0 > 0 and sens_slack <= 0):
        return np.inf
    val = -rate - np.log(power_slack) / t
    if gamma0 > 0:
        val -= np.log(sens_slack) / t
    return float(val)


@pytest.mark.parametrize("sensing", [True, False], ids=["sensing", "no_sensing"])
def test_with_gains_trial_scores_like_fresh_state(desk_problem, rng, sensing):
    """A `with_gains` trial scores bit for bit like a fresh (Q, b) state.

    The b-search scores every trial at the accepted Q through Q's quadratic
    terms, taken once and shared by `with_gains`, so each trial must equal
    barrier_value at a fresh state that computes them anew, inf included.
    Both are also checked against the barrier written on W_BB directly
    (measured worst 6e-15 relative), which no shared term can mask.
    """
    data, eig = desk_problem
    psi = data.sdr_problem().psi
    if not sensing:
        eig = no_sensing(eig)
    cfg = ManifoldConfig()
    ns = eig.n_streams
    finite = infinite = 0
    for k in range(12):
        base = random_feasible_state(eig, cfg, rng)
        q = base.q
        if k % 2:
            q, _ = np.linalg.qr(
                rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns))
            )
        anchor = ManifoldState(q, base.b)
        barrier_value(anchor, eig, cfg)  # takes Q's terms once
        direction = base.b * rng.standard_normal(ns)
        for step in (0.0, 0.1, 0.5, 2.0, 10.0):
            state = anchor.with_gains(base.b + step * direction)
            value = barrier_value(state, eig, cfg)
            assert state._terms is anchor._terms
            assert value == barrier_value(ManifoldState(q, state.b), eig, cfg)
            reference = _barrier_from_wbb(eig, state, psi, eig.gamma0, cfg.barrier_t)
            if np.isinf(reference):
                assert value == np.inf
                infinite += 1
            else:
                assert value == pytest.approx(reference, rel=1e-12)
                finite += 1
    assert finite >= 10 and infinite >= 10


def test_barrier_decreases_along_gain_growth():
    eig = synthetic_eig([2.0, 1.0], budget=1.0)
    cfg = ManifoldConfig()
    vals = []
    for scale in (0.1, 0.2, 0.3):
        state = ManifoldState(
            q=eig.u_b.conj().T, b=np.array([scale, 0.05])
        )
        vals.append(barrier_value(state, eig, cfg))
    assert vals[0] > vals[1] > vals[2]


def test_grad_b_zero_at_origin(desk_problem):
    _, eig = desk_problem
    state = ManifoldState(
        q=np.eye(eig.n_streams, dtype=complex),
        b=np.zeros(eig.n_streams),
    )
    assert np.allclose(grad_b(state, no_sensing(eig), ManifoldConfig()), 0.0)


def test_grad_b_matches_finite_differences(desk_problem, rng):
    _, eig = desk_problem
    cfg = ManifoldConfig()
    for _ in range(5):
        state = probe_state(eig, rng)
        g = grad_b(state, eig, cfg)
        fd = central_differences(
            lambda b: barrier_value(ManifoldState(state.q, b), eig, cfg), state.b
        )
        assert np.linalg.norm(g - fd) < 1e-5 * max(np.linalg.norm(fd), 1e-8)


def test_grad_b_barrier_part_vanishes_at_large_t(desk_problem, rng):
    _, eig = desk_problem
    cfg_small = ManifoldConfig(barrier_t=1e2)
    state = probe_state(eig, rng)
    data_term = -2.0 * state.b / (1.0 + state.b**2)
    g_small = grad_b(state, eig, cfg_small)
    g_big = grad_b(state, eig, ManifoldConfig(barrier_t=1e6))
    assert np.linalg.norm(g_big - data_term) < 1e-4 * np.linalg.norm(
        g_small - data_term
    ) + 1e-12


def test_grad_v_zero_when_gains_zero(desk_problem):
    _, eig = desk_problem
    state = ManifoldState(
        q=np.eye(eig.n_streams, dtype=complex),
        b=np.zeros(eig.n_streams),
    )
    assert np.all(grad_v(state, no_sensing(eig), ManifoldConfig()) == 0.0)


def test_grad_v_matches_finite_differences(desk_problem, rng):
    _, eig = desk_problem
    state = probe_state(eig, rng)
    assert gradient_error(state, eig, ManifoldConfig(), rng) < 1e-5


def test_grad_at_infeasible_point_raises(desk_problem):
    _, eig = desk_problem
    assert eig.gamma0 > 0.0
    # gains of 1e6 overrun the power budget; zero gains miss the sensing threshold
    for gain in (1e6, 0.0):
        bad = ManifoldState(
            q=np.eye(eig.n_streams, dtype=complex),
            b=np.full(eig.n_streams, gain),
        )
        with pytest.raises(InfeasiblePointError):
            grad_b(bad, eig, ManifoldConfig())
        with pytest.raises(InfeasiblePointError):
            grad_v(bad, eig, ManifoldConfig())


def test_tangent_project_hermitian_gives_zero(rng):
    n = 6
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (h + h.conj().T)
    assert np.linalg.norm(tangent_project(q, q @ h)) < 1e-10


def test_tangent_project_skew_passthrough(rng):
    n = 5
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = 0.5 * (s - s.conj().T)
    assert np.allclose(tangent_project(q, q @ s), -q @ s, atol=1e-10)


def test_tangent_project_descent_and_tangency(assert_check):
    assert_check("tangent_retract")


def test_tangent_project_rejects_drifted_input(rng):
    n = 4
    bad = np.eye(n, dtype=complex) * 1.5
    with pytest.raises(ValueError, match="drift"):
        tangent_project(bad, np.eye(n, dtype=complex))


def test_retract_scaled_identity():
    assert np.allclose(stiefel_retract(2.0 * np.eye(3)), np.eye(3), atol=1e-12)


def test_retract_unitary_fixed_point(rng):
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    assert np.allclose(stiefel_retract(q), q, atol=1e-12)


def test_retract_minimizes_distance(rng):
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = stiefel_retract(z)
    best = np.linalg.norm(z - p)
    for _ in range(1000):
        q, _ = np.linalg.qr(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        assert best <= np.linalg.norm(z - q) + 1e-9
    # ||z - P||^2 = ||z||^2 + n - 2 Re tr(P^H z), and over unitary P the
    # largest Re tr(P^H z) is the nuclear norm of z, rank deficient or not
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for m in (z, np.zeros((4, 4), dtype=complex), np.outer(u, z[0])):
        p = stiefel_retract(m)
        assert np.linalg.norm(p.conj().T @ p - np.eye(4)) < 1e-10
        nuclear = np.linalg.svd(m, compute_uv=False).sum()
        assert abs(np.real(np.trace(p.conj().T @ m)) - nuclear) <= 1e-12 * nuclear


def test_retract_stack_matches_single(rng):
    """A stack retracts each matrix bit for bit as a single call would,
    a rank-deficient slice (a zero step matrix) included."""
    n = 5
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    xi = tangent_project(q, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    steps = np.array([4e-3, 2e-3, 1e-3, 1.0, 1e12])
    z = q + steps[:, None, None] * xi
    for stack in (z, np.concatenate([z, np.zeros((1, n, n))])):
        retracted = stiefel_retract(stack)
        assert retracted.shape == stack.shape
        for matrix, alone in zip(stack, retracted):
            assert np.array_equal(alone, stiefel_retract(matrix))


def _full_width_barrier(v, b, u_b, sigma_b, psi, budget, gamma0, t):
    """Barrier and Euclidean V-gradient of the n_rf x n_rf factorization at V.

    B~ = U_B Sigma_B^{-1} U_B^H and Phi~ = S Psi S with S = U_B Sigma_B^{-1/2}
    U_B^H are applied factor by factor in whatever precision the arguments
    carry. The gradient is linear in Sigma_B^{-1} U_B^H V, so a rounding
    error in U_B^H U_B = I is amplified by cond(Sigma_B), ~1e8 at desk scale.
    """
    ns = b.size
    cols = v[:, :ns]
    coeff = u_b.conj().T @ cols
    b_cols = u_b @ (coeff / sigma_b[:, None])
    s_cols = u_b @ (coeff / np.sqrt(sigma_b)[:, None])
    phi_cols = u_b @ ((u_b.conj().T @ (psi @ s_cols)) / np.sqrt(sigma_b)[:, None])
    diag_b = np.real(np.sum(cols.conj() * b_cols, axis=0))
    diag_phi = np.real(np.sum(s_cols.conj() * (psi @ s_cols), axis=0))
    power_slack = budget - b**2 @ diag_b
    sens_slack = b**2 @ diag_phi - gamma0
    grad = np.zeros_like(v)
    grad[:, :ns] = (2 / t) * (
        b_cols * b[None, :] ** 2 / power_slack
        - phi_cols * b[None, :] ** 2 / sens_slack
    )
    if power_slack <= 0 or sens_slack <= 0:
        return np.inf, grad
    val = -np.sum(np.log1p(b**2)) - (np.log(power_slack) + np.log(sens_slack)) / t
    return float(val), grad


def test_unitary_reduction_matches_full_width_step(desk_problem, rng):
    """One U(n_s) step embeds exactly into the n_rf x n_rf unitary step.

    The reference works on V = [U_B Q, N] in extended precision (80-bit
    long double): in double, the cond(Sigma_B) amplification described in
    _full_width_barrier leaves the full-width gradient itself off by ~2e-11.
    [U_B, N] is made orthonormal to extended precision by one Newton-Schulz
    step; the polar factor is well conditioned (singular values >= 1 along a
    tangent step) and is taken by SVD in double. The phase-1 start has a
    diagonal Q, along which the power term of the gradient is Hermitian and
    projects to zero, so a rotated start is checked as well. Steps of 1e-3
    and above leave the feasible region at these points; the 1e-9 and 1e-6
    steps are the ones that compare finite barrier values.
    """
    data, eig = desk_problem
    assert eig.gamma0 > 0.0
    psi = data.sdr_problem().psi
    cfg = ManifoldConfig()
    ns = eig.n_streams
    xp = np.clongdouble
    complete, _ = np.linalg.qr(eig.u_b, mode="complete")
    basis = np.concatenate([eig.u_b, complete[:, ns:]], axis=1).astype(xp)
    basis = basis @ (3 * np.eye(basis.shape[0]) - basis.conj().T @ basis) / 2
    u_b, null = basis[:, :ns], basis[:, ns:]
    starts = [
        phase1_feasible(eig),
        random_feasible_state(eig, cfg, rng),
    ]
    for state in starts:
        v = np.concatenate([u_b @ state.q.astype(xp), null], axis=1)

        def full(v_):
            return _full_width_barrier(
                v_.astype(xp), state.b.astype(np.longdouble), u_b,
                eig.sigma_b.astype(np.longdouble), psi.astype(xp),
                eig.power_budget, eig.gamma0, cfg.barrier_t,
            )

        f_ref, g_ref = full(v)
        a = v.conj().T @ g_ref
        xi_ref = -v @ (0.5 * (a - a.conj().T))
        xi = tangent_project(state.q, grad_v(state, eig, cfg))
        norm_ref = float(np.sqrt(np.sum(np.abs(xi_ref) ** 2)))
        assert np.linalg.norm(xi) == pytest.approx(norm_ref, rel=1e-12)
        f = barrier_value(state, eig, cfg)
        assert f == pytest.approx(f_ref, rel=1e-12)
        finite = 0
        for s in (1e-9, 1e-6, 1e-3, 1.0, 1e2):
            u, _, vh = np.linalg.svd((v + s * xi_ref).astype(complex))
            v_ref = u @ vh
            q_new = stiefel_retract(state.q + s * xi)
            embedded = np.concatenate([eig.u_b @ q_new, null.astype(complex)], axis=1)
            assert np.linalg.norm(embedded - v_ref) <= 1e-12 * np.linalg.norm(v_ref)
            f_new = barrier_value(ManifoldState(q_new, state.b), eig, cfg)
            f_ref_new, _ = full(v_ref)
            if np.isinf(f_ref_new):
                assert np.isinf(f_new)
            else:
                assert f_new == pytest.approx(f_ref_new, rel=1e-12)
                finite += 1
        assert finite >= 2


def test_phase1_no_sensing_immediate(desk_problem):
    _, eig = desk_problem
    eig = no_sensing(eig)
    cfg = ManifoldConfig()
    state = phase1_feasible(eig)
    assert np.isfinite(barrier_value(state, eig, cfg))


def test_phase1_huge_threshold_certificate(desk_problem):
    _, eig = desk_problem
    impossible = dataclasses.replace(eig, gamma0=1e12)
    with pytest.raises(InfeasibleProblemError) as err:
        phase1_feasible(impossible)
    assert err.value.bound < 1e12


def test_phase1_desk_scale_feasible(desk_problem):
    _, eig = desk_problem
    cfg = ManifoldConfig()
    state = phase1_feasible(eig)
    assert np.isfinite(barrier_value(state, eig, cfg))


# desk_sweep's 60 dB cells whose waterfilling start misses the sensing
# threshold: (seed, slot) of the benchmark's input slots
_BINDING_DESK_CELLS = ((0, 0), (0, 7), (1, 3), (1, 6), (2, 4))


@pytest.mark.parametrize("seed, slot", _BINDING_DESK_CELLS)
def test_phase1_binding_desk_cells_start_every_stream(seed, slot):
    # a zero gain stays zero under the descent (its gradients carry a factor
    # b_i), so a start with dead streams ended up to 14.7 bits short here
    # derive_seed(seed, slot) is the slot's base seed; repetition 0 derives again
    base_seed = harness.derive_seed(seed, slot)
    cfg = harness.desk_config(
        seed=harness.derive_seed(base_seed, 0), scnr_threshold_db=60.0
    )
    data = harness.prepare_scenario(cfg)
    eig, config = data.reduced_eig(), ManifoldConfig()
    start = phase1_feasible(eig)
    assert np.all(start.b > 0.0)
    assert np.isfinite(barrier_value(start, eig, config))
    result = rm_jgd(eig, config, start)
    se = spectral_efficiency(
        data.h, optimal_analog(data.basis), result.w_bb, cfg.sigma_c_sq
    )
    optimum = restricted_optimum_bits(eig, data.sdr_problem().psi)
    assert se <= optimum + 1e-6
    assert optimum - se < 3.0


def test_rmjgd_stationary_init_returns_immediately():
    eig = synthetic_eig([2.0, 1.0], budget=1.0)
    state = ManifoldState(q=eig.u_b.conj().T, b=np.zeros(2))
    result = rm_jgd(eig, ManifoldConfig(), state)
    assert result.iterations == 0
    assert result.status == "converged"


def test_rmjgd_infeasible_init_rejected(desk_problem):
    _, eig = desk_problem
    bad = ManifoldState(
        q=np.eye(eig.n_streams, dtype=complex),
        b=np.full(eig.n_streams, 1e6),
    )
    with pytest.raises(ValueError, match="infeasible"):
        rm_jgd(eig, ManifoldConfig(), bad)


def test_rmjgd_no_sensing_matches_waterfilling(rng):
    gains = np.array([4.0, 3.0, 2.0, 1.0])
    eig = synthetic_eig(gains, budget=1.0)
    cfg = ManifoldConfig(barrier_t=100.0)
    # start away from the solution: uniform small gains, rotated basis
    q, _ = np.linalg.qr(
        np.eye(4) + 0.2 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    )
    init = ManifoldState(q=eig.u_b.conj().T @ q, b=np.full(4, 0.2))
    assert np.isfinite(barrier_value(init, eig, cfg))
    result = rm_jgd(eig, cfg, init)
    form = result.w_bb.conj().T @ eig.b_mat @ result.w_bb
    se = float(np.linalg.slogdet(np.eye(4) + form)[1] / np.log(2.0))
    expected = waterfilling_se_bits(gains, 1.0)
    assert se >= 0.98 * expected
    assert se <= expected + 1e-6


def test_rmjgd_desk_scale_descent(assert_check):
    assert_check("rmjgd_descent")


def test_rmjgd_line_searches_start_from_last_accepted_step(desk_problem, monkeypatch):
    """Barrier evaluations per iteration stay few over the first 50 iterations.

    The barrier lets Q move by 1e-8..1e-6 per step at desk scale; searches
    that restarted from ARMIJO_INITIAL = 1 every iteration made ~30
    evaluations per iteration here, climbing down to that. Starting from 4x
    the last accepted step, a search whose step holds steady costs 3 trials
    (4s, 2s, s), so 6 per iteration, plus the first iteration's climb from
    ARMIJO_INITIAL: 6.5 here. Every trial, of Q and of b alike, is one
    barrier_value call.
    """
    _, eig = desk_problem
    cfg = ManifoldConfig(max_iterations=50)
    init = phase1_feasible(eig)
    barrier = opt_manifold.barrier_value
    evaluations = 0

    def counted(*args):
        nonlocal evaluations
        evaluations += 1
        return barrier(*args)

    monkeypatch.setattr(opt_manifold, "barrier_value", counted)
    result = rm_jgd(eig, cfg, init)
    assert result.iterations == 50
    assert evaluations / result.iterations <= 8.0


@pytest.mark.parametrize("threshold_db", [None, 60.0], ids=["desk_seed0", "binding_60db"])
def test_rmjgd_matches_sequential_reference(desk_problem, threshold_db):
    """rm_jgd's iterates equal, bit for bit, a search that tries one trial at a time.

    The descent retracts each Q-search's rungs in one stacked SVD and reads
    every state's quadratic terms from a cache, the b-trials' included; the
    oracle retracts each trial alone and computes every term afresh. A skipped or reordered rung,
    or a trial scored from stale terms, moves the accepted steps and so the
    iterates. The 60 dB cell is desk_sweep's slot (0, 0), where sensing binds.
    """
    if threshold_db is None:
        _, eig = desk_problem
    else:
        seed = harness.derive_seed(harness.derive_seed(0, 0), 0)
        data = harness.prepare_scenario(
            harness.desk_config(seed=seed, scnr_threshold_db=threshold_db)
        )
        eig = data.reduced_eig()
    cfg = ManifoldConfig(max_iterations=40)
    init = phase1_feasible(eig)
    result = rm_jgd(eig, cfg, init)
    q, b, trace, iterations, status = rm_jgd_reference(eig, cfg, init, 40)
    assert np.array_equal(result.state.q, q)
    assert np.array_equal(result.state.b, b)
    assert np.array_equal(result.trace, trace)
    assert (result.iterations, result.status) == (iterations, status) == (40, "max_iter")


def test_rmjgd_iterates_stay_unitary_and_feasible(desk_problem):
    _, eig = desk_problem
    # every accepted Q is a fresh polar factor; nothing re-retracts it
    cfg = ManifoldConfig()
    init = phase1_feasible(eig)
    result = rm_jgd(eig, cfg, init)
    q = result.state.q
    assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) < 1e-12
    assert np.isfinite(barrier_value(result.state, eig, cfg))


def test_rmjgd_final_power_and_scnr(desk_problem):
    from modisac.beamform import scnr_reduced, transmit_power
    from modisac.beamform import optimal_analog

    data, eig = desk_problem
    cfg = ManifoldConfig()
    init = phase1_feasible(eig)
    result = rm_jgd(eig, cfg, init)
    w_rf = optimal_analog(data.basis)
    _, proxy = transmit_power(w_rf, result.w_bb)
    assert proxy <= data.n_streams + 1e-9
    achieved = scnr_reduced(result.w_bb, data.phi_set, data.alphas)
    assert achieved >= data.config.scnr_min  # strict by barrier construction
