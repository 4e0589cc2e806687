import dataclasses

import numpy as np
import pytest

from modisac import harness, opt_manifold
from modisac.beamform import spectral_efficiency
from modisac.opt_manifold import (
    BARRIER_T,
    NEWTON_TOL,
    EigB,
    InfeasiblePointError,
    InfeasibleProblemError,
    ManifoldState,
    RankDeficiencyError,
    assemble_wbb,
    barrier_derivatives,
    barrier_value,
    grad_b,
    grad_v,
    newton_step,
    phase1_feasible,
    reduce_b,
    rm_jgd,
    stiefel_retract,
    tangent_project,
)
from modisac.channel import numerical_rank
from modisac.opt_sdr import RANK_TOL, MaxDetProblem, _dual_point
from modisac.validation import (
    central_differences,
    descent_converged,
    gradient_error,
    probe_state,
)
from oracles import (
    basis_contraction_derivatives,
    ninety_percent_split,
    restricted_optimum_bits,
    waterfilling_se_bits,
)


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
    return dataclasses.replace(eig, forms=eig.forms[:1], offsets=eig.offsets[:1])


def random_feasible_state(eig, t, rng, scale=0.15) -> ManifoldState:
    """Random rotation + gain jitter around the constructed feasible point.

    Accepts only points with comfortable constraint slacks so that the
    barrier is locally smooth (finite-difference probes stay accurate).
    """
    from modisac.opt_manifold import _slacks

    base = phase1_feasible(eig)
    ns = eig.n_streams
    # 5% of the budget and half the sensing floor left over
    margins = np.array([0.05, 0.5])[: eig.offsets.size] * np.abs(eig.offsets)
    for _ in range(60):
        q1, _ = np.linalg.qr(
            np.eye(ns) + scale * (rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns)))
        )
        b = base.b * rng.uniform(0.5, 0.85, size=ns)
        state = ManifoldState(q=q1, b=b)
        if np.all(_slacks(state, eig) > margins) and np.isfinite(barrier_value(state, eig, t)):
            return state
        scale *= 0.8
    return base


@pytest.fixture(scope="module")
def desk_problem(desk_data):
    return desk_data, reduce_b(desk_data.problem)


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
    problem = dataclasses.replace(desk_data.problem, n_streams=desk_data.problem.dim)
    with pytest.raises(RankDeficiencyError, match="rank"):
        reduce_b(problem)


def test_reduce_b_accepts_the_default_stream_count_and_no_more():
    # the most streams reduce_b accepts is the rank rule that sets the default
    for seed in range(3):
        h_eff = harness.prepare_scenario(harness.desk_config(seed=seed)).problem.h_eff
        rank = numerical_rank(h_eff, RANK_TOL)
        cfg = harness.desk_config(seed=seed, streams=rank)
        assert reduce_b(harness.prepare_scenario(cfg).problem).n_streams == rank
        cfg = harness.desk_config(seed=seed, streams=rank + 1)
        with pytest.raises(RankDeficiencyError, match="rank"):
            reduce_b(harness.prepare_scenario(cfg).problem)


def test_reduced_eig_shares_budget_and_threshold(desk_problem):
    """EigB carries the problem's constraint list, D = (I, -Psi) and
    b = (P, -gamma0), mapped through T = U_B Sigma_B^{-1/2}: the offsets as
    they are and forms[i] = T^H D_i T. At gamma0 = 0 the list is the budget's
    row alone."""
    data, _ = desk_problem
    assert data.problem.gamma0 > 0.0
    for problem in (data.problem, dataclasses.replace(data.problem, gamma0=0.0)):
        eig = reduce_b(problem)
        forms, offsets = problem.constraints
        # built once per problem and shared, so no caller may write to them
        assert problem.constraints is problem.constraints
        assert not forms.flags.writeable and not offsets.flags.writeable
        rows = 2 if problem.gamma0 > 0.0 else 1
        assert np.array_equal(forms, np.stack([np.eye(problem.dim), -problem.psi])[:rows])
        assert np.array_equal(offsets, [problem.power_budget, -problem.gamma0][:rows])
        assert np.array_equal(eig.offsets, offsets) and len(eig.forms) == rows
        t_map = eig.u_b / np.sqrt(eig.sigma_b)[None, :]
        for form, d in zip(eig.forms, forms):
            ref = t_map.conj().T @ d @ t_map
            assert np.linalg.norm(form - ref) <= 1e-12 * np.linalg.norm(ref)


def test_phi_tilde_hermitian_and_quadratic_identity(desk_problem, rng):
    data, eig = desk_problem
    phi_q = -eig.forms[1]
    assert np.max(np.abs(phi_q - phi_q.conj().T)) < 1e-12
    psi = data.problem.psi
    state = random_feasible_state(eig, BARRIER_T, rng)
    w = assemble_wbb(eig, state)
    cols = state.q * state.b[None, :]
    lhs = float(np.real(np.sum(cols.conj() * (phi_q @ cols))))
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
    assert barrier_value(huge, eig, BARRIER_T) == np.inf


def test_barrier_t_scaling(desk_problem, rng):
    _, eig = desk_problem
    state = random_feasible_state(eig, 10.0, rng)
    core = -float(np.sum(np.log1p(state.b**2)))
    part10 = barrier_value(state, eig, 10.0) - core
    part100 = barrier_value(state, eig, 100.0) - core
    assert part10 == pytest.approx(10.0 * part100, rel=1e-9)


def _barrier_from_wbb(eig, state, psi, gamma0, t):
    """Barrier written on W = U_B Sigma_B^{-1/2} Q diag(b) itself.

    -ln det(I + W^H B W) - ln(P - ||W||_F^2)/t - ln(tr(W^H Psi W) - gamma0)/t,
    the sensing term only when gamma0 > 0; +inf outside the strict interior.
    """
    w = assemble_wbb(eig, state)
    _, rate = np.linalg.slogdet(np.eye(w.shape[1]) + w.conj().T @ eig.b_mat @ w)
    power_slack = eig.offsets[0] - np.linalg.norm(w) ** 2
    sens_slack = np.real(np.trace(w.conj().T @ psi @ w)) - gamma0
    if power_slack <= 0 or (gamma0 > 0 and sens_slack <= 0):
        return np.inf
    val = -rate - np.log(power_slack) / t
    if gamma0 > 0:
        val -= np.log(sens_slack) / t
    return float(val)


@pytest.mark.parametrize("sensing", [True, False], ids=["sensing", "no_sensing"])
def test_barrier_value_matches_wbb_form(desk_problem, rng, sensing):
    """barrier_value at (Q, b) equals the barrier written on W_BB directly.

    Rotated and random unitary Q, gains moved along a random direction far
    enough to leave the feasible region: finite values agree to 1e-12
    relative (measured worst 6e-15), and the barrier is +inf exactly where
    the W_BB form is.
    """
    data, eig = desk_problem
    psi = data.problem.psi
    gamma0 = -eig.offsets[1]
    if not sensing:
        eig, gamma0 = no_sensing(eig), 0.0
    t = BARRIER_T
    ns = eig.n_streams
    finite = infinite = 0
    for k in range(12):
        base = random_feasible_state(eig, t, rng)
        q = base.q
        if k % 2:
            q, _ = np.linalg.qr(
                rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns))
            )
        direction = base.b * rng.standard_normal(ns)
        for step in (0.0, 0.1, 0.5, 2.0, 10.0):
            state = ManifoldState(q, base.b + step * direction)
            value = barrier_value(state, eig, t)
            reference = _barrier_from_wbb(eig, state, psi, gamma0, t)
            if np.isinf(reference):
                assert value == np.inf
                infinite += 1
            else:
                assert value == pytest.approx(reference, rel=1e-12)
                finite += 1
    assert finite >= 10 and infinite >= 10


def test_barrier_decreases_along_gain_growth():
    eig = synthetic_eig([2.0, 1.0], budget=1.0)
    vals = []
    for scale in (0.1, 0.2, 0.3):
        state = ManifoldState(
            q=eig.u_b.conj().T, b=np.array([scale, 0.05])
        )
        vals.append(barrier_value(state, eig, BARRIER_T))
    assert vals[0] > vals[1] > vals[2]


def test_grad_b_zero_at_origin(desk_problem):
    _, eig = desk_problem
    state = ManifoldState(
        q=np.eye(eig.n_streams, dtype=complex),
        b=np.zeros(eig.n_streams),
    )
    assert np.allclose(grad_b(state, no_sensing(eig), BARRIER_T), 0.0)


def test_grad_b_matches_finite_differences(desk_problem, rng):
    _, eig = desk_problem
    t = BARRIER_T
    for _ in range(5):
        state = probe_state(eig, rng)
        g = grad_b(state, eig, t)
        fd = central_differences(
            lambda b: barrier_value(ManifoldState(state.q, b), eig, t), state.b
        )
        assert np.linalg.norm(g - fd) < 1e-5 * max(np.linalg.norm(fd), 1e-8)


def test_grad_b_barrier_part_vanishes_at_large_t(desk_problem, rng):
    _, eig = desk_problem
    state = probe_state(eig, rng)
    data_term = -2.0 * state.b / (1.0 + state.b**2)
    g_small = grad_b(state, eig, 1e2)
    g_big = grad_b(state, eig, 1e6)
    assert np.linalg.norm(g_big - data_term) < 1e-4 * np.linalg.norm(
        g_small - data_term
    ) + 1e-12


def test_grad_v_zero_when_gains_zero(desk_problem):
    _, eig = desk_problem
    state = ManifoldState(
        q=np.eye(eig.n_streams, dtype=complex),
        b=np.zeros(eig.n_streams),
    )
    assert np.all(grad_v(state, no_sensing(eig), BARRIER_T) == 0.0)


def test_grad_v_matches_finite_differences(desk_problem, rng):
    _, eig = desk_problem
    state = probe_state(eig, rng)
    assert gradient_error(state, eig, BARRIER_T, rng) < 1e-5


def test_grad_at_infeasible_point_raises(desk_problem):
    _, eig = desk_problem
    assert eig.offsets.size == 2
    # gains of 1e6 overrun the power budget; zero gains miss the sensing threshold
    for gain in (1e6, 0.0):
        bad = ManifoldState(
            q=np.eye(eig.n_streams, dtype=complex),
            b=np.full(eig.n_streams, gain),
        )
        with pytest.raises(InfeasiblePointError):
            grad_b(bad, eig, BARRIER_T)
        with pytest.raises(InfeasiblePointError):
            grad_v(bad, eig, BARRIER_T)


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
    tangent step) and is taken by SVD in double. The 90% waterfilling split
    (`oracles.ninety_percent_split`, 10% of the budget left as power slack)
    has a diagonal Q, along which the power term of the gradient is
    Hermitian and projects to zero, so a rotated start is checked as well.
    Steps of 1e-3 and above leave the feasible region at these points; the
    1e-9 and 1e-6 steps are the ones that compare finite barrier values.
    Phase 1's own start, the barrier's split, is not used: its power slack
    is only level/t, and every step but 1e-9 leaves the region there.
    """
    data, eig = desk_problem
    assert eig.offsets.size == 2
    psi = data.problem.psi
    t = BARRIER_T
    ns = eig.n_streams
    xp = np.clongdouble
    complete, _ = np.linalg.qr(eig.u_b, mode="complete")
    basis = np.concatenate([eig.u_b, complete[:, ns:]], axis=1).astype(xp)
    basis = basis @ (3 * np.eye(basis.shape[0]) - basis.conj().T @ basis) / 2
    u_b, null = basis[:, :ns], basis[:, ns:]
    starts = [
        ninety_percent_split(eig),
        random_feasible_state(eig, t, rng),
    ]
    for state in starts:
        v = np.concatenate([u_b @ state.q.astype(xp), null], axis=1)

        def full(v_):
            return _full_width_barrier(
                v_.astype(xp), state.b.astype(np.longdouble), u_b,
                eig.sigma_b.astype(np.longdouble), psi.astype(xp),
                eig.offsets[0], -eig.offsets[1], t,
            )

        f_ref, g_ref = full(v)
        a = v.conj().T @ g_ref
        xi_ref = -v @ (0.5 * (a - a.conj().T))
        xi = tangent_project(state.q, grad_v(state, eig, t))
        norm_ref = float(np.sqrt(np.sum(np.abs(xi_ref) ** 2)))
        assert np.linalg.norm(xi) == pytest.approx(norm_ref, rel=1e-12)
        f = barrier_value(state, eig, t)
        assert f == pytest.approx(f_ref, rel=1e-12)
        finite = 0
        for s in (1e-9, 1e-6, 1e-3, 1.0, 1e2):
            u, _, vh = np.linalg.svd((v + s * xi_ref).astype(complex))
            v_ref = u @ vh
            q_new = stiefel_retract(state.q + s * xi)
            embedded = np.concatenate([eig.u_b @ q_new, null.astype(complex)], axis=1)
            assert np.linalg.norm(embedded - v_ref) <= 1e-12 * np.linalg.norm(v_ref)
            f_new = barrier_value(ManifoldState(q_new, state.b), eig, t)
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
    state = phase1_feasible(eig)
    assert np.isfinite(barrier_value(state, eig, BARRIER_T))


def test_phase1_huge_threshold_certificate(desk_problem):
    _, eig = desk_problem
    impossible = dataclasses.replace(eig, offsets=np.array([eig.offsets[0], -1e12]))
    with pytest.raises(InfeasibleProblemError) as err:
        phase1_feasible(impossible)
    assert err.value.bound < 1e12


def test_phase1_desk_scale_feasible(desk_problem):
    _, eig = desk_problem
    state = phase1_feasible(eig)
    assert np.isfinite(barrier_value(state, eig, BARRIER_T))


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
    eig = reduce_b(data.problem)
    start = phase1_feasible(eig)
    assert np.all(start.b > 0.0)
    assert np.isfinite(barrier_value(start, eig, BARRIER_T))
    result = rm_jgd(eig, BARRIER_T, start)
    se = spectral_efficiency(data.h, data.analog, result.w_bb, cfg.sigma_c_sq)
    optimum = restricted_optimum_bits(eig, data.problem.psi)
    assert se <= optimum + 1e-6
    assert optimum - se < 3.0


def test_rmjgd_stationary_init_returns_immediately():
    eig = synthetic_eig([2.0, 1.0], budget=1.0)
    state = ManifoldState(q=eig.u_b.conj().T, b=np.zeros(2))
    result = rm_jgd(eig, BARRIER_T, state)
    assert result.iterations == 0
    assert result.status == "converged"


def test_rmjgd_infeasible_init_rejected(desk_problem):
    _, eig = desk_problem
    bad = ManifoldState(
        q=np.eye(eig.n_streams, dtype=complex),
        b=np.full(eig.n_streams, 1e6),
    )
    with pytest.raises(ValueError, match="infeasible"):
        rm_jgd(eig, BARRIER_T, bad)


def test_rmjgd_rejects_nonpositive_barrier_weight(desk_problem):
    _, eig = desk_problem
    for t in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="barrier weight"):
            rm_jgd(eig, t, phase1_feasible(eig))


def test_rmjgd_no_sensing_matches_waterfilling(rng):
    gains = np.array([4.0, 3.0, 2.0, 1.0])
    eig = synthetic_eig(gains, budget=1.0)
    t = 100.0
    # start away from the solution: uniform small gains, rotated basis
    q, _ = np.linalg.qr(
        np.eye(4) + 0.2 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    )
    init = ManifoldState(q=eig.u_b.conj().T @ q, b=np.full(4, 0.2))
    assert np.isfinite(barrier_value(init, eig, t))
    result = rm_jgd(eig, t, init)
    form = result.w_bb.conj().T @ eig.b_mat @ result.w_bb
    se = float(np.linalg.slogdet(np.eye(4) + form)[1] / np.log(2.0))
    expected = waterfilling_se_bits(gains, 1.0)
    assert se >= 0.98 * expected
    assert se <= expected + 1e-6


def test_rmjgd_desk_scale_descent(assert_check):
    assert_check("rmjgd_descent")


def _pullback_errors(state, eig, t, h):
    """Relative errors of `barrier_derivatives` against central differences.

    The pullback is x = (omega, delta b) -> f(polar(Q (I + Omega)), b +
    delta b), Omega = sum_k omega_k E_k; the gradient is taken from first
    central differences, the Hessian from second ones, entry by entry.
    """
    ns = eig.n_streams
    basis = opt_manifold._skew_basis(ns)
    p = basis.shape[0]
    assert p == ns * (ns - 1)
    assert np.array_equal(basis, -basis.conj().transpose(0, 2, 1))
    assert not np.any(np.diagonal(basis, axis1=1, axis2=2))

    def pullback(x):
        q = stiefel_retract(state.q @ (np.eye(ns) + np.tensordot(x[:p], basis, axes=1)))
        return barrier_value(ManifoldState(q, state.b + x[p:]), eig, t)

    grad, hess = barrier_derivatives(state, eig, t)
    steps = h * np.eye(ns * ns)
    fd_grad = np.array([(pullback(d) - pullback(-d)) / (2 * h) for d in steps])
    fd_hess = np.array([
        [(pullback(d + c) - pullback(d - c) - pullback(c - d) + pullback(-d - c))
         / (4 * h * h) for c in steps]
        for d in steps
    ])
    err_g = np.linalg.norm(grad - fd_grad) / np.linalg.norm(fd_grad)
    err_h = np.linalg.norm(hess - fd_hess) / np.linalg.norm(fd_hess)
    return float(err_g), float(err_h)


def _single_stream_eig() -> EigB:
    """n_s = 1 with sensing active: no Omega coordinate, the gain alone."""
    problem = MaxDetProblem(
        h_eff=np.array([[np.sqrt(2.0)]], dtype=complex),
        sigma_c_sq=1.0,
        power_budget=1.0,
        psi=np.array([[2.0]], dtype=complex),
        gamma0=0.2,
        n_streams=1,
    )
    return reduce_b(problem)


@pytest.mark.parametrize("case", ["desk_ns4", "single_stream_ns1", "full_scale_ns7"])
def test_barrier_hessian_matches_central_differences(desk_problem, rng, case):
    """The analytic gradient and Hessian are those of the pullback through
    the polar retraction, with sensing active in every case.

    The differences' error falls as h^2. At the desk probe state h = 1e-5
    leaves 2e-7 on the gradient and 1e-6 on the Hessian; the desk 90%
    waterfilling split (`oracles.ninety_percent_split`), with its 1/sigma_B
    weights up to 250 and a zero gain, needs h = 1e-7 to bring the Hessian's
    to 1e-5 (1e-1 at h = 1e-5, 1e-3 at 1e-6).
    """
    if case == "desk_ns4":
        _, eig = desk_problem
        cases = [(probe_state(eig, rng), 1e-5, 1e-5), (ninety_percent_split(eig), 1e-7, 1e-4)]
    elif case == "single_stream_ns1":
        eig = _single_stream_eig()
        cases = [(ManifoldState(np.array([[np.exp(0.3j)]]), np.array([0.6])), 1e-5, 1e-5)]
    else:
        eig = reduce_b(harness.prepare_scenario(harness.config_from_dict({"seed": 0})).problem)
        cases = [(probe_state(eig, rng), 1e-4, 1e-5)]
    assert eig.n_streams == int(case[-1]) and eig.offsets.size == 2
    for state, h, tol in cases:
        err_g, err_h = _pullback_errors(state, eig, BARRIER_T, h)
        assert err_g < tol and err_h < tol, (err_g, err_h)


def test_newton_step_descends_along_the_gradient(desk_problem):
    """Omega is skew-Hermitian with a zero diagonal, and the direction's
    slope along the gradient is minus the squared decrement."""
    _, eig = desk_problem
    t = BARRIER_T
    state = phase1_feasible(eig)
    grad, _ = barrier_derivatives(state, eig, t)
    omega, delta_b, decrement = newton_step(state, eig, t)
    ns = eig.n_streams
    assert np.allclose(omega, -omega.conj().T) and not np.any(np.diag(omega))
    rows, cols = np.triu_indices(ns, 1)
    direction = np.concatenate([omega[rows, cols].real, omega[rows, cols].imag, delta_b])
    assert decrement > NEWTON_TOL
    assert float(grad @ direction) == pytest.approx(-decrement, rel=1e-6)


def _oracle_eigs(scale):
    """EigBs with a sensing row: desk_sweep cells at 0 and 60 dB, full
    scale (n_s = 7) at 5 and 80 dB, K = 64 (n_s = 12) at its default."""
    if scale == "desk":
        configs = [
            harness.desk_config(seed=harness.derive_seed(harness.derive_seed(0, slot), 0),
                                scnr_threshold_db=db)
            for slot in (0, 1, 2) for db in (0.0, 60.0)
        ]
    elif scale == "full":
        configs = [harness.config_from_dict({"seed": 0, "scnr_threshold_db": db})
                   for db in (5.0, 80.0)]
    else:
        configs = [harness.config_from_dict({"seed": 0, "subarrays": 64})]
    return [reduce_b(harness.prepare_scenario(cfg).problem) for cfg in configs]


@pytest.mark.parametrize(
    "scale, n_streams, n_states", [("desk", {3, 4}, 10), ("full", {7}, 4), ("k64", {12}, 2)]
)
def test_closed_form_hessian_matches_basis_contraction(scale, n_streams, n_states):
    """The closed-form Hessian, built from the slack-weighted sum of the
    forms, is the per-form basis contraction's to 1e-12 relative (measured
    <= 7e-16) at phase-1 starts and at converged states; the gradient is
    the oracle's at the starts, where it is far from zero. One desk cell,
    seed 0's slot 2 at 60 dB, is infeasible."""
    eigs, checked = _oracle_eigs(scale), 0
    assert {eig.n_streams for eig in eigs} == n_streams
    for eig in eigs:
        assert eig.offsets.size == 2
        try:
            start = phase1_feasible(eig)
        except InfeasibleProblemError:
            continue
        done = rm_jgd(eig, BARRIER_T, start)
        assert done.status == "converged" and done.iterations > 1
        for state in (start, done.state):
            grad, hess = barrier_derivatives(state, eig, BARRIER_T)
            grad_o, hess_o = basis_contraction_derivatives(state, eig, BARRIER_T)
            assert np.linalg.norm(hess - hess_o) <= 1e-12 * np.linalg.norm(hess_o)
            if state is start:
                assert np.linalg.norm(grad - grad_o) <= 1e-12 * np.linalg.norm(grad_o)
            checked += 1
    assert checked == n_states


def test_rmjgd_builds_the_skew_basis_once_per_call(desk_problem, monkeypatch):
    """rm_jgd builds its pair tables once and passes them to every Newton
    step; nothing keeps them between calls."""
    _, eig = desk_problem
    calls = []
    build = opt_manifold._skew_basis
    monkeypatch.setattr(opt_manifold, "_skew_basis", lambda n: calls.append(n) or build(n))
    for expected in (1, 2):
        result = rm_jgd(eig, BARRIER_T, phase1_feasible(eig))
        assert result.iterations > 1 and calls == [eig.n_streams] * expected


def _desk_sweep_cells(thresholds_db=(0.0, 60.0)):
    """desk_sweep's 54 cells at run seeds 0-2: the slots' base seeds
    derive_seed(seed, slot), repetition 0 derived again, x {0, 60} dB
    (`thresholds_db`)."""
    for seed in range(3):
        for slot in range(9):
            for db in thresholds_db:
                yield harness.desk_config(
                    seed=harness.derive_seed(harness.derive_seed(seed, slot), 0),
                    scnr_threshold_db=db,
                )


def test_rmjgd_desk_cells_end_ok_near_restricted_optimum():
    """Every feasible rm_jgd row of the 54 desk_sweep cells is `ok` within
    0.05 bits of its restricted optimum (measured 0.0144-0.0287, the
    barrier's bias at t = 100 being at most 2/(100 ln 2) = 0.0289), and at
    most the optimum. The 9 others are phase 1's `infeasible_subspace`.

    Each converged state also certifies its gap. In Y = Q diag(b^2) Q^H the
    rate form is I, so the restricted problem's dual is `_dual_point` over
    the EigB constraint list with the identity channel; at the barrier's
    multipliers 1/(t s_i) it is defined and exceeds the row's rate by the
    bias m/t nats, m = 2 rows (measured 0.0288539008-0.0288539010 bits)."""
    gaps, statuses = [], []
    for cfg in _desk_sweep_cells():
        row = harness.run_scenario(cfg, "rm_jgd")
        statuses.append(row.status)
        if row.status == "infeasible_subspace":
            continue
        problem = harness.prepare_scenario(cfg).problem
        eig = reduce_b(problem)
        gaps.append(restricted_optimum_bits(eig, problem.psi) - row.se_bits)
        state = rm_jgd(eig, BARRIER_T, phase1_feasible(eig)).state
        multipliers = 1.0 / (BARRIER_T * opt_manifold._slacks(state, eig))
        dual = _dual_point(multipliers, eig.forms, eig.offsets, np.eye(eig.n_streams))
        assert dual is not None and eig.offsets.size == 2
        bias = eig.offsets.size / (BARRIER_T * np.log(2.0))
        assert dual.value / np.log(2.0) == pytest.approx(row.se_bits + bias, rel=0, abs=1e-8)
    assert statuses.count("ok") == 45 and statuses.count("infeasible_subspace") == 9
    assert -1e-6 <= min(gaps) and max(gaps) <= 0.05


def test_rmjgd_slack_desk_cells_converge_in_three_steps():
    """On desk_sweep's 27 cells at 0 dB, where sensing is slack, phase 1
    starts at the barrier's own waterfilling split and every run converges
    in at most 3 Newton steps (2-3 measured). From the 90% waterfilling
    split the same runs take 5-9."""
    steps, before = [], []
    for cfg in _desk_sweep_cells(thresholds_db=(0.0,)):
        eig = reduce_b(harness.prepare_scenario(cfg).problem)
        result = rm_jgd(eig, BARRIER_T, phase1_feasible(eig))
        assert result.status == "converged"
        steps.append(result.iterations)
        before.append(rm_jgd(eig, BARRIER_T, ninety_percent_split(eig)).iterations)
    assert len(steps) == 27 and max(steps) <= 3, steps
    assert min(before) >= 5, before


def test_rmjgd_desk_seeds_converge_in_few_steps():
    # criterion 6's seeds at the default cap; they take at most 9 steps
    steps = []
    for seed in range(50):
        eig = reduce_b(harness.prepare_scenario(harness.desk_config(seed=seed)).problem)
        result = rm_jgd(eig, BARRIER_T, phase1_feasible(eig))
        assert result.status == "converged", seed
        steps.append(result.iterations)
    assert max(steps) <= 20 and np.median(steps) <= 8, steps


def test_descent_converged_rejects_capped_and_stalled_runs(desk_problem, monkeypatch):
    """The criterion-5 check accepts a converged run and rejects a run cut
    after one step, the same run labelled stalled, and a converged label on
    a state whose decrement is still large."""
    _, eig = desk_problem
    t = BARRIER_T
    start = phase1_feasible(eig)
    done = rm_jgd(eig, t, start)
    assert descent_converged(done, eig, t)
    monkeypatch.setattr(opt_manifold, "MAX_ITERATIONS", 1)
    one_step = rm_jgd(eig, t, start)
    assert (one_step.iterations, one_step.status) == (1, "max_iter")
    assert not descent_converged(one_step, eig, t)
    assert not descent_converged(dataclasses.replace(done, status="stalled"), eig, t)
    assert not descent_converged(dataclasses.replace(one_step, status="converged"), eig, t)
    rising = dataclasses.replace(done, trace=done.trace + [done.trace[-1]])
    assert not descent_converged(rising, eig, t)


def test_rmjgd_iterates_stay_unitary_and_feasible(desk_problem):
    _, eig = desk_problem
    # every accepted Q is a fresh polar factor; nothing re-retracts it
    t = BARRIER_T
    init = phase1_feasible(eig)
    result = rm_jgd(eig, t, init)
    q = result.state.q
    assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) < 1e-12
    assert np.isfinite(barrier_value(result.state, eig, t))


def test_rmjgd_final_power_and_scnr(desk_problem):
    from modisac.beamform import analog_times, echo_weights, scnr, transmit_power

    data, eig = desk_problem
    init = phase1_feasible(eig)
    result = rm_jgd(eig, BARRIER_T, init)
    f = analog_times(data.analog, result.w_bb)
    _, proxy = transmit_power(f, result.w_bb, data.config.m_antennas)
    assert proxy <= data.problem.n_streams + 1e-9
    weights = echo_weights(data.responses, f)
    achieved = scnr(data.w_fixed, data.responses, weights, data.config.sigma_s_sq)
    assert achieved >= data.config.scnr_min  # strict by barrier construction
