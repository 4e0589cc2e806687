"""Property tests of the RM-JGD phase-1 start and retraction (needs `hypothesis`)."""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modisac import opt_manifold  # noqa: E402
from modisac.opt_sdr import water_level  # noqa: E402
from modisac.opt_manifold import (  # noqa: E402
    BARRIER_T,
    EigB,
    InfeasibleProblemError,
    ManifoldState,
    barrier_value,
    phase1_feasible,
    tangent_project,
)
from oracles import barrier_split_gains, ninety_percent_split  # noqa: E402


def _eig(n, log_cond, top, spread, budget, gamma0, seed) -> EigB:
    """Diagonal rate form with cond(Sigma_B) = 10**log_cond and an indefinite
    sensing form whose pencil Sigma_B^{1/2} Phi_q Sigma_B^{1/2} has top
    eigenvalue `top` and the others drawn from [top - 1 - spread, top]."""
    rng = np.random.default_rng(seed)
    sigma = 10.0 ** rng.uniform(-log_cond, 0.0, n)
    sigma[0], sigma[-1] = 1.0, 10.0**-log_cond
    sigma = np.sort(sigma)[::-1] * 10.0 ** rng.uniform(-3.0, 3.0)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    lam = top - np.concatenate([[0.0], rng.uniform(0.0, 1.0 + spread, n - 1)])
    u = u / np.sqrt(sigma)[:, None]
    phi = (u * lam) @ u.conj().T
    return EigB(
        b_mat=np.diag(sigma).astype(complex),
        u_b=np.eye(n, dtype=complex),
        sigma_b=sigma,
        forms=np.stack([np.diag(1.0 / sigma), -0.5 * (phi + phi.conj().T)]),
        offsets=np.array([budget, -gamma0]),
        n_streams=n,
    )


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 11),
    log_cond=st.floats(0.0, 7.0),
    top=st.sampled_from([1.0, -1.0]),
    spread=st.floats(0.0, 10.0),
    budget=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
    frac=st.one_of(
        st.floats(1e-6, 1.0 - 1e-12),
        st.floats(9.0, 12.0).map(lambda k: 1.0 - 10.0**-k),
        st.floats(1.0 + 1e-12, 3.0),
    ),
)
def test_phase1_starts_or_certifies(n, log_cond, top, spread, budget, seed, frac):
    # with the sensing constraint active, phase 1 raises exactly when the
    # certificate bound <= gamma0 holds and otherwise returns a unitary Q and
    # gains at which the barrier is finite; once the waterfilling start
    # misses the threshold, every gain is positive
    gamma0 = frac * budget
    eig = _eig(n, log_cond, top, spread, budget, gamma0, seed)
    bound = budget * top  # budget * lambda_max of the pencil, by construction
    if bound <= gamma0:
        with pytest.raises(InfeasibleProblemError):
            phase1_feasible(eig)
        return
    state = phase1_feasible(eig)
    assert np.linalg.norm(state.q.conj().T @ state.q - np.eye(n)) < 1e-10
    assert np.isfinite(barrier_value(state, eig, BARRIER_T))
    inv = 1.0 / eig.sigma_b
    level = water_level(inv, 0.9 * budget)
    wf = ManifoldState(
        np.eye(n, dtype=complex), np.sqrt(np.maximum(level - inv, 0.0) * eig.sigma_b)
    )
    if opt_manifold._slacks(wf, eig)[1] <= 0.0:
        assert np.all(state.b > 0.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 11),
    log_cond=st.floats(0.0, 7.0),
    spread=st.floats(0.0, 10.0),
    log_tp=st.floats(-2.0, 4.0),
    frac=st.floats(1e-6, 1.0 - 1e-12),
    sensing=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase1_starts_at_the_barrier_split(n, log_cond, spread, log_tp, frac, sensing, seed):
    # where the 90% split clears every row, phase 1 starts at the minimizer
    # of -sum ln(1 + w_j) - ln(s_p)/t over the gains at Q = I, s_p the power
    # slack: strictly feasible, with a zero gradient on the active gains and
    # a nonnegative one on the dead gains. It keeps the 90% split only where
    # that minimizer has no active channel (t P <= min inv_j, including
    # budgets far below it; at t P = min inv_j to 1e-12 rounding decides)
    # or misses the sensing row.
    eig = _eig(n, log_cond, 1.0, spread, 1.0, 0.0, seed)
    inv, t = 1.0 / eig.sigma_b, BARRIER_T
    budget = 10.0**log_tp * inv[0] / t
    rows = 1 + sensing
    offsets = np.array([budget, -frac * budget])[:rows]
    eig = dataclasses.replace(eig, forms=eig.forms[:rows], offsets=offsets)
    split = ninety_percent_split(eig)
    if np.any(opt_manifold._slacks(split, eig) <= 0.0):
        return  # the Y start of test_phase1_starts_or_certifies
    state = phase1_feasible(eig)
    assert np.array_equal(state.q, np.eye(n))
    edge = abs(t * budget / inv[0] - 1.0) <= 1e-12
    if t * budget <= inv[0] and not edge:
        assert np.array_equal(state.b, split.b)
        return
    if np.array_equal(state.b, split.b):
        if edge:
            return
        # the minimizer misses the sensing row, up to rounding
        assert sensing
        gains, sens = barrier_split_gains(inv, budget, t), np.diagonal(eig.forms[1]).real
        assert offsets[1] - sens @ gains <= 1e-9 * (abs(offsets[1]) + np.abs(sens) @ gains)
        return
    slacks = opt_manifold._slacks(state, eig)
    assert np.all(slacks > 0.0)
    w = state.b**2
    grad = -1.0 / (1.0 + w) + np.diagonal(eig.forms[0]).real / (t * slacks[0])
    active = w > 0.0
    assert np.any(active)
    assert np.all(np.abs(grad[active]) <= 1e-10 / (1.0 + w[active]))
    assert np.all(grad[~active] >= -1e-10)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 16),
    log_step=st.floats(-12.0, 12.0),
    log_scale=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_tangent_step_keeps_full_rank(n, log_step, log_scale, seed):
    # a trial Q(I + s Omega) along a skew-Hermitian Omega, here Q + s xi with
    # xi = -Q K, K = skew(Q^H G), is Q(I - sK); I - sK is normal with
    # singular values sqrt(1 + s^2 lambda^2) >= 1, so every trial has full
    # rank and its polar factor is unique
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    g = 10.0**log_scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    trial = q + 10.0**log_step * tangent_project(q, g)
    assert np.linalg.svd(trial, compute_uv=False)[-1] >= 1.0 - 1e-12
