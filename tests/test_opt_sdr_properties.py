"""Property tests of the maxdet dual solve off the desk distribution (needs `hypothesis`)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modisac.opt_sdr import MaxDetProblem, _slacks, solve_maxdet  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 11),
    users=st.integers(1, 4),
    log_gain=st.floats(-2.0, 2.0),
    budget=st.floats(0.1, 10.0),
    frac=st.floats(0.1, 0.9999),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_maxdet_certifies_random_problems(n, users, log_gain, budget, frac, seed):
    # an indefinite sensing form with top eigenvalue 1, so gamma0 = frac * P
    # sits at frac of the most sensing the budget can buy; each solve ends
    # optimal with a certified gap, the power budget met with equality and
    # the sensing constraint met
    rng = np.random.default_rng(seed)
    h = 10.0**log_gain * (
        rng.standard_normal((users, n)) + 1j * rng.standard_normal((users, n))
    )
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lam = np.concatenate([[1.0], rng.uniform(-3.0, 1.0, n - 1)])
    psi = (u * lam) @ u.conj().T
    problem = MaxDetProblem(
        h_eff=h,
        sigma_c_sq=1.0,
        power_budget=budget,
        psi=0.5 * (psi + psi.conj().T),
        gamma0=frac * budget,
        n_streams=min(users, n),
    )
    sol = solve_maxdet(problem)
    assert sol.status == "optimal", sol.message
    assert sol.dual_bits - sol.objective_bits <= 1.5e-10
    p_slack, s_slack = _slacks(sol.r_bb, problem)
    assert abs(p_slack) <= 1e-9 * budget
    assert s_slack >= 0.0
