"""Cross-module invariant suite behind the `validate` CLI command.

Each check runs at desk scale on seeded data and reports pass/fail with a
one-line detail; the suite never raises. The checks are the one copy of these
invariants: the tests run them through `modisac validate`, and the acceptance
criteria reuse `mvdr_argmax`, `descent_converged`, the rank-bounds check and
the finite-difference helpers.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import beamform, channel, harness, opt_manifold, opt_sdr
from .geometry import PolarPoint, SceneObject, build_geometry, steering_vector
from .music import GridSpec


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    wall_ms: float


@dataclass
class ValidationReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            mark = "PASS" if r.ok else "FAIL"
            lines.append(f"[{mark}] {r.name} ({r.wall_ms:.0f} ms) {r.detail}")
        verdict = "ALL CHECKS PASSED" if self.all_ok else "CHECKS FAILED"
        lines.append(verdict)
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["check", "ok", "detail", "wall_ms"])
            for r in self.results:
                writer.writerow([r.name, int(r.ok), r.detail, f"{r.wall_ms:.3f}"])


def _mini_data() -> harness.ScenarioData:
    return harness.prepare_scenario(harness.desk_config(seed=0))


def _small_data(**overrides) -> harness.ScenarioData:
    over = {
        "subarrays": 3,
        "antennas_per_subarray": 4,
        "user_antennas": 3,
        "user": {"range_m": 12.0, "angle_deg": 15.0},
    }
    over.update(overrides)
    cfg = harness.desk_config(seed=0, **over)
    return harness.prepare_scenario(cfg)


def _check_mirror_symmetry() -> tuple[bool, str]:
    cfg = harness.desk_config()
    g = build_geometry(cfg)
    ok = np.array_equal(g.rx_positions, -g.tx_positions)
    return ok, "rx == -tx elementwise"


def _check_steering_modulus() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    worst, first_exact = 0.0, True
    for _ in range(50):
        v = steering_vector(16, rng.uniform(-np.pi / 2, np.pi / 2), 0.004, 0.008)
        worst = max(worst, float(np.max(np.abs(np.abs(v) - 1.0))))
        first_exact = first_exact and v[0] == 1.0
    return worst < 1e-12 and first_exact, (
        f"max modulus deviation {worst:.2e}, v[0] == 1 exactly: {first_exact}"
    )


def _check_interphase_oracle() -> tuple[bool, str]:
    # the reference element of each block carries nu_k = exp(-j*2*pi*r_k/lambda)
    g = build_geometry(harness.desk_config())
    err = mod_err = 0.0
    for loc in (PolarPoint(17.0, 0.3), PolarPoint(11.0, -0.35)):
        resp = channel.sensing_response(g, SceneObject(loc))
        for side, vec in (("tx", resp.g_t), ("rx", resp.g_r)):
            nu = vec[:: g.m_antennas]
            dists = np.linalg.norm(loc.xy[None, :] - g.reference_positions(side), axis=1)
            oracle = np.exp(-2j * np.pi / g.wavelength * dists)
            err = max(err, float(np.max(np.abs(nu - oracle))))
            mod_err = max(mod_err, float(np.max(np.abs(np.abs(nu) - 1.0))))
    ok = err < 1e-12 and mod_err < 1e-12
    return ok, f"tx and rx: oracle deviation {err:.2e}, modulus deviation {mod_err:.2e}"


def _check_rank_bounds() -> tuple[bool, str]:
    rng = np.random.default_rng(404)
    for i in range(100):
        cfg = harness.desk_config(
            seed=int(rng.integers(1 << 30)),
            paths=int(rng.integers(1, 4)),
            user={
                "range_m": float(rng.uniform(6.0, 80.0)),
                "angle_deg": float(rng.uniform(-55.0, 55.0)),
            },
        )
        data = harness.prepare_scenario(cfg)
        lo, hi = channel.rank_bounds(cfg.n_paths, cfg.n_user_antennas, cfg.k_subarrays)
        r = channel.numerical_rank(data.h, 1e-8)
        if not lo <= r <= hi:
            return False, f"instance {i}: rank {r} outside [{lo}, {hi}]"
    return True, "100 random instances (1-3 paths) inside the structural bounds"


def _check_response_modulus() -> tuple[bool, str]:
    data = _mini_data()
    extra = channel.sensing_response(data.geometry, SceneObject(PolarPoint(20.0, np.pi / 4)))
    worst = 0.0
    for resp in data.responses + (extra,):
        worst = max(
            worst,
            float(np.max(np.abs(np.abs(resp.g_t) - 1.0))),
            float(np.max(np.abs(np.abs(resp.g_r) - 1.0))),
        )
    return worst < 1e-12, f"max response modulus deviation {worst:.2e}"


def _check_block_locality() -> tuple[bool, str]:
    cfg = harness.desk_config()
    m = cfg.m_antennas

    def comm_h(offsets):
        g = build_geometry(cfg, offsets)
        paths = channel.draw_paths(cfg, g, np.random.default_rng(cfg.seed))
        return channel.build_comm_channel(g, paths, cfg.n_user_antennas)

    h0 = comm_h(None)
    ok = True
    for k, shift in ((0, -0.02), (cfg.k_subarrays - 1, 0.01)):  # first, last subarray
        offsets = cfg.d0 + np.arange(cfg.k_subarrays) * cfg.d_s
        offsets[k] += shift
        h1 = comm_h(offsets)
        block = np.arange(h0.shape[1]) // m == k
        ok = ok and np.array_equal(h0[:, ~block], h1[:, ~block])
        ok = ok and not np.array_equal(h0[:, block], h1[:, block])
    return ok, "first or last subarray moved: other blocks bit-identical, its block moved"


def _check_echo_linearity() -> tuple[bool, str]:
    data = _small_data()
    n = data.config.n_antennas
    rng = np.random.default_rng(7)
    x1 = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    x2 = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))

    def run(x):
        return channel.simulate_echoes(
            data.responses, x, data.config.sigma_s_sq, np.random.default_rng(42)
        )

    lhs = run(x1 + x2)
    rhs = run(x1) + run(x2) - run(np.zeros_like(x1))
    err = float(np.max(np.abs(lhs - rhs)))
    return err < 1e-9, f"linearity residual {err:.2e}"


def _check_subspace_structure() -> tuple[bool, str]:
    data = _mini_data()
    ok, mod_err = beamform.analog_feasibility(data.u_tilde, data.config.k_subarrays)
    return ok and mod_err < 1e-12, f"block support {ok}, modulus error {mod_err:.2e}"


def _check_subspace_contains() -> tuple[bool, str]:
    data = _mini_data()
    u = data.u_tilde

    def residual(v: np.ndarray) -> float:
        return float(np.linalg.norm(u @ np.linalg.lstsq(u, v, rcond=None)[0] - v))

    worst_g = max(residual(r.g_t) / np.linalg.norm(r.g_t) for r in data.responses)
    vh = np.linalg.svd(data.h, full_matrices=False)[2]
    worst_v = max(residual(v.conj()) for v in vh[: channel.numerical_rank(data.h)])
    ok = worst_g < 1e-10 and worst_v < 1e-8
    return ok, f"g_t residual {worst_g:.2e}, row-space residual {worst_v:.2e}"


def _check_reduced_equals_full() -> tuple[bool, str]:
    """Rate and sensing margin of random W_BB, reduced against full space.

    The margin tr(W^H Psi W) - gamma0 equals echo * (1 - scnr_min / SCNR),
    at the MVDR filter and at the matched filter g_r0: the MVDR filter nulls
    the clutter, so only the matched filter's Psi shows the clutter term.
    """
    data = _mini_data()
    cfg, target = data.config, data.responses[0]
    matched = opt_sdr.make_maxdet_problem(
        data.h, data.u_tilde, data.responses, target.g_r, cfg.scnr_min,
        cfg.sigma_c_sq, cfg.sigma_s_sq, data.problem.n_streams, cfg.m_antennas,
    )
    filters = {"MVDR margin": (data.w_fixed, data.problem),
               "matched margin": (target.g_r, matched)}
    rng = np.random.default_rng(9)
    w_rf = beamform.optimal_analog(data.u_tilde)
    shape = (data.problem.dim, data.problem.n_streams)
    worst = dict.fromkeys(["SE", *filters], 0.0)
    for _ in range(5):
        w_bb = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w_bb *= np.sqrt(data.problem.power_budget) / np.linalg.norm(w_bb)
        wrfbb = w_rf @ w_bb
        r_x = wrfbb @ wrfbb.conj().T
        se_full = beamform._rate_bits(data.h @ opt_sdr._factor(r_x), cfg.sigma_c_sq)
        se_red = beamform.spectral_efficiency(data.h, w_rf, w_bb, cfg.sigma_c_sq)
        weights = beamform.echo_weights(data.responses, wrfbb)
        worst["SE"] = max(worst["SE"], abs(se_full - se_red) / max(se_full, 1e-12))
        for name, (w, problem) in filters.items():
            red = float(np.real(np.sum(w_bb.conj() * (problem.psi @ w_bb)))) - problem.gamma0
            s = beamform.scnr(w, data.responses, weights, cfg.sigma_s_sq)
            echo = float(weights[0] * np.abs(w.conj() @ target.g_r) ** 2)
            # relative to the sum of the two sides' magnitudes, echo * (1 + scnr_min / s)
            gap = abs(red - echo * (1.0 - cfg.scnr_min / s)) / (echo * (1.0 + cfg.scnr_min / s))
            worst[name] = max(worst[name], gap)
    detail = ", ".join(f"{name} {gap:.2e}" for name, gap in worst.items())
    return max(worst.values()) < 1e-8, f"gaps: {detail}"


def mvdr_argmax(data: harness.ScenarioData, rng: np.random.Generator) -> tuple[bool, str]:
    """The fixed filter, MVDR at R_X = I, attains the SCNR maximum over 10^4 random filters.

    The random filters are scored in one batch (SCNR is scale-invariant in
    w); the batch formula must reproduce `beamform.scnr` at the MVDR filter.
    """
    cfg, objs = data.config, data.responses
    n = cfg.n_antennas
    weights = n * np.array([r.alpha ** 2 for r in objs])
    best = beamform.scnr(data.w_fixed, data.responses, weights, cfg.sigma_s_sq)
    w = rng.standard_normal((n, 10_000)) + 1j * rng.standard_normal((n, 10_000))
    w = np.concatenate([data.w_fixed[:, None], w], axis=1)
    proj = np.abs(np.stack([r.g_r for r in objs]).conj() @ w) ** 2
    noise = cfg.sigma_s_sq * np.sum(np.abs(w) ** 2, axis=0)
    batch = weights[0] * proj[0] / (weights[1:] @ proj[1:] + noise)
    pin, top = abs(batch[0] - best) / best, float(np.max(batch[1:]))
    ok = pin < 1e-9 and top <= best * (1 + 1e-9)
    return ok, f"MVDR SCNR {best:.4g}, best random {top:.4g}, batch pin {pin:.1e}"


def probe_state(
    eig: opt_manifold.EigB, rng: np.random.Generator
) -> opt_manifold.ManifoldState:
    """Strictly feasible state suited to finite-difference gradient probes.

    Gains are power-capped per coordinate (small enough that a 1e-6 probe
    moves the barrier arguments by far less than their values) and the most
    sensing-effective coordinate gets just enough gain to clear the
    threshold with margin; the unitary factor carries a random rotation.
    """
    ns = eig.n_streams
    budget = eig.offsets[0]
    # the power slack keeps 30% of the budget, a sensing slack twice its floor
    margins = np.array([0.3, 2.0])[: eig.offsets.size] * np.abs(eig.offsets)
    for _ in range(60):
        q1, _ = np.linalg.qr(
            np.eye(ns)
            + 0.3 * (rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns)))
        )
        diags = opt_manifold._terms_of(q1, eig)[1]
        b = np.minimum(
            0.5, np.sqrt(0.1 * budget / (ns * np.maximum(diags[0], 1e-300)))
        ) * rng.uniform(0.6, 1.0, ns)
        if eig.offsets.size > 1:
            # sensing per unit gain^2 is the negated diagonal of its form
            j0 = int(np.argmin(diags[1]))
            if diags[1, j0] >= 0.0:
                continue
            b_sens = np.sqrt(5.0 * eig.offsets[1] / diags[1, j0])
            for _ in range(30):
                trial = b.copy()
                trial[j0] = max(trial[j0], b_sens)
                state = opt_manifold.ManifoldState(q1, trial)
                if np.all(opt_manifold._slacks(state, eig) > margins):
                    return state
                b *= 0.5
        else:
            state = opt_manifold.ManifoldState(q1, b)
            if np.all(opt_manifold._slacks(state, eig) > margins):
                return state
    raise RuntimeError("could not construct a well-conditioned probe state")


def central_differences(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a real vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2 * h)
    return grad


def gradient_error(
    state: opt_manifold.ManifoldState,
    eig: opt_manifold.EigB,
    t: float,
    rng: np.random.Generator,
) -> float:
    """Worst relative error of the analytic gradients against central differences.

    The b-gradient is compared in full, the Q-gradient at 12 entries drawn
    from rng, along the real and the imaginary part of each.
    """

    def barrier(q: np.ndarray, b: np.ndarray) -> float:
        return opt_manifold.barrier_value(opt_manifold.ManifoldState(q, b), eig, t)

    def entry_barrier(i: int, j: int, x: np.ndarray) -> float:
        q = state.q.copy()
        q[i, j] += x[0] + 1j * x[1]
        return barrier(q, state.b)

    gb = opt_manifold.grad_b(state, eig, t)
    fd_b = central_differences(lambda b: barrier(state.q, b), state.b)
    gv = opt_manifold.grad_v(state, eig, t)
    analytic, numeric = [], []
    for _ in range(12):
        i, j = int(rng.integers(eig.n_streams)), int(rng.integers(eig.n_streams))
        analytic += [gv[i, j].real, gv[i, j].imag]
        numeric.extend(central_differences(lambda x: entry_barrier(i, j, x), np.zeros(2)))
    err_b = np.linalg.norm(gb - fd_b) / max(np.linalg.norm(fd_b), 1e-12)
    err_v = np.linalg.norm(np.subtract(analytic, numeric)) / max(
        np.linalg.norm(numeric), 1e-12
    )
    return max(float(err_b), float(err_v))


def _check_grad_fd() -> tuple[bool, str]:
    data = _mini_data()
    eig, t = opt_manifold.reduce_b(data.problem), opt_manifold.BARRIER_T
    worst = 0.0
    for trial in range(3):
        state = probe_state(eig, np.random.default_rng(21 + trial))
        worst = max(worst, gradient_error(state, eig, t, np.random.default_rng(trial)))
    return worst < 1e-5, f"worst relative gradient error {worst:.2e}"


def _check_tangent_retract() -> tuple[bool, str]:
    rng = np.random.default_rng(23)
    n = 8
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = opt_manifold.stiefel_retract(z)
    unit_err = np.linalg.norm(v.conj().T @ v - np.eye(n))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    xi = opt_manifold.tangent_project(v, g)
    tang = np.linalg.norm(xi.conj().T @ v + v.conj().T @ xi)
    descent = float(np.real(np.sum(g.conj() * xi)))
    ok = unit_err < 1e-10 and tang < 1e-10 and descent <= 1e-12
    return ok, f"unitary {unit_err:.1e}, tangency {tang:.1e}, descent {descent:.1e}"


def _check_wbb_diagonalizes() -> tuple[bool, str]:
    data = _mini_data()
    eig = opt_manifold.reduce_b(data.problem)
    start = opt_manifold.phase1_feasible(eig)
    # the phase-1 start can have a diagonal Q; the probe states are rotated
    rng = np.random.default_rng(29)
    states = [start] + [probe_state(eig, rng) for _ in range(3)]
    rel = diag_err = 0.0
    ok = True
    for state in states:
        w = opt_manifold.assemble_wbb(eig, state)
        q = w.conj().T @ eig.b_mat @ w
        off = np.linalg.norm(q - np.diag(np.diag(q))) / max(np.linalg.norm(q), 1e-300)
        err = np.abs(np.real(np.diag(q)) - state.b**2)
        ok = ok and off < 1e-8 and bool(np.all(err <= 1e-10 + 1e-8 * state.b**2))
        rel, diag_err = max(rel, off), max(diag_err, float(np.max(err)))
    return ok, f"phase-1 start, 3 rotated: offdiag {rel:.2e}, diagonal error {diag_err:.2e}"


def descent_converged(
    result: opt_manifold.RmJgdResult,
    eig: opt_manifold.EigB,
    t: float,
) -> bool:
    """Whether an RM-JGD run converged by its own stop rule.

    The status must be `converged`, the trace strictly decreasing, and the
    squared Newton decrement at the final state, computed afresh at barrier
    weight t, at most `opt_manifold.NEWTON_TOL`. A run stopped by the iteration cap or a
    failed line search fails, however flat its trace.
    """
    decrement = opt_manifold.newton_step(result.state, eig, t)[2]
    return (
        result.status == "converged"
        and bool(np.all(np.diff(result.trace) < 0))
        and decrement <= opt_manifold.NEWTON_TOL
    )


def _check_rmjgd_descent() -> tuple[bool, str]:
    data = _mini_data()
    eig, t = opt_manifold.reduce_b(data.problem), opt_manifold.BARRIER_T
    starts = {
        "phase-1 start": opt_manifold.phase1_feasible(eig),
        "probe 31": probe_state(eig, np.random.default_rng(31)),
    }
    ok, details = True, []
    for name, state in starts.items():
        result = opt_manifold.rm_jgd(eig, t, state)
        ok = ok and descent_converged(result, eig, t)
        details.append(f"{name}: {result.iterations} iterations, {result.status}")
    return ok, "; ".join(details)


def _check_sdp_invariants() -> tuple[bool, str]:
    data = _small_data()
    problem = data.problem
    sol = opt_sdr.solve_maxdet(problem)
    if sol.status != "optimal":
        return False, f"solver status {sol.status}"
    r = sol.r_bb
    min_eig = float(np.linalg.eigvalsh(r)[0])
    tr_ok = float(np.real(np.trace(r))) <= problem.power_budget + 1e-8
    sens = float(np.real(np.sum(r * problem.psi.T)))
    sens_ok = sens >= problem.gamma0 - 1e-8
    rng = np.random.default_rng(37)
    w = opt_sdr.randomize_rank(sol, problem, rng)
    power = float(np.linalg.norm(w) ** 2)
    tight = abs(power - problem.power_budget) < 1e-9 * max(1.0, problem.power_budget)
    se_w = beamform._rate_bits(problem.h_eff @ w, problem.sigma_c_sq)
    bounded = se_w <= sol.objective_bits + 1e-9
    gap = abs(sol.dual_bits - sol.objective_bits)
    ok = (
        min_eig >= -1e-8 * np.real(np.trace(r))
        and tr_ok and sens_ok and tight and bounded and gap <= 1e-9
    )
    return ok, (
        f"min_eig {min_eig:.1e}, power gap {power - problem.power_budget:.1e}, "
        f"SE(w)-SE(R) {se_w - sol.objective_bits:.2e}, dual gap {gap:.1e} bits"
    )


def _check_fdb_bounds() -> tuple[bool, str]:
    cfg = harness.desk_config(seed=4)
    rows = {a: harness.run_scenario(cfg, a) for a in harness.ALGORITHMS}
    fdb = rows["fdb"].se_bits
    ok = (
        fdb + 1e-6 >= rows["sdr_rrs"].se_bits and fdb + 1e-6 >= rows["rm_jgd"].se_bits
    )
    detail = ", ".join(f"{a}={rows[a].se_bits:.3f}" for a in harness.ALGORITHMS)
    return ok, detail


def _check_music_peak() -> tuple[bool, str]:
    cfg = harness.desk_config(
        seed=2,
        target={"range_m": 20.0, "angle_deg": 45.0, "rcs": 1.0},
        interferers=[{"range_m": 30.0, "angle_deg": 40.0, "rcs": 0.3}],
    )
    truth = cfg.target.location.xy
    grid = GridSpec(
        x0=truth[0] - 3.0, dx=0.25, x1=truth[0] + 3.0,
        y0=truth[1] - 3.0, dy=0.25, y1=truth[1] + 3.0,
    )
    result, _, _ = harness.run_music(cfg, grid)
    err = np.hypot(result.peak_location[0] - truth[0], result.peak_location[1] - truth[1])
    ok = err <= 0.25 * np.sqrt(2.0) + 1e-9
    return ok, f"peak offset {err:.3f} m, lobe width {result.mainlobe_width:.2f} m"


def _check_covariance_subspace() -> tuple[bool, str]:
    rng = np.random.default_rng(41)
    res_in, res_eye, zero_ok = 0.0, np.inf, True
    # both need N > N_RF so that the basis has a nontrivial complement
    for data in (_small_data(paths=1), _mini_data()):
        n_rf, n, u = data.problem.dim, data.config.n_antennas, data.u_tilde
        a = rng.standard_normal((n_rf, n_rf)) + 1j * rng.standard_normal((n_rf, n_rf))
        r_in = u @ (a @ a.conj().T) @ u.conj().T
        res_in = max(res_in, beamform.verify_covariance_subspace(r_in, u))
        res_eye = min(res_eye, beamform.verify_covariance_subspace(np.eye(n), u))
        zero = beamform.verify_covariance_subspace(np.zeros((n, n)), u)
        zero_ok = zero_ok and zero == 0.0
    ok = res_in < 1e-10 and res_eye > 1e-3 and zero_ok
    return ok, f"in-subspace {res_in:.1e}, identity {res_eye:.2f}, zero gives 0: {zero_ok}"


def _check_power_accounting() -> tuple[bool, str]:
    data = _small_data()
    rng = np.random.default_rng(43)
    m = data.config.m_antennas
    k = data.config.k_subarrays
    cols = data.problem.dim // k
    # orthogonal-column analog blocks (DFT columns) make the proxy exact
    dft = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(cols)) / m)
    w_rf = np.zeros((k * m, k * cols), dtype=complex)
    for i in range(k):
        w_rf[i * m : (i + 1) * m, i * cols : (i + 1) * cols] = dft
    w_bb = rng.standard_normal((k * cols, 2)) + 1j * rng.standard_normal((k * cols, 2))
    exact, proxy = beamform.transmit_power(w_rf, w_bb)
    gap_orth = abs(exact - proxy)
    exact2, proxy2 = beamform.transmit_power(
        beamform.optimal_analog(data.u_tilde), w_bb
    )
    return gap_orth < 1e-9, (
        f"orthogonal-case gap {gap_orth:.1e}; steering-case exact {exact2:.3f} "
        f"vs proxy {proxy2:.3f}"
    )


CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("mirror_symmetry", _check_mirror_symmetry),
    ("steering_modulus", _check_steering_modulus),
    ("interphase_oracle", _check_interphase_oracle),
    ("rank_bounds", _check_rank_bounds),
    ("response_modulus", _check_response_modulus),
    ("block_locality", _check_block_locality),
    ("echo_linearity", _check_echo_linearity),
    ("subspace_structure", _check_subspace_structure),
    ("subspace_contains", _check_subspace_contains),
    ("reduced_equals_full", _check_reduced_equals_full),
    ("mvdr_argmax", lambda: mvdr_argmax(_small_data(), np.random.default_rng(13))),
    ("gradient_fd", _check_grad_fd),
    ("tangent_retract", _check_tangent_retract),
    ("wbb_diagonalizes", _check_wbb_diagonalizes),
    ("rmjgd_descent", _check_rmjgd_descent),
    ("sdp_invariants", _check_sdp_invariants),
    ("fdb_bounds", _check_fdb_bounds),
    ("music_peak", _check_music_peak),
    ("covariance_subspace", _check_covariance_subspace),
    ("power_accounting", _check_power_accounting),
)


def validate() -> ValidationReport:
    """Run every check in CHECKS; failures land in the report, never raise."""
    report = ValidationReport()
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as err:
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        wall = (time.perf_counter() - t0) * 1e3
        report.results.append(CheckResult(name, ok, detail, wall))
    return report
