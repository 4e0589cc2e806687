import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from modisac import beamform, channel, cli, harness
from modisac.geometry import ConfigurationError, build_geometry
from modisac.music import GridSpec
from modisac.validation import CHECKS
from modisac import opt_manifold, opt_sdr
from oracles import dense_basis
from reference_corpus import op_seed


TINY = dict(
    subarrays=2,
    antennas_per_subarray=4,
    user_antennas=3,
    paths=1,
    user={"range_m": 10.0, "angle_deg": 10.0},
)


def test_load_config_empty_file_desk(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = harness.load_config(str(path), desk_scale=True)
    assert (cfg.k_subarrays, cfg.m_antennas) == (4, 8)
    assert cfg.n_user_antennas == 4
    assert cfg.n_paths == 2
    assert cfg.n_objects == 2


def test_full_scale_defaults():
    cfg = harness.config_from_dict({})
    assert (cfg.k_subarrays, cfg.m_antennas) == (6, 32)
    assert cfg.n_user_antennas == 16
    assert cfg.user.r == 40.0
    assert cfg.user.theta == pytest.approx(np.deg2rad(15.0))
    assert cfg.target.location.r == 30.0
    assert cfg.target.location.theta == pytest.approx(np.deg2rad(30.0))
    angles = sorted(np.rad2deg(i.location.theta) for i in cfg.interferers)
    assert angles == pytest.approx([-30.0, 40.0])
    assert cfg.sigma_c_sq == pytest.approx(1e-6)
    assert cfg.sigma_s_sq == pytest.approx(1e-5)


def test_config_rejects_small_spacing_factor(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"spacing_factor": 4.0, "antennas_per_subarray": 8}))
    with pytest.raises(ConfigurationError, match="gamma"):
        harness.load_config(str(path))


@pytest.mark.parametrize(
    "doc",
    # a typo, and the channel constants that once were config fields
    [{"subbarrays": 4}, {"gain_reference": 1.0}, {"nlos_extra_loss_db": 10.0},
     {"scatter_range_m": [5.0, 30.0]}, {"scatter_angle_deg": [-60.0, 60.0]}],
    ids=lambda doc: next(iter(doc)),
)
def test_config_rejects_unknown_keys(doc):
    with pytest.raises(ConfigurationError, match="unknown config fields"):
        harness.config_from_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [{"desk_scale": "false"}, {"desk_scale": 1}, {"subarrays": 4.7}, {"seed": 1.9},
     {"streams": 2.5}, {"snapshots": True}, {"paths": "2"}, {"user_antennas": None},
     {"antennas_per_subarray": 8.0}, {"frequency_ghz": "38"}, {"noise_comm_dbm": True},
     {"scnr_threshold_db": "5"}, {"spacing_factor": [64.0]},
     {"user": {"range_m": "40", "angle_deg": 15.0}},
     {"target": {"range_m": 30.0, "angle_deg": True}},
     {"interferers": [{"range_m": 30.0, "angle_deg": 40.0, "rcs": "1"}]}],
    ids=lambda doc: "-".join(f"{k}={v!r}" for k, v in doc.items()),
)
def test_config_rejects_coercible_values(doc):
    # int(), float() and bool() would turn each of these into a different scenario
    with pytest.raises(ConfigurationError, match=next(iter(doc))):
        harness.config_from_dict(doc)


def test_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(ConfigurationError, match="seed"):
        harness.desk_config(seed=-1)
    for command in ("run-scenario", "music"):
        assert cli.main([command, "--desk-scale", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"modisac {command}: error: seed must be >= 0, got -1\n"


def test_null_threshold_disables_sensing():
    cfg = harness.config_from_dict({"scnr_threshold_db": None})
    assert cfg.scnr_min == 0.0


def test_run_scenario_deterministic():
    cfg = harness.desk_config(seed=5, **TINY)
    a = harness.run_scenario(cfg, "fdb")
    b = harness.run_scenario(cfg, "fdb")
    fields = dataclasses.asdict(a)
    for name, value in fields.items():
        if name == "wall_time_ms":
            continue
        assert getattr(b, name) == value, name


def test_run_scenario_unknown_algorithm():
    with pytest.raises(ValueError):
        harness.run_scenario(harness.desk_config(), "gradient_descent")


def test_sdr_rrs_reports_max_iter_iterate(monkeypatch):
    # sensing binds at 60 dB, so one dual Newton step stops short of the optimum
    monkeypatch.setattr(opt_sdr, "MAX_NEWTON_STEPS", 1)
    cfg = harness.desk_config(seed=0, scnr_threshold_db=60.0)
    row = harness.run_scenario(cfg, "sdr_rrs")
    assert row.status == "max_iter"
    assert row.power_proxy <= row.n_streams * (1 + 1e-9)
    assert row.scnr_db >= row.scnr_threshold_db - 1e-4


@pytest.mark.parametrize(
    "solver_status, row_status",
    [("converged", "ok"), ("stalled", "stalled"), ("max_iter", "max_iter")],
)
def test_rm_jgd_status_passes_through(monkeypatch, solver_status, row_status):
    real = opt_manifold.rm_jgd
    monkeypatch.setattr(
        opt_manifold,
        "rm_jgd",
        lambda *args: dataclasses.replace(real(*args), status=solver_status),
    )
    row = harness.run_scenario(harness.desk_config(seed=0, **TINY), "rm_jgd")
    assert row.status == row_status


@pytest.mark.parametrize("algorithm", ["sdr_rrs", "fdb"])
@pytest.mark.parametrize(
    "solver_status, row_status",
    [("optimal", "ok"), ("stalled", "stalled"), ("max_iter", "max_iter")],
)
def test_maxdet_status_passes_through(monkeypatch, algorithm, solver_status, row_status):
    real = opt_sdr.solve_maxdet
    monkeypatch.setattr(
        opt_sdr,
        "solve_maxdet",
        lambda *args, **kw: dataclasses.replace(real(*args, **kw), status=solver_status),
    )
    row = harness.run_scenario(harness.desk_config(seed=0, **TINY), algorithm)
    assert row.status == row_status
    assert np.isfinite(row.se_bits)


@pytest.mark.parametrize("streams", [0, -1, 17])
def test_config_rejects_stream_count_outside_rf_chains(streams):
    # desk scale: N_RF = K (n_objects + n_paths) = 4 (2 + 2) = 16
    with pytest.raises(ConfigurationError, match="n_streams"):
        harness.desk_config(seed=0, streams=streams)
    assert harness.desk_config(seed=0, streams=16).n_streams == 16


def test_infeasible_rm_jgd_start_is_error_row(monkeypatch, capsys):
    # a start outside the barrier's interior (phase 1 can round into one
    # when the threshold sits within ~1e-12 of its certificate bound) is a
    # typed row, not a traceback
    def outside(eig):
        ns = eig.n_streams
        return opt_manifold.ManifoldState(np.eye(ns, dtype=complex), np.full(ns, 1e6))

    monkeypatch.setattr(opt_manifold, "phase1_feasible", outside)
    row = harness.run_scenario(harness.desk_config(seed=0), "rm_jgd")
    assert row.status == "error:InfeasiblePointError"
    assert np.isnan(row.se_bits) and row.iterations == 0

    assert cli.main(["run-scenario", "--desk-scale", "--algo", "rm-jgd"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].split(",")[-2] == "error:InfeasiblePointError"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "module, name, algorithm",
    [(opt_sdr, "solve_maxdet", "sdr_rrs"), (opt_sdr, "solve_maxdet", "fdb"),
     (opt_manifold, "rm_jgd", "rm_jgd")],
)
def test_linalg_error_in_a_solve_is_error_row(monkeypatch, capsys, module, name, algorithm):
    # a factorization that fails inside a solve is a typed row with its
    # configuration columns filled in, and the CLI exits 1 without a traceback
    cfg = harness.desk_config(seed=0)
    config_columns = harness.run_scenario(cfg, algorithm).to_csv().split(",")[:16]

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(module, name, fail)
    row = harness.run_scenario(cfg, algorithm)
    assert row.status == "error:LinAlgError"
    assert row.to_csv().split(",")[:16] == config_columns
    assert np.isnan(row.se_bits) and row.iterations == 0

    assert cli.main(["run-scenario", "--desk-scale", "--algo", algorithm]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].rsplit(",", 1)[0] == row.to_csv().rsplit(",", 1)[0]
    assert "Traceback" not in captured.err


def test_rank_deficient_stream_count_is_error_row(tmp_path, capsys):
    # 5 streams pass the N_RF bound but exceed the rate form's rank (at most
    # the 4 user antennas), which rm_jgd's reduction rejects
    row = harness.run_scenario(harness.desk_config(seed=0, streams=5), "rm_jgd")
    assert row.status == "error:RankDeficiencyError"
    assert (row.n_streams, row.n_rf) == (5, 16)
    assert np.isnan(row.se_bits) and row.iterations == 0

    cfg_path = tmp_path / "s5.yaml"
    cfg_path.write_text(yaml.safe_dump({"desk_scale": True, "streams": 5}))
    code = cli.main(["run-scenario", "--config", str(cfg_path), "--algo", "rm-jgd"])
    assert code == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].rsplit(",", 1)[0] == row.to_csv().rsplit(",", 1)[0]

    base = harness.desk_config(seed=0, streams=5)
    spec = harness.ExperimentSpec(
        base=base,
        sweep_axis="snr",
        values=[0.0],
        algorithms=["rm_jgd"],
        output_path=str(tmp_path / "s5.csv"),
    )
    harness.sweep(spec)
    cell = Path(spec.output_path).read_text().splitlines()[1]
    expected = harness.run_scenario(
        dataclasses.replace(base, seed=harness.derive_seed(0, 0)), "rm_jgd"
    )
    assert cell.rsplit(",", 1)[0] == "0,snr,0.0," + expected.to_csv().rsplit(",", 1)[0]


def test_rm_jgd_phase1_infeasible_is_subspace_status():
    # phase 1's bound covers col(U_B) only; SDR over all of U_tilde meets 60 dB
    cfg = harness.desk_config(
        seed=harness.derive_seed(op_seed(0, 2), 0), scnr_threshold_db=60.0
    )
    assert harness.run_scenario(cfg, "rm_jgd").status == "infeasible_subspace"
    sdr = harness.run_scenario(cfg, "sdr_rrs")
    assert sdr.status == "ok"
    assert sdr.scnr_db >= 60.0 - 1e-4


def _rate_form_rank(g: np.ndarray) -> int:
    """Eigenvalues of G^H G above 1e-10 times the largest: an oracle kept apart
    from `channel.numerical_rank`, whose cut at `opt_sdr.RANK_TOL` = 1e-5 on
    the singular values of G is the same cut, since those are the square roots."""
    vals = np.linalg.eigvalsh(g.conj().T @ g)
    return int(np.count_nonzero(vals > 1e-10 * vals[-1]))


def test_stream_count_is_rate_form_rank():
    for seed in range(3):
        for slot in range(9):
            for db in (0.0, 60.0):
                cfg = harness.desk_config(
                    seed=harness.derive_seed(op_seed(seed, slot), 0),
                    scnr_threshold_db=db,
                )
                data = harness.prepare_scenario(cfg)
                expected = min(
                    channel.numerical_rank(data.h),
                    _rate_form_rank(data.h @ dense_basis(data.analog)),
                    data.problem.dim,
                )
                assert data.problem.n_streams == expected, (seed, slot, db)
    u, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))
    for second, rank in ((2e-5, 2), (1e-6, 1)):
        g = u @ np.diag([1.0, second])
        assert _rate_form_rank(g) == rank
        assert channel.numerical_rank(g, 1e-5) == rank


def test_fdb_row_matches_its_covariance():
    # fdb's row goes through the shared W_BB tail with W_BB = _factor(R_BB);
    # the oracle is the covariance route R_X = U_tilde R_BB U_tilde^H, with
    # U_tilde the dense block-diagonal basis and the echo weights taken as
    # alpha_q^2 g_tq^H R_X g_tq
    configs = [
        harness.desk_config(seed=op_seed(0, slot), scnr_threshold_db=db)
        for slot in range(9)
        for db in (0.0, 60.0)
    ]
    configs.append(harness.config_from_dict({"seed": 0, "scnr_threshold_db": 85.0}))
    for cfg in configs:
        row = harness.run_scenario(cfg, "fdb")
        data = harness.prepare_scenario(cfg)
        solution = opt_sdr.solve_maxdet(data.problem)
        assert (row.status, row.se_bits) == ("ok", solution.dual_bits), cfg.seed
        u = dense_basis(data.analog)
        r_x = u @ solution.r_bb @ u.conj().T
        power = np.real(np.trace(r_x))
        proxy = cfg.m_antennas * np.real(np.trace(solution.r_bb))
        assert row.power_exact == pytest.approx(power, rel=1e-12, abs=0), cfg.seed
        assert row.power_proxy == pytest.approx(proxy, rel=1e-12, abs=0), cfg.seed
        weights = np.array([
            r.alpha ** 2 * np.real(r.g_t.conj() @ r_x @ r.g_t) for r in data.responses
        ])
        w_star = beamform.mvdr_receive(data.responses, weights, cfg.sigma_s_sq)
        scnr_db = 10 * np.log10(beamform.scnr(w_star, data.responses, weights, cfg.sigma_s_sq))
        assert abs(row.scnr_db - scnr_db) <= 1e-9, cfg.seed
        beamform.check_hybrid(
            data.analog, opt_sdr._factor(solution.r_bb), data.problem.power_budget
        )


def test_one_factor_of_r_star_per_solve_round(monkeypatch):
    # a sweep point's prepare, fdb and sdr_rrs eigendecompose a covariance
    # only in solve_maxdet's rounds; fdb and sdr_rrs read the last round's factor
    factored, checked = [], []
    real_factor, real_check = opt_sdr._factor, beamform.check_hybrid
    monkeypatch.setattr(opt_sdr, "_factor", lambda r: factored.append(r) or real_factor(r))
    monkeypatch.setattr(
        beamform, "check_hybrid", lambda *args: checked.append(args[1]) or real_check(*args)
    )
    cfg = harness.desk_config(seed=0, scnr_threshold_db=60.0)
    data = harness.prepare_scenario(cfg)
    for algorithm in ("fdb", "sdr_rrs"):
        assert harness.run_scenario(cfg, algorithm, data).status == "ok"
    solution = data.solution
    assert solution.newton_steps > 0  # the sensing floor binds: several rounds
    assert len(factored) == 1 + solution.newton_steps
    assert checked[0] is solution.w_bb


def test_refreshed_filter_improves_scnr(desk_data):
    cfg = desk_data.config
    n = cfg.n_antennas
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    weights = beamform.echo_weights(desk_data.responses, a)
    fixed = beamform.scnr(desk_data.w_fixed, desk_data.responses, weights, cfg.sigma_s_sq)
    w_star = beamform.mvdr_receive(desk_data.responses, weights, cfg.sigma_s_sq)
    refreshed = beamform.scnr(w_star, desk_data.responses, weights, cfg.sigma_s_sq)
    assert refreshed >= fixed


def test_apply_axis_snr():
    base = harness.desk_config()
    out = harness.apply_axis(base, "snr", 20.0)
    assert out.sigma_c_sq == pytest.approx(base.sigma_c_sq * 1e-2)


def test_apply_axis_scnr_threshold():
    out = harness.apply_axis(harness.desk_config(), "scnr_threshold", 10.0)
    assert out.scnr_min == pytest.approx(10.0)


def test_apply_axis_rf_chains():
    base = harness.desk_config()  # K=4, Q=2
    out = harness.apply_axis(base, "rf_chains", 16)
    assert out.n_paths == 2
    with pytest.raises(ConfigurationError):
        harness.apply_axis(base, "rf_chains", 18)


def test_apply_axis_subarray_scale():
    base = harness.desk_config()  # K=4, M=8, N=32
    out = harness.apply_axis(base, "subarray_scale", (2, 16))
    assert (out.k_subarrays, out.m_antennas) == (2, 16)
    # aperture preserved: span in units of d
    span = lambda c: (c.k_subarrays - 1) * c.gamma + (c.m_antennas - 1)
    assert span(out) == pytest.approx(span(base))
    with pytest.raises(ConfigurationError):
        harness.apply_axis(base, "subarray_scale", (3, 8))


@pytest.mark.parametrize("value", [(2, 16, 99), (2,), [], 32])
def test_apply_axis_subarray_scale_needs_exactly_two_integers(value, capsys):
    # (2, 16, 99) used to run K=2, M=16 under the CSV value 2x16x99, and a
    # one-entry value was an untyped error:ValueError row
    with pytest.raises(ConfigurationError, match="pair"):
        harness.apply_axis(harness.desk_config(), "subarray_scale", value)
    [(_, row)] = harness._run_point(("subarray_scale", value, ["fdb"], 0, harness.desk_config()))
    assert row.status == "error:ConfigurationError"


def test_apply_axis_user_distance_and_count_and_layout():
    base = harness.desk_config()
    assert harness.apply_axis(base, "user_distance", 25.0).user.r == 25.0
    assert harness.apply_axis(base, "subarray_count", 2).k_subarrays == 2
    assert harness.apply_axis(base, "layout", "collocated").layout == "collocated"


def test_layout_offsets():
    cfg = harness.desk_config(layout="collocated")
    g = harness.prepare_scenario(cfg).geometry
    # contiguous subarrays: uniform half-wavelength spacing throughout
    xs = g.tx_positions[:, :, 0].ravel()
    assert np.allclose(np.diff(xs), cfg.d, atol=1e-12)
    cfg_r = harness.desk_config(layout="random", seed=3)
    g_r = harness.prepare_scenario(cfg_r).geometry
    refs = g_r.reference_positions("tx")[:, 0]
    assert np.all(np.diff(refs) >= cfg_r.m_antennas * cfg_r.d - 1e-12)


def _strip_timing(text: str) -> str:
    out = []
    for line in text.splitlines():
        if line.startswith("summary,"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return "\n".join(out)


def _tiny_spec(tmp_path, name):
    base = harness.desk_config(seed=7, **TINY)
    return harness.ExperimentSpec(
        base=base,
        sweep_axis="snr",
        values=[0.0, 10.0],
        algorithms=["fdb"],
        repetitions=2,
        output_path=str(tmp_path / name),
    )


def test_sweep_rows_complete_and_deterministic(tmp_path):
    spec1 = _tiny_spec(tmp_path, "a.csv")
    spec2 = _tiny_spec(tmp_path, "b.csv")
    harness.sweep(spec1)
    harness.sweep(spec2)
    text1 = Path(spec1.output_path).read_text()
    text2 = Path(spec2.output_path).read_text()
    assert _strip_timing(text1) == _strip_timing(text2)
    rows = [l for l in text1.splitlines()[1:] if not l.startswith("summary,")]
    assert len(rows) == 2 * 1 * 2  # values x algorithms x repetitions
    summaries = [l for l in text1.splitlines() if l.startswith("summary,")]
    assert len(summaries) == 2  # one per (value, algorithm) cell


def test_sweep_failure_rows_do_not_abort(tmp_path, capsys):
    base = harness.desk_config(seed=7, **TINY)
    spec = harness.ExperimentSpec(
        base=base,
        sweep_axis="rf_chains",
        values=[6, 7],  # 7 is not divisible by K=2
        algorithms=["fdb"],
        repetitions=1,
        output_path=str(tmp_path / "fail.csv"),
    )
    harness.sweep(spec)
    lines = Path(spec.output_path).read_text().splitlines()
    rows = [l for l in lines[1:] if not l.startswith("summary,")]
    assert len(rows) == 2
    assert any("error:ConfigurationError" in r for r in rows)
    assert any(",ok," in r for r in rows)
    # the CSV keeps only the type; stderr names the cell and the message
    seed = harness.derive_seed(base.seed, 0)
    err = capsys.readouterr().err
    assert f"fdb seed {seed}: ConfigurationError: rf_chains=7 not divisible by K=2" in err


def test_sweep_prepare_failure_fails_every_algorithm_of_the_point(tmp_path, capsys, monkeypatch):
    # a point prepares its scenario once; when that fails, each algorithm
    # still gets its own error row and its own stderr line
    def fail(config):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(harness, "prepare_scenario", fail)
    base = harness.desk_config(seed=7, **TINY)
    spec = harness.ExperimentSpec(
        base=base, sweep_axis="snr", values=[0.0], repetitions=2,
        output_path=str(tmp_path / "fail.csv"),
    )
    harness.sweep(spec)
    lines = Path(spec.output_path).read_text().splitlines()
    rows = [l.split(",") for l in lines[1:] if not l.startswith("summary,")]
    assert [(r[0], r[3]) for r in rows] == [
        (str(i), algo) for i, algo in enumerate(a for a in harness.ALGORITHMS for _ in range(2))
    ]
    assert all(r[-2] == "error:LinAlgError" for r in rows)
    err = capsys.readouterr().err
    for rep in range(2):
        seed = harness.derive_seed(base.seed, rep)
        for algo in harness.ALGORITHMS:
            assert err.count(f"{algo} seed {seed}: LinAlgError: Singular matrix") == 1


@pytest.mark.parametrize(
    "axis, value",
    [("subarray_count", 4.7), ("subarray_count", True), ("rf_chains", "16"),
     ("rf_chains", 16.0), ("subarray_scale", (2.0, 16)), ("subarray_scale", (2, "16")),
     ("snr", "20"), ("snr", True), ("scnr_threshold", None), ("user_distance", "25")],
)
def test_sweep_axis_values_are_not_coerced(axis, value, capsys):
    # int() would run K=4 for 4.7, K=1 for True and 16 chains for "16";
    # float() would run 1 dB for True and 25 m for "25"
    kind = "a number" if axis in ("snr", "scnr_threshold", "user_distance") else "an integer"
    [(value_str, row)] = harness._run_point((axis, value, ["fdb"], 0, harness.desk_config()))
    assert row.status == "error:ConfigurationError"
    assert value_str == harness._format_value(value)
    assert f"ConfigurationError: {axis} must be {kind}" in capsys.readouterr().err


def test_paired_seeds_across_values(tmp_path):
    # the channel seed depends on the repetition, not the axis value
    base = harness.desk_config(seed=7, **TINY)
    c1 = harness.apply_axis(base, "scnr_threshold", 0.0)
    c2 = harness.apply_axis(base, "scnr_threshold", 10.0)
    s1 = dataclasses.replace(c1, seed=harness.derive_seed(base.seed, 0))
    s2 = dataclasses.replace(c2, seed=harness.derive_seed(base.seed, 0))
    d1 = harness.prepare_scenario(s1)
    d2 = harness.prepare_scenario(s2)
    assert np.array_equal(d1.h, d2.h)


def test_load_experiment(tmp_path):
    doc = {
        "base": {"desk_scale": True, "seed": 3},
        "axis": "layout",
        "values": ["uniform", "collocated"],
        "algorithms": ["sdr_rrs"],
        "repetitions": 2,
        "output": str(tmp_path / "out.csv"),
    }
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(doc))
    spec = harness.load_experiment(str(path))
    assert spec.sweep_axis == "layout"
    assert spec.values == ["uniform", "collocated"]
    assert spec.base.k_subarrays == 4


@pytest.mark.parametrize(
    "load, doc",
    [
        (harness.load_experiment, [1, 2]),
        (harness.load_experiment, {"values": 5}),
        (harness.load_experiment, {"values": [0.0], "base": [1]}),
        (harness.load_experiment, {"values": [0.0], "algorithms": 5}),
        (harness.load_experiment, {"values": [0.0], "repetitions": "2"}),
        (harness.load_experiment, {"values": [0.0], "repetitions": 1.5}),
        (harness.load_config, [1]),
    ],
    ids=["list_root", "scalar_values", "list_base", "scalar_algorithms",
         "string_repetitions", "float_repetitions", "config_list_root"],
)
def test_malformed_spec_raises_configuration_error(tmp_path, load, doc):
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigurationError):
        load(str(path))


CHECK_NAMES = (
    "mirror_symmetry",
    "steering_modulus",
    "interphase_oracle",
    "rank_bounds",
    "response_modulus",
    "block_locality",
    "echo_linearity",
    "subspace_structure",
    "subspace_contains",
    "reduced_equals_full",
    "mvdr_argmax",
    "gradient_fd",
    "tangent_retract",
    "wbb_diagonalizes",
    "rmjgd_descent",
    "sdp_invariants",
    "fdb_bounds",
    "music_peak",
    "covariance_subspace",
    "power_accounting",
)


def test_validate_passes(validate_run):
    """Every check passes, in this order: the checks are the only copy of
    these invariants, so a dropped or renamed check must fail here."""
    code, out, lines = validate_run
    assert code == 0, out
    rows = list(csv.reader(lines[1:]))
    assert tuple(row[0] for row in rows) == CHECK_NAMES
    assert all(row[1] == "1" for row in rows), rows
    assert out.count("[PASS]") == len(CHECK_NAMES)


def test_validate_mutation_canary(monkeypatch):
    grad_v = opt_manifold.grad_v
    monkeypatch.setattr(opt_manifold, "grad_v", lambda *args: -grad_v(*args))
    ok, detail = dict(CHECKS)["gradient_fd"]()
    assert not ok, detail


def test_validate_report_csv(validate_run):
    assert validate_run[2][0] == "check,ok,detail,wall_ms"


def test_cli_run_scenario(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"desk_scale": True, **TINY}))
    out_path = tmp_path / "row.csv"
    code = cli.main(
        [
            "run-scenario",
            "--config",
            str(cfg_path),
            "--algo",
            "fdb",
            "--seed",
            "1",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert harness.ResultRow.HEADER in captured
    lines = Path(out_path).read_text().splitlines()
    assert lines[0] == harness.ResultRow.HEADER
    assert len(lines) == 2


def test_cli_music(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        yaml.safe_dump(
            {
                "desk_scale": True,
                "target": {"range_m": 20.0, "angle_deg": 45.0, "rcs": 0.15},
                "interferers": [{"range_m": 30.0, "angle_deg": 40.0, "rcs": 0.3}],
                "noise_sens_dbm": -10.0,
            }
        )
    )
    out_prefix = str(tmp_path / "spec")
    code = cli.main(
        [
            "music",
            "--config",
            str(cfg_path),
            "--grid",
            "12:0.5:16,12:0.5:16",
            "--out",
            out_prefix,
        ]
    )
    assert code == 0
    assert os.path.exists(out_prefix + ".csv")
    assert os.path.exists(out_prefix + ".grid")
    assert "peak at" in capsys.readouterr().out


@pytest.mark.parametrize("grid", ["foo", "0:0:1", "0:1:2:3"])
def test_cli_music_rejects_bad_grid(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["music", "--desk-scale", "--grid", grid])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_cli_music_infeasible_threshold_is_a_failed_run(tmp_path, capsys):
    # no transmit design meets a 200 dB SCNR threshold: a typed error, and
    # the CLI prints one line on stderr and exits 1
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"desk_scale": True, "scnr_threshold_db": 200}))
    with pytest.raises(harness.TransmitDesignError, match="infeasible"):
        harness.run_music(harness.load_config(str(cfg_path)), GridSpec.parse("10:1:11"))
    assert cli.main(["music", "--config", str(cfg_path), "--grid", "10:1:11"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "modisac music: error: transmit optimization failed: infeasible\n"


def test_cli_run_scenario_target_on_a_reference_antenna_is_a_failed_run(tmp_path, capsys):
    # at 2 m and 90 degrees the desk target sits on the first transmit
    # reference antenna: the run fails as `music` does, with one line
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(
        {"desk_scale": True, "target": {"range_m": 2.0, "angle_deg": 90.0}}))
    assert cli.main(["run-scenario", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("modisac run-scenario: error: location coincides with a reference "
                   "antenna (tx)\n")


def test_cli_music_grid_on_a_reference_antenna_is_a_failed_run(capsys):
    # a one-cell grid on a receive reference antenna has no unflagged cell
    config = harness.config_from_dict({}, desk_scale=True)
    x, y = build_geometry(config).reference_positions("rx")[0]
    assert cli.main(["music", "--desk-scale", f"--grid={x}:1:{x},{y}:1:{y}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("modisac music: error: spectrum is identically zero")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    doc = {
        "base": {"desk_scale": True, "seed": 1, **TINY},
        "axis": "snr",
        "values": [0.0],
        "algorithms": ["fdb"],
        "repetitions": 1,
        "output": str(out),
    }
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump(doc))
    assert cli.main(["sweep", "--spec", str(spec_path)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "command, flag, doc",
    [
        ("sweep", "--spec", {"values": 5}),
        ("run-scenario", "--config", [{"seed": 0}]),
        # doc None: no file at all; a str: written as is, and not YAML
        pytest.param("sweep", "--spec", None, id="sweep---spec-missing"),
        pytest.param("run-scenario", "--config", None, id="run-scenario---config-missing"),
        pytest.param("sweep", "--spec", "seed: [1\n", id="sweep---spec-malformed"),
        pytest.param(
            "run-scenario", "--config", "seed: [1\n", id="run-scenario---config-malformed"
        ),
    ],
)
def test_cli_bad_file_is_a_usage_error(tmp_path, capsys, command, flag, doc):
    path = tmp_path / "bad.yaml"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else yaml.safe_dump(doc))
    assert cli.main([command, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"modisac {command}: error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args",
    [["sweep", "--spec"], ["run-scenario", "--desk-scale", "--out"],
     ["music", "--desk-scale", "--grid", "19:1:21,19:1:21", "--out"]],
    ids=lambda args: args[0],
)
def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch, args):
    # the path is tried before the run: nothing runs and nothing is printed
    for name in ("run_scenario", "run_music"):
        monkeypatch.setattr(harness, name, lambda *_: pytest.fail(f"{name} was called"))
    missing = tmp_path / "missing_dir" / "out"
    if args[0] == "sweep":
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump({"base": {"desk_scale": True, **TINY}, "values": [0.0],
                                        "algorithms": ["fdb"], "output": str(missing)}))
        args = args + [str(spec)]
    else:
        args = args + [str(missing)]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"modisac {args[0]}: error: ") and "missing_dir" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_result_row_csv_bytes():
    """The CSV header and formats are pinned: sweep outputs are compared byte for byte."""
    assert harness.ResultRow.HEADER == (
        "algorithm,seed,k_subarrays,m_antennas,gamma,n_user,n_paths,n_objects,"
        "n_streams,n_rf,layout,user_range_m,user_angle_deg,scnr_threshold_db,"
        "sigma_c_sq,sigma_s_sq,se_bits,scnr_db,power_exact,power_proxy,"
        "iterations,status,wall_time_ms"
    )
    row = harness.ResultRow(
        algorithm="sdr_rrs", seed=7, k_subarrays=4, m_antennas=8, gamma=64.0,
        n_user=4, n_paths=2, n_objects=2, n_streams=4, n_rf=16, layout="uniform",
        user_range_m=40.0, user_angle_deg=15.000000000000002,
        scnr_threshold_db=-np.inf, sigma_c_sq=1e-6, sigma_s_sq=np.float64(1e-5),
        se_bits=35.891234567891, scnr_db=49.123456789123,
        power_exact=1.2345678901234, power_proxy=0.5, iterations=3, status="ok",
        wall_time_ms=12.34567,
    )
    assert row.to_csv() == (
        "sdr_rrs,7,4,8,64,4,2,2,4,16,uniform,40,15,-inf,1e-06,1e-05,"
        "35.8912346,49.1234568,1.23456789,0.5,3,ok,12.346"
    )
    error = harness._error_row("fdb", 123, ValueError("x"))
    assert error.to_csv() == "fdb,123," + "nan," * 18 + "0,error:ValueError,0.000"


def test_full_scale_row_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # a binding full-scale rm_jgd row: its Newton step count follows the last
    # bits of the fixed filter, so every BLAS call on the way must not depend
    # on the thread count
    config = tmp_path / "binding.yaml"
    config.write_text("scnr_threshold_db: 80\n")
    src = str(Path(harness.__file__).parents[1])
    code = "import sys; from modisac.cli import main; sys.exit(main(sys.argv[1:]))"
    rows = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code, "run-scenario", "--config", str(config),
             "--seed", "3", "--algo", "rm-jgd"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        (row,) = csv.DictReader(out.splitlines())
        del row["wall_time_ms"]
        rows.append(row)
    assert rows[0]["status"] == "ok"
    assert rows[0] == rows[1]


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    # the desk sweep of the benchmark: every algorithm at a slack and a
    # binding threshold, in one process and in a pool of two
    texts = []
    for workers in ("1", "2"):
        monkeypatch.setenv("MODISAC_WORKERS", workers)
        spec = harness.ExperimentSpec(
            base=harness.desk_config(seed=0), sweep_axis="scnr_threshold", values=[0.0, 60.0],
            algorithms=list(harness.ALGORITHMS), repetitions=2,
            output_path=str(tmp_path / f"workers{workers}.csv"),
        )
        texts.append(_strip_timing(Path(harness.sweep(spec)).read_text()))
    assert len(texts[0].splitlines()) == 1 + 12 + 6  # header, cells, summaries
    assert ",error:" not in texts[0] and texts[0] == texts[1]


def test_cli_accepts_dashed_algorithm(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"desk_scale": True, **TINY}))
    code = cli.main(
        ["run-scenario", "--config", str(cfg_path), "--algo", "rm-jgd", "--seed", "0"]
    )
    assert code == 0
    assert "rm_jgd," in capsys.readouterr().out  # result row carries the algorithm
