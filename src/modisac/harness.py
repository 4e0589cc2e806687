"""Scenario configuration, end-to-end runs and experiment sweeps.

A run builds the geometry and channels, fixes the receive filter from
omnidirectional transmission, constructs the subarray-response subspace and
the reduced sensing forms, hands the digital problem to the chosen optimizer
and finally refreshes the receive filter from the optimized covariance
before reporting rate and SCNR.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from . import beamform, channel, geometry as geo, opt_manifold, opt_sdr
from .geometry import ConfigurationError, PolarPoint, ScenarioConfig, SceneObject

ALGORITHMS = ("rm_jgd", "sdr_rrs", "fdb")

_FULL_DEFAULTS = {
    "frequency_ghz": 38.0,
    "subarrays": 6,
    "antennas_per_subarray": 32,
    "spacing_factor": 64.0,
    "array_half_separation_m": 2.0,
    "user_antennas": 16,
    "paths": 4,
    "user": {"range_m": 40.0, "angle_deg": 15.0},
    "target": {"range_m": 30.0, "angle_deg": 30.0, "rcs": 1.0},
    "interferers": [
        {"range_m": 30.0, "angle_deg": 40.0, "rcs": 1.0},
        {"range_m": 30.0, "angle_deg": -30.0, "rcs": 1.0},
    ],
    "noise_comm_dbm": -30.0,
    "noise_sens_dbm": -20.0,
    "scnr_threshold_db": 5.0,
    "streams": None,
    "snapshots": 256,
    "seed": 0,
    "layout": "uniform",
    "gain_reference": 1.0,
    "nlos_extra_loss_db": 10.0,
    "scatter_range_m": [5.0, 30.0],
    "scatter_angle_deg": [-60.0, 60.0],
}

# Reduced preset sized so that a full validation or acceptance run finishes
# in minutes: N = 32 antennas, N_RF = 16 chains.
_DESK_OVERRIDES = {
    "subarrays": 4,
    "antennas_per_subarray": 8,
    "user_antennas": 4,
    "paths": 2,
    "interferers": [{"range_m": 30.0, "angle_deg": 40.0, "rcs": 1.0}],
}


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def _point(doc: dict, key: str) -> PolarPoint:
    try:
        return PolarPoint(float(doc["range_m"]), float(np.deg2rad(doc["angle_deg"])))
    except (KeyError, TypeError) as err:
        raise ConfigurationError(f"field {key!r}: expected range_m/angle_deg map") from err


def _object(doc: dict, key: str) -> SceneObject:
    return SceneObject(_point(doc, key), float(doc.get("rcs", 1.0)))


def config_from_dict(doc: Optional[dict], desk_scale: bool = False) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain mapping, filling defaults.

    Unknown keys are rejected so that typos surface immediately; units are
    converted here (GHz, dBm, degrees) so the config itself is SI-linear.
    """
    if doc is not None and not isinstance(doc, dict):
        raise ConfigurationError(f"config root must be a mapping, got {type(doc)}")
    doc = dict(doc or {})
    desk = bool(doc.pop("desk_scale", desk_scale))
    defaults = dict(_FULL_DEFAULTS)
    if desk:
        defaults.update(_DESK_OVERRIDES)
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    merged = {**defaults, **doc}
    try:
        return ScenarioConfig(
            carrier_frequency=float(merged["frequency_ghz"]) * 1e9,
            k_subarrays=int(merged["subarrays"]),
            m_antennas=int(merged["antennas_per_subarray"]),
            gamma=float(merged["spacing_factor"]),
            d0=float(merged["array_half_separation_m"]),
            n_user_antennas=int(merged["user_antennas"]),
            n_paths=int(merged["paths"]),
            user=_point(merged["user"], "user"),
            target=_object(merged["target"], "target"),
            interferers=tuple(
                _object(i, "interferers") for i in merged["interferers"]
            ),
            sigma_c_sq=dbm_to_watts(float(merged["noise_comm_dbm"])),
            sigma_s_sq=dbm_to_watts(float(merged["noise_sens_dbm"])),
            # null threshold disables the sensing constraint entirely
            scnr_min=0.0
            if merged["scnr_threshold_db"] is None
            else 10.0 ** (float(merged["scnr_threshold_db"]) / 10.0),
            n_streams=None if merged["streams"] is None else int(merged["streams"]),
            snapshots=int(merged["snapshots"]),
            seed=int(merged["seed"]),
            layout=str(merged["layout"]),
            gain_reference=float(merged["gain_reference"]),
            nlos_extra_loss_db=float(merged["nlos_extra_loss_db"]),
            scatter_range=tuple(float(v) for v in merged["scatter_range_m"]),
            scatter_angle=tuple(
                float(np.deg2rad(v)) for v in merged["scatter_angle_deg"]
            ),
        )
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"invalid config value: {err}") from err


def load_config(path: str, desk_scale: bool = False) -> ScenarioConfig:
    """Load a YAML scenario file; empty files yield the defaults."""
    with open(path) as f:
        doc = yaml.safe_load(f)
    return config_from_dict(doc, desk_scale=desk_scale)


def desk_config(**overrides) -> ScenarioConfig:
    """Desk-scale default scenario; overrides use the config-file field names."""
    return config_from_dict(overrides, desk_scale=True)


def derive_seed(master: int, *keys: int) -> int:
    """Deterministic child seed from a master seed and index keys."""
    return int(np.random.SeedSequence([master, *keys]).generate_state(1)[0])


def _layout_offsets(
    config: ScenarioConfig, rng: np.random.Generator
) -> Optional[np.ndarray]:
    """Reference x-offsets for the configured subarray layout."""
    k, m, d = config.k_subarrays, config.m_antennas, config.d
    if config.layout == "uniform":
        return None
    if config.layout == "collocated":
        # contiguous subarrays: reference spacing M*d keeps half-wavelength
        # element spacing across the whole array
        return config.d0 + np.arange(k) * m * d
    span = (k - 1) * config.d_s
    free = max(span - (k - 1) * m * d, 0.0)
    u = np.sort(rng.uniform(0.0, free, size=k))
    return config.d0 + u + np.arange(k) * m * d


@dataclass
class ScenarioData:
    """Everything a digital-beamformer optimizer needs for one instance."""

    config: ScenarioConfig
    geometry: geo.ArrayGeometry
    h: np.ndarray
    responses: tuple[channel.ObjectResponse, ...]
    alphas: np.ndarray
    w_fixed: beamform.ReceiveBeamformer
    basis: beamform.SubspaceBasis
    phi_set: beamform.PhiSet
    n_streams: int

    @property
    def n_rf(self) -> int:
        return self.basis.n_rf

    def reduced_eig(self) -> opt_manifold.EigB:
        return opt_manifold.reduce_b(self.sdr_problem())

    def sdr_problem(self) -> opt_sdr.MaxDetProblem:
        return opt_sdr.make_maxdet_problem(
            self.h,
            self.basis,
            self.phi_set,
            self.alphas,
            self.config.scnr_min,
            self.config.sigma_c_sq,
            self.n_streams,
        )


def prepare_scenario(config: ScenarioConfig) -> ScenarioData:
    """Deterministically build geometry, channels, fixed filter and subspace.

    The RNG order is fixed (layout draw, then path scatterers) so a seed
    pins the whole instance. The fixed receive filter comes from
    omnidirectional transmission R_X = I.
    """
    rng = np.random.default_rng(config.seed)
    geometry = geo.build_geometry(config, _layout_offsets(config, rng))
    paths = channel.draw_paths(config, geometry, rng)
    h = channel.build_comm_channel(geometry, paths, config.user, config.n_user_antennas)
    objects = config.scene_objects
    responses = channel.build_responses(geometry, objects)
    alphas = np.array([o.alpha for o in objects])
    n = config.n_antennas
    w_fixed = beamform.mvdr_receive(
        responses, alphas, np.eye(n), config.sigma_s_sq
    )
    basis = beamform.build_subspace(geometry, paths, responses)
    phi_set = beamform.phi_matrices(
        basis, responses, w_fixed.w, config.scnr_min, config.sigma_s_sq
    )
    if config.n_streams is not None:
        n_streams = config.n_streams
    else:
        # channel rank, additionally capped by the usable rank of the reduced
        # rate form: `reduce_b` keeps eigenvalues of G^H G above 1e-10 times
        # the largest, i.e. singular values of G = H U_tilde above 1e-5
        n_streams = min(
            channel.numerical_rank(h),
            channel.numerical_rank(h @ basis.u_tilde, 1e-5),
            basis.n_rf,
        )
    return ScenarioData(
        config=config,
        geometry=geometry,
        h=h,
        responses=responses,
        alphas=alphas,
        w_fixed=w_fixed,
        basis=basis,
        phi_set=phi_set,
        n_streams=n_streams,
    )


@dataclass
class ResultRow:
    """One algorithm run: configuration knobs plus achieved metrics."""

    algorithm: str
    seed: int
    k_subarrays: int
    m_antennas: int
    gamma: float
    n_user: int
    n_paths: int
    n_objects: int
    n_streams: int
    n_rf: int
    layout: str
    user_range_m: float
    user_angle_deg: float
    scnr_threshold_db: float
    sigma_c_sq: float
    sigma_s_sq: float
    se_bits: float
    scnr_db: float
    power_exact: float
    power_proxy: float
    iterations: int
    status: str
    wall_time_ms: float

    HEADER = (
        "algorithm,seed,k_subarrays,m_antennas,gamma,n_user,n_paths,n_objects,"
        "n_streams,n_rf,layout,user_range_m,user_angle_deg,scnr_threshold_db,"
        "sigma_c_sq,sigma_s_sq,se_bits,scnr_db,power_exact,power_proxy,"
        "iterations,status,wall_time_ms"
    )

    def to_csv(self) -> str:
        cfgpart = (
            f"{self.algorithm},{self.seed},{self.k_subarrays},{self.m_antennas},"
            f"{self.gamma:.6g},{self.n_user},{self.n_paths},{self.n_objects},"
            f"{self.n_streams},{self.n_rf},{self.layout},{self.user_range_m:.6g},"
            f"{self.user_angle_deg:.6g},{self.scnr_threshold_db:.6g},"
            f"{self.sigma_c_sq:.9g},{self.sigma_s_sq:.9g}"
        )
        return (
            f"{cfgpart},{self.se_bits:.9g},{self.scnr_db:.9g},"
            f"{self.power_exact:.9g},{self.power_proxy:.9g},{self.iterations},"
            f"{self.status},{self.wall_time_ms:.3f}"
        )


# Solver stop reasons that mean the problem was solved; every other status
# (max_iter, stalled, infeasible, ...) passes through to the row unchanged.
_SOLVED_STATUS = {"converged": "ok", "optimal": "ok"}
# Row statuses whose metrics are usable: the CLI exits 0 on these only.
SUCCESS_STATUSES = ("ok", "max_iter")


def run_scenario(config: ScenarioConfig, algorithm: str) -> ResultRow:
    """Run the full pipeline for one algorithm and report final metrics.

    Each algorithm yields W_BB (fdb: the relaxed R_BB), its rate, iteration
    count and status; one shared tail forms the transmit covariance and its
    power and refreshes the receive filter from it before the SCNR is
    measured, so the reported value reflects the MVDR filter the receiver
    would actually deploy. An rm_jgd run whose phase 1 or stream count fails
    is a row with status `infeasible_subspace` or `error:RankDeficiencyError`;
    a start outside the barrier's interior is an `error:InfeasiblePointError`
    row.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    t0 = time.perf_counter()
    data = prepare_scenario(config)
    w_rf = beamform.optimal_analog(data.basis)
    w_bb = r_bb = None
    se_bits, iterations = np.nan, 0
    try:
        if algorithm == "rm_jgd":
            eig = data.reduced_eig()
            init = opt_manifold.phase1_feasible(eig)
            result = opt_manifold.rm_jgd(eig, opt_manifold.ManifoldConfig(), init)
            status, w_bb, iterations = result.status, result.w_bb, result.iterations
            se_bits = beamform.spectral_efficiency(data.h, w_rf, w_bb, config.sigma_c_sq)
        elif algorithm == "sdr_rrs":
            # salt 2 keeps the randomization draws apart from the scenario's
            rng = np.random.default_rng(derive_seed(config.seed, 2))
            result = opt_sdr.sdr_rrs(data.sdr_problem(), rng)
            status = result.status
            if result.w_bb is not None:
                w_bb, se_bits = result.w_bb, result.se_bits
                iterations = result.solution.newton_steps
        else:  # fdb
            solution = opt_sdr.solve_maxdet(data.sdr_problem())
            status = solution.status
            if status != "infeasible":
                r_bb, se_bits = solution.r_bb, solution.dual_bits
                iterations = solution.newton_steps
    except opt_manifold.InfeasibleProblemError:
        # phase 1 certifies infeasibility only within col(U_B), the rate
        # form's top eigenspace, not over the whole subarray-response subspace
        status = "infeasible_subspace"
    except (opt_manifold.RankDeficiencyError, opt_manifold.InfeasiblePointError) as err:
        # a configured stream count above the rank of the rate form or a
        # start outside the barrier's interior
        status = f"error:{type(err).__name__}"
    scnr_db = power_exact = power_proxy = np.nan
    r_x = None
    if w_bb is not None:
        beamform.check_hybrid(w_rf, w_bb, config.k_subarrays, config.m_antennas)
        ww = w_rf @ w_bb
        r_x = ww @ ww.conj().T
        power_exact, power_proxy = beamform.transmit_power(w_rf, w_bb)
    elif r_bb is not None:
        r_x = data.basis.u_tilde @ r_bb @ data.basis.u_tilde.conj().T
        power_exact = float(np.real(np.trace(r_x)))
        power_proxy = float(config.m_antennas * np.real(np.trace(r_bb)))
    if r_x is not None:
        w_star = beamform.mvdr_receive(
            data.responses, data.alphas, r_x, config.sigma_s_sq
        )
        scnr_lin = beamform.scnr(
            w_star.w, data.responses, data.alphas, r_x, config.sigma_s_sq
        )
        scnr_db = 10.0 * np.log10(scnr_lin) if scnr_lin > 0 else -np.inf
    return ResultRow(
        algorithm=algorithm,
        seed=config.seed,
        k_subarrays=config.k_subarrays,
        m_antennas=config.m_antennas,
        gamma=config.gamma,
        n_user=config.n_user_antennas,
        n_paths=config.n_paths,
        n_objects=config.n_objects,
        n_streams=data.n_streams,
        n_rf=data.n_rf,
        layout=config.layout,
        user_range_m=config.user.r,
        user_angle_deg=float(np.rad2deg(config.user.theta)),
        scnr_threshold_db=float(10.0 * np.log10(config.scnr_min))
        if config.scnr_min > 0
        else -np.inf,
        sigma_c_sq=config.sigma_c_sq,
        sigma_s_sq=config.sigma_s_sq,
        se_bits=se_bits,
        scnr_db=scnr_db,
        power_exact=power_exact,
        power_proxy=power_proxy,
        iterations=iterations,
        status=_SOLVED_STATUS.get(status, status),
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


def _error_row(algorithm: str, seed: int, err: Exception) -> ResultRow:
    """Row of a sweep cell that raised: every configuration and metric
    column is nan, since the error may precede the configuration."""
    columns = {f.name: np.nan for f in dataclasses.fields(ResultRow)}
    columns.update(algorithm=algorithm, seed=seed, iterations=0, wall_time_ms=0.0)
    columns["status"] = f"error:{type(err).__name__}"
    return ResultRow(**columns)


@dataclass
class ExperimentSpec:
    """A sweep: one axis, a value list, algorithms and seeded repetitions."""

    base: ScenarioConfig
    sweep_axis: str
    values: list
    algorithms: list[str] = field(default_factory=lambda: list(ALGORITHMS))
    repetitions: int = 1
    output_path: str = "sweep.csv"

    AXES = (
        "snr",
        "scnr_threshold",
        "rf_chains",
        "subarray_scale",
        "user_distance",
        "subarray_count",
        "layout",
    )

    def __post_init__(self) -> None:
        if self.sweep_axis not in self.AXES:
            raise ConfigurationError(f"unknown sweep axis {self.sweep_axis!r}")
        if not self.values:
            raise ConfigurationError("sweep values must be nonempty")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        bad = set(self.algorithms) - set(ALGORITHMS)
        if bad:
            raise ConfigurationError(f"unknown algorithms: {sorted(bad)}")


def apply_axis(base: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    """Derive the per-cell configuration from the base and an axis value."""
    if axis == "snr":
        # received-SNR proxy: the value (dB) scales the comm noise down
        return dataclasses.replace(
            base, sigma_c_sq=base.sigma_c_sq * 10.0 ** (-float(value) / 10.0)
        )
    if axis == "scnr_threshold":
        return dataclasses.replace(base, scnr_min=10.0 ** (float(value) / 10.0))
    if axis == "rf_chains":
        total = int(value)
        q = base.n_objects
        if total % base.k_subarrays:
            raise ConfigurationError(
                f"rf_chains={total} not divisible by K={base.k_subarrays}"
            )
        n_paths = total // base.k_subarrays - q
        if n_paths < 1:
            raise ConfigurationError(f"rf_chains={total} leaves no path budget")
        return dataclasses.replace(base, n_paths=n_paths)
    if axis == "subarray_scale":
        k_new, m_new = int(value[0]), int(value[1])
        if k_new * m_new != base.n_antennas:
            raise ConfigurationError(
                f"subarray_scale {value} changes the total antenna count"
            )
        span = (base.k_subarrays - 1) * base.gamma + (base.m_antennas - 1)
        gamma_new = (span - (m_new - 1)) / (k_new - 1) if k_new > 1 else float(m_new)
        return dataclasses.replace(
            base, k_subarrays=k_new, m_antennas=m_new, gamma=gamma_new
        )
    if axis == "user_distance":
        return dataclasses.replace(
            base, user=PolarPoint(float(value), base.user.theta)
        )
    if axis == "subarray_count":
        return dataclasses.replace(base, k_subarrays=int(value))
    if axis == "layout":
        return dataclasses.replace(base, layout=str(value))
    raise ConfigurationError(f"unknown sweep axis {axis!r}")


def _format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "x".join(str(v) for v in value)
    return str(value)


def _run_cell(args: tuple) -> tuple[int, str, ResultRow]:
    cell_index, axis, value, algorithm, rep, base = args
    try:
        config = apply_axis(base, axis, value)
        config = dataclasses.replace(config, seed=derive_seed(base.seed, rep))
        row = run_scenario(config, algorithm)
    except Exception as err:  # failures become rows, never abort the sweep
        seed = derive_seed(base.seed, rep)
        print(f"{algorithm} seed {seed}: {type(err).__name__}: {err}", file=sys.stderr)
        row = _error_row(algorithm, seed, err)
    return cell_index, _format_value(value), row


def sweep(spec: ExperimentSpec) -> str:
    """Run every (value, algorithm, repetition) cell and write the CSV.

    The channel seed is derived from (master seed, repetition) so runs are
    paired across axis values and algorithms. Rows are flushed as they
    complete, in deterministic cell order regardless of the worker count
    (MODISAC_WORKERS); per-cell mean/std summary rows are appended at the
    end. Wall-clock time sits in the final column so byte comparisons can
    drop it.
    """
    cells = []
    index = 0
    for value in spec.values:
        for algorithm in spec.algorithms:
            for rep in range(spec.repetitions):
                cells.append((index, spec.sweep_axis, value, algorithm, rep, spec.base))
                index += 1
    workers = int(os.environ.get("MODISAC_WORKERS", "1"))
    grouped: dict[tuple[str, str], list[float]] = {}
    with open(spec.output_path, "w", newline="") as f:
        f.write("cell,axis,value," + ResultRow.HEADER + "\n")
        if workers > 1:
            executor = ProcessPoolExecutor(max_workers=workers)
            results = executor.map(_run_cell, cells)
        else:
            results = map(_run_cell, cells)
        for cell_index, value_str, row in results:
            f.write(f"{cell_index},{spec.sweep_axis},{value_str},{row.to_csv()}\n")
            f.flush()
            # summarize SE as written (9 digits) so the rows reproduce it
            se = float(f"{row.se_bits:.9g}")
            grouped.setdefault((value_str, row.algorithm), []).append(se)
        if workers > 1:
            executor.shutdown()
        for (value_str, algorithm), ses in grouped.items():
            arr = np.asarray(ses)
            ok = arr[np.isfinite(arr)]
            mean = float(np.mean(ok)) if ok.size else np.nan
            std = float(np.std(ok)) if ok.size else np.nan
            f.write(
                f"summary,{spec.sweep_axis},{value_str},{algorithm},"
                f"mean_se={mean:.9g},std_se={std:.9g},count={ok.size}\n"
            )
    return spec.output_path


def load_experiment(path: str) -> ExperimentSpec:
    """Read a sweep specification from YAML.

    Layout: {base: {scenario fields}, axis: str, values: [...],
    algorithms: [...], repetitions: int, output: str}.
    """
    with open(path) as f:
        doc = yaml.safe_load(f) or {}
    if not isinstance(doc, dict):
        raise ConfigurationError(f"sweep spec root must be a mapping, got {type(doc)}")
    for key in ("values", "algorithms"):
        if not isinstance(doc.get(key, []), list):
            raise ConfigurationError(f"sweep field {key!r} must be a list, got {doc[key]!r}")
    repetitions = doc.get("repetitions", 1)
    if type(repetitions) is not int:
        raise ConfigurationError(f"repetitions must be an integer, got {repetitions!r}")
    return ExperimentSpec(
        base=config_from_dict(doc.get("base")),
        sweep_axis=doc.get("axis", "snr"),
        values=doc.get("values", []),
        algorithms=doc.get("algorithms", list(ALGORITHMS)),
        repetitions=repetitions,
        output_path=str(doc.get("output", "sweep.csv")),
    )


def run_music(config: ScenarioConfig, grid):
    """Localize the target from echoes of the optimized transmit waveform.

    `config.snapshots` snapshots use the SDR beamformer with fresh Gaussian
    symbols and noise; reflection coefficients stay fixed over the block.
    Raw array snapshots feed MUSIC (the noise subspace needs the full
    N-dimensional output), whose model order is the number of scene objects.
    `grid` is a `music.GridSpec`. Returns the spectrum result, the scenario
    data and the transmit matrix W_RF W_BB.
    """
    from .music import music_spectrum, noise_subspace, sample_covariance

    length = config.snapshots
    data = prepare_scenario(config)
    rng = np.random.default_rng(derive_seed(config.seed, 17))
    problem = data.sdr_problem()
    result = opt_sdr.sdr_rrs(problem, rng)
    if result.w_bb is None:
        raise RuntimeError(f"transmit optimization failed: {result.status}")
    w_rf = beamform.optimal_analog(data.basis)
    f_tx = w_rf @ result.w_bb
    symbols = (
        rng.standard_normal((data.n_streams, length))
        + 1j * rng.standard_normal((data.n_streams, length))
    ) / np.sqrt(2.0)
    x = f_tx @ symbols
    y = channel.simulate_echoes(
        data.responses, config.scene_objects, x, config.sigma_s_sq, rng
    )
    cov = sample_covariance(y)
    basis_n = noise_subspace(cov, config.n_objects)
    return music_spectrum(basis_n, data.geometry, grid), data, f_tx
