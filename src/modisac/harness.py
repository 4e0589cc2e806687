"""Scenario configuration, end-to-end runs and experiment sweeps.

A run builds the geometry and channels, fixes the receive filter from
omnidirectional transmission, constructs the subarray-response subspace and
the reduced problem with its sensing constraint, hands that problem to the
chosen optimizer and finally refreshes the receive filter from the
optimized design's echo weights before reporting rate and SCNR.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Optional

import numpy as np

from . import beamform, channel, geometry as geo, music, opt_manifold, opt_sdr
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
        r, angle = doc["range_m"], doc["angle_deg"]
    except (KeyError, TypeError) as err:
        raise ConfigurationError(f"field {key!r}: expected range_m/angle_deg map") from err
    return PolarPoint(
        _real(f"{key}.range_m", r), float(np.deg2rad(_real(f"{key}.angle_deg", angle)))
    )


def _object(doc: dict, key: str) -> SceneObject:
    return SceneObject(_point(doc, key), _real(f"{key}.rcs", doc.get("rcs", 1.0)))


def _integer(key: str, value) -> int:
    # int() would pass a float, a bool or a numeric string as a different value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(key: str, value) -> float:
    # float() would pass a bool as 0 or 1 and a numeric string as its number
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{key} must be a number, got {value!r}")
    return float(value)


def config_from_dict(doc: Optional[dict], desk_scale: bool = False) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain mapping, filling defaults.

    Unknown keys are rejected so that typos surface immediately; units are
    converted here (GHz, dBm, degrees) so the config itself is SI-linear.
    """
    if doc is not None and not isinstance(doc, dict):
        raise ConfigurationError(f"config root must be a mapping, got {type(doc)}")
    doc = dict(doc or {})
    desk = doc.pop("desk_scale", desk_scale)
    if not isinstance(desk, bool):
        raise ConfigurationError(f"desk_scale must be true or false, got {desk!r}")
    defaults = dict(_FULL_DEFAULTS)
    if desk:
        defaults.update(_DESK_OVERRIDES)
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    merged = {**defaults, **doc}
    try:
        return ScenarioConfig(
            carrier_frequency=_real("frequency_ghz", merged["frequency_ghz"]) * 1e9,
            k_subarrays=_integer("subarrays", merged["subarrays"]),
            m_antennas=_integer("antennas_per_subarray", merged["antennas_per_subarray"]),
            gamma=_real("spacing_factor", merged["spacing_factor"]),
            d0=_real("array_half_separation_m", merged["array_half_separation_m"]),
            n_user_antennas=_integer("user_antennas", merged["user_antennas"]),
            n_paths=_integer("paths", merged["paths"]),
            user=_point(merged["user"], "user"),
            target=_object(merged["target"], "target"),
            interferers=tuple(
                _object(i, "interferers") for i in merged["interferers"]
            ),
            sigma_c_sq=dbm_to_watts(_real("noise_comm_dbm", merged["noise_comm_dbm"])),
            sigma_s_sq=dbm_to_watts(_real("noise_sens_dbm", merged["noise_sens_dbm"])),
            # null threshold disables the sensing constraint entirely
            scnr_min=0.0
            if merged["scnr_threshold_db"] is None
            else 10.0 ** (_real("scnr_threshold_db", merged["scnr_threshold_db"]) / 10.0),
            n_streams=None
            if merged["streams"] is None
            else _integer("streams", merged["streams"]),
            snapshots=_integer("snapshots", merged["snapshots"]),
            seed=_integer("seed", merged["seed"]),
            layout=str(merged["layout"]),
        )
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"invalid config value: {err}") from err


def _read_yaml(path: str):
    """Parse a YAML file; an unreadable or malformed one is a ConfigurationError."""
    import yaml  # loaded on first use: runs from Python objects never parse YAML

    try:
        with open(path) as f:
            return yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as err:
        raise ConfigurationError(f"cannot read {path}: {' '.join(str(err).split())}") from err


def load_config(path: str, desk_scale: bool = False) -> ScenarioConfig:
    """Load a YAML scenario file; empty files yield the defaults."""
    return config_from_dict(_read_yaml(path), desk_scale=desk_scale)


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


@dataclass(frozen=True)
class ScenarioData:
    """One instance: channels, fixed filter, analog stage and the problem built at them.

    `analog` is the (K, M, Q+Np) array of subarray steering blocks: the basis
    U_tilde and the analog beamformer W_RF, kept as its K blocks.
    `solution` solves `problem` on first use; sdr_rrs and fdb share it, read-only.
    """

    config: ScenarioConfig
    geometry: geo.ArrayGeometry
    h: np.ndarray
    responses: tuple[channel.ObjectResponse, ...]
    w_fixed: np.ndarray
    analog: np.ndarray
    problem: opt_sdr.MaxDetProblem

    @cached_property
    def solution(self) -> opt_sdr.SdpSolution:
        return opt_sdr.solve_maxdet(self.problem)


def prepare_scenario(config: ScenarioConfig) -> ScenarioData:
    """Deterministically build geometry, channels, fixed filter, subspace and problem.

    The RNG order is fixed (layout draw, then path scatterers, each drawing
    its range, then its angle) so a seed pins the whole instance. The fixed
    receive filter comes from R_X = I, echo weights alpha_q^2 N (g_t is unit
    modulus). The configured stream count, or None, goes to
    `opt_sdr.make_maxdet_problem`, which sets the count and the power budget.
    """
    rng = np.random.default_rng(config.seed)
    geometry = geo.build_geometry(config, _layout_offsets(config, rng))
    paths = channel.draw_paths(config, geometry, rng)
    h = channel.build_comm_channel(geometry, paths, config.n_user_antennas)
    responses = channel.build_responses(geometry, config.scene_objects)
    omni = config.n_antennas * np.array([resp.alpha ** 2 for resp in responses])
    w_fixed = beamform.mvdr_receive(responses, omni, config.sigma_s_sq)
    analog = beamform.build_subspace(geometry, paths, responses)
    problem = opt_sdr.make_maxdet_problem(
        h, analog, responses, w_fixed, config.scnr_min, config.sigma_c_sq,
        config.sigma_s_sq, config.n_streams,
    )
    return ScenarioData(config, geometry, h, responses, w_fixed, analog, problem)


@dataclass
class ResultRow:
    """One algorithm run: configuration knobs plus achieved metrics.

    HEADER names the fields in order; `to_csv` formats each with its "fmt".
    """

    algorithm: str
    seed: int
    k_subarrays: int
    m_antennas: int
    gamma: float = field(metadata={"fmt": ".6g"})
    n_user: int
    n_paths: int
    n_objects: int
    n_streams: int
    n_rf: int
    layout: str
    user_range_m: float = field(metadata={"fmt": ".6g"})
    user_angle_deg: float = field(metadata={"fmt": ".6g"})
    scnr_threshold_db: float = field(metadata={"fmt": ".6g"})
    sigma_c_sq: float = field(metadata={"fmt": ".9g"})
    sigma_s_sq: float = field(metadata={"fmt": ".9g"})
    se_bits: float = field(metadata={"fmt": ".9g"})
    scnr_db: float = field(metadata={"fmt": ".9g"})
    power_exact: float = field(metadata={"fmt": ".9g"})
    power_proxy: float = field(metadata={"fmt": ".9g"})
    iterations: int
    status: str
    wall_time_ms: float = field(metadata={"fmt": ".3f"})

    HEADER: ClassVar[str]

    def to_csv(self) -> str:
        return ",".join(
            format(getattr(self, f.name), f.metadata.get("fmt", ""))
            for f in dataclasses.fields(self)
        )


ResultRow.HEADER = ",".join(f.name for f in dataclasses.fields(ResultRow))


# Solver stop reasons that mean the problem was solved; every other status
# (max_iter, stalled, infeasible, ...) passes through to the row unchanged.
_SOLVED_STATUS = {"converged": "ok", "optimal": "ok"}
# Row statuses whose metrics are usable: the CLI exits 0 on these only.
SUCCESS_STATUSES = ("ok", "max_iter")


def run_scenario(
    config: ScenarioConfig, algorithm: str, data: Optional[ScenarioData] = None
) -> ResultRow:
    """Run the full pipeline for one algorithm and report final metrics.

    `data` is `prepare_scenario(config)` when the caller has it; the row's
    wall time then leaves the prepare out. Each algorithm yields W_BB, its
    rate, iteration count and status; fdb's W_BB is `data.solution.w_bb`,
    the full factor W_BB W_BB^H = R_BB of the relaxed covariance whose
    leading n_s columns sdr_rrs sketches, and its rate the dual bound. One
    shared tail checks every W_BB and forms F = W_RF W_BB once, block by
    block. The exact power, the echo weights and the refreshed receive
    filter are read from F before the SCNR is measured, so the reported
    value reflects the MVDR filter the receiver would actually deploy. An
    rm_jgd run whose phase 1 or stream count fails is a row with status
    `infeasible_subspace` or `error:RankDeficiencyError`;
    a start outside the barrier's interior is an `error:InfeasiblePointError`
    row, and a `LinAlgError` from any solve an `error:LinAlgError` row.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    t0 = time.perf_counter()
    data = prepare_scenario(config) if data is None else data
    w_bb = None
    se_bits, iterations = np.nan, 0
    try:
        if algorithm == "rm_jgd":
            eig = opt_manifold.reduce_b(data.problem)
            init = opt_manifold.phase1_feasible(eig)
            result = opt_manifold.rm_jgd(eig, opt_manifold.BARRIER_T, init)
            status, w_bb, iterations = result.status, result.w_bb, result.iterations
            se_bits = beamform._rate_bits(data.problem.h_eff @ w_bb, data.problem.sigma_c_sq)
        else:  # sdr_rrs randomizes the relaxed solve that fdb factors
            solution = data.solution
            status = solution.status
            if algorithm == "sdr_rrs":
                # salt 2 keeps the randomization draws apart from the scenario's
                rng = np.random.default_rng(derive_seed(config.seed, 2))
                result = opt_sdr.sdr_rrs(data.problem, rng, solution)
                status, w_bb, se_bits = result.status, result.w_bb, result.se_bits
            elif status != "infeasible":
                w_bb, se_bits = solution.w_bb, solution.dual_bits
            iterations = 0 if w_bb is None else solution.newton_steps
    except opt_manifold.InfeasibleProblemError:
        # phase 1 certifies infeasibility only within col(U_B), the rate
        # form's top eigenspace, not over the whole subarray-response subspace
        status = "infeasible_subspace"
    except (opt_manifold.RankDeficiencyError, opt_manifold.InfeasiblePointError,
            np.linalg.LinAlgError) as err:
        # a configured stream count above the rank of the rate form, a start
        # outside the barrier's interior or a linear solve that failed
        status = f"error:{type(err).__name__}"
    scnr_db = power_exact = power_proxy = np.nan
    if w_bb is not None:
        beamform.check_hybrid(data.analog, w_bb, data.problem.power_budget)
        f = beamform.analog_times(data.analog, w_bb)
        power_exact, power_proxy = beamform.transmit_power(f, w_bb, data.analog.shape[1])
        weights = beamform.echo_weights(data.responses, f)
        w_star = beamform.mvdr_receive(data.responses, weights, config.sigma_s_sq)
        scnr_lin = beamform.scnr(w_star, data.responses, weights, config.sigma_s_sq)
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
        n_streams=data.problem.n_streams,
        n_rf=data.problem.dim,
        layout=config.layout,
        user_range_m=config.user.r,
        user_angle_deg=float(np.rad2deg(config.user.theta)),
        scnr_threshold_db=float(10.0 * np.log10(config.scnr_min))
        if config.scnr_min > 0 else -np.inf,
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

    AXES = ("snr", "scnr_threshold", "rf_chains", "subarray_scale", "user_distance",
            "subarray_count", "layout")

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
            base, sigma_c_sq=base.sigma_c_sq * 10.0 ** (-_real("snr", value) / 10.0)
        )
    if axis == "scnr_threshold":
        return dataclasses.replace(base, scnr_min=10.0 ** (_real("scnr_threshold", value) / 10.0))
    if axis == "rf_chains":
        total = _integer("rf_chains", value)
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
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigurationError(
                f"subarray_scale must be a pair [K, M], got {value!r}"
            )
        k_new, m_new = (_integer("subarray_scale", v) for v in value)
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
            base, user=PolarPoint(_real("user_distance", value), base.user.theta)
        )
    if axis == "subarray_count":
        return dataclasses.replace(base, k_subarrays=_integer("subarray_count", value))
    if axis == "layout":
        return dataclasses.replace(base, layout=str(value))
    raise ConfigurationError(f"unknown sweep axis {axis!r}")


def _format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "x".join(str(v) for v in value)
    return str(value)


def _run_point(args: tuple) -> list[tuple[str, ResultRow]]:
    """A sweep point (value, repetition): one row per algorithm, all on one prepared
    scenario. A failed prepare is retried, and fails again, for each algorithm."""
    axis, value, algorithms, rep, base = args
    seed = derive_seed(base.seed, rep)
    data, cells = None, []
    for algorithm in algorithms:
        try:
            if data is None:
                config = dataclasses.replace(apply_axis(base, axis, value), seed=seed)
                data = prepare_scenario(config)
            row = run_scenario(config, algorithm, data)
        except Exception as err:  # failures become rows, never abort the sweep
            print(f"{algorithm} seed {seed}: {type(err).__name__}: {err}", file=sys.stderr)
            row = _error_row(algorithm, seed, err)
        cells.append((_format_value(value), row))
    return cells


def sweep(spec: ExperimentSpec) -> str:
    """Run every (value, algorithm, repetition) cell and write the CSV.

    The channel seed is derived from (master seed, repetition) so runs are
    paired across axis values and algorithms; the cells of a (value,
    repetition) point share its prepared scenario and relaxed solve. Rows are
    flushed as each value completes, in cell order whatever the number of
    MODISAC_WORKERS processes the points are spread over; per-cell mean/std
    summary rows follow. Wall time sits in the last column so byte comparisons can drop it.
    """
    reps = spec.repetitions
    points = [(spec.sweep_axis, value, spec.algorithms, rep, spec.base)
              for value in spec.values for rep in range(reps)]
    workers = max(1, int(os.environ.get("MODISAC_WORKERS", "1")))
    grouped: dict[tuple[str, str], list[float]] = {}
    with open(spec.output_path, "w", newline="") as f, contextlib.ExitStack() as stack:
        f.write("cell,axis,value," + ResultRow.HEADER + "\n")
        results = map(_run_point, points)
        if workers > 1:  # the process pool's modules load only here
            from concurrent.futures import ProcessPoolExecutor
            results = stack.enter_context(ProcessPoolExecutor(workers)).map(_run_point, points)
        # a value's points come repetition-major and its cells algorithm-major
        cells = (cell for _ in spec.values
                 for by_algorithm in zip(*[next(results) for _ in range(reps)])
                 for cell in by_algorithm)
        for cell_index, (value_str, row) in enumerate(cells):
            f.write(f"{cell_index},{spec.sweep_axis},{value_str},{row.to_csv()}\n")
            f.flush()
            # summarize SE as written (9 digits) so the rows reproduce it
            se = float(f"{row.se_bits:.9g}")
            grouped.setdefault((value_str, row.algorithm), []).append(se)
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
    doc = _read_yaml(path) or {}
    if not isinstance(doc, dict):
        raise ConfigurationError(f"sweep spec root must be a mapping, got {type(doc)}")
    for key in ("values", "algorithms"):
        if not isinstance(doc.get(key, []), list):
            raise ConfigurationError(f"sweep field {key!r} must be a list, got {doc[key]!r}")
    return ExperimentSpec(
        base=config_from_dict(doc.get("base")),
        sweep_axis=doc.get("axis", "snr"),
        values=doc.get("values", []),
        algorithms=doc.get("algorithms", list(ALGORITHMS)),
        repetitions=_integer("repetitions", doc.get("repetitions", 1)),
        output_path=str(doc.get("output", "sweep.csv")),
    )


class TransmitDesignError(RuntimeError):
    """`run_music` has no transmit beamformer: sdr_rrs returned none."""


def run_music(config: ScenarioConfig, grid):
    """Localize the target from echoes of the optimized transmit waveform.

    `config.snapshots` snapshots use sdr_rrs's beamformer, randomized from
    the scenario's relaxed solve `data.solution`, with fresh Gaussian symbols
    and noise; reflection coefficients stay fixed over the block. Raw array
    snapshots feed MUSIC (the noise subspace needs the full N-dimensional
    output), whose model order is the number of scene objects. `grid` is a
    `music.GridSpec`. Returns the spectrum result, the scenario data and the
    transmit matrix W_RF W_BB. Raises TransmitDesignError when sdr_rrs is
    infeasible or its randomization fails.
    """
    length = config.snapshots
    data = prepare_scenario(config)
    rng = np.random.default_rng(derive_seed(config.seed, 17))
    result = opt_sdr.sdr_rrs(data.problem, rng, data.solution)
    if result.w_bb is None:
        raise TransmitDesignError(f"transmit optimization failed: {result.status}")
    f_tx = beamform.analog_times(data.analog, result.w_bb)
    symbols = (
        rng.standard_normal((data.problem.n_streams, length))
        + 1j * rng.standard_normal((data.problem.n_streams, length))
    ) / np.sqrt(2.0)
    x = f_tx @ symbols
    y = channel.simulate_echoes(data.responses, x, config.sigma_s_sq, rng)
    cov = music.sample_covariance(y)
    basis_n = music.noise_subspace(cov, config.n_objects)
    return music.music_spectrum(basis_n, data.geometry, grid), data, f_tx
