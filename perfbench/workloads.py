"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Each workload drives modisac's public API (`harness.sweep`,
`harness.run_scenario`, `harness.run_music`) as a closed loop with one
client. Input slot `j` of a run draws its scenario seed from (run seed, j),
so a run seed pins every input.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

OK_STATUSES = ("ok", "max_iter", "converged")
SE_TOL_BITS = 1e-6  # fdb bounds sdr_rrs and rm_jgd up to this slack
POWER_RTOL = 1e-9  # power_proxy <= n_streams * (1 + POWER_RTOL)
SCNR_TOL_DB = 1e-4  # achieved SCNR may sit this far below the threshold
# Largest distance from the MUSIC peak to the true target that counts as a
# hit. The worst hit of 60 inputs (run seeds 0-14, operations 0-3) is 0.37 m
# at the 1 cm grid step, about half this tolerance.
PEAK_TOL_M = 0.75
# Largest share of a run's distinct MUSIC inputs that may miss before the
# run is incorrect. 4 of about 550 calls missed (0.7%); at that rate 3 misses
# among a 50 s run's 15 inputs has a chance of about 2e-4, while a miss rate
# of 40% trips the check in almost every run.
MISS_FRAC_MAX = 0.15


def op_seed(seed: int, slot: int) -> int:
    """Scenario seed of input slot `slot` in a run with the given seed."""
    return int(np.random.SeedSequence([seed, slot]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one operation produced and how it fared against the checks."""

    record: Any  # deterministic outputs; traced and untraced runs must agree
    work: int  # top-level operations inside this call (sweep rows, or 1)
    failed: int = 0  # operations that failed (status or check)
    problems: list[str] = field(default_factory=list)  # failed checks
    # seconds per successful cell or call, by algorithm or kind of call
    latencies: dict[str, list[float]] = field(default_factory=dict)
    se_gaps: dict[str, list[float]] = field(default_factory=dict)
    peak_err_m: list[float] = field(default_factory=list)


def _check_rows(rows: list[dict], out: Outcome) -> None:
    """Per-row and paired-cell checks on result rows (HEADER field names).

    A row fails on an `error:` status, a status outside OK_STATUSES, power
    above the stream budget or SCNR below its threshold. Rows of one seed
    and threshold are paired: fdb bounds the other algorithms' SE.
    """
    paired: dict[tuple[str, str], dict[str, float]] = {}
    for row in rows:
        algo, status = row["algorithm"], row["status"]
        bad = []
        if status.startswith("error:"):
            bad.append(f"error row {status}")
        elif status in OK_STATUSES:
            power, streams = float(row["power_proxy"]), int(row["n_streams"])
            if not power <= streams * (1.0 + POWER_RTOL):
                bad.append(f"power_proxy {power!r} above n_streams={streams}")
            scnr, threshold = float(row["scnr_db"]), float(row["scnr_threshold_db"])
            if not scnr >= threshold - SCNR_TOL_DB:
                bad.append(f"scnr_db {scnr!r} below threshold {threshold!r}")
            key = (row["scnr_threshold_db"], row["seed"])
            paired.setdefault(key, {})[algo] = float(row["se_bits"])
        out.problems.extend(f"{algo} seed {row['seed']}: {p}" for p in bad)
        if bad or status not in OK_STATUSES:
            out.failed += 1
        else:
            out.latencies.setdefault(algo, []).append(float(row["wall_time_ms"]) / 1e3)
    for (threshold, seed), se in paired.items():
        for other in ("sdr_rrs", "rm_jgd"):
            if "fdb" in se and other in se:
                if not se["fdb"] >= se[other] - SE_TOL_BITS:
                    out.problems.append(
                        f"seed {seed} at {threshold} dB: fdb SE {se['fdb']!r} "
                        f"below {other} SE {se[other]!r}"
                    )
                    out.failed += 1
                out.se_gaps.setdefault(other, []).append(se["fdb"] - se[other])


class Workload:
    """Defaults shared by the workloads."""

    allowed: tuple[str, ...] = ()  # spans exempt from the `forbidden` prefixes
    # Seconds of one operation that size a run's input pool, close to the
    # typical time on the reference machine (see PREDICTIONS.md). It is a
    # constant so that a seed means the same inputs for every version of
    # the program.
    nominal_op_s: float

    def run_problems(self, outcomes: list[Outcome]) -> list[str]:
        """Checks over a whole run; per-operation checks live in `evaluate`."""
        return []


class DeskSweep(Workload):
    """`harness.sweep` at desk scale along the SCNR-threshold axis."""

    name = "desk_sweep"
    nominal_op_s = 5.5
    # 0 dB never binds (achieved SCNR is 49-72 dB); at 60 dB SDR sits on the
    # constraint and rm_jgd phase 1 reports infeasible on some seeds.
    thresholds_db = (0.0, 60.0)
    required = (
        "harness.sweep", "harness.run_scenario", "harness.prepare_scenario",
        "geometry.build_geometry", "channel.draw_paths", "channel.build_comm_channel",
        "channel.build_responses", "beamform.build_subspace", "beamform.phi_matrices",
        "beamform.mvdr_receive", "beamform.scnr", "opt_manifold.reduce_b",
        "opt_manifold.phase1_feasible", "opt_manifold.rm_jgd",
        "opt_manifold.stiefel_retract", "opt_manifold.barrier_value",
        "opt_manifold.grad_v", "opt_manifold.grad_b", "opt_manifold.tangent_project",
        "opt_sdr.make_maxdet_problem", "opt_sdr.solve_maxdet", "opt_sdr.sdr_rrs",
        "opt_sdr.randomize_rank",
    )
    forbidden = ("music.", "harness.run_music")

    def warm_up(self, harness) -> None:
        harness.run_scenario(harness.desk_config(seed=0), "sdr_rrs")

    def make_input(self, harness, seed: int, slot: int, workdir: str):
        return harness.ExperimentSpec(
            base=harness.desk_config(seed=op_seed(seed, slot)),
            sweep_axis="scnr_threshold",
            values=list(self.thresholds_db),
            algorithms=list(harness.ALGORITHMS),
            repetitions=1,
            output_path=os.path.join(workdir, "sweep.csv"),
        )

    def run(self, harness, spec):
        harness.sweep(spec)

    def evaluate(self, spec, _, wall: float) -> Outcome:
        with open(spec.output_path, newline="") as f:
            lines = f.read().splitlines()
        data = [ln for ln in lines[1:] if not ln.startswith("summary,")]
        rows = list(csv.DictReader([lines[0], *data]))
        # the last column of a cell row is wall time; the rest is deterministic
        record = tuple(ln if ln.startswith("summary,") else ln.rsplit(",", 1)[0]
                       for ln in lines)
        out = Outcome(record=record, work=len(rows))
        expected = len(spec.values) * len(spec.algorithms) * spec.repetitions
        if len(rows) != expected:
            out.problems.append(f"sweep wrote {len(rows)} rows, expected {expected}")
        _check_rows(rows, out)
        return out


class FullScenario(Workload):
    """`run_scenario` for rm_jgd and fdb on the default full-scale scenario.

    One operation takes about 110 s with one BLAS thread (fdb alone about
    100 s; see PREDICTIONS.md), more than a benchmark run's budget, so
    BENCHMARK.json leaves this workload out; run it by name to trace the
    full-scale layers.
    """

    name = "full_scenario"
    nominal_op_s = 110.0
    algorithms = ("rm_jgd", "fdb")
    required = (
        "harness.run_scenario", "harness.prepare_scenario", "geometry.build_geometry",
        "channel.draw_paths", "channel.build_comm_channel", "channel.build_responses",
        "beamform.build_subspace", "beamform.phi_matrices", "beamform.mvdr_receive",
        "beamform.scnr", "opt_manifold.reduce_b", "opt_manifold.phase1_feasible",
        "opt_manifold.rm_jgd", "opt_manifold.stiefel_retract",
        "opt_manifold.barrier_value", "opt_manifold.grad_v", "opt_manifold.grad_b",
        "opt_manifold.tangent_project", "opt_sdr.make_maxdet_problem",
        "opt_sdr.solve_maxdet",
    )
    forbidden = ("music.", "harness.run_music")

    def warm_up(self, harness) -> None:
        harness.prepare_scenario(harness.config_from_dict({"seed": 0}))

    def make_input(self, harness, seed: int, slot: int, workdir: str):
        return harness.config_from_dict({"seed": op_seed(seed, slot)})

    def run(self, harness, config):
        return [harness.run_scenario(config, algo) for algo in self.algorithms]

    def evaluate(self, config, results, wall: float) -> Outcome:
        lines = [r.to_csv() for r in results]
        header = results[0].HEADER.split(",")
        out = Outcome(record=tuple(ln.rsplit(",", 1)[0] for ln in lines), work=len(lines))
        _check_rows([dict(zip(header, ln.split(","))) for ln in lines], out)
        return out


class Localize(Workload):
    """`run_music` on the criterion-9 desk scene over a dense grid."""

    name = "localize"
    nominal_op_s = 3.3
    target_range_m = 20.0
    target_angle_deg = 45.0
    half_width_m = 5.0
    step_m = 0.01  # 1001 x 1001 = 1.0e6 grid cells
    required = (
        "harness.run_music", "harness.prepare_scenario", "geometry.build_geometry",
        "channel.draw_paths", "channel.build_comm_channel", "channel.build_responses",
        "beamform.build_subspace", "beamform.phi_matrices", "beamform.mvdr_receive",
        "opt_sdr.make_maxdet_problem", "opt_sdr.solve_maxdet", "opt_sdr.sdr_rrs",
        "opt_sdr.randomize_rank", "channel.simulate_echoes", "music.sample_covariance",
        "music.noise_subspace", "music.music_spectrum",
    )
    # prepare_scenario asks opt_manifold.rate_form_rank for the stream count;
    # no other opt_manifold function may run here
    forbidden = ("opt_manifold.", "harness.sweep", "harness.run_scenario")
    allowed = ("opt_manifold.rate_form_rank",)

    @property
    def truth(self) -> np.ndarray:
        theta = math.radians(self.target_angle_deg)
        return self.target_range_m * np.array([math.sin(theta), math.cos(theta)])

    def scene(self, harness, seed: int):
        return harness.desk_config(
            seed=seed,
            target={"range_m": self.target_range_m, "angle_deg": self.target_angle_deg,
                    "rcs": 0.15},
            interferers=[{"range_m": 30.0, "angle_deg": 40.0, "rcs": 0.3}],
            noise_sens_dbm=-10.0,
        )

    def grid(self, step: float, half_width: float):
        from modisac.music import GridSpec

        x, y = self.truth
        return GridSpec(x - half_width, step, x + half_width,
                        y - half_width, step, y + half_width)

    def warm_up(self, harness) -> None:
        harness.run_music(self.scene(harness, 0), self.grid(0.25, 3.0))

    def make_input(self, harness, seed: int, slot: int, workdir: str):
        return self.scene(harness, op_seed(seed, slot)), self.grid(
            self.step_m, self.half_width_m
        )

    def run(self, harness, inputs):
        config, grid = inputs
        result, _, _ = harness.run_music(config, grid)
        return result

    def evaluate(self, inputs, result, wall: float) -> Outcome:
        err = float(np.hypot(*(np.asarray(result.peak_location) - self.truth)))
        record = (
            result.peak_location,
            result.peak_index,
            result.mainlobe_width,
            len(result.flagged_cells),
            hashlib.sha256(result.spectrum.tobytes()).hexdigest(),
        )
        out = Outcome(record=record, work=1, peak_err_m=[err])
        if err <= PEAK_TOL_M:
            out.latencies["run_music"] = [wall]
        else:
            out.failed = 1
        return out

    def run_problems(self, outcomes: list[Outcome]) -> list[str]:
        """Each miss is a failed operation; more than MISS_FRAC_MAX of them fails the run.

        `outcomes` holds one outcome per distinct input of the run.

        A miss happens when the interferer's lobe, which reaches into the
        grid, outgrows the target's peak.
        """
        misses = sum(o.failed for o in outcomes)
        if outcomes and misses > MISS_FRAC_MAX * len(outcomes):
            return [f"{misses} of {len(outcomes)} MUSIC peaks lie more than "
                    f"{PEAK_TOL_M} m from the target (at most {MISS_FRAC_MAX:.0%} may)"]
        return []


WORKLOADS = {w.name: w for w in (DeskSweep(), FullScenario(), Localize())}
