"""modisac benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_sweep --seed 0 --seconds 50 --trace 0

The program is imported from `src/` next to this directory. With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` every operation runs twice, untraced and traced, the spans go
to `.perfbench-spans/<workload>-seed<seed>.csv` and the last line carries
the per-layer metrics. Earlier lines give the machine record, any failed
check, a digest of the outputs and each metric with its unit and sample
count. A run measures a fixed pool of distinct inputs drawn from the seed
and repeats them until the time is up; `attempted` and `failed` count each
input once, so they depend on the seed alone. Metric names and units come
from BENCHMARK.json; PREDICTIONS.md explains them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BLAS_THREADS = 1  # one client on one core; must not exceed nproc


def _pin_threads() -> None:
    """Fix BLAS threads and sweep workers; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MODISAC_WORKERS"] = "1"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _purge_modisac() -> None:
    for name in [n for n in sys.modules if n == "modisac" or n.startswith("modisac.")]:
        del sys.modules[name]


def measure_setup(workload):
    """Import modisac afresh and make one warm-up call, SETUP_REPEATS times.

    Returns the sample times and the harness module of the last import, which
    the measurement then uses. Each repeat re-executes every module, so
    module-level caches start empty as they would in a new process.
    """
    import numpy as np

    np.linalg.eigh(np.eye(4))  # start the BLAS library before timing
    samples = []
    for _ in range(SETUP_REPEATS):
        _purge_modisac()
        t0 = time.perf_counter()
        harness = importlib.import_module("modisac.harness")
        workload.warm_up(harness)
        samples.append(time.perf_counter() - t0)
    return samples, harness


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "modisac").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_record(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


class Run:
    """Accumulates outcomes of one closed-loop run.

    Operation `i` of a run uses input slot `i mod pool_size`. The first
    operation of each slot is counted in `attempted` and `failed`; a repeat
    must reproduce it exactly, so both counts depend on the seed alone and
    not on how many operations fit in the measuring time.
    """

    def __init__(self) -> None:
        self.outcomes = []  # every operation, repeats included
        self.distinct = []  # the first outcome of each input slot
        self.walls: list[float] = []  # untraced wall time of every operation
        self.ok_walls: list[float] = []  # ... of those with no failed check or status
        self.problems: list[str] = []
        self.failed = 0
        self.attempted = 0
        self._first: dict[int, tuple] = {}  # slot -> what its first operation gave

    def _first_time(self, slot: int, key: tuple, what: str) -> bool:
        if slot not in self._first:
            self._first[slot] = key
            return True
        if key != self._first[slot]:
            self.problems.append(f"input {slot}: a repeat {what} differs from its first run")
            self.failed += 1
        return False

    def add(self, slot: int, outcome, wall: float) -> None:
        self.outcomes.append(outcome)
        self.walls.append(wall)
        if not outcome.failed:
            self.ok_walls.append(wall)
        key = (outcome.record, outcome.failed, tuple(outcome.problems))
        if self._first_time(slot, key, "result"):
            self.distinct.append(outcome)
            self.attempted += outcome.work
            self.failed += outcome.failed
            self.problems.extend(outcome.problems)

    def add_error(self, slot: int, err: Exception) -> None:
        message = f"operation raised {type(err).__name__}: {err}"
        if self._first_time(slot, (message,), "error"):
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"input {slot}: {message}")


def _timed(workload, harness, inputs):
    """One operation, timed on the benchmark's clock, and its checked outcome."""
    t0 = time.perf_counter()
    raw = workload.run(harness, inputs)
    wall = time.perf_counter() - t0
    return workload.evaluate(inputs, raw, wall), wall


def pool_size(workload, seconds: float, passes: int) -> int:
    """Distinct inputs of a run: as many as fill `seconds` at the nominal time.

    `passes` is the number of times each operation runs (2 when traced).
    The size follows from the workload's fixed nominal operation time, not
    from the program's speed, so a seed gives the same inputs on every
    version of the program. Many distinct inputs keep the run's median
    close to that of the workload's whole input distribution.
    """
    return max(1, int(seconds / (workload.nominal_op_s * passes)))


def closed_loop(workload, harness, seed: int, seconds: float, workdir: str,
                operation, passes: int = 1) -> Run:
    """Run operations until `seconds` have passed, each after the previous one.

    Every slot of the input pool runs at least once, even past the deadline;
    then the pool repeats from slot 0. `operation(index, inputs)` performs
    operation `index` and returns its outcome and untraced wall time; an
    exception it raises is counted as a failed operation.
    """
    run = Run()
    pool = pool_size(workload, seconds, passes)
    deadline = time.perf_counter() + seconds
    index = 0
    while index < pool or time.perf_counter() < deadline:
        slot = index % pool
        inputs = workload.make_input(harness, seed, slot, workdir)
        try:
            run.add(slot, *operation(index, inputs))
        except Exception as err:  # a failed operation is counted, not fatal
            run.add_error(slot, err)
        index += 1
    return run


def run_plain(workload, harness, seed: int, seconds: float, workdir: str) -> Run:
    def operation(index, inputs):
        return _timed(workload, harness, inputs)

    return closed_loop(workload, harness, seed, seconds, workdir, operation)


def run_traced(workload, harness, seed: int, seconds: float, workdir: str):
    """Each operation runs untraced and traced, alternating which goes first.

    Returns the run (untraced outcomes), the tracer and both wall totals.
    """
    import tracing

    tracer = tracing.Tracer()
    totals = {False: 0.0, True: 0.0}

    def operation(index, inputs):
        tracer.run_id = index
        results = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            with tracer if traced else contextlib.nullcontext():
                results[traced] = _timed(workload, harness, inputs)
        (plain, wall), (seen, traced_wall) = results[False], results[True]
        totals[False] += wall
        totals[True] += traced_wall
        if seen.record != plain.record:
            plain.problems.append("traced outputs differ")
            plain.failed += 1
        return plain, wall

    run = closed_loop(workload, harness, seed, seconds, workdir, operation, passes=2)
    return run, tracer, totals[False], totals[True]


def trace_problems(workload, tracer, untraced_s: float, traced_s: float) -> list[str]:
    """Coverage and accounting checks of a traced run."""
    import tracing

    names = {s.name for s in tracer.spans}
    problems = [f"no span recorded for {n}" for n in workload.required if n not in names]
    problems += [
        f"unexpected span {n}" for n in sorted(names)
        if n.startswith(workload.forbidden) and n not in workload.allowed
    ]
    left = tracing.installed_wrappers()
    if left:
        problems.append(f"tracer wrappers left installed: {left}")
    # self times partition the traced time; they must match the untraced
    # wall time up to the tracing overhead
    total_self = sum(tracing.self_times(tracer.spans))
    if abs(total_self - untraced_s) > abs(traced_s - untraced_s) + 0.02 * untraced_s:
        problems.append(
            f"self times sum to {total_self:.4f} s, untraced wall {untraced_s:.4f} s"
        )
    return problems


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _latencies(run: Run) -> dict[str, list[float]]:
    kinds: dict[str, list[float]] = {}
    for outcome in run.outcomes:
        for kind, values in outcome.latencies.items():
            kinds.setdefault(kind, []).extend(values)
    return kinds


def end_to_end(run: Run, setup: list[float]) -> dict:
    # median wall time of one successful operation (a whole sweep, or one
    # run_music call); operations that failed are counted in `failed` only
    if not run.ok_walls:
        run.problems.append("no operation succeeded")
    walls = run.ok_walls or run.walls
    return {
        "setup_s": (_median(setup), len(setup)),
        "call_s": (_median(walls), len(walls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def quality(run: Run) -> dict:
    """Untraced latencies and throughput, and deterministic quality figures."""
    kinds = _latencies(run)
    gaps = {}
    for outcome in run.distinct:
        for other, values in outcome.se_gaps.items():
            gaps.setdefault(other, []).extend(values)
    errors = [x for o in run.distinct for x in o.peak_err_m]

    def mean(values):
        return float(sum(values) / len(values)) if values else 0.0

    work = sum(o.work for o in run.outcomes)
    return {
        "latency.rm_jgd_s": _median(kinds.get("rm_jgd", ())),
        "latency.sdr_rrs_s": _median(kinds.get("sdr_rrs", ())),
        "latency.fdb_s": _median(kinds.get("fdb", ())),
        "latency.localize_s": _median(kinds.get("run_music", ())),
        "throughput.ops_per_s": work / sum(run.walls) if run.walls else 0.0,
        "quality.se_gap_bits": mean(gaps.get("rm_jgd", ())),
        "quality.sdr_gap_bits": mean(gaps.get("sdr_rrs", ())),
        "quality.peak_err_m": mean(errors),
        "quality.fail_frac": run.failed / run.attempted if run.attempted else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_threads()
    if not (SRC / "modisac" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC / 'modisac'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")

    setup, harness = measure_setup(workload)
    if Path(harness.__file__).resolve().parent != SRC / "modisac":
        return _fail(f"imported modisac from {harness.__file__}, not from {SRC}")
    print(json.dumps({"machine": machine_record(args.seed), "workload": workload.name}))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            import tracing

            run, tracer, untraced_s, traced_s = run_traced(
                workload, harness, args.seed, args.seconds, workdir
            )
            run.problems += trace_problems(workload, tracer, untraced_s, traced_s)
            values = tracing.layer_metrics(
                tracer.spans, max(len(run.outcomes), 1), untraced_s, traced_s
            )
            values.update(quality(run))
            samples = len(run.outcomes)
            table = {k: (v, samples) for k, v in values.items()}
            spans_path = ROOT / ".perfbench-spans" / f"{workload.name}-seed{args.seed}.csv"
            spans_path.parent.mkdir(exist_ok=True)
            tracing.write_spans(tracer.spans, spans_path)
            print(json.dumps({
                "spans": str(spans_path.relative_to(ROOT)),
                "largest_self_s": tracing.top_self(tracer.spans)[:5],
            }))
        else:
            run = run_plain(workload, harness, args.seed, args.seconds, workdir)
            table = end_to_end(run, setup)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(table) != sorted(m["name"] for m in declared):
        raise RuntimeError("computed metrics differ from those BENCHMARK.json declares")

    run.problems += workload.run_problems(run.distinct)
    digest = hashlib.sha256(repr([o.record for o in run.distinct]).encode())
    print(json.dumps({"distinct_inputs": len(run.distinct), "operations": len(run.outcomes),
                      "outputs_sha256": digest.hexdigest()[:16]}))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    metrics = {}
    for m in declared:
        value, samples = table[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:38s} {value:14.6g} {m['unit']:6s} n={samples}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
