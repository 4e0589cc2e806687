"""Tests for the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

from modisac import harness  # noqa: E402


BENCHMARKED = [
    w["name"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]
]


@pytest.fixture(scope="module", params=BENCHMARKED)
def traced(request, tmp_path_factory):
    """One operation of each benchmarked workload, run untraced and traced."""
    workload = workloads.WORKLOADS[request.param]
    workdir = str(tmp_path_factory.mktemp(request.param))
    result = run.run_traced(workload, harness, seed=0, seconds=0, workdir=workdir)
    return workload, *result


def test_every_layer_function_records_a_span(traced):
    workload, _, tracer, untraced_s, traced_s = traced
    assert set(workload.required) <= tracer.wrapped
    # required spans present, no forbidden one, self times add up
    assert run.trace_problems(workload, tracer, untraced_s, traced_s) == []


def test_wrappers_are_removed(traced):
    assert tracing.installed_wrappers() == []
    assert not hasattr(harness.opt_sdr.solve_maxdet, "__perfbench_span__")
    assert not hasattr(harness.opt_sdr.sensing_form, "__perfbench_span__")


def test_traced_outputs_match_untraced(traced):
    _, bench_run, _, _, _ = traced
    assert bench_run.problems == []  # includes "traced outputs differ"


def test_wrappers_are_removed_after_an_exception():
    tracer = tracing.Tracer()
    config = harness.desk_config(seed=0)
    with pytest.raises(ValueError):
        with tracer:
            harness.run_scenario(config, "no_such_algorithm")
    assert tracing.installed_wrappers() == []
    (span,) = tracer.spans
    assert span.name == "harness.run_scenario" and span.end >= span.start


def test_self_time_subtracts_children(tmp_path):
    spans = [
        tracing.Span("a", 0.0, 10.0, -1, 0),
        tracing.Span("b", 1.0, 4.0, 0, 0),
        tracing.Span("c", 2.0, 3.0, 1, 0),
        tracing.Span("b", 5.0, 7.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert tracing.top_self(spans) == [("a", 5.0), ("b", 4.0), ("c", 1.0)]
    tracing.write_spans(spans, tmp_path / "spans.csv")
    lines = (tmp_path / "spans.csv").read_text().splitlines()
    assert lines[0] == "index,name,start,end,parent,run_id"
    assert lines[3] == "2,c,2.0,3.0,1,0"


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_music_misses_beyond_the_stated_share_fail_the_run():
    localize = workloads.WORKLOADS["localize"]
    hit = workloads.Outcome(record=None, work=1, peak_err_m=[0.0])
    miss = workloads.Outcome(record=None, work=1, failed=1, peak_err_m=[2.0])
    assert localize.run_problems([hit] * 18 + [miss] * 2) == []
    assert localize.run_problems([hit] * 16 + [miss] * 3) != []


def test_call_s_is_the_median_of_successful_operations():
    bench = run.Run()
    bench.add(0, workloads.Outcome(record=None, work=6), 5.0)
    bench.add(1, workloads.Outcome(record=None, work=6, failed=1), 1.0)
    bench.add(2, workloads.Outcome(record=None, work=6), 7.0)
    assert run.end_to_end(bench, [0.5])["call_s"] == (6.0, 2)
    assert (bench.attempted, bench.failed, bench.problems) == (18, 1, [])


def test_repeats_are_timed_but_counted_once():
    bench = run.Run()
    for slot, wall in ((0, 5.0), (1, 1.0), (0, 6.0), (1, 1.5), (0, 7.0)):
        bench.add(slot, workloads.Outcome(record=slot, work=6, failed=slot), wall)
    assert run.end_to_end(bench, [0.5])["call_s"] == (6.0, 3)
    assert (bench.attempted, bench.failed, bench.problems) == (12, 1, [])
    assert len(bench.distinct) == 2


def test_a_repeat_that_differs_fails():
    bench = run.Run()
    bench.add(0, workloads.Outcome(record="a", work=6), 5.0)
    bench.add(0, workloads.Outcome(record="b", work=6), 5.0)
    bench.add_error(1, ValueError("x"))
    bench.add_error(1, ValueError("x"))
    assert (bench.attempted, bench.failed) == (7, 2)
    assert len(bench.problems) == 2


def test_pool_size_follows_the_nominal_time_not_the_program():
    desk, localize = workloads.WORKLOADS["desk_sweep"], workloads.WORKLOADS["localize"]
    assert [run.pool_size(desk, 50, passes) for passes in (1, 2)] == [9, 4]
    assert [run.pool_size(localize, 50, passes) for passes in (1, 2)] == [15, 7]
    assert run.pool_size(desk, 0, 1) == 1
