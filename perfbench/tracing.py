"""In-memory span tracer for modisac's public functions.

The tracer wraps every public function of the layer modules at each name a
caller looks it up by: the defining module's own global (so calls such as
`sdr_rrs -> solve_maxdet` inside `opt_sdr` are seen) and every other
`modisac.*` module that imported the same function object by name (so
`sensing_form` is also wrapped inside `opt_sdr`). Names that `run_music` and
`build_subspace` import at call time resolve to the wrapped module
attributes. Spans stay in memory; `remove()` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

PACKAGE = "modisac"
LAYERS = ("geometry", "channel", "beamform", "opt_manifold", "opt_sdr", "music", "harness")

# Small facts read from return values when a span closes, so that counters
# are measured where the work happens without keeping large results alive.
EXTRACTORS: dict[str, Callable[[Any], Any]] = {
    "opt_sdr.solve_maxdet": lambda r: r.newton_steps,
    "opt_manifold.rm_jgd": lambda r: (r.iterations, r.status),
    "music.music_spectrum": lambda r: r.spectrum.size,
}


@dataclass(slots=True)
class Span:
    """One call of a wrapped function; `parent` indexes the enclosing span."""

    name: str
    start: float
    end: float
    parent: int
    run_id: int
    info: Any = None


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Callable]] = []
        self.wrapped: set[str] = set()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        extract = EXTRACTORS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                span.info = extract(result)
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def install(self) -> None:
        """Replace every public layer function at all of its lookup sites."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                    self.wrapped.add(f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Restore every original function the tracer replaced."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def write_spans(spans: list[Span], path) -> None:
    """Write spans as CSV: index, name, start, end, parent index, run id."""
    with open(path, "w") as f:
        f.write("index,name,start,end,parent,run_id\n")
        for i, s in enumerate(spans):
            f.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.run_id}\n")


def installed_wrappers() -> list[str]:
    """Module attributes that are still tracer wrappers (empty when clean)."""
    left = []
    for modname, module in list(sys.modules.items()):
        if modname == PACKAGE or modname.startswith(PACKAGE + "."):
            for attr, obj in vars(module).items():
                if getattr(obj, "__perfbench_span__", None) is not None:
                    left.append(f"{modname}.{attr}")
    return left


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its child spans cover.

    Children of one span run one after another in the same thread, so the
    time they cover is the sum of their durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _sum(values) -> float:
    return float(sum(values))


def layer_metrics(spans: list[Span], ops: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name.

    `.s` is self time and `.calls` a call count, both summed over the run
    and divided by the run's `ops` top-level operations, as are the Newton
    step and iteration counts: a run fills a fixed time, so raw sums would
    grow with the speed of the program. A layer that did not run reports 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def self_s(name: str) -> float:
        return _sum(own[i] for i in by_name.get(name, ())) / ops

    def calls(name: str) -> float:
        return len(by_name.get(name, ())) / ops

    def self_s_under(name: str, parent: str) -> float:
        return _sum(
            own[i] for i in by_name.get(name, ()) if spans[i].parent >= 0
            and spans[spans[i].parent].name == parent
        ) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    newton = sum(spans[i].info for i in by_name.get("opt_sdr.solve_maxdet", ()))
    rm = [spans[i].info for i in by_name.get("opt_manifold.rm_jgd", ())]
    rm_iters = sum(it for it, _ in rm)
    cells = sum(spans[i].info for i in by_name.get("music.music_spectrum", ()))
    solve_total = _sum(
        spans[i].end - spans[i].start for i in by_name.get("opt_sdr.solve_maxdet", ())
    )
    spectrum_total = _sum(
        spans[i].end - spans[i].start for i in by_name.get("music.music_spectrum", ())
    )
    m: dict[str, float] = {
        "opt_sdr.solve_maxdet.s": self_s("opt_sdr.solve_maxdet"),
        "opt_sdr.solve_maxdet.calls": calls("opt_sdr.solve_maxdet"),
        "opt_sdr.newton_steps": newton / ops,
        "opt_sdr.s_per_newton_step": ratio(solve_total, newton),
        "opt_sdr.make_maxdet_problem.s": self_s("opt_sdr.make_maxdet_problem"),
        "opt_sdr.randomize_rank.s": self_s("opt_sdr.randomize_rank"),
        "opt_sdr.randomize_rank.calls": calls("opt_sdr.randomize_rank"),
        "opt_sdr.sdr_rrs.calls": calls("opt_sdr.sdr_rrs"),
        "opt_manifold.rm_jgd.s": self_s("opt_manifold.rm_jgd"),
        "opt_manifold.rm_jgd.calls": calls("opt_manifold.rm_jgd"),
        "opt_manifold.rm_jgd.iterations": rm_iters / ops,
        "opt_manifold.converged_frac": ratio(
            sum(status == "converged" for _, status in rm), len(rm)
        ),
        "opt_manifold.stiefel_retract.s": self_s("opt_manifold.stiefel_retract"),
        "opt_manifold.stiefel_retract.calls": calls("opt_manifold.stiefel_retract"),
        "opt_manifold.barrier_value.s": self_s("opt_manifold.barrier_value"),
        "opt_manifold.barrier_value.calls": calls("opt_manifold.barrier_value"),
        "opt_manifold.evals_per_iter": ratio(
            len(by_name.get("opt_manifold.barrier_value", ())), rm_iters
        ),
        "opt_manifold.grad.s": self_s("opt_manifold.grad_v")
        + self_s("opt_manifold.grad_b")
        + self_s("opt_manifold.tangent_project"),
        "opt_manifold.reduce_b.s": self_s("opt_manifold.reduce_b"),
        "opt_manifold.phase1_feasible.s": self_s("opt_manifold.phase1_feasible"),
        "music.music_spectrum.s": self_s("music.music_spectrum"),
        "music.cells_per_s": ratio(cells, spectrum_total),
        "music.sample_covariance.s": self_s("music.sample_covariance"),
        "music.noise_subspace.s": self_s("music.noise_subspace"),
        "channel.simulate_echoes.s": self_s("channel.simulate_echoes"),
        "harness.prepare_scenario.s": self_s("harness.prepare_scenario"),
        "geometry.build_geometry.s": self_s("geometry.build_geometry"),
        "channel.draw_paths.s": self_s("channel.draw_paths"),
        "channel.build_comm_channel.s": self_s("channel.build_comm_channel"),
        "channel.build_responses.s": self_s("channel.build_responses"),
        "beamform.build_subspace.s": self_s("beamform.build_subspace"),
        "beamform.phi_matrices.s": self_s("beamform.phi_matrices"),
        "beamform.mvdr_receive.s": self_s("beamform.mvdr_receive"),
        "beamform.mvdr_receive.calls": calls("beamform.mvdr_receive"),
        "beamform.mvdr_receive.fixed.s": self_s_under(
            "beamform.mvdr_receive", "harness.prepare_scenario"
        ),
        "beamform.mvdr_receive.refresh.s": self_s_under(
            "beamform.mvdr_receive", "harness.run_scenario"
        ),
        "beamform.scnr.s": self_s("beamform.scnr"),
        "harness.sweep.s": self_s("harness.sweep"),
        "harness.run_scenario.s": self_s("harness.run_scenario"),
        "harness.run_music.s": self_s("harness.run_music"),
        "trace.ops": ops,
        "trace.spans": len(spans) / ops,
        "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
    }
    return m


def top_self(spans: list[Span]) -> list[tuple[str, float]]:
    """Function names by summed self time, largest first."""
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + own
    return sorted(totals.items(), key=lambda kv: -kv[1])
