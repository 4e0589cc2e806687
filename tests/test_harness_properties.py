"""Property tests of `harness.sweep` on small desk scenarios (needs `hypothesis`)."""

import dataclasses
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modisac import harness  # noqa: E402

SE_TOL_BITS = 1e-6


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    paths=st.integers(1, 2),
    user_antennas=st.integers(2, 4),
    algorithms=st.permutations(harness.ALGORITHMS),
    repetitions=st.integers(1, 2),
)
def test_sweep_rows_match_single_runs_and_fdb_bounds(
    seed, paths, user_antennas, algorithms, repetitions
):
    # the cells of a point share one prepare and one relaxed solve, yet each
    # row is the row of its algorithm run alone, and on solved rows the
    # relaxation's dual bound tops both beamformers' rates
    base = harness.desk_config(seed=seed, paths=paths, user_antennas=user_antennas)
    values = [0.0, 60.0]
    with tempfile.TemporaryDirectory() as tmp:
        spec = harness.ExperimentSpec(
            base=base, sweep_axis="scnr_threshold", values=values,
            algorithms=list(algorithms), repetitions=repetitions,
            output_path=str(Path(tmp) / "sweep.csv"),
        )
        lines = Path(harness.sweep(spec)).read_text().splitlines()
    cells = [ln for ln in lines[1:] if not ln.startswith("summary,")]
    assert len(cells) == len(values) * len(algorithms) * repetitions
    se: dict[tuple[float, int], dict[str, float]] = {}
    index = 0
    for value in values:
        for algorithm in algorithms:
            for rep in range(repetitions):
                config = dataclasses.replace(
                    harness.apply_axis(base, "scnr_threshold", value),
                    seed=harness.derive_seed(base.seed, rep),
                )
                row = harness.run_scenario(config, algorithm)
                expected = f"{index},scnr_threshold,{value}," + row.to_csv()
                assert cells[index].rsplit(",", 1)[0] == expected.rsplit(",", 1)[0]
                if row.status == "ok":
                    se.setdefault((value, rep), {})[algorithm] = float(f"{row.se_bits:.9g}")
                index += 1
    for point in se.values():
        for other in ("sdr_rrs", "rm_jgd"):
            if "fdb" in point and other in point:
                assert point["fdb"] >= point[other] - SE_TOL_BITS, (other, point)


def _row_fields(row: harness.ResultRow) -> list[str]:
    """Every field of a row but its wall time, as exact reprs (nan == nan)."""
    return [
        repr(getattr(row, f.name)) for f in dataclasses.fields(row) if f.name != "wall_time_ms"
    ]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    paths=st.integers(1, 2),
    user_antennas=st.integers(2, 4),
)
def test_same_seed_gives_the_same_row(seed, paths, user_antennas):
    # every algorithm, run twice from scratch on one config, returns the same
    # row field for field, slack (0 dB) and binding (60 dB) sensing alike
    for db in (0.0, 60.0):
        config = harness.desk_config(
            seed=seed, paths=paths, user_antennas=user_antennas, scnr_threshold_db=db
        )
        for algorithm in harness.ALGORITHMS:
            first, second = (harness.run_scenario(config, algorithm) for _ in range(2))
            assert _row_fields(first) == _row_fields(second), (algorithm, db)
