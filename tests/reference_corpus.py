"""Reference corpus of result rows and localize records, and the script that rewrites it.

`tests/data/reference_rows.csv` holds one row per algorithm on:
- the 54 desk cells: the desk_sweep scenarios derive_seed(op_seed(0..2,
  0..8), 0) at 0 and 60 dB;
- full-scale seeds 0-9 at 5, 80 and 85 dB;
- K = 64 (`subarrays: 64`) seed 0 at 80 dB.

Each row is `run_scenario`'s row less `wall_time_ms`, behind a `case` column
(desk, full or k64). The algorithms of one scenario share its prepared data,
as in a sweep. Floats are written with `repr`, so two rows with the same text
hold bitwise equal values.

`tests/data/reference_localize.csv` holds one record per `run_music` call
on the localize benchmark's desk scene (target at 20 m, 45 degrees; 1 cm grid
of +-5 m around it) at scenario seeds op_seed(0|7, 0..7): the peak location
and index, the -3 dB width, the number of flagged cells, and the spectrum's
max, sum and sha256.

`tests/test_reference_corpus.py` checks both files. Rewrite them with

    PYTHONPATH=src python tests/reference_corpus.py

only when a change moves rows or records on purpose, and say in CHANGES.md
what moved and why.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from modisac import harness
from modisac.music import GridSpec

DATA = Path(__file__).parent / "data"
ROWS_PATH = DATA / "reference_rows.csv"
LOCALIZE_PATH = DATA / "reference_localize.csv"

ROW_FIELDS = ["case"] + [
    f.name for f in dataclasses.fields(harness.ResultRow) if f.name != "wall_time_ms"
]
LOCALIZE_FIELDS = [
    "seed", "peak_x", "peak_y", "peak_iy", "peak_ix", "width", "flagged",
    "spectrum_max", "spectrum_sum", "spectrum_sha256",
]


def op_seed(seed: int, slot: int) -> int:
    """Scenario seed of the benchmark's input slot `slot` in a run at `seed`."""
    return int(np.random.SeedSequence([seed, slot]).generate_state(1)[0])


def _text(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def scenarios() -> list[tuple[str, harness.ScenarioConfig]]:
    """The corpus scenarios in row order, each with its case label."""
    cases = [
        ("desk", harness.desk_config(
            seed=harness.derive_seed(op_seed(run, slot), 0), scnr_threshold_db=db))
        for run in range(3) for slot in range(9) for db in (0.0, 60.0)
    ]
    cases += [
        ("full", harness.config_from_dict({"seed": seed, "scnr_threshold_db": db}))
        for seed in range(10) for db in (5.0, 80.0, 85.0)
    ]
    cases.append(("k64", harness.config_from_dict(
        {"subarrays": 64, "seed": 0, "scnr_threshold_db": 80.0})))
    return cases


def rows() -> list[dict[str, str]]:
    """Every corpus row as field name -> text, in file order."""
    out = []
    for case, config in scenarios():
        data = harness.prepare_scenario(config)
        for algorithm in harness.ALGORITHMS:
            row = harness.run_scenario(config, algorithm, data)
            fields = {name: _text(getattr(row, name)) for name in ROW_FIELDS[1:]}
            out.append({"case": case, **fields})
    return out


def localize_scene(seed: int) -> tuple[harness.ScenarioConfig, GridSpec]:
    """The localize benchmark's desk scene at `seed` and its 1 cm grid."""
    range_m, angle = 20.0, math.radians(45.0)
    x, y = range_m * math.sin(angle), range_m * math.cos(angle)
    config = harness.desk_config(
        seed=seed,
        target={"range_m": range_m, "angle_deg": 45.0, "rcs": 0.15},
        interferers=[{"range_m": 30.0, "angle_deg": 40.0, "rcs": 0.3}],
        noise_sens_dbm=-10.0,
    )
    return config, GridSpec(x - 5.0, 0.01, x + 5.0, y - 5.0, 0.01, y + 5.0)


def localize_records() -> list[dict[str, str]]:
    """Every localize record as field name -> text, in file order."""
    out = []
    for run in (0, 7):
        for slot in range(8):
            seed = op_seed(run, slot)
            result, _, _ = harness.run_music(*localize_scene(seed))
            values = (
                seed, *result.peak_location, *result.peak_index, result.mainlobe_width,
                len(result.flagged_cells), result.spectrum.max(), result.spectrum.sum(),
                hashlib.sha256(result.spectrum.tobytes()).hexdigest(),
            )
            out.append(dict(zip(LOCALIZE_FIELDS, map(_text, values))))
    return out


def read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _write(path: Path, fields: list[str], records: list[dict[str, str]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


def main() -> int:
    DATA.mkdir(exist_ok=True)
    _write(ROWS_PATH, ROW_FIELDS, rows())
    _write(LOCALIZE_PATH, LOCALIZE_FIELDS, localize_records())
    print(f"wrote {ROWS_PATH} and {LOCALIZE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
