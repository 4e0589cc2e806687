"""Rows and localize records against the committed reference corpus.

The checks hold across BLAS builds and CPUs: statuses and integer columns
exactly (but rm_jgd `iterations` on binding rows, whose step count follows
rounding), fdb and sdr_rrs floats to 1e-9 relative, rm_jgd `se_bits` to 1e-7
bits, and localize peak index and flags exactly, the width and spectrum
summary to 1e-9 relative. How many rows and records are byte-identical is
printed, never asserted. `reference_corpus.py` says how to rewrite the files.
"""

from __future__ import annotations

import math

import reference_corpus as corpus

EXACT_ROW = {
    "case", "algorithm", "seed", "k_subarrays", "m_antennas", "n_user", "n_paths",
    "n_objects", "n_streams", "n_rf", "layout", "iterations", "status",
}
METRICS = ("se_bits", "scnr_db", "power_exact", "power_proxy")
# the SCNR floor can bind at 60 dB and above; at 0 and 5 dB every row clears it by 49 dB or more
BINDING_DB = 60.0


def _close(ref: str, new: str, rel: float = 0.0, abs_: float = 0.0) -> bool:
    a, b = float(ref), float(new)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _row_mismatches(ref: dict[str, str], new: dict[str, str]) -> list[str]:
    rm_jgd = ref["algorithm"] == "rm_jgd"
    binding = float(ref["scnr_threshold_db"]) >= BINDING_DB
    out = []
    for name in corpus.ROW_FIELDS:
        if name in EXACT_ROW:
            ok = ref[name] == new[name] or (name == "iterations" and rm_jgd and binding)
        elif name not in METRICS:  # configuration
            ok = _close(ref[name], new[name], rel=1e-9)
        elif rm_jgd:  # its SCNR and powers follow the step count; se_bits is pinned
            ok = name != "se_bits" or _close(ref[name], new[name], abs_=1e-7)
        else:
            ok = _close(ref[name], new[name], rel=1e-9)
        if not ok:
            out.append(f"{name} {ref[name]} -> {new[name]}")
    return out


def test_rows_match_reference():
    reference, rows = corpus.read(corpus.ROWS_PATH), corpus.rows()
    assert [r["case"] for r in rows] == [r["case"] for r in reference]
    moved = []
    for ref, new in zip(reference, rows):
        bad = _row_mismatches(ref, new)
        if bad:
            moved.append(f"{ref['case']} {ref['algorithm']} seed {ref['seed']} "
                         f"{ref['scnr_threshold_db']} dB: " + "; ".join(bad))
    identical = sum(ref == new for ref, new in zip(reference, rows))
    print(f"reference rows: {identical} of {len(reference)} byte-identical")
    assert not moved, "\n".join(moved)


def test_localize_records_match_reference():
    reference, records = corpus.read(corpus.LOCALIZE_PATH), corpus.localize_records()
    assert [r["seed"] for r in records] == [r["seed"] for r in reference]
    moved = []
    for ref, new in zip(reference, records):
        bad = [name for name in ("peak_iy", "peak_ix", "flagged") if ref[name] != new[name]]
        bad += [
            name for name in ("peak_x", "peak_y", "width", "spectrum_max", "spectrum_sum")
            if not _close(ref[name], new[name], rel=1e-9)
        ]
        if bad:
            moved.append(f"seed {ref['seed']}: " + ", ".join(
                f"{name} {ref[name]} -> {new[name]}" for name in bad))
    identical = sum(ref == new for ref, new in zip(reference, records))
    hashes = sum(ref["spectrum_sha256"] == new["spectrum_sha256"]
                 for ref, new in zip(reference, records))
    print(f"reference localize records: {identical} of {len(reference)} byte-identical, "
          f"{hashes} spectrum hashes equal")
    assert not moved, "\n".join(moved)
