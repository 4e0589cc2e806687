import contextlib
import csv
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from modisac import cli, validation


@pytest.fixture(scope="session")
def desk_data():
    """Desk-scale scenario (K=4, M=8, N=32, N_RF=16), seed 0."""
    return validation._mini_data()


@pytest.fixture(scope="session")
def small_data():
    """Small instance (K=3, M=4, N=12, N_RF=9) with a near-field user."""
    return validation._small_data()


@pytest.fixture(scope="session")
def validate_run(tmp_path_factory):
    """Exit code, stdout and CSV report lines of one `modisac validate` run."""
    path = tmp_path_factory.mktemp("validate") / "report.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate", "--report", str(path)])
    return code, out.getvalue(), path.read_text().splitlines()


@pytest.fixture()
def assert_check(validate_run):
    """Assert that the named check passed in the shared `modisac validate` run."""
    rows = {row[0]: row for row in csv.reader(validate_run[2][1:])}

    def passed(name: str) -> None:
        assert rows[name][1] == "1", rows[name][2]

    return passed


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
