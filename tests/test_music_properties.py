"""Property tests of the MUSIC projection identity (needs `hypothesis`)."""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modisac import harness  # noqa: E402
from modisac.geometry import build_geometry  # noqa: E402
from modisac.music import (  # noqa: E402
    _coincident_cells,
    _grid_views,
    _grid_work,
    _pseudo_spectrum,
    _receive_responses_grid,
    _x_offsets,
)


@functools.lru_cache(maxsize=None)
def _desk_geometry():
    return build_geometry(harness.desk_config(seed=0))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(0, 32),
    count=st.integers(1, 40),
)
def test_noise_and_signal_side_denominators_agree(seed, width, count):
    # ||E^H g||^2 = N - ||S^H g||^2 for S the orthonormal complement of E,
    # to within the rounding of ||g||^2 = N, whatever the basis width
    geometry = _desk_geometry()
    n = geometry.k_subarrays * geometry.m_antennas
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    noise, signal = q[:, :width], q[:, width:]
    r = rng.uniform(1.0, 80.0, count)
    theta = rng.uniform(-1.5, 1.5, count)
    x, y = r * np.sin(theta), r * np.cos(theta)
    offsets = _x_offsets(geometry, x[None])
    work = _grid_work(count, geometry.k_subarrays, geometry.m_antennas)
    views = _grid_views(geometry, work, (1, count), (1, count))
    responses = _receive_responses_grid(offsets, y[None], views)
    assert _coincident_cells(geometry, offsets[0], x[None], y[None]).size == 0
    # one response per row, entry k*M + i from G[i, k, c]
    rows = responses.transpose(2, 1, 0).reshape(count, n)
    noise_side = np.linalg.norm(rows @ noise.conj(), axis=1) ** 2
    signal_side = n - np.linalg.norm(rows @ signal.conj(), axis=1) ** 2
    bound = 64 * n * np.finfo(float).eps
    assert np.max(np.abs(noise_side - signal_side)) <= bound
    values, _ = _pseudo_spectrum(geometry, noise, x, y)
    assert np.max(np.abs(1.0 / values - 1e-18 - noise_side)) <= bound
