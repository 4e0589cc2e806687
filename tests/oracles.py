"""Independent closed-form oracles used to pin expected values in tests."""

import numpy as np


def waterfilling_se_bits(gains, budget: float) -> float:
    """Capacity of parallel channels: max sum log2(1 + p_i g_i), sum p_i <= budget.

    Classic water level over the channels sorted by gain; channels whose
    inverse gain sits above the water get nothing.
    """
    gains = np.sort(np.asarray(gains, dtype=float))[::-1]
    gains = gains[gains > 0]
    if gains.size == 0 or budget <= 0:
        return 0.0
    inv = 1.0 / gains
    for k in range(gains.size, 0, -1):
        level = (budget + np.sum(inv[:k])) / k
        if level - inv[k - 1] >= 0:
            powers = level - inv[:k]
            return float(np.sum(np.log2(1.0 + powers * gains[:k])))
    return 0.0


def channel_gains(h_eff: np.ndarray, sigma_c_sq: float) -> np.ndarray:
    """Noise-normalized eigenchannel gains of an effective channel matrix."""
    s = np.linalg.svd(h_eff, compute_uv=False)
    return s**2 / sigma_c_sq

