"""Numerical kernels for gesture feature extraction.

Discrete Fourier transform, analytic signal, statistical moments, Pearson
and lagged cross-correlation, spectral energy. All functions are pure,
deterministic, and operate on 1-D float64 series of natural (unpadded)
length; sequences are never windowed, resampled or altered.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dft",
    "idft",
    "spectral_energy",
    "analytic_signal",
    "hilbert_imag",
    "mean",
    "minimum",
    "maximum",
    "skew",
    "kurtosis",
    "pearson_corr",
    "cross_corr_feature",
]

# Variance below this is treated as zero (constant signal): correlation
# and moment-shape features return 0 instead of dividing by ~0.
DEGENERATE_VARIANCE = 1e-24

_TINY = np.finfo(np.float64).tiny  # smallest normal float64


def _as_series(x, min_len: int = 1) -> np.ndarray:
    if np.iscomplexobj(x):
        raise ValueError("expected a real-valued series")
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {a.shape}")
    if a.size < min_len:
        raise ValueError(f"series too short: length {a.size} < {min_len}")
    if not np.isfinite(a).all():
        raise ValueError("series contains non-finite values")
    return a


def dft(x) -> np.ndarray:
    """Discrete Fourier transform X_k = sum_j x_j exp(-2*pi*i*j*k/n).

    Handles arbitrary n (no power-of-two requirement); gesture samples
    keep their natural lengths.
    """
    x = _as_series(x)
    return np.fft.fft(x)


def idft(X) -> np.ndarray:
    """Inverse DFT with 1/n normalization; idft(dft(x)) recovers x."""
    X = np.asarray(X, dtype=np.complex128)
    if X.ndim != 1 or X.size < 1:
        raise ValueError("expected a non-empty 1-D complex series")
    return np.fft.ifft(X)


def spectral_energy(x) -> float:
    """Spectral energy (1/n) * sum_k |X_k|^2.

    With the 1/n normalization this equals the time-domain sum of
    squares (Parseval), which anchors an independent oracle.
    """
    x = _as_series(x)
    X = np.fft.fft(x)
    return float(np.sum(np.abs(X) ** 2) / x.size)


def analytic_signal(x) -> np.ndarray:
    """Analytic signal via spectral weighting: idft(dft(x) * w).

    w_0 = 1; w_k = 2 for 0 < k < n/2; w_{n/2} = 1 when n is even; 0 for
    k > n/2. The real part equals the input and the negative-frequency
    half of the spectrum is zeroed.
    """
    x = _as_series(x, min_len=2)
    n = x.size
    X = np.fft.fft(x)
    w = np.zeros(n)
    half = n // 2
    if n % 2 == 0:
        w[0] = w[half] = 1.0
        w[1:half] = 2.0
    else:
        w[0] = 1.0
        w[1 : half + 1] = 2.0
    return np.fft.ifft(X * w)


def hilbert_imag(x) -> np.ndarray:
    """Imaginary part of the analytic signal: the input phase-shifted
    by a quarter cycle."""
    return analytic_signal(x).imag


def mean(x) -> float:
    return float(np.mean(_as_series(x)))


def minimum(x) -> float:
    return float(np.min(_as_series(x)))


def maximum(x) -> float:
    return float(np.max(_as_series(x)))


def _central_moments(x: np.ndarray, upto: int) -> list[float]:
    d = x - x.mean()
    return [float(np.mean(d**k)) for k in range(2, upto + 1)]


def skew(x) -> float:
    """Moment skewness g1 = m3 / m2^1.5 with population moments.

    Returns 0 for (near-)constant series.
    """
    x = _as_series(x, min_len=3)
    m2, m3 = _central_moments(x, 3)
    if m2 < DEGENERATE_VARIANCE:
        return 0.0
    return m3 / m2**1.5


def kurtosis(x) -> float:
    """Excess kurtosis g2 = m4 / m2^2 - 3 with population moments.

    Returns 0 for (near-)constant series.
    """
    x = _as_series(x, min_len=4)
    m2, _, m4 = _central_moments(x, 4)
    if m2 < DEGENERATE_VARIANCE:
        return 0.0
    return m4 / m2**2 - 3.0


def pearson_corr(a, b) -> float:
    """Product-moment correlation of two equal-length series.

    Returns 0 when either side has (near-)zero variance; constant axes
    occur in one-dimensional gestures and must not fail extraction.
    """
    a = _as_series(a, min_len=2)
    b = _as_series(b, min_len=2)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} != {b.size}")
    da = a - a.mean()
    db = b - b.mean()
    va = float(np.mean(da**2))
    vb = float(np.mean(db**2))
    if va < DEGENERATE_VARIANCE or vb < DEGENERATE_VARIANCE:
        return 0.0
    return float(np.mean(da * db)) / np.sqrt(va * vb)


def cross_corr_feature(a, b) -> float:
    """Best-alignment cross-correlation between two series.

    Maximum over all lags tau in (-n, n) of sum_j a_j * b_{j+tau},
    normalized by sqrt(sum a^2 * sum b^2); out-of-range terms are zero.
    The maximum over lags makes the feature insensitive to the relative
    timing of the two axes, i.e. to gesture speed. Returns 0 when either
    signal is all-zero.

    The feature is scale-free. When the energy product ``ea * eb`` is 0,
    subnormal or not finite, both series are first scaled to unit peak,
    so tiny and huge signals give the value of their unit-scale shapes;
    every other input is computed unscaled.
    """
    a = _as_series(a, min_len=2)
    b = _as_series(b, min_len=2)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} != {b.size}")
    norm = float(np.sum(a**2)) * float(np.sum(b**2))
    if not _TINY <= norm < np.inf:
        peak_a = np.abs(a).max()
        peak_b = np.abs(b).max()
        if peak_a == 0.0 or peak_b == 0.0:
            return 0.0
        a = a / peak_a
        b = b / peak_b
        norm = float(np.sum(a**2)) * float(np.sum(b**2))
    lagged = np.correlate(a, b, mode="full")  # all overlaps, tau in (-n, n)
    return float(lagged.max()) / np.sqrt(norm)
