"""Numerical kernels for gesture feature extraction.

Hilbert transform, statistical moments, Pearson and lagged
cross-correlation, spectral energy. The transforms run on numpy's real
FFT and an energy is a sum of squares. All functions are deterministic
and leave their arguments unchanged.

The kernels work along the last axis: one call takes a stack of rows of
equal length, such as the three axes of a recording stored as a
contiguous ``(3, n)`` array, and gives one value (or row) per row. They
trust their input; ``features.feature_set`` checks a recording once and
then calls each kernel once per gesture, and ``features.extract_all``
calls each once per group of equal-length recordings, on the ``(3k, n)``
stack of their axes. Rows reduce along the contiguous last axis, where
numpy sums each row pairwise exactly as it sums a 1-D series, and its
FFT transforms each row on its own, so a row's value has the bits of
the 1-D call on that row. Reductions call
the ufuncs' ``reduce`` directly: ``np.add.reduce(a, -1) / n`` is how
numpy's ``mean`` is defined, so the bits are the same without its
Python wrapper, as are ``np.add``/``np.minimum``/``np.maximum.reduce``
for ``sum``/``min``/``max``. Scalar square roots are ``math.sqrt``,
correctly rounded like ``np.sqrt``.

The 1-D functions (``skew``, ``pearson_corr``, ``hilbert_imag``, ...)
check their series with ``_as_series`` and call the same kernels on it.

Portable arithmetic. The array arithmetic is IEEE products and sums,
real FFTs and ``sqrt``: moments come from products of the centred
values (``d*d``, ``(d*d)*d``, ``(d*d)*(d*d)``), energies are sums of
``x*x``, and the cross-correlation forms ``A*conj(B)`` from separate
real products. numpy picks its vectorised ``pow``, complex ``abs`` and
complex multiply loops by CPU, and their last bits differ between its
SIMD targets (baseline, AVX2, AVX-512); a product or a sum rounds the
same way on every target. The scalar ``m2**1.5`` and ``m2**2`` stay on
Python floats.

Numeric contract. Skewness, kurtosis and Pearson correlation are
scale-free. Each row has a scale: its peak magnitude, or that of the
series it was derived from (a Hilbert transform takes its axis's). A
row is centred as it is when its scale is at most ``MAX_SCALE`` and its
variance at least ``DEGENERATE_VARIANCE * max(1, scale**2)``; such rows
keep their exact bits. Any other row is centred after dividing it by
its scale, and there variance below ``DEGENERATE_VARIANCE`` marks a
constant row, whose values are 0. So rows of any magnitude give the
values of their unit-peak shapes, and no power of a centred value can
overflow. The cross-correlation feature follows the same pattern on its
energy product.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "spectral_energy",
    "hilbert_rows",
    "hilbert_imag",
    "mean",
    "minimum",
    "maximum",
    "centred_rows",
    "skews",
    "kurtoses",
    "pearsons",
    "skew",
    "kurtosis",
    "pearson_corr",
    "max_cross_corrs",
    "cross_corr_feature",
]

# Variance below this, on a series scaled to unit peak, is treated as
# zero (constant signal): correlation and moment-shape features return 0
# instead of dividing by ~0.
DEGENERATE_VARIANCE = 1e-24

# Rows whose scale exceeds this are centred at unit peak: below it, the
# third and fourth powers of the centred values, m2**1.5 and m2**2 stay
# far from the float64 limit.
MAX_SCALE = 1e75

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


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = _as_series(a, min_len=2)
    b = _as_series(b, min_len=2)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} != {b.size}")
    return a, b


def hilbert_rows(rows: np.ndarray) -> np.ndarray:
    """Hilbert transform of each row (the imaginary part of its analytic
    signal): the inverse rFFT of -i*X_k, with X the row's rFFT and bin 0
    and, for even n, bin n/2 set to 0. Turning a bin by -i swaps its
    parts, (re, im) = (X.imag, -X.real), and rounds nothing."""
    n = rows.shape[-1]
    spectra = np.fft.rfft(rows)
    turned = np.empty_like(spectra)
    turned.real = spectra.imag
    np.negative(spectra.real, out=turned.imag)
    turned[..., 0] = 0.0
    if n % 2 == 0:
        turned[..., -1] = 0.0
    return np.fft.irfft(turned, n)


def spectral_energy(x) -> float:
    """Spectral energy (1/n) * sum_k |X_k|^2, computed as the time-domain
    sum of squares it equals (Parseval)."""
    a = _as_series(x)
    return float(np.add.reduce(a * a))


def hilbert_imag(x) -> np.ndarray:
    """Imaginary part of the analytic signal: the input phase-shifted
    by a quarter cycle."""
    return hilbert_rows(_as_series(x, min_len=2))


def mean(x) -> float:
    a = _as_series(x)
    return float(np.add.reduce(a) / a.size)


def minimum(x) -> float:
    return float(np.minimum.reduce(_as_series(x)))


def maximum(x) -> float:
    return float(np.maximum.reduce(_as_series(x)))


def centred_rows(rows: np.ndarray, scale: np.ndarray):
    """Mean, centred rows d, their squares d*d and population variance
    m2 of each row.

    ``scale`` holds each row's peak magnitude, or that of the series the
    row was derived from. A row that fails the numeric contract (module
    docstring) is centred, and its variance taken, after dividing it by
    its scale; its mean is always the raw one. The higher moments taken
    from the centred rows (``skews``, ``kurtoses``) then cannot overflow.
    """
    n = rows.shape[-1]
    mu = np.add.reduce(rows, -1) / n
    d = rows - mu[..., None]
    d2 = d * d
    m2 = np.add.reduce(d2, -1) / n
    # A few rows are decided faster on Python floats than by array calls;
    # c * c is the square that ** 2 takes on an array.
    scales = scale.tolist()
    redo = [
        not (s <= MAX_SCALE and v >= DEGENERATE_VARIANCE * (c * c))
        for s, c, v in zip(scales, [max(1.0, s) for s in scales], m2.tolist())
    ]
    if any(redo):
        redo = np.array(redo)
        # An all-zero row has scale 0 and stays all-zero.
        unit = rows[redo] / np.where(scale[redo] > 0.0, scale[redo], 1.0)[..., None]
        du = unit - (np.add.reduce(unit, -1) / n)[..., None]
        d[redo] = du
        d2[redo] = du * du
        m2[redo] = np.add.reduce(d2[redo], -1) / n
    return mu, d, d2, m2


def skews(d, d2, m2) -> list[float]:
    """Moment skewness g1 = m3 / m2^1.5 of each centred row d with
    squares d2 and variance m2; 0 for a (near-)constant row."""
    m3 = np.add.reduce(d2 * d, -1) / d.shape[-1]
    return [
        0.0 if v < DEGENERATE_VARIANCE else t / v**1.5
        for v, t in zip(m2.tolist(), m3.tolist())
    ]


def kurtoses(d2, m2) -> list[float]:
    """Excess kurtosis g2 = m4 / m2^2 - 3 of each centred row with
    squares d2 and variance m2; 0 for a (near-)constant row."""
    m4 = np.add.reduce(d2 * d2, -1) / d2.shape[-1]
    return [
        0.0 if v < DEGENERATE_VARIANCE else f / v**2 - 3.0
        for v, f in zip(m2.tolist(), m4.tolist())
    ]


def pearsons(da, db, va, vb) -> list[float]:
    """Product-moment correlation of each pair of centred rows (da[i],
    db[i]) with variances va[i], vb[i]; 0 when either side is
    (near-)constant."""
    cov = np.add.reduce(da * db, -1) / da.shape[-1]
    return [
        0.0 if a < DEGENERATE_VARIANCE or b < DEGENERATE_VARIANCE
        else c / math.sqrt(a * b)
        for c, a, b in zip(cov.tolist(), va.tolist(), vb.tolist())
    ]


def _centred(*series):
    rows = np.stack(series)
    # Beyond MAX_SCALE the raw moments overflow and are then recomputed.
    with np.errstate(over="ignore"):
        return centred_rows(rows, np.maximum.reduce(np.abs(rows), -1))


def skew(x) -> float:
    """Moment skewness g1 = m3 / m2^1.5 with population moments.

    Returns 0 for (near-)constant series.
    """
    _, d, d2, m2 = _centred(_as_series(x, min_len=3))
    return skews(d, d2, m2)[0]


def kurtosis(x) -> float:
    """Excess kurtosis g2 = m4 / m2^2 - 3 with population moments.

    Returns 0 for (near-)constant series.
    """
    _, _, d2, m2 = _centred(_as_series(x, min_len=4))
    return kurtoses(d2, m2)[0]


def pearson_corr(a, b) -> float:
    """Product-moment correlation of two equal-length series.

    Returns 0 when either side has (near-)zero variance; constant axes
    occur in one-dimensional gestures and must not fail extraction.
    """
    _, d, _, m2 = _centred(*_pair(a, b))
    return pearsons(d[:1], d[1:], m2[:1], m2[1:])[0]


def max_cross_corrs(rows: np.ndarray, first, second, energies) -> list[float]:
    """``cross_corr_feature`` of each pair of rows (rows[first[p]],
    rows[second[p]]) of a checked ``(k, n)`` array whose row sums of
    squares are ``energies``.

    One batched rFFT of all rows, zero-padded to a power of two
    L >= 2n - 1 so that no lag wraps around, gives every pair's lagged
    sums. A pair whose energy product is 0, subnormal or not finite is
    correlated on unit-peak copies of its rows, which join the batch.
    """
    first, second = list(first), list(second)
    norm = [energies[i] * energies[j] for i, j in zip(first, second)]
    zero = set()
    for p, v in enumerate(norm):
        if _TINY <= v < np.inf:
            continue
        x, y = rows[first[p]], rows[second[p]]
        peak_x, peak_y = np.maximum.reduce(np.abs(x)), np.maximum.reduce(np.abs(y))
        if peak_x == 0.0 or peak_y == 0.0:
            zero.add(p)
            continue
        unit = np.stack((x / peak_x, y / peak_y))
        first[p], second[p] = len(rows), len(rows) + 1
        rows = np.concatenate((rows, unit))
        norm[p] = float(np.add.reduce(unit[0] * unit[0])) * float(
            np.add.reduce(unit[1] * unit[1])
        )
    n = rows.shape[-1]
    size = 1 << (2 * n - 2).bit_length()
    spectra = np.fft.rfft(rows, size)
    a, b = spectra.take(first, 0), spectra.take(second, 0)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    # A * conj(B) from real products: sum_j a_{j+tau} b_j at index tau.
    cross = np.empty_like(a)
    np.add(ar * br, ai * bi, out=cross.real)
    np.subtract(ai * br, ar * bi, out=cross.imag)
    lagged = np.fft.irfft(cross, size)
    # Lags 0..n-1 lead, -(n-1)..-1 close the row; the rest is padding.
    best = np.maximum(
        np.maximum.reduce(lagged[:, :n], -1),
        np.maximum.reduce(lagged[:, size - n + 1 :], -1),
    )
    return [
        0.0 if p in zero else c / math.sqrt(v)
        for p, (c, v) in enumerate(zip(best.tolist(), norm))
    ]


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
    rows = np.stack(_pair(a, b))
    return max_cross_corrs(rows, [0], [1], np.add.reduce(rows * rows, -1).tolist())[0]
