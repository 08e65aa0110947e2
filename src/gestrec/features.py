"""Fixed 33-value feature vector for tri-axial gesture samples.

Every sample, whatever its length, maps to the same 33 values in a frozen
order: 15 time-domain values (per-axis mean, skewness and kurtosis, then
pairwise Pearson and maximum normalized cross-correlation), 3
frequency-domain values (per-axis spectral energy), and 15 Hilbert-domain
values (mean, skewness, spectral energy, minimum and maximum of each
axis's Hilbert transform). Classifiers and model files are only
interchangeable when they agree on this order, so it carries an explicit
version number.

``feature_set`` computes all 33 values in one pass over a contiguous
``(3, n)`` copy of the readings, checked once, calling each row-wise
``dsp`` kernel once per gesture: the Hilbert transforms come from one
real FFT pair, and every energy is a sum of squares. ``time_features``,
``freq_features`` and ``hilbert_features`` return slices of that pass.
The pass uses the portable arithmetic of ``dsp`` (products, sums, real
FFTs and ``sqrt``), so its values do not depend on the SIMD target
numpy picks for the CPU.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .data import Dataset, GestureSample, check_readings, read_table
from .errors import DataError

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_ORDER_VERSION",
    "N_FEATURES",
    "FeatureMatrix",
    "time_features",
    "freq_features",
    "hilbert_features",
    "feature_set",
    "extract_all",
    "save_features",
    "load_features",
]

FEATURE_ORDER_VERSION = 1

_AXES = ("x", "y", "z")
_PAIRS = ("xy", "yz", "zx")

FEATURE_NAMES: tuple[str, ...] = tuple(
    [f"mean_{a}" for a in _AXES]
    + [f"skew_{a}" for a in _AXES]
    + [f"kurt_{a}" for a in _AXES]
    + [f"pearson_{p}" for p in _PAIRS]
    + [f"xcorr_{p}" for p in _PAIRS]
    + [f"energy_{a}" for a in _AXES]
    + [f"hmean_{a}" for a in _AXES]
    + [f"hskew_{a}" for a in _AXES]
    + [f"henergy_{a}" for a in _AXES]
    + [f"hmin_{a}" for a in _AXES]
    + [f"hmax_{a}" for a in _AXES]
)
N_FEATURES = len(FEATURE_NAMES)


def _name(sample) -> str:
    if isinstance(sample, GestureSample):
        day = "" if sample.day is None else f", day={sample.day}"
        return (f"sample (user={sample.user}, gesture={sample.gesture},"
                f" trial={sample.trial}{day})")
    return f"recording of {len(sample)} readings"


def _values(r: np.ndarray) -> np.ndarray:
    """The 33 values of a contiguous (3, n) array of readings, one row
    per axis: every row reduces along its contiguous last axis."""
    # Rows 0-2 are the axes, rows 3-5 their Hilbert transforms.
    rows = np.concatenate((r, dsp.hilbert_rows(r)))
    low, high = np.minimum.reduce(rows, -1), np.maximum.reduce(rows, -1)
    peak = np.maximum(high[:3], -low[:3])
    mu, d, d2, m2 = dsp.centred_rows(rows, np.concatenate((peak, peak)))
    skew = dsp.skews(d, d2, m2)
    nxt = [1, 2, 0]  # pairs xy, yz, zx
    # Sums of squares: the energies (Parseval) and cross-correlation norms.
    sq = np.add.reduce(rows * rows, -1).tolist()
    return np.array(
        mu[:3].tolist()
        + skew[:3]
        + dsp.kurtoses(d2[:3], m2[:3])
        + dsp.pearsons(d[:3], d.take(nxt, 0), m2[:3], m2.take(nxt))
        + dsp.max_cross_corrs(r, range(3), nxt, sq[:3])
        + sq[:3]
        + mu[3:].tolist()
        + skew[3:]
        + sq[3:]
        + low[3:].tolist()
        + high[3:].tolist(),
        dtype=np.float64,
    )


def feature_set(sample) -> np.ndarray:
    """Full 33-value feature vector in the frozen FEATURE_NAMES order.

    One pass over the (3, n) readings. One batched rFFT and inverse rFFT
    give the axes' Hilbert transforms. One centred array per axis and per
    Hilbert transform, and its squares, give the means, skewness,
    kurtosis and Pearson values; one sum of squares per row gives the
    spectral energies (Parseval) and the cross-correlation norms. One
    zero-padded rFFT and inverse rFFT of the axes give the lagged sums
    of all three cross-correlations.

    Raises ValueError for a raw array that is not (n, 3), n >= 4 and
    finite. Input domain: readings whose peak magnitude is 0 or within
    [1e-150, 1e150], at most 10 000 of them, give 33 finite values. Any
    other recording gives finite values or raises DataError naming the
    sample. The scale-free values follow the numeric contract in ``dsp``.
    """
    # The only input check: a GestureSample was checked when it was made.
    r = sample.readings if isinstance(sample, GestureSample) else check_readings(sample)
    # Out-of-domain readings overflow; the result is checked below.
    with np.errstate(all="ignore"):
        out = _values(r.T.copy())
    if not np.isfinite(out).all():
        bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~np.isfinite(out))]
        raise DataError(
            f"{_name(sample)}: non-finite feature values ({', '.join(bad)});"
            " readings are outside the input domain"
        )
    return out


def time_features(sample) -> np.ndarray:
    """Fifteen time-domain values of a gesture sample.

    Per axis: arithmetic mean, skewness and excess kurtosis (population
    moments; zero on degenerate variance). Per axis pair, cyclically
    (xy, yz, zx): Pearson correlation and the maximum over all lags of
    the normalized cross-correlation.

    Returns
    -------
    ndarray of shape (15,), a slice of ``feature_set``
    """
    return feature_set(sample)[:15]


def freq_features(sample) -> np.ndarray:
    """Per-axis spectral energy (mean squared spectrum magnitude).

    Returns
    -------
    ndarray of shape (3,), a slice of ``feature_set``
    """
    return feature_set(sample)[15:18]


def hilbert_features(sample) -> np.ndarray:
    """Fifteen values of the per-axis Hilbert transforms.

    Each axis is mapped to the imaginary part of its analytic signal;
    the feature block is that series' mean, skewness, spectral energy,
    minimum and maximum, grouped value-kind first (all means, then all
    skews, ...).

    Returns
    -------
    ndarray of shape (15,), a slice of ``feature_set``
    """
    return feature_set(sample)[18:]


@dataclass(frozen=True)
class FeatureMatrix:
    """Extracted features for a dataset: one row per sample, plus the
    user and gesture labels needed by the evaluation harness."""

    X: np.ndarray  # (n, 33) float64
    users: np.ndarray  # (n,) int64
    gestures: np.ndarray  # (n,) int64

    def __post_init__(self):
        if self.X.shape != (len(self.users), N_FEATURES):
            raise ValueError(
                f"X has shape {self.X.shape}, expected ({len(self.users)}, {N_FEATURES})"
            )
        if len(self.users) != len(self.gestures):
            raise ValueError("users and gestures length mismatch")

    @property
    def n(self) -> int:
        return self.X.shape[0]


def extract_all(dataset: Dataset, jobs: int = 1) -> FeatureMatrix:
    """Extract the feature vector of every sample in dataset order.

    ``jobs`` > 1 extracts in a thread pool; each vector depends only on
    its own sample, so output is identical for any job count.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    samples = dataset.samples
    if not samples:
        return FeatureMatrix(
            X=np.empty((0, N_FEATURES)),
            users=np.empty(0, dtype=np.int64),
            gestures=np.empty(0, dtype=np.int64),
        )
    if jobs == 1 or len(samples) < 2:
        rows = [feature_set(s) for s in samples]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(feature_set, samples))
    return FeatureMatrix(
        X=np.vstack(rows),
        users=np.array([s.user for s in samples], dtype=np.int64),
        gestures=np.array([s.gesture for s in samples], dtype=np.int64),
    )


FEATURE_HEADER = ["user", "gesture"] + [f"f{i:02d}" for i in range(1, N_FEATURES + 1)]


def save_features(matrix: FeatureMatrix, path) -> Path:
    """Write a feature CSV (header ``user,gesture,f01..f33``).

    Floats use 17 significant digits, which round-trips float64 exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(FEATURE_HEADER) + "\n")
        for u, g, row in zip(matrix.users, matrix.gestures, matrix.X):
            vals = ",".join("%.17g" % v for v in row)
            fh.write(f"{u},{g},{vals}\n")
    return path


def load_features(path) -> FeatureMatrix:
    """Read a feature CSV written by save_features; DataError at
    ``path:line`` on a malformed row, a nan or infinite value, or a byte
    that is not UTF-8."""
    path = Path(path)
    users: list[int] = []
    gestures: list[int] = []
    rows: list[list[float]] = []
    for lineno, row in read_table(path, "feature file", FEATURE_HEADER):
        try:
            users.append(int(row[0]))
            gestures.append(int(row[1]))
            values = [float(v) for v in row[2:]]
        except ValueError:
            raise DataError("malformed feature row", path=path, line=lineno) from None
        if not all(map(math.isfinite, values)):
            col = next(h for h, v in zip(FEATURE_HEADER[2:], values)
                       if not math.isfinite(v))
            raise DataError(f"non-finite value in column {col}", path=path, line=lineno)
        rows.append(values)
    return FeatureMatrix(
        X=np.array(rows, dtype=np.float64).reshape(len(rows), N_FEATURES),
        users=np.array(users, dtype=np.int64),
        gestures=np.array(gestures, dtype=np.int64),
    )
