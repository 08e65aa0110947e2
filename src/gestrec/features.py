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
``extract_all`` runs the same pass once per group of equal-length
recordings, over a contiguous ``(k, 3, n)`` stack of the group, in the
calling thread. Every row reduces along its own contiguous last axis,
so each recording's row has the bits ``feature_set`` gives it alone.
The pass uses the portable arithmetic of ``dsp`` (products, sums, real
FFTs and ``sqrt``), so its values do not depend on the SIMD target
numpy picks for the CPU.
"""

from __future__ import annotations

import math
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

# Most readings in one block of extract_all's grouped pass. A block's
# temporaries peak at about 600 bytes per reading, so a fixed-length
# corpus (one group) runs in blocks of about 2.5 MB instead of one pass
# whose memory grows with the corpus. Of caps from 2 048 to 16 384,
# timed on 2 000 recordings of 80 readings and 240 of 1 000 (Xeon, 2 MB
# L2 per core), 4 096 was fastest on the first and 12% behind 8 192 on
# the second; 16 384 was 1.4-1.5x slower than 4 096 on both.
BLOCK_READINGS = 4096


def _name(sample) -> str:
    if isinstance(sample, GestureSample):
        day = "" if sample.day is None else f", day={sample.day}"
        return (f"sample (user={sample.user}, gesture={sample.gesture},"
                f" trial={sample.trial}{day})")
    return f"recording of {len(sample)} readings"


def _values(r: np.ndarray) -> np.ndarray:
    """The (k, 33) rows of a C-contiguous (k, 3, n) stack of k recordings
    of one length: every row reduces along its contiguous last axis, so
    each recording's values have the bits of a stack of one."""
    k, _, n = r.shape
    a = 3 * k
    axes = r.reshape(a, n)
    # Rows :a are the axes, rows a: their Hilbert transforms.
    rows = np.concatenate((axes, dsp.hilbert_rows(axes)))
    low, high = np.minimum.reduce(rows, -1), np.maximum.reduce(rows, -1)
    mu = (np.add.reduce(rows, -1) / n).tolist()
    # Sums of squares: the energies (Parseval).
    sq = np.add.reduce(rows * rows, -1).tolist()
    # The scale-free values: every row at its axis's unit peak.
    peak = np.maximum(high[:a], -low[:a])
    unit = dsp.unit_rows(rows, np.concatenate((peak, peak)))
    d, d2, m2 = dsp.centred_rows(unit)
    skew = dsp.skews(d, d2, m2)
    # The pairs xy, yz, zx of recording j: rows 3j + (0, 1, 2) with their
    # partners 3j + (1, 2, 0).
    nxt = [3 * j + p for j in range(k) for p in (1, 2, 0)]
    # Eleven blocks of k recordings by 3 axes, turned into one row of 33
    # values per recording in FEATURE_NAMES order.
    return np.array(
        mu[:a]
        + skew[:a]
        + dsp.kurtoses(d2[:a], m2[:a])
        + dsp.pearsons(d[:a], d.take(nxt, 0), m2[:a], m2.take(nxt))
        + dsp.max_cross_corrs(unit[:a], range(a), nxt)
        + sq[:a]
        + mu[a:]
        + skew[a:]
        + sq[a:]
        + low[a:].tolist()
        + high[a:].tolist(),
        dtype=np.float64,
    ).reshape(11, k, 3).transpose(1, 0, 2).reshape(k, N_FEATURES)


def _checked(sample, values: np.ndarray) -> np.ndarray:
    """``values``, the 33 values of ``sample``; DataError naming the
    sample when one is not finite."""
    if not np.isfinite(values).all():
        bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~np.isfinite(values))]
        raise DataError(
            f"{_name(sample)}: non-finite feature values ({', '.join(bad)});"
            " readings are outside the input domain"
        )
    return values


def feature_set(sample) -> np.ndarray:
    """Full 33-value feature vector in the frozen FEATURE_NAMES order.

    One pass over the (3, n) readings. One batched rFFT and inverse rFFT
    give the axes' Hilbert transforms. These six rows give the means,
    the spectral energies (sums of squares, Parseval), minima and maxima.
    The scale-free values come from the same rows divided by their axis's
    peak magnitude: the centred unit rows and their squares give the
    skewness, kurtosis and Pearson values, and one zero-padded rFFT and
    inverse rFFT of the unit axes give the lagged sums of all three
    cross-correlations.

    Raises ValueError for a raw array that is not (n, 3), n >= 4 and
    finite. Input domain: readings whose peak magnitude is 0 or within
    [1e-150, 1e150], at most 10 000 of them, give 33 finite values. Any
    other recording gives finite values or raises DataError naming the
    sample. The scale-free values follow the numeric contract in ``dsp``,
    so a recording scaled by a power of two within the domain gives them
    with the same bits.
    """
    # The only input check: a GestureSample was checked when it was made.
    r = sample.readings if isinstance(sample, GestureSample) else check_readings(sample)
    # Out-of-domain readings overflow; the result is checked below.
    with np.errstate(all="ignore"):
        out = _values(r.T.copy()[None])[0]
    return _checked(sample, out)


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

    The samples are grouped by length, and each group goes through
    ``feature_set``'s pass at once, in blocks of at most
    ``BLOCK_READINGS`` readings, in the calling thread. Every row has the
    bits ``feature_set`` gives its sample. An out-of-domain sample raises
    ``feature_set``'s DataError, naming the first such sample in dataset
    order.

    ``jobs`` starts no thread: it is only checked (>= 1), for the
    benchmark's callers that still pass it.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    samples = dataset.samples
    X = np.empty((len(samples), N_FEATURES))
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        groups.setdefault(len(s.readings), []).append(i)
    # Out-of-domain readings overflow; the rows are checked below.
    with np.errstate(all="ignore"):
        for n, members in groups.items():
            step = max(1, BLOCK_READINGS // n)
            for lo in range(0, len(members), step):
                block = members[lo : lo + step]
                # A C-contiguous copy: rows reduced on a strided view of
                # the readings round differently.
                X[block] = _values(np.array([samples[i].readings.T for i in block]))
    bad = np.flatnonzero(~np.isfinite(X).all(1))
    if bad.size:
        _checked(samples[bad[0]], X[bad[0]])
    return FeatureMatrix(
        X=X,
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
