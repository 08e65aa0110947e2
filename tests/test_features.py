"""Feature-vector tests against an independently scripted oracle.

The oracle below recomputes all 33 values from their definitions using
scipy and plain numpy (corrcoef, stats moments, scipy.signal.hilbert,
explicit lag loops), sharing no code with the package's kernels.

``reference_feature_set`` keeps the earlier extractor: 36 calls of
1-D kernels, one axis (or axis pair) at a time, each re-checking and
re-centring its series, with numpy's ``pow`` for the third and fourth
moments, ``np.correlate`` for the lags and ``np.abs(X)**2`` for the
power spectra and a complex FFT pair for the Hilbert transforms. The
one-pass ``feature_set`` gives its bits exactly on the 6 means and
Pearson values, and agrees to 1e-12 on the other 27, whose arithmetic is
now products, one rFFT pair per axis pair, one rFFT pair for the
Hilbert transforms and sums of squares for the energies.

``composed_feature_set`` is that new arithmetic one series (or pair) at
a time; the pass must give its bits exactly.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gestrec import EASY_SPEC, GestureSample, SynthSpec, generate
from gestrec.data import Dataset, DatasetMeta
from gestrec.errors import DataError
from gestrec.features import (
    FEATURE_NAMES,
    FEATURE_ORDER_VERSION,
    N_FEATURES,
    FeatureMatrix,
    extract_all,
    feature_set,
    freq_features,
    hilbert_features,
    load_features,
    save_features,
    time_features,
)

EXPECTED_NAMES = (
    "mean_x", "mean_y", "mean_z",
    "skew_x", "skew_y", "skew_z",
    "kurt_x", "kurt_y", "kurt_z",
    "pearson_xy", "pearson_yz", "pearson_zx",
    "xcorr_xy", "xcorr_yz", "xcorr_zx",
    "energy_x", "energy_y", "energy_z",
    "hmean_x", "hmean_y", "hmean_z",
    "hskew_x", "hskew_y", "hskew_z",
    "henergy_x", "henergy_y", "henergy_z",
    "hmin_x", "hmin_y", "hmin_z",
    "hmax_x", "hmax_y", "hmax_z",
)


def oracle_skew(v):
    return float(scipy.stats.skew(v, bias=True)) if np.std(v) > 0 else 0.0


def oracle_kurt(v):
    if np.std(v) == 0:
        return 0.0
    return float(scipy.stats.kurtosis(v, bias=True, fisher=True))


def oracle_pearson(a, b):
    if np.std(a) == 0 or np.std(b) == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def oracle_xcorr(a, b):
    n = len(a)
    ea = float(np.sum(a * a))
    eb = float(np.sum(b * b))
    if ea == 0 or eb == 0:
        return 0.0
    best = -np.inf
    for tau in range(-(n - 1), n):
        s = sum(a[j] * b[j + tau] for j in range(n) if 0 <= j + tau < n)
        best = max(best, s)
    return best / np.sqrt(ea * eb)


def oracle_energy(v):
    return float(np.sum(v * v))  # Parseval form of the mean squared spectrum


def oracle_features(readings) -> np.ndarray:
    x, y, z = readings[:, 0], readings[:, 1], readings[:, 2]
    axes = (x, y, z)
    pairs = ((x, y), (y, z), (z, x))
    h = [np.imag(scipy.signal.hilbert(v)) for v in axes]
    vals = []
    vals += [float(np.mean(v)) for v in axes]
    vals += [oracle_skew(v) for v in axes]
    vals += [oracle_kurt(v) for v in axes]
    vals += [oracle_pearson(a, b) for a, b in pairs]
    vals += [oracle_xcorr(a, b) for a, b in pairs]
    vals += [oracle_energy(v) for v in axes]
    vals += [float(np.mean(v)) for v in h]
    vals += [oracle_skew(v) for v in h]
    vals += [oracle_energy(v) for v in h]
    vals += [float(np.min(v)) for v in h]
    vals += [float(np.max(v)) for v in h]
    return np.array(vals)


# ------------------------------------------- the earlier 36-call extractor


def _ref_series(x, min_len=1):
    a = np.asarray(x, dtype=np.float64)
    assert a.ndim == 1 and a.size >= min_len and np.isfinite(a).all()
    return a


def _ref_moments(x, upto):
    d = x - x.mean()
    return [float(np.mean(d**k)) for k in range(2, upto + 1)]


def _ref_skew(x):
    m2, m3 = _ref_moments(_ref_series(x, 3), 3)
    return 0.0 if m2 < 1e-24 else m3 / m2**1.5


def _ref_kurtosis(x):
    m2, _, m4 = _ref_moments(_ref_series(x, 4), 4)
    return 0.0 if m2 < 1e-24 else m4 / m2**2 - 3.0


def _ref_pearson(a, b):
    a, b = _ref_series(a, 2), _ref_series(b, 2)
    da, db = a - a.mean(), b - b.mean()
    va, vb = float(np.mean(da**2)), float(np.mean(db**2))
    if va < 1e-24 or vb < 1e-24:
        return 0.0
    return float(np.mean(da * db)) / np.sqrt(va * vb)


def _ref_xcorr(a, b):
    a, b = _ref_series(a, 2), _ref_series(b, 2)
    norm = float(np.sum(a**2)) * float(np.sum(b**2))
    if not np.finfo(np.float64).tiny <= norm < np.inf:
        if np.abs(a).max() == 0.0 or np.abs(b).max() == 0.0:
            return 0.0
        a, b = a / np.abs(a).max(), b / np.abs(b).max()
        norm = float(np.sum(a**2)) * float(np.sum(b**2))
    return float(np.correlate(a, b, mode="full").max()) / np.sqrt(norm)


def _ref_energy(x):
    x = _ref_series(x)
    return float(np.sum(np.abs(np.fft.fft(x)) ** 2) / x.size)


def _ref_hilbert(x):
    x = _ref_series(x, 2)
    n = x.size
    w = np.zeros(n)
    half = n // 2
    if n % 2 == 0:
        w[0] = w[half] = 1.0
        w[1:half] = 2.0
    else:
        w[0] = 1.0
        w[1 : half + 1] = 2.0
    return np.fft.ifft(np.fft.fft(x) * w).imag


def reference_feature_set(readings) -> np.ndarray:
    """The 33 values as the earlier extractor made them: 36 kernel calls."""
    r = np.asarray(readings, dtype=np.float64)
    x, y, z = r[:, 0], r[:, 1], r[:, 2]
    axes = (x, y, z)
    pairs = ((x, y), (y, z), (z, x))
    h = [_ref_hilbert(a) for a in axes]
    return np.array(
        [float(np.mean(_ref_series(a))) for a in axes]
        + [_ref_skew(a) for a in axes]
        + [_ref_kurtosis(a) for a in axes]
        + [_ref_pearson(a, b) for a, b in pairs]
        + [_ref_xcorr(a, b) for a, b in pairs]
        + [_ref_energy(a) for a in axes]
        + [float(np.mean(_ref_series(v))) for v in h]
        + [_ref_skew(v) for v in h]
        + [_ref_energy(v) for v in h]
        + [float(np.min(_ref_series(v))) for v in h]
        + [float(np.max(_ref_series(v))) for v in h],
        dtype=np.float64,
    )


# --------------------------------------- the same values, one series at a time


def _centred(x, scale):
    """Centred values, their squares and variance under the numeric
    contract of ``gestrec.dsp`` (relative floor, unit-peak recentring)."""
    d = x - x.mean()
    d2 = d * d
    m2 = float(d2.mean())
    if not (scale <= 1e75 and m2 >= 1e-24 * max(1.0, min(scale, 1e75)) ** 2):
        u = x / (scale if scale > 0.0 else 1.0)
        d = u - u.mean()
        d2 = d * d
        m2 = float(d2.mean())
    return d, d2, m2


def _skew(d, d2, m2):
    return 0.0 if m2 < 1e-24 else float((d2 * d).mean()) / m2**1.5


def _kurtosis(d2, m2):
    return 0.0 if m2 < 1e-24 else float((d2 * d2).mean()) / m2**2 - 3.0


def _pearson(da, db, va, vb):
    if va < 1e-24 or vb < 1e-24:
        return 0.0
    return float(np.mean(da * db)) / np.sqrt(va * vb)


def _xcorr(a, b):
    """Max over the 2n - 1 lags of one zero-padded rFFT pair, A*conj(B)
    formed from real products, with the unit-peak rescale."""
    norm = float(np.sum(a * a)) * float(np.sum(b * b))
    if not np.finfo(np.float64).tiny <= norm < np.inf:
        if np.abs(a).max() == 0.0 or np.abs(b).max() == 0.0:
            return 0.0
        a, b = a / np.abs(a).max(), b / np.abs(b).max()
        norm = float(np.sum(a * a)) * float(np.sum(b * b))
    n = a.size
    size = 1 << (2 * n - 2).bit_length()
    A, B = np.fft.rfft(a, size), np.fft.rfft(b, size)
    cross = np.empty(A.shape, dtype=np.complex128)
    cross.real = A.real * B.real + A.imag * B.imag
    cross.imag = A.imag * B.real - A.real * B.imag
    c = np.fft.irfft(cross, size)
    return max(float(c[:n].max()), float(c[size - n + 1 :].max())) / np.sqrt(norm)


def _hilbert(x):
    """One rFFT pair: -i*X_k on the kept bins, 0 at DC and Nyquist."""
    X = np.fft.rfft(x)
    H = np.empty_like(X)
    H.real = X.imag
    H.imag = -X.real
    H[0] = 0.0
    if x.size % 2 == 0:
        H[-1] = 0.0
    return np.fft.irfft(H, x.size)


def composed_feature_set(readings) -> np.ndarray:
    """The 33 values one series or pair at a time, in the arithmetic of
    the pass: moments from products, one rFFT pair per axis pair, the
    Hilbert transform from one rFFT pair, energies as sums of squares."""
    r = np.asarray(readings, dtype=np.float64)
    axes = [r[:, k].copy() for k in range(3)]
    scale = [float(np.abs(a).max()) for a in axes]
    h = [_hilbert(a) for a in axes]
    c = [_centred(a, s) for a, s in zip(axes, scale)]
    hc = [_centred(v, s) for v, s in zip(h, scale)]
    pairs = [(0, 1), (1, 2), (2, 0)]
    return np.array(
        [float(a.mean()) for a in axes]
        + [_skew(*ci) for ci in c]
        + [_kurtosis(ci[1], ci[2]) for ci in c]
        + [_pearson(c[i][0], c[j][0], c[i][2], c[j][2]) for i, j in pairs]
        + [_xcorr(axes[i], axes[j]) for i, j in pairs]
        + [float(np.sum(a * a)) for a in axes]
        + [float(v.mean()) for v in h]
        + [_skew(*ci) for ci in hc]
        + [float(np.sum(v * v)) for v in h]
        + [float(v.min()) for v in h]
        + [float(v.max()) for v in h],
        dtype=np.float64,
    )


def random_sample(n=40, seed=0, user=1, gesture=1, trial=1):
    rng = np.random.default_rng(seed)
    return GestureSample(user=user, gesture=gesture, trial=trial,
                         readings=rng.normal(scale=1.5, size=(n, 3)))


class TestFeatureOrder:
    def test_names_are_frozen(self):
        assert FEATURE_NAMES == EXPECTED_NAMES
        assert N_FEATURES == 33
        assert FEATURE_ORDER_VERSION == 1

    def test_block_widths(self):
        s = random_sample()
        assert time_features(s).shape == (15,)
        assert freq_features(s).shape == (3,)
        assert hilbert_features(s).shape == (15,)
        assert feature_set(s).shape == (33,)


class TestAgainstOracle:
    @pytest.mark.parametrize("n,seed", [(8, 1), (23, 2), (40, 3), (101, 4), (256, 5)])
    def test_full_vector_matches(self, n, seed):
        s = random_sample(n=n, seed=seed)
        got = feature_set(s)
        want = oracle_features(s.readings)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_inactive_axis_degenerates_cleanly(self):
        rng = np.random.default_rng(8)
        readings = np.zeros((30, 3))
        readings[:, 0] = rng.normal(size=30)  # y and z exactly zero
        s = GestureSample(user=1, gesture=1, trial=1, readings=readings)
        got = feature_set(s)
        np.testing.assert_allclose(got, oracle_features(readings),
                                   rtol=1e-9, atol=1e-9)
        names = dict(zip(FEATURE_NAMES, got))
        assert names["skew_y"] == 0.0
        assert names["kurt_z"] == 0.0
        assert names["pearson_xy"] == 0.0
        assert names["xcorr_yz"] == 0.0
        assert names["energy_y"] == 0.0

    def test_pure_cosine_hilbert_block(self):
        n = 200
        t = np.arange(n) / n
        readings = np.zeros((n, 3))
        readings[:, 0] = np.cos(2 * np.pi * 3 * t)
        s = GestureSample(user=1, gesture=1, trial=1, readings=readings)
        names = dict(zip(FEATURE_NAMES, feature_set(s)))
        assert names["hmin_x"] == pytest.approx(-1.0, abs=1e-6)
        assert names["hmax_x"] == pytest.approx(1.0, abs=1e-6)
        assert names["hmean_x"] == pytest.approx(0.0, abs=1e-9)


class TestExtractAll:
    def make_dataset(self, n_samples=10):
        samples = [
            random_sample(n=20 + i, seed=i, gesture=1 + i % 2, trial=1 + i // 2)
            for i in range(n_samples)
        ]
        return Dataset.from_samples(samples)

    def test_row_count_and_labels(self):
        with pytest.warns(UserWarning):
            ds = self.make_dataset(9)
        m = extract_all(ds)
        assert m.X.shape == (9, 33)
        assert m.users.tolist() == [1] * 9
        assert m.gestures.tolist() == [s.gesture for s in ds.samples]

    def test_empty_dataset_gives_empty_matrix(self):
        m = extract_all(Dataset.from_samples([]))
        assert m.X.shape == (0, 33)
        assert m.n == 0

    def test_jobs_do_not_change_output(self):
        with pytest.warns(UserWarning):
            ds = self.make_dataset(9)
        a = extract_all(ds, jobs=1)
        b = extract_all(ds, jobs=4)
        assert np.array_equal(a.X, b.X)

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            extract_all(Dataset.from_samples([]), jobs=0)


class TestFeatureMatrix:
    @staticmethod
    def labels(n):
        return np.ones(n, dtype=np.int64)

    def test_rows_must_match_the_labels(self):
        with pytest.raises(ValueError, match=r"X has shape \(2, 32\), expected \(2, 33\)"):
            FeatureMatrix(X=np.zeros((2, 32)), users=self.labels(2),
                          gestures=self.labels(2))
        with pytest.raises(ValueError, match=r"X has shape \(2, 33\), expected \(3, 33\)"):
            FeatureMatrix(X=np.zeros((2, 33)), users=self.labels(3),
                          gestures=self.labels(3))

    def test_users_and_gestures_must_have_one_length(self):
        with pytest.raises(ValueError, match="users and gestures length mismatch"):
            FeatureMatrix(X=np.zeros((2, 33)), users=self.labels(2),
                          gestures=self.labels(3))


class TestFeatureCsv:
    def test_round_trip_is_exact(self, tmp_path, small_matrix):
        p = save_features(small_matrix, tmp_path / "f.csv")
        back = load_features(p)
        assert np.array_equal(back.X, small_matrix.X)
        assert np.array_equal(back.users, small_matrix.users)
        assert np.array_equal(back.gestures, small_matrix.gestures)

    def test_header_shape(self, tmp_path, small_matrix):
        p = save_features(small_matrix, tmp_path / "f.csv")
        header = p.read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[:2] == ["user", "gesture"]
        assert cols[2] == "f01"
        assert cols[-1] == "f33"
        assert len(cols) == 35

    def test_malformed_header_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("user,gesture,f1\n")
        with pytest.raises(DataError, match="header"):
            load_features(p)

    def test_malformed_row_reports_line(self, tmp_path, small_matrix):
        p = save_features(small_matrix, tmp_path / "f.csv")
        lines = p.read_text().splitlines()
        lines[3] = lines[3].replace(",", ",x", 1)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"f\.csv"):
            load_features(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_features(tmp_path / "nope.csv")

    def test_line_numbers_count_quoted_line_breaks(self, tmp_path, small_matrix):
        p = save_features(small_matrix, tmp_path / "f.csv")
        lines = p.read_text().splitlines()
        row = lines[1].split(",")
        row[5] = f'"{row[5]}\n"'  # float() takes the value with its line break
        lines[1] = ",".join(row)
        lines[3] = "1,2"  # file line 5
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"f\.csv:5: expected 35 columns, got 2"):
            load_features(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line_and_column(self, tmp_path, small_matrix,
                                                      value):
        p = save_features(small_matrix, tmp_path / "f.csv")
        lines = p.read_text().splitlines()
        row = lines[3].split(",")
        row[2 + 4] = value  # f05
        lines[3] = ",".join(row)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"f\.csv:4: non-finite value in column f05"):
            load_features(p)


# --------------------------------------------------- the one-pass extractor


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Columns whose arithmetic the one-pass extractor kept from the earlier
# one, and those it moved by rounding (products for the moments, rFFT
# cross-correlation, the Hilbert transforms from one rFFT pair, energies
# as sums of squares).
UNMOVED = [i for i, n in enumerate(FEATURE_NAMES)
           if n.split("_")[0] in ("mean", "pearson")]
MOVED = [i for i in range(N_FEATURES) if i not in UNMOVED]


def check_pass(got, readings):
    """The pass gives the composed values bit for bit, the earlier
    extractor's bits on the unmoved columns and its values to 1e-12 on
    the moved ones."""
    assert same_bits(got, composed_feature_set(readings))
    old = reference_feature_set(readings)
    assert same_bits(got[UNMOVED], old[UNMOVED])
    np.testing.assert_allclose(got[MOVED], old[MOVED], rtol=1e-12, atol=1e-12)


def one_dimensional(n=50, seed=3):
    """Motion on x only: y holds still under gravity, z reads exactly 0."""
    rng = np.random.default_rng(seed)
    r = np.zeros((n, 3))
    r[:, 0] = np.sin(np.arange(n) / 4.0) + 0.1 * rng.normal(size=n)
    r[:, 1] = 1.0
    return r


def _spec(**changes):
    fields = {f: getattr(EASY_SPEC, f) for f in EASY_SPEC.__dataclass_fields__}
    return SynthSpec(**{**fields, **changes})


SERVE_SPEC = _spec(users=2, samples_per_gesture_per_user=2)
LONG_SPEC = _spec(users=1, gestures=4, samples_per_gesture_per_user=2,
                  length_range=(400, 1200))
# No noise: inactive axes are constant, so every degenerate path runs.
QUIET_SPEC = SynthSpec(users=2, gestures=4, samples_per_gesture_per_user=2, seed=6)

# sha256 of extract_all(generate(spec)).X, recorded with the portable
# arithmetic; the same on every numpy CPU target (see
# test_digests_do_not_depend_on_the_cpu). The second digest is of the
# time-domain block X[:, :15] alone, so that a change which moves only
# the energies or the Hilbert values shows that the rest kept its bits.
PINNED = [
    (SynthSpec(users=2, gestures=4, samples_per_gesture_per_user=3,
               length_range=(40, 120), user_speed_jitter=0.2, noise_sigma=0.1,
               user_style_offset=0.3, seed=5),
     "01c88f3317ab16baf8005046c104641f69e437bb329648acd7431b5b1f427d2b",
     "c845fea00f47871e7d5c5bdd1fef34cf1b9ac2b238abe721763ce17e4952e635"),
    (SynthSpec(users=2, gestures=4, samples_per_gesture_per_user=2,
               length_range=(40, 120), seed=6),
     "efd493fd7711a6745f6ac68e888d1fb4ef0696275eb411ae1ebf2de73f3adcd4",
     "cb91adec14db3eac1b96c5eee249b510836af1557a350966a9430fcf421113c5"),
    (SynthSpec(users=2, gestures=3, samples_per_gesture_per_user=1,
               length_range=(400, 1200), noise_sigma=0.15, seed=29),
     "c91c00adc497ffe2621375fa702c5fe3a15293b2166ff797edd3b0b9679efe51",
     "3136e400282271671ffaf0bdf9889ad52eded4664a9f501ef86248d5723b668a"),
    # extract_all stacks the recordings of each length. The corpora above
    # fall into 11, 1 and 1 lengths; EASY_SPEC's 640 recordings fall into
    # 49, groups of 1 to 35 recordings. These digests were recorded with
    # one pass per recording.
    (EASY_SPEC,
     "254722c3814b65f40c487d7494bd3d9d52ae67d4ca6012f01626992300602947",
     "8bff51a08b8c6fe73bd4558659b54b4ab98b40b0190a34e96647d56d3e4c8578"),
]
PINNED_IDS = ["noisy", "noise-free", "long", "easy"]


class TestOnePassIsBitIdentical:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 16, 17, 74, 75, 128, 255])
    def test_odd_and_even_lengths(self, n):
        rng = np.random.default_rng(n)
        r = rng.normal(scale=1.5, size=(n, 3)) + [0.0, 0.0, 1.0]
        check_pass(feature_set(r), r)

    def test_shortest_recording(self):
        r = np.array([[0.5, -1.0, 1.0], [2.0, 0.25, 0.9],
                      [-1.5, 0.5, 1.1], [0.0, 3.0, 1.0]])
        check_pass(feature_set(r), r)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.3, 9.81])
    def test_constant_axis(self, value):
        rng = np.random.default_rng(2)
        r = rng.normal(size=(60, 3))
        r[:, 2] = value
        got = feature_set(r)
        check_pass(got, r)
        names = dict(zip(FEATURE_NAMES, got))
        assert names["skew_z"] == names["kurt_z"] == names["hskew_z"] == 0.0
        assert names["pearson_yz"] == names["pearson_zx"] == 0.0

    def test_one_dimensional_gesture(self):
        r = one_dimensional()
        check_pass(feature_set(r), r)

    @pytest.mark.parametrize("spec", [SERVE_SPEC, LONG_SPEC, QUIET_SPEC],
                             ids=["serve-length", "long", "noise-free"])
    def test_synthetic_corpora(self, spec):
        for s in generate(spec).samples:
            got = feature_set(s)
            check_pass(got, s.readings)
            assert same_bits(feature_set(s.readings), got)

    def test_blocks_are_slices_of_the_pass(self):
        s = random_sample(n=33)
        full = feature_set(s)
        assert same_bits(time_features(s), full[:15])
        assert same_bits(freq_features(s), full[15:18])
        assert same_bits(hilbert_features(s), full[18:])

    @pytest.mark.parametrize("spec,digest,time_digest", PINNED, ids=PINNED_IDS)
    def test_extract_all_digest(self, spec, digest, time_digest):
        X = extract_all(generate(spec)).X
        assert hashlib.sha256(X.tobytes()).hexdigest() == digest
        assert hashlib.sha256(X[:, :15].copy().tobytes()).hexdigest() == time_digest

    def test_digests_do_not_depend_on_the_cpu(self):
        # numpy picks its SIMD loops by CPU; NPY_DISABLE_CPU_FEATURES
        # makes it run the loops of its baseline target instead, as on a
        # host without AVX2 or AVX-512.
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        dispatch = getattr(umath, "__cpu_dispatch__", None)
        baseline = getattr(umath, "__cpu_baseline__", None)
        if not dispatch or baseline is None:
            pytest.skip("numpy does not list its CPU dispatch targets")
        here = Path(__file__).resolve().parent
        env = dict(
            os.environ,
            NPY_DISABLE_CPU_FEATURES=" ".join(t for t in dispatch if t not in baseline),
            PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]),
        )
        code = (
            "import hashlib\n"
            "from gestrec import extract_all, generate\n"
            "from test_features import PINNED\n"
            "for spec, *_ in PINNED:\n"
            "    X = extract_all(generate(spec)).X\n"
            "    print(hashlib.sha256(X.tobytes()).hexdigest())\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [digest for _, digest, _ in PINNED]


def dataset_of(recordings) -> Dataset:
    """One user's recordings as trials 1, 2, ... in the given order."""
    samples = tuple(GestureSample(user=1, gesture=1, trial=t, readings=r)
                    for t, r in enumerate(recordings, 1))
    return Dataset(DatasetMeta(1, 1, len(samples), len(samples)), samples)


def noisy(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=1.5, size=(n, 3)) + [0.0, 0.0, 1.0]


class TestGroupedPass:
    """extract_all stacks the recordings of each length and runs one pass
    per group; each row must keep the bits feature_set gives its
    recording alone."""

    @staticmethod
    def check_rows(ds):
        X = extract_all(ds).X
        assert X.shape == (len(ds.samples), N_FEATURES)
        for row, s in zip(X, ds.samples):
            assert same_bits(row, feature_set(s))
        return X

    def test_groups_of_one_two_and_many(self):
        lengths = [37] + [50] * 2 + [80] * 12 + [81] * 3
        order = np.random.default_rng(1).permutation(len(lengths))
        ds = dataset_of([noisy(lengths[i], int(i)) for i in order])
        sizes = Counter(Counter(len(s.readings) for s in ds.samples).values())
        assert {1, 2, 12} <= set(sizes)
        self.check_rows(ds)

    def test_rescaled_and_silent_recordings_in_groups(self):
        # Scaled by 1e-140 or 1e140, a recording's rows are centred at
        # unit peak and its cross-correlations rescaled; all-zero and
        # silent rows are degenerate. Each shares its group with
        # ordinary recordings, in several positions, or is alone.
        recordings = []
        for n in (64, 65):
            base = noisy(n, n)
            silent = base.copy()
            silent[:, 1] = 0.0
            recordings += [noisy(n, n + 1), base * 1e-140, noisy(n, n + 2),
                           base * 1e140, np.zeros((n, 3)), silent, noisy(n, n + 3)]
        alone = [noisy(66, 1) * 1e-140, noisy(67, 2) * 1e140, np.zeros((68, 3))]
        X = self.check_rows(dataset_of(recordings[::-1] + alone + recordings))
        assert np.isfinite(X).all()

    def test_first_out_of_domain_recording_is_named(self):
        # The longer bad recording comes first, and the shorter one's
        # group is met first: a pass that checked each group as it ran,
        # or the groups in length order, would name the shorter one.
        ds = dataset_of([noisy(40, 1), noisy(90, 2) * 1e155, noisy(50, 3),
                         noisy(40, 4) * 1e155])
        with pytest.raises(DataError) as alone:
            feature_set(ds.samples[1])
        with pytest.raises(DataError) as grouped:
            extract_all(ds)
        assert "trial=2)" in str(grouped.value)
        assert str(grouped.value) == str(alone.value)

    def test_memory_is_bounded_on_one_length(self):
        # 2 000 recordings of one length are one group. Unblocked, its
        # temporaries peak near 57 MB; blocks of BLOCK_READINGS readings
        # keep the peak near 2.5 MB, the 0.5 MB output included.
        rng = np.random.default_rng(3)
        ds = dataset_of(list(rng.normal(size=(2000, 64, 3))))
        tracemalloc.start()
        try:
            extract_all(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestBoundaryCheck:
    def test_raw_array_shape(self):
        with pytest.raises(ValueError, match="shape"):
            feature_set(np.zeros((10, 2)))
        with pytest.raises(ValueError, match="shape"):
            feature_set(np.zeros(30))

    def test_raw_array_length(self):
        with pytest.raises(ValueError, match="too short"):
            feature_set(np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raw_array_finite(self, bad):
        r = np.ones((8, 3))
        r[5, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            feature_set(r)

    def test_readings_are_not_modified(self):
        r = np.random.default_rng(0).normal(size=(20, 3))
        before = r.copy()
        feature_set(r)
        assert same_bits(r, before)


# Values that do not change when a recording is scaled, and those that
# scale with it (linearly, or with its square).
SCALE_FREE = [i for i, n in enumerate(FEATURE_NAMES)
              if n.split("_")[0] in ("skew", "kurt", "pearson", "xcorr", "hskew")]
SQUARED = [i for i, n in enumerate(FEATURE_NAMES) if "energy" in n]
LINEAR = [i for i in range(N_FEATURES) if i not in SCALE_FREE + SQUARED]


def _easy_recordings():
    easy = generate(_spec(users=1, samples_per_gesture_per_user=1)).samples
    return [easy[0].readings, easy[5].readings, one_dimensional()]


RECORDINGS = _easy_recordings()


class TestNumericContract:
    """In the input domain (peak magnitude 0 or within [1e-150, 1e150])
    a scaled recording gives finite values: the scale-free ones equal the
    unscaled recording's, the others scale with it. Outside the domain
    the result is finite or a DataError that names the recording."""

    @given(scale=st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e),
           which=st.sampled_from(range(len(RECORDINGS))))
    @example(scale=1e100, which=0)  # was a bare OverflowError (m2**2)
    @example(scale=1e155, which=0)  # was 18 non-finite values
    @example(scale=1e-100, which=0)  # was 12 zeros: absolute variance floor
    @example(scale=1e-20, which=0)  # variance 1e-40, non-degenerate shape
    @example(scale=1e150, which=2)  # a still axis stays degenerate
    @settings(max_examples=60, deadline=None)
    def test_scaled_recording(self, scale, which):
        r = RECORDINGS[which]
        base = feature_set(r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = feature_set(r * scale)
            except DataError as exc:
                assert np.abs(r).max() * scale > 1e150
                assert f"recording of {len(r)} readings" in str(exc)
                return
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got[SCALE_FREE], base[SCALE_FREE],
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got[LINEAR] / scale, base[LINEAR],
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got[SQUARED] / scale**2, base[SQUARED],
                                   rtol=1e-9, atol=1e-9)

    def test_out_of_domain_names_the_sample(self):
        s = GestureSample(user=2, gesture=5, trial=7, readings=RECORDINGS[0] * 1e155)
        with pytest.raises(DataError, match=r"user=2, gesture=5, trial=7.*energy_x"):
            feature_set(s)
        with pytest.raises(DataError, match=r"user=2, gesture=5, trial=7"):
            extract_all(Dataset(DatasetMeta(2, 5, 7, 1), (s,)))

    def test_tiny_recording_is_not_silently_zero(self):
        base = feature_set(RECORDINGS[0])
        got = feature_set(RECORDINGS[0] * 1e-100)
        assert np.count_nonzero(got[SCALE_FREE]) == np.count_nonzero(base[SCALE_FREE])

    def test_jittered_still_axis_is_degenerate(self):
        # A still axis near 9.81 with 1e-11 jitter: its variance, and its
        # Hilbert transform's, is above DEGENERATE_VARIANCE but below
        # DEGENERATE_VARIANCE * peak**2. In this band the floor relative
        # to the peak gives 0 on purpose, where the earlier extractor
        # computed skew, kurtosis and Pearson values of the jitter: a
        # still axis must stay degenerate at every scale, so that its
        # Hilbert noise never reads as a shape.
        r = RECORDINGS[0].copy()
        r[:, 1] = 9.81 + 1e-11 * np.sin(np.arange(len(r)))
        y = r[:, 1]
        assert 1e-24 <= np.var(y) < 1e-24 * np.abs(y).max() ** 2
        got = feature_set(r)
        old = reference_feature_set(r)
        band = [FEATURE_NAMES.index(n)
                for n in ("skew_y", "kurt_y", "pearson_xy", "pearson_yz", "hskew_y")]
        assert got[band].tolist() == [0.0] * 5
        assert np.count_nonzero(old[band]) == 5
        rest = [i for i in range(N_FEATURES) if i not in band]
        assert same_bits(got[rest], composed_feature_set(r)[rest])
