"""Numerical-kernel tests against independent oracles.

The DFT oracle is a direct summation evaluated in extended precision:
phases are reduced exactly in integer arithmetic ((j*k) mod n) before
touching floats, and the twiddle factors come from a 50-digit pi
literal, so its own error stays near 1e-14 and the 1e-12 comparison
budget is spent on the transform under test: ``np.fft``, which the
feature pass calls directly. The analytic-signal and moment oracles
come from scipy, which the package itself never imports.
"""

import numpy as np
import pytest
import scipy.signal
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gestrec import dsp

# ------------------------------------------------------------- oracles

PI_LD = np.longdouble("3.14159265358979323846264338327950288419716939937510")


def naive_dft(x) -> np.ndarray:
    """Direct-summation DFT in longdouble with exact phase reduction."""
    x = np.asarray(x, dtype=np.longdouble)
    n = x.size
    m = np.arange(n)
    idx = np.outer(m, m) % n
    ang = (-2.0 * PI_LD / np.longdouble(n)) * m.astype(np.longdouble)
    re = np.cos(ang)[idx] @ x
    im = np.sin(ang)[idx] @ x
    return re.astype(np.float64) + 1j * im.astype(np.float64)


def xcorr_oracle(a, b) -> float:
    """Brute-force signed max of the normalized lagged inner products."""
    n = len(a)
    ea = float(np.sum(np.square(a)))
    eb = float(np.sum(np.square(b)))
    if ea == 0.0 or eb == 0.0:
        return 0.0
    best =-np.inf
    for tau in range(-(n - 1), n):
        s = 0.0
        for j in range(n):
            k = j + tau
            if 0 <= k < n:
                s += a[j] * b[k]
        best = max(best, s)
    return best / np.sqrt(ea * eb)


def correlate_feature(a, b) -> float:
    """The cross-correlation feature from np.correlate's lagged sums."""
    norm = float(np.sum(a**2)) * float(np.sum(b**2))
    return float(np.correlate(a, b, mode="full").max()) / np.sqrt(norm)


def rel_err(got, want) -> float:
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


SOME_LENGTHS = [4, 5, 7, 8, 9, 13, 16, 31, 32, 61, 64, 97, 100, 127, 128, 251]

finite_series = hnp.arrays(
    np.float64,
    st.integers(min_value=4, max_value=64),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

# ----------------------------------------------------------------- DFT


class TestDft:
    """``np.fft``, which the feature pass calls, against the
    direct-summation oracle."""

    @pytest.mark.parametrize("n", SOME_LENGTHS)
    def test_matches_naive_summation(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            x = rng.normal(scale=2.0, size=n)
            assert rel_err(np.fft.fft(x), naive_dft(x)) <= 1e-12

    def test_impulse_spectrum_is_flat(self):
        x = np.zeros(16)
        x[0] = 1.0
        assert np.allclose(np.fft.fft(x), np.ones(16), atol=1e-15)

    def test_constant_concentrates_at_dc(self):
        X = np.fft.fft(np.full(10, 3.0))
        assert X[0] == pytest.approx(30.0)
        assert np.max(np.abs(X[1:])) < 1e-12

    def test_idft_inverts(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=33)
        back = np.fft.ifft(np.fft.fft(x))
        assert np.max(np.abs(back.real - x)) < 1e-12
        assert np.max(np.abs(back.imag)) < 1e-12

    def test_rejects_non_finite(self):
        # The 1-D kernels built on the transform check their series.
        bad = [1.0, np.nan, 2.0, 3.0]
        for kernel in (dsp.spectral_energy, dsp.analytic_signal, dsp.hilbert_imag):
            with pytest.raises(ValueError, match="non-finite"):
                kernel(bad)

    @given(finite_series)
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, x):
        y = np.roll(x, 1)
        lhs = np.fft.fft(2.0 * x + 3.0 * y)
        rhs = 2.0 * np.fft.fft(x) + 3.0 * np.fft.fft(y)
        assert rel_err(lhs, rhs) < 1e-12


# ------------------------------------------------------ spectral energy


class TestSpectralEnergy:
    @pytest.mark.parametrize("n", SOME_LENGTHS)
    def test_parseval(self, n):
        rng = np.random.default_rng(1000 + n)
        x = rng.normal(scale=3.0, size=n)
        want = float(np.sum(x * x))
        got = dsp.spectral_energy(x)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_definition_matches_spectrum(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=21)
        X = np.fft.fft(x)
        assert dsp.spectral_energy(x) == pytest.approx(
            float(np.sum(np.abs(X) ** 2)) / 21, rel=1e-12
        )

    @given(finite_series)
    @settings(max_examples=60, deadline=None)
    def test_parseval_property(self, x):
        want = float(np.sum(x * x))
        assert abs(dsp.spectral_energy(x) - want) <= 1e-9 * max(1.0, want)


# ------------------------------------------------------- analytic signal


class TestAnalyticSignal:
    @pytest.mark.parametrize("n", SOME_LENGTHS)
    def test_real_part_is_input(self, n):
        rng = np.random.default_rng(n + 7)
        x = rng.normal(size=n)
        xa = dsp.analytic_signal(x)
        assert np.max(np.abs(xa.real - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))

    @pytest.mark.parametrize("n", SOME_LENGTHS)
    def test_negative_spectrum_vanishes(self, n):
        rng = np.random.default_rng(n + 31)
        x = rng.normal(size=n)
        Xa = np.fft.fft(dsp.analytic_signal(x))
        neg = Xa[(n // 2) + 1:]
        scale = max(1.0, float(np.max(np.abs(np.fft.fft(x)))))
        assert neg.size == 0 or float(np.max(np.abs(neg))) <= 1e-9 * scale

    @pytest.mark.parametrize("n", [12, 17, 48, 101])
    def test_matches_scipy_hilbert(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        want = scipy.signal.hilbert(x)
        got = dsp.analytic_signal(x)
        assert rel_err(got, want) < 1e-9

    def test_cosine_quadrature(self):
        # spec'd sanity: the transform of a full-period cosine is a sine
        n = 256
        t = np.arange(n) / n
        x = np.cos(2.0 * np.pi * 4.0 * t)
        h = dsp.hilbert_imag(x)
        assert np.max(np.abs(h - np.sin(2.0 * np.pi * 4.0 * t))) < 1e-9
        assert dsp.minimum(h) == pytest.approx(-1.0, abs=1e-9)
        assert dsp.maximum(h) == pytest.approx(1.0, abs=1e-9)
        assert dsp.mean(h) == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_readings(self):
        with pytest.raises(ValueError):
            dsp.analytic_signal([1.0])


# --------------------------------------------------------------- moments


class TestMoments:
    @pytest.mark.parametrize("n", [8, 33, 100])
    def test_skew_kurtosis_match_population_oracle(self, n):
        rng = np.random.default_rng(n * 3)
        x = rng.gamma(2.0, size=n)  # asymmetric, nonzero skew
        assert dsp.skew(x) == pytest.approx(
            float(scipy.stats.skew(x, bias=True)), rel=1e-12
        )
        assert dsp.kurtosis(x) == pytest.approx(
            float(scipy.stats.kurtosis(x, bias=True, fisher=True)), rel=1e-12
        )

    def test_constant_series_degenerate_to_zero(self):
        x = np.full(16, 2.5)
        assert dsp.skew(x) == 0.0
        assert dsp.kurtosis(x) == 0.0

    def test_symmetric_series_has_zero_skew(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert dsp.skew(x) == pytest.approx(0.0, abs=1e-15)

    def test_two_point_series_kurtosis_floor(self):
        # equal-weight two-point distribution: g2 = -2 exactly
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert dsp.kurtosis(x) == pytest.approx(-2.0, rel=1e-12)

    def test_mean_min_max(self):
        x = np.array([4.0, -1.0, 3.5, 0.5])
        assert dsp.mean(x) == pytest.approx(1.75)
        assert dsp.minimum(x) == -1.0
        assert dsp.maximum(x) == 4.0

    @pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-20, 1e80, 1e200])
    def test_shape_is_scale_free(self, scale):
        rng = np.random.default_rng(6)
        x = rng.gamma(2.0, size=40)
        assert dsp.skew(x * scale) == pytest.approx(dsp.skew(x), rel=1e-9)
        assert dsp.kurtosis(x * scale) == pytest.approx(dsp.kurtosis(x), rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-300, 1e-20, 1.0, 1e20, 1e200])
    def test_constant_series_is_degenerate_at_any_scale(self, scale):
        x = np.full(16, 2.5 * scale)
        assert dsp.skew(x) == dsp.kurtosis(x) == 0.0

    def test_rows_equal_one_dimensional_calls(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(4, 37)) * [[1.0], [3.0], [1e-30], [1e90]]
        rows[2] = 0.0
        _, d, d2, m2 = dsp.centred_rows(rows, np.abs(rows).max(axis=-1))
        assert dsp.skews(d, d2, m2) == [dsp.skew(r) for r in rows]
        assert dsp.kurtoses(d2, m2) == [dsp.kurtosis(r) for r in rows]
        energies = dsp.spectral_energies(dsp.power_spectra(np.fft.fft(rows)))
        assert energies.tolist() == [dsp.spectral_energy(r) for r in rows]

    def test_length_preconditions(self):
        with pytest.raises(ValueError):
            dsp.skew([1.0, 2.0])
        with pytest.raises(ValueError):
            dsp.kurtosis([1.0, 2.0, 3.0])


# ------------------------------------------------------------- pearson


class TestPearson:
    def test_matches_corrcoef(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=50)
        b = 0.3 * a + rng.normal(size=50)
        assert dsp.pearson_corr(a, b) == pytest.approx(
            float(np.corrcoef(a, b)[0, 1]), rel=1e-12
        )

    def test_perfect_lines(self):
        a = np.arange(10.0)
        assert dsp.pearson_corr(a, 2.0 * a + 1.0) == pytest.approx(1.0)
        assert dsp.pearson_corr(a, -a) == pytest.approx(-1.0)

    def test_degenerate_variance_is_zero(self):
        a = np.arange(8.0)
        assert dsp.pearson_corr(a, np.full(8, 3.0)) == 0.0
        assert dsp.pearson_corr(np.zeros(8), a) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dsp.pearson_corr([1.0, 2.0, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e80, 1e200])
    def test_scale_free_and_finite(self, scale):
        rng = np.random.default_rng(5)
        a = rng.normal(size=50)
        b = 0.3 * a + rng.normal(size=50)
        want = dsp.pearson_corr(a, b)
        assert dsp.pearson_corr(a * scale, b) == pytest.approx(want, rel=1e-9)
        assert dsp.pearson_corr(a * scale, b * scale) == pytest.approx(want, rel=1e-9)

    @given(finite_series)
    @settings(max_examples=40, deadline=None)
    def test_bounded(self, a):
        b = np.roll(a, 3)
        assert abs(dsp.pearson_corr(a, b)) <= 1.0 + 1e-12


# ------------------------------------------------- cross-correlation max


class TestCrossCorrFeature:
    @pytest.mark.parametrize("n", [4, 9, 16, 40])
    def test_matches_bruteforce(self, n):
        rng = np.random.default_rng(n + 1)
        for _ in range(5):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            assert dsp.cross_corr_feature(a, b) == pytest.approx(
                xcorr_oracle(a, b), rel=1e-12, abs=1e-12
            )

    def test_identical_series_peak_is_one(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=25)
        assert dsp.cross_corr_feature(a, a) == pytest.approx(1.0, rel=1e-12)

    def test_shifted_copy_recovers_alignment(self):
        a = np.zeros(32)
        a[5] = 1.0
        b = np.zeros(32)
        b[20] = 1.0
        assert dsp.cross_corr_feature(a, b) == pytest.approx(1.0)

    def test_zero_series_gives_zero(self):
        a = np.zeros(10)
        b = np.arange(10.0)
        assert dsp.cross_corr_feature(a, b) == 0.0
        assert dsp.cross_corr_feature(b, a) == 0.0

    @given(finite_series)
    @example(np.full(4, 5.8e-155))  # ea * eb underflows to 0: was inf
    @example(np.full(4, 1e200))  # ea and eb overflow: was nan
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_cauchy_schwarz_bound(self, a):
        b = a[::-1].copy()
        assert dsp.cross_corr_feature(a, b) <= 1.0 + 1e-12

    @pytest.mark.parametrize("scale", [5.8e-155, 1e-160, 1e-300, 1e160, 1e200])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_extreme_scales_give_the_unit_scale_value(self, scale):
        rng = np.random.default_rng(3)
        a = rng.normal(size=40)
        a /= np.abs(a).max()
        b = rng.normal(size=40)
        b /= np.abs(b).max()
        want = dsp.cross_corr_feature(a, b)
        got = dsp.cross_corr_feature(a * scale, b * scale)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

    def test_in_range_values_keep_their_bits(self):
        # An energy product in the normal range is correlated unscaled:
        # one rFFT pair zero-padded to 128 >= 2*50 - 1, A*conj(B) from
        # real products, the max over the 99 valid lags.
        rng = np.random.default_rng(4)
        a = rng.normal(size=50) * 3.0
        b = rng.normal(size=50) * 3.0
        A, B = np.fft.rfft(a, 128), np.fft.rfft(b, 128)
        cross = np.empty(A.shape, dtype=np.complex128)
        cross.real = A.real * B.real + A.imag * B.imag
        cross.imag = A.imag * B.real - A.real * B.imag
        lagged = np.fft.irfft(cross, 128)
        norm = float(np.sum(a**2)) * float(np.sum(b**2))
        want = max(lagged[:50].max(), lagged[79:].max()) / np.sqrt(norm)
        assert dsp.cross_corr_feature(a, b) == want
        assert want == pytest.approx(correlate_feature(a, b), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 13, 31, 61, 97, 127, 8, 16, 64, 128, 256])
    def test_prime_and_power_of_two_lengths(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            a, b = rng.normal(size=n), rng.normal(size=n)
            assert dsp.cross_corr_feature(a, b) == pytest.approx(
                correlate_feature(a, b), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("n", [4, 5, 16, 17, 100])
    def test_every_lag_negative(self, n):
        # x > 0 and y < 0 throughout: every lagged sum is negative, and
        # the zero padding of the FFT must not enter the maximum.
        rng = np.random.default_rng(n)
        a = rng.uniform(0.5, 2.0, size=n)
        b = -rng.uniform(0.5, 2.0, size=n)
        got = dsp.cross_corr_feature(a, b)
        assert got < 0.0
        assert got == pytest.approx(correlate_feature(a, b), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_domain_edges(self, scale):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=40), rng.normal(size=40)
        got = dsp.cross_corr_feature(a * scale, b * scale)
        assert got == pytest.approx(correlate_feature(a, b), rel=1e-12, abs=1e-12)
