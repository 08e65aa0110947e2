"""
Signal kernels: DFT, spectral energy, analytic signal
=====================================================

The feature extractor is built on a handful of signal kernels over
numpy's FFT. This script demonstrates each on series where the right
answer is known in closed form.
"""

import numpy as np

from gestrec.dsp import (
    analytic_signal,
    hilbert_imag,
    spectral_energy,
)

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------
# A pure sinusoid concentrates its spectrum in one conjugate bin pair.
n = 64
k = 5
t = np.arange(n)
x = np.sin(2.0 * np.pi * k * t / n)

spectrum = np.fft.fft(x)
magnitudes = np.abs(spectrum)
print(f"sinusoid with {k} cycles over {n} samples")
print(f"  spectrum peaks at bins {np.argsort(magnitudes)[-2:][::-1]} "
      f"(expected {k} and {n - k})")

# The inverse transform reconstructs the series to machine precision.
print(f"  ifft(fft(x)) max error: {np.max(np.abs(np.fft.ifft(spectrum) - x)):.2e}")

# ---------------------------------------------------------------------
# Parseval's identity: the normalized spectral energy of a series
# equals its time-domain sum of squares — for any series.
x = rng.normal(size=101)  # odd length on purpose
energy_f = spectral_energy(x)
energy_t = float(np.sum(x * x))
print(f"\nParseval on random length-101 series:")
print(f"  frequency-domain energy: {energy_f:.12f}")
print(f"  time-domain energy:      {energy_t:.12f}")

# ---------------------------------------------------------------------
# The analytic signal keeps the series as its real part and adds the
# Hilbert transform as the imaginary part; negative-frequency content
# vanishes. For cos, the Hilbert transform is sin: the analytic signal
# of cos(wt) is exactly exp(i wt).
x = np.cos(2.0 * np.pi * 3 * t / n)
xa = analytic_signal(x)
print(f"\nanalytic signal of cos(3wt):")
print(f"  re(x_a) == x: {np.allclose(xa.real, x, atol=1e-12)}")
print(f"  im(x_a) vs sin(3wt) max error: "
      f"{np.max(np.abs(xa.imag - np.sin(2.0 * np.pi * 3 * t / n))):.2e}")

negative_bins = np.abs(np.fft.fft(xa))[n // 2 + 1:]
print(f"  negative-spectrum magnitude: {negative_bins.max():.2e}")

# The imaginary part alone is what the Hilbert feature block consumes.
h = hilbert_imag(x)
print(f"  envelope sqrt(x^2 + h^2) is flat: "
      f"max deviation {np.max(np.abs(np.hypot(x, h) - 1.0)):.2e}")
