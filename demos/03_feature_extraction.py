"""
The 33-value feature vector
===========================

Every gesture, regardless of its length, is summarized by a fixed
33-value vector: 15 time-domain values, 3 spectral energies, and 15
Hilbert-domain values. This script extracts the vector for one sample
and walks through the blocks.
"""

import numpy as np

from gestrec import FEATURE_NAMES, SynthSpec, extract_all, generate
from gestrec.features import feature_set, freq_features, hilbert_features, time_features

dataset = generate(SynthSpec(
    users=2, gestures=4, samples_per_gesture_per_user=3,
    length_range=(40, 80), user_speed_jitter=0.2, noise_sigma=0.05,
    user_style_offset=0.3, seed=1,
))
sample = dataset.samples[0]
print(f"sample: user={sample.user} gesture={sample.gesture} length={sample.n}")

# The three blocks concatenate into the full vector; the order is fixed
# and versioned, because stored models and feature files depend on it.
tf = time_features(sample)
ff = freq_features(sample)
hf = hilbert_features(sample)
fs = feature_set(sample)
print(f"block sizes: time={tf.size} freq={ff.size} hilbert={hf.size} "
      f"full={fs.size}")
assert np.array_equal(fs, np.concatenate([tf, ff, hf]))

print("\nname and value of every feature:")
for name, value in zip(FEATURE_NAMES, fs):
    print(f"  {name:>12}  {value: .4f}")

# Extracting a whole dataset gives one row per sample, in dataset
# order, with the user/gesture labels alongside.
matrix = extract_all(dataset)
print(f"\nfeature matrix: {matrix.X.shape[0]} rows x {matrix.X.shape[1]} columns")

# Same-class rows cluster: compare distances within class 1 against
# distances from class 1 to class 2 (on standardized features).
X = (matrix.X - matrix.X.mean(axis=0)) / (matrix.X.std(axis=0) + 1e-12)
rows_c1 = X[matrix.gestures == 1]
rows_c2 = X[matrix.gestures == 2]
within = np.mean([np.linalg.norm(a - b) for a in rows_c1 for b in rows_c1])
across = np.mean([np.linalg.norm(a - b) for a in rows_c1 for b in rows_c2])
print(f"mean within-class distance: {within:.2f}")
print(f"mean across-class distance: {across:.2f}")
