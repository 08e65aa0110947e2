"""Deterministic synthetic gesture corpus generator.

Each gesture class owns a fixed acceleration template: per active axis a
sum of up to three sinusoids with class-specific amplitudes, frequencies
and phases. Classes cycle through one, two and three active axes
(inactive axes stay exactly zero before noise), so the corpus exercises
degenerate-variance paths as well as every feature block. A sample is
the template resampled at a user-and-trial speed (which varies the
sequence length), scaled and phase-shifted by a per-user style, plus
Gaussian noise.

Every random draw comes from a stream pre-split out of the spec seed,
one per class, user and sample, so generation is bit-reproducible and
order-independent.

The noise-free signal depends only on the user, the gesture and the
length, so it is computed once per (user, gesture, length) and shared by
every trial of that length; each recording pays only for its own draws
(its stream, its rate and its noise). A noisy recording's array is made
read-only and adopted by its GestureSample as it is; a noise-free one
gets its own copy of the shared signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, GestureSample, check_integer, check_real

__all__ = ["SynthSpec", "EASY_SPEC", "generate"]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic corpus. ValueError at construction for a
    value out of range, a count or ``seed`` that is not an integer
    (``data.check_integer``), a ``length_range`` that is not a pair of
    integers, or a float field that is not a real number
    (``data.check_real``). Each field is stored as its declared type."""

    users: int
    gestures: int
    samples_per_gesture_per_user: int
    length_range: tuple[int, int] = (40, 120)
    user_speed_jitter: float = 0.0
    noise_sigma: float = 0.0
    user_style_offset: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("users", 1), ("gestures", 1),
                            ("samples_per_gesture_per_user", 1), ("seed", 0)):
            value = check_integer(name, getattr(self, name))
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
            object.__setattr__(self, name, value)
        try:
            lo, hi = self.length_range
        except (TypeError, ValueError):
            raise ValueError(f"length_range must be a pair (min, max), "
                             f"got {self.length_range!r}") from None
        lo = check_integer("length_range min", lo)
        hi = check_integer("length_range max", hi)
        object.__setattr__(self, "length_range", (lo, hi))
        if lo < 8:
            raise ValueError("length_range min must be >= 8")
        if hi < lo:
            raise ValueError("length_range max must be >= min")
        for name in ("user_speed_jitter", "noise_sigma", "user_style_offset"):
            value = check_real(name, getattr(self, name))
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, value)
        # Below 1 every speed is positive; at 1 or more some are not.
        if self.user_speed_jitter >= 1:
            raise ValueError("user_speed_jitter must be < 1")

    @property
    def total_samples(self) -> int:
        return self.users * self.gestures * self.samples_per_gesture_per_user


# Fixture used by the end-to-end suite: large enough to separate well,
# enough user variety that pooled splits beat unseen-user folds.
EASY_SPEC = SynthSpec(
    users=8,
    gestures=8,
    samples_per_gesture_per_user=10,
    length_range=(40, 120),
    user_speed_jitter=0.2,
    noise_sigma=0.15,
    user_style_offset=0.6,
    seed=7,
)


@dataclass(frozen=True)
class _Template:
    """Per-class motion profile: sinusoid banks on the active axes."""

    active: tuple[int, ...]
    amps: np.ndarray  # (3, 3) amplitude per axis and harmonic
    freqs: np.ndarray  # (3, 3) cycles per gesture
    phases: np.ndarray  # (3, 3)

    def sample(self, n: int, amp_scale: np.ndarray, phase_shift: np.ndarray
               ) -> np.ndarray:
        t = np.linspace(0.0, 1.0, n)[:, None]
        out = np.zeros((n, 3))
        for axis in self.active:
            arg = 2.0 * np.pi * self.freqs[axis] * t + self.phases[axis]
            out[:, axis] = amp_scale[axis] * (
                np.sin(arg + phase_shift[axis]) @ self.amps[axis]
            )
        return out


def _class_template(g: int, stream: np.random.SeedSequence) -> _Template:
    rng = np.random.Generator(np.random.PCG64(stream))
    # Cycle 1-, 2- and 3-axis motions, rotating which axes are active.
    n_active = 1 + (g - 1) % 3
    start = (g - 1) % 3
    active = tuple(sorted((start + i) % 3 for i in range(n_active)))
    amps = rng.uniform(0.3, 1.2, size=(3, 3))
    freqs = rng.uniform(0.5, 4.0, size=(3, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, 3))
    return _Template(active, amps, freqs, phases)


def generate(spec: SynthSpec) -> Dataset:
    """Produce the synthetic dataset described by spec (pure function)."""
    root = np.random.SeedSequence(spec.seed)
    class_root, user_root, sample_root = root.spawn(3)
    class_streams = class_root.spawn(spec.gestures)
    user_streams = user_root.spawn(spec.users)
    s_per_user = spec.gestures * spec.samples_per_gesture_per_user
    sample_streams = sample_root.spawn(spec.users * s_per_user)

    templates = [
        _class_template(g, class_streams[g - 1])
        for g in range(1, spec.gestures + 1)
    ]

    lo, hi = spec.length_range
    base_len = (lo + hi) // 2
    samples = []
    for u in range(1, spec.users + 1):
        urng = np.random.Generator(np.random.PCG64(user_streams[u - 1]))
        user_rate = 1.0 + spec.user_speed_jitter * urng.uniform(-1.0, 1.0)
        amp_scale = 1.0 + spec.user_style_offset * urng.uniform(-1.0, 1.0, size=3)
        phase_shift = spec.user_style_offset * urng.uniform(-np.pi, np.pi, size=3)
        for g in range(1, spec.gestures + 1):
            template = templates[g - 1]
            clean = {}  # length -> noise-free signal, shared by its trials
            for trial in range(1, spec.samples_per_gesture_per_user + 1):
                k = (u - 1) * s_per_user + (g - 1) * spec.samples_per_gesture_per_user \
                    + (trial - 1)
                srng = np.random.Generator(np.random.PCG64(sample_streams[k]))
                rate = user_rate * (
                    1.0 + 0.5 * spec.user_speed_jitter * srng.uniform(-1.0, 1.0)
                )
                n = min(max(round(base_len / rate), lo), hi)
                if n not in clean:
                    clean[n] = template.sample(n, amp_scale, phase_shift)
                readings = clean[n]
                if spec.noise_sigma > 0:
                    readings = readings + srng.normal(
                        0.0, spec.noise_sigma, size=(n, 3)
                    )
                    readings.flags.writeable = False
                samples.append(
                    GestureSample(user=u, gesture=g, trial=trial, readings=readings)
                )
    return Dataset.from_samples(samples)
