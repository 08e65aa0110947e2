"""Synthetic corpus generator: determinism, structure, separability."""

import hashlib
import re

import numpy as np
import pytest

from gestrec import (
    EASY_SPEC,
    Dataset,
    ExtraTreesClassifier,
    GestureSample,
    SynthSpec,
    extract_all,
    generate,
)
from gestrec.synth import _class_template
from test_real_numbers import SYNTH_INTS, check_scalar, values_at


def small_spec(**overrides):
    base = dict(
        users=3,
        gestures=4,
        samples_per_gesture_per_user=5,
        length_range=(20, 40),
        user_speed_jitter=0.2,
        noise_sigma=0.1,
        user_style_offset=0.4,
        seed=5,
    )
    base.update(overrides)
    return SynthSpec(**base)


def reference_generate(spec: SynthSpec) -> Dataset:
    """The generator written one recording at a time: every recording
    computes its own noise-free signal, and its length is clipped by
    numpy. generate must give the same bits."""
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
            for trial in range(1, spec.samples_per_gesture_per_user + 1):
                k = (u - 1) * s_per_user + (g - 1) * spec.samples_per_gesture_per_user \
                    + (trial - 1)
                srng = np.random.Generator(np.random.PCG64(sample_streams[k]))
                rate = user_rate * (
                    1.0 + 0.5 * spec.user_speed_jitter * srng.uniform(-1.0, 1.0)
                )
                n = int(np.clip(round(base_len / rate), lo, hi))
                readings = templates[g - 1].sample(n, amp_scale, phase_shift)
                if spec.noise_sigma > 0:
                    readings = readings + srng.normal(
                        0.0, spec.noise_sigma, size=(n, 3)
                    )
                samples.append(
                    GestureSample(user=u, gesture=g, trial=trial, readings=readings)
                )
    return Dataset.from_samples(samples)


def readings_digest(ds: Dataset) -> str:
    """sha256 of the lengths (int64) and then every reading, in order."""
    h = hashlib.sha256(np.array([s.n for s in ds.samples], dtype=np.int64).tobytes())
    h.update(np.concatenate([s.readings for s in ds.samples]).tobytes())
    return h.hexdigest()


class TestStructure:
    def test_counts_and_meta(self):
        spec = small_spec()
        ds = generate(spec)
        assert len(ds.samples) == spec.total_samples == 60
        assert ds.meta.users == 3
        assert ds.meta.gestures == 4
        assert ds.meta.samples_per_gesture == 5
        assert ds.meta.total_samples == 60

    def test_identities_form_full_grid(self):
        ds = generate(small_spec())
        seen = {(s.user, s.gesture, s.trial) for s in ds.samples}
        want = {
            (u, g, t)
            for u in range(1, 4)
            for g in range(1, 5)
            for t in range(1, 6)
        }
        assert seen == want

    def test_lengths_within_range_and_varying(self):
        spec = small_spec(length_range=(24, 48), user_speed_jitter=0.3)
        ds = generate(spec)
        lengths = [s.n for s in ds.samples]
        assert min(lengths) >= 24
        assert max(lengths) <= 48
        assert len(set(lengths)) > 1

    def test_no_jitter_gives_fixed_midpoint_length(self):
        spec = small_spec(user_speed_jitter=0.0, length_range=(20, 40))
        ds = generate(spec)
        assert {s.n for s in ds.samples} == {30}

    def test_inactive_axes_are_exactly_zero_without_noise(self):
        # Class axis counts cycle 1, 2, 3, 1: classes 1 and 4 keep two
        # silent axes, class 2 keeps one.
        ds = generate(small_spec(noise_sigma=0.0))
        by_class = {}
        for s in ds.samples:
            silent = [np.all(s.readings[:, a] == 0.0) for a in range(3)]
            by_class.setdefault(s.gesture, silent)
        assert sum(by_class[1]) == 2
        assert sum(by_class[2]) == 1
        assert sum(by_class[3]) == 0
        assert sum(by_class[4]) == 2

    def test_noise_touches_every_axis(self):
        ds = generate(small_spec(noise_sigma=0.2))
        s = ds.samples[0]
        assert not np.any(np.all(s.readings == 0.0, axis=0))


class TestDeterminism:
    def test_bit_identical_regeneration(self):
        spec = small_spec()
        a = generate(spec)
        b = generate(spec)
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.identity == sb.identity
            assert np.array_equal(sa.readings, sb.readings)

    def test_seed_changes_values(self):
        a = generate(small_spec(seed=5))
        b = generate(small_spec(seed=6))
        assert not np.array_equal(a.samples[0].readings, b.samples[0].readings)

    def test_users_differ_when_style_is_on(self):
        ds = generate(small_spec(user_style_offset=0.5, noise_sigma=0.0))
        u1 = next(s for s in ds.samples if (s.user, s.gesture, s.trial) == (1, 1, 1))
        u2 = next(s for s in ds.samples if (s.user, s.gesture, s.trial) == (2, 1, 1))
        if u1.n == u2.n:
            assert not np.array_equal(u1.readings, u2.readings)

    def test_degenerate_spec_makes_identical_trials(self):
        # No jitter, no noise, no style: every trial of a class is the
        # same deterministic curve for every user.
        ds = generate(
            small_spec(user_speed_jitter=0.0, noise_sigma=0.0, user_style_offset=0.0)
        )
        reference = {}
        for s in ds.samples:
            if s.gesture in reference:
                assert np.array_equal(s.readings, reference[s.gesture])
            else:
                reference[s.gesture] = s.readings


class TestSharedCleanSignal:
    """generate computes one noise-free signal per (user, gesture,
    length) and shares it among that length's trials."""

    # Many trials and a small jitter make lengths repeat within a cell.
    @pytest.mark.parametrize("spec", [
        small_spec(samples_per_gesture_per_user=30, user_speed_jitter=0.05,
                   noise_sigma=0.0),
        small_spec(samples_per_gesture_per_user=30, user_speed_jitter=0.05,
                   noise_sigma=0.1),
        small_spec(samples_per_gesture_per_user=12, user_speed_jitter=0.0,
                   noise_sigma=0.2, seed=9),
        EASY_SPEC,
    ], ids=["repeats-noise-free", "repeats-noisy", "one-length", "easy"])
    def test_equals_the_per_recording_reference(self, spec):
        got, want = generate(spec), reference_generate(spec)
        assert got.meta == want.meta
        lengths = [s.n for s in got.samples]
        assert len(set(lengths)) < len(lengths)  # the specs do repeat lengths
        for a, b in zip(got.samples, want.samples, strict=True):
            assert a.identity == b.identity
            assert a.readings.tobytes() == b.readings.tobytes()

    def test_easy_spec_digest_is_pinned(self):
        # Recorded before the noise-free signal was shared.
        assert readings_digest(generate(EASY_SPEC)) == (
            "d4d7e9cd8d829a1f602aec8f60abe233a59161a9e107977c1ef10fe77d99481d"
        )

    def test_noise_free_trials_own_read_only_copies(self):
        ds = generate(small_spec(user_speed_jitter=0.0, noise_sigma=0.0))
        first, second = ds.samples[0], ds.samples[1]
        assert (first.user, first.gesture) == (second.user, second.gesture)
        assert first.n == second.n
        assert np.array_equal(first.readings, second.readings)
        assert first.readings is not second.readings
        assert not np.shares_memory(first.readings, second.readings)
        assert not first.readings.flags.writeable
        assert not second.readings.flags.writeable


class TestSeparability:
    def test_noiseless_corpus_is_learnable(self):
        spec = small_spec(noise_sigma=0.0, user_style_offset=0.2)
        matrix = extract_all(generate(spec))
        model = ExtraTreesClassifier(n_trees=30, seed=1).fit(matrix.X, matrix.gestures)
        pred = model.predict(matrix.X)
        assert float((pred == matrix.gestures).mean()) == 1.0


class TestValidation:
    def test_easy_spec_is_frozen(self):
        assert EASY_SPEC.users == 8
        assert EASY_SPEC.gestures == 8
        assert EASY_SPEC.samples_per_gesture_per_user == 10
        assert EASY_SPEC.total_samples == 640
        with pytest.raises(AttributeError):
            EASY_SPEC.seed = 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            small_spec(length_range=(4, 40))
        with pytest.raises(ValueError):
            small_spec(length_range=(40, 20))
        with pytest.raises(ValueError):
            small_spec(users=0)
        with pytest.raises(ValueError):
            small_spec(user_speed_jitter=-0.1)
        with pytest.raises(ValueError):
            small_spec(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            small_spec(user_style_offset=-0.1)

    @pytest.mark.parametrize("name", ["user_speed_jitter", "noise_sigma",
                                      "user_style_offset"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_shape_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            small_spec(**{name: value})

    @pytest.mark.parametrize("jitter", [1.0, 1.5, 3.0])
    def test_jitter_of_one_or_more_rejected(self, jitter):
        # At 1 or more, a user or trial rate can be 0 or negative.
        with pytest.raises(ValueError, match="user_speed_jitter must be < 1"):
            small_spec(user_speed_jitter=jitter)

    def test_jitter_below_one_keeps_every_rate_positive(self):
        # No recording is pinned at the minimum by a negative speed.
        spec = small_spec(user_speed_jitter=0.99, length_range=(8, 10_000),
                          samples_per_gesture_per_user=10, users=8)
        assert min(s.n for s in generate(spec).samples) > 8

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            small_spec(seed=-1)

    def test_integer_fields_must_be_integers(self):
        # numpy integers generate the corpus Python ones do.
        a = generate(small_spec(users=np.int64(2), length_range=(np.int32(20), 40),
                                seed=np.uint64(5)))
        b = generate(small_spec(users=2))
        assert [s.readings.tobytes() for s in a.samples] == [
            s.readings.tobytes() for s in b.samples]
        # 2.0 users or a "2" count used to construct, and generate raised
        # TypeError; test_real_numbers's table holds every case.
        for field in SYNTH_INTS:
            for _, value in values_at(f"SynthSpec {field}"):
                check_scalar(f"SynthSpec {field}", value)

    @pytest.mark.parametrize("field,value,name", [
        ("users", True, "users"),
        ("gestures", True, "gestures"),
        ("samples_per_gesture_per_user", True, "samples_per_gesture_per_user"),
        ("length_range", (20, True), "length_range max"),
        ("seed", False, "seed"),
    ])
    def test_bools_are_not_integers(self, field, value, name):
        # True used to generate a corpus of one user.
        check_scalar(f"SynthSpec {name}", value[1] if field == "length_range" else value)

    @pytest.mark.parametrize("value", [5, None, (20, 30, 40), (20,)])
    def test_length_range_must_be_a_pair(self, value):
        # 5 and None used to raise a bare TypeError from the unpacking,
        # and a triple "too many values to unpack".
        with pytest.raises(ValueError, match=rf"^length_range must be a pair \(min, max\), "
                                             rf"got {re.escape(repr(value))}$"):
            small_spec(length_range=value)
