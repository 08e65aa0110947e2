import numpy as np
import pytest
from hypothesis import settings

from gestrec import EASY_SPEC, SynthSpec, extract_all, generate

# Property tests draw the same examples on every run and never replay
# examples stored in a local .hypothesis/ directory: a test's result
# does not depend on where it ran before. Known failing inputs are
# pinned with @example next to the test instead.
settings.register_profile("tier1", database=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def easy_matrix():
    """Feature matrix of the frozen end-to-end fixture (640 samples)."""
    return extract_all(generate(EASY_SPEC), jobs=4)


@pytest.fixture(scope="session")
def small_matrix():
    """A quick 3-user, 4-gesture matrix for harness tests."""
    spec = SynthSpec(
        users=3,
        gestures=4,
        samples_per_gesture_per_user=6,
        length_range=(24, 48),
        user_speed_jitter=0.15,
        noise_sigma=0.1,
        user_style_offset=0.3,
        seed=11,
    )
    return extract_all(generate(spec))


@pytest.fixture
def blob_data():
    """Gaussian-blob classification problems with controllable overlap."""

    def make(n_classes=3, n_per=20, d=6, spread=0.3, seed=0):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-4.0, 4.0, size=(n_classes, d))
        X = np.vstack(
            [c + spread * rng.standard_normal((n_per, d)) for c in centers]
        )
        y = np.repeat(np.arange(1, n_classes + 1), n_per)
        return X, y

    return make


def _write_rows(path, rows, fmt):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(fmt(row) + "\n")


@pytest.fixture
def make_uwave_tree(tmp_path):
    """Build a raw uWave-style tree: U<u>/<day>/<gesture>-<trial>.txt."""

    def build(users=2, days=2, gestures=2, trials=2, n=12, seed=0):
        root = tmp_path / "uwave"
        rng = np.random.default_rng(seed)
        for u in range(1, users + 1):
            for d in range(1, days + 1):
                for g in range(1, gestures + 1):
                    for t in range(1, trials + 1):
                        rows = rng.normal(size=(n, 3)).round(6)
                        _write_rows(
                            root / f"U{u}" / str(d) / f"{g}-{t}.txt",
                            rows,
                            lambda r: " ".join(repr(float(v)) for v in r),
                        )
        return root

    return build


@pytest.fixture
def make_sony_tree(tmp_path):
    """Build a raw Sony-style tree: U<u>/<gesture>-<trial>.txt with three
    leading timestamp columns per row."""

    def build(users=2, gestures=2, trials=2, n=12, seed=0):
        root = tmp_path / "sony"
        rng = np.random.default_rng(seed)
        for u in range(1, users + 1):
            for g in range(1, gestures + 1):
                for t in range(1, trials + 1):
                    g_vals = rng.normal(size=(n, 3)).round(6)
                    stamps = np.arange(n)[:, None] + np.array([[0.0, 0.1, 0.2]])
                    rows = np.hstack([stamps, g_vals])
                    _write_rows(
                        root / f"U{u}" / f"{g}-{t}.txt",
                        rows,
                        lambda r: " ".join(repr(float(v)) for v in r),
                    )
        return root

    return build
