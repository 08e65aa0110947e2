"""The real-corpus pipeline on synthetic raw trees.

No real corpus can be fetched in tier-1, so a generated corpus is written
in the raw layouts of the two corpora the paper uses and run through
``gestrec ingest``, ``features`` and ``eval --all``, as the
``GESTREC_UWAVE_DIR``/``GESTREC_SONY_DIR`` tests do with real data.
"""

import csv

import numpy as np
import pytest

from gestrec import SynthSpec, generate, load_manifest
from gestrec.cli import main

# Small, with per-user speed and style, so that an unseen user is harder
# to classify than a seen one.
SPEC = SynthSpec(users=3, gestures=4, samples_per_gesture_per_user=6,
                 length_range=(24, 48), user_speed_jitter=0.2, noise_sigma=0.2,
                 user_style_offset=1.0, seed=13)


def _write(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(" ".join(map(repr, r)) + "\n" for r in rows.tolist()),
                    encoding="utf-8")


def write_uwave(dataset, root):
    """``U<u>/<day>/<g>-<t>.txt``, one ``x y z`` row per reading; every
    trial on day 1."""
    for s in dataset.samples:
        _write(root / f"U{s.user}" / "1" / f"{s.gesture}-{s.trial}.txt", s.readings)


def write_sony(dataset, root):
    """``U<u>/<g>-<t>.txt``, three rising timestamp columns before the
    ``x y z`` columns of each reading."""
    for s in dataset.samples:
        stamps = np.arange(len(s.readings))[:, None] + np.array([[0.0, 0.1, 0.2]])
        _write(root / f"U{s.user}" / f"{s.gesture}-{s.trial}.txt",
               np.hstack([stamps, s.readings]))


LAYOUTS = {"uwave": write_uwave, "sony": write_sony}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_raw_tree_through_ingest_features_and_eval(layout, tmp_path):
    dataset = generate(SPEC)
    LAYOUTS[layout](dataset, tmp_path / "raw")

    canonical = tmp_path / "canonical"
    assert main(["ingest", layout, str(tmp_path / "raw"), "--out", str(canonical)]) == 0
    manifest = canonical / "manifest.csv"

    def key(s):
        return s.user, s.gesture, s.trial

    back = load_manifest(manifest).samples
    assert [key(s) for s in back] == sorted(key(s) for s in dataset.samples)
    for want, got in zip(sorted(dataset.samples, key=key), back):
        assert got.readings.tobytes() == want.readings.tobytes()

    features = tmp_path / "features.csv"
    assert main(["features", str(manifest), "--out", str(features)]) == 0
    out = tmp_path / "eval"
    assert main(["eval", str(features), "--out", str(out), "--all", "--seed", "1",
                 "--n-stages", "15"]) == 0
    with open(out / "grid.csv", encoding="utf-8", newline="") as fh:
        grid = {(r["mode"], r["classifier"]): float(r["accuracy"])
                for r in csv.DictReader(fh)}
    # The paper's ordering: a user the model has seen is easier.
    unseen = grid["user-independent", "et"]
    assert grid["user-dependent", "et"] > unseen
    assert grid["mixed", "et"] > unseen
