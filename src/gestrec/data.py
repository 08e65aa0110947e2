"""Gesture dataset model: types, canonical manifest I/O, raw-tree adapters.

A gesture sample is an ordered sequence of tri-axial accelerometer
g-values with a (user, gesture, trial[, day]) identity. The only
preprocessing applied anywhere is removal of timestamp columns; g-values
pass through bit-identical and sequences keep their natural lengths.

The canonical on-disk layout is a UTF-8 manifest CSV with header
``user,gesture,trial,day,file`` where ``file`` points to a per-sample CSV
(header ``gx,gy,gz``, one row per reading). Raw uWave- and Sony-style
trees are translated into this form by pattern-configured adapters.

``read_table`` is the one reader of the three CSV tables: manifests,
sample files and the feature CSV of ``features``. It checks the header
and the width of every row, and each error names the ``path:line`` it
comes from.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import operator
import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError

__all__ = [
    "GestureSample",
    "DatasetMeta",
    "Dataset",
    "AdapterConfig",
    "UWAVE_ADAPTER",
    "SONY_ADAPTER",
    "load_manifest",
    "save_manifest",
    "load_sample_tree",
    "load_adapter_config",
]

# Fourth moments and lagged correlation need at least this many readings.
MIN_READINGS = 4

MANIFEST_HEADER = ["user", "gesture", "trial", "day", "file"]
SAMPLE_HEADER = ["gx", "gy", "gz"]


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, the array itself when it is a
    float64 ``ndarray``.

    The rule for "real numbers" at every array boundary, an allowlist: a
    base ``ndarray`` of kind ``f``, ``i`` or ``u`` is converted, and an
    object array or anything that is not an ``ndarray`` (a list, a tuple,
    a scalar) is read element by element, each a ``numbers.Real`` that is
    not a bool and that a float64 holds (``Fraction`` is one; ``Decimal``,
    ``np.bool_``, ``None``, ``str`` and ``bytes`` are not). ValueError
    naming ``what`` and the first refused value or dtype otherwise, and
    for any ``ndarray`` subclass: ``np.asarray`` would drop a mask.
    """
    if type(values) is np.ndarray:
        if values.dtype == np.float64:
            return values
        if values.dtype.kind in "fiu":
            return values.astype(np.float64)
        if values.dtype.kind != "O":
            raise ValueError(f"{what} must be real numbers, got {values.dtype}")
    elif isinstance(values, np.ndarray):
        raise ValueError(f"{what} must be real numbers, got {type(values).__name__}, "
                         "an ndarray subclass")
    a = np.asarray(values, dtype=object)
    floats = [check_real(what, v, "real numbers") for v in a.flat]
    return np.array(floats, dtype=np.float64).reshape(a.shape)


def check_real(name: str, value, noun: str = "a real number") -> float:
    """``value`` as a float; ValueError naming ``name`` and ``value``
    unless it is a ``numbers.Real``, Python or numpy, that is not a bool
    and that a float holds. ``noun`` is what the message asks for."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be {noun} that a float holds, got {value!r}"
                         ) from None


def check_integer(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer, Python or numpy, and not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_readings(readings) -> np.ndarray:
    """Readings as an (n, 3) float64 array; ValueError unless they are
    real numbers, n >= 4 and every value is finite."""
    r = real_array(readings, "readings")
    if r.ndim != 2 or r.shape[1] != 3:
        raise ValueError(f"readings must have shape (n, 3), got {r.shape}")
    if r.shape[0] < MIN_READINGS:
        raise ValueError(f"sample too short: {r.shape[0]} readings < {MIN_READINGS}")
    if not np.isfinite(r).all():
        raise ValueError("readings contain non-finite values")
    return r


@dataclass(frozen=True)
class GestureSample:
    """One variable-length tri-axial gesture recording.

    ``user``, ``gesture``, ``trial`` and ``day`` (when present) are
    integers >= 1, stored as ``int``, and ``readings`` is checked by
    ``check_readings`` on every construction; ValueError otherwise.
    An array nobody can write (C-contiguous float64 that owns its data
    and is not writeable) is adopted as it is, so re-labelling a sample
    shares its readings; anything else is copied and the copy made
    read-only. An adopted array must not be made writeable again.
    """

    user: int
    gesture: int
    trial: int
    readings: np.ndarray  # (n, 3) float64, read-only
    day: int | None = None

    def __post_init__(self):
        r = check_readings(self.readings)
        if r.flags.writeable or r.base is not None or not r.flags.c_contiguous:
            r = r.copy()
            r.flags.writeable = False
        object.__setattr__(self, "readings", r)
        ids = {"user": self.user, "gesture": self.gesture, "trial": self.trial}
        if self.day is not None:
            ids["day"] = self.day
        for name, value in ids.items():
            value = check_integer(name, value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.readings.shape[0]

    @property
    def identity(self) -> tuple:
        return (self.user, self.gesture, self.trial, self.day)


@dataclass(frozen=True)
class DatasetMeta:
    """Dataset attribute counts: U users, N_G gestures, S_G samples per
    gesture cell, optional N_D days, and the loaded sample total."""

    users: int
    gestures: int
    samples_per_gesture: int
    total_samples: int
    days: int | None = None

    def summary(self) -> str:
        nd = str(self.days) if self.days is not None else "-"
        return (
            f"U={self.users} N_G={self.gestures} S_G={self.samples_per_gesture} "
            f"N_D={nd} N_GS={self.total_samples}"
        )


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable collection of gesture samples plus counts."""

    meta: DatasetMeta
    samples: tuple[GestureSample, ...]

    @staticmethod
    def from_samples(samples: Iterable[GestureSample]) -> "Dataset":
        """Build a dataset, derive its meta counts and check invariants:
        unique identities, user and gesture ids dense from 1."""
        samples = tuple(samples)
        seen = set()
        for s in samples:
            if s.identity in seen:
                raise DataError(
                    f"duplicate sample identity (user={s.user}, gesture={s.gesture},"
                    f" trial={s.trial}, day={s.day})"
                )
            seen.add(s.identity)
        if not samples:
            return Dataset(DatasetMeta(0, 0, 0, 0, None), samples)

        users = sorted({s.user for s in samples})
        gestures = sorted({s.gesture for s in samples})
        if users != list(range(1, users[-1] + 1)):
            raise DataError(f"user ids are not dense in 1..{users[-1]}: {users}")
        if gestures != list(range(1, gestures[-1] + 1)):
            raise DataError(
                f"gesture ids are not dense in 1..{gestures[-1]}: {gestures}"
            )
        days = [s.day for s in samples if s.day is not None]
        n_days = max(days) if days else None
        if days and len(days) != len(samples):
            raise DataError("day index present on some samples but not all")

        meta = DatasetMeta(
            users=users[-1],
            gestures=gestures[-1],
            samples_per_gesture=max(s.trial for s in samples),
            total_samples=len(samples),
            days=n_days,
        )
        expected = meta.users * meta.gestures * meta.samples_per_gesture
        if n_days is not None:
            expected *= n_days
        if expected != meta.total_samples:
            warnings.warn(
                f"sample total {meta.total_samples} does not match the balanced "
                f"grid U*N_G*S_G{'*N_D' if n_days else ''} = {expected}; "
                "per-cell counts are unbalanced",
                stacklevel=3,
            )
        return Dataset(meta, samples)


def utf8_text(raw: bytes, path) -> str:
    """``raw``, read from ``path``, as UTF-8 text; DataError at the
    ``path:line`` of the first byte that is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"not UTF-8 text (byte {raw[exc.start]:#04x})",
                        path=path, line=line) from None


def read_table(path, what: str, header: list[str], text: str | None = None):
    """Yield ``(line, fields)`` for each non-blank row of the CSV table at
    ``path`` after its header: the one reader of manifests, sample files
    and feature files. ``line`` is the file line the row ends on, which
    counts the line breaks inside quoted fields.

    ``what`` names the table in errors, and ``text`` is the file's text
    when the caller has already read it. Raises DataError for a missing
    or empty file, for a header other than ``header`` (at ``path:1``) and
    for a row of another width (at ``path:line``).
    """
    path = Path(path)
    if text is None:
        if not path.is_file():
            raise DataError(f"{what} not found", path=path)
        text = utf8_text(path.read_bytes(), path)
    reader = csv.reader(io.StringIO(text, newline=""))
    first = next(reader, None)
    if first is None:
        raise DataError(f"empty {what}", path=path)
    if [h.strip() for h in first] != header:
        raise DataError(
            f"bad {what} header {first!r}, expected {header}",
            path=path,
            line=1,
        )
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"expected {len(header)} columns, got {len(row)}",
                path=path,
                line=reader.line_num,
            )
        yield reader.line_num, row


def _read_sample_csv(path: Path) -> np.ndarray:
    """Readings of a sample CSV as a read-only (n, 3) float64 array of
    its own.

    The file is read once. When it holds no carriage return and every
    non-empty line after the header holds three plain numbers, numpy's
    C reader (``np.loadtxt``) converts it in one call. Anything else,
    such as a malformed value, a wrong field count, quoted fields or
    carriage returns, goes through ``csv`` line by line, which parses
    each field as ``float`` does and reports the ``path:line`` of the
    first bad line.
    """
    if not path.is_file():
        raise DataError("sample file not found", path=path)
    text = utf8_text(path.read_bytes(), path)
    head, _, body = text.partition("\n")
    # loadtxt warns on a body without data; csv gives the (0, 3) array.
    if "\r" not in text and head.split(",") == SAMPLE_HEADER and body.strip():
        try:
            rows = np.loadtxt(body.split("\n"), delimiter=",", comments=None,
                              dtype=np.float64, ndmin=2)
        except ValueError:
            pass
        else:
            if rows.shape[1] == 3:
                return _sealed(rows)
    return _parse_sample_rows(path, text)


def _sealed(readings: np.ndarray) -> np.ndarray:
    """``readings``, an array its reader made and holds alone, marked
    read-only so that GestureSample adopts it instead of copying it."""
    readings.flags.writeable = False
    return readings


def _parse_sample_rows(path: Path, text: str) -> np.ndarray:
    triples = []
    for lineno, row in read_table(path, "sample file", SAMPLE_HEADER, text):
        try:
            triples.append((float(row[0]), float(row[1]), float(row[2])))
        except ValueError:
            raise DataError(
                f"malformed g-value in {row!r}", path=path, line=lineno
            ) from None
    # (n, 3) for n = 0 too, and not a view as .reshape would give.
    return _sealed(np.fromiter(triples, dtype=(np.float64, 3), count=len(triples)))


def _make_sample(user, gesture, trial, day, readings, path, line=None) -> GestureSample:
    try:
        return GestureSample(
            user=user, gesture=gesture, trial=trial, day=day, readings=readings
        )
    except ValueError as exc:
        raise DataError(str(exc), path=path, line=line) from None


def load_manifest(path) -> Dataset:
    """Load a canonical manifest CSV into a Dataset (manifest order)."""
    path = Path(path)
    samples: list[GestureSample] = []
    for lineno, row in read_table(path, "manifest", MANIFEST_HEADER):
        try:
            user = int(row[0])
            gesture = int(row[1])
            trial = int(row[2])
            day = int(row[3]) if row[3].strip() else None
        except ValueError:
            raise DataError(
                f"malformed identity in {row!r}", path=path, line=lineno
            ) from None
        readings = _read_sample_csv(path.parent / row[4])
        samples.append(
            _make_sample(user, gesture, trial, day, readings, path, lineno)
        )
    try:
        return Dataset.from_samples(samples)
    except DataError as exc:
        raise DataError(f"{exc} (while loading manifest)", path=path) from None


def _sample_filename(s: GestureSample) -> str:
    name = f"u{s.user:02d}_g{s.gesture:02d}_t{s.trial:03d}"
    if s.day is not None:
        name += f"_d{s.day:02d}"
    return name + ".csv"


def save_manifest(dataset: Dataset, out_dir) -> Path:
    """Write a Dataset as manifest.csv plus per-sample CSVs under
    ``samples/``. Floats are written with shortest round-trip repr, so a
    save/load cycle is bit-identical and re-saving is byte-identical.
    """
    out_dir = Path(out_dir)
    sample_dir = out_dir / "samples"
    sample_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(MANIFEST_HEADER) + "\n")
        for s in dataset.samples:
            rel = f"samples/{_sample_filename(s)}"
            day = "" if s.day is None else str(s.day)
            fh.write(f"{s.user},{s.gesture},{s.trial},{day},{rel}\n")
            with open(out_dir / rel, "w", newline="\n", encoding="utf-8") as sf:
                sf.write(",".join(SAMPLE_HEADER) + "\n")
                for gx, gy, gz in s.readings.tolist():
                    sf.write(f"{gx!r},{gy!r},{gz!r}\n")
    return manifest


@dataclass(frozen=True)
class AdapterConfig:
    """Pattern configuration translating a raw sample tree to the
    canonical form.

    ``path_pattern`` is a regex matched against each sample file's
    POSIX-style path relative to the tree root, with named captures
    ``user``, ``gesture``, ``trial`` and optionally ``day``.
    ``timestamp_columns`` are the column indices removed from every raw
    row. Files whose name ends in ``sample_suffix`` must match the
    pattern; other files are ignored. A field of the wrong type or value
    raises TypeError or ValueError on construction.
    """

    path_pattern: str
    timestamp_columns: tuple[int, ...] = ()
    sample_suffix: str = ".txt"
    delimiter: str = "whitespace"  # or a literal delimiter such as ","

    required_groups = ("user", "gesture", "trial")

    def __post_init__(self):
        if not isinstance(self.path_pattern, str):
            raise TypeError(
                f"path_pattern must be a string, got {self.path_pattern!r}"
            )
        cols = self.timestamp_columns
        if not isinstance(cols, (list, tuple)) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in cols
        ) or len(set(cols)) < len(cols):
            raise ValueError(
                f"timestamp_columns must be distinct ints >= 0, got {cols!r}"
            )
        object.__setattr__(self, "timestamp_columns", tuple(cols))
        for name in ("sample_suffix", "delimiter"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValueError(f"{name} must be a non-empty string, got {value!r}")
        try:
            groups = set(re.compile(self.path_pattern).groupindex)
        except re.error as exc:
            raise ValueError(f"path_pattern is not a valid regex: {exc}") from None
        missing = [g for g in self.required_groups if g not in groups]
        if missing:
            raise ValueError(f"path_pattern lacks named captures: {missing}")


# Raw uWave-style tree: per-user directories of per-day directories of
# per-sample "x y z" text files, no timestamp columns.
UWAVE_ADAPTER = AdapterConfig(
    path_pattern=r"U(?P<user>\d+)/(?P<day>\d+)/(?P<gesture>\d+)-(?P<trial>\d+)\.txt",
)

# Raw Sony-style tree: per-user directories of per-sample text files whose
# rows carry three clock-source timestamps before the g-values.
SONY_ADAPTER = AdapterConfig(
    path_pattern=r"U(?P<user>\d+)/(?P<gesture>\d+)-(?P<trial>\d+)\.txt",
    timestamp_columns=(0, 1, 2),
)


def load_adapter_config(path) -> AdapterConfig:
    """Read an adapter config from a JSON key-value file."""
    path = Path(path)
    if not path.is_file():
        raise DataError("adapter config not found", path=path)
    try:
        raw = json.loads(utf8_text(path.read_bytes(), path))
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}", path=path) from None
    if not isinstance(raw, dict):
        raise DataError("adapter config must be a JSON object", path=path)
    unknown = set(raw) - {f.name for f in fields(AdapterConfig)}
    if unknown:
        raise DataError(f"unknown adapter config keys: {sorted(unknown)}", path=path)
    if "path_pattern" not in raw:
        raise DataError("adapter config must set path_pattern", path=path)
    try:
        return AdapterConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise DataError(str(exc), path=path) from None


def _read_raw_sample(path: Path, config: AdapterConfig) -> np.ndarray:
    """Readings of a raw sample file as a read-only (n, 3) float64 array
    of its own: each non-blank line split into floats, the config's
    timestamp columns dropped and the other columns kept bit-identical,
    in file order.

    Raises DataError naming the file when it is empty, at ``path:line``
    for a malformed value or a row of another width than the first,
    and when the timestamp columns do not leave 3 g-value columns.
    Non-monotone timestamps only warn: reordering the rows would alter
    the g-value sequence.
    """
    rows: list[list[float]] = []
    sep = None if config.delimiter == "whitespace" else config.delimiter
    # newline=None reads \n, \r and \r\n line ends, as open() does.
    text = io.StringIO(utf8_text(path.read_bytes(), path), newline=None)
    for lineno, line in enumerate(text, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(sep)
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise DataError(
                f"malformed row {line!r}", path=path, line=lineno
            ) from None
        if len(parts) != len(rows[0]):
            raise DataError(
                f"expected {len(rows[0])} columns, got {len(parts)}",
                path=path,
                line=lineno,
            )
    if not rows:
        raise DataError("empty sample file", path=path)
    table = np.array(rows, dtype=np.float64)
    stamps = sorted(config.timestamp_columns)
    width = table.shape[1]
    if width - len(stamps) != 3 or any(c >= width for c in stamps):
        raise DataError(
            f"rows have {width} columns: timestamp_columns {stamps} do not "
            "leave 3 g-value columns",
            path=path,
        )
    if stamps and (np.diff(table[:, stamps[0]]) < 0).any():
        warnings.warn(f"{path}: non-monotone timestamps; row order preserved as given")
    # take gives a C-ordered array of its own; np.delete may give a view.
    keep = [c for c in range(width) if c not in stamps]
    return _sealed(table.take(keep, axis=1))


def load_sample_tree(root, config: AdapterConfig) -> Dataset:
    """Walk a raw sample tree and load every matching file.

    Samples are ordered by (user, day, gesture, trial), so two loads of
    the same tree always agree. A capture that is not an integer raises
    DataError naming the file.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError("sample tree root not found", path=root)
    pattern = re.compile(config.path_pattern)
    matched: list[tuple[tuple, Path, dict]] = []
    for p in sorted(root.rglob("*")):
        if not p.is_file() or not p.name.endswith(config.sample_suffix):
            continue
        rel = p.relative_to(root).as_posix()
        m = pattern.fullmatch(rel)
        if m is None:
            raise DataError(
                f"file name does not match adapter pattern {config.path_pattern!r}",
                path=p,
            )
        ident = {}
        for name, value in m.groupdict().items():
            if value is None:
                continue
            try:
                ident[name] = int(value)
            except ValueError:
                raise DataError(
                    f"capture {name}={value!r} is not an integer", path=p
                ) from None
        key = (
            ident["user"],
            ident.get("day", 0),
            ident["gesture"],
            ident["trial"],
        )
        matched.append((key, p, ident))
    if not matched:
        raise DataError(f"no sample files matched under {root}")

    samples = [
        _make_sample(
            ident["user"],
            ident["gesture"],
            ident["trial"],
            ident.get("day"),
            _read_raw_sample(path, config),
            path,
        )
        for _, path, ident in sorted(matched, key=lambda t: t[0])
    ]
    return Dataset.from_samples(samples)
