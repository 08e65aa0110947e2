"""Data model, canonical manifest I/O, and raw-tree adapter tests."""

import json
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from gestrec.data import (
    SONY_ADAPTER,
    _parse_sample_rows,
    _read_sample_csv,
    UWAVE_ADAPTER,
    AdapterConfig,
    Dataset,
    GestureSample,
    load_adapter_config,
    load_manifest,
    load_sample_tree,
    save_manifest,
)
from gestrec import data
from gestrec.errors import DataError
from gestrec.features import N_FEATURES, load_features
from gestrec.synth import EASY_SPEC, generate
from test_real_numbers import (BOUNDARIES, NOT_NUMBERS, NOT_REAL, check_array,
                               check_scalar, values_at)


def sample(user=1, gesture=1, trial=1, day=None, n=6, seed=0):
    rng = np.random.default_rng(seed + user * 100 + gesture * 10 + trial)
    return GestureSample(
        user=user, gesture=gesture, trial=trial, day=day,
        readings=rng.normal(size=(n, 3)),
    )


class TestGestureSample:
    def test_accepts_minimum_length(self):
        s = sample(n=4)
        assert s.n == 4
        assert s.readings.shape == (4, 3)

    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError, match="too short"):
            sample(n=3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            GestureSample(user=1, gesture=1, trial=1,
                          readings=np.zeros((5, 2)))

    def test_rejects_non_finite(self):
        readings = np.zeros((5, 3))
        readings[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            GestureSample(user=1, gesture=1, trial=1, readings=readings)

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(ValueError):
            sample(user=0)
        with pytest.raises(ValueError):
            sample(day=0)

    def test_readings_are_immutable(self):
        s = sample()
        with pytest.raises(ValueError):
            s.readings[0, 0] = 9.9

    @pytest.mark.parametrize("field", ["user", "gesture", "trial", "day"])
    def test_identity_must_be_an_integer(self, field):
        for _, value in values_at(field):
            check_scalar(field, value)

    @pytest.mark.parametrize("field", ["user", "gesture", "trial", "day"])
    def test_identity_must_not_be_a_bool(self, field):
        # True used to construct, and save_manifest then wrote a row
        # "True,1,1,..." that load_manifest refused.
        for value in (True, False):
            check_scalar(field, value)


class TestRealReadings:
    """The rows of ``test_real_numbers``'s table that these ids name."""

    @pytest.mark.parametrize("row", NOT_REAL)
    def test_refused_with_value_error(self, row):
        check_array(row, *BOUNDARIES["GestureSample"])

    @pytest.mark.parametrize("row", NOT_NUMBERS)
    def test_dates_durations_and_records_are_refused(self, row):
        for boundary in ("feature_set", "GestureSample", "dsp.skew"):
            check_array(row, *BOUNDARIES[boundary])

    def test_float64_array_is_checked_without_a_copy(self):
        r = np.zeros((5, 3))
        assert data.real_array(r, "readings") is r
        assert data.check_readings(r) is r
        assert data.real_array([[1, 2, 3]], "readings").dtype == np.float64

    def test_object_array_is_refused_only_for_text(self):
        for row in ("object holding 2**70", "string in an object array",
                    "bytes in an object array"):
            check_array(row, *BOUNDARIES["GestureSample"])


def read_only(a):
    a.flags.writeable = False
    return a


def owns_read_only(r):
    return r.base is None and r.flags.c_contiguous and not r.flags.writeable


class TestAdoption:
    """A sample adopts a read-only float64 (n, 3) C-ordered array that
    owns its data, and copies anything that someone could still write."""

    def test_writeable_input_is_copied(self):
        a = np.arange(18.0).reshape(6, 3).copy()
        s = GestureSample(1, 1, 1, a)
        assert not np.shares_memory(s.readings, a)
        a[0, 0] = 99.0
        assert np.array_equal(s.readings, np.arange(18.0).reshape(6, 3))

    def test_read_only_view_of_a_writeable_base_is_copied(self):
        base = np.arange(18.0).reshape(6, 3).copy()
        s = GestureSample(1, 1, 1, read_only(base[:]))
        assert not np.shares_memory(s.readings, base)
        base[0, 0] = 99.0
        assert np.array_equal(s.readings, np.arange(18.0).reshape(6, 3))

    @pytest.mark.parametrize("make", [
        lambda a: read_only(a.astype(np.float32)),
        lambda a: read_only(np.asfortranarray(a)),
    ], ids=["float32", "fortran"])
    def test_other_layouts_are_copied(self, make):
        a = np.arange(18.0).reshape(6, 3).copy()
        given = make(a)
        s = GestureSample(1, 1, 1, given)
        assert np.array_equal(s.readings, a)
        assert s.readings.dtype == np.float64 and s.readings.flags.c_contiguous
        assert not np.shares_memory(s.readings, given)
        assert owns_read_only(s.readings)

    def test_transposed_input_is_refused(self):
        with pytest.raises(ValueError, match=r"shape \(n, 3\), got \(3, 6\)"):
            GestureSample(1, 1, 1, read_only(np.arange(18.0).reshape(3, 6)))

    def test_owned_read_only_array_is_adopted(self):
        a = read_only(np.arange(18.0).reshape(6, 3).copy())
        s = GestureSample(1, 1, 1, a)
        assert s.readings is a
        assert np.array_equal(s.readings, np.arange(18.0).reshape(6, 3))

    def test_relabelling_shares_the_readings(self):
        s = sample()
        t = GestureSample(s.user, s.gesture, s.trial + 1, s.readings)
        assert np.shares_memory(t.readings, s.readings)
        assert np.array_equal(t.readings, s.readings)

    def test_relabelling_allocates_no_readings(self):
        # A copy per sample would hold 100 recordings' bytes.
        s = sample(n=1000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [GestureSample(1, 1, t, s.readings) for t in range(1, 101)]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(kept) == 100
        assert grown < s.readings.nbytes

    @staticmethod
    def adopted(monkeypatch, produce) -> list:
        """The samples of ``produce()``, after checking that each one kept
        the array its producer handed to GestureSample."""
        given = []
        check = data.check_readings
        monkeypatch.setattr(data, "check_readings", lambda r: given.append(r) or check(r))
        samples = produce().samples
        assert len(given) == len(samples)
        for s, r in zip(samples, given):
            assert s.readings is r and owns_read_only(r)
        return samples

    def test_loaded_and_generated_readings_are_adopted(self, tmp_path, monkeypatch):
        ds = Dataset.from_samples([sample(trial=t) for t in (1, 2)])
        manifest = save_manifest(ds, tmp_path / "out")
        # A carriage return sends the second file through the csv reader.
        crlf = tmp_path / "out" / "samples" / "u01_g01_t002.csv"
        crlf.write_bytes(crlf.read_bytes().replace(b"\n", b"\r\n"))
        back = self.adopted(monkeypatch, lambda: load_manifest(manifest))
        for a, b in zip(ds.samples, back):
            assert np.array_equal(a.readings, b.readings)
        self.adopted(monkeypatch, lambda: generate(EASY_SPEC))

    @pytest.mark.parametrize("stamps", [(), (0, 1, 2)])
    def test_raw_readings_are_adopted(self, tmp_path, monkeypatch, stamps):
        lines = ["1 2 3 0.5 0.25 0.125", "2 3 4 1.5 1.25 1.125",
                 "3 4 5 2.5 2.25 2.125", "4 5 6 3.5 3.25 3.125"]
        if not stamps:
            lines = [" ".join(line.split()[3:]) for line in lines]
        (tmp_path / "U1").mkdir()
        (tmp_path / "U1" / "1-1.txt").write_text("".join(line + "\n" for line in lines))
        config = AdapterConfig(SONY_ADAPTER.path_pattern, stamps)
        (s,) = self.adopted(monkeypatch, lambda: load_sample_tree(tmp_path, config))
        assert s.readings.tolist() == [[0.5, 0.25, 0.125], [1.5, 1.25, 1.125],
                                       [2.5, 2.25, 2.125], [3.5, 3.25, 3.125]]


def load_raw(tmp_path, lines, timestamp_columns=()):
    """Readings of a one-file raw tree, ``U1/1-1.txt`` holding ``lines``."""
    path = tmp_path / "U1" / "1-1.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines))
    config = AdapterConfig(SONY_ADAPTER.path_pattern, tuple(timestamp_columns))
    return load_sample_tree(tmp_path, config).samples[0].readings


class TestStripTimestamps:
    """A raw file's timestamp columns are dropped as it is loaded; the
    g-values pass through bit-identical and in file order."""

    def test_explicit_columns(self, tmp_path):
        got = load_raw(tmp_path, ["0.1 99.0 0.2 0.3"] * 4, [1])
        assert got.tolist() == [[0.1, 0.2, 0.3]] * 4

    def test_values_pass_through_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-300, 300, size=(6, 3))
        values[0, 0] = 0.1 + 0.2  # not exactly representable as 0.3
        lines = [f"{i} " + " ".join(map(repr, row)) for i, row in enumerate(values.tolist())]
        assert load_raw(tmp_path, lines, [0]).tobytes() == values.tobytes()

    def test_three_column_rows_need_no_stripping(self, tmp_path):
        got = load_raw(tmp_path, ["1.0 2.0 3.0"] * 4)
        assert got.tolist() == [[1.0, 2.0, 3.0]] * 4

    def test_non_monotone_timestamps_warn_but_keep_order(self, tmp_path):
        lines = ["5.0 1.0 1.0 1.0", "3.0 2.0 2.0 2.0", "6.0 3.0 3.0 3.0",
                 "7.0 4.0 4.0 4.0"]
        path = re.escape(str(tmp_path / "U1" / "1-1.txt"))
        with pytest.warns(UserWarning, match=f"{path}: non-monotone timestamps"):
            got = load_raw(tmp_path, lines, [0])
        assert got[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_empty_input(self, tmp_path):
        with pytest.raises(DataError, match=r"1-1\.txt: empty sample file"):
            load_raw(tmp_path, ["", "  "])

    def test_ragged_rows_rejected(self, tmp_path):
        lines = ["1.0 2.0 3.0 4.0", "1.0 2.0 3.0"] + ["1.0 2.0 3.0 4.0"] * 3
        with pytest.raises(DataError, match=r"1-1\.txt:2: expected 4 columns, got 3"):
            load_raw(tmp_path, lines, [0])

    def test_wrong_residual_width_rejected(self, tmp_path):
        for width, columns in [(2, [0]), (5, [0]), (4, [4]), (3, [0])]:
            lines = [" ".join(["1.0"] * width)] * 4
            want = f"1-1.txt: rows have {width} columns: timestamp_columns {columns}"
            with pytest.raises(DataError, match=re.escape(want)):
                load_raw(tmp_path, lines, columns)


class TestDataset:
    def test_meta_derivation(self):
        samples = [
            sample(user=u, gesture=g, trial=t, day=d)
            for u in (1, 2) for g in (1, 2, 3) for t in (1, 2) for d in (1, 2)
        ]
        ds = Dataset.from_samples(samples)
        assert ds.meta.users == 2
        assert ds.meta.gestures == 3
        assert ds.meta.samples_per_gesture == 2
        assert ds.meta.days == 2
        assert ds.meta.total_samples == 24
        assert ds.meta.summary() == "U=2 N_G=3 S_G=2 N_D=2 N_GS=24"

    def test_dayless_meta(self):
        ds = Dataset.from_samples([sample(gesture=g, trial=t)
                                   for g in (1, 2) for t in (1, 2)])
        assert ds.meta.days is None
        assert "N_D=-" in ds.meta.summary()

    def test_duplicate_identity_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            Dataset.from_samples([sample(), sample()])

    def test_sparse_user_ids_rejected(self):
        with pytest.raises(DataError, match="dense"):
            Dataset.from_samples([sample(user=1), sample(user=3)])

    def test_sparse_gesture_ids_rejected(self):
        with pytest.raises(DataError, match="dense"):
            Dataset.from_samples([sample(gesture=2)])

    def test_partial_day_labels_rejected(self):
        with pytest.raises(DataError, match="day"):
            Dataset.from_samples([sample(trial=1, day=1), sample(trial=2)])

    def test_unbalanced_grid_warns_and_counts(self):
        samples = [sample(gesture=1, trial=t) for t in (1, 2, 3)]
        samples.append(sample(gesture=2, trial=1))
        with pytest.warns(UserWarning, match="unbalanced"):
            ds = Dataset.from_samples(samples)
        assert Counter((s.user, s.gesture) for s in ds.samples) == {(1, 1): 3, (1, 2): 1}

    def test_empty_dataset(self):
        ds = Dataset.from_samples([])
        assert ds.meta.total_samples == 0
        assert ds.samples == ()


class TestManifestRoundTrip:
    def make_dataset(self):
        return Dataset.from_samples([
            sample(user=u, gesture=g, trial=t, n=4 + t)
            for u in (1, 2) for g in (1, 2) for t in (1, 2, 3)
        ])

    def test_save_load_is_bit_identical(self, tmp_path):
        ds = self.make_dataset()
        manifest = save_manifest(ds, tmp_path / "out")
        back = load_manifest(manifest)
        assert back.meta == ds.meta
        for a, b in zip(ds.samples, back.samples):
            assert a.identity == b.identity
            assert np.array_equal(a.readings, b.readings)

    def test_resave_is_byte_identical(self, tmp_path):
        ds = self.make_dataset()
        m1 = save_manifest(ds, tmp_path / "a")
        m2 = save_manifest(load_manifest(m1), tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        for s in load_manifest(m1).samples:
            rel = f"samples/u{s.user:02d}_g{s.gesture:02d}_t{s.trial:03d}.csv"
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes()

    def test_numpy_integer_identities_round_trip(self, tmp_path):
        ids = [(np.int64(u), np.uint8(g), np.int32(t), np.int16(1))
               for u in (1, 2) for g in (1, 2) for t in (1, 2)]
        readings = np.random.default_rng(3).normal(size=(4, 3))
        ds = Dataset.from_samples(
            GestureSample(u, g, t, readings, day=d) for u, g, t, d in ids)
        plain = Dataset.from_samples(
            GestureSample(*map(int, i[:3]), readings, day=int(i[3])) for i in ids)
        manifest = save_manifest(ds, tmp_path / "numpy")
        assert manifest.read_bytes() == save_manifest(plain, tmp_path / "int").read_bytes()
        back = load_manifest(manifest)
        assert [s.identity for s in back.samples] == ids
        assert all(np.array_equal(s.readings, readings) for s in back.samples)

    def test_day_column_round_trip(self, tmp_path):
        ds = Dataset.from_samples([sample(trial=t, day=d)
                                   for t in (1, 2) for d in (1, 2)])
        back = load_manifest(save_manifest(ds, tmp_path))
        assert [s.day for s in back.samples] == [1, 2, 1, 2]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_manifest(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("user,gesture,trial\n")
        with pytest.raises(DataError, match="header"):
            load_manifest(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("user,gesture,trial,day,file\nx,1,1,,f.csv\n")
        with pytest.raises(DataError, match=r"m\.csv:2"):
            load_manifest(p)

    def test_missing_sample_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("user,gesture,trial,day,file\n1,1,1,,gone.csv\n")
        with pytest.raises(DataError, match="not found"):
            load_manifest(p)

    def test_duplicate_identity_names_the_manifest(self, tmp_path):
        (tmp_path / "s.csv").write_text("gx,gy,gz\n" + "1,2,3\n" * 4)
        p = tmp_path / "m.csv"
        p.write_text("user,gesture,trial,day,file\n1,1,1,,s.csv\n1,1,1,,s.csv\n")
        with pytest.raises(DataError) as exc:
            load_manifest(p)
        assert str(exc.value) == (
            f"{p}: duplicate sample identity (user=1, gesture=1, trial=1,"
            " day=None) (while loading manifest)"
        )

    def test_short_sample_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("gx,gy,gz\n1,2,3\n4,5,6\n")
        p = tmp_path / "m.csv"
        p.write_text("user,gesture,trial,day,file\n1,1,1,,s.csv\n")
        with pytest.raises(DataError, match="too short"):
            load_manifest(p)

    def test_malformed_sample_value_reports_file_line(self, tmp_path):
        (tmp_path / "s.csv").write_text(
            "gx,gy,gz\n1,2,3\n1,oops,3\n1,2,3\n1,2,3\n"
        )
        p = tmp_path / "m.csv"
        p.write_text("user,gesture,trial,day,file\n1,1,1,,s.csv\n")
        with pytest.raises(DataError, match=r"s\.csv:3"):
            load_manifest(p)

    @pytest.mark.parametrize("bad,what", [
        ("0.5,1e-3x,2", "malformed g-value"),
        ("0.5,1.0", "expected 3 columns, got 2"),
        ("0.5,1.0,2.0,3.0", "expected 3 columns, got 4"),
        ("0.5,,2", "malformed g-value"),
    ])
    def test_bad_line_deep_in_a_long_file_is_reported(self, tmp_path, bad, what):
        rows = [f"{i * 0.01!r},{-i * 0.5!r},{i / 3!r}" for i in range(1200)]
        rows[600] = bad  # file line 603: header, one blank line, then row 600
        (tmp_path / "s.csv").write_text("gx,gy,gz\n\n" + "\n".join(rows) + "\n")
        p = tmp_path / "m.csv"
        p.write_text("user,gesture,trial,day,file\n1,1,1,,s.csv\n")
        with pytest.raises(DataError, match=rf"s\.csv:603: {what}"):
            load_manifest(p)

    @pytest.mark.parametrize("text", [
        "gx,gy,gz\r\n1.5,2,3\r\n-4,5e-3,6\r\n0,0,1\r\n7,8,9\r\n",
        'gx,gy,gz\n"1.5",2,3\n-4,"5e-3",6\n0,0,1\n7,8,9\n',
        "gx, gy ,gz\n1.5, 2,3 \n\n-4,5e-3,6\n0,0,1\n7,8,9",
    ], ids=["crlf", "quoted", "spaces"])
    def test_csv_forms_parse_as_plain_ones(self, tmp_path, text):
        (tmp_path / "s.csv").write_bytes(text.encode())
        p = tmp_path / "m.csv"
        p.write_text("user,gesture,trial,day,file\n1,1,1,,s.csv\n")
        got = load_manifest(p).samples[0].readings
        want = np.array([[1.5, 2, 3], [-4, 5e-3, 6], [0, 0, 1], [7, 8, 9]])
        assert got.tobytes() == want.tobytes()


def _read_both(path, text):
    """(_read_sample_csv, the csv path) of one file: array bytes or the
    DataError text, with warnings raised as errors."""
    path.write_bytes(text.encode())
    out = []
    for read in (lambda: _read_sample_csv(path), lambda: _parse_sample_rows(path, text)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                a = read()
                out.append((a.shape, a.tobytes()))
            except DataError as exc:
                out.append(str(exc))
    return out


# Tokens that float() and numpy's C reader may read differently: every
# one must give the csv path's array or its DataError.
ODD_TOKENS = ["1_0", "0x10", "nan", "inf", "-inf", "1e400", "#1", "1.0#", '"1"',
              "\u0661", "\xa01.0", " 2.5", "3 ", "\t1", "", "+1", ".5", "5.",
              "1E-3", "Infinity", "1d0", "0.1 0.2"]


class TestSampleCsvFastPath:
    @pytest.mark.parametrize("token", ODD_TOKENS)
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_odd_token_reads_as_the_csv_path(self, tmp_path, token, column):
        row = ["0.25", "-1.5", "2.0"]
        row[column] = token
        text = "gx,gy,gz\n1,2,3\n" + ",".join(row) + "\n4,5,6\n"
        fast, slow = _read_both(tmp_path / "s.csv", text)
        assert fast == slow

    @pytest.mark.parametrize("body", [
        "", "\n", "\n\n", "1,2,3\n\n4,5,6\n", "\n1,2,3\n", "1,2,3\n\n\n",
        "1,2,3", "   \n", "1,2,3\n   \n", "1,2\n", "1,2\n3,4\n", "1,2,3,4\n",
        "1,2,3,4\n5,6,7,8\n", "1,2,3\n4,5\n", "1,2,3\n4,5,6,7\n", "1,2,3\n,,\n",
        "1,2,3,\n", "1;2;3\n", "1 2 3\n",
    ])
    def test_blank_lines_and_field_counts_read_as_the_csv_path(self, tmp_path, body):
        fast, slow = _read_both(tmp_path / "s.csv", "gx,gy,gz\n" + body)
        assert fast == slow

    @pytest.mark.parametrize("token,value", [
        ("1_0", 10.0), ("\u0661", 1.0), ("\xa01.0", 1.0), ('"1"', 1.0),
    ])
    def test_python_float_forms_keep_their_values(self, tmp_path, token, value):
        p = tmp_path / "s.csv"
        p.write_bytes(f"gx,gy,gz\n{token},0,0\n".encode())
        assert _read_sample_csv(p).tolist() == [[value, 0.0, 0.0]]


# The three CSV tables by the name their errors give: loader, header, width.
TABLES = {
    "manifest": (load_manifest, "user,gesture,trial,day,file", 5),
    "sample file": (_read_sample_csv, "gx,gy,gz", 3),
    "feature file": (
        load_features,
        ",".join(["user", "gesture"] + [f"f{i:02d}" for i in range(1, N_FEATURES + 1)]),
        2 + N_FEATURES,
    ),
}


@pytest.mark.parametrize("kind", TABLES)
@pytest.mark.parametrize("case", ["empty", "header", "short row"])
def test_every_table_reports_path_and_line(tmp_path, kind, case):
    load, header, width = TABLES[kind]
    path = tmp_path / "t.csv"
    text, want = {
        "empty": ("", f"{path}: empty {kind}"),
        "header": ("user,gx\n1,2\n", f"{path}:1: bad {kind} header"),
        "short row": (f"{header}\n\n1,2\n", f"{path}:3: expected {width} columns, got 2"),
    }[case]
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(want)):
        load(path)


class TestUwaveAdapter:
    def test_loads_tree(self, make_uwave_tree):
        root = make_uwave_tree(users=2, days=2, gestures=3, trials=2)
        ds = load_sample_tree(root, UWAVE_ADAPTER)
        assert ds.meta.summary() == "U=2 N_G=3 S_G=2 N_D=2 N_GS=24"
        assert all(s.day in (1, 2) for s in ds.samples)

    def test_ordering_is_deterministic(self, make_uwave_tree):
        root = make_uwave_tree()
        a = load_sample_tree(root, UWAVE_ADAPTER)
        b = load_sample_tree(root, UWAVE_ADAPTER)
        assert [s.identity for s in a.samples] == [s.identity for s in b.samples]
        ids = [(s.user, s.day, s.gesture, s.trial) for s in a.samples]
        assert ids == sorted(ids)

    def test_unmatched_txt_file_rejected(self, make_uwave_tree):
        root = make_uwave_tree()
        (root / "U1" / "stray.txt").write_text("1 2 3\n")
        with pytest.raises(DataError, match="does not match"):
            load_sample_tree(root, UWAVE_ADAPTER)

    def test_non_sample_files_ignored(self, make_uwave_tree):
        root = make_uwave_tree()
        (root / "README.md").write_text("notes\n")
        load_sample_tree(root, UWAVE_ADAPTER)  # no error

    def test_empty_tree_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="no sample files"):
            load_sample_tree(tmp_path / "empty", UWAVE_ADAPTER)

    def test_malformed_row_reports_file_and_line(self, make_uwave_tree):
        root = make_uwave_tree()
        victim = root / "U1" / "1" / "1-1.txt"
        lines = victim.read_text().splitlines()
        lines[4] = "1.0 bad 3.0"
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"1-1\.txt:5"):
            load_sample_tree(root, UWAVE_ADAPTER)


class TestSonyAdapter:
    def test_loads_tree_and_strips_timestamps(self, make_sony_tree):
        root = make_sony_tree(users=2, gestures=2, trials=2, n=10)
        ds = load_sample_tree(root, SONY_ADAPTER)
        assert ds.meta.summary() == "U=2 N_G=2 S_G=2 N_D=- N_GS=8"
        assert all(s.day is None for s in ds.samples)
        assert all(s.n == 10 for s in ds.samples)
        # g-values must be in plausible range, not timestamp magnitudes
        assert max(float(np.max(np.abs(s.readings))) for s in ds.samples) < 50

    def test_ragged_row_reports_file_and_line(self, make_sony_tree):
        root = make_sony_tree(users=1, gestures=1, trials=1, n=6)
        victim = root / "U1" / "1-1.txt"
        lines = victim.read_text().splitlines()
        lines[3] = " ".join(lines[3].split()[:5])
        # Two blank lines first: the fourth data row is file line 6.
        victim.write_text("\n\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"1-1\.txt:6: expected 6 columns, got 5"):
            load_sample_tree(root, SONY_ADAPTER)

    def test_g_values_bit_identical_to_source(self, make_sony_tree):
        root = make_sony_tree(users=1, gestures=1, trials=1, n=5)
        raw = (root / "U1" / "1-1.txt").read_text().splitlines()
        want = [tuple(float(v) for v in line.split()[3:]) for line in raw]
        ds = load_sample_tree(root, SONY_ADAPTER)
        got = [tuple(r) for r in ds.samples[0].readings.tolist()]
        assert got == want


class TestAdapterConfig:
    def test_pattern_must_name_captures(self):
        with pytest.raises(ValueError, match="captures"):
            AdapterConfig(path_pattern=r"(?P<user>\d+)\.txt")

    def test_invalid_regex_raises_value_error(self):
        with pytest.raises(ValueError, match="path_pattern is not a valid regex"):
            AdapterConfig(path_pattern=r"(?P<user>\d+")

    def test_load_from_json(self, tmp_path):
        p = tmp_path / "adapter.json"
        p.write_text(json.dumps({
            "path_pattern": r"(?P<user>\d+)/(?P<gesture>\d+)-(?P<trial>\d+)\.dat",
            "timestamp_columns": [0],
            "sample_suffix": ".dat",
        }))
        cfg = load_adapter_config(p)
        assert cfg.timestamp_columns == (0,)
        assert cfg.sample_suffix == ".dat"

    def test_custom_config_drives_tree_loading(self, tmp_path):
        cfg = AdapterConfig(
            path_pattern=r"(?P<user>\d+)/(?P<gesture>\d+)-(?P<trial>\d+)\.dat",
            timestamp_columns=(0,),
            sample_suffix=".dat",
        )
        d = tmp_path / "tree" / "1"
        d.mkdir(parents=True)
        rows = "\n".join(f"{i} 0.1 0.2 0.3" for i in range(6))
        (d / "1-1.dat").write_text(rows + "\n")
        ds = load_sample_tree(tmp_path / "tree", cfg)
        assert ds.samples[0].n == 6
        assert ds.samples[0].readings[0].tolist() == [0.1, 0.2, 0.3]

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "adapter.json"
        p.write_text(json.dumps({"path_pattern": "x", "bogus": 1}))
        with pytest.raises(DataError, match="unknown"):
            load_adapter_config(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "adapter.json"
        p.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_adapter_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="adapter config not found"):
            load_adapter_config(tmp_path / "absent.json")

    def test_object_without_path_pattern_rejected(self, tmp_path):
        p = tmp_path / "adapter.json"
        p.write_text(json.dumps({"timestamp_columns": [0]}))
        with pytest.raises(DataError, match="must set path_pattern"):
            load_adapter_config(p)

    def test_missing_tree_root_rejected(self, tmp_path):
        with pytest.raises(DataError, match="sample tree root not found"):
            load_sample_tree(tmp_path / "absent", UWAVE_ADAPTER)

    def test_unmatched_optional_day_gives_no_day(self, tmp_path):
        cfg = AdapterConfig(
            path_pattern=(r"U(?P<user>\d+)/(?:D(?P<day>\d+)/)?"
                          r"(?P<gesture>\d+)-(?P<trial>\d+)\.txt"),
        )
        rows = "\n".join(f"0.{i} 0.2 0.3" for i in range(6))
        for user in (1, 2):
            d = tmp_path / "tree" / f"U{user}"
            d.mkdir(parents=True)
            (d / "1-1.txt").write_text(rows + "\n")
        ds = load_sample_tree(tmp_path / "tree", cfg)
        assert [(s.user, s.day) for s in ds.samples] == [(1, None), (2, None)]
        assert ds.meta.days is None

    def test_builtin_patterns_compile(self):
        assert UWAVE_ADAPTER.timestamp_columns == ()
        assert SONY_ADAPTER.timestamp_columns == (0, 1, 2)


class TestBalanceObservation:
    def test_loader_observes_rather_than_assumes_balance(self, make_uwave_tree):
        root = make_uwave_tree(users=2, days=1, gestures=2, trials=2)
        (root / "U2" / "1" / "2-2.txt").unlink()
        with pytest.warns(UserWarning, match="unbalanced"):
            ds = load_sample_tree(root, UWAVE_ADAPTER)
        counts = Counter((s.user, s.gesture) for s in ds.samples)
        assert counts[(2, 2)] == 1
        assert counts[(1, 1)] == 2
