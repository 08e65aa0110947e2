"""Command-line interface: pipelines, artifacts, exit-code discipline."""

import csv
import inspect
import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from gestrec import (
    ClassifierSpec,
    FeatureMatrix,
    RidgeClassifier,
    evaluate,
    load_features,
    load_model,
    plan_mixed,
    plan_user_dependent,
    plan_user_independent,
    save_features,
)
from gestrec.classifiers import CLASSIFIER_KINDS
from gestrec.cli import HYPER_FLAGS, MODES, build_parser, main
from gestrec.features import FEATURE_ORDER_VERSION, N_FEATURES

SYNTH_FLAGS = [
    "--users", "3", "--gestures", "4", "--samples", "6",
    "--length-min", "24", "--length-max", "48",
    "--speed-jitter", "0.15", "--noise-sigma", "0.1", "--style-offset", "0.3",
    "--seed", "11",
]

FAST_HYPER = ["--n-trees", "20", "--n-stages", "15"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic corpus + feature CSV shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    feats = root / "features.csv"
    assert main(["synth", "--out", str(data)] + SYNTH_FLAGS) == 0
    assert main(["features", str(data / "manifest.csv"), "--out", str(feats)]) == 0
    return root


class TestSynthAndIngest:
    def test_synth_writes_manifest_and_run_record(self, workspace, capsys):
        assert (workspace / "data" / "manifest.csv").is_file()
        run = json.loads((workspace / "data" / "run.json").read_text())
        assert run["tool"] == "gestrec"
        assert run["command"] == "synth"
        assert run["params"]["seed"] == 11

    def test_synth_preset_easy(self, tmp_path, capsys):
        out = tmp_path / "easy"
        assert main(["synth", "--out", str(out), "--preset", "easy"]) == 0
        assert "U=8 N_G=8 S_G=10 N_D=- N_GS=640" in capsys.readouterr().out
        # Without --seed the preset keeps its own seed.
        assert json.loads((out / "run.json").read_text())["params"]["seed"] == 7

    def test_synth_preset_easy_takes_a_seed(self, tmp_path, capsys):
        out = tmp_path / "easy"
        assert main(["synth", "--out", str(out), "--preset", "easy",
                     "--seed", "3"]) == 0
        assert "U=8 N_G=8 S_G=10 N_D=- N_GS=640" in capsys.readouterr().out
        assert json.loads((out / "run.json").read_text())["params"]["seed"] == 3

    def test_canonical_ingest_is_idempotent(self, workspace, tmp_path):
        src = workspace / "data"
        dst = tmp_path / "round2"
        assert main(["ingest", "canonical", str(src / "manifest.csv"),
                     "--out", str(dst)]) == 0
        assert (src / "manifest.csv").read_bytes() == (dst / "manifest.csv").read_bytes()
        for sample in sorted((src / "samples").iterdir()):
            again = dst / "samples" / sample.name
            assert again.read_bytes() == sample.read_bytes()

    def test_uwave_tree_ingest(self, make_uwave_tree, tmp_path, capsys):
        root = make_uwave_tree(users=2, days=2, gestures=2, trials=2)
        out = tmp_path / "uwave-canonical"
        assert main(["ingest", "uwave", str(root), "--out", str(out)]) == 0
        # S_G counts trials per (user, gesture, day) cell.
        assert "U=2 N_G=2 S_G=2 N_D=2 N_GS=16" in capsys.readouterr().out
        assert (out / "manifest.csv").is_file()

    def test_sony_tree_ingest(self, make_sony_tree, tmp_path, capsys):
        root = make_sony_tree(users=2, gestures=2, trials=3)
        out = tmp_path / "sony-canonical"
        assert main(["ingest", "sony", str(root), "--out", str(out)]) == 0
        assert "U=2 N_G=2 S_G=3 N_D=- N_GS=12" in capsys.readouterr().out

    def test_features_row_count(self, workspace, capsys):
        out = capsys.readouterr()  # drain fixture output
        feats = (workspace / "features.csv").read_text().splitlines()
        assert feats[0].startswith("user,gesture,f01")
        assert len(feats) == 1 + 3 * 4 * 6


class TestEval:
    def test_header_fields_may_carry_spaces(self, workspace, tmp_path):
        # eval tells the two inputs apart by the header rule of their loaders.
        lines = (workspace / "features.csv").read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(lines[0].replace(",", ", ") + "".join(lines[1:]))
        for name, path in (("plain", workspace / "features.csv"), ("spaced", spaced)):
            assert main(["eval", str(path), "--out", str(tmp_path / name), "--mode",
                         "mixed", "--classifier", "rc", "--seed", "3"]) == 0
        for name in ("confusion.csv", "per_user.csv"):
            assert ((tmp_path / "spaced" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    def test_mixed_mode_artifacts(self, workspace, tmp_path):
        out = tmp_path / "mixed"
        assert main(["eval", str(workspace / "features.csv"), "--out", str(out),
                     "--mode", "mixed", "--classifier", "rc", "--seed", "3"]) == 0
        for name in ("report.txt", "report.json", "confusion.csv",
                     "per_user.csv", "run.json"):
            assert (out / name).is_file(), name
        doc = json.loads((out / "report.json").read_text())
        assert doc["mode"] == "mixed"
        assert doc["classifier"] == "rc"
        assert doc["ratio"] == 0.75
        assert 0.0 <= doc["average_accuracy"] <= 100.0
        assert doc["reports"][0]["n_train"] == 54
        assert doc["reports"][0]["n_test"] == 18
        confusion = (out / "confusion.csv").read_text().splitlines()
        assert confusion[0] == "true\\pred,1,2,3,4"
        assert len(confusion) == 5

    def test_user_dependent_all_users(self, workspace, tmp_path):
        out = tmp_path / "ud"
        assert main(["eval", str(workspace / "features.csv"), "--out", str(out),
                     "--mode", "user-dependent", "--classifier", "rc"]) == 0
        rows = (out / "per_user.csv").read_text().splitlines()
        assert rows[0] == "user,accuracy"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3", "avg"]

    def test_user_dependent_single_user(self, workspace, tmp_path):
        out = tmp_path / "ud1"
        assert main(["eval", str(workspace / "features.csv"), "--out", str(out),
                     "--mode", "user-dependent", "--user", "2",
                     "--classifier", "rc"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["reports"]) == 1
        assert doc["reports"][0]["scope"] == "user 2"

    def test_report_txt_flags_zero_support_rows(self, workspace, tmp_path):
        # User 2 never recorded gesture 3, so its confusion row has no
        # test rows; user 1 recorded every gesture.
        m = load_features(workspace / "features.csv")
        keep = ~((m.users == 2) & (m.gestures == 3))
        sparse = tmp_path / "sparse.csv"
        save_features(FeatureMatrix(m.X[keep], m.users[keep], m.gestures[keep]),
                      sparse)
        texts = {}
        for user in (1, 2):
            out = tmp_path / f"ud{user}"
            assert main(["eval", str(sparse), "--out", str(out),
                         "--mode", "user-dependent", "--user", str(user),
                         "--classifier", "rc"]) == 0
            texts[user] = (out / "report.txt").read_text()
        assert "zero-support rows: [3]" in texts[2].splitlines()
        assert "zero-support" not in texts[1]

    def test_user_independent_writes_crossval(self, workspace, tmp_path):
        out = tmp_path / "ui"
        assert main(["eval", str(workspace / "features.csv"), "--out", str(out),
                     "--mode", "user-independent", "--classifier", "rc"]) == 0
        rows = (out / "crossval.csv").read_text().splitlines()
        assert rows[0] == "user,accuracy"
        assert len(rows) == 4  # one fold per user
        doc = json.loads((out / "report.json").read_text())
        assert doc["ratio"] is None
        assert [d["scope"] for d in doc["reports"]] == ["fold u1", "fold u2", "fold u3"]
        run = json.loads((out / "run.json").read_text())
        assert run["params"]["ratio"] is None

    def test_manifest_input_is_accepted(self, workspace, tmp_path):
        out = tmp_path / "from-manifest"
        assert main(["eval", str(workspace / "data" / "manifest.csv"),
                     "--out", str(out), "--mode", "mixed",
                     "--classifier", "rc"]) == 0
        assert (out / "report.json").is_file()

    def test_all_grid(self, workspace, tmp_path):
        out = tmp_path / "grid"
        assert main(["eval", str(workspace / "features.csv"), "--out", str(out),
                     "--all", "--seed", "1"] + FAST_HYPER) == 0
        rows = (out / "grid.csv").read_text().splitlines()
        assert rows[0] == "mode,classifier,accuracy,mean_classify_time_s"
        assert len(rows) == 10  # 3 modes x 3 classifiers
        cells = {tuple(r.split(",")[:2]) for r in rows[1:]}
        assert cells == {
            (m, k)
            for m in ("user-dependent", "mixed", "user-independent")
            for k in ("et", "gb", "rc")
        }
        assert (out / "mixed-et" / "report.json").is_file()
        assert (out / "user-independent-rc" / "crossval.csv").is_file()
        # Two of the grid's three modes split by the ratio.
        assert json.loads((out / "run.json").read_text())["params"]["ratio"] == 0.75

    def test_accuracy_deterministic_across_runs(self, workspace, tmp_path):
        docs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["eval", str(workspace / "features.csv"), "--out", str(out),
                         "--mode", "mixed", "--classifier", "et", "--seed", "9",
                         "--n-trees", "15"]) == 0
            docs.append(json.loads((out / "report.json").read_text()))
        assert docs[0]["average_accuracy"] == docs[1]["average_accuracy"]
        assert (docs[0]["reports"][0]["confusion"]
                == docs[1]["reports"][0]["confusion"])


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestEvalMatchesLibrary:
    """The files eval writes carry the numbers the library computes on
    the same plans."""

    def test_user_dependent_per_user_table(self, workspace, tmp_path):
        matrix = load_features(workspace / "features.csv")
        spec = ClassifierSpec("rc", {}, seed=0)
        results = evaluate(
            matrix, [plan_user_dependent(matrix, u, seed=0) for u in (1, 2, 3)],
            spec, timing=False)
        out = tmp_path / "ud"
        assert main(["eval", str(workspace / "features.csv"), "--out", str(out),
                     "--mode", "user-dependent", "--classifier", "rc"]) == 0
        assert _csv_rows(out / "per_user.csv") == (
            [["user", "accuracy"]]
            + [[str(u), f"{acc:.2f}"] for u, acc in results.per_user]
            + [["avg", f"{results.average_accuracy:.2f}"]]
        )
        doc = json.loads((out / "report.json").read_text())
        assert doc["average_accuracy"] == results.average_accuracy

    def test_user_independent_folds(self, workspace, tmp_path):
        matrix = load_features(workspace / "features.csv")
        results = evaluate(matrix, plan_user_independent(matrix, seed=0),
                           ClassifierSpec("rc", {}, seed=0), timing=False)
        out = tmp_path / "ui"
        assert main(["eval", str(workspace / "features.csv"), "--out", str(out),
                     "--mode", "user-independent", "--classifier", "rc"]) == 0
        assert _csv_rows(out / "crossval.csv") == [["user", "accuracy"]] + [
            [str(u), f"{acc:.2f}"] for u, acc in results.per_user
        ]
        doc = json.loads((out / "report.json").read_text())
        assert doc["average_accuracy"] == results.average_accuracy

    def test_mixed_confusion(self, workspace, tmp_path):
        matrix = load_features(workspace / "features.csv")
        report = evaluate(matrix, plan_mixed(matrix, seed=0),
                          ClassifierSpec("gb", {"n_stages": 15}, seed=0),
                          timing=False)
        out = tmp_path / "mixed"
        assert main(["eval", str(workspace / "features.csv"), "--out", str(out),
                     "--mode", "mixed", "--classifier", "gb",
                     "--n-stages", "15"]) == 0
        confusion = report.confusion
        assert _csv_rows(out / "confusion.csv") == (
            [["true\\pred"] + [str(c) for c in confusion.classes]]
            + [[str(c)] + [f"{v:.2f}" for v in row]
               for c, row in zip(confusion.classes, confusion.percents)]
        )

    def test_feature_csv_without_a_user(self, workspace, tmp_path):
        matrix = load_features(workspace / "features.csv")
        keep = matrix.users != 2
        feats = tmp_path / "no-user-2.csv"
        save_features(FeatureMatrix(X=matrix.X[keep], users=matrix.users[keep],
                                    gestures=matrix.gestures[keep]), feats)
        for mode in MODES:
            out = tmp_path / mode
            assert main(["eval", str(feats), "--out", str(out), "--mode", mode,
                         "--classifier", "rc"]) == 0, mode
        rows = _csv_rows(tmp_path / "user-dependent" / "per_user.csv")
        assert [r[0] for r in rows] == ["user", "1", "3", "avg"]


class TestSaveModelAndBench:
    def test_saved_model_reloads_as_a_fresh_fit(self, workspace, tmp_path):
        matrix = load_features(workspace / "features.csv")
        plan = plan_mixed(matrix, ratio=0.75, seed=0)
        for kind in ("rc", "et", "gb"):
            path = tmp_path / f"{kind}.json"
            assert main(["eval", str(workspace / "features.csv"),
                         "--out", str(tmp_path / f"eval-{kind}"),
                         "--mode", "mixed", "--classifier", kind,
                         "--save-model", str(path)]) == 0
            fresh = ClassifierSpec(kind, {}, seed=0).build().fit(
                matrix.X[plan.train_indices], matrix.gestures[plan.train_indices])
            saved = load_model(path, expect_feature_version=FEATURE_ORDER_VERSION)
            assert np.array_equal(saved.predict(matrix.X), fresh.predict(matrix.X))

    def test_save_model_fits_once(self, workspace, tmp_path, monkeypatch):
        fits = []
        fit = RidgeClassifier.fit

        def counting_fit(self, X, y):
            fits.append(len(y))
            return fit(self, X, y)

        monkeypatch.setattr(RidgeClassifier, "fit", counting_fit)
        path = tmp_path / "rc.json"
        assert main(["eval", str(workspace / "features.csv"),
                     "--out", str(tmp_path / "eval"), "--mode", "mixed",
                     "--classifier", "rc", "--save-model", str(path)]) == 0
        assert fits == [54]  # the scored model is the saved one
        assert path.is_file()

    def test_saved_user_dependent_model(self, workspace, tmp_path):
        path = tmp_path / "u1.json"
        assert main(["eval", str(workspace / "features.csv"),
                     "--out", str(tmp_path / "ud"), "--mode", "user-dependent",
                     "--user", "1", "--classifier", "rc",
                     "--save-model", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "ridge"


class TestExitCodes:
    def test_usage_errors_exit_2(self, workspace, tmp_path):
        feats = str(workspace / "features.csv")
        out = str(tmp_path / "x")
        cases = [
            ["eval", feats, "--out", out],  # neither --mode nor --all
            ["eval", feats, "--out", out, "--mode", "mixed", "--all"],
            ["eval", feats, "--out", out, "--mode", "user-independent",
             "--ratio", "0.5"],
            ["eval", feats, "--out", out, "--mode", "user-independent",
             "--save-model", str(tmp_path / "m.json")],
            ["eval", feats, "--out", out, "--mode", "user-dependent",
             "--save-model", str(tmp_path / "m.json")],  # missing --user
            ["eval", feats, "--out", out, "--all",
             "--save-model", str(tmp_path / "m.json")],
            ["eval", feats, "--out", out, "--all", "--user", "1"],
            ["eval", feats, "--out", out, "--mode", "mixed", "--user", "2"],
            # values that a plan or a classifier constructor refuses
            ["eval", feats, "--out", out, "--mode", "user-dependent",
             "--user", "99"],
            ["eval", feats, "--out", out, "--mode", "mixed", "--ratio", "1.5"],
            ["eval", feats, "--out", out, "--mode", "mixed",
             "--classifier", "et", "--n-trees", "0"],
            ["eval", feats, "--out", out, "--all", "--alpha", "-1"],
            # no plan of this mode draws from the seed, but the fit does
            ["eval", feats, "--out", out, "--mode", "user-independent",
             "--classifier", "et", "--seed", "-1"],
            ["ingest", "canonical", str(workspace / "data" / "manifest.csv"),
             "--out", out, "--adapter-config", str(tmp_path / "c.json")],
            ["synth", "--out", out, "--length-min", "4"],
        ] + [
            # --preset fixes every flag that shapes the corpus.
            ["synth", "--out", out, "--preset", "easy", flag, "5"]
            for flag in ("--users", "--gestures", "--samples", "--length-min",
                         "--length-max", "--speed-jitter", "--noise-sigma",
                         "--style-offset")
        ]
        for argv in cases:
            assert main(argv) == 2, argv
        # Every case is refused before any output, cell directories included.
        assert not (tmp_path / "x").exists()

    def test_argparse_errors_exit_2(self, tmp_path, capsys):
        assert main(["eval"]) == 2  # missing required arguments
        assert main(["frobnicate"]) == 2
        assert main(["bench", "m.json", "--features", "f.csv"]) == 2
        out = tmp_path / "f.csv"
        assert main(["features", str(tmp_path / "manifest.csv"), "--out",
                     str(out), "--jobs", "2"]) == 2
        assert not out.exists()
        capsys.readouterr()

    def test_data_errors_exit_3(self, workspace, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert main(["features", missing, "--out", str(tmp_path / "f.csv")]) == 3
        assert main(["eval", missing, "--out", str(tmp_path / "e"),
                     "--mode", "mixed"]) == 3

        corrupt = tmp_path / "corrupt.csv"
        corrupt.write_text("user,gesture,f01\n1,1,not-a-number\n")
        assert main(["eval", str(corrupt), "--out", str(tmp_path / "e2"),
                     "--mode", "mixed"]) == 3

    @pytest.mark.parametrize("site", ["eval-input", "feature-csv", "manifest",
                                      "sample-csv", "raw-tree", "adapter-config"])
    def test_bytes_that_are_not_utf8_exit_3(self, site, workspace, make_uwave_tree,
                                            tmp_path, capsys):
        # Each file the CLI reads, with byte 0xff at the end of one line.
        def spoil(path, line):
            lines = path.read_bytes().split(b"\n")
            lines[line - 1] += b"\xff"
            path.write_bytes(b"\n".join(lines))
            return path, line

        out = str(tmp_path / "out")
        if site == "eval-input":
            bad = tmp_path / "blob.bin"
            bad.write_bytes(b"\xff\xd8\xff\xe0\x00\x10JFIF\n" + bytes(range(256)))
            where = bad, 1
            argv = ["eval", str(bad), "--out", out, "--mode", "mixed"]
        elif site == "feature-csv":
            feats = tmp_path / "features.csv"
            feats.write_bytes((workspace / "features.csv").read_bytes())
            where = spoil(feats, 3)
            argv = ["eval", str(feats), "--out", out, "--mode", "mixed"]
        elif site in ("manifest", "sample-csv"):
            data = tmp_path / "data"
            shutil.copytree(workspace / "data", data)
            manifest = data / "manifest.csv"
            if site == "manifest":
                where = spoil(manifest, 3)
            else:
                where = spoil(data / _csv_rows(manifest)[1][4], 5)
            argv = ["features", str(manifest), "--out", str(tmp_path / "f.csv")]
        else:
            root = make_uwave_tree(users=2, days=1, gestures=2, trials=2)
            if site == "raw-tree":
                where = spoil(root / "U1" / "1" / "2-1.txt", 4)
                argv = ["ingest", "uwave", str(root), "--out", out]
            else:
                config = tmp_path / "c.json"
                config.write_bytes(b'{"path_pattern": "\xff"}\n')
                where = config, 1
                argv = ["ingest", "uwave", str(root), "--out", out,
                        "--adapter-config", str(config)]
        capsys.readouterr()
        assert main(argv) == 3
        path, line = where
        assert f"{path}:{line}: not UTF-8 text (byte 0xff)" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"path_pattern": 7},
        {"timestamp_columns": 5},
        {"timestamp_columns": ["a"]},
        {"timestamp_columns": [-1]},
        {"timestamp_columns": [0, 0]},
        {"sample_suffix": 3},
        {"delimiter": ""},
        5,
    ], ids=repr)
    def test_bad_adapter_config_exits_3(self, config, make_sony_tree, tmp_path,
                                        capsys):
        # Each value is blamed on the config file, before any sample is read.
        root = make_sony_tree(users=1, gestures=1, trials=1)
        if isinstance(config, dict):
            pattern = r"U(?P<user>\d+)/(?P<gesture>\d+)-(?P<trial>\d+)\.txt"
            config = {"path_pattern": pattern, **config}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["ingest", "sony", str(root), "--out", str(tmp_path / "out"),
                     "--adapter-config", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"gestrec: {path}: ")

    def test_non_integer_capture_exits_3(self, make_uwave_tree, tmp_path, capsys):
        root = make_uwave_tree(users=1, days=1, gestures=1, trials=1)
        (root / "U1").rename(root / "Ua")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"path_pattern":
            r"U(?P<user>\w+)/(?P<day>\d+)/(?P<gesture>\d+)-(?P<trial>\d+)\.txt"}))
        capsys.readouterr()
        assert main(["ingest", "uwave", str(root), "--out", str(tmp_path / "out"),
                     "--adapter-config", str(config)]) == 3
        sample = root / "Ua" / "1" / "1-1.txt"
        assert capsys.readouterr().err == (
            f"gestrec: {sample}: capture user='a' is not an integer\n")

    def test_output_path_that_is_a_file_exits_3(self, make_uwave_tree, tmp_path,
                                                  capsys):
        root = make_uwave_tree(users=1, days=1, gestures=1, trials=1)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        for argv in (["synth", "--preset", "easy"], ["ingest", "uwave", str(root)]):
            capsys.readouterr()
            assert main(argv + ["--out", str(out)]) == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("gestrec: [Errno ") and str(out) in err, err
        assert out.read_text() == "not a directory\n"

    def test_numeric_errors_exit_4(self, tmp_path):
        # Rank-deficient features with an unregularized ridge: only the
        # label column and the bias vary, so the normal system is
        # singular at alpha = 0.
        users = np.ones(20, dtype=np.int64)
        gestures = np.repeat([1, 2], 10)
        X = np.zeros((20, N_FEATURES))
        X[:, 0] = gestures
        matrix = FeatureMatrix(X=X, users=users, gestures=gestures)
        feats = tmp_path / "degenerate.csv"
        save_features(matrix, feats)
        assert main(["eval", str(feats), "--out", str(tmp_path / "e"),
                     "--mode", "mixed", "--classifier", "rc",
                     "--alpha", "0"]) == 4


def test_hyper_flags_match_classifier_parameters():
    """Every constructor parameter but ``seed`` has an eval flag of its
    default's type, and every flag names such a parameter."""
    assert list(HYPER_FLAGS) == list(CLASSIFIER_KINDS)
    for kind, cls in CLASSIFIER_KINDS.items():
        params = {name: p for name, p in inspect.signature(cls).parameters.items()
                  if name != "seed"}
        assert list(HYPER_FLAGS[kind]) == list(params), kind
        for name, type_ in HYPER_FLAGS[kind].items():
            assert type(params[name].default) is type_, (kind, name)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse():
    """Every ``gestrec`` line of the README's sh blocks names a real
    command and real flags. The commands are parsed, not run."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                            re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gestrec"]:
                commands.append(words[1:])
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: gestrec {shlex.join(argv)}")
