"""Command-line pipeline runner.

Commands: ``ingest`` (raw tree or canonical manifest -> canonical
manifest), ``features`` (manifest -> feature CSV), ``eval`` (features or
manifest -> evaluation reports), ``synth`` (spec flags -> synthetic
canonical dataset).

``eval`` runs each mode as a list of split plans (one per user, one
pooled split, or one leave-one-user-out fold per user); every plan is
fitted and scored once, and ``--save-model`` saves the model that was
scored. Flags are checked, plans built and classifiers configured
before anything is written. An input that no plan of a mode can split
(one user, or a gesture with one recording in a scope) is a data error.

Every run writes a ``run.json`` provenance record with the fully
resolved configuration next to its outputs; ``eval`` writes it after
its reports, so a failed evaluation leaves none. Exit codes: 0 success,
2 usage errors, 3 data/file errors (an output path that cannot be
written, such as ``--out`` naming an existing file, included),
4 numeric errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import CLASSIFIER_KINDS, save_model
from .classifiers._rows import hyperparameters
from .data import (
    MANIFEST_HEADER,
    SONY_ADAPTER,
    UWAVE_ADAPTER,
    load_adapter_config,
    load_manifest,
    load_sample_tree,
    save_manifest,
    utf8_text,
)
from .errors import (
    DataError,
    GestureRecError,
    NumericError,
    SingularSystemError,
)
from .evaluation import (
    USER_DEPENDENT,
    USER_INDEPENDENT,
    ClassifierSpec,
    EvaluationReport,
    FoldResults,
    SplitPlan,
    fit_plan,
    plan_mixed,
    plan_user_dependent,
    plan_user_independent,
    score,
)
from .features import (
    FEATURE_HEADER,
    FeatureMatrix,
    extract_all,
    load_features,
    save_features,
)
from .synth import EASY_SPEC, SynthSpec, generate

__all__ = ["main"]

MODES = ("user-dependent", "mixed", "user-independent")
# ingest's raw-tree adapters; "canonical" reads a manifest instead
ADAPTERS = {"uwave": UWAVE_ADAPTER, "sony": SONY_ADAPTER}
# report.txt/report.json scope of a report that tests one user
SCOPES = {USER_DEPENDENT: "user {}", USER_INDEPENDENT: "fold u{}"}
# eval's hyperparameter flags, one per constructor parameter but the seed
# (--seed): --n-trees sets n_trees, and so on
HYPER_FLAGS = {
    kind: {name: t for name, t in hyperparameters(cls).items() if name != "seed"}
    for kind, cls in CLASSIFIER_KINDS.items()
}

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def _write_run(out_dir: Path, command: str, params: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"tool": "gestrec", "version": __version__, "command": command,
              "params": params}
    with open(out_dir / "run.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_matrix(path: Path) -> FeatureMatrix:
    """Accept either a feature CSV or a manifest CSV, told apart by their
    headers (each field stripped, as the table reader compares them). An
    input with no rows is a DataError: there is nothing to evaluate."""
    if not path.is_file():
        raise DataError("input file not found", path=path)
    with open(path, "rb") as fh:
        header = [h.strip() for h in utf8_text(fh.readline(), path).split(",")]
    if header == FEATURE_HEADER:
        matrix = load_features(path)
    elif header == MANIFEST_HEADER:
        matrix = extract_all(load_manifest(path))
    else:
        raise DataError(
            "input is neither a feature CSV nor a manifest CSV", path=path, line=1
        )
    if matrix.n == 0:
        raise DataError("input has no rows", path=path)
    return matrix


# ---------------------------------------------------------------- ingest

def cmd_ingest(args) -> int:
    out = Path(args.out)
    if args.adapter == "canonical" and args.adapter_config:
        raise UsageError("--adapter-config only applies to raw-tree adapters")
    if args.adapter == "canonical":
        dataset = load_manifest(args.input)
    else:
        config = (load_adapter_config(args.adapter_config) if args.adapter_config
                  else ADAPTERS[args.adapter])
        dataset = load_sample_tree(args.input, config)
    manifest = save_manifest(dataset, out)
    _write_run(out, "ingest", {
        "adapter": args.adapter,
        "input": str(args.input),
        "out": str(out),
        "adapter_config": str(args.adapter_config) if args.adapter_config else None,
    })
    print(dataset.meta.summary())
    print(f"wrote {manifest}")
    return EXIT_OK


# -------------------------------------------------------------- features

def cmd_features(args) -> int:
    out = Path(args.out)
    dataset = load_manifest(args.manifest)
    matrix = extract_all(dataset)
    save_features(matrix, out)
    _write_run(out.parent, "features", {
        "manifest": str(args.manifest),
        "out": str(out),
    })
    print(f"wrote {matrix.n} feature rows to {out}")
    return EXIT_OK


# ------------------------------------------------------------------ eval

def _percent(x: float) -> str:
    return f"{x:.2f}"


def _write_confusion_csv(path: Path, confusion) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true\\pred"] + [str(c) for c in confusion.classes])
        for c, row in zip(confusion.classes, confusion.percents):
            writer.writerow([str(c)] + [_percent(v) for v in row])


def _write_per_user_csv(path: Path, rows, average: float | None) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", "accuracy"])
        for user, acc in rows:
            writer.writerow([user, _percent(acc)])
        if average is not None:
            writer.writerow(["avg", _percent(average)])


def _report_to_dict(rep: EvaluationReport) -> dict:
    d = {
        "mode": rep.mode,
        "classifier": rep.spec.kind,
        "hyperparams": rep.spec.hyperparams,
        "seed": rep.spec.seed,
        "accuracy": rep.accuracy,
        "n_train": rep.n_train,
        "n_test": rep.n_test,
        "mean_classify_time_s": rep.mean_classify_time_s,
        "per_user_accuracy": {str(k): v for k, v in rep.per_user_accuracy.items()},
        "confusion": {
            "classes": [int(c) for c in rep.confusion.classes],
            "counts": rep.confusion.counts.tolist(),
            "percents": rep.confusion.percents.tolist(),
            "zero_support": [int(c) for c in rep.confusion.zero_support],
        },
    }
    if rep.mode in SCOPES:  # the report tests one user
        d["scope"] = SCOPES[rep.mode].format(*rep.per_user_accuracy)
    return d


def _format_report_txt(title: str, rep_dicts: list[dict],
                       results: FoldResults) -> str:
    lines = [title, "=" * len(title), ""]
    lines.append(f"{'scope':>12}  {'n_train':>7}  {'n_test':>6}  {'accuracy':>8}  "
                 f"{'time_s':>10}")
    for d in rep_dicts:
        scope = d.get("scope", d["mode"])
        lines.append(
            f"{scope:>12}  {d['n_train']:>7}  {d['n_test']:>6}  "
            f"{_percent(d['accuracy']):>8}  {d['mean_classify_time_s']:>10.3e}"
        )
    lines.append("")
    lines.append(f"average accuracy: {_percent(results.average_accuracy)}")
    lines.append("mean single-sample classify time: "
                 f"{results.mean_classify_time_s:.3e} s")
    lines.append("")
    lines.append("confusion (row = true, percent):")
    confusion = results.confusion
    head = "      " + "".join(f"{str(c):>8}" for c in confusion.classes)
    lines.append(head)
    for c, row in zip(confusion.classes, confusion.percents):
        lines.append(f"{str(c):>6}" + "".join(f"{_percent(v):>8}" for v in row))
    if confusion.zero_support:
        lines.append(f"zero-support rows: {list(confusion.zero_support)}")
    lines.append("")
    return "\n".join(lines)


def _plans(matrix: FeatureMatrix, mode: str, ratio: float, seed: int,
           user: int | None) -> list[SplitPlan]:
    """The plans one mode scores: one split per user (or just ``user``),
    one pooled split, or one leave-one-user-out fold per user."""
    if mode == "mixed":
        return [plan_mixed(matrix, ratio=ratio, seed=seed)]
    if mode == "user-dependent":
        users = [user] if user is not None else np.unique(matrix.users).tolist()
        return [plan_user_dependent(matrix, u, ratio=ratio, seed=seed) for u in users]
    return plan_user_independent(matrix, seed=seed)


def _eval_cell(matrix: FeatureMatrix, mode: str, spec: ClassifierSpec,
               plans: list[SplitPlan], ratio: float, out_dir: Path,
               save_model_path: Path | None) -> dict:
    """Fit and score every plan of one mode x classifier cell, write its
    artifacts from the FoldResults of the reports, save the (last) fitted
    model if asked, return a summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for plan in plans:
        model = fit_plan(matrix, plan, spec)
        reports.append(score(matrix, plan, spec, model))
    results = FoldResults(tuple(reports))
    average = results.average_accuracy
    mean_time = results.mean_classify_time_s
    rep_dicts = [_report_to_dict(r) for r in reports]

    title = f"{mode} / {spec.kind} (seed {spec.seed})"
    (out_dir / "report.txt").write_text(
        _format_report_txt(title, rep_dicts, results), encoding="utf-8"
    )
    doc = {
        "mode": mode,
        "classifier": spec.kind,
        "hyperparams": spec.hyperparams,
        "seed": spec.seed,
        "ratio": ratio if mode != "user-independent" else None,
        "average_accuracy": average,
        "mean_classify_time_s": mean_time,
        "reports": rep_dicts,
    }
    with open(out_dir / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    _write_confusion_csv(out_dir / "confusion.csv", results.confusion)
    _write_per_user_csv(out_dir / "per_user.csv", results.per_user,
                        None if mode == "mixed" else average)
    if mode == "user-independent":
        _write_per_user_csv(out_dir / "crossval.csv", results.per_user, None)
    if save_model_path is not None:
        save_model(model, save_model_path)

    print(f"{mode:>16} {spec.kind:>3}  accuracy {_percent(average)}  "
          f"time {mean_time:.3e} s")
    return {"mode": mode, "classifier": spec.kind, "accuracy": average,
            "mean_classify_time_s": mean_time}


def _hyper_from_args(kind: str, args) -> dict:
    values = {name: getattr(args, name) for name in HYPER_FLAGS[kind]}
    return {name: v for name, v in values.items() if v is not None}


def cmd_eval(args) -> int:
    if not args.all and args.mode is None:
        raise UsageError("choose --mode or --all")
    if args.all and args.mode is not None:
        raise UsageError("--mode and --all are mutually exclusive")
    if args.mode == "user-independent" and args.ratio is not None:
        raise UsageError("--ratio does not apply to user-independent mode")
    if args.user is not None and args.mode != "user-dependent":
        raise UsageError("--user only applies to user-dependent mode")
    if not args.all:
        foreign = [name for kind, flags in HYPER_FLAGS.items()
                   if kind != args.classifier
                   for name in flags if getattr(args, name) is not None]
        if foreign:
            raise UsageError(f"--{foreign[0].replace('_', '-')} does not apply "
                             f"to --classifier {args.classifier}")
    if args.save_model:
        if args.all or args.mode == "user-independent":
            raise UsageError("--save-model needs a single-split mode")
        if args.mode == "user-dependent" and args.user is None:
            raise UsageError("--save-model with user-dependent mode needs --user")
    ratio = args.ratio if args.ratio is not None else 0.75
    if not 0.0 < ratio < 1.0:
        raise UsageError(f"--ratio must be in (0, 1), got {ratio}")
    out = Path(args.out)
    modes = MODES if args.all else (args.mode,)
    kinds = sorted(CLASSIFIER_KINDS) if args.all else [args.classifier]
    try:
        specs = [ClassifierSpec(k, _hyper_from_args(k, args), args.seed)
                 for k in kinds]
        for spec in specs:
            spec.build()  # the constructor checks the hyperparameters
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    matrix = _load_matrix(Path(args.input))
    if args.user is not None and args.user not in matrix.users:
        raise UsageError(f"--user {args.user}: unknown user")
    try:
        plans = {m: _plans(matrix, m, ratio, args.seed, args.user) for m in modes}
    except ValueError as exc:
        # The flags are good, so the input is too small to split.
        raise DataError(str(exc), path=args.input) from None

    save_path = Path(args.save_model) if args.save_model else None
    grid = [
        _eval_cell(matrix, m, spec, plans[m], ratio,
                   out / f"{m}-{spec.kind}" if args.all else out, save_path)
        for m in modes
        for spec in specs
    ]
    if args.all:
        with open(out / "grid.csv", "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["mode", "classifier", "accuracy",
                             "mean_classify_time_s"])
            for cell in grid:
                writer.writerow([cell["mode"], cell["classifier"],
                                 _percent(cell["accuracy"]),
                                 f"{cell['mean_classify_time_s']:.6e}"])
    # Written last, so that a run that fails leaves no record of a finished one.
    _write_run(out, "eval", {
        "input": str(args.input),
        "mode": args.mode,
        "all": args.all,
        "classifier": args.classifier,
        "seed": args.seed,
        "ratio": ratio if args.mode != "user-independent" else None,
        "user": args.user,
        "hyperparams": {s.kind: s.hyperparams for s in specs}
        if args.all
        else specs[0].hyperparams,
        "save_model": str(args.save_model) if args.save_model else None,
    })
    return EXIT_OK


# ----------------------------------------------------------------- synth

# The synth flags that shape the corpus, with their defaults. --preset
# fixes every one of them.
SHAPE_FLAGS = {
    "users": 8, "gestures": 8, "samples": 10, "length_min": 40, "length_max": 120,
    "speed_jitter": 0.0, "noise_sigma": 0.0, "style_offset": 0.0,
}


def cmd_synth(args) -> int:
    out = Path(args.out)
    given = {name: getattr(args, name) for name in SHAPE_FLAGS
             if getattr(args, name) is not None}
    if args.preset == "easy" and given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise UsageError(f"--preset easy fixes the corpus shape; drop {flags}")
    try:  # the spec checks every value, the preset's seed included
        if args.preset == "easy":
            spec = (
                EASY_SPEC
                if args.seed is None
                else dataclasses.replace(EASY_SPEC, seed=args.seed)
            )
        else:
            shape = {**SHAPE_FLAGS, **given}
            spec = SynthSpec(
                users=shape["users"],
                gestures=shape["gestures"],
                samples_per_gesture_per_user=shape["samples"],
                length_range=(shape["length_min"], shape["length_max"]),
                user_speed_jitter=shape["speed_jitter"],
                noise_sigma=shape["noise_sigma"],
                user_style_offset=shape["style_offset"],
                seed=args.seed if args.seed is not None else 0,
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    dataset = generate(spec)
    manifest = save_manifest(dataset, out)
    _write_run(out, "synth", {**dataclasses.asdict(spec), "preset": args.preset})
    print(dataset.meta.summary())
    print(f"wrote {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gestrec",
        description="Accelerometer gesture recognition pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a dataset to canonical form")
    p.add_argument("adapter", choices=(*ADAPTERS, "canonical"))
    p.add_argument("input", help="tree root (raw) or manifest path (canonical)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--adapter-config", default=None,
                   help="JSON adapter config overriding the built-in pattern")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("features", help="extract the 33-value feature CSV")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("eval", help="run an evaluation mode")
    p.add_argument("input", help="manifest CSV or feature CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--all", action="store_true",
                   help="run every mode x classifier cell")
    p.add_argument("--classifier", choices=sorted(CLASSIFIER_KINDS), default="et")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", type=float, default=None,
                   help="train fraction (default 0.75)")
    p.add_argument("--user", type=int, default=None,
                   help="restrict user-dependent mode to one user")
    p.add_argument("--save-model", default=None,
                   help="write the fitted model file (single-split modes)")
    for flags in HYPER_FLAGS.values():
        for name, type_ in flags.items():
            p.add_argument("--" + name.replace("_", "-"), type=type_, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic canonical dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", choices=("easy",), default=None)
    for name, default in SHAPE_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"gestrec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, SingularSystemError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"gestrec: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (GestureRecError, OSError) as exc:
        print(f"gestrec: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
