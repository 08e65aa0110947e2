"""Per-layer metrics derived from the spans of a traced run.

Setup spans carry a request id ``setup-<k>``; spans of the traced
measurement phase carry the integer id of their operation. Layer
metrics describe the measurement phase, except where a workload never
calls the layer there: the feature and dsp figures of train and the
extract_all figures of serve and train come from the setups, which
extract the training rows.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import DSP_KERNELS, FEATURE_BLOCKS, KINDS, self_times

MODES = {
    "UserDependent": "user_dependent",
    "MixedUser": "mixed",
    "UserIndependent": "user_independent",
}
EVAL_CELLS = [("user_dependent", k) for k in KINDS] + [
    ("mixed", k) for k in KINDS
] + [("user_independent", "rc")]
KIND_OF = {"extra_trees": "et", "gradient_boosting": "gb", "ridge": "rc"}
SELF_LAYERS = ("bench", "data", "features", "dsp", "classifiers", "evaluation")


def _dur(span) -> float:
    return (span[3] - span[2]) / 1e9


def _median(values, scale=1.0) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def _per_request_sum(spans) -> list[float]:
    sums = defaultdict(float)
    for s in spans:
        sums[s[5]] += _dur(s)
    return list(sums.values())


def _cycle_sum(spans, cycle: int) -> float:
    """Time of the spans per cycle of the workload: each position in the
    cycle (a train job) counts once, at the median over its traced runs."""
    per_request = defaultdict(float)
    for s in spans:
        per_request[s[5]] += _dur(s)
    per_position = defaultdict(list)
    for request, d in per_request.items():
        per_position[request % cycle].append(d)
    return float(sum(np.median(v) for v in per_position.values()))


def _by_name(spans) -> dict[str, list]:
    out = defaultdict(list)
    for s in spans:
        out[s[1]].append(s)
    return out


def count_nodes(root) -> int:
    """Nodes of a tree, walking Node.left/right."""
    nodes = 0
    todo = [root]
    while todo:
        node = todo.pop()
        nodes += 1
        if node.feature >= 0:
            todo += [node.left, node.right]
    return nodes


def path_length(root, x) -> int:
    """Nodes visited routing x from the root to its leaf."""
    visited = 1
    node = root
    while node.feature >= 0:
        node = node.left if x[node.feature] <= node.threshold else node.right
        visited += 1
    return visited


def trees_of(model) -> list:
    if hasattr(model, "trees_"):
        return list(model.trees_)
    return [t for stage in model.stages_ for t in stage]


def per_layer(spans, state, traced, probe_speedup: float,
              overhead_pct: float, node_vectors, cycle: int) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload makes no such call."""
    setup = [s for s in spans if isinstance(s[5], str)]
    measured = [s for s in spans if not isinstance(s[5], str)]
    selfs = self_times(measured)
    S, M = _by_name(setup), _by_name(measured)

    out: dict[str, float] = {}
    out["synth.generate_s"] = _median(_per_request_sum(S["synth.generate"]))

    loads = M["data.load_manifest"]
    out["data.load_manifest_s"] = _median([_dur(s) for s in loads])
    batches = [o for o in traced if o is not None]
    if "batch_bytes" in state and batches:
        out["data.bytes_read"] = _median([state["batch_bytes"][o[0]] for o in batches])
        readings = sum(sum(o[4]) for o in batches)
        out["data.readings_per_s"] = readings / sum(_dur(s) for s in loads)
    else:
        out["data.bytes_read"] = out["data.readings_per_s"] = 0.0

    if M["features.feature_set"]:
        F, feat_selfs = M, selfs
    else:
        F, feat_selfs = S, self_times(setup)
    gestures = len(F["features.feature_set"])
    for name in ("feature_set",) + FEATURE_BLOCKS:
        durs = [_dur(s) for s in F[f"features.{name}"]]
        out[f"features.{name}_us"] = _median(durs, 1e6)
    extract = M["features.extract_all"] or S["features.extract_all"]
    out["features.extract_all_s"] = _median([_dur(s) for s in extract])
    out["features.extract_all_parallel_speedup"] = probe_speedup

    total_calls = 0
    for k in DSP_KERNELS:
        calls = F[f"dsp.{k}"]
        total_calls += len(calls)
        out[f"dsp.{k}.calls_per_gesture"] = len(calls) / gestures if gestures else 0.0
        out[f"dsp.{k}.self_us"] = _median([feat_selfs[s[0]] for s in calls], 1e-3)
    out["dsp.calls_per_gesture"] = total_calls / gestures if gestures else 0.0

    for kind in KINDS:
        predicts = M[f"classifiers.{kind}.predict"]
        out[f"classifiers.{kind}.predict_one_us"] = _median(
            [_dur(s) for s in predicts if s[6] == 1], 1e6)
        out[f"classifiers.{kind}.predict_batch_ms"] = _median(
            [_dur(s) for s in predicts if s[6] > 1], 1e3)
        if M[f"classifiers.{kind}.fit"]:
            fit_s = _cycle_sum(M[f"classifiers.{kind}.fit"], cycle)
        else:
            fit_s = _median(_per_request_sum(S[f"classifiers.{kind}.fit"]))
        out[f"classifiers.{kind}.fit_s"] = fit_s

    models = state["models"]
    for kind in ("et", "gb"):
        nodes = visited = 0.0
        if kind in models:
            trees = trees_of(models[kind])
            nodes = float(sum(count_nodes(t) for t in trees))
            if node_vectors is not None and len(node_vectors):
                visited = float(np.mean([
                    sum(path_length(t, x) for t in trees) for x in node_vectors
                ]))
        out[f"classifiers.{kind}.nodes"] = nodes
        out[f"classifiers.{kind}.nodes_visited_per_predict"] = visited

    loads_by_kind = defaultdict(list)
    for s in S["classifiers.store.load_model"]:
        loads_by_kind[KIND_OF.get(s[6])].append(_dur(s))
    for kind in KINDS:
        out[f"classifiers.store.{kind}.load_s"] = _median(loads_by_kind[kind])
        path = state["model_paths"].get(kind)
        out[f"classifiers.store.{kind}.model_bytes"] = (
            float(path.stat().st_size) if path else 0.0)

    roots = {s[0] for s in measured if s[1].startswith("bench.")}
    evals = M["evaluation.evaluate"]
    top = [s for s in evals if s[4] in roots]
    for mode, kind in EVAL_CELLS:
        cell = [s for s in top if MODES[s[6][0]] == mode and s[6][1] == kind]
        out[f"evaluation.{mode}.{kind}.evaluate_s"] = _cycle_sum(cell, cycle)
    out["evaluation.time_single_predictions_s"] = _cycle_sum(
        M["evaluation.time_single_predictions"], cycle)
    top_time = sum(_dur(s) for s in top)
    out["evaluation.overhead_share"] = (
        sum(selfs[s[0]] for s in evals) / 1e9 / top_time if top_time else 0.0)

    wall = sum(_dur(s) for s in measured if s[0] in roots)
    busy = defaultdict(float)
    for s in measured:
        busy[s[1].split(".")[0]] += selfs[s[0]] / 1e9
    for layer in SELF_LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * busy[layer] / wall if wall else 0.0

    out["trace.overhead_pct"] = overhead_pct
    return out
