"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload serve --seed 1 --seconds 6 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``. With ``--trace 0`` the run measures with no tracing and prints
every end-to-end metric; with ``--trace 1`` it traces every other
operation, prints every per-layer metric (with the tracing overhead:
traced against untraced operations of the same run) and writes the
spans to ``.bench_work/traces/``. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by a JSON line ``{"record": {...}}`` with the inputs and
environment of the run. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_WORK = ".bench_work"


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def measure(wl, state, seconds: float, start: int, least: int, tracer=None):
    """Closed loop: run operations start, start+1, ... until ``seconds``
    have passed and at least ``least`` operations ran. Returns the
    outcomes, each passed through the workload's ``settle`` after its
    timing (None for an operation that raised there or in ``op``), and
    each operation's wall time in seconds.

    With a tracer, every other operation runs traced, the parity
    flipping after each cycle of the workload so that each position in
    the cycle (model, batch, job) runs both ways. Drift in the machine's
    speed then affects traced and untraced operations alike."""
    outcomes, times = [], []
    clock = time.perf_counter
    cycle = wl.cycle(state)
    end = clock() + seconds
    i = start
    while True:
        traced = tracer is not None and is_traced(i, cycle)
        if traced:
            tracer.request = i
            tracer.install()
        t0 = clock()
        try:
            if traced:
                with tracer.span(f"bench.{wl.op_name}"):
                    out = wl.op(state, i)
            else:
                out = wl.op(state, i)
        except Exception:
            traceback.print_exc()
            out = None
        t1 = clock()
        if traced:
            tracer.uninstall()
        if out is not None:
            try:
                out = wl.settle(state, out)
            except Exception:
                traceback.print_exc()
                out = None
        outcomes.append(out)
        times.append(t1 - t0)
        i += 1
        if t1 >= end and len(outcomes) >= least:
            return outcomes, times


def is_traced(i: int, cycle: int) -> bool:
    """Every other position of a cycle, the other half in the next cycle
    (position plus cycle count, not i itself: with an odd cycle the
    parity of i would trace the same positions in every cycle)."""
    return (i % cycle + i // cycle) % 2 == 1


def parallel_speedup(dataset, jobs: int, rounds: int = 2) -> float:
    """extract_all time with one thread over its time with ``jobs``."""
    from gestrec import features

    serial, parallel = [], []
    for _ in range(rounds):
        for n, acc in ((1, serial), (jobs, parallel)):
            t0 = time.perf_counter()
            features.extract_all(dataset, jobs=n)
            acc.append(time.perf_counter() - t0)
    return sorted(serial)[rounds // 2] / sorted(parallel)[rounds // 2]


def _blas_env() -> dict:
    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {k: os.environ[k] for k in keys if k in os.environ}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        root: Path = ROOT) -> tuple[dict, dict]:
    """Run one workload; returns (result, record) as printed by main."""
    import numpy as np

    import layers
    import workloads
    from spans import Tracer

    sizes = sizes or workloads.Sizes()
    wl = workloads.WORKLOADS[workload](sizes)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    workdir = root / BENCH_WORK / f"{workload}-{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace)}
    try:
        # Set up setup_reps times; after each set-up, measure for an equal
        # share of the run. The shares lie tens of seconds apart, so a run
        # samples the machine's speed at several moments.
        setup_times, digests, outcomes, times = [], [], [], []
        reps = sizes.setup_reps
        corpus_seed = wl.corpus_seed(seed)
        for k in range(reps):
            state = None
            if tracer:
                tracer.request = f"setup-{k}"
                tracer.install()
            t0 = time.perf_counter()
            if tracer:
                with tracer.span("bench.setup"):
                    state = wl.setup(seed, corpus_seed, workdir / f"setup{k}")
                tracer.uninstall()
            else:
                state = wl.setup(seed, corpus_seed, workdir / f"setup{k}")
            setup_times.append(time.perf_counter() - t0)
            digests.append((
                workloads.digest_samples(wl.input_samples(state)),
                workloads.digest_files(state["model_paths"].values()),
            ))
            if k:
                shutil.rmtree(workdir / f"setup{k - 1}", ignore_errors=True)
            wl.warm(state)
            least = 1
            if k == reps - 1:
                least = max(wl.min_ops(state), 2 if tracer else 1) - len(outcomes)
            outs, ts = measure(wl, state, seconds / reps, len(outcomes), least, tracer)
            outcomes += outs
            times += ts

        ok = wl.check(state, outcomes)
        accuracy = wl.accuracy_pct(state, outcomes)
        floor = workloads.ACCURACY_FLOOR[workload]
        run_checks = [
            len(set(digests)) == 1,  # every setup made the same inputs and models
            accuracy >= floor,
        ]
        attempted = len(ok) + len(run_checks)
        failed = ok.count(False) + run_checks.count(False)

        if tracer:
            speedup = parallel_speedup(wl.probe_dataset(state), workloads.JOBS)
            cycle = wl.cycle(state)
            flags = [is_traced(i, cycle) for i in range(len(times))]
            with_t = [t for t, f in zip(times, flags) if f]
            without_t = [t for t, f in zip(times, flags) if not f]
            overhead = 100.0 * (np.mean(with_t) / np.mean(without_t) - 1.0)
            traced = [o if f else None for o, f in zip(outcomes, flags)]
            metrics = layers.per_layer(
                tracer.spans, state, traced, speedup, overhead,
                wl.node_vectors(state, [o for o in traced if o is not None]), cycle)
            trace_path = root / BENCH_WORK / "traces" / f"{workload}-seed{seed}.json"
            record["spans"] = len(tracer.spans)
            record["trace_file"] = str(trace_path.relative_to(root))
        else:
            metrics = {
                "setup_s": float(np.median(setup_times)),
                **wl.end_to_end(state, outcomes, np.asarray(times)),
                "accuracy_pct": accuracy,
                "success_rate": (attempted - failed) / attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }

        lengths = np.asarray(wl.recordings(state, outcomes))
        record.update({
            "corpus_seed": corpus_seed,
            "operations": len(outcomes),
            "setup_s_each": setup_times,
            "inputs_sha256": digests[0][0],
            "models_sha256": digests[0][1],
            "readings_per_gesture": {
                "median": float(np.median(lengths)) if lengths.size else 0.0,
                "p90": float(np.percentile(lengths, 90)) if lengths.size else 0.0,
            },
            "repeated_share": wl.repeated_share(state, outcomes),
            "accuracy_floor_pct": floor,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": {"clients": 1, "extract_all_jobs": workloads.JOBS,
                        "fit_jobs": 1, "blas_env": _blas_env()},
        })
        if tracer:
            tracer.write(trace_path, {"record": record})
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(names))}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve", "batch-long", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be >= 1")
    if not (ROOT / "src" / "gestrec" / "__init__.py").is_file():
        return _fail(f"no library source at {ROOT / 'src' / 'gestrec'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail(f"no BENCHMARK.json at {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
