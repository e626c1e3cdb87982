"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload headline-sim --seed 1 --seconds 10 --trace 0

Workloads (see README.md in this directory): ``headline-sim``,
``analytic-sweep`` and ``admission-mix``.  With ``--trace 0`` the last
line of standard output carries the end-to-end metrics; with
``--trace 1`` the same run is repeated with the outside-in layer trace
installed (:mod:`layertrace`) and carries the per-layer metrics instead.
End-to-end times are normalized by a reference computation timed during
the run (:mod:`common`), and the run stays on one CPU.
Exit status is 0 when the run finished, whether or not its outputs were
correct (``"correct"`` says that), and 2 when the program under test is
missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: BLAS runs single-threaded: its worker threads contend with the
#: workloads' own threads and turn timings on a small host into noise.
#: Set before numpy loads; the set-up subprocesses inherit it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> module in this directory.
WORKLOADS = {
    "headline-sim": "headline_sim",
    "analytic-sweep": "analytic_sweep",
    "admission-mix": "admission_mix",
}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60.0
#: Reference timings before, and again after, each timed set-up.
SETUP_REFERENCES = 3

#: A traced run writes out its layer table and this many of its first spans.
TRACE_SAMPLE_SPANS = 400
TRACE_DIR = HERE / "traces"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, tear it down and exit (times set-up)",
    )
    return parser.parse_args(argv)


def _time_setup(args) -> float:
    """Seconds for a fresh interpreter to import and set the workload up.

    Normalized like the run's times, by the reference computation timed
    ``SETUP_REFERENCES`` times before and as many after the set-up.
    """
    from common import REFERENCE_NOMINAL_S, reference_seconds

    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    reference = [reference_seconds() for _ in range(SETUP_REFERENCES)]
    started = perf_counter()
    subprocess.run(
        command,
        cwd=ROOT,
        check=True,
        timeout=SETUP_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    elapsed = perf_counter() - started
    reference += [reference_seconds() for _ in range(SETUP_REFERENCES)]
    return elapsed * REFERENCE_NOMINAL_S / statistics.median(reference)


def _end_to_end(workload, run, setup_seconds) -> dict:
    """Latencies, rate and set-up, normalized by the reference computation."""
    from common import percentile

    latencies, elapsed = run.normalized()
    print(
        f"perfbench: raw op_p50_ms {percentile(run.latencies, 0.5) * 1e3:.6g} "
        f"op_tail_ms {percentile(run.latencies, workload.TAIL_QUANTILE) * 1e3:.6g} "
        f"work_rate {sum(run.units) / run.elapsed:.6g}; host slowdown "
        f"{run.slowdown:.4f} (median of {len(run.reference)} reference timings)",
        file=sys.stderr,
    )
    return {
        "op_p50_ms": {"value": percentile(latencies, 0.5) * 1e3, "unit": "ms"},
        "op_tail_ms": {
            "value": percentile(latencies, workload.TAIL_QUANTILE) * 1e3,
            "unit": "ms",
        },
        "work_rate": {"value": sum(run.units) / elapsed, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
    }


def _all_layers():
    layers = []
    for module_name in WORKLOADS.values():
        for layer in importlib.import_module(module_name).LAYERS:
            if layer not in layers:
                layers.append(layer)
    return layers


def _per_layer(tracer, run) -> dict:
    table, _, root_ns = tracer.layer_table(_all_layers())
    ops = max(run.attempted, 1)
    metrics = {
        "traced_op_ms": {"value": root_ns / 1e6 / ops, "unit": "ms"},
    }
    for layer, row in table.items():
        metrics[f"{layer}.self_pct"] = {
            "value": 100.0 * row["self_ns"] / max(root_ns, 1),
            "unit": "%",
        }
        metrics[f"{layer}.calls_per_op"] = {"value": row["calls"] / ops, "unit": "count"}
    return metrics


def _write_trace(args, tracer, metrics) -> None:
    """Keep the layer table and the first spans next to the benchmark."""
    TRACE_DIR.mkdir(exist_ok=True)
    origin = min((span.start for span in tracer.spans), default=0)
    spans = sorted(tracer.spans, key=lambda span: span.start)[:TRACE_SAMPLE_SPANS]
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": metrics,
        "spans": [
            {
                "id": span.span_id,
                "parent": None if span.parent is None else span.parent.span_id,
                "layer": span.layer,
                "start_us": (span.start - origin) / 1e3,
                "end_us": (span.end - origin) / 1e3,
            }
            for span in spans
        ],
    }
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")


def _pin_to_one_cpu() -> None:
    """Keep the run and its set-up subprocesses on one CPU.

    The workloads' threads (client loop, server loop, solver) share one
    interpreter lock, so a second CPU adds only cross-CPU wake-ups, whose
    latency on a shared virtual machine is noise: pinned, the admission-mix
    median latency fell from 0.23 to 0.08 ms and its spread across seeds
    from 0.22 to 0.05 of its value.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _stop_resource_tracker() -> None:
    """Stop and reap the resource tracker the shared-memory transport started.

    ``multiprocessing`` leaves that helper process running past the
    interpreter's exit; it then ends on its own, orphaned and unreaped.
    Every run and every set-up subprocess stops its own here, waiting
    until it has exited.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_resource_tracker()


def _main(argv) -> int:
    args = _parse(argv)
    _pin_to_one_cpu()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_only:
        workload.close(workload.setup(args.seed))
        return 0

    setup_seconds = [] if args.trace else [_time_setup(args) for _ in range(SETUP_REPEATS)]
    state = workload.setup(args.seed)
    tracer = None
    try:
        if args.trace:
            from layertrace import Tracer

            tracer = Tracer()
            workload.instrument(tracer, state)
        try:
            run, evidence = workload.measure(state, args.seconds)
        finally:
            if tracer is not None:
                tracer.restore()
        workload.check(state, run, evidence)
    finally:
        workload.close(state)

    for problem in run.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if tracer is None:
        metrics = _end_to_end(workload, run, setup_seconds)
    else:
        metrics = _per_layer(tracer, run)
        _write_trace(args, tracer, metrics)
    result = {
        "correct": not run.problems and run.failed == 0 and bool(run.latencies),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
