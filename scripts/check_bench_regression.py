#!/usr/bin/env python
"""Gate the perf trajectory: fail CI when a gated benchmark regresses.

Usage::

    python scripts/check_bench_regression.py BENCH_4.json \
        --baseline benchmarks/bench_baseline.json [--tolerance 0.30]

    python scripts/check_bench_regression.py BENCH_4.json --update-baseline

Compares every *gated metric* in a freshly emitted ``BENCH_*.json``
against the committed baseline and exits non-zero when any of them
regressed by more than ``--tolerance`` (default 30 %, the bar set in
PR 2's issue).  The gates:

* ``headline_replicated_campaign`` — ``events_per_sec`` (higher is better),
  the simulation-throughput gate from PR 2.
* ``analytic_interarrival_kernel`` — ``events_per_sec`` (higher), PR 3's
  interarrival-grid evaluations/sec through the spectral kernel layer.
* ``headline_cross_method`` — ``wall_clock_s`` (lower is better), the
  end-to-end analytic+simulation headline wall-clock.
* ``analytic_scale_ladder_8k`` — ``events_per_sec`` (higher) *and*
  ``peak_rss_mb`` (lower), PR 4's Krylov-backend scale rung: grid
  evaluations/sec and peak resident memory on the ~8k-state chain.
* ``columnar_headline_campaign`` — ``events_per_sec`` (higher), PR 6's
  columnar-engine gate: the 4-seed headline M/HAP-approx campaign under
  ``engine="columnar"``, one seed per job through the vectorized stream
  generator + Lindley recursion of the replication-batched kernel
  (>= 1M events/sec where the heap engine managed ~273k).
* ``service_cached_decisions`` / ``service_interpolated_decisions`` /
  ``service_miss_decisions`` — ``events_per_sec`` (higher), PR 7's
  admission-service throughput per answer tier (decisions/sec through
  real TCP connections); the miss tier additionally gates
  ``p99_latency_ms`` (lower) — the live-solve tail must stay bounded.
* ``columnar_batched_headline_campaign`` — ``events_per_sec`` (higher),
  PR 8's replication-batched columnar gate: the 32-seed headline
  columnar campaign, one kernel call per seed
  (>= 4M events/sec at full scale — >= 3x the single-replication
  columnar throughput).
* ``service_sharded_cached_decisions`` — ``events_per_sec`` (higher),
  PR 9's SO_REUSEPORT fleet gate: cached decisions/sec across a
  multi-shard fleet booted from one JSON surface artifact (>= 3x
  BENCH_7's single-process cached figure on a multi-core runner).
* ``service_batch_cached_decisions`` — ``events_per_sec`` (higher),
  PR 9's ``admit_batch`` verb gate: batched cached decisions/sec, which
  must stay strictly above the scalar cached rung even on one core.
* ``service_overload_shed`` — ``events_per_sec`` (higher) *and*
  ``p99_accepted_ms`` (lower), PR 10's load-shedding gate: goodput
  (accepted, non-shed answers/sec) under 4x saturating load with 5%
  live-solve queries, and the latency tail of the answers that were
  accepted (shed denies are instant and excluded).
* ``service_rolling_restart_availability`` — ``failed_requests``
  (lower, pinned at 0), PR 10's availability gate: a 2-shard fleet must
  answer every retried query while a rolling restart drains and
  replaces each shard in turn.

After the gates, the script reports the heap-vs-columnar peak-RSS diff
(``headline_replicated_campaign`` vs ``columnar_headline_campaign``; pick
other records with ``--rss-diff KEY KEY``).  The diff is informational,
not a gate: ``ru_maxrss`` is a process-wide high-water mark, so records
emitted by one pytest session share their peak and only cross-session
BENCH files diff meaningfully.

Gates missing from either document are *skipped with a warning* (so a
partial bench run gates what it ran, and adding new gates cannot break
older BENCH files or baselines); the script only errors when the candidate
document carries no benchmark records at all — a bench run that produced
nothing should still fail CI.  Improvements always pass; run with
``--update-baseline`` on the reference machine to re-pin after an
intentional change (commit the result).

Baseline schema v2 stores one record per gate; v1 baselines (single
``record``) are still accepted and gate only the headline campaign.

The baseline is machine-dependent — wall-clock on a different box is not
comparable — so CI pins one runner class and the tolerance absorbs its
run-to-run noise.

Exit codes: 0 = all gates pass, 1 = at least one regression (or an empty
bench document), 2 = the gate could not run at all (missing or unreadable
baseline/bench file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / (
    "benchmarks/bench_baseline.json"
)

#: (key substring, metric, direction); direction "higher" means larger is
#: better (throughput), "lower" means smaller is better (wall-clock).
GATES: tuple[tuple[str, str, str], ...] = (
    ("headline_replicated_campaign", "events_per_sec", "higher"),
    ("analytic_interarrival_kernel", "events_per_sec", "higher"),
    ("headline_cross_method", "wall_clock_s", "lower"),
    ("analytic_scale_ladder_8k", "events_per_sec", "higher"),
    ("analytic_scale_ladder_8k", "peak_rss_mb", "lower"),
    ("columnar_headline_campaign", "events_per_sec", "higher"),
    ("service_cached_decisions", "events_per_sec", "higher"),
    ("service_interpolated_decisions", "events_per_sec", "higher"),
    ("service_miss_decisions", "events_per_sec", "higher"),
    ("service_miss_decisions", "p99_latency_ms", "lower"),
    ("columnar_batched_headline_campaign", "events_per_sec", "higher"),
    ("service_sharded_cached_decisions", "events_per_sec", "higher"),
    ("service_batch_cached_decisions", "events_per_sec", "higher"),
    ("service_overload_shed", "events_per_sec", "higher"),
    ("service_overload_shed", "p99_accepted_ms", "lower"),
    ("service_rolling_restart_availability", "failed_requests", "lower"),
)

#: Default record pair for the informational heap-vs-columnar RSS diff.
RSS_DIFF_KEYS = ("headline_replicated_campaign", "columnar_headline_campaign")


def _report_rss_diff(document: dict, keys: tuple[str, str]) -> None:
    """Print the peak-RSS delta between two benchmark records.

    Informational only — ``ru_maxrss`` never decreases within a process,
    so two records from the same pytest session report the same peak and
    the diff reads 0.  Comparing BENCH files from separate single-bench
    runs is what makes the number meaningful.
    """
    first_key, second_key = keys
    first = _find_record(document, first_key, "peak_rss_mb")
    second = _find_record(document, second_key, "peak_rss_mb")
    if first is None or second is None:
        missing = first_key if first is None else second_key
        print(
            f"RSS DIFF: skipped — no peak_rss_mb record matching "
            f"{missing!r} in the bench document"
        )
        return
    delta = second["peak_rss_mb"] - first["peak_rss_mb"]
    print(
        f"RSS DIFF: {second_key} - {first_key} = {delta:+,.1f} MiB\n"
        f"  {first_key:>32}: {first['peak_rss_mb']:>10,.1f} MiB\n"
        f"  {second_key:>32}: {second['peak_rss_mb']:>10,.1f} MiB"
    )
    if first["peak_rss_mb"] == second["peak_rss_mb"]:
        print(
            "  (identical peaks usually mean one pytest session — "
            "ru_maxrss is a process-wide high-water mark)"
        )


def _load_json(path: Path, what: str) -> dict:
    """Read a JSON document or exit 2 with a clear message.

    Exit code 2 marks an *infrastructure* problem (missing or unreadable
    input), distinct from exit 1 (a real benchmark regression) — CI can
    tell "the gate failed" from "the gate could not run".
    """
    try:
        text = path.read_text()
    except OSError as error:
        print(f"error: cannot read {what} {path}: {error}", file=sys.stderr)
        raise SystemExit(2) from error
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        print(
            f"error: {what} {path} is not valid JSON: {error}",
            file=sys.stderr,
        )
        raise SystemExit(2) from error


def _find_record(document: dict, key: str, metric: str) -> dict | None:
    for record in document.get("benchmarks", []):
        if key in record.get("id", "") and record.get(metric) is not None:
            return record
    return None


def _check_gate(key, metric, direction, current, baseline, tolerance):
    """One gate verdict: (ok, human line)."""
    current_value = current[metric]
    baseline_value = baseline[metric]
    if direction == "higher":
        threshold = baseline_value * (1.0 - tolerance)
        ok = current_value >= threshold
        bound = f"floor at -{tolerance:.0%}: {threshold:,.1f}"
    else:
        threshold = baseline_value * (1.0 + tolerance)
        ok = current_value <= threshold
        bound = f"ceiling at +{tolerance:.0%}: {threshold:,.1f}"
    verdict = "OK" if ok else "REGRESSION"
    line = (
        f"{verdict}: {key} [{metric}, {direction} is better]\n"
        f"  current : {current_value:>14,.1f}\n"
        f"  baseline: {baseline_value:>14,.1f} ({bound})"
    )
    return ok, line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", type=Path, help="freshly emitted BENCH_*.json")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="max fractional regression before failing (default 0.30)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="overwrite the baseline with the current gated records and exit 0",
    )
    parser.add_argument(
        "--rss-diff",
        nargs=2,
        metavar=("HEAP_KEY", "COLUMNAR_KEY"),
        default=RSS_DIFF_KEYS,
        help="record-id substrings for the informational peak-RSS diff "
        "(default: heap vs columnar headline campaigns)",
    )
    args = parser.parse_args(argv)

    document = _load_json(args.bench_json, "bench document")

    if args.update_baseline:
        gated = {}
        for key, metric, direction in GATES:
            record = _find_record(document, key, metric)
            if record is not None:
                gated[key] = record
        if not gated:
            raise SystemExit(
                "error: no gated benchmark records in the input — did the "
                "benchmarks run?"
            )
        baseline_doc = {
            "schema": "repro-bench-baseline/2",
            "source": str(args.bench_json),
            "scale": document.get("scale"),
            "records": gated,
        }
        args.baseline.write_text(json.dumps(baseline_doc, indent=2) + "\n")
        print(
            f"baseline updated with {len(gated)} gated record(s) -> "
            f"{args.baseline}"
        )
        return 0

    if not args.baseline.exists():
        print(
            f"error: baseline {args.baseline} missing; run with "
            "--update-baseline on the reference machine and commit it",
            file=sys.stderr,
        )
        return 2
    baseline_doc = _load_json(args.baseline, "baseline")
    if "records" in baseline_doc:
        baseline_records = baseline_doc["records"]
    elif "record" in baseline_doc:
        # v1 back-compat: single headline record.
        baseline_records = {GATES[0][0]: baseline_doc["record"]}
    else:
        print(
            f"error: baseline {args.baseline} has neither 'records' (v2) "
            "nor 'record' (v1); re-pin with --update-baseline",
            file=sys.stderr,
        )
        return 2

    if not document.get("benchmarks"):
        raise SystemExit(
            f"error: {args.bench_json} contains no benchmark records — did "
            "the benchmarks run?"
        )

    checked = 0
    skipped = 0
    failed = 0
    for key, metric, direction in GATES:
        baseline_record = baseline_records.get(key)
        if baseline_record is None or baseline_record.get(metric) is None:
            print(
                f"SKIP: {key} [{metric}] — not in baseline "
                f"{args.baseline.name}; re-pin with --update-baseline to "
                "gate it"
            )
            skipped += 1
            continue
        current = _find_record(document, key, metric)
        if current is None:
            print(
                f"SKIP: {key} [{metric}] — not in candidate "
                f"{args.bench_json.name}; this run did not exercise it"
            )
            skipped += 1
            continue
        ok, line = _check_gate(
            key, metric, direction, current, baseline_record, args.tolerance
        )
        print(line)
        checked += 1
        failed += 0 if ok else 1
    print(
        f"{checked} gate(s) checked, {skipped} skipped, "
        f"{failed} regression(s)"
    )
    _report_rss_diff(document, tuple(args.rss_diff))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
