"""Run one benchmark workload against the program in this checkout.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is a separate run that records spans around every call into the
program and reports the per-layer metrics, including the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.  The last
line of standard output is the result object; the line before it is the
run summary (machine fingerprint, tail percentile and sample count,
workload facts).  Spans and the full record are written under
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

from harness import (
    OUT_DIR,
    ROOT,
    SRC,
    machine_fingerprint,
    mean,
    median,
    min_samples_for,
    percentile,
    scrub_repro_env,
)

WORKLOADS = {
    "campaign-cold": "workload_cold",
    "service-warm": "workload_service",
    "campaign-update": "workload_update",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _end_to_end(m, import_s: float) -> dict:
    lat = m.latencies
    values = {
        "latency_p50_ms": median(lat) * 1e3,
        "ops_per_s": len(lat) / m.wall_s,
        "au_eval": mean(m.au_values),
        "peak_rss_mb": m.peak_rss_mb,
        "setup_s": import_s + median(m.setup_runs),
    }
    # Never a tail percentile with fewer than 10 samples beyond it.
    if len(lat) >= min_samples_for(m.tail_q):
        values["latency_tail_ms"] = percentile(lat, m.tail_q) * 1e3
    return values


def _per_layer(m) -> dict:
    values = dict(m.layers)
    untraced = median(m.latencies) * 1e3
    traced = median(m.traced_latencies) * 1e3
    values["trace.untraced_p50_ms"] = untraced
    values["trace.traced_p50_ms"] = traced
    values["trace.overhead_share"] = traced / untraced - 1.0 if untraced else 0.0
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    # Stop through the ``finally`` blocks (which stop the service process)
    # on SIGTERM too.  SIGINT gets Python's own handler back even when the
    # caller ignores it: the service process inherits that disposition
    # and is stopped with SIGINT.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    scrub_repro_env()
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import repro  # noqa: F401  (import cost is part of set-up)

    import_s = time.perf_counter() - start

    workload = __import__(WORKLOADS[args.workload])
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        m = workload.measure(args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = _per_layer(m) if args.trace else _end_to_end(m, import_s)
    metrics = {
        entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
        for entry in table
        if entry["name"] in measured
    }
    not_exercised = []
    if args.trace:
        # a layer this workload never calls did no work in this run
        for entry in table:
            if entry["name"] not in metrics:
                not_exercised.append(entry["name"])
                metrics[entry["name"]] = {"value": 0, "unit": entry["unit"]}
    complete = len(metrics) == len(table)

    spans = m.notes.pop("spans", None)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_fingerprint(m.backend),
        "tail": {
            "percentile": m.tail_q,
            "samples": len(m.latencies),
            "beyond": len(m.latencies) * (1 - m.tail_q / 100.0),
        },
        "import_s": import_s,
        "setup_runs_s": m.setup_runs,
        "wall_s": m.wall_s,
        "not_exercised": not_exercised,
        "notes": m.notes,
    }
    result = {
        "correct": m.failed == 0 and complete,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    record = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w") as fh:
        json.dump({"summary": summary, "result": result, "spans": spans}, fh)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
