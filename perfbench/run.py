"""Run one benchmark workload against the pickdisc sources of this checkout.

    python3 perfbench/run.py --workload encode-equiv --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It loads ``src/pickdisc`` from that
checkout, times whole cycles of operations in a closed loop (one client,
one operation at a time) for at least ``--seconds``, checks every output,
and prints two JSON lines: a detail line (environment stamp, operation
mix, failures, tail percentile) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; set-up
time is the median over fresh processes that only set up.  ``--trace 1``
records spans around every call into pickdisc, reports the per-layer
metrics, and writes the spans to ``perfbench/out/``.  It exits non-zero
without a result when the sources are missing or set-up fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

# Before numpy is imported anywhere, here or in a child process.
for _var in harness.BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
WORKLOADS = {
    "encode-equiv": "encode_equiv",
    "pick-feasibility": "pick_feasibility",
    "cli-oneshot": "cli_oneshot",
}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def use_checkout_sources() -> None:
    """Put this checkout's ``src`` first on the path, here and in child processes."""
    if not (SRC / "pickdisc" / "__init__.py").is_file():
        raise SystemExit(f"error: no pickdisc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def _load_workload(name: str):
    """Import a workload module with pickdisc taken from this checkout only."""
    use_checkout_sources()
    module = importlib.import_module(WORKLOADS[name])
    import pickdisc

    if Path(pickdisc.__file__).resolve().parent != SRC / "pickdisc":
        raise SystemExit(f"error: pickdisc was imported from {pickdisc.__file__}, not {SRC}")
    return module


def _probe_setup_s(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports, sets up and exits."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    probe = harness.run_process(argv, PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    if probe.returncode != 0:
        raise SystemExit(f"error: set-up probe exited with {probe.returncode}")
    return elapsed


def _peak_rss_mb(of_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _layer_metrics(module, tracer, ops: int, busy_s: float, names: list) -> dict:
    measured = module.layer_metrics(tracer)
    measured["bench.op_self_ms"] = harness.median_or_zero(tracer.self_times_ms("op"))
    measured["trace.ops_per_s"] = ops / busy_s
    measured["trace.child_overruns"] = tracer.child_overruns()
    unknown = set(measured) - set(names)
    if unknown:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer this workload never calls reads 0.
    return {name: measured.get(name, 0.0) for name in names}


def _write_trace(tracer, workload: str, seed: int, stamp: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    names = ("name", "start_ns", "end_ns", "parent", "op")
    doc = {
        "stamp": stamp,
        "spans": [dict(zip(names, span)) for span in tracer.spans],
        "kinds": tracer.kinds,
        "counts": tracer.counts,
    }
    path.write_text(json.dumps(doc) + "\n")
    return path


def _layer_shares(tracer) -> dict:
    """Each layer call's share of operation time, from the spans directly under ``op``."""
    op_index = {i for i, span in enumerate(tracer.spans) if span[0] == "op"}
    total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in op_index)
    shares: dict = {}
    for name, start, end, parent, _op in tracer.spans:
        if parent in op_index:
            shares[name] = shares.get(name, 0) + end - start
    return {name: spent / total for name, spent in sorted(shares.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    module = _load_workload(args.workload)
    if args.setup_only:
        module.setup(args.seed, harness.NullTracer())
        return 0

    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    with tracer.span("setup"):
        state = module.setup(args.seed, tracer)
    loop = harness.run_closed_loop(module, state, seconds, tracer)
    peak_rss_mb = _peak_rss_mb(module.PEAK_RSS_OF_CHILDREN)

    durations = loop["durations_ms"]
    attempted = len(durations)
    failed = len(loop["failures"])
    stamp = harness.environment_stamp(args.seed)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "stamp": stamp,
        "attempted": attempted,
        "fail_ratio": failed / attempted,
        "timed_s": loop["busy_s"],
        "mix": loop["mix"],
        "kind_p50_ms": loop["kind_p50_ms"],
        "tail_percentile": harness.tail_percentile(attempted),
        "failures": loop["failures"][:20],
    }
    correct = failed == 0
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = _layer_metrics(module, tracer, attempted, loop["busy_s"], names)
        correct = correct and values["trace.child_overruns"] == 0
        detail["layer_shares"] = _layer_shares(tracer)
        detail["trace_file"] = str(_write_trace(tracer, args.workload, args.seed, stamp).relative_to(ROOT))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        probes = [_probe_setup_s(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        detail["setup_probes_s"] = probes
        values = {
            "ops_per_s": attempted / loop["busy_s"],
            "op_p50_ms": statistics.median(durations),
            "op_tail_ms": harness.tail_value(durations),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise SystemExit(f"error: end-to-end metrics {sorted(values)} differ from BENCHMARK.json")

    print(json.dumps({"detail": detail}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
