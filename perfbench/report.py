"""Every workload, untraced and traced, in one table.

    python3 perfbench/report.py --seed 1 [--second-seed 2] [--out FILE]

Run from the root of a checkout.  For each workload this runs
``run.py`` once without tracing (the end-to-end metrics, with the
failure ratio and the tail percentile used) and once with tracing (the
per-layer metrics).  The tracing overhead is the traced run's loss of
``ops_per_s``.  With ``--second-seed`` each workload is traced again on
that seed, and the report checks that the operation mix is the same (each
operation index has the same kind) and that every layer's share of operation time moves by less than the
``ops_per_s`` bound.  ``--out`` keeps the whole report as JSON, for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Layers below this share of operation time are too small for a share check.
MIN_SHARE = 0.05


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def op_kinds(run: dict) -> list:
    """Kind of each operation, in order."""
    trace = json.loads((HERE.parent / run["detail"]["trace_file"]).read_text())
    return [trace["kinds"][str(op)] for op in range(len(trace["kinds"]))]


def same_mix(first: list, second: list) -> bool:
    """Both runs gave the same kind to every operation index they share."""
    shared = min(len(first), len(second))
    return shared > 0 and first[:shared] == second[:shared]


def share_drift(first: dict, second: dict) -> dict:
    """Relative change of each layer's share of operation time between two runs."""
    drift = {}
    for name in sorted(set(first) | set(second)):
        a, b = first.get(name, 0.0), second.get(name, 0.0)
        if max(a, b) >= MIN_SHARE:
            drift[name] = abs(b - a) / max(a, b)
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report: dict = {"seed": args.seed, "second_seed": args.second_seed, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = run_once(workload, args.seed, 0)
        traced = run_once(workload, args.seed, 1)
        entry = {"untraced": plain, "traced": traced}
        report["stamp"] = plain["detail"]["stamp"]
        detail, result = plain["detail"], plain["result"]
        ok = ok and result["correct"] and traced["result"]["correct"]
        print(f"\n{workload}: {result['attempted']} operations, "
              f"fail_ratio {detail['fail_ratio']:.4g} (1), correct {result['correct']}")
        for name, metric in result["metrics"].items():
            note = f"  (p{detail['tail_percentile']:.1f})" if name == "op_tail_ms" else ""
            print(f"  {name:<14} {metric['value']:>12.4f} {metric['unit']}{note}")
        plain_rate = result["metrics"]["ops_per_s"]["value"]
        traced_rate = traced["result"]["metrics"]["trace.ops_per_s"]["value"]
        entry["tracing_overhead"] = 1.0 - traced_rate / plain_rate
        print(f"  traced ops_per_s {traced_rate:.4f} vs {plain_rate:.4f} untraced: "
              f"overhead {100 * entry['tracing_overhead']:.2f}%")
        for name, metric in traced["result"]["metrics"].items():
            if metric["value"]:
                print(f"    {name:<38} {metric['value']:>12.4f} {metric['unit']}")
        if args.second_seed is not None:
            other = run_once(workload, args.second_seed, 1)
            entry["second_seed_traced"] = other
            mix_ok = same_mix(op_kinds(traced), op_kinds(other))
            drift = share_drift(traced["detail"]["layer_shares"], other["detail"]["layer_shares"])
            within = all(d <= bounds["ops_per_s"] for d in drift.values())
            entry["second_seed_check"] = {"same_mix": mix_ok, "share_drift": drift, "within_bound": within}
            ok = ok and mix_ok and within and other["result"]["correct"]
            print(f"  seed {args.second_seed}: same operation mix {mix_ok}; layer share drift "
                  + ", ".join(f"{k} {100 * v:.1f}%" for k, v in drift.items())
                  + f" (bound {100 * bounds['ops_per_s']:.0f}%): {'ok' if within else 'BEYOND BOUND'}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
