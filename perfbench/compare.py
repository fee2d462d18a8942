"""Compare two reports written by ``report.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the environment stamps differ in anything but the
seed: numbers from different interpreters, numpy builds, CPU counts,
platforms or BLAS thread settings are not comparable.  A seed that
differs is flagged, not refused.  Otherwise it prints, per workload and
end-to-end metric, both values and the change against the metric's
bound, and exits 1 if any metric got worse by more than its bound.
One report holds one run per workload, so this is a screen; a claimed
gain needs the repeated, alternating runs the bounds were set for.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def stamp_differences(base: dict, new: dict) -> list:
    keys = sorted((set(base) | set(new)) - {"seed"})
    return [f"{k}: {base.get(k)!r} vs {new.get(k)!r}" for k in keys if base.get(k) != new.get(k)]


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    differences = stamp_differences(base["stamp"], new["stamp"])
    if differences:
        print("refused: the environment stamps differ", *differences, sep="\n  ")
        return 2
    if base["stamp"]["seed"] != new["stamp"]["seed"]:
        print(f"flag: seeds differ ({base['stamp']['seed']} vs {new['stamp']['seed']}); "
              "the operation mix is the same, the inputs are not")
    worse = False
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        print(workload)
        b_metrics = base["workloads"][workload]["untraced"]["result"]["metrics"]
        n_metrics = new["workloads"][workload]["untraced"]["result"]["metrics"]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            b, n = b_metrics[name]["value"], n_metrics[name]["value"]
            change = (n - b) / b
            loss = -change if metric["better"] == "higher" else change
            beyond = loss > metric["bound"]
            worse = worse or beyond
            print(f"  {name:<14} {b:>12.4f} -> {n:>12.4f} {metric['unit']:<5} {100 * change:+7.2f}%"
                  f"  (bound {100 * metric['bound']:.0f}%){'  WORSE' if beyond else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
