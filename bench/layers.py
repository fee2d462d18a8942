"""Layer timings of the encode, fuchsian, seqkernel and pick layers, written as one BENCH JSON file.

Run from the root of a checkout:

    python3 bench/layers.py --out BENCH_<n>.json
    python3 bench/layers.py --src path/to/other/src --out other.json
    python3 bench/layers.py --baseline other.json --out BENCH_<n>.json

``--src`` times the package of another checkout (by default this one's
``src``); ``--baseline`` copies the rows of an earlier output taken on
the same host into the new file, with each row's change against them,
and refuses a file whose environment stamp differs.  The stamp is the
one `perfbench/harness.py` writes.

Each row times one call shape in this process with ``time.perf_counter``
over seeded inputs (`perfbench/inputs.py`, and seeded log-convex kernels
of 256 terms): every input is run once before timing, so the per-params
and per-kernel caches are warm, then `PASSES` timed passes run over all
inputs, and a row reports the per-call time of its median, fastest and
slowest pass.  The ``seqkernel`` rows are `kernel_eval` on one point of
the all-ones kernel, and `b_from_a` on float kernels and on the exact
kernel ``a_n = 1/(n+1)``; the ``pick`` row is `pick_feasible` on
feasible 16-node problems in the disc.  The ``fuchsian`` rows are
`enumerate_words` and `orbit_points` (GAMMA3, z = 0.1+0.05i,
``store_limit=0``); each `orbit_points` pass is one call in a fresh child
process, which reports its time and its peak RSS (``VmHWM``, Linux only).
Only the ``first call`` and ``first build`` rows pay their caches: each of
their passes is one call on a fresh set of params, built before the clock
starts.  A first-build row also reports the ``tracemalloc`` peak of one
more, untimed, build.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import inputs  # noqa: E402

PAIRS = 40  # seeded subset pairs (or subsets, kernels, Pick problems) per row
PASSES = 7  # timed passes per row
MAX_SUBSET = 4
KERNEL_TERMS = 256  # float kernels: 255 seeded successor ratios in [0.6, 0.98]
EXACT_TERMS = 128  # the exact kernel a_n = 1/(n+1)
EVAL_CALLS = 200  # one-point kernel_eval calls per pass

# Each row imports pickdisc itself: `main` puts ``--src`` on the path first.


def _pairs(window: int, search_length: int, seed: str, count: int = PAIRS) -> list:
    """Seeded subset pairs of 1-4 core words, every other one a translate, as Word lists."""
    from pickdisc.fuchsian import Word

    rng = random.Random(seed)
    out = []
    for index in range(count):
        a, b, _ = inputs.subset_pair(
            rng, window, search_length, 1 + index % MAX_SUBSET, is_translate=index % 2 == 0
        )
        out.append(([Word(w) for w in sorted(a)], [Word(w) for w in sorted(b)]))
    return out


def _time(calls: list) -> dict:
    """Per-call milliseconds of each timed pass over ``calls``, after one warm pass."""
    for call in calls:
        call()
    per_call = []
    for _ in range(PASSES):
        start = time.perf_counter()
        for call in calls:
            call()
        per_call.append((time.perf_counter() - start) * 1e3 / len(calls))
    return _row(per_call, len(calls))


def _row(per_call: list, calls: int) -> dict:
    return {
        "unit": "ms",
        "median": statistics.median(per_call),
        "min": min(per_call),
        "max": max(per_call),
        "calls_per_pass": calls,
        "passes": len(per_call),
    }


def _geometric(window: int, search_length: int) -> dict:
    from pickdisc.encode import build_configuration, geometric_equivalence, make_params

    params = make_params(window=window)
    configs = [
        (build_configuration(a, params), build_configuration(b, params))
        for a, b in _pairs(window, search_length, f"geometric:{window}:{search_length}")
    ]
    return _time(
        [lambda p=p, q=q: geometric_equivalence(p, q, params, search_length) for p, q in configs]
    )


def _geometric_first_call(window: int, search_length: int) -> dict:
    """One call per fresh params, its reference built first: what a one-shot command pays."""
    from pickdisc.encode import build_configuration, geometric_equivalence, make_params

    pairs = _pairs(window, search_length, f"first:{window}:{search_length}", PASSES)
    per_call = []
    for index, (a, b) in enumerate(pairs):
        params = make_params(window=window, base=complex(0.0, 0.01 * (index + 1)))
        p, q = build_configuration(a, params), build_configuration(b, params)
        start = time.perf_counter()
        geometric_equivalence(p, q, params, search_length)
        per_call.append((time.perf_counter() - start) * 1e3)
    return _row(per_call, 1)


def _full_case(window: int, search_length: int) -> dict:
    """Two builds, geometric and word-search equivalence: one encode-equiv style case."""
    from pickdisc.encode import (
        build_configuration,
        geometric_equivalence,
        make_params,
        word_search_equivalence,
    )

    params = make_params(window=window)

    def case(a, b):
        p, q = build_configuration(a, params), build_configuration(b, params)
        geometric_equivalence(p, q, params, search_length)
        word_search_equivalence(a, b, params, search_length)

    pairs = _pairs(window, search_length, f"case:{window}:{search_length}", PAIRS // 2)
    return _time([lambda a=a, b=b: case(a, b) for a, b in pairs])


def _first_build(window: int) -> dict:
    """One build per fresh params, which builds its reference: what a one-shot command pays.

    The reference cache is cleared before each pass, so at most one
    window's reference is held at a time.
    """
    from pickdisc.encode import _reference, build_configuration, make_params

    subsets = [a for a, _ in _pairs(window, 0, f"first-build:{window}", PASSES + 1)]
    per_call, peak = [], None
    for index, subset in enumerate(subsets):
        params = make_params(window=window, base=complex(0.0, 0.01 * (index + 1)))
        _reference.cache_clear()
        if index == PASSES:  # the last build, untimed, for the memory peak
            tracemalloc.start()
            build_configuration(subset, params)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        else:
            start = time.perf_counter()
            build_configuration(subset, params)
            per_call.append((time.perf_counter() - start) * 1e3)
    _reference.cache_clear()
    return dict(_row(per_call, 1), tracemalloc_peak_mb=peak)


def _later_build(window: int) -> dict:
    from pickdisc.encode import build_configuration, make_params

    params = make_params(window=window)
    subsets = [a for a, _ in _pairs(window, 0, f"build:{window}")]
    return _time([lambda a=a: build_configuration(a, params) for a in subsets])


def _enumerate_words(max_length: int) -> dict:
    from pickdisc.fuchsian import enumerate_words

    return _time([lambda: enumerate_words(max_length)])


_ORBIT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from pickdisc.fuchsian import orbit_points
start = time.perf_counter()
orbit_points(0.1 + 0.05j, int(sys.argv[2]), store_limit=0)
elapsed = time.perf_counter() - start
with open("/proc/self/status") as status:
    hwm = next(line for line in status if line.startswith("VmHWM:"))
print(elapsed * 1e3, int(hwm.split()[1]) / 1024.0)
"""


def _orbit_points(max_length: int) -> dict:
    """One call per fresh child process, of the package this process imported."""
    import pickdisc

    src = str(Path(pickdisc.__file__).resolve().parents[1])
    per_call, rss = [], []
    for _ in range(PASSES):
        out = subprocess.run(
            [sys.executable, "-c", _ORBIT_CHILD, src, str(max_length)],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        per_call.append(float(out[0]))
        rss.append(float(out[1]))
    return dict(_row(per_call, 1), peak_rss_mb=max(rss))


def _kernels(seed: str, count: int = PAIRS) -> list:
    """Seeded log-convex float kernels of `KERNEL_TERMS` terms."""
    from pickdisc.seqkernel import RatioSequence, log_convex_from_ratios

    rng = random.Random(seed)
    return [
        log_convex_from_ratios(
            RatioSequence([rng.uniform(0.6, 0.98) for _ in range(KERNEL_TERMS - 1)]), KERNEL_TERMS
        )
        for _ in range(count)
    ]


def _kernel_eval(u: complex) -> dict:
    """One point of the Szego kernel's 256 terms per call, its float terms made once."""
    from pickdisc.seqkernel import CoefficientSequence, kernel_eval

    a = CoefficientSequence.ones(KERNEL_TERMS)
    return _time([lambda: kernel_eval(a, u)] * EVAL_CALLS)


def _pick_feasible(nodes: int) -> dict:
    """Feasible problems in the disc of radius 0.9: targets ``c z`` with ``|c| = 0.9 sqrt(a_1)``."""
    from pickdisc.pick import PickProblem, pick_feasible

    rng = random.Random(f"pick:{nodes}")
    problems = []
    for a in _kernels(f"pick-kernels:{nodes}"):
        points = [inputs.ball_point(rng, 1, 0.9 * math.sqrt(rng.random())) for _ in range(nodes)]
        c = 0.9 * math.sqrt(a.terms[1]) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        targets = [c * z for (z,) in points]
        problems.append(PickProblem(kernel=a, dimension=1, nodes=points, targets=targets))
    return _time([lambda p=p: pick_feasible(p) for p in problems])


def _b_from_a_float() -> dict:
    from pickdisc.seqkernel import b_from_a

    return _time([lambda a=a: b_from_a(a) for a in _kernels("b-from-a")])


def _b_from_a_exact() -> dict:
    from fractions import Fraction

    from pickdisc.seqkernel import CoefficientSequence, b_from_a

    a = CoefficientSequence.exact_rational([Fraction(1, n + 1) for n in range(EXACT_TERMS)])
    return _time([lambda: b_from_a(a)] * 10)


ROWS = {
    "encode.geometric_equivalence w=4 s=2": lambda: _geometric(4, 2),
    "encode.geometric_equivalence w=6 s=2": lambda: _geometric(6, 2),
    "encode.geometric_equivalence w=6 s=3": lambda: _geometric(6, 3),
    "encode.geometric_equivalence w=6 s=2, first call": lambda: _geometric_first_call(6, 2),
    "encode full case w=7 s=3": lambda: _full_case(7, 3),
    **{
        f"encode.build_configuration w={window}, {kind}": lambda w=window, m=measure: m(w)
        for kind, measure in (("first build", _first_build), ("later builds", _later_build))
        for window in (4, 6, 7, 8, 9, 10)
    },
    "fuchsian.enumerate_words(10)": lambda: _enumerate_words(10),
    "fuchsian.orbit_points L=12, fresh process": lambda: _orbit_points(12),
    "fuchsian.orbit_points L=14, fresh process": lambda: _orbit_points(14),
    "seqkernel.kernel_eval 256 terms, u=0.25+0.25i": lambda: _kernel_eval(0.25 + 0.25j),
    "seqkernel.kernel_eval 256 terms, u=0.6": lambda: _kernel_eval(0.6),
    "seqkernel.kernel_eval 256 terms, u=0.8": lambda: _kernel_eval(0.8),
    "seqkernel.b_from_a float, 256 terms": _b_from_a_float,
    "seqkernel.b_from_a exact 1/(n+1), 128 terms": _b_from_a_exact,
    "pick.pick_feasible 16 nodes": lambda: _pick_feasible(16),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding pickdisc")
    parser.add_argument("--baseline", help="an earlier output from the same host")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    result = {
        "environment": harness.environment_stamp(seed=0),
        "timer": "time.perf_counter, in process",
        "rows": {name: measure() for name, measure in ROWS.items()},
    }
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        if baseline["environment"] != result["environment"]:
            print("refused: the baseline was measured in another environment", file=sys.stderr)
            return 2
        result["baseline_rows"] = baseline["rows"]
        result["median_change"] = {
            name: row["median"] / baseline["rows"][name]["median"] - 1.0
            for name, row in result["rows"].items()
            if name in baseline["rows"]
        }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
