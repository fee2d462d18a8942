"""cli-oneshot: one `pickdisc` command per fresh child process.

Every operation pays interpreter start-up, imports and the cold
in-process caches, as a CLI user does.  The mix covers the aggregate
orbit BFS (`blaschke` at L=12 for both presets, `separation`), the
stored-row CSV export (`orbit` at L=8), the encode layer from cold
(`encode-test` at window 6), and the small `pick` and `coeffs --exact`
commands.  Children run one at a time through `cli_child.py`, which
reports import and `main` times separately.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import harness
import inputs

CHILD = str(Path(__file__).with_name("cli_child.py"))
TIMING_PREFIX = "perfbench-timing "
CHILD_TIMEOUT_S = 120
BLASCHKE_L = 12
BLASCHKE_RADIUS = 0.6
ORBIT_L = 8
ENCODE_WINDOW = 6
ENCODE_SEARCH = 2
PICK_NODES = 4
PICK_DIMENSION = 2
PICK_TERMS = 256  # the CLI's default --n-terms
EXPECTED_VERDICT = {"GAMMA3": "converging", "LAMBDA2": "not converging"}
# Per cycle of 20: eight commands faster than `blaschke` (six start-up
# bound ones at about 0.2 s, two `orbit`), four `blaschke` and eight
# slower `encode-test`.  The median then falls in the middle of the
# `blaschke` group and the tail inside the `encode-test` group, not on
# the edge between two groups of commands, where it would jump from run
# to run.
COMMANDS = (
    "blaschke-GAMMA3",
    "separation-GAMMA3",
    "orbit",
    "encode_test-other",
    "encode_test-translate",
    "pick-feasible",
    "blaschke-LAMBDA2",
    "encode_test-translate",
    "coeffs-from_a",
    "encode_test-other",
    "blaschke-GAMMA3",
    "separation-LAMBDA2",
    "orbit",
    "encode_test-other",
    "encode_test-translate",
    "pick-infeasible",
    "blaschke-LAMBDA2",
    "encode_test-translate",
    "coeffs-from_b",
    "encode_test-other",
)
CYCLE = len(COMMANDS)
MAIN_NAMES = ("blaschke", "separation", "orbit", "encode_test", "pick", "coeffs")

PEAK_RSS_OF_CHILDREN = True


@dataclass
class State:
    seed: int


@dataclass
class Command:
    kind: str
    argv: list
    expect_code: int
    expect: dict  # what the oracle checks, per command


def _fmt(z: complex) -> str:
    # Passed as --flag=value: a leading minus sign would otherwise read as a flag.
    return f"{z.real!r}{z.imag:+.17g}j"


def run_child(argv: list) -> subprocess.CompletedProcess:
    return harness.run_process(
        [sys.executable, CHILD] + argv, CHILD_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )


def setup(seed: int, tracer) -> State:
    # One untimed child compiles the package's bytecode and warms the file cache.
    warm = run_child(["da-inner", "--alpha", "1", "--beta", "1"])
    if warm.returncode != 0:
        raise RuntimeError(f"pickdisc CLI does not run: {warm.stderr.decode(errors='replace')}")
    return State(seed)


def make_input(state: State, index: int) -> Command:
    rng = random.Random(f"cli-oneshot:{state.seed}:{index}")
    kind = COMMANDS[index % CYCLE]
    if kind.startswith("blaschke"):
        preset = kind.split("-")[1]
        z = inputs.disc_point(rng, BLASCHKE_RADIUS)
        argv = ["blaschke", "--L", str(BLASCHKE_L), "--preset", preset, f"--z={_fmt(z)}"]
        return Command(kind, argv, 0, {"verdict": EXPECTED_VERDICT[preset]})
    if kind == "orbit":
        z = inputs.disc_point(rng, BLASCHKE_RADIUS)
        argv = ["orbit", "--L", str(ORBIT_L), "--format", "csv", f"--z={_fmt(z)}"]
        return Command(kind, argv, 0, {"words": [inputs.to_string(w) for w in inputs.canonical_words(ORBIT_L)]})
    if kind.startswith("separation"):
        preset = kind.split("-")[1]
        z = inputs.disc_point(rng, BLASCHKE_RADIUS)
        argv = ["separation", "--L", str(ORBIT_L), "--preset", preset, f"--z={_fmt(z)}"]
        return Command(kind, argv, 0, {"preset": preset})
    if kind.startswith("encode_test"):
        translate = kind.endswith("translate")
        a, b, g = inputs.subset_pair(rng, ENCODE_WINDOW, ENCODE_SEARCH, rng.randint(2, 3), translate)
        # The default base 0: some other bases miss translates (known_defects.py).
        argv = [
            "encode-test", "--window", str(ENCODE_WINDOW), "--search-length", str(ENCODE_SEARCH),
            "--subset-a", ",".join(inputs.to_string(w) for w in sorted(a)),
            "--subset-b", ",".join(inputs.to_string(w) for w in sorted(b)),
        ]
        witness = inputs.to_string(g) if g is not None else None
        return Command(kind, argv, 0 if translate else 1, {"equivalent": translate, "witness": witness})
    if kind.startswith("pick"):
        feasible = kind.endswith("-feasible")
        nodes = [inputs.ball_point(rng, PICK_DIMENSION, 0.9 * math.sqrt(rng.random())) for _ in range(PICK_NODES)]
        c = 0.9 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))  # a_1 = 1 for the all-ones kernel
        targets = [c * z[0] for z in nodes]
        if not feasible:
            x = inputs.ball_point(rng, PICK_DIMENSION, rng.uniform(0.3, 0.9))
            r = sum(abs(v) ** 2 for v in x)
            k_xx = (1.0 - r**PICK_TERMS) / (1.0 - r)
            nodes[0], targets[0] = (0j,) * PICK_DIMENSION, 0j
            nodes[1] = x
            targets[1] = math.sqrt(1.0 - 0.5 / k_xx) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        argv = [
            "pick", "--kernel", "ones",
            "--nodes=" + ";".join(",".join(_fmt(v) for v in z) for z in nodes),
            "--targets=" + ";".join(_fmt(t) for t in targets),
        ]
        return Command(kind, argv, 0 if feasible else 1, {"feasible": feasible})
    n_terms = rng.randint(16, 32)
    if kind == "coeffs-from_a":
        a = [Fraction(1, n + 1) for n in range(n_terms)]
        argv = ["coeffs", "--exact", "--from-a", ",".join(str(t) for t in a)]
        return Command(kind, argv, 0, {"a": a})
    b = [Fraction(1, rng.randint(2, 9)) for _ in range(n_terms - 1)]
    argv = ["coeffs", "--exact", "--from-b", ",".join(str(t) for t in b), "--n", str(n_terms)]
    return Command(kind, argv, 0, {"b": b})


def kind(cmd: Command) -> str:
    return cmd.kind


def _timing(stderr: bytes) -> dict | None:
    lines = stderr.decode(errors="replace").strip().splitlines()
    if not lines or not lines[-1].startswith(TIMING_PREFIX):
        return None
    return json.loads(lines[-1][len(TIMING_PREFIX):])


def run_op(state: State, cmd: Command, tracer):
    spawn = harness.clock_ns()
    proc = run_child(cmd.argv)
    if tracer.enabled:
        timing = _timing(proc.stderr)
        if timing is not None:
            startup = tracer.add_span("cli.startup", spawn, timing["imported"])
            tracer.add_span("cli.import", timing["start"], timing["imported"], parent=startup)
            name = cmd.kind.split("-")[0]
            tracer.add_span(f"cli.main.{name}", timing["imported"], timing["done"])
        if cmd.kind == "orbit":
            tracer.count("cli.output_bytes", len(proc.stdout))
    return proc


def check(state: State, cmd: Command, proc) -> str | None:
    """Exit code, a parsable payload, and the verdict the inputs were built for."""
    if _timing(proc.stderr) is None:
        return f"child gave no timing line; stderr: {proc.stderr[-300:]!r}"
    if proc.returncode != cmd.expect_code:
        return f"exit code {proc.returncode}, expected {cmd.expect_code}"
    text = proc.stdout.decode()
    if cmd.kind == "orbit":
        return _check_orbit_csv(text, cmd.expect["words"])
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    expect = cmd.expect
    if cmd.kind.startswith("blaschke"):
        if payload.get("verdict") != expect["verdict"]:
            return f"verdict {payload.get('verdict')!r}, expected {expect['verdict']!r}"
        if len(payload.get("partial_sums", ())) != BLASCHKE_L + 1:
            return "partial sums do not cover every sphere"
    elif cmd.kind.startswith("separation"):
        if payload.get("preset") != expect["preset"] or not 0.0 < payload.get("separation", 0.0) < 1.0:
            return f"separation payload {payload} is not a distance for {expect['preset']}"
    elif cmd.kind.startswith("encode_test"):
        for mode in ("geometric", "word_search"):
            verdict = payload.get(mode, {})
            if verdict.get("equivalent") != expect["equivalent"]:
                return f"{mode} verdict {verdict.get('equivalent')}, expected {expect['equivalent']}"
            if verdict.get("witness_word") != expect["witness"]:
                return f"{mode} witness {verdict.get('witness_word')}, expected {expect['witness']}"
        if payload.get("agree") is not True:
            return "geometric and word-search verdicts disagree"
    elif cmd.kind.startswith("pick"):
        if payload.get("feasible") != expect["feasible"]:
            return f"feasible {payload.get('feasible')}, expected {expect['feasible']}"
    elif cmd.kind.startswith("coeffs"):
        return _check_coeffs(payload, expect)
    return None


def _check_orbit_csv(text: str, expected_words: list) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["word", "length", "re", "im", "one_minus_abs"]:
        return "orbit CSV header is missing"
    body = rows[1:]
    if len(body) != 2 * 3**ORBIT_L - 1:
        return f"orbit CSV has {len(body)} rows, expected {2 * 3**ORBIT_L - 1}"
    for row, word in zip(body, expected_words):
        if row[0] != word or int(row[1]) != (0 if word == "e" else len(word)):
            return f"orbit row {row[:2]} out of canonical order (expected {word})"
        if not float(row[2]) ** 2 + float(row[3]) ** 2 < 1.0:
            return f"orbit point of {word} is not inside the disc"
    return None


def _check_coeffs(payload: dict, given: dict) -> str | None:
    """The given side is echoed and a_n = sum_k b_k a_(n-k) holds exactly."""
    if payload.get("exact") is not True:
        return "coeffs --exact did not answer exactly"
    a = [Fraction(t) for t in payload.get("a", ())]
    b = [Fraction(t) for t in payload.get("b", ())]
    side, values = next(iter(given.items()))
    if {"a": a, "b": b}[side] != values:
        return f"the {side} coefficients were not returned as given"
    if len(b) != len(a) - 1 or not a or a[0] != 1:
        return f"{len(b)} b coefficients for {len(a)} a coefficients"
    for n in range(1, len(a)):
        if a[n] != sum(b[k - 1] * a[n - k] for k in range(1, n + 1)):
            return f"a_{n} != sum_k b_k a_(n-k)"
    return None


def layer_metrics(tracer) -> dict:
    out = {
        "cli.startup_ms": harness.median_or_zero(tracer.durations_ms("cli.startup")),
        "cli.import_ms": harness.median_or_zero(tracer.durations_ms("cli.import")),
        "cli.output_bytes": harness.mean_or_zero(tracer.counts.get("cli.output_bytes", ())),
    }
    for name in MAIN_NAMES:
        out[f"cli.main.{name}_ms"] = harness.median_or_zero(tracer.durations_ms(f"cli.main.{name}"))
    return out
