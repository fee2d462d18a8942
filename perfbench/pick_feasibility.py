"""pick-feasibility: build a kernel, evaluate it, decide one Pick problem.

This workload touches `seqkernel` and `pick` only.  Float kernels come
from 255 seeded successor ratios in [0.6, 0.98] (256 terms), which keeps
every b_n comfortably positive; every eighth operation takes the exact
kernel a_n = 1/(n+1) with 128 terms instead.  Nodes lie in the ball of
radius 0.9, so every kernel evaluation certifies well inside the
supplied terms even with the ratio bound 1.

Feasible problems have targets c * z_1 with |c| = 0.9 sqrt(a_1): the
multiplier norm of z_1 is 1/sqrt(a_1) for these kernels.  Infeasible
problems contain the nodes 0 and x with targets 0 and t, where
|t|^2 = 1 - 0.5 / K(x, x), so their 2x2 Pick minor is -0.5.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pickdisc.pick import PickProblem, build_pick_matrix, min_eigenvalue
from pickdisc.seqkernel import (
    CoefficientSequence,
    RatioSequence,
    b_from_a,
    kernel_eval,
    log_convex_from_ratios,
)

import harness
import inputs

TERMS = 256
EXACT_TERMS = 128
EXACT_EVERY = 8
NODE_COUNTS = (16, 32, 48)
DIMENSIONS = (1, 2, 3)
RADIUS = 0.9
RATIO_RANGE = (0.6, 0.98)
SAMPLES = 4
MINOR = -0.5
# Node count, dimension and feasibility repeat every 18 operations and the
# exact kernel every 8: one cycle of 72 holds each combination four times.
CYCLE = 72
EVAL_SLACK = 1e-12

PEAK_RSS_OF_CHILDREN = False


@dataclass
class State:
    seed: int
    exact_kernel: CoefficientSequence


@dataclass
class Case:
    exact: bool
    ratios: tuple | None
    a_floats: np.ndarray  # the kernel, computed here independently of pickdisc
    dimension: int
    nodes: tuple
    targets: tuple
    samples: tuple
    feasible: bool


def setup(seed: int, tracer) -> State:
    exact = CoefficientSequence.exact_rational([Fraction(1, n + 1) for n in range(EXACT_TERMS)])
    return State(seed, exact)


def _series(a: np.ndarray, u: complex) -> complex:
    return complex(np.sum(a * u ** np.arange(a.shape[0])))


def make_input(state: State, index: int) -> Case:
    rng = random.Random(f"pick-feasibility:{state.seed}:{index}")
    exact = index % EXACT_EVERY == EXACT_EVERY - 1
    n = NODE_COUNTS[index % 3]
    dimension = DIMENSIONS[(index // 3) % 3]
    # Exact operations all fall on odd indices, so they alternate by cycle of 8.
    feasible = (index // EXACT_EVERY if exact else index) % 2 == 0
    if exact:
        ratios = None
        a = 1.0 / np.arange(1, EXACT_TERMS + 1)
    else:
        ratios = tuple(rng.uniform(*RATIO_RANGE) for _ in range(TERMS - 1))
        a = np.exp(-np.concatenate(([0.0], np.cumsum(np.cumprod(ratios)))))
    nodes = [inputs.ball_point(rng, dimension, RADIUS * math.sqrt(rng.random())) for _ in range(n)]
    c = 0.9 * math.sqrt(a[1]) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    targets = [c * z[0] for z in nodes]
    if not feasible:
        i, j = rng.sample(range(n), 2)
        x = inputs.ball_point(rng, dimension, rng.uniform(0.3, RADIUS))
        k_xx = _series(a, sum(abs(v) ** 2 for v in x)).real
        t = math.sqrt(1.0 - (1.0 + MINOR) / k_xx)
        nodes[i], targets[i] = (0j,) * dimension, 0j
        nodes[j], targets[j] = x, t * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    samples = tuple(inputs.disc_point(rng, RADIUS**2) for _ in range(SAMPLES))
    return Case(exact, ratios, a, dimension, tuple(nodes), tuple(targets), samples, feasible)


def kind(case: Case) -> str:
    kernel = "exact" if case.exact else "float"
    verdict = "feasible" if case.feasible else "infeasible"
    return f"{kernel}-n{len(case.nodes)}-d{case.dimension}-{verdict}"


def run_op(state: State, case: Case, tracer):
    if case.exact:
        a = state.exact_kernel
        with tracer.span("seqkernel.b_from_a_exact"):
            b = b_from_a(a)
    else:
        with tracer.span("seqkernel.log_convex_from_ratios"):
            a = log_convex_from_ratios(RatioSequence(case.ratios), TERMS)
        with tracer.span("seqkernel.b_from_a"):
            b = b_from_a(a)
    b_nonnegative = all(t >= 0 for t in b.terms)
    values = []
    for u in case.samples:
        with tracer.span("seqkernel.kernel_eval"):
            value = kernel_eval(a, u)
        tracer.count("seqkernel.kernel_eval_terms_used", value.terms_used)
        values.append(value)
    problem = PickProblem(kernel=a, dimension=case.dimension, nodes=case.nodes, targets=case.targets)
    with tracer.span("pick.build_pick_matrix"):
        matrix = build_pick_matrix(problem)
    with tracer.span("pick.min_eigenvalue"):
        report = min_eigenvalue(matrix)
    n = len(case.nodes)
    tracer.count("pick.entries", n * (n + 1) // 2)
    tracer.count("pick.psd", report.is_psd)
    return b_nonnegative, values, report


def check(state: State, case: Case, out) -> str | None:
    """b >= 0, each evaluation within its tail bound, and the verdict by construction."""
    b_nonnegative, values, report = out
    if not b_nonnegative:
        return "b_from_a of a log-convex kernel has a negative entry"
    for u, value in zip(case.samples, values):
        miss = abs(value.value - _series(case.a_floats, u))
        if miss > value.tail_bound + EVAL_SLACK:
            return f"kernel_eval at {u:.4g} is {miss:.3g} off, beyond its tail bound {value.tail_bound:.3g}"
    if report.is_psd != case.feasible:
        return f"PSD verdict {report.is_psd} (min eigenvalue {report.min_eigenvalue:.3g}), expected {case.feasible}"
    return None


def layer_metrics(tracer) -> dict:
    def ms(name):
        return harness.median_or_zero(tracer.durations_ms(name))

    return {
        "seqkernel.log_convex_from_ratios_ms": ms("seqkernel.log_convex_from_ratios"),
        "seqkernel.b_from_a_ms": ms("seqkernel.b_from_a"),
        "seqkernel.b_from_a_exact_ms": ms("seqkernel.b_from_a_exact"),
        "seqkernel.kernel_eval_us": 1000.0 * ms("seqkernel.kernel_eval"),
        "seqkernel.kernel_eval_terms_used": harness.mean_or_zero(tracer.counts.get("seqkernel.kernel_eval_terms_used", ())),
        "pick.build_pick_matrix_ms": ms("pick.build_pick_matrix"),
        "pick.entries": harness.mean_or_zero(tracer.counts.get("pick.entries", ())),
        "pick.min_eigenvalue_ms": ms("pick.min_eigenvalue"),
        "pick.psd_frac": harness.mean_or_zero(tracer.counts.get("pick.psd", ())),
    }
