"""Release-gate checks for the whole package at desk scale.

Every test here pins explicit tolerances and asserts its own runtime
budget, so a regression in accuracy or speed fails loudly.  Randomness
is always seeded; reruns are deterministic.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from pickdisc.encode import (
    build_configuration,
    geometric_equivalence,
    make_params,
    word_search_equivalence,
)
from pickdisc.fuchsian import (
    GAMMA3,
    LAMBDA2,
    Word,
    calibrate_blaschke_thresholds,
    enumerate_words,
    load_blaschke_thresholds,
    orbit_points,
    word_to_matrix,
)
from pickdisc.hypgeo import (
    DegenerateConfigurationError,
    DiscAutomorphism,
    moebius_from_matrix,
    phi_a,
    rho,
    triple_rigidity_match,
)
from pickdisc.pick import PickProblem, pick_feasible
from pickdisc.seqkernel import (
    CoefficientSequence,
    RatioSequence,
    ScalingStepError,
    a_from_b,
    b_from_a,
    cumulative_product_deviation,
    log_convex_from_ratios,
    turbulence_step,
)


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"budget exceeded: {elapsed:.2f}s > {seconds}s"


# 1: coefficient roundtrip on a batch of log-convex sequences ---------------

def test_log_convex_roundtrip_batch():
    rng = random.Random(99)
    with budget(1.0):
        for _ in range(200):
            s = RatioSequence(tuple(rng.uniform(0.01, 0.99) for _ in range(63)))
            a = log_convex_from_ratios(s, 64)
            b = b_from_a(a)
            assert min(b.terms) >= -1e-12
            a_again = a_from_b(b, 64)
            assert max(abs(x - y) for x, y in zip(a, a_again)) <= 1e-12


# 2: the all-ones fixed point, exactly ---------------------------------------

def test_all_ones_reciprocal_pair_is_exact():
    ones = CoefficientSequence.ones(16, exact=True)
    b = b_from_a(ones)
    assert b.exact
    assert b.terms == (Fraction(1),) + (Fraction(0),) * 14
    back = a_from_b(b, 16)
    assert back.terms == (Fraction(1),) * 16
    seed = CoefficientSequence.exact_rational((1,) + (0,) * 14)
    assert a_from_b(seed, 16).terms == ones.terms


# 3: two-point feasibility against the closed-form criterion -----------------

def test_two_point_feasibility_grid():
    ones = CoefficientSequence.ones(256)
    with budget(5.0):
        checked = 0
        for xi in range(1, 10):
            x = xi / 10.0
            for yi in range(100):
                y = yi / 100.0
                if abs(y - x) < 1e-6:
                    continue
                problem = PickProblem(ones, 1, ((0j,), (x,)), (0j, y))
                assert pick_feasible(problem).is_psd == (abs(y) <= x), (x, y)
                checked += 1
        assert checked == 891


# 4: metric invariance and involution ----------------------------------------

def _random_disc_point(rng, bound=0.9):
    r = bound * math.sqrt(rng.random())
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def _random_automorphism(rng):
    mag = rng.uniform(1.0, 3.0)
    alpha = mag * complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))
    beta = rng.uniform(0.0, 0.9) * mag * complex(
        math.cos(u := rng.uniform(0, 2 * math.pi)), math.sin(u)
    )
    return DiscAutomorphism(alpha, beta)


def test_metric_invariance_and_involution_batch():
    rng = random.Random(4)
    with budget(5.0):
        for _ in range(1000):
            a, b = _random_disc_point(rng), _random_disc_point(rng)
            f = _random_automorphism(rng)
            assert abs(rho(f(a), f(b)) - rho(a, b)) <= 1e-10
        nprng = np.random.default_rng(4)
        for d in (1, 2, 3):
            for _ in range(200):
                if d == 1:
                    a, z = _random_disc_point(rng), _random_disc_point(rng)
                    assert abs(phi_a(a, phi_a(a, z)) - z) <= 1e-10
                else:
                    v = nprng.standard_normal(d) + 1j * nprng.standard_normal(d)
                    w = nprng.standard_normal(d) + 1j * nprng.standard_normal(d)
                    a = v / (1.0 + np.linalg.norm(v))
                    z = w / (1.0 + np.linalg.norm(w))
                    back = phi_a(a, phi_a(a, z))
                    assert float(np.max(np.abs(back - z))) <= 1e-10


# 5: the exact group layer ----------------------------------------------------

def test_word_counts_and_homomorphisms():
    with budget(15.0):
        words = enumerate_words(10)
        by_len = {}
        for w in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        for L in range(11):
            assert sum(by_len.get(k, 0) for k in range(L + 1)) == 2 * 3**L - 1

        pool = enumerate_words(8)
        rng = random.Random(55)
        for _ in range(1000):
            w1, w2 = rng.choice(pool), rng.choice(pool)
            assert (
                word_to_matrix(w1 * w2, GAMMA3).entries()
                == (word_to_matrix(w1, GAMMA3) @ word_to_matrix(w2, GAMMA3)).entries()
            )

        short = enumerate_words(4)
        samples = (0j, 0.3 - 0.2j, -0.45 + 0.1j, 0.62 + 0.05j)
        for _ in range(200):
            w1, w2 = rng.choice(short), rng.choice(short)
            lhs = moebius_from_matrix(word_to_matrix(w1 * w2, GAMMA3))
            rhs = moebius_from_matrix(word_to_matrix(w1, GAMMA3)).compose(
                moebius_from_matrix(word_to_matrix(w2, GAMMA3))
            )
            # the maps themselves must agree tightly everywhere; the raw
            # coefficient pairs only while they are small, because the
            # unit-normalization of (alpha, beta) loses one ulp of
            # |alpha|^2 - |beta|^2, which at coefficient scale ~1e3 is
            # already a 1e-9 relative wobble
            assert all(abs(lhs(z) - rhs(z)) <= 1e-10 for z in samples)
            if len(w1) + len(w2) <= 4:
                assert lhs.almost_equal(rhs, tol=1e-10)


# 6: sphere-sum contrast against the frozen calibration -----------------------

def test_sphere_sum_contrast_at_depth_twelve():
    frozen = load_blaschke_thresholds()
    theta_c = frozen["theta_converging"]
    theta_d = frozen["theta_diverging"]
    assert theta_c < theta_d
    with budget(30.0):
        fresh = calibrate_blaschke_thresholds(max_length=12)
        assert fresh["theta_converging"] == pytest.approx(theta_c, rel=1e-12)
        assert fresh["theta_diverging"] == pytest.approx(theta_d, rel=1e-12)
        gamma_ratios = fresh["calibration"]["gamma3_ratios"]
        lambda_ratios = fresh["calibration"]["lambda2_ratios"]
        assert len(gamma_ratios) == len(lambda_ratios) == 12
        for L in range(4, 12):  # entry L is the step from level L to L + 1
            assert gamma_ratios[L] < theta_c < 1.0
            assert lambda_ratios[L] > theta_d


# 7: encoding equivalence at desk scale ---------------------------------------

def test_encoding_equivalence_desk_scale():
    params = make_params()
    pool = enumerate_words(2)
    rng = random.Random(2024)
    probes = (0j, 0.31, -0.2 + 0.4j, 0.1 - 0.55j)
    with budget(60.0):
        for _ in range(50):
            subset = rng.sample(pool, rng.randint(1, 3))
            encoded = build_configuration(subset, params)
            for g in pool:
                translated = build_configuration([g * w for w in subset], params)
                geo = geometric_equivalence(encoded, translated, params, 2)
                ws = word_search_equivalence(
                    subset, [g * w for w in subset], params, 2
                )
                assert geo.equivalent and ws.equivalent
                assert geo.witness_word == ws.witness_word == g
                realized = moebius_from_matrix(word_to_matrix(g, GAMMA3))
                for z in probes:
                    assert abs(geo.witness_map(z) - realized(z)) <= 1e-9

        rejected = 0
        while rejected < 50:
            size = rng.randint(1, 3)
            set_a = frozenset(rng.sample(pool, size))
            set_b = frozenset(rng.sample(pool, size))
            if any(frozenset(g * w for w in set_a) == set_b for g in pool):
                continue  # plain set arithmetic, independent of the library
            geo = geometric_equivalence(
                build_configuration(set_a, params),
                build_configuration(set_b, params),
                params,
                2,
            )
            ws = word_search_equivalence(set_a, set_b, params, 2)
            assert not geo.equivalent and not ws.equivalent
            rejected += 1


# 8: rigidity of labeled triples ----------------------------------------------

def test_triple_rigidity_batch():
    rng = random.Random(7)
    produced = 0
    with budget(10.0):
        while produced < 200:
            pts = [_random_disc_point(rng, bound=0.8) for _ in range(3)]
            dists = [rho(pts[i], pts[j]) for i in range(3) for j in range(i + 1, 3)]
            if min(
                abs(dists[i] - dists[j]) for i in range(3) for j in range(i + 1, 3)
            ) < 1e-5:
                continue
            order = [0, 1, 2]
            rng.shuffle(order)
            candidates = [pts[i] for i in order]
            if rng.random() < 0.5:
                decoy = _random_disc_point(rng, bound=0.8)
                with_decoy = candidates + [decoy]
                pair_d = [
                    rho(with_decoy[i], with_decoy[j])
                    for i in range(4)
                    for j in range(i + 1, 4)
                ]
                if min(
                    abs(pair_d[i] - pair_d[j])
                    for i in range(6)
                    for j in range(i + 1, 6)
                ) < 1e-5:
                    continue
                candidates = with_decoy
            sigma = triple_rigidity_match(pts, candidates, delta=1e-6, tol=1e-9)
            assert [candidates[s] for s in sigma] == pts
            produced += 1

    # an isoceles candidate set is ambiguous by construction
    with pytest.raises(DegenerateConfigurationError):
        triple_rigidity_match(
            (0j, 0.2, 0.1 + 0.2j), (0.3, -0.3, 0.25j), delta=1e-6
        )


# 9: scaling steps hit their targets ------------------------------------------

def test_scaling_step_batch():
    rng = random.Random(31)
    produced = 0
    draws = 0
    with budget(10.0):
        while produced < 100:
            draws += 1
            assert draws < 10_000, "feasible instances should not be this rare"
            n1 = rng.randint(0, 8)
            len_s = rng.randint(n1 + 2, 12)
            len_t = rng.randint(n1 + 1, 12)
            s = RatioSequence(tuple(rng.uniform(0.05, 0.95) for _ in range(len_s)))
            t = RatioSequence(tuple(rng.uniform(0.05, 0.95) for _ in range(len_t)))
            eps = 0.1 if produced % 2 == 0 else 0.01
            try:
                g, n_exp = turbulence_step(s, t, n1, eps)
            except ScalingStepError:
                continue
            deviation, _ = cumulative_product_deviation(g, len(g))
            assert deviation < eps
            for k in range(n1 + 1):
                assert abs(g[k] ** n_exp * s.terms[k] - t.terms[k]) <= 1e-12
            produced += 1


# 10: the CLI battery is byte-deterministic across processes ------------------

_BATTERY = [
    ["coeffs", "--from-a", "1,1,1,1"],
    ["coeffs", "--from-a", "1,1/2,1/3,1/4", "--exact"],
    ["coeffs", "--from-b", "1,0,0", "--n", "6"],
    ["admissible", "--a", "1,1,1,1"],
    ["growth", "--a", "1,0.5,0.25", "--a-prime", "1,1,1"],
    ["pick", "--kernel", "ones", "--nodes", "0;0.5", "--targets", "0;0.3"],
    ["pick", "--kernel", "ones", "--nodes", "0,0;0.3,0.4", "--targets", "0;0.6"],
    ["kernel-eval", "--kernel", "szego", "--u", "0.25+0.25i"],
    ["kernel-eval", "--a", "1,1,1", "--u", "0.9"],
    ["orbit", "--L", "4", "--z", "0.1+0.2i", "--format", "csv"],
    ["orbit", "--L", "3"],
    ["blaschke", "--preset", "GAMMA3", "--L", "10", "--format", "csv"],
    ["blaschke", "--preset", "LAMBDA2", "--L", "8"],
    ["separation", "--L", "6"],
    ["encode-build", "--subset", "e,a,bA", "--window", "3", "--format", "csv"],
    ["encode-build", "--subset", "e", "--window", "2", "--mask", "--format", "csv"],
    ["encode-test", "--subset-a", "e,a", "--subset-b", "b,ba", "--search-length", "2"],
    ["turbulence-step", "--s", "0.5,0.5,0.5,0.5", "--t", "0.7,0.7", "--n1", "1",
     "--eps", "0.01"],
    ["da-inner", "--alpha", "2,1", "--beta", "2,1"],
]

_DRIVER = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from pickdisc.cli import main

battery = json.loads(sys.argv[1])
for argv in battery:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    sys.stdout.write(json.dumps(
        {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    ) + "\\n")
"""


def _run_battery():
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(_BATTERY)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_battery_is_deterministic():
    with budget(60.0):
        first = _run_battery()
        second = _run_battery()
    assert first == second
    records = [json.loads(line) for line in first.strip().split("\n")]
    assert len(records) == len(_BATTERY)
    expect_failure = {6, 8}  # infeasible pick data, uncertifiable evaluation
    for i, r in enumerate(records):
        assert r["code"] == (1 if i in expect_failure else 0), r
    assert '"feasible": false' in records[6]["stdout"]
    assert records[8]["stderr"].startswith("error:")
    for r in records:
        if "csv" not in r["argv"]:
            json.loads(r["stdout"], parse_constant=_refuse_non_finite)


def _refuse_non_finite(name):
    raise AssertionError(f"non-finite number {name} in the JSON output")
