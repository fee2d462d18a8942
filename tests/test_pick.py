"""Tests for Pick matrices and PSD feasibility verdicts.

The reference verdicts come from an exact rational oracle: for the
all-ones kernel and real rational data the Pick matrix is a matrix of
Fractions, and positive semidefiniteness is decided exactly through the
elementary symmetric functions of the eigenvalues (sums of principal
minors, all of which must be nonnegative).
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pickdisc.hypgeo import phi_a, rho
from pickdisc.pick import (
    HermitianMatrix,
    PickProblem,
    build_pick_matrix,
    gram_and_irreducibility,
    min_eigenvalue,
    pick_feasible,
    _kernel_gram,
    _pairings,
)
from pickdisc.seqkernel import (
    CoefficientSequence,
    RatioSequence,
    UncertifiedEvaluationError,
    check_admissible_log_convex,
    kernel_eval,
    log_convex_from_ratios,
    turbulence_step,
)

ONES = CoefficientSequence.ones(256)


# ---------------------------------------------------------------------------
# exact rational oracle
# ---------------------------------------------------------------------------

def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = head * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _psd_exact(rows):
    # the characteristic polynomial of a symmetric matrix has coefficients
    # (-1)^k e_k with e_k the sum of all k x k principal minors; the matrix
    # is PSD exactly when every e_k is >= 0
    n = len(rows)
    for k in range(1, n + 1):
        e_k = Fraction(0)
        for subset in itertools.combinations(range(n), k):
            e_k += _det([[rows[i][j] for j in subset] for i in subset])
        if e_k < 0:
            return False
    return True


def _rational_pick_matrix(xs, ts):
    # all-ones kernel in one variable: K(x, y) = 1 / (1 - x y)
    return [
        [(1 - ti * tj) / (1 - xi * xj) for xj, tj in zip(xs, ts)]
        for xi, ti in zip(xs, ts)
    ]


def test_exact_oracle_agrees_with_solver_on_random_rational_data():
    rng = random.Random(20240817)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 4)
        xs = rng.sample([Fraction(k, 16) for k in range(-12, 13)], n)
        ts = [Fraction(rng.randint(-8, 8), 8) for _ in range(n)]
        rows = _rational_pick_matrix(xs, ts)
        floats = np.array([[float(v) for v in row] for row in rows])
        margin = float(np.min(np.linalg.eigvalsh(floats)))
        if abs(margin) < 1e-6:
            continue  # too close to the PSD boundary to compare verdicts
        problem = PickProblem(
            ONES, 1, tuple((complex(x),) for x in xs), tuple(complex(t) for t in ts)
        )
        report = pick_feasible(problem)
        assert report.is_psd == _psd_exact(rows)
        assert report.min_eigenvalue == pytest.approx(margin, abs=1e-8)
        checked += 1


# ---------------------------------------------------------------------------
# two-point problems with known closed forms
# ---------------------------------------------------------------------------

def test_two_point_matrix_matches_closed_form():
    x, y = 0.5, 0.3
    problem = PickProblem(ONES, 1, ((0j,), (x + 0j,)), (0j, y + 0j))
    m = build_pick_matrix(problem)
    expected = np.array([[1.0, 1.0], [1.0, (1 - y**2) / (1 - x**2)]])
    assert np.allclose(m.array, expected, rtol=0.0, atol=1e-9)


def test_schwarz_inequality_on_the_disc():
    # the classical two-point criterion: 0 -> 0, x -> y is solvable by a
    # norm-one multiplier exactly when |y| <= |x|
    assert pick_feasible(PickProblem(ONES, 1, ((0j,), (0.5,)), (0j, 0.3))).is_psd
    report = pick_feasible(PickProblem(ONES, 1, ((0j,), (0.5,)), (0j, 0.7)))
    assert not report.is_psd
    assert report.min_eigenvalue < -1e-3


def test_two_point_criterion_in_the_ball_uses_the_node_norm():
    # in two variables the same problem is governed by ||z||: with nodes
    # 0 and z = (0.3, 0.4) the threshold sits at |t| = 0.5
    nodes = ((0j, 0j), (0.3, 0.4))
    for t, feasible in ((0.45, True), (0.45j, True), (0.55, False), (-0.6j, False)):
        report = pick_feasible(PickProblem(ONES, 2, nodes, (0j, t)))
        assert report.is_psd == feasible, t


def test_boundary_target_on_single_node_is_feasible():
    report = pick_feasible(PickProblem(ONES, 1, ((0.2,),), (1.0,)))
    assert report.is_psd
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_scaling_all_targets_down_preserves_feasibility():
    rng = random.Random(3)
    nodes = tuple((complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)),) for _ in range(3))
    targets = tuple(0.8 * complex(n[0]) for n in nodes)  # multiple of identity map
    base = pick_feasible(PickProblem(ONES, 1, nodes, targets))
    assert base.is_psd
    for c in (0.9, 0.5, 0.1, 0.0):
        scaled = tuple(c * t for t in targets)
        assert pick_feasible(PickProblem(ONES, 1, nodes, scaled)).is_psd


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_problem_rejects_bad_data():
    with pytest.raises(ValueError):
        PickProblem(ONES, 0, ((0j,),), (0j,))
    with pytest.raises(ValueError):
        PickProblem(ONES, 1, (), ())
    with pytest.raises(ValueError):
        PickProblem(ONES, 1, ((0j,), (0.5,)), (0j,))  # count mismatch
    with pytest.raises(ValueError):
        PickProblem(ONES, 2, ((0j,),), (0j,))  # wrong arity
    with pytest.raises(ValueError):
        PickProblem(ONES, 1, ((1.0,),), (0j,))  # on the sphere
    with pytest.raises(ValueError):
        PickProblem(ONES, 1, ((0.3,), (0.3,)), (0j, 0j))  # coincident
    with pytest.raises(ValueError):
        PickProblem(ONES, 1, ((0.3,),), (1.2,))  # target outside


def test_coincident_nodes_name_the_first_pair():
    # (0, 4) and (1, 3) coincide; the error names the first pair in row order
    nodes = ((0.1,), (0.3,), (0.2,), (0.3 + 1e-13,), (0.1,))
    with pytest.raises(ValueError, match="nodes 0 and 4 coincide"):
        PickProblem(ONES, 1, nodes, (0j,) * 5)
    # the gap is the largest coordinate difference
    nodes = ((0.1, 0.2), (0.1 + 5e-13, 0.2 - 5e-13), (0.1, 0.2 + 2e-12))
    with pytest.raises(ValueError, match="nodes 0 and 1 coincide"):
        PickProblem(ONES, 2, nodes, (0j,) * 3)
    assert len(PickProblem(ONES, 2, nodes[::2], (0j,) * 2)) == 2


def test_problem_len_and_coercion():
    problem = PickProblem(ONES, 1, ((0.25,), (0.5,)), (0, Fraction(1, 2)))
    assert len(problem) == 2
    assert problem.targets == (0j, 0.5 + 0j)
    assert problem.nodes[1] == (0.5 + 0j,)


def test_uncertifiable_kernel_evaluation_propagates():
    short = CoefficientSequence.ones(8)
    problem = PickProblem(short, 1, ((0.95,),), (0j,))
    with pytest.raises(UncertifiedEvaluationError):
        build_pick_matrix(problem)


# ---------------------------------------------------------------------------
# HermitianMatrix and the eigenvalue report
# ---------------------------------------------------------------------------

def test_pick_matrix_is_exactly_hermitian():
    rng = random.Random(11)
    nodes = tuple(
        (complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
         complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        for _ in range(4)
    )
    nodes = tuple((a / 2, b / 2) for a, b in nodes)
    targets = tuple(complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(4))
    m = build_pick_matrix(PickProblem(ONES, 2, nodes, targets))
    assert np.array_equal(m.array, m.array.conj().T)
    assert np.all(m.array.diagonal().imag == 0.0)


def test_hermitian_matrix_validation():
    with pytest.raises(ValueError):
        HermitianMatrix([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])
    m = HermitianMatrix([[2.0, 1j], [-1j, 2.0]])
    assert m.order == 2
    assert m.sup_norm() == pytest.approx(3.0)
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0  # the stored array is read-only


def test_empty_matrix_is_refused():
    # accepted, a 0x0 matrix failed later in numpy's zero-size reductions
    with pytest.raises(ValueError, match="empty"):
        HermitianMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="empty"):
        min_eigenvalue(np.zeros((0, 0)))


def test_min_eigenvalue_on_plain_arrays():
    report = min_eigenvalue(np.diag([1.0, -2.0]))
    assert not report.is_psd
    assert report.min_eigenvalue == pytest.approx(-2.0)
    assert report.tolerance == pytest.approx(2e-9)  # scaled by the sup norm
    assert min_eigenvalue(np.eye(3)).is_psd
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, complex(math.inf, 0.0), complex(0.0, math.nan)],
    ids=["nan", "inf", "complex-inf", "complex-nan"],
)
def test_non_finite_entries_are_rejected(bad):
    # unchecked, a nan entry reaches the verdict as a nan minimum eigenvalue
    # and an infinite one as an infinite tolerance
    entries = [[1.0, bad], [np.conj(bad), 1.0]]
    with pytest.raises(ValueError, match="finite"):
        HermitianMatrix(entries)
    with pytest.raises(ValueError, match="finite"):
        min_eigenvalue(entries)
    with pytest.raises(ValueError, match="finite"):
        min_eigenvalue([[bad]])


def test_report_round_trips_to_dict():
    report = min_eigenvalue(np.eye(2))
    assert report.as_dict() == {
        "min_eigenvalue": report.min_eigenvalue,
        "is_psd": True,
        "tolerance": report.tolerance,
    }


_TWO_POINTS = PickProblem(ONES, 1, ((0.0,), (0.5,)), (0.0, 0.3))
_STEP = (RatioSequence((0.5,) * 4), RatioSequence((0.7,) * 4), 1)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call, accepts",
    [
        # tail tolerances: the certified tail must be < tol, so tol > 0
        (lambda tol: kernel_eval(ONES, 0.5, tol=tol), lambda tol: tol > 0),
        (lambda tol: pick_feasible(_TWO_POINTS, kernel_tol=tol), lambda tol: tol > 0),
        # verdict tolerances: 0 is exact, an infinite slack decides nothing
        (lambda tol: min_eigenvalue(np.eye(2), tol=tol), lambda tol: 0 <= tol < math.inf),
        (lambda tol: pick_feasible(_TWO_POINTS, tol=tol), lambda tol: 0 <= tol < math.inf),
        (
            lambda tol: gram_and_irreducibility(ONES, 1, (0.2, 0.5), tol=tol),
            lambda tol: 0 <= tol < math.inf,
        ),
        (lambda tol: check_admissible_log_convex(ONES, tol=tol), lambda tol: tol >= 0),
        (lambda eps: turbulence_step(*_STEP, eps), lambda eps: eps > 0),
    ],
    ids=["kernel_eval", "pick-kernel_tol", "min_eigenvalue", "pick-tol", "gram", "admissible",
         "turbulence_step"],
)
def test_bad_tolerances_are_refused_where_they_are_owned(call, accepts, bad):
    # unchecked, a NaN tolerance turned every comparison false: a wrong
    # verdict (pick, admissible), an "uncertified" evaluation, or a search
    # that ran to n_max
    if accepts(bad):
        call(bad)
    else:
        with pytest.raises(ValueError, match=r"(tol|tolerance|eps) must be .*, got "):
            call(bad)


# ---------------------------------------------------------------------------
# Gram matrices and irreducibility
# ---------------------------------------------------------------------------

def test_gram_entries_match_the_geometric_series():
    # evaluations stop once the certified tail drops below the kernel
    # tolerance, so entries are good to 1e-10 rather than full precision
    gram, verdict = gram_and_irreducibility(ONES, 1, (0.2, 0.5))
    assert gram[0, 0] == pytest.approx(1 / (1 - 0.04), abs=1e-10)
    assert gram[1, 1] == pytest.approx(1 / (1 - 0.25), abs=1e-10)
    assert gram[0, 1] == pytest.approx(1 / (1 - 0.1), abs=1e-10)
    assert verdict


def test_gram_accepts_tuples_and_scalars_alike():
    scalar, _ = gram_and_irreducibility(ONES, 1, (0.2, 0.5))
    tup, _ = gram_and_irreducibility(ONES, 1, ((0.2,), (0.5,)))
    assert np.allclose(scalar.array, tup.array)


def test_nearly_proportional_sections_fail_irreducibility():
    _, verdict = gram_and_irreducibility(ONES, 1, (0.3, 0.3 + 1e-13))
    assert not verdict


def test_large_tolerance_fails_both_irreducibility_clauses():
    _, verdict = gram_and_irreducibility(ONES, 1, (0.2, 0.5), tol=10.0)
    assert not verdict


@pytest.mark.parametrize("distance", [1e-5, 3e-5, 1e-4, 0.3])
def test_irreducibility_agrees_across_automorphic_images(distance):
    # for the Szego kernel the normalized minor is rho^2, so the verdict
    # must not change when z -> (z + c)/(1 + c z) moves the pair; the raw
    # minor reads the pair at rho 3e-5 as reducible at c = 0 only
    kernel = CoefficientSequence.ones(4000)
    rng = np.random.default_rng(13)
    for _ in range(3):
        z0 = complex(*rng.uniform(-0.15, 0.15, 2))
        w0 = complex(phi_a(z0, distance * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))))
        for c in (0.0, 0.5, 0.9, 0.99):
            z, w = ((p + c) / (1.0 + c * p) for p in (z0, w0))
            gram, verdict = gram_and_irreducibility(kernel, 1, (z, w))
            g = gram.array
            minor = 1.0 - abs(g[0, 1]) ** 2 / (g[0, 0].real * g[1, 1].real)
            assert minor == pytest.approx(rho(z, w) ** 2, rel=1e-3)
            assert verdict == (distance**2 > 1e-9)


def test_gram_validates_points():
    with pytest.raises(ValueError):
        gram_and_irreducibility(ONES, 1, ())
    with pytest.raises(ValueError):
        gram_and_irreducibility(ONES, 2, ((0.1,),))
    with pytest.raises(ValueError):
        gram_and_irreducibility(ONES, 1, (1.0,))


# ---------------------------------------------------------------------------
# batched Gram fill against a per-entry Python oracle
# ---------------------------------------------------------------------------

GRAM_KERNELS = {
    "log-convex-256": log_convex_from_ratios(
        RatioSequence(tuple(random.Random(8).uniform(0.6, 0.98) for _ in range(255))), 256
    ),
    "exact-128": CoefficientSequence.exact_rational([Fraction(1, n + 1) for n in range(128)]),
    "ones-256": ONES,
}
GRAM_TOL = 1e-10


def _ball_point(rng, dimension, radius):
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dimension)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in v))
    return tuple(c * radius / norm for c in v)


def _oracle_entry(terms, ratio_bound, u):
    """Partial sum, tail bound and full-truncation sum, one entry at a time."""
    mod_u = abs(u)
    geom = 1.0 - ratio_bound * mod_u
    m, pow_u = 1, mod_u
    while terms[m] * pow_u / geom >= GRAM_TOL:
        m += 1
        pow_u *= mod_u
    partial, full, u_pow = 0j, 0j, 1 + 0j
    for k, a in enumerate(terms):
        if k < m:
            partial += a * u_pow
        full += a * u_pow
        u_pow *= u
    return partial, terms[m] * pow_u / geom, full


@pytest.mark.parametrize("dimension", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(GRAM_KERNELS))
def test_gram_and_pick_entries_match_a_python_oracle(name, dimension):
    kernel = GRAM_KERNELS[name]
    terms = [float(t) for t in kernel.terms]
    ratio_bound = max(1.0, max(b / a for a, b in zip(terms, terms[1:])))
    rng = random.Random(f"gram:{name}:{dimension}")
    n = 48 if dimension == 3 else rng.randint(1, 47)
    nodes = tuple(_ball_point(rng, dimension, 0.9 * math.sqrt(rng.random())) for _ in range(n))
    targets = tuple(complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(n))
    gram = _kernel_gram(kernel, nodes, GRAM_TOL)
    pick = build_pick_matrix(PickProblem(kernel, dimension, nodes, targets), GRAM_TOL).array
    for m in (gram, pick):
        assert np.array_equal(m, m.conj().T)
        assert np.all(m.diagonal().imag == 0.0)
    inner = _pairings(nodes)
    for i in range(n):
        for j in range(i, n):
            partial, tail, full = _oracle_entry(terms, ratio_bound, complex(inner[i, j]))
            k = complex(gram[i, j])
            assert abs(k - partial) <= 1e-13 * max(1.0, abs(partial)), (i, j)
            assert abs(k - full) <= tail + 1e-13 * max(1.0, abs(full)), (i, j)
            entry = k * (1.0 - targets[i] * targets[j].conjugate())
            assert abs(complex(pick[i, j]) - entry) <= 1e-13 * max(1.0, abs(entry)), (i, j)


def test_irreducibility_verdict_matches_the_pair_loop():
    rng = random.Random(21)
    points = tuple(_ball_point(rng, 2, 0.8 * math.sqrt(rng.random())) for _ in range(12))
    gram, _ = gram_and_irreducibility(ONES, 2, points)
    g = gram.array
    # the verdict reads the normalized Gram matrix
    cosines = [
        abs(g[i, j]) / math.sqrt(g[i, i].real * g[j, j].real)
        for i in range(12)
        for j in range(i + 1, 12)
    ]
    minors = [1.0 - c * c for c in cosines]
    # both clauses are strict: a tolerance equal to the smallest value fails
    for tol in (min(cosines), min(minors), math.nextafter(min(minors), 0.0), 1e-9, 10.0):
        expected = all(c > tol for c in cosines) and all(m > tol for m in minors)
        assert gram_and_irreducibility(ONES, 2, points, tol=tol)[1] is expected, tol
