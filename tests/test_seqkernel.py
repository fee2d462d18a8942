"""Tests for coefficient recursions, admissibility, and ratio machinery.

Oracle values are either worked out by hand (and frozen here) or come
from closed forms: the geometric series for the all-ones sequence and
the logarithmic series head for b = (1/2, 1/12, 1/24).  The a <-> b
recursions are also held to plain loops kept here: the exact paths must
equal the `Fraction` loop, and the float paths the scalar loops bit for
bit.  So must the cumulative products and sums of the ratio machinery,
the admissibility partial sum, and the term count of the certified
series evaluation (against a first-crossing search over every count),
whose one-point value must also equal Horner's rule on Python `complex`.
"""

import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pickdisc.seqkernel import (
    CoefficientSequence,
    RatioSequence,
    ScalingStepError,
    UncertifiedEvaluationError,
    _eval_series,
    a_from_b,
    b_from_a,
    check_admissible_log_convex,
    cumulative_product_deviation,
    cumulative_product_distance,
    drury_arveson_inner,
    kernel_eval,
    log_convex_from_ratios,
    partial_sum_discrepancy,
    same_growth_report,
    turbulence_step,
)

F = Fraction


# ---------------------------------------------------------------------------
# a <-> b recursions
# ---------------------------------------------------------------------------

def test_all_ones_has_reciprocal_head_one():
    # 1/(1-u) corresponds to a_n = 1 and b = (1, 0, 0, ...): frozen exact oracle
    a = CoefficientSequence.ones(8, exact=True)
    b = b_from_a(a)
    assert b.terms == (F(1),) + (F(0),) * 6


def test_b_head_one_gives_all_ones():
    b = CoefficientSequence.exact_rational([F(1)])
    a = a_from_b(b, 8)
    assert a.terms == (F(1),) * 8


def test_log_series_head_hand_checked():
    # By hand: a = (1, 1/2, 1/3, 1/4) forces b_1 = 1/2,
    # b_2 = 1/3 - 1/4 = 1/12, b_3 = 1/4 - (1/6 + 1/24) = 1/24.
    a = CoefficientSequence.exact_rational([F(1), F(1, 2), F(1, 3), F(1, 4)])
    b = b_from_a(a)
    assert b.terms == (F(1, 2), F(1, 12), F(1, 24))
    back = a_from_b(b, 4)
    assert back.terms == a.terms


def test_a_from_b_single_term():
    b = CoefficientSequence.exact_rational([F(3, 7)])
    a = a_from_b(b, 1)
    assert a.terms == (F(1),)


def test_b_from_a_length_one_input():
    a = CoefficientSequence.exact_rational([F(1)])
    assert b_from_a(a).terms == (F(0),)


@given(
    st.fractions(min_value=F(1, 50), max_value=F(2), max_denominator=50),
    st.lists(
        st.fractions(min_value=F(0), max_value=F(2), max_denominator=50),
        min_size=0,
        max_size=9,
    ),
)
@settings(max_examples=100, deadline=None)
def test_exact_roundtrip_b_to_a_to_b(b_head, b_rest):
    # b_1 > 0 with the rest nonnegative keeps every a_n strictly positive,
    # which is the domain on which the inverse recursion is defined
    b_terms = [b_head] + b_rest
    b = CoefficientSequence.exact_rational(b_terms)
    a = a_from_b(b, len(b_terms) + 1)
    again = b_from_a(a)
    assert again.terms == tuple(b_terms)


def test_a_from_b_rejects_negative_terms():
    with pytest.raises(ValueError):
        a_from_b(CoefficientSequence.exact_rational([F(-1)]), 3)


def _loop_b_from_a(a, n_terms):
    """b_n = a_n - sum_{k<n} b_k a_{n-k}, one scalar (or Fraction) step at a time."""
    b = []
    for n in range(1, n_terms):
        acc = a[n]
        for k in range(1, n):
            acc -= b[k - 1] * a[n - k]
        b.append(acc)
    return b


def _loop_a_from_b(b, n_terms):
    """a_n = sum_{k<=n} b_k a_{n-k} in Fractions, with b read as zero past its end."""
    a = [F(1)]
    for n in range(1, n_terms):
        a.append(sum((b[k - 1] * a[n - k] for k in range(1, min(n, len(b)) + 1)), F(0)))
    return a


def _loop_a_from_b_float(b, n_terms):
    """a_n = sum_{k<=n} b_k a_{n-k}, one float step at a time, k ascending."""
    x = list(b[: n_terms - 1]) + [0.0] * (n_terms - 1 - len(b))
    a = [1.0]
    for n in range(1, n_terms):
        acc = 0.0
        for k in range(1, n + 1):
            acc += x[k - 1] * a[n - k]
        a.append(acc)
    return a


def _float_terms(kind, rng, n):
    if kind == "log-convex":
        ratios = RatioSequence([rng.uniform(0.6, 0.98) for _ in range(n - 1)])
        return log_convex_from_ratios(ratios, n).terms
    # independent terms are not log-convex, so some b_n come out negative
    return (1.0,) + tuple(rng.uniform(0.05, 4.0) for _ in range(n - 1))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", ["log-convex", "not log-convex"])
def test_float_b_from_a_is_bit_identical_to_the_scalar_loop(kind, seed):
    rng = random.Random(f"{kind}:{seed}")
    terms = _float_terms(kind, rng, rng.choice([2, 3, 17, 256]))
    for n_terms in (None, rng.randint(1, len(terms))):
        got = b_from_a(CoefficientSequence.floating(terms), n_terms).terms
        expected = _loop_b_from_a(terms, n_terms or len(terms)) or [0.0]
        assert [x.hex() for x in got] == [x.hex() for x in expected]
    if kind == "not log-convex" and len(terms) > 3:
        assert min(b_from_a(CoefficientSequence.floating(terms)).terms) < 0


def test_float_b_from_a_overflow_is_the_finiteness_error():
    terms = (1.0,) + (1e300,) * 8
    expected = _loop_b_from_a(terms, len(terms))
    assert not all(math.isfinite(x) for x in expected)
    # the column update must neither warn nor hide the overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sequence terms must be finite"):
            b_from_a(CoefficientSequence.floating(terms))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_terms", [1, 2, 3, 17, 256])
@pytest.mark.parametrize("b_length", ["shorter", "longer"])
def test_float_a_from_b_is_bit_identical_to_the_scalar_loop(b_length, n_terms, seed):
    rng = random.Random(f"{b_length}:{n_terms}:{seed}")
    size = rng.randint(1, max(1, n_terms - 2)) if b_length == "shorter" else n_terms + 3
    # some zero entries; sums of b around 1 keep 256 terms finite
    b = [rng.choice([0.0, rng.uniform(0.0, 2.0 / size)]) for _ in range(size)]
    got = a_from_b(CoefficientSequence.floating(b), n_terms).terms
    expected = _loop_a_from_b_float(b, n_terms)
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_float_a_from_b_overflow_is_the_finiteness_error():
    b = (1e300, 0.0, 1e300)  # inf by a_2, then inf * 0 makes nan
    expected = _loop_a_from_b_float(b, 9)
    assert not all(math.isfinite(x) for x in expected)
    # the row sums must neither warn nor hide the overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sequence terms must be finite"):
            a_from_b(CoefficientSequence.floating(b), 9)


def _squared_rationals(n):
    rng = random.Random(n)
    return [F(1)] + [F(rng.randint(1, 999), rng.randint(1, 999)) ** 2 for _ in range(n - 1)]


@pytest.mark.parametrize(
    "terms",
    [
        [F(1, n + 1) for n in range(128)],
        _squared_rationals(128),
        [F(1), F(1, 2), F(2, 3)],
        [F(1)],
    ],
    ids=["1/(n+1)", "squared rationals", "short", "length 1"],
)
def test_exact_b_from_a_equals_the_fraction_loop(terms):
    a = CoefficientSequence.exact_rational(terms)
    for n_terms in sorted({1, min(2, len(terms)), (len(terms) + 1) // 2, len(terms)}):
        assert b_from_a(a, n_terms).terms == tuple(_loop_b_from_a(terms, n_terms) or [F(0)])


@pytest.mark.parametrize(
    "b_terms, n_terms",
    [
        ([F(1, n + 2) for n in range(127)], 128),
        ([x / 4 for x in _squared_rationals(64)], 64),
        ([F(1, 2), F(0), F(3, 7)], 40),  # b shorter than n_terms
        ([F(3, 7)], 1),
        ([F(3, 7)], 2),
    ],
)
def test_exact_a_from_b_equals_the_fraction_loop(b_terms, n_terms):
    a = a_from_b(CoefficientSequence.exact_rational(b_terms), n_terms)
    assert a.terms == tuple(_loop_a_from_b(b_terms, n_terms))


# ---------------------------------------------------------------------------
# admissibility at a truncation
# ---------------------------------------------------------------------------

def test_ones_is_admissible():
    report = check_admissible_log_convex(CoefficientSequence.ones(16))
    assert report.a0_is_one
    assert report.ratios_nonincreasing
    assert report.last_ratio == 1.0
    assert report.verdict_at_truncation


def test_log_kernel_truncation_needs_slack():
    # a_n = 1/(n+1): ratios (n+2)/(n+1) decrease to 1 but the last
    # observable ratio at 64 terms is 64/63, so the default tolerance
    # rejects while a 5% one accepts.  Both verdicts are about the
    # truncation, not the infinite sequence.
    a = CoefficientSequence.floating([1.0 / (n + 1) for n in range(64)])
    strict = check_admissible_log_convex(a)
    assert not strict.verdict_at_truncation
    assert strict.ratios_nonincreasing
    loose = check_admissible_log_convex(a, tol=0.05)
    assert loose.verdict_at_truncation
    assert loose.last_ratio == pytest.approx(64 / 63)


def test_geometric_decay_is_rejected():
    a = CoefficientSequence.floating([2.0 ** (-n) for n in range(10)])
    report = check_admissible_log_convex(a)
    assert report.ratios_nonincreasing
    assert report.last_ratio == pytest.approx(2.0)
    assert not report.verdict_at_truncation


def test_wrong_leading_term_flagged():
    a = CoefficientSequence.floating([2.0, 1.0])
    report = check_admissible_log_convex(a)
    assert not report.a0_is_one
    assert not report.verdict_at_truncation


def test_ratio_bump_flagged():
    # ratios are 2, 3/2, then a bump back up to 2: not log-convex
    a = CoefficientSequence.floating([1.0, 0.5, 1 / 3, 1 / 6])
    report = check_admissible_log_convex(a)
    assert not report.ratios_nonincreasing


def test_partial_sum_adds_left_to_right():
    # 1e-16 is below half an ulp of 1, so a left-to-right float sum stays
    # at 1; a compensated sum (the built-in `sum` of floats from Python
    # 3.12 on) would give 1 + 1e-15
    tiny = check_admissible_log_convex(CoefficientSequence.floating([1.0] + [1e-16] * 10))
    assert tiny.partial_sum == 1.0
    rng = random.Random("partial sum")
    for _ in range(20):
        ratios = RatioSequence([rng.uniform(0.6, 0.98) for _ in range(255)])
        a = log_convex_from_ratios(ratios, 256)
        acc = 0.0
        for t in a.terms:
            acc += t
        assert check_admissible_log_convex(a).partial_sum.hex() == acc.hex()


# ---------------------------------------------------------------------------
# certified series evaluation
# ---------------------------------------------------------------------------

def test_szego_value_and_tail_honesty():
    a = CoefficientSequence.ones(128)
    for u in (0.5, -0.3, 0.3 + 0.4j, 0.7j):
        out = kernel_eval(a, u)
        exact = 1.0 / (1.0 - u)
        assert abs(out.value - exact) <= out.tail_bound + 1e-12
        assert out.tail_bound <= 1e-10
        assert out.terms_used <= 128


def test_refusal_outside_certified_region():
    a = CoefficientSequence.ones(64)
    with pytest.raises(ValueError):
        # outside the open disc: plain domain error, not a refusal
        kernel_eval(a, 1.2)
    with pytest.raises(UncertifiedEvaluationError):
        # |u| < 1 but the 64-term truncation cannot push the tail below tol
        kernel_eval(a, 0.999)


def test_a_bad_kernel_head_is_refused_on_every_evaluation():
    for bad in ((2.0, 1.0, 1.0), (1.0, 0.5, -0.25)):
        a = CoefficientSequence.floating(bad)
        for _ in range(2):
            with pytest.raises(ValueError, match="must equal 1|strictly positive"):
                kernel_eval(a, 0.1)


def test_kernel_value_is_complex_convertible():
    out = kernel_eval(CoefficientSequence.ones(64), 0.25)
    assert complex(out) == out.value
    assert abs(out) == abs(out.value)


@given(st.floats(min_value=-0.8, max_value=0.8))
@settings(max_examples=50, deadline=None)
def test_szego_grid_certified(u):
    out = kernel_eval(CoefficientSequence.ones(256), u)
    assert abs(out.value - 1.0 / (1.0 - u)) <= out.tail_bound + 1e-12


def test_tail_bound_covers_ratios_beyond_the_truncation():
    # The successor ratios of this log-convex kernel rise toward 1 past the
    # 32 supplied terms.  Bounding them by the largest ratio seen once
    # certified a tail of 8.99e-7 after 30 terms, while the true tail is
    # 1.20e-6; with ratio bound 1 no supplied M certifies tol=1e-6.
    s = RatioSequence((0.95,) * 400)
    long = log_convex_from_ratios(s, 400)
    assert math.fsum(a * 0.98**n for n, a in enumerate(long.terms) if n >= 30) > 1.19e-6
    with pytest.raises(UncertifiedEvaluationError):
        kernel_eval(log_convex_from_ratios(s, 32), 0.98, tol=1e-6)


def test_kernel_value_records_its_ratio_bound():
    assert kernel_eval(CoefficientSequence.ones(64), 0.25).ratio_bound == 1.0
    # observed ratios of a log-convex kernel stay below 1; the bound is 1
    decaying = log_convex_from_ratios(RatioSequence((0.7,) * 63), 64)
    assert kernel_eval(decaying, 0.5).ratio_bound == 1.0
    # ratios 2, 3/2, 7/6: the largest observed one is the bound
    rising = CoefficientSequence.floating([1.0, 2.0, 3.0, 3.5])
    out = kernel_eval(rising, 0.01, tol=1e-3)
    assert out.ratio_bound == 2.0
    assert out.terms_used == 2
    assert out.tail_bound == pytest.approx(3.0 * 0.01**2 / (1.0 - 2.0 * 0.01), rel=1e-15)
    with pytest.raises(UncertifiedEvaluationError, match="ratio bound 2 times"):
        kernel_eval(rising, 0.5)


@st.composite
def _ratio_truncations(draw):
    n_terms = draw(st.integers(min_value=2, max_value=48))
    size = 4 * n_terms - 1
    ratios = draw(st.lists(st.floats(0.5, 0.99), min_size=size, max_size=size))
    return n_terms, RatioSequence(tuple(ratios))


@given(
    _ratio_truncations(),
    st.lists(
        st.tuples(st.floats(0.0, 0.9, exclude_max=True), st.floats(0.0, 2 * math.pi)),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from((1e-3, 1e-6, 1e-10)),
)
@settings(max_examples=100, deadline=None)
def test_claimed_tail_covers_a_four_times_longer_truncation(truncation, polar, tol):
    n_terms, s = truncation
    short = log_convex_from_ratios(s, n_terms)
    long = log_convex_from_ratios(s, 4 * n_terms)
    for r, phi in polar:
        try:
            out = kernel_eval(short, cmath.rect(r, phi), tol=tol)
        except UncertifiedEvaluationError:
            continue
        tail = math.fsum(a * r**n for n, a in enumerate(long.terms) if n >= out.terms_used)
        assert out.tail_bound >= tail * (1.0 - 1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3, 5, 17, 256])
def test_eval_series_uses_the_first_count_that_meets_tol(n, seed):
    rng = random.Random(f"{n}:{seed}")
    ratios = RatioSequence([rng.uniform(0.3, 0.99) for _ in range(n - 1)])
    kernel = log_convex_from_ratios(ratios, n)
    terms, ratio_bound = kernel._float_kernel
    tol = 10.0 ** -rng.uniform(1, 14)
    radii = [0.0] + [rng.uniform(0.0, 0.95) for _ in range(39)]
    u = np.array([cmath.rect(r, rng.uniform(0.0, 2 * math.pi)) for r in radii])
    geom = 1.0 - ratio_bound * np.abs(u)

    def tail(m):  # the bound of `_eval_series`, at counts m (one per entry)
        return terms[m] * np.abs(u) ** m / geom

    first = np.zeros(u.shape, dtype=np.intp)
    for m in range(n - 1, 0, -1):
        first[tail(np.full(u.shape, m, dtype=np.intp)) < tol] = m
    keep = tail(np.full(u.shape, n - 1, dtype=np.intp)) < tol  # the others are refused
    assert keep[0] and first[0] == 1  # u = 0 meets tol at one term
    values, tails, used = _eval_series(terms, ratio_bound, u[keep], tol)
    assert used.tolist() == first[keep].tolist()
    assert tails.tolist() == tail(first)[keep].tolist()
    # one point alone: the same count and bound, and Horner's rule on Python
    # complex; the batch's sums may contract to FMA, so they agree up to rounding
    for z, value, bound, count in zip(u[keep].tolist(), values, tails.tolist(), used.tolist()):
        alone = kernel_eval(kernel, z, tol)
        assert (alone.terms_used, alone.tail_bound) == (count, bound)
        horner = 0j
        for t in terms[count - 1 :: -1].tolist():
            horner = horner * z + complex(t)
        assert alone.value == horner
        size = math.fsum(terms[:count] * abs(z) ** np.arange(count))
        assert abs(alone.value - value) <= 8 * count * np.finfo(float).eps * size


_ONE_POINT_REFUSALS = {
    "tol 0": (CoefficientSequence.ones(8), 0.5, 0.0, ValueError),
    "tol nan": (CoefficientSequence.ones(8), 0.5, math.nan, ValueError),
    "|u| = 1": (CoefficientSequence.ones(8), 1j, 1e-10, ValueError),
    "u nan": (CoefficientSequence.ones(8), complex(math.nan, 0.5), 1e-10, ValueError),
    "one term": (CoefficientSequence.ones(1), 0.5, 1e-10, UncertifiedEvaluationError),
    "ratio bound": (
        CoefficientSequence.floating([1.0, 2.0, 3.0, 3.5]), 0.5, 1e-10, UncertifiedEvaluationError
    ),
    "tail not met": (CoefficientSequence.ones(8), 0.9, 1e-10, UncertifiedEvaluationError),
}


@pytest.mark.parametrize("case", _ONE_POINT_REFUSALS, ids=list(_ONE_POINT_REFUSALS))
def test_one_point_refuses_as_a_batch_of_that_point(case):
    kernel, u, tol, error = _ONE_POINT_REFUSALS[case]
    terms, ratio_bound = kernel._float_kernel
    with pytest.raises(error) as alone:
        kernel_eval(kernel, u, tol)
    with pytest.raises(error) as batch:
        _eval_series(terms, ratio_bound, np.array([u, u], dtype=complex), tol)
    assert (alone.type, str(alone.value)) == (batch.type, str(batch.value))


# ---------------------------------------------------------------------------
# ratio sequences and the log-convex construction
# ---------------------------------------------------------------------------

def test_ratio_sequence_rejects_out_of_range():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            RatioSequence((0.5, bad))


def test_log_convex_from_ratios_small_case():
    # s = (1/2, 1/2): p = (1/2, 1/4), f_n = exp(-sum_{k<n} p_k)
    f = log_convex_from_ratios(RatioSequence((0.5, 0.5)), 3)
    assert f.terms[0] == 1.0
    assert f.terms[1] == pytest.approx(math.exp(-0.5))
    assert f.terms[2] == pytest.approx(math.exp(-0.75))


def test_log_convex_output_is_admissible():
    s = RatioSequence(tuple(0.3 + 0.4 * math.sin(k) ** 2 for k in range(40)))
    a = log_convex_from_ratios(s, 40)
    report = check_admissible_log_convex(a, tol=0.5)
    assert report.a0_is_one
    assert report.ratios_nonincreasing
    assert report.verdict_at_truncation


def test_partial_sum_discrepancy_zero_on_equal():
    s = RatioSequence((0.3, 0.6, 0.9))
    assert partial_sum_discrepancy(s, s, 3) == 0.0


def test_partial_sum_discrepancy_hand_case():
    # p = (1/2), p' = (1/4): partial sums diverge by 1/4 after one term
    s = RatioSequence((0.5,))
    s_prime = RatioSequence((0.25,))
    assert partial_sum_discrepancy(s, s_prime, 1) == pytest.approx(0.25)


def _loop_products(s, count):
    """p_k = s_0 s_1 ... s_k for k < count, one float step at a time."""
    out, p = [], 1.0
    for k in range(count):
        p *= s[k]
        out.append(p)
    return out


def _loop_log_convex(s, n_terms):
    out, acc = [1.0], 0.0
    for p in _loop_products(s, n_terms - 1):
        acc += p
        out.append(math.exp(-acc))
    return out


def _loop_discrepancy(s, s_prime, n_terms):
    p, q = _loop_products(s, n_terms), _loop_products(s_prime, n_terms)
    best = acc = 0.0
    for k in range(n_terms):
        acc += p[k] - q[k]
        best = max(best, abs(acc))
    return best


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_terms", [0, 1, 2, 6, 40])
def test_ratio_machinery_is_bit_identical_to_the_scalar_loops(n_terms, seed):
    rng = random.Random(f"ratios:{n_terms}:{seed}")
    s = [rng.uniform(0.05, 0.98) for _ in range(40)]
    s_prime = [rng.uniform(0.05, 0.98) for _ in range(40)]
    got = partial_sum_discrepancy(RatioSequence(s), RatioSequence(s_prime), n_terms)
    assert got.hex() == _loop_discrepancy(s, s_prime, n_terms).hex()
    if n_terms == 0:  # only the discrepancy takes an empty window
        with pytest.raises(ValueError, match="n_terms must be >= 1"):
            log_convex_from_ratios(RatioSequence(s), 0)
        with pytest.raises(ValueError, match="n_terms must be >= 1"):
            cumulative_product_deviation(s, 0)
        return
    got = log_convex_from_ratios(RatioSequence(s), n_terms).terms
    assert [x.hex() for x in got] == [x.hex() for x in _loop_log_convex(s, n_terms)]
    g = [rng.uniform(0.5, 1.5) for _ in range(40)]
    total, embedding = cumulative_product_deviation(g, n_terms)
    expected = [p - 1.0 for p in _loop_products(g, n_terms)]
    assert [x.hex() for x in embedding] == [x.hex() for x in expected]
    assert total.hex() == math.fsum(abs(e) for e in expected).hex()


def test_cumulative_product_deviation_of_ones():
    total, embedding = cumulative_product_deviation([1.0, 1.0, 1.0], 3)
    assert total == 0.0
    assert list(embedding) == [0.0, 0.0, 0.0]


def test_cumulative_product_deviation_hand_case():
    # products 2 then 1, so deviations from 1 are 1 and 0
    total, embedding = cumulative_product_deviation([2.0, 0.5], 2)
    assert total == pytest.approx(1.0)
    assert list(embedding) == pytest.approx([1.0, 0.0])


def test_cumulative_product_distance_symmetric():
    g = [1.1, 0.9, 1.0]
    h = [0.95, 1.05, 1.0]
    d1 = cumulative_product_distance(g, h, 3)
    d2 = cumulative_product_distance(h, g, 3)
    assert d1 == pytest.approx(d2)
    assert cumulative_product_distance(g, g, 3) == 0.0


# ---------------------------------------------------------------------------
# the scaling step
# ---------------------------------------------------------------------------

def _step_invariants(s, t, n1, eps):
    g, n_exp = turbulence_step(s, t, n1, eps)
    # rescaling property: g_k^N s_k = t_k on the adjusted head
    for k in range(n1 + 1):
        assert g[k] ** n_exp * s.terms[k] == pytest.approx(t.terms[k], abs=1e-12)
    # the multiplier stays eps-close to the constant-one sequence
    total, _ = cumulative_product_deviation(g, len(g))
    assert total < eps
    return g, n_exp


def test_turbulence_step_basic():
    s = RatioSequence((0.5, 0.5, 0.5, 0.1, 0.4, 0.4))
    t = RatioSequence((0.6, 0.6, 0.6, 0.6, 0.4, 0.4))
    g, n_exp = _step_invariants(s, t, 2, 0.01)
    assert n_exp >= 1
    assert len(g) == 6
    # beyond the correction index the multiplier is exactly one
    assert g[4:] == [1.0, 1.0]


def test_turbulence_step_minimality():
    s = RatioSequence((0.5, 0.5, 0.5, 0.1))
    t = RatioSequence((0.6, 0.6, 0.6, 0.6))
    _, n_exp = turbulence_step(s, t, 2, 0.01)
    if n_exp > 1:
        with pytest.raises(ScalingStepError):
            # the same data with a cap below the minimal exponent must fail
            turbulence_step(s, t, 2, 0.01, n_max=n_exp - 1)


@pytest.mark.parametrize("slack", [0, 1])
def test_turbulence_step_finds_exponents_between_powers_of_two(slack):
    # the least exponent here is 102; a cap of 102 or 103 must still find
    # it, not stop the doubling at 64 and give up before 128
    s = RatioSequence((0.5,) * 6)
    t = RatioSequence((0.7,) * 6)
    assert turbulence_step(s, t, 1, 0.01)[1] == 102
    assert turbulence_step(s, t, 1, 0.01, n_max=102 + slack)[1] == 102
    with pytest.raises(ScalingStepError):
        turbulence_step(s, t, 1, 0.01, n_max=101)


def test_turbulence_step_infeasible_endpoint():
    # prod(s_k/t_k) * s_{n1+1} = 8 * 0.5 = 4 >= 1: no exponent works
    s = RatioSequence((0.5, 0.5, 0.5, 0.5))
    t = RatioSequence((0.25, 0.25, 0.25, 0.25))
    with pytest.raises(ScalingStepError):
        turbulence_step(s, t, 2, 0.01)


@given(
    st.integers(min_value=0, max_value=6),
    st.lists(st.floats(min_value=0.2, max_value=0.8), min_size=8, max_size=10),
    st.lists(st.floats(min_value=0.2, max_value=0.8), min_size=8, max_size=10),
    st.sampled_from([0.1, 0.01]),
)
@settings(max_examples=60, deadline=None)
def test_turbulence_step_random(n1, s_vals, t_vals, eps):
    n = min(len(s_vals), len(t_vals))
    s = RatioSequence(tuple(s_vals[:n]))
    t = RatioSequence(tuple(t_vals[:n]))
    head = math.prod(s.terms[k] / t.terms[k] for k in range(n1 + 1))
    peak = head * s.terms[n1 + 1]
    # stay away from the feasibility boundary, where the test's product
    # and the implementation's log-sum could round to different sides
    assume(abs(peak - 1.0) > 1e-9)
    if peak >= 1.0:
        with pytest.raises(ScalingStepError):
            turbulence_step(s, t, n1, eps)
    else:
        _step_invariants(s, t, n1, eps)


def _log_sum_deviation(log_ratios, n_exp):
    """The deviation estimated from the logs: sum over n of |expm1(S_n / N)|."""
    acc = total = 0.0
    for l in log_ratios:
        acc += l
        total += abs(math.expm1(acc / n_exp))
    return total


def test_turbulence_step_meets_eps_one_ulp_above_the_log_sum_estimate():
    # with eps one ulp above the log-sum estimate at a random exponent, a
    # step decided on that estimate returned a multiplier whose measured
    # deviation reached eps in most of these cases; the exponent before
    # the one returned must fail the same measurement
    rng = random.Random(12)
    feasible = 0
    for _ in range(400):
        n1 = rng.randint(0, 6)
        s = RatioSequence(tuple(rng.uniform(0.2, 0.8) for _ in range(rng.randint(8, 10))))
        t = RatioSequence(tuple(rng.uniform(0.2, 0.8) for _ in range(len(s.terms))))
        log_ratios = [math.log(t.terms[k]) - math.log(s.terms[k]) for k in range(n1 + 1)]
        eps = math.nextafter(_log_sum_deviation(log_ratios, rng.randint(1, 5000)), math.inf)
        try:
            g, n_exp = turbulence_step(s, t, n1, eps)
        except ScalingStepError:
            continue
        feasible += 1
        assert cumulative_product_deviation(g, len(g))[0] < eps
        if n_exp > 1:
            prev = [math.exp(l / (n_exp - 1)) for l in log_ratios]
            prev.append(math.exp(-math.fsum(log_ratios) / (n_exp - 1)))
            prev += [1.0] * (len(g) - len(prev))
            assert not cumulative_product_deviation(prev, len(g))[0] < eps
    assert feasible > 200


# ---------------------------------------------------------------------------
# growth comparison and the shift-space inner product
# ---------------------------------------------------------------------------

def test_growth_report_identity():
    a = CoefficientSequence.ones(8)
    report = same_growth_report(a, a)
    assert report.min_ratio == report.max_ratio == 1.0


def test_growth_report_scaling():
    a = CoefficientSequence.floating([1.0, 0.5, 0.25])
    a_prime = CoefficientSequence.floating([1.0, 1.0, 1.0])
    report = same_growth_report(a, a_prime)
    assert report.min_ratio == pytest.approx(1.0)
    assert report.max_ratio == pytest.approx(4.0)
    assert report.argmax_index == 2


def test_da_inner_orthogonality_and_values():
    assert drury_arveson_inner([1, 0], [0, 1]) == 0
    assert drury_arveson_inner([2, 1], [2, 1]) == F(1, 3)
    assert drury_arveson_inner([1, 1], [1, 1]) == F(1, 2)
    assert drury_arveson_inner([3], [3]) == 1
    assert drury_arveson_inner([0, 0], [0, 0]) == 1


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(min_value=0, max_value=4), min_size=d, max_size=d),
            st.lists(st.integers(min_value=0, max_value=4), min_size=d, max_size=d),
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_da_inner_symmetric_and_exact(pair):
    alpha, beta = pair
    left = drury_arveson_inner(alpha, beta)
    right = drury_arveson_inner(beta, alpha)
    assert left == right
    assert isinstance(left, Fraction)
    if alpha == beta:
        assert left > 0
    else:
        assert left == 0


def test_da_inner_rejects_bad_indices():
    with pytest.raises(ValueError):
        drury_arveson_inner([1, 2], [1])
    with pytest.raises(ValueError):
        drury_arveson_inner([-1], [-1])
