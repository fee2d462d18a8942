"""Tests for coefficient recursions, admissibility, and ratio machinery.

Oracle values are either worked out by hand (and frozen here) or come
from closed forms: the geometric series for the all-ones sequence and
the logarithmic series head for b = (1/2, 1/12, 1/24).  The a <-> b
recursions are also held to plain loops kept here: the exact paths must
equal the `Fraction` loop, and float `b_from_a` the scalar loop bit for
bit.
"""

import cmath
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pickdisc.seqkernel import (
    CoefficientSequence,
    RatioSequence,
    ScalingStepError,
    UncertifiedEvaluationError,
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
