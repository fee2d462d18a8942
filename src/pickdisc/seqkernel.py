"""Coefficient algebra for unitarily invariant complete Nevanlinna-Pick kernels.

A kernel of the form ``K(z, w) = sum_n a_n <z, w>^n`` on the unit ball is
determined by its coefficient sequence ``a = (a_n)``.  Such sequences are
tied to an auxiliary sequence ``b = (b_n)`` by the reciprocal power-series
identity

    sum_{n>=0} a_n t^n  =  1 / (1 - sum_{n>=1} b_n t^n),

which pins down the pair by the recursion ``a_0 = 1`` and
``a_n = sum_{k=1..n} b_k a_{n-k}``.  This module implements that recursion
in both directions, truncated admissibility and growth diagnostics,
power-series evaluation with a certified geometric tail bound, and the
sequence-space machinery used to compare ratio sequences: the log-convex
image of a ratio sequence, partial-sum discrepancies of cumulative
products, membership diagnostics for the group of multipliers whose
cumulative products are summably close to 1, and the finite-support
scaling step that moves one ratio sequence onto another through small
multiplicative corrections.  Exact sequences run the recursion on
integers over a growing common denominator; float `b_from_a` updates
whole columns at a time but keeps the rounding order of the scalar
loop, so its output is bit for bit that of the loop.

Conventions
-----------
* ``a``-sequences are indexed from 0 and carry ``a_0 = 1``.
* ``b``-sequences are indexed from 1: ``terms[j]`` holds ``b_{j+1}``.
  Missing trailing entries count as zero, entries may be zero, and
  ``b_from_a`` may report negative entries; positivity is therefore
  enforced per operation rather than by the container.
* Every verdict is a statement about the truncation actually supplied.
  Nothing here claims to decide properties of the infinite sequence
  (summability in particular is not decidable from a truncation).
* The one exception is the tail bound of `kernel_eval`, which must
  cover terms beyond the truncation.  It assumes that no successor
  ratio ``a_{n+1} / a_n`` of the full sequence exceeds
  ``max(1, largest ratio in the truncation)``.  Every log-convex kernel
  satisfies this: its ratios rise toward 1 and never pass it.

All functions are pure and all value types immutable, so concurrent use
requires no synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

Scalar = Union[Fraction, float]

__all__ = [
    "CoefficientSequence",
    "RatioSequence",
    "AdmissibilityReport",
    "GrowthReport",
    "KernelValue",
    "UncertifiedEvaluationError",
    "ScalingStepError",
    "a_from_b",
    "b_from_a",
    "check_admissible_log_convex",
    "same_growth_report",
    "kernel_eval",
    "log_convex_from_ratios",
    "partial_sum_discrepancy",
    "cumulative_product_deviation",
    "cumulative_product_distance",
    "turbulence_step",
    "drury_arveson_inner",
]


class UncertifiedEvaluationError(ValueError):
    """Raised when a power-series evaluation cannot certify its tail."""


class ScalingStepError(ValueError):
    """Raised when no admissible root exponent exists for a scaling step."""


def _coerce_terms(values: Iterable, exact: bool) -> tuple:
    if exact:
        out = tuple(Fraction(v) for v in values)
    else:
        out = tuple(float(v) for v in values)
        if not all(math.isfinite(v) for v in out):
            raise ValueError("sequence terms must be finite")
    if not out:
        raise ValueError("sequence must be nonempty")
    return out


@dataclass(frozen=True)
class CoefficientSequence:
    """Finite truncation of a coefficient sequence.

    ``exact=True`` stores terms as `fractions.Fraction` and keeps every
    operation exact; otherwise terms are binary64.  The container accepts
    any finite real terms; kernel-side constraints (``a_0 = 1``, strict
    positivity) are checked by the operations that need them.
    """

    terms: tuple
    exact: bool = False

    def __post_init__(self):
        object.__setattr__(self, "terms", _coerce_terms(self.terms, self.exact))

    @classmethod
    def exact_rational(cls, values: Iterable) -> "CoefficientSequence":
        return cls(tuple(values), exact=True)

    @classmethod
    def floating(cls, values: Iterable) -> "CoefficientSequence":
        return cls(tuple(values), exact=False)

    @classmethod
    def ones(cls, n_terms: int, exact: bool = False) -> "CoefficientSequence":
        """The all-ones sequence: coefficients of the Szego kernel 1/(1-u)."""
        if n_terms < 1:
            raise ValueError("need at least one term")
        return cls((1,) * n_terms, exact=exact)

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, i):
        return self.terms[i]

    def __iter__(self):
        return iter(self.terms)

    def as_floats(self) -> tuple:
        return tuple(float(t) for t in self.terms)

    def _require_kernel_head(self, name: str = "a") -> None:
        if self.terms[0] != 1:
            raise ValueError(f"{name}[0] must equal 1, got {self.terms[0]!r}")
        if any(t <= 0 for t in self.terms):
            raise ValueError(f"{name} must have strictly positive terms")

    @cached_property
    def _float_kernel(self) -> tuple:
        """Read-only float terms and the tail ratio bound; see `_kernel_terms`."""
        terms = np.array(self.as_floats())
        terms.setflags(write=False)
        ratio_bound = max(1.0, float(np.max(terms[1:] / terms[:-1], initial=0.0)))
        return terms, ratio_bound


@dataclass(frozen=True)
class RatioSequence:
    """Finite truncation of a sequence with every term strictly inside (0, 1)."""

    terms: tuple

    def __post_init__(self):
        out = tuple(float(t) for t in self.terms)
        if not out:
            raise ValueError("ratio sequence must be nonempty")
        if not all(0.0 < t < 1.0 for t in out):
            raise ValueError("ratio sequence terms must lie strictly inside (0, 1)")
        object.__setattr__(self, "terms", out)

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, i):
        return self.terms[i]

    def __iter__(self):
        return iter(self.terms)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Truncated admissibility diagnostics for a candidate kernel sequence.

    ``verdict_at_truncation`` is the conjunction of the three observable
    conditions: leading term 1, nonincreasing successor ratios
    ``a_n / a_{n+1}``, and last ratio within ``tol`` of the limit 1.
    ``partial_sum`` is reported as evidence only; divergence of the full
    series is not decidable at a truncation.
    """

    a0_is_one: bool
    ratios_nonincreasing: bool
    last_ratio: float
    partial_sum: float
    verdict_at_truncation: bool

    def as_dict(self) -> dict:
        return {
            "a0_is_one": self.a0_is_one,
            "ratios_nonincreasing": self.ratios_nonincreasing,
            "last_ratio": self.last_ratio,
            "partial_sum": self.partial_sum,
            "verdict_at_truncation": self.verdict_at_truncation,
        }


@dataclass(frozen=True)
class GrowthReport:
    """Extremes of the componentwise ratio a'_n / a_n over a shared window.

    Two kernel sequences generate the same multiplier algebra exactly when
    these ratios are bounded above and below by positive constants; at a
    truncation the report carries the observed extremes and where they
    occur.
    """

    min_ratio: float
    max_ratio: float
    argmin_index: int
    argmax_index: int

    def as_dict(self) -> dict:
        return {
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
            "argmin_index": self.argmin_index,
            "argmax_index": self.argmax_index,
        }


@dataclass(frozen=True)
class KernelValue:
    """A certified partial evaluation of sum_n a_n u^n.

    ``value`` is the partial sum over ``terms_used`` terms and
    ``tail_bound`` dominates the absolute value of everything discarded.
    ``ratio_bound`` is the bound on successor ratios that certified the
    tail.
    """

    value: complex
    tail_bound: float
    terms_used: int
    ratio_bound: float

    def __complex__(self) -> complex:
        return complex(self.value)

    def __abs__(self) -> float:
        return abs(self.value)


def _exact_recursion(x: Sequence[Fraction], sign: int) -> list:
    """``y_1 .. y_m`` with ``y_n = x_n + sign * sum_{k=1..n-1} y_k x_{n-k}``.

    ``x`` holds ``x_1 .. x_m``.  Every ``x_j`` is put over one common
    denominator ``D`` as an int ``X_j``, and the ``y_k`` found so far are
    kept as int numerators ``P_k`` over one running denominator ``Q``,
    the lcm of their denominators; when ``Q`` grows by a factor, every
    ``P_k`` is multiplied by it.  Each step is then one integer dot
    product and one reduced ``Fraction(X_n Q + sign * s, Q D)``, so the
    output equals the ``Fraction`` recursion term for term.  (Scaling
    by ``D**n`` instead would keep no denominators, but its integers
    grow by about ``log2(D)`` bits per term.)
    """
    den = math.lcm(*(t.denominator for t in x))
    ints = [0] + [t.numerator * (den // t.denominator) for t in x]
    nums: list = []
    q = 1
    out = []
    for n in range(1, len(ints)):
        s = sum(map(int.__mul__, nums, ints[n - 1 : 0 : -1]))
        y = Fraction(ints[n] * q + sign * s, q * den)
        out.append(y)
        grow = y.denominator // math.gcd(q, y.denominator)
        if grow > 1:
            nums = [p * grow for p in nums]
            q *= grow
        nums.append(y.numerator * (q // y.denominator))
    return out


def a_from_b(b: CoefficientSequence, n_terms: int) -> CoefficientSequence:
    """Kernel coefficients from reciprocal-series coefficients.

    Returns ``a`` of length ``n_terms`` with ``a_0 = 1`` and
    ``a_n = sum_{k=1..n} b_k a_{n-k}``.  All ``b_k`` must be nonnegative;
    entries of ``b`` beyond its truncation count as zero.  Exactness of
    ``b`` carries over to ``a``: exact ``b`` runs the recursion on
    integers over a growing common denominator (`_exact_recursion`),
    float ``b`` a scalar loop in the order of the sum above.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if any(t < 0 for t in b.terms):
        raise ValueError("b must have nonnegative terms")
    zero = Fraction(0) if b.exact else 0.0
    x = list(b.terms[: n_terms - 1]) + [zero] * (n_terms - 1 - len(b.terms))
    if b.exact:
        a = [Fraction(1)] + _exact_recursion(x, 1)
    else:
        a = [1.0]
        for n in range(1, n_terms):
            acc = 0.0
            for k in range(1, n + 1):
                acc += x[k - 1] * a[n - k]
            a.append(acc)
    return CoefficientSequence(tuple(a), exact=b.exact)


def b_from_a(a: CoefficientSequence, n_terms: int | None = None) -> CoefficientSequence:
    """Reciprocal-series coefficients from kernel coefficients.

    Returns ``b`` of length ``n_terms - 1`` (default: full window) with
    ``b_n = a_n - sum_{k=1..n-1} b_k a_{n-k}``.  Requires ``a_0 = 1`` and
    strictly positive terms.  Negative output entries are legitimate and
    reported as-is; they certify that ``a`` is not log-convex.

    Exact ``a`` runs the recursion on integers over a growing common
    denominator (`_exact_recursion`).  Float ``a`` subtracts one column
    at a time, ``b_k a_{n-k}`` from every later ``b_n``: each entry gets
    the same rounded products and differences, in the same ascending
    ``k`` order, as the scalar loop, so the result is bit for bit the
    same.  Terms that overflow raise the finiteness error of
    `CoefficientSequence`.
    """
    a._require_kernel_head("a")
    if n_terms is None:
        n_terms = len(a.terms)
    if not 1 <= n_terms <= len(a.terms):
        raise ValueError("n_terms must be between 1 and len(a)")
    if a.exact:
        b = _exact_recursion(a.terms[1:n_terms], -1)
    else:
        x = np.array(a.terms[:n_terms])
        acc = x[1:].copy()  # acc[n - 1] becomes b_n
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, n_terms - 1):
                acc[k:] -= acc[k - 1] * x[1 : n_terms - k]
        b = acc.tolist()
    if not b:
        # Length-1 input pins down no b entries; an empty container is not
        # representable, so emit the single implied zero.
        zero = Fraction(0) if a.exact else 0.0
        b = [zero]
    return CoefficientSequence(tuple(b), exact=a.exact)


_RATIO_SLACK = 1e-12  # relative slack absorbing float rounding in comparisons


def check_admissible_log_convex(a: CoefficientSequence, tol: float = 1e-6) -> AdmissibilityReport:
    """Check the observable admissibility conditions at a truncation.

    Conditions: ``a_0 = 1``; successor ratios ``a_n / a_{n+1}``
    nonincreasing; last ratio ``<= 1 + tol``.  With exact input the
    monotonicity comparison is exact; in floating mode a relative slack
    of 1e-12 absorbs rounding.  A single-term sequence has no ratios and
    its last ratio is reported as 1.
    """
    if any(t <= 0 for t in a.terms):
        raise ValueError("a must have strictly positive terms")
    a0_is_one = a.terms[0] == 1
    ratios = [a.terms[n] / a.terms[n + 1] for n in range(len(a.terms) - 1)]
    if a.exact:
        nonincreasing = all(ratios[i + 1] <= ratios[i] for i in range(len(ratios) - 1))
    else:
        nonincreasing = all(
            ratios[i + 1] <= ratios[i] * (1.0 + _RATIO_SLACK) for i in range(len(ratios) - 1)
        )
    last_ratio = float(ratios[-1]) if ratios else 1.0
    partial_sum = float(sum(a.terms))
    verdict = bool(a0_is_one and nonincreasing and last_ratio <= 1.0 + tol)
    return AdmissibilityReport(
        a0_is_one=bool(a0_is_one),
        ratios_nonincreasing=bool(nonincreasing),
        last_ratio=last_ratio,
        partial_sum=partial_sum,
        verdict_at_truncation=verdict,
    )


def same_growth_report(
    a: CoefficientSequence, a_prime: CoefficientSequence, n_terms: int | None = None
) -> GrowthReport:
    """Extremes of a'_n / a_n over the first ``n_terms`` indices."""
    if n_terms is None:
        n_terms = min(len(a.terms), len(a_prime.terms))
    if len(a.terms) < n_terms or len(a_prime.terms) < n_terms:
        raise ValueError("both sequences must have at least n_terms terms")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if any(t <= 0 for t in a.terms[:n_terms]) or any(t <= 0 for t in a_prime.terms[:n_terms]):
        raise ValueError("growth comparison needs strictly positive terms")
    ratios = [float(a_prime.terms[n]) / float(a.terms[n]) for n in range(n_terms)]
    argmin = min(range(n_terms), key=ratios.__getitem__)
    argmax = max(range(n_terms), key=ratios.__getitem__)
    return GrowthReport(
        min_ratio=ratios[argmin],
        max_ratio=ratios[argmax],
        argmin_index=argmin,
        argmax_index=argmax,
    )


def _kernel_terms(a: CoefficientSequence) -> tuple:
    """Float terms of a kernel sequence and the ratio bound for its tail.

    The head is checked on every call; the conversion is made once per
    sequence.
    """
    a._require_kernel_head("a")
    return a._float_kernel


def _eval_series(terms: np.ndarray, ratio_bound: float, u: np.ndarray, tol: float) -> tuple:
    """Certified partial sums of ``sum_n terms[n] u^n`` for every entry of ``u``.

    Returns ``(values, tails, used)``, one entry each per entry of ``u``:
    ``used`` is the smallest ``M >= 1`` whose tail bound
    ``terms[M] |u|^M / (1 - ratio_bound |u|)`` is below ``tol``, ``tails``
    is that bound and ``values`` the partial sum over ``used`` terms.
    Errors are raised for the worst entry.

    No ratio ``terms[m+1] / terms[m]`` exceeds ``ratio_bound`` and
    ``ratio_bound |u| < 1``, so each bound decreases with ``M`` and the
    search bisects term indices.  The sums run Horner's rule from the
    top term down, over the entries that still need terms.  Every step
    acts on whole arrays of one value per entry; nothing of size
    entries x terms is built.
    """
    mod_u = np.abs(u)
    worst = float(np.max(mod_u, initial=0.0))
    if worst >= 1.0:
        raise ValueError(f"|u| must be < 1, got {worst}")
    n = terms.shape[0]
    if n < 2:
        raise UncertifiedEvaluationError("need at least two terms to bound the tail")
    if ratio_bound * worst >= 1.0:
        raise UncertifiedEvaluationError(
            f"ratio bound {ratio_bound:.6g} times |u|={worst:.6g} reaches 1; tail not certifiable"
        )
    geom = 1.0 - ratio_bound * mod_u

    def tail(m):
        return terms[m] * mod_u**m / geom

    if not np.all(tail(n - 1) < tol):
        raise UncertifiedEvaluationError(
            f"tail bound not met within {n} available terms at tol={tol:g}"
        )
    # bisect (lo, used] while keeping tail(used) < tol; M = 0 is a sentinel
    lo = np.zeros(u.shape, dtype=np.intp)
    used = np.full(u.shape, n - 1, dtype=np.intp)
    for _ in range((n - 2).bit_length()):
        mid = (lo + used + 1) // 2
        ok = tail(mid) < tol
        used = np.where(ok, mid, used)
        lo = np.where(ok, lo, mid)
    # Horner's rule from the top term down; sorted by decreasing M,
    # entries 0..k need term m exactly when lengths[k] > m >= lengths[k + 1]
    order = np.argsort(-used, kind="stable")
    lengths = used[order].tolist() + [0]
    z = u[order]
    acc = np.zeros(u.shape, dtype=complex)
    for k in np.flatnonzero(np.diff(lengths)).tolist():
        head, z_head = acc[: k + 1], z[: k + 1]
        for m in range(lengths[k] - 1, lengths[k + 1] - 1, -1):
            head *= z_head
            head += terms[m]
    values = np.empty_like(acc)
    values[order] = acc
    return values, tail(used), used


def kernel_eval(a: CoefficientSequence, u: complex, tol: float = 1e-10) -> KernelValue:
    """Evaluate sum_n a_n u^n with a certified geometric tail bound.

    The ratio bound ``rho = max(1, max_n a_{n+1} / a_n)`` over the
    supplied terms is assumed to bound every successor ratio of the full
    sequence, which holds for log-convex kernels (their ratios rise
    toward 1).  Then ``a_{M+j} <= a_M rho^j``, so the discarded tail
    after ``M`` terms is at most ``a_M |u|^M / (1 - rho |u|)``.  The
    smallest ``M`` within the truncation meeting ``tol`` is used.  If
    ``rho |u| >= 1`` or no ``M`` achieves the bound, the evaluation is
    refused rather than silently truncated.

    Requires ``|u| < 1`` and a kernel-normalized sequence (``a_0 = 1``,
    positive terms).  ``u = 0`` returns exactly 1.
    """
    terms, ratio_bound = _kernel_terms(a)
    values, tails, used = _eval_series(terms, ratio_bound, np.array([complex(u)]), tol)
    return KernelValue(complex(values[0]), float(tails[0]), int(used[0]), ratio_bound)


def _partial_products(s: Sequence[float], count: int) -> list:
    """p_k = s_0 s_1 ... s_k for k < count."""
    out = []
    p = 1.0
    for k in range(count):
        p *= s[k]
        out.append(p)
    return out


def log_convex_from_ratios(s: RatioSequence, n_terms: int) -> CoefficientSequence:
    """Log-convex coefficient sequence attached to a ratio sequence.

    Term ``n`` is ``exp(-sum_{k<n} p_k)`` with ``p_k = s_0 ... s_k`` (the
    empty sum gives the mandatory leading 1).  Successor ratios are
    ``exp(p_n)``, strictly decreasing toward 1, so the output always
    passes the ratio conditions of `check_admissible_log_convex`.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if len(s.terms) < n_terms - 1:
        raise ValueError("ratio sequence too short for requested truncation")
    products = _partial_products(s.terms, n_terms - 1)
    out = [1.0]
    acc = 0.0
    for p in products:
        acc += p
        out.append(math.exp(-acc))
    return CoefficientSequence(tuple(out), exact=False)


def partial_sum_discrepancy(s: RatioSequence, s_prime: RatioSequence, n_terms: int) -> float:
    """Largest deviation between cumulative-product partial sums.

    Returns ``max_{n <= n_terms} |sum_{k<n} (p_k - p'_k)|`` where ``p_k``
    and ``p'_k`` are the cumulative products of the two ratio sequences.
    This is the distance controlling whether the two log-convex images
    generate the same multiplier algebra.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    if len(s.terms) < n_terms or len(s_prime.terms) < n_terms:
        raise ValueError("both ratio sequences need at least n_terms terms")
    p = _partial_products(s.terms, n_terms)
    q = _partial_products(s_prime.terms, n_terms)
    best = 0.0
    acc = 0.0
    for k in range(n_terms):
        acc += p[k] - q[k]
        best = max(best, abs(acc))
    return best


def cumulative_product_deviation(g: Sequence[float], n_terms: int) -> tuple:
    """Summed deviation of cumulative products from 1, with the embedding.

    Returns ``(partial_sum, embedding)`` where ``embedding[n] =
    (prod_{k<=n} g_k) - 1`` for ``n < n_terms`` and ``partial_sum`` is the
    l1 norm of the embedding.  Sequences whose full sum converges form a
    group under componentwise multiplication, and the embedding is an
    isometry of that group into l1; at a truncation both statements
    become statements about the window.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    terms = [float(x) for x in g]
    if len(terms) < n_terms:
        raise ValueError("g needs at least n_terms terms")
    if any(x <= 0 for x in terms[:n_terms]):
        raise ValueError("g must have strictly positive terms")
    embedding = []
    prod = 1.0
    for k in range(n_terms):
        prod *= terms[k]
        embedding.append(prod - 1.0)
    partial = math.fsum(abs(e) for e in embedding)
    return partial, embedding


def cumulative_product_distance(g: Sequence[float], h: Sequence[float], n_terms: int) -> float:
    """l1 distance between the cumulative-product embeddings of g and h."""
    _, eg = cumulative_product_deviation(g, n_terms)
    _, eh = cumulative_product_deviation(h, n_terms)
    return math.fsum(abs(x - y) for x, y in zip(eg, eh))


def _scaling_deviation(log_ratios: list, n_exp: int) -> float:
    """d(g, 1) for the step multiplier built with root exponent n_exp.

    The cumulative log of the multiplier at index n (n <= n1) is
    ``S_n / n_exp`` with ``S_n = sum_{k<=n} log(t_k/s_k)``; at the
    correction index the logs cancel exactly and every later product is 1.
    """
    acc = 0.0
    total = 0.0
    for l in log_ratios:
        acc += l
        total += abs(math.expm1(acc / n_exp))
    return total


def turbulence_step(
    s: RatioSequence,
    t: RatioSequence,
    n1: int,
    eps: float,
    n_max: int = 2**20,
) -> tuple:
    """One local-orbit step scaling s onto t across a finite window.

    Returns ``(g, N)`` where ``g`` is a finite multiplier supported on
    indices ``0..n1+1``: ``g_k = (t_k/s_k)^(1/N)`` for ``k <= n1``, a
    single correcting entry ``g_{n1+1} = prod_{j<=n1} (s_j/t_j)^(1/N)``
    restoring cumulative product 1, and 1 beyond.  ``N`` is the smallest
    exponent with deviation ``d(g, 1) < eps``; applying ``g`` N times
    moves ``s_k`` exactly onto ``t_k`` for ``k <= n1`` while every
    intermediate stays inside (0, 1) coordinatewise.

    The intermediate constraint does not depend on N: each coordinate
    path is monotone between its endpoints, and the correction
    coordinate peaks at ``prod(s_j/t_j) * s_{n1+1}``.  If that peak
    reaches 1, or no ``N <= n_max`` meets ``eps``, a `ScalingStepError`
    is raised.
    """
    if not 0 <= n1 < len(s.terms):
        raise ValueError("n1 must satisfy 0 <= n1 < len(s)")
    if len(t.terms) <= n1:
        raise ValueError("t must cover indices 0..n1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    log_ratios = [math.log(t.terms[k]) - math.log(s.terms[k]) for k in range(n1 + 1)]
    total_log = math.fsum(log_ratios)

    # The correction coordinate's worst intermediate is its i = N endpoint,
    # independent of N; it must stay inside the interval.
    if n1 + 1 < len(s.terms):
        endpoint = math.exp(-total_log) * s.terms[n1 + 1]
        if endpoint >= 1.0:
            raise ScalingStepError(
                "correction coordinate would leave (0,1): "
                f"prod(s/t) * s[n1+1] = {endpoint:.6g} >= 1 for every exponent"
            )

    if _scaling_deviation(log_ratios, 1) < eps:
        n_exp = 1
    else:
        hi = 1
        while True:
            hi *= 2
            if hi > n_max:
                raise ScalingStepError(
                    f"no exponent <= {n_max} brings the deviation below eps={eps:g}"
                )
            if _scaling_deviation(log_ratios, hi) < eps:
                break
        lo = hi // 2  # fails; hi passes
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _scaling_deviation(log_ratios, mid) < eps:
                hi = mid
            else:
                lo = mid
        n_exp = hi

    g = [math.exp(l / n_exp) for l in log_ratios]
    g.append(math.exp(-total_log / n_exp))
    width = max(len(s.terms), n1 + 2)
    g.extend([1.0] * (width - len(g)))
    return g, n_exp


def drury_arveson_inner(alpha: Sequence[int], beta: Sequence[int]) -> Fraction:
    """Exact inner product of monomials z^alpha, z^beta in the d-shift space.

    Distinct multi-indices are orthogonal; equal ones have squared norm
    ``alpha! / |alpha|!`` (multinomial reciprocal), returned as an exact
    rational.
    """
    alpha = tuple(int(x) for x in alpha)
    beta = tuple(int(x) for x in beta)
    if len(alpha) != len(beta):
        raise ValueError("multi-indices must have the same length")
    if any(x < 0 for x in alpha) or any(x < 0 for x in beta):
        raise ValueError("multi-index entries must be nonnegative")
    if alpha != beta:
        return Fraction(0)
    num = 1
    for x in alpha:
        num *= math.factorial(x)
    return Fraction(num, math.factorial(sum(alpha)))
