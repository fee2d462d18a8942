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
integers over a growing common denominator; float recursions, and the
cumulative products and sums, keep the rounding order of scalar loops,
so their output is bit for bit that of the loops.  Series evaluation
states its own rounding (`_eval_series`).

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
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
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
        """Read-only float terms and the tail ratio bound of a kernel, checked and made once.

        A bad head raises on every access, since a raising `cached_property` caches nothing.
        """
        self._require_kernel_head("a")
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
        return asdict(self)


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
        return asdict(self)


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
    float ``b`` sums each row ``b_k a_{n-k}`` left to right, as the sum
    above reads, with ``np.add.accumulate``: bit for bit the scalar loop.
    Terms that overflow raise the finiteness error of `CoefficientSequence`.
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
        x = np.array(x)
        a = np.ones(n_terms)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, n_terms):
                a[n] = np.add.accumulate(x[:n] * a[n - 1 :: -1])[-1]
        a = a.tolist()
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
    its last ratio is reported as 1.  ``tol`` must be ``>= 0``.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
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
    # left to right on every Python; from 3.12 the built-in sum of floats is compensated
    partial_sum = float(reduce(operator.add, a.terms))
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


def _eval_series(terms: np.ndarray, ratio_bound: float, u: np.ndarray, tol: float) -> tuple:
    """Certified partial sums of ``sum_n terms[n] u^n`` for every entry of ``u``.

    Returns ``(values, tails, used)``, one entry each per entry of ``u``:
    ``used`` is the smallest ``M >= 1`` whose tail bound
    ``terms[M] |u|^M / (1 - ratio_bound |u|)`` is below ``tol``, ``tails``
    is that bound and ``values`` the partial sum over ``used`` terms.
    Errors are raised for the worst entry.

    No ratio ``terms[m+1] / terms[m]`` exceeds ``ratio_bound`` and
    ``ratio_bound |u| < 1``, so each bound decreases with ``M``; the search
    lowers ``M`` from ``len(terms) - 1`` by falling powers of two while the
    bound stays below ``tol``.  The sums run Horner's rule from the top
    term down.  ``tol`` must be ``> 0``.

    A single entry takes its bounds for every ``M`` in one array call,
    searches them in Python and sums on Python `complex`.  Several
    entries take each step on whole arrays of one value per entry, over
    the entries that still need terms; nothing of size entries x terms
    is built.  Either way ``tails`` and ``used`` are bit for bit the
    same.  The sums are not: numpy's multiply of arrays of two or more
    entries may contract to FMA, so a batched value can differ in the
    last bits from the same point evaluated alone.
    """
    if not tol > 0:
        raise ValueError(f"kernel tolerance must be > 0, got {tol!r}")
    mod_u = np.abs(u)
    worst = float(mod_u.max(initial=0.0))
    if not worst < 1.0:
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

    # an exponent array, as in the search: `mod_u ** 2` would take `np.square`,
    # which rounds differently from `np.power` on some bases
    used = np.full(u.shape, n - 1, dtype=np.intp)
    if not (tail(used) < tol).all():
        raise UncertifiedEvaluationError(
            f"tail bound not met within {n} available terms at tol={tol:g}"
        )
    if u.size == 1:
        # the bits the array steps below give one entry: `np.power` over every
        # exponent rounds as it does per exponent, and numpy's in-place complex
        # multiply of one element is the scalar product Python's `complex` makes
        tails = terms * mod_u ** np.arange(n) / geom
        used = n - 1
        for k in reversed(range((n - 2).bit_length())):
            lower = max(used - (1 << k), 1)
            if tails[lower] < tol:
                used = lower
        z = complex(u[0])
        acc = 0j
        for t in terms[used - 1 :: -1].astype(complex).tolist():
            acc = acc * z + t
        return np.array([acc]), tails[used : used + 1], np.array([used])
    for k in reversed(range((n - 2).bit_length())):
        lower = np.maximum(used - (1 << k), 1)
        used = np.where(tail(lower) < tol, lower, used)
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
    positive terms).  ``u = 0`` returns exactly 1.  The value is Horner's
    rule on Python `complex`; the same point inside a batch of Pick or
    Gram entries gets the same ``tail_bound`` and ``terms_used``, but its
    value may differ in the last bits (see `_eval_series`).
    """
    terms, ratio_bound = a._float_kernel
    values, tails, used = _eval_series(terms, ratio_bound, np.array([complex(u)]), tol)
    return KernelValue(complex(values[0]), float(tails[0]), int(used[0]), ratio_bound)


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
    products = accumulate(s.terms[: n_terms - 1], operator.mul)
    out = [1.0] + [math.exp(-acc) for acc in accumulate(products)]
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
    p = accumulate(s.terms[:n_terms], operator.mul)
    q = accumulate(s_prime.terms[:n_terms], operator.mul)
    return max(map(abs, accumulate(map(operator.sub, p, q))), default=0.0)


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
    embedding = [p - 1.0 for p in accumulate(terms[:n_terms], operator.mul)]
    partial = math.fsum(abs(e) for e in embedding)
    return partial, embedding


def cumulative_product_distance(g: Sequence[float], h: Sequence[float], n_terms: int) -> float:
    """l1 distance between the cumulative-product embeddings of g and h."""
    _, eg = cumulative_product_deviation(g, n_terms)
    _, eh = cumulative_product_deviation(h, n_terms)
    return math.fsum(abs(x - y) for x, y in zip(eg, eh))


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
    restoring cumulative product 1, and 1 beyond.  ``N`` is decided on
    the multiplier returned: ``cumulative_product_deviation(g, len(g))``
    is below ``eps`` at ``N`` and, if ``N > 1``, not at ``N - 1``; the
    deviation falls with the exponent up to rounding, so ``N`` is the
    smallest exponent up to rounding.  In floats, applying ``g`` N times
    moves ``s_k`` onto ``t_k`` for ``k <= n1`` up to a relative error of
    about 1e-10 (seeded steps, eps down to 1e-6), the product of ``g`` is
    within a few ulps of 1, and every intermediate stays inside (0, 1)
    coordinatewise.

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
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
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

    width = max(len(s.terms), n1 + 2)

    def step(n_exp):
        g = [math.exp(l / n_exp) for l in log_ratios] + [math.exp(-total_log / n_exp)]
        return g + [1.0] * (width - len(g))

    def passes(n_exp):
        return cumulative_product_deviation(step(n_exp), width)[0] < eps

    # double hi up to n_max until it passes, then bisect (lo, hi]; lo = 0 fails
    lo, hi = 0, 1
    while not passes(hi):
        if hi >= n_max:
            raise ScalingStepError(
                f"no exponent <= {n_max} brings the deviation below eps={eps:g}"
            )
        lo, hi = hi, min(2 * hi, n_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return step(hi), hi


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
