"""Automorphisms of the unit disc and ball, and pseudo-hyperbolic geometry.

The disc picture used everywhere downstream: an automorphism of the unit
disc is written

    z  ->  (alpha z + beta) / (conj(beta) z + conj(alpha)),
    |alpha|^2 - |beta|^2 = 1,

a normal form unique up to an overall sign, fixed here by Re(alpha) > 0
(ties broken by Im(alpha) > 0).  Real 2x2 matrices of determinant 1 act
on the upper half-plane; conjugating by the Cayley map
``C(w) = (w - i) / (w + i)`` turns them into disc automorphisms, and
`moebius_from_matrix` performs that conjugation exactly at the
coefficient level.

For the ball in C^d the involutive automorphism exchanging 0 and ``a``
is

    phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>),

with ``P_a`` the projection onto span{a}, ``Q_a = I - P_a`` and
``s_a = sqrt(1 - |a|^2)``.  The pseudo-hyperbolic distance is
``rho(a, b) = |phi_a(b)|``; it is invariant under all automorphisms.

`moebius_through_three_points` solves the three-point interpolation
problem on the Riemann sphere by composing cross-ratio maps as exact
2x2 complex matrices (no intermediate point evaluation, hence no
infinities to special-case) and then tests whether the solution
preserves the disc.  `triple_rigidity_match` implements the rigidity
fact that three labeled points with pairwise-distinct distances match
into a candidate set with all-distinct distances in at most one way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Mat2",
    "DiscAutomorphism",
    "DiscPreservationError",
    "DegenerateConfigurationError",
    "RigidityMatchError",
    "as_ball_point",
    "phi_a",
    "rho",
    "moebius_from_matrix",
    "moebius_through_three_points",
    "triple_rigidity_match",
]

_DISTINCT_GAP = 1e-12


class DiscPreservationError(ValueError):
    """The sphere map through the requested points does not preserve the disc.

    Carries the (determinant-normalized) sphere-map coefficients in
    ``coefficients`` for diagnostics.
    """

    def __init__(self, message: str, coefficients: tuple):
        super().__init__(message)
        self.coefficients = coefficients


class DegenerateConfigurationError(ValueError):
    """Candidate points admit ambiguous (nearly equal) pairwise distances."""


class RigidityMatchError(ValueError):
    """No consistent assignment matches the distance profile."""


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix with exact integer or real entries.

    Integer entries stay exact through products and inverses (the
    determinant-1 inverse is (d, -b, -c, a)), which is what the orbit
    machinery relies on.
    """

    a: float
    b: float
    c: float
    d: float

    def det(self):
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise ValueError("matrix is singular")
        if isinstance(self.a, Integral) and det == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def is_integral(self) -> bool:
        return all(isinstance(x, Integral) for x in self.entries())


@dataclass(frozen=True)
class DiscAutomorphism:
    """Disc automorphism in sign-normalized (alpha, beta) form.

    The constructor rescales the pair onto the hyperboloid
    ``|alpha|^2 - |beta|^2 = 1`` (rejecting pairs with
    ``|alpha| <= |beta|``) and fixes the overall sign.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        alpha = complex(self.alpha)
        beta = complex(self.beta)
        norm = abs(alpha) ** 2 - abs(beta) ** 2
        if not norm > 0:
            raise ValueError("need |alpha| > |beta| for a disc automorphism")
        scale = 1.0 / math.sqrt(norm)
        alpha *= scale
        beta *= scale
        if alpha.real < 0 or (alpha.real == 0 and alpha.imag < 0):
            alpha = -alpha
            beta = -beta
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def identity(cls) -> "DiscAutomorphism":
        return cls(1.0 + 0j, 0j)

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        return (self.alpha * z + self.beta) / (self.beta.conjugate() * z + self.alpha.conjugate())

    def compose(self, other: "DiscAutomorphism") -> "DiscAutomorphism":
        """The automorphism applying ``other`` first, then ``self``."""
        a1, b1 = self.alpha, self.beta
        a2, b2 = other.alpha, other.beta
        return DiscAutomorphism(
            a1 * a2 + b1 * b2.conjugate(),
            a1 * b2 + b1 * a2.conjugate(),
        )

    def inverse(self) -> "DiscAutomorphism":
        return DiscAutomorphism(self.alpha.conjugate(), -self.beta)

    def almost_equal(self, other: "DiscAutomorphism", tol: float = 1e-9) -> bool:
        """Parameter closeness, relative to the larger coefficient scale.

        Long compositions have coefficients far above 1, where a fixed
        absolute tolerance would reject mere roundoff; near the identity
        the scale floor keeps the comparison absolute.
        """
        scale = max(1.0, abs(self.alpha), abs(self.beta), abs(other.alpha), abs(other.beta))
        return (
            abs(self.alpha - other.alpha) <= tol * scale
            and abs(self.beta - other.beta) <= tol * scale
        )


def as_ball_point(z, dimension: int | None = None) -> np.ndarray:
    """Coerce to a complex vector strictly inside the unit ball."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("a ball point must be a scalar or a 1-d vector")
    if dimension is not None and arr.shape[0] != dimension:
        raise ValueError(f"expected dimension {dimension}, got {arr.shape[0]}")
    if np.linalg.norm(arr) >= 1.0:
        raise ValueError("point must lie strictly inside the unit ball")
    return arr


def phi_a(a, z):
    """Involutive automorphism of the ball exchanging 0 and ``a``.

    Scalars are treated as points of the disc (d = 1) and returned as
    scalars; vectors as points of the ball in C^d.
    """
    scalar = np.ndim(a) == 0 and np.ndim(z) == 0
    if scalar:
        a = complex(a)
        z = complex(z)
        if abs(a) >= 1 or abs(z) >= 1:
            raise ValueError("points must lie strictly inside the disc")
        return (a - z) / (1.0 - a.conjugate() * z)
    av = as_ball_point(a)
    zv = as_ball_point(z, dimension=av.shape[0])
    norm_a_sq = float(np.vdot(av, av).real)
    inner = complex(np.dot(zv, np.conj(av)))  # <z, a>, linear in z
    if norm_a_sq == 0.0:
        return -zv
    proj = (inner / norm_a_sq) * av
    s_a = math.sqrt(1.0 - norm_a_sq)
    return (av - proj - s_a * (zv - proj)) / (1.0 - inner)


def _pseudo_hyperbolic(a, b):
    """``|a - b| / |1 - conj(a) b|`` for disc points, unchecked.

    Python complex scalars stay in Python arithmetic and numpy arrays
    broadcast, so each caller gets the arithmetic it always had.
    """
    return abs(a - b) / abs(1.0 - a.conjugate() * b)


def rho(a, b) -> float:
    """Pseudo-hyperbolic distance |phi_a(b)|, automorphism-invariant."""
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        a = complex(a)
        b = complex(b)
        if abs(a) >= 1 or abs(b) >= 1:
            raise ValueError("points must lie strictly inside the disc")
        return _pseudo_hyperbolic(a, b)
    return float(np.linalg.norm(phi_a(a, b)))


def moebius_from_matrix(m: Mat2) -> DiscAutomorphism:
    """Disc automorphism conjugate to a determinant-1 real matrix action.

    The matrix acts on the upper half-plane; conjugation by the Cayley
    map gives coefficients

        alpha = (-(a + d) + i (c - b)) / 2,
        beta  = (-(a - d) + i (b + c)) / 2.

    Integer matrices must have determinant exactly 1; real matrices are
    rescaled when the determinant is positive and rejected otherwise.
    """
    a, b, c, d = m.entries()
    det = m.det()
    if m.is_integral():
        if det != 1:
            raise ValueError(f"integer matrix must have determinant 1, got {det}")
    else:
        if not det > 0:
            raise ValueError(f"matrix determinant must be positive, got {det}")
        scale = 1.0 / math.sqrt(det)
        a, b, c, d = a * scale, b * scale, c * scale, d * scale
    alpha = complex(-(a + d), (c - b)) / 2.0
    beta = complex(-(a - d), (b + c)) / 2.0
    return DiscAutomorphism(alpha, beta)


def _to_zero_one_inf(p: complex, q: complex, r: complex) -> np.ndarray:
    """Matrix of the sphere map sending (p, q, r) to (0, 1, infinity)."""
    return np.array(
        [[q - r, -p * (q - r)], [q - p, -r * (q - p)]],
        dtype=complex,
    )


def moebius_through_three_points(
    src: Sequence[complex],
    dst: Sequence[complex],
    tol: float = 1e-9,
) -> DiscAutomorphism:
    """The disc automorphism taking three disc points onto three others.

    The unique sphere map with ``f(src[i]) = dst[i]`` is assembled from
    cross-ratio matrices; it is returned as a `DiscAutomorphism` when its
    determinant-normalized matrix has the disc-preserving symmetry
    ``(alpha, beta; conj beta, conj alpha)`` within ``tol`` times
    ``max(1, |alpha|, |beta|)`` (long words have coefficients far above
    1, as in `DiscAutomorphism.almost_equal`), and a
    `DiscPreservationError` carrying the sphere coefficients is raised
    otherwise.  Coincident points in either triple are rejected.
    """
    src = [complex(z) for z in src]
    dst = [complex(z) for z in dst]
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("need exactly three source and three destination points")
    for triple, name in ((src, "source"), (dst, "destination")):
        if any(abs(z) >= 1 for z in triple):
            raise ValueError(f"{name} points must lie strictly inside the disc")
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(triple[i] - triple[j]) <= _DISTINCT_GAP:
                    raise DegenerateConfigurationError(
                        f"coincident {name} points at indices {i}, {j}"
                    )
    m_src = _to_zero_one_inf(*src)
    m_dst = _to_zero_one_inf(*dst)
    # Invert m_dst up to its (nonzero) determinant; scalars cancel in the map.
    inv_dst = np.array(
        [[m_dst[1, 1], -m_dst[0, 1]], [-m_dst[1, 0], m_dst[0, 0]]],
        dtype=complex,
    )
    m = inv_dst @ m_src
    # det(m) equals the product of all six pairwise differences, which is
    # tiny but perfectly healthy for closely spaced triples; computing it
    # in product form avoids the cancellation of the 2x2 formula
    det = (
        (src[1] - src[2]) * (src[1] - src[0]) * (src[0] - src[2])
        * (dst[1] - dst[2]) * (dst[1] - dst[0]) * (dst[0] - dst[2])
    )
    if det == 0:
        raise ValueError("degenerate three-point problem")
    m = m / cmath.sqrt(det)
    a_, b_, c_, d_ = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    scaled = tol * max(1.0, abs(a_), abs(b_))
    if abs(d_ - a_.conjugate()) <= scaled and abs(c_ - b_.conjugate()) <= scaled:
        return DiscAutomorphism(a_, b_)
    raise DiscPreservationError(
        "sphere map through the given triples does not preserve the disc",
        coefficients=(complex(a_), complex(b_), complex(c_), complex(d_)),
    )


def triple_rigidity_match(
    triple: Sequence[complex],
    candidates: Sequence[complex],
    delta: float = 1e-6,
    tol: float = 1e-9,
    metric: Callable[[complex, complex], float] = rho,
) -> tuple:
    """Forced assignment of a labeled triple into a candidate point set.

    ``triple`` carries three points whose pairwise ``metric`` distances
    are assumed realized inside ``candidates`` (3 or 4 points whose
    pairwise distances are all distinct with gap at least ``delta``).
    Distance matching within ``tol`` then admits at most one assignment
    ``i -> sigma(i)``; it is returned as the index triple
    ``(sigma(0), sigma(1), sigma(2))``.

    Raises `DegenerateConfigurationError` when the candidate distances
    are ambiguous and `RigidityMatchError` when no consistent assignment
    exists.
    """
    if len(triple) != 3:
        raise ValueError("triple must contain exactly three points")
    if len(candidates) not in (3, 4):
        raise ValueError("candidate set must contain three or four points")
    cand = [complex(z) for z in candidates]
    pairs = [(i, j) for i in range(len(cand)) for j in range(i + 1, len(cand))]
    cand_dist = {pair: metric(cand[pair[0]], cand[pair[1]]) for pair in pairs}
    values = list(cand_dist.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) < delta:
                raise DegenerateConfigurationError(
                    "degenerate configuration: candidate distances "
                    f"{values[i]:.9g} and {values[j]:.9g} are separated by less than {delta:g}"
                )
    tri = [complex(z) for z in triple]
    edge_pairs = {}
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        want = metric(tri[i], tri[j])
        hits = [pair for pair, have in cand_dist.items() if abs(have - want) <= tol]
        if len(hits) != 1:
            raise RigidityMatchError(
                f"distance {want:.9g} between triple points {i} and {j} matches "
                f"{len(hits)} candidate pairs instead of exactly one"
            )
        edge_pairs[(i, j)] = set(hits[0])
    role0 = edge_pairs[(0, 1)] & edge_pairs[(0, 2)]
    role1 = edge_pairs[(0, 1)] & edge_pairs[(1, 2)]
    role2 = edge_pairs[(0, 2)] & edge_pairs[(1, 2)]
    if not (len(role0) == len(role1) == len(role2) == 1):
        raise RigidityMatchError("matched candidate pairs do not assemble into a triangle")
    sigma = (role0.pop(), role1.pop(), role2.pop())
    if len(set(sigma)) != 3:
        raise RigidityMatchError("matched candidate pairs collapse onto fewer than three points")
    return sigma
