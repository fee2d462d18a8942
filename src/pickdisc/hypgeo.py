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

`moebius_through_three_points` composes ``phi_{dst0}``, a rotation and
``phi_{src0}`` and accepts the map when it hits every destination within
a tolerance in rho.  `triple_rigidity_match` implements the rigidity
fact that three labeled points with pairwise-distinct distances match
into a candidate set with all-distinct distances in at most one way.

Membership is decided here: `_disc_point` checks each scalar disc point
the package takes in and `as_ball_point` each ball point, both as
``not |z| < 1``, which refuses the boundary and NaN alike; encoded
configurations and Pick nodes apply the same test to whole arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations, permutations
from numbers import Integral
from typing import Sequence

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
    """No disc automorphism takes the source triple onto the destination triple.

    Carries in ``residual`` the largest pseudo-hyperbolic distance from
    an image of the candidate map to its destination.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


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
        return _moebius(self.alpha, self.beta, complex(z))

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
        """Parameter closeness up to the projective sign, relative to the coefficient scale.

        The normal form flips sign at ``Re(alpha) = 0``, so ``other`` is
        tried with both signs.  Long compositions have coefficients far
        above 1, where a fixed absolute tolerance would reject mere
        roundoff; near the identity the scale floor keeps it absolute.
        """
        scale = max(1.0, abs(self.alpha), abs(self.beta), abs(other.alpha), abs(other.beta))
        return any(
            abs(self.alpha - sign * other.alpha) <= tol * scale
            and abs(self.beta - sign * other.beta) <= tol * scale
            for sign in (1, -1)
        )


def _disc_point(z, message: str = "points must lie strictly inside the disc") -> complex:
    """``z`` as a Python complex, refused with ``message`` unless ``|z| < 1``."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(message)
    return z


def as_ball_point(z, dimension: int | None = None) -> np.ndarray:
    """Coerce to a complex vector strictly inside the unit ball."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("a ball point must be a scalar or a 1-d vector")
    if dimension is not None and arr.shape[0] != dimension:
        raise ValueError(f"expected dimension {dimension}, got {arr.shape[0]}")
    if not np.linalg.norm(arr) < 1.0:
        raise ValueError("point must lie strictly inside the unit ball")
    return arr


def phi_a(a, z):
    """Involutive automorphism of the ball exchanging 0 and ``a``.

    Scalars are treated as points of the disc (d = 1) and returned as
    scalars; vectors as points of the ball in C^d.
    """
    if np.ndim(a) == 0 and np.ndim(z) == 0:
        a = _disc_point(a)
        z = _disc_point(z)
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


def _moebius(alpha, beta, z):
    """``(alpha z + beta) / (conj(beta) z + conj(alpha))``, unchecked.

    As in `_pseudo_hyperbolic`, Python complex scalars stay in Python
    arithmetic and numpy arrays broadcast.
    """
    return (alpha * z + beta) / (beta.conjugate() * z + alpha.conjugate())


def _pseudo_hyperbolic(a, b):
    """``|a - b| / |1 - conj(a) b|`` for disc points, unchecked.

    Python complex scalars stay in Python arithmetic and numpy arrays
    broadcast, so each caller gets the arithmetic it always had.
    """
    return abs(a - b) / abs(1.0 - a.conjugate() * b)


def rho(a, b) -> float:
    """Pseudo-hyperbolic distance |phi_a(b)|, automorphism-invariant."""
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return _pseudo_hyperbolic(_disc_point(a), _disc_point(b))
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


def moebius_through_three_points(
    src: Sequence[complex],
    dst: Sequence[complex],
    tol: float = 1e-9,
) -> DiscAutomorphism:
    """The disc automorphism taking three disc points onto three others.

    The only candidate is ``f = phi_{dst0} o R o phi_{src0}``, where the
    rotation ``R`` turns ``phi_{src0}(src1)`` onto the ray through
    ``phi_{dst0}(dst1)``.  It is returned when the worst residual
    ``rho(f(src[i]), dst[i])`` is at most ``tol``, which, unlike a test
    on the coefficients, does not depend on their scale; otherwise a
    `DiscPreservationError` carrying that residual is raised.
    Coincident points in either triple are rejected.
    """
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("need exactly three source and three destination points")
    src = [_disc_point(z, "source points must lie strictly inside the disc") for z in src]
    dst = [_disc_point(z, "destination points must lie strictly inside the disc") for z in dst]
    for triple, name in ((src, "source"), (dst, "destination")):
        for i, j in combinations(range(3), 2):
            if abs(triple[i] - triple[j]) <= _DISTINCT_GAP:
                raise DegenerateConfigurationError(
                    f"coincident {name} points at indices {i}, {j}"
                )
    to_zero = DiscAutomorphism(1j, -1j * src[0])  # phi_{src0}
    from_zero = DiscAutomorphism(1j, -1j * dst[0])  # phi_{dst0}, its own inverse
    turn = cmath.phase(from_zero(dst[1])) - cmath.phase(to_zero(src[1]))
    rotation = DiscAutomorphism(cmath.rect(1.0, turn / 2.0), 0j)
    f = from_zero.compose(rotation.compose(to_zero))
    residual = max(_pseudo_hyperbolic(f(z), w) for z, w in zip(src, dst))
    if residual <= tol:
        return f
    raise DiscPreservationError(
        "no disc automorphism takes the source triple onto the destination triple: "
        f"the best candidate misses by {residual:.3g} in rho",
        residual=residual,
    )


def triple_rigidity_match(
    triple: Sequence[complex],
    candidates: Sequence[complex],
    delta: float = 1e-6,
    tol: float = 1e-9,
) -> tuple:
    """Forced assignment of a labeled triple into a candidate point set.

    ``triple`` carries three points whose pairwise rho distances are
    assumed realized inside ``candidates`` (3 or 4 points whose pairwise
    distances are all distinct with gap at least ``delta``).  Every
    injective assignment ``i -> sigma(i)`` is tried, at most 24, and the
    one whose three distances all match within ``tol`` is returned as
    the index triple ``(sigma(0), sigma(1), sigma(2))``.

    Raises `DegenerateConfigurationError` when the candidate distances
    are ambiguous and `RigidityMatchError` unless exactly one assignment
    matches.
    """
    if len(triple) != 3:
        raise ValueError("triple must contain exactly three points")
    if len(candidates) not in (3, 4):
        raise ValueError("candidate set must contain three or four points")
    cand = [complex(z) for z in candidates]
    dist = [[rho(p, q) for q in cand] for p in cand]
    values = [dist[i][j] for i, j in combinations(range(len(cand)), 2)]
    for i, j in combinations(range(len(values)), 2):
        if abs(values[i] - values[j]) < delta:
            raise DegenerateConfigurationError(
                "degenerate configuration: candidate distances "
                f"{values[i]:.9g} and {values[j]:.9g} are separated by less than {delta:g}"
            )
    tri = [complex(z) for z in triple]
    edges = [(i, j, rho(tri[i], tri[j])) for i, j in combinations(range(3), 2)]
    matches = [
        sigma
        for sigma in permutations(range(len(cand)), 3)
        if all(abs(dist[sigma[i]][sigma[j]] - want) <= tol for i, j, want in edges)
    ]
    if len(matches) != 1:
        raise RigidityMatchError(
            f"{len(matches)} assignments of the triple into the candidates match its "
            "distances instead of exactly one"
        )
    return matches[0]
