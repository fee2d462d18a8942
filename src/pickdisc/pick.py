"""Pick matrices and positive-semidefiniteness feasibility checks.

For interpolation nodes ``z_1..z_n`` in the unit ball and scalar targets
``lambda_1..lambda_n`` in the closed unit disc, the Pick matrix of a
kernel ``K(z, w) = sum_m a_m <z, w>^m`` is

    M_ij = K(z_i, z_j) (1 - lambda_i conj(lambda_j)).

Positive semidefiniteness of ``M`` is exactly solvability of the
interpolation problem by a multiplier of norm at most 1; this module
builds ``M`` through certified kernel evaluations and decides PSD-ness
by the minimum eigenvalue of the Hermitized matrix with a scale-aware
tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .seqkernel import CoefficientSequence, _eval_series

__all__ = [
    "PickProblem",
    "HermitianMatrix",
    "PsdReport",
    "build_pick_matrix",
    "min_eigenvalue",
    "pick_feasible",
    "gram_and_irreducibility",
]

_HERMITIAN_BUILD_TOL = 1e-12
_HERMITIAN_ACCEPT_TOL = 1e-9
_NODE_GAP = 1e-12


class HermitianMatrix:
    """A square complex matrix with finite entries, validated to be Hermitian within tolerance."""

    def __init__(self, array, tol: float = _HERMITIAN_BUILD_TOL):
        arr = np.array(array, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        if not arr.size:
            raise ValueError("matrix is empty (0x0)")
        peak = float(np.max(np.abs(arr)))
        if not np.isfinite(peak):  # a nan or infinite entry makes the peak non-finite
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, peak)
        drift = float(np.max(np.abs(arr - arr.conj().T)))
        if drift > tol * scale:
            raise ValueError(f"matrix is not Hermitian: max asymmetry {drift:g}")
        arr.setflags(write=False)
        self.array = arr

    @property
    def order(self) -> int:
        return self.array.shape[0]

    def __getitem__(self, idx):
        return self.array[idx]

    def sup_norm(self) -> float:
        """Max absolute row sum (the operator infinity-norm)."""
        return float(np.max(np.sum(np.abs(self.array), axis=1)))


@dataclass(frozen=True)
class PsdReport:
    """Minimum-eigenvalue verdict with the scaled tolerance actually used."""

    min_eigenvalue: float
    is_psd: bool
    tolerance: float

    def as_dict(self) -> dict:
        return asdict(self)


def _ball_nodes(points, dimension: int, what: str) -> tuple:
    """``points`` as complex tuples and as an ``(n, dimension)`` array, strictly inside the ball.

    The squared norms round as a loop adding ``abs(c) ** 2`` left to right does (libm ``hypot``
    and ``pow``), so a point next to the sphere keeps that loop's verdict.
    """
    pts = tuple(tuple(complex(c) for c in p) for p in points)
    try:
        arr = np.array(pts, dtype=complex).reshape(len(pts), dimension)
    except ValueError:
        raise ValueError(f"every {what} must have {dimension} coordinates") from None
    if not np.all(sum(np.float_power(np.hypot(arr.real, arr.imag), 2.0).T) < 1.0):
        raise ValueError(f"{what}s must lie strictly inside the unit ball")
    return pts, arr


@dataclass(frozen=True)
class PickProblem:
    """An interpolation data set: kernel, ball nodes, and disc targets.

    ``nodes`` is a tuple of length-``dimension`` complex tuples, pairwise
    distinct and of norm < 1; ``targets`` holds one complex number of
    modulus <= 1 per node.
    """

    kernel: CoefficientSequence
    dimension: int
    nodes: tuple
    targets: tuple

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        nodes, arr = _ball_nodes(self.nodes, self.dimension, "node")
        targets = tuple(complex(t) for t in self.targets)
        if len(nodes) != len(targets) or not nodes:
            raise ValueError("need equally many nodes and targets, at least one each")
        gap = np.max(np.abs(arr[:, None, :] - arr[None, :, :]), axis=2)
        coincident = np.argwhere(np.triu(gap <= _NODE_GAP, k=1))
        if coincident.size:
            i, j = coincident[0]
            raise ValueError(f"nodes {i} and {j} coincide")
        if not all(abs(t) <= 1.0 for t in targets):
            raise ValueError("targets must have modulus <= 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return len(self.nodes)


def _pairings(nodes: Sequence[Sequence[complex]]) -> np.ndarray:
    """Hermitian inner products <z_i, z_j> as an n x n array."""
    arr = np.array(nodes, dtype=complex)
    return arr @ arr.conj().T


def _mirror_upper(arr: np.ndarray) -> np.ndarray:
    """The Hermitian matrix with the upper triangle of ``arr`` and a real diagonal."""
    out = np.triu(arr, k=1)
    out += out.conj().T
    np.fill_diagonal(out, arr.diagonal().real)
    return out


def _kernel_gram(kernel: CoefficientSequence, nodes, kernel_tol: float) -> np.ndarray:
    """``K(z_i, z_j)`` evaluated for i <= j in one batch and mirrored by conjugation.

    The diagonal is real and the result Hermitian by construction.
    Kernel evaluations that cannot certify their tail at ``kernel_tol``
    propagate as errors.
    """
    inner = _pairings(nodes)
    terms, ratio_bound = kernel._float_kernel
    rows, cols = np.triu_indices(inner.shape[0])
    upper = np.zeros_like(inner)
    upper[rows, cols] = _eval_series(terms, ratio_bound, inner[rows, cols], kernel_tol)[0]
    return _mirror_upper(upper)


def build_pick_matrix(problem: PickProblem, kernel_tol: float = 1e-10) -> HermitianMatrix:
    """Assemble the Pick matrix with certified kernel evaluations.

    The kernel Gram matrix is multiplied entrywise by
    ``1 - lambda_i conj(lambda_j)``, and the upper triangle of the
    product is mirrored, so the result is Hermitian by construction.
    Kernel evaluations that cannot certify their tail at ``kernel_tol``
    propagate as errors.
    """
    gram = _kernel_gram(problem.kernel, problem.nodes, kernel_tol)
    t = np.array(problem.targets, dtype=complex)
    return HermitianMatrix(_mirror_upper(gram * (1.0 - np.outer(t, t.conj()))))


def min_eigenvalue(matrix, tol: float = 1e-9) -> PsdReport:
    """Minimum eigenvalue of a Hermitian matrix with a scaled PSD verdict.

    Accepts a `HermitianMatrix` or any square array Hermitian within
    1e-9 (relative to ``max(1, sup-norm)``); the matrix is symmetrized
    before the eigensolve.  The verdict tolerance is
    ``tol * max(1, sup_norm)``; ``tol`` must be finite and ``>= 0``.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if isinstance(matrix, HermitianMatrix):
        herm = matrix
    else:
        herm = HermitianMatrix(matrix, tol=_HERMITIAN_ACCEPT_TOL)
    arr = herm.array
    sym = (arr + arr.conj().T) / 2.0
    eigenvalues = np.linalg.eigvalsh(sym)
    min_eig = float(eigenvalues[0])
    scaled = tol * max(1.0, herm.sup_norm())
    return PsdReport(min_eigenvalue=min_eig, is_psd=bool(min_eig >= -scaled), tolerance=scaled)


def pick_feasible(
    problem: PickProblem, tol: float = 1e-9, kernel_tol: float = 1e-10
) -> PsdReport:
    """Feasibility of the norm-one interpolation problem: is the Pick matrix PSD."""
    return min_eigenvalue(build_pick_matrix(problem, kernel_tol=kernel_tol), tol=tol)


def gram_and_irreducibility(
    kernel: CoefficientSequence,
    dimension: int,
    points: Sequence,
    tol: float = 1e-9,
    kernel_tol: float = 1e-10,
) -> tuple:
    """Gram matrix of kernel sections and a strict-irreducibility verdict.

    Returns ``(G, verdict)`` with ``G_ij = K(z_i, z_j)``.  The verdict,
    decided on the normalized Gram matrix, is true when every
    ``|G_ij| / sqrt(G_ii G_jj)`` (no orthogonal pair) and every
    ``1 - |G_ij|^2 / (G_ii G_jj)`` (no pair of proportional sections)
    exceeds ``tol``, finite and ``>= 0``.  For the Szego kernel the
    latter is ``rho(z_i, z_j)^2``, the same at every automorphic image.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    pts, arr = _ball_nodes((p if np.ndim(p) else (p,) for p in points), dimension, "point")
    if not pts:
        raise ValueError("need at least one point")
    gram = _kernel_gram(kernel, arr, kernel_tol)
    rows, cols = np.triu_indices(len(pts), k=1)
    diag = gram.diagonal().real
    cosines = np.abs(gram[rows, cols]) / np.sqrt(diag[rows] * diag[cols])
    verdict = not (np.any(cosines <= tol) or np.any(1.0 - cosines**2 <= tol))
    return HermitianMatrix(gram), verdict
