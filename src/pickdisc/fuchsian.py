"""Free-group words as exact integer matrices, disc orbits, and sphere sums.

Words over two generators ``a = G1`` and ``b = G2`` (inverses written
``A``, ``B``) are kept freely reduced and ordered by length, then
lexicographically in the letter order ``a < A < b < B``.  A group preset
assigns exact integer determinant-1 matrices to the generators; words
multiply out exactly over Python integers, and only the final Moebius
evaluation moves to floating point.

Two presets are shipped.  GAMMA3 uses upper/lower triangular matrices
with off-diagonal entry 3 and acts discretely enough that the orbit of
any disc point is a Blaschke sequence (sphere sums decay geometrically);
LAMBDA2 uses entry 2, where the orbit of 0 fails the Blaschke condition.
`blaschke_diagnostics` compares consecutive sphere sums against a frozen
calibrated threshold to report that contrast, and
`calibrate_blaschke_thresholds` regenerates the calibration from a full
enumeration.

One breadth-first expansion of the word tree, vectorized per sphere
with int64 matrices and int8 letter rows, serves every caller:
`enumerate_words` turns its letter rows into `Word` objects,
`orbit_points` evaluates its matrices, and the encoding layer takes
both for its word window.  Widths are checked before each
multiplication and overflow raises instead of wrapping.  Orbit points
are produced by conjugating the half-plane action to the disc, and
``1 - |point|`` is computed from the identity
``|den|^2 - |num|^2 = (|alpha|^2 - |beta|^2)(1 - |z|^2)``, which avoids
cancellation when points crowd the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Iterator, Sequence

import numpy as np

from .hypgeo import Mat2, _pseudo_hyperbolic

__all__ = [
    "Word",
    "GroupPreset",
    "GAMMA3",
    "LAMBDA2",
    "PRESETS",
    "OrbitLevel",
    "OrbitTable",
    "BlaschkeDiagnostics",
    "enumerate_words",
    "word_to_matrix",
    "orbit_points",
    "blaschke_diagnostics",
    "separation_estimate",
    "calibrate_blaschke_thresholds",
    "load_blaschke_thresholds",
]

_ALPHABET = (1, -1, 2, -2)  # rank order: a < A < b < B
_RANK = {letter: rank for rank, letter in enumerate(_ALPHABET)}
_LETTER_CHARS = {1: "a", -1: "A", 2: "b", -2: "B"}
_CHAR_LETTERS = {ch: letter for letter, ch in _LETTER_CHARS.items()}
# Letters allowed after a final letter t (everything but its inverse), rank order.
_CHILD_TABLE = {t: tuple(l for l in _ALPHABET if l != -t) for t in _ALPHABET}

_INT64_GUARD = 2**60  # the largest entry ever multiplied, whatever the generators
_BOUNDARY_GUARD = 1e-15  # orbit points must keep 1 - |point| above this


def _reduce_concat(left: tuple, right: tuple) -> tuple:
    stack = list(left)
    for letter in right:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word over {a, A, b, B}, the group identity being ()."""

    letters: tuple = ()

    def __post_init__(self):
        letters = tuple(int(l) for l in self.letters)
        for l in letters:
            if l not in _RANK:
                raise ValueError(f"invalid letter code {l}")
        for x, y in zip(letters, letters[1:]):
            if x == -y:
                raise ValueError("word is not freely reduced")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def from_string(cls, text: str) -> "Word":
        """Parse letters a/A/b/B ('e' or '' is the identity), freely reducing."""
        text = text.strip()
        if text in ("", "e"):
            return cls(())
        letters: tuple = ()
        for ch in text:
            if ch not in _CHAR_LETTERS:
                raise ValueError(f"invalid word letter {ch!r} (expected a, A, b or B)")
            letters = _reduce_concat(letters, (_CHAR_LETTERS[ch],))
        return cls(letters)

    def to_string(self) -> str:
        if not self.letters:
            return "e"
        return "".join(_LETTER_CHARS[l] for l in self.letters)

    def __str__(self) -> str:
        return self.to_string()

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce_concat(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def sort_key(self) -> tuple:
        """Length-then-lexicographic canonical key."""
        return (len(self.letters), tuple(_RANK[l] for l in self.letters))


@dataclass(frozen=True)
class GroupPreset:
    """Two exact integer determinant-1 matrices generating a subgroup."""

    name: str
    gen1: Mat2
    gen2: Mat2

    def __post_init__(self):
        for gen in (self.gen1, self.gen2):
            if not gen.is_integral():
                raise ValueError("preset generators must have integer entries")
            if gen.det() != 1:
                raise ValueError("preset generators must have determinant 1")

    @cached_property
    def _letter_matrices(self) -> dict:
        return {
            1: self.gen1,
            -1: self.gen1.inverse(),
            2: self.gen2,
            -2: self.gen2.inverse(),
        }

    def matrix_for(self, letter: int) -> Mat2:
        return self._letter_matrices[letter]


GAMMA3 = GroupPreset("GAMMA3", Mat2(1, 3, 0, 1), Mat2(1, 0, 3, 1))
LAMBDA2 = GroupPreset("LAMBDA2", Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1))
PRESETS = {"GAMMA3": GAMMA3, "LAMBDA2": LAMBDA2}


def enumerate_words(max_length: int) -> list:
    """All reduced words of length <= max_length in canonical order."""
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    # the letter rows are the same under every preset
    spheres = _spheres(GAMMA3, max_length, max_length)
    return [w for _, _, rows in spheres for w in _row_words(rows)]


def word_to_matrix(word: Word, preset: GroupPreset) -> Mat2:
    """Exact integer matrix of a word (empty product is the identity)."""
    out = Mat2.identity()
    for letter in word.letters:
        out = out @ preset.matrix_for(letter)
    return out


@dataclass(frozen=True)
class OrbitLevel:
    """One sphere of the orbit: all words of a fixed length."""

    length: int
    size: int
    sigma: float
    cumulative: float
    min_rho: float
    points: np.ndarray | None = field(repr=False, default=None)
    one_minus: np.ndarray | None = field(repr=False, default=None)
    letters: np.ndarray | None = field(repr=False, default=None)


@dataclass(frozen=True)
class OrbitTable:
    """Per-sphere orbit data for one base point under one preset."""

    base: complex
    preset_name: str
    levels: tuple

    @property
    def max_length(self) -> int:
        return len(self.levels) - 1

    def total_words(self) -> int:
        return sum(level.size for level in self.levels)

    def sphere_ratios(self) -> tuple:
        """Consecutive sphere-sum ratios sigma_{L+1} / sigma_L."""
        return tuple(
            self.levels[i + 1].sigma / self.levels[i].sigma for i in range(len(self.levels) - 1)
        )

    def words_at(self, length: int) -> Iterator[Word]:
        level = self.levels[length]
        if level.letters is None:
            raise ValueError(f"words of length {length} were not stored (store_limit)")
        yield from _row_words(level.letters)

    def iter_rows(self) -> Iterator[tuple]:
        """(word string, length, point, 1 - |point|) over all stored levels."""
        for level in self.levels:
            if level.letters is None or level.points is None:
                continue
            for word, pt, om in zip(self.words_at(level.length), level.points, level.one_minus):
                yield word.to_string(), level.length, complex(pt), float(om)


def _generator_arrays(preset: GroupPreset) -> dict:
    return {
        letter: np.array(preset.matrix_for(letter).entries(), dtype=np.int64).reshape(2, 2)
        for letter in _ALPHABET
    }


def _eval_points(mats: np.ndarray, z: complex) -> tuple:
    """Disc images and stable 1 - |image| for a batch of integer matrices."""
    a = mats[:, 0, 0].astype(np.float64)
    b = mats[:, 0, 1].astype(np.float64)
    c = mats[:, 1, 0].astype(np.float64)
    d = mats[:, 1, 1].astype(np.float64)
    alpha = -(a + d) + 1j * (c - b)
    beta = -(a - d) + 1j * (b + c)
    num = alpha * z + beta
    den = np.conj(beta) * z + np.conj(alpha)
    w = num / den
    # |den|^2 - |num|^2 = (|alpha|^2 - |beta|^2)(1 - |z|^2) = 4 det (1 - |z|^2)
    one_minus_sq = 4.0 * (1.0 - abs(z) ** 2) / (den.real**2 + den.imag**2)
    one_minus = one_minus_sq / (1.0 + np.abs(w))
    return w, one_minus


def _row_words(rows: np.ndarray) -> list:
    """Words from int8 letter rows (one word per row).

    The rows come from `_spheres`, which never appends the inverse of a
    word's last letter, so they are reduced already and skip the checks
    of ``Word(...)``.
    """
    words = []
    for row in rows.tolist():
        word = object.__new__(Word)
        object.__setattr__(word, "letters", tuple(row))
        words.append(word)
    return words


def _next_level(mats: np.ndarray, last: np.ndarray, gens: dict) -> tuple:
    """Children of a sphere in parent-major, letter-rank order."""
    # a child entry m[i,0] g[0,j] + m[i,1] g[1,j] is at most the parent's
    # peak times the largest absolute column sum of a letter matrix (over
    # the four letters, inverses of each other, also the largest row sum)
    col_sum = max(int(np.abs(g).sum(axis=0).max()) for g in gens.values())
    peak = int(np.max(np.abs(mats)))
    if peak > min(_INT64_GUARD, np.iinfo(np.int64).max // col_sum):
        raise OverflowError(
            f"matrix entries reached {peak}; the vectorized path would overflow int64"
        )
    n = mats.shape[0]
    child_letters = np.empty((n, 3), dtype=np.int8)
    for t in _ALPHABET:
        mask = last == t
        if mask.any():
            child_letters[mask] = np.array(_CHILD_TABLE[t], dtype=np.int8)
    child_mats = np.empty((3 * n, 2, 2), dtype=np.int64)
    base_idx = 3 * np.arange(n)
    for j in range(3):
        col = child_letters[:, j]
        for t in _ALPHABET:
            mask = col == t
            if mask.any():
                idx = np.nonzero(mask)[0]
                child_mats[base_idx[idx] + j] = mats[idx] @ gens[t]
    return child_mats, child_letters.reshape(-1)


def _spheres(preset: GroupPreset, max_length: int, letters_up_to: int) -> Iterator[tuple]:
    """The word tree breadth first: ``(length, matrices, letter rows)`` per sphere.

    This is the package's one letter expansion.  Each sphere's words
    come in canonical order as int64 matrices and as an int8 array of
    letter rows; spheres longer than ``letters_up_to`` give ``None``
    for the rows.
    """
    gens = _generator_arrays(preset)
    mats = np.array([np.eye(2, dtype=np.int64)])
    last = np.zeros(1, dtype=np.int8)  # sentinel: identity has no final letter
    history = np.empty((1, 0), dtype=np.int8)
    yield 0, mats, history if letters_up_to >= 0 else None
    for length in range(1, max_length + 1):
        if length == 1:
            mats = np.stack([gens[t] for t in _ALPHABET])
            last = np.array(_ALPHABET, dtype=np.int8)
        else:
            mats, last = _next_level(mats, last, gens)
        expected = 4 * 3 ** (length - 1)
        if mats.shape[0] != expected:
            raise RuntimeError(f"sphere {length} has {mats.shape[0]} words, expected {expected}")
        if length <= letters_up_to:
            history = np.concatenate(
                [np.repeat(history, mats.shape[0] // history.shape[0], axis=0), last[:, None]],
                axis=1,
            )
        else:
            history = None
        yield length, mats, history


def orbit_points(
    z: complex,
    max_length: int,
    preset: GroupPreset = GAMMA3,
    store_limit: int = 10,
    word_cap: int = 10_000_000,
) -> OrbitTable:
    """Breadth-first orbit of a disc point with per-sphere diagnostics.

    Spheres up to ``store_limit`` keep their words and points; deeper
    spheres keep aggregates only (sums, minima, sizes).  The total word
    count ``2 * 3**max_length - 1`` must stay within ``word_cap``.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("base point must lie strictly inside the disc")
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    total = 2 * 3**max_length - 1
    if total > word_cap:
        raise ValueError(f"enumeration of {total} words exceeds the cap of {word_cap}")
    sigma0 = 1.0 - abs(z)
    if sigma0 <= _BOUNDARY_GUARD:
        raise ValueError("base point is numerically on the boundary")

    levels = []
    cumulative = 0.0
    for length, mats, letters in _spheres(preset, max_length, store_limit):
        if length == 0:
            points, one_minus, min_rho = np.array([z]), np.array([sigma0]), math.inf
        else:
            points, one_minus = _eval_points(mats, z)
            if float(one_minus.min()) <= _BOUNDARY_GUARD:
                raise RuntimeError(
                    f"orbit point at sphere {length} is numerically on the boundary"
                )
            min_rho = float(_pseudo_hyperbolic(z, points).min())
        sigma = float(one_minus.sum())
        cumulative += sigma
        store = length <= store_limit
        levels.append(
            OrbitLevel(
                length=length,
                size=int(mats.shape[0]),
                sigma=sigma,
                cumulative=cumulative,
                min_rho=min_rho,
                points=points if store else None,
                one_minus=one_minus if store else None,
                letters=letters,
            )
        )
    return OrbitTable(base=z, preset_name=preset.name, levels=tuple(levels))


@dataclass(frozen=True)
class BlaschkeDiagnostics:
    """Sphere-sum ratios with a calibrated convergence verdict."""

    ratios: tuple
    verdict: str
    threshold: float
    window: int

    def as_dict(self) -> dict:
        return {
            "ratios": list(self.ratios),
            "verdict": self.verdict,
            "threshold": self.threshold,
            "window": self.window,
        }


def load_blaschke_thresholds() -> dict:
    """Frozen calibration data shipped with the package."""
    path = resources.files("pickdisc").joinpath("data/blaschke_thresholds.json")
    return json.loads(path.read_text())


def blaschke_diagnostics(table: OrbitTable, thresholds: dict | None = None) -> BlaschkeDiagnostics:
    """Heuristic convergence verdict from consecutive sphere-sum ratios.

    The last ``window`` ratios are compared to the calibrated threshold:
    all below means "converging", none below means "not converging",
    anything mixed is "inconclusive".  The verdict speaks only about the
    supplied truncation.
    """
    if len(table.levels) < 3:
        raise ValueError("insufficient levels: need at least 3 spheres for a verdict")
    if thresholds is None:
        thresholds = load_blaschke_thresholds()
    theta = float(thresholds["theta_converging"])
    window = int(thresholds.get("window", 4))
    ratios = table.sphere_ratios()
    tail = ratios[-window:]
    below = [r < theta for r in tail]
    if all(below):
        verdict = "converging"
    elif not any(below):
        verdict = "not converging"
    else:
        verdict = "inconclusive"
    return BlaschkeDiagnostics(ratios=ratios, verdict=verdict, threshold=theta, window=window)


def separation_estimate(z: complex, max_length: int, preset: GroupPreset = GAMMA3) -> float:
    """Smallest pseudo-hyperbolic distance from z to its nontrivial orbit.

    Minimum of ``rho(z, w(z))`` over nonidentity words of length at most
    ``max_length``.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1 to see a nontrivial orbit")
    table = orbit_points(z, max_length, preset, store_limit=0)
    return min(level.min_rho for level in table.levels[1:])


def calibrate_blaschke_thresholds(
    max_length: int = 12,
    z: complex = 0j,
    window: int = 4,
    ratio_range: tuple = (4, 11),
    margin: float = 0.05,
) -> dict:
    """Derive converging/diverging thresholds from a full enumeration.

    Runs both shipped presets at the given base point, takes the worst
    (largest) GAMMA3 ratio and the best (smallest) LAMBDA2 ratio over
    ``ratio_range`` (inclusive, indexed so ratio L is
    ``sigma_{L+1}/sigma_L``), pads them apart by ``margin`` and checks
    they remain separated.
    """
    lo, hi = ratio_range
    if not 0 <= lo <= hi <= max_length - 1:
        raise ValueError("ratio_range must fit inside the enumerated spheres")
    tables = {
        name: orbit_points(z, max_length, preset, store_limit=0)
        for name, preset in PRESETS.items()
    }
    ratios = {name: table.sphere_ratios() for name, table in tables.items()}
    gamma_slice = ratios["GAMMA3"][lo : hi + 1]
    lambda_slice = ratios["LAMBDA2"][lo : hi + 1]
    theta_conv = max(gamma_slice) * (1.0 + margin)
    theta_div = min(lambda_slice) * (1.0 - margin)
    if not theta_conv < theta_div:
        raise RuntimeError(
            f"calibration failed to separate presets: {theta_conv:.6g} !< {theta_div:.6g}"
        )
    return {
        "theta_converging": theta_conv,
        "theta_diverging": theta_div,
        "window": window,
        "calibration": {
            "max_length": max_length,
            "base": [z.real, z.imag],
            "ratio_range": [lo, hi],
            "margin": margin,
            "gamma3_ratios": list(ratios["GAMMA3"]),
            "lambda2_ratios": list(ratios["LAMBDA2"]),
        },
    }
