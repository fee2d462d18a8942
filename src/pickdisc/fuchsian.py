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
`orbit_points` evaluates its matrices, and the encoding layer keeps
both for its word window, as arrays.  A word's place in that order has
a closed form (`_position`), and a sphere's word strings are built from
its letter rows in one step (`_row_strings`), so the encoding layer
makes `Word` objects only for the words it returns or searches.
The expansion indexes letters by rank: each
word's last letter picks its three children from a rank table, and
`_children` grows a block of words with one multiply per child slot
against the generator stack.  Widths are checked before each
multiplication and overflow raises instead of wrapping.
`orbit_points` holds whole only the stored spheres and those of at
most `_BLOCK` words, and grows every deeper sphere one subtree at a
time from blocks of the last whole sphere, so no deeper sphere's
matrices exist all at once and the only sphere-sized arrays are their
``1 - |point|``, allocated first and filled `_CHUNK` points at a time.
Failures are decided once, in sphere order, so a failing input runs to
its end or its overflow before it raises.  Orbit points
are produced by conjugating the half-plane action to the disc, and
``1 - |point|`` is computed from the identity
``|den|^2 - |num|^2 = (|alpha|^2 - |beta|^2)(1 - |z|^2)``, which avoids
cancellation when points crowd the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from importlib import resources
from typing import Iterator, Sequence

import numpy as np

from .hypgeo import Mat2, _disc_point, _pseudo_hyperbolic

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
_LETTER_CODES = np.array(_ALPHABET, dtype=np.int8)
_CODE_CHARS = np.frombuffer(b"BA?ab", dtype=np.uint8)  # ASCII letter at code + 2
# Ranks allowed after a final letter of rank r: all but its inverse, rank r ^ 1.
_CHILD_RANKS = np.array([[c for c in range(4) if c != r ^ 1] for r in range(4)], dtype=np.int8)

_INT64_GUARD = 2**60  # the largest entry ever multiplied, whatever the generators
_BOUNDARY_GUARD = 1e-15  # orbit points must keep 1 - |point| above this
_BLOCK = 2**14  # matrices per level of a subtree grown by `orbit_points`
# Matrices per `_eval_points` call.  Its temporaries stay small enough for
# the C heap to reuse them; larger ones were handed back to the system and
# faulted in again on every call.
_CHUNK = 2**12


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

    @cached_property
    def _stack(self) -> tuple:
        """The letter matrices in rank order as one int64 array, and the parent bound.

        A child entry ``m[i,0] g[0,j] + m[i,1] g[1,j]`` is at most the
        parent's peak times the largest absolute column sum of a letter
        matrix, so parents with no entry above the bound cannot make a
        child overflow int64.
        """
        gens = np.array(
            [self.matrix_for(letter).entries() for letter in _ALPHABET], dtype=np.int64
        ).reshape(4, 2, 2)
        gens.setflags(write=False)
        limit = min(_INT64_GUARD, np.iinfo(np.int64).max // int(np.abs(gens).sum(axis=1).max()))
        return gens, limit


GAMMA3 = GroupPreset("GAMMA3", Mat2(1, 3, 0, 1), Mat2(1, 0, 3, 1))
LAMBDA2 = GroupPreset("LAMBDA2", Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1))
PRESETS = {"GAMMA3": GAMMA3, "LAMBDA2": LAMBDA2}


def enumerate_words(max_length: int) -> list:
    """All reduced words of length <= max_length in canonical order."""
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    # the letter rows are the same under every preset
    spheres = _spheres(GAMMA3, max_length)
    return [w for _, _, _, rows in spheres for w in _row_words(rows)]


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
        if not 0 <= length <= self.max_length:
            raise ValueError(f"length must lie between 0 and {self.max_length}, got {length}")
        level = self.levels[length]
        if level.letters is None:
            raise ValueError(f"words of length {length} were not stored (store_limit)")
        return iter(_row_words(level.letters))  # not a generator: the checks run at the call

    def iter_rows(self) -> Iterator[tuple]:
        """(word string, length, point, 1 - |point|) over all stored levels."""
        for level in self.levels:
            if level.letters is None or level.points is None:
                continue
            for text, pt, om in zip(_row_strings(level.letters), level.points, level.one_minus):
                yield text, level.length, complex(pt), float(om)


def _coefficients(mats: np.ndarray) -> tuple:
    """Twice the (alpha, beta) of `moebius_from_matrix`, for a batch of integer matrices."""
    a = mats[:, 0, 0].astype(np.float64)
    b = mats[:, 0, 1].astype(np.float64)
    c = mats[:, 1, 0].astype(np.float64)
    d = mats[:, 1, 1].astype(np.float64)
    return -(a + d) + 1j * (c - b), -(a - d) + 1j * (b + c)


def _eval_points(mats: np.ndarray, z: complex) -> tuple:
    """Disc images and stable 1 - |image| for a batch of integer matrices."""
    alpha, beta = _coefficients(mats)
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


def _row_strings(rows: np.ndarray) -> list:
    """The strings of the words in int8 letter rows, as ``Word.to_string`` gives them."""
    if rows.shape[1] == 0:
        return ["e"] * rows.shape[0]
    chars = _CODE_CHARS[rows + 2]  # one byte per letter, rows stay C-ordered
    return chars.view(f"S{rows.shape[1]}").ravel().astype(str).tolist()


def _position(word: Word) -> int:
    """Index of a word in the canonical order of `enumerate_words`.

    The ``2 * 3**(L-1) - 1`` words shorter than ``L = len(word)`` come
    first.  `_spheres` writes children parent-major, so within its sphere
    a word sits at its first rank followed by the `_CHILD_RANKS` slot of
    each later letter, read as base-3 digits.
    """
    ranks = [_RANK[letter] for letter in word.letters]
    if not ranks:
        return 0
    pos = ranks[0]
    for prev, rank in zip(ranks, ranks[1:]):
        pos = 3 * pos + rank - (rank > (prev ^ 1))  # the slot skips the inverse rank
    return 2 * 3 ** (len(ranks) - 1) - 1 + pos


def _children(mats: np.ndarray, last: np.ndarray, preset: GroupPreset) -> tuple:
    """The children of a block of words, parent-major: ``(matrices, last ranks)``.

    This is the package's one child multiply.  ``_CHILD_RANKS`` gives
    the three ranks that may follow each word's last rank, and each
    child slot takes one multiply of the parents by the generators of
    that slot.  Before it, the parents' largest entry is checked
    against a bound under which no child entry can overflow int64.
    """
    gens, limit = preset._stack
    peak = int(np.abs(mats).max())
    if peak > limit:
        raise OverflowError(
            f"matrix entries reached {peak}; the vectorized path would overflow int64"
        )
    children = _CHILD_RANKS[last]
    out = np.empty((mats.shape[0], 3, 2, 2), dtype=np.int64)
    for j in range(3):
        np.matmul(mats, gens[children[:, j]], out=out[:, j])
    return out.reshape(-1, 2, 2), children.reshape(-1)


def _spheres(preset: GroupPreset, max_length: int) -> Iterator[tuple]:
    """The word tree breadth first: ``(length, matrices, last ranks, letter rows)`` per sphere.

    This is the package's one letter expansion.  Each sphere's words
    come in canonical order as int64 matrices, the rank of each word's
    last letter (``None`` for the identity) and an int8 array of letter
    rows.  Each later sphere is the `_children` of the whole sphere
    before it.
    """
    mats, last = np.eye(2, dtype=np.int64)[None], None
    rows = np.empty((1, 0), dtype=np.int8)
    yield 0, mats, last, rows
    for length in range(1, max_length + 1):
        if length == 1:
            mats, last = preset._stack[0], np.arange(4, dtype=np.int8)
        else:
            mats, last = _children(mats, last, preset)
        parents = np.repeat(rows, mats.shape[0] // rows.shape[0], axis=0)
        rows = np.concatenate([parents, _LETTER_CODES[last][:, None]], axis=1)
        yield length, mats, last, rows


def _evaluate(mats: np.ndarray, z: complex, out: np.ndarray, points=None) -> float:
    """Evaluate a run of matrices, `_CHUNK` at a time, and return the smallest distance from ``z``.

    ``1 - |point|`` goes into ``out`` (and the points into ``points``
    when given), which have one entry per matrix.
    """
    min_rho = math.inf
    for lo in range(0, mats.shape[0], _CHUNK):
        hi = lo + _CHUNK
        w, out[lo:hi] = _eval_points(mats[lo:hi], z)
        min_rho = min(min_rho, float(_pseudo_hyperbolic(z, w).min()))
        if points is not None:
            points[lo:hi] = w
    return min_rho


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

    Every sphere's array of ``1 - |point|`` is allocated first.  Only
    the spheres up to ``top``, the larger of ``store_limit`` and the
    deepest sphere of at most `_BLOCK` words, are held whole.  Each
    deeper sphere is grown one subtree at a time: a block of sphere-``top``
    words is grown level by level, and each level's matrices, which are
    contiguous in parent-major order, are evaluated into their slice of
    that sphere's array.  A sphere's sum is taken over the whole array
    at once (the summation order fixes the sums bit for bit), and its
    minimum distance is a running minimum.

    Failures are decided once, in sphere order, as the levels are built:
    the shallowest sphere that overflows int64 or holds a point on the
    boundary, and at one sphere the overflow first, as a whole-sphere
    expansion meets them.  A boundary point does not stop the walk, so
    a failing input runs to its end or its overflow before it raises.
    """
    z = _disc_point(z, "base point must lie strictly inside the disc")
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    total = 2 * 3**max_length - 1
    if total > word_cap:
        raise ValueError(f"enumeration of {total} words exceeds the cap of {word_cap}")
    sigma0 = 1.0 - abs(z)
    if sigma0 <= _BOUNDARY_GUARD:
        raise ValueError("base point is numerically on the boundary")

    whole = 1  # the deepest sphere of at most _BLOCK words, sphere 1 at least
    while 4 * 3**whole <= _BLOCK:
        whole += 1
    top = min(max_length, max(store_limit, whole))
    sizes = [1] + [4 * 3 ** (length - 1) for length in range(1, max_length + 1)]
    one_minus = [np.empty(size) for size in sizes]
    points = [np.empty(n, dtype=complex) if i <= store_limit else None for i, n in enumerate(sizes)]
    one_minus[0][0] = sigma0
    if store_limit >= 0:
        points[0][0] = z
    mins, rows = [math.inf] * len(sizes), []
    failure = None  # (sphere, error) of the shallowest overflow
    try:
        for length, mats, last, letters in _spheres(preset, top):
            if length:
                mins[length] = _evaluate(mats, z, one_minus[length], points[length])
            rows.append(letters)
    except OverflowError as exc:
        failure = (length + 1, exc)  # met making the sphere after the last one yielded

    if top < max_length and failure is None:
        # `mats` and `last` hold sphere `top`, the roots of the subtrees
        step = max(1, _BLOCK // 3 ** (max_length - top))
        for lo in range(0, mats.shape[0], step):
            block, ranks = mats[lo : lo + step], last[lo : lo + step]
            for length in range(top + 1, failure[0] if failure else max_length + 1):
                try:
                    block, ranks = _children(block, ranks, preset)
                except OverflowError as exc:
                    failure = (length, exc)
                    break
                start = lo * 3 ** (length - top)
                out = one_minus[length][start : start + block.shape[0]]
                mins[length] = min(mins[length], _evaluate(block, z, out))

    levels, cumulative = [], 0.0
    for length, (sphere, min_rho, pts) in enumerate(zip(one_minus, mins, points)):
        if failure and failure[0] == length:
            raise failure[1]
        if sphere.min() <= _BOUNDARY_GUARD:
            raise RuntimeError(f"orbit point at sphere {length} is numerically on the boundary")
        sigma = float(sphere.sum())
        cumulative += sigma
        store = pts is not None
        levels.append(
            OrbitLevel(
                length=length,
                size=sphere.shape[0],
                sigma=sigma,
                cumulative=cumulative,
                min_rho=min_rho,
                points=pts,
                one_minus=sphere if store else None,
                letters=rows[length] if store else None,
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
        return asdict(self)


def load_blaschke_thresholds() -> dict:
    """Frozen calibration data shipped with the package."""
    path = resources.files("pickdisc").joinpath("data/blaschke_thresholds.json")
    return json.loads(path.read_text())


def blaschke_diagnostics(table: OrbitTable, thresholds: dict | None = None) -> BlaschkeDiagnostics:
    """Heuristic convergence verdict from consecutive sphere-sum ratios.

    The last ``window`` ratios are compared to the calibrated threshold:
    all below means "converging", none below means "not converging",
    anything mixed is "inconclusive".  The verdict speaks only about the
    supplied truncation, and only up to the thresholds' calibrated depth
    (``calibration.max_length``, if given): deeper tables read "inconclusive".
    """
    if len(table.levels) < 3:
        raise ValueError("insufficient levels: need at least 3 spheres for a verdict")
    if thresholds is None:
        thresholds = load_blaschke_thresholds()
    theta = float(thresholds["theta_converging"])
    window = int(thresholds.get("window", 4))
    if window < 1:
        raise ValueError(f"thresholds window must be >= 1, got {window}")
    ratios = table.sphere_ratios()
    tail = ratios[-window:]
    below = [r < theta for r in tail]
    if table.max_length > thresholds.get("calibration", {}).get("max_length", math.inf):
        verdict = "inconclusive"
    elif all(below):
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
