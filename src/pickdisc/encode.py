"""Point configurations encoding free-group subsets, and their equivalence.

A subset ``A`` of reduced words is encoded as a finite point set in the
disc: three satellite families ``x_g^(0..2)`` placed at every word ``g``
of the window (the anchor ``x_g^(0)`` is the orbit point of the base,
the others are small pseudo-hyperbolic offsets), plus a fourth satellite
``x_g^(3)`` exactly at the words of ``A``.  Orbit translation acts by
``g x_h^(i) = x_{gh}^(i)``, so two encoded sets are conformally
equivalent precisely when one subset is a group translate of the other.

The decision procedure never reads provenance labels.  By rigidity, the
labeled triple (base, first satellite, second satellite) and a cluster
fix at most one automorphism, and it counts only when a word of the
allowed length realizes it, so each candidate word is tested with its
own map, taken from its matrix.  No map is checked on points outside
the core, so, as in word search, a pair is refused when neither subset
fits the core: on both sides the core holds fewer third satellites than
the points beyond the base.  Configurations with different point counts
are not equivalent: the count is label-free, and it is what excludes
third satellites outside the core.
Otherwise a candidate is accepted when its map sends every core point of
one configuration (every point within eps/2 of a core word's anchor)
within pseudo-hyperbolic distance delta/2 of a point of the other, and
its inverse does the same the other way.  delta/2 lies far below the
distances within a cluster, and rho, unlike a Euclidean tolerance, does
not shrink as points crowd the boundary.  Every candidate maps the base
points of the core onto base points, so the candidates are screened on
the core's third satellites before the survivors are checked on the
whole core.  The first accepted word in canonical order is the witness,
and its matrix gives the witness map.  Verdicts are statements about
the supplied windows, recorded in the verdict metadata.

The word window comes from the package's one breadth-first expansion
(`fuchsian`), which gives every word's matrix and letter row at once;
the window is kept as arrays.  `fuchsian` also owns the canonical
order: a subset word's place in the window comes from `_position`, and
the labels from the letter rows, so `Word` objects are made only for
search candidates and witnesses.  Word search expands letter rows only
up to its search length, so it never builds the encoded window.  All
distance lookups go through one index: the points sorted by real part,
queried in batches for the points within a Euclidean radius of given
centres.  Pseudo-hyperbolic balls are Euclidean discs, so the cluster
queries (isolation, core reconstruction, mapped core points) use the
same index and decide each candidate with the exact rho expression; each
anchor is checked against its near neighbours only.

Every configuration built from one set of params shares its base: the
anchor and first two satellites of each window word.  The base's labels,
its isolation counts and its distinctness are computed once per params,
together with the word window.  Each build then checks only the third
satellites of its subset: against the anchors for isolation, and
against every point for distinctness.  Failures are reported exactly as
a check from scratch would report them.

Parameters are frozen per run: ``eps`` is half the calibrated orbit
separation at the base point, satellites sit at radii eps/30, eps/18,
eps/12 with angles spread so that all six pairwise distances of the
reference quadruple are distinct with gap ``delta = eps/400`` (nudged
deterministically, one satellite at a time, if a coincidence occurs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fuchsian import GAMMA3, GroupPreset, Word
from .fuchsian import _coefficients, _eval_points, _position, _row_strings, _row_words, _spheres
from .hypgeo import (
    _DISTINCT_GAP,
    _pseudo_hyperbolic,
    DiscAutomorphism,
    Mat2,
    moebius_from_matrix,
    phi_a,
    rho,
)

__all__ = [
    "EncodingParams",
    "Configuration",
    "EquivalenceVerdict",
    "EncodingError",
    "make_params",
    "build_configuration",
    "word_search_equivalence",
    "geometric_equivalence",
]

# Index searches widen their slabs by a few ulps of a disc coordinate, and
# the disc of a rho-ball by a relative margin far above rho's rounding
# error; the exact distance test then decides.
_SLAB_PAD = 1e-15
_RHO_PAD = 1e-3


class EncodingError(ValueError):
    """A configuration violates the cluster-isolation requirements."""


@dataclass(frozen=True)
class EncodingParams:
    """Frozen geometry of one encoding run.

    ``satellites`` holds the three off-anchor points attached to the
    identity word; every other word receives their orbit translates.
    Two configurations are comparable only when built from equal params.
    """

    preset: GroupPreset
    base: complex
    eps: float
    satellites: tuple
    delta: float
    window: int

    def quadruple(self) -> tuple:
        """Reference points (anchor, satellite 1, satellite 2, satellite 3)."""
        return (self.base,) + self.satellites

    def pairwise_distances(self) -> tuple:
        pts = self.quadruple()
        return tuple(
            rho(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4)
        )


def make_params(
    preset: GroupPreset = GAMMA3,
    window: int = 4,
    base: complex = 0j,
    separation_level: int | None = None,
) -> EncodingParams:
    """Choose eps and satellite geometry for a window.

    ``eps`` is half the smallest pseudo-hyperbolic distance from the
    base to its nontrivial orbit through words of length
    ``max(window, 8)`` (overridable).  Satellites are placed at radii
    eps/30, eps/18, eps/12 and angles 0, 2pi/3, 23pi/18; the base to
    satellite distances are the radii themselves, and the angles were
    chosen so the three satellite to satellite distances interleave
    cleanly.  If the six pairwise distances of the quadruple still fail
    to separate by ``delta = eps/400`` each satellite angle is nudged by
    a different multiple of a small step, which changes the distances
    (a shared offset would only rotate the cluster rigidly).
    """
    from .fuchsian import separation_estimate

    if window < 1:
        raise ValueError("window must be >= 1")
    base = complex(base)
    if abs(base) >= 1.0:
        raise ValueError("base must lie strictly inside the disc")
    level = max(window, 8) if separation_level is None else separation_level
    eps = 0.5 * separation_estimate(base, level, preset)
    delta = eps / 400.0
    radii = (eps / 30.0, eps / 18.0, eps / 12.0)
    base_angles = (0.0, 2.0 * math.pi / 3.0, 23.0 * math.pi / 18.0)
    for attempt in range(64):
        angles = tuple(
            theta + 0.0137 * attempt * (k + 1) for k, theta in enumerate(base_angles)
        )
        sats = tuple(
            complex(phi_a(base, r * complex(math.cos(t), math.sin(t))))
            for r, t in zip(radii, angles)
        )
        params = EncodingParams(
            preset=preset,
            base=base,
            eps=eps,
            satellites=sats,
            delta=delta,
            window=window,
        )
        dists = params.pairwise_distances()
        separated = all(
            abs(dists[i] - dists[j]) >= delta
            for i in range(6)
            for j in range(i + 1, 6)
        )
        inside = all(rho(s, base) < eps / 5.0 for s in sats)
        if separated and inside:
            return params
    raise RuntimeError("could not separate satellite distances; geometry is degenerate")


@dataclass(frozen=True)
class Configuration:
    """An encoded subset: points with retained (but maskable) provenance.

    ``labels[k]`` records ``(word string, family index)`` for point
    ``k``.  Labels exist for testing and export; the equivalence
    procedures never read them.
    """

    points: np.ndarray
    labels: tuple
    params: EncodingParams

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).reshape(-1)
        if pts.shape[0] != len(self.labels):
            raise ValueError("points and labels must have equal length")
        if pts.size and float(np.max(np.abs(pts))) >= 1.0:
            raise ValueError("configuration points must lie strictly inside the disc")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return self.points.shape[0]

    def permuted(self, order: Sequence[int]) -> "Configuration":
        """The same configuration with its point list reordered."""
        order = list(order)
        if sorted(order) != list(range(len(self))):
            raise ValueError("order must be a permutation of the point indices")
        return Configuration(
            points=self.points[order],
            labels=tuple(self.labels[i] for i in order),
            params=self.params,
        )


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of an equivalence test, tagged with its window of validity."""

    equivalent: bool
    mode: str
    witness_word: Word | None
    witness_map: DiscAutomorphism | None
    window: int
    search_length: int
    note: str = "verdict is relative to the supplied word window and search length"

    def as_dict(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "mode": self.mode,
            "witness_word": (
                self.witness_word.to_string() if self.witness_word is not None else None
            ),
            "witness_map": (
                {
                    "alpha": [self.witness_map.alpha.real, self.witness_map.alpha.imag],
                    "beta": [self.witness_map.beta.real, self.witness_map.beta.imag],
                }
                if self.witness_map
                else None
            ),
            "window": self.window,
            "search_length": self.search_length,
            "note": self.note,
        }


class _Reference(NamedTuple):
    """What every configuration built from one params shares.

    The window is held as arrays in canonical word order: the matrices
    of `fuchsian._spheres` and the four family values of each word, with
    the labels read off its letter rows.  The base of a configuration is
    the anchor and the first two satellites of every window word; only
    the third satellites depend on the subset.  The base's isolation
    counts and distinctness are checked here once, so a build checks
    only its subset's points.
    """

    mats: np.ndarray
    grid: np.ndarray  # words x families, the four values of each word
    labels: tuple  # (word string, family) for every grid entry, word-major
    base: "_SortedIndex"
    hits: np.ndarray  # per anchor, base points with rho < eps/2
    foreign: np.ndarray  # per anchor, such points of other words
    coincide: bool  # whether two base points coincide


@lru_cache(maxsize=16)
def _reference(params: EncodingParams) -> _Reference:
    """The window's matrices, family values and labels, and the base checks."""
    _, mats, rows = zip(*_spheres(params.preset, params.window, params.window))
    mats = np.concatenate(mats)
    grid = np.stack([_eval_points(mats, complex(x))[0] for x in params.quadruple()], axis=1)
    grid.setflags(write=False)
    labels = tuple(product([text for r in rows for text in _row_strings(r)], range(4)))
    base = _SortedIndex(grid[:, :3].reshape(-1))
    owner = np.repeat(np.arange(grid.shape[0]), 3)
    hits, foreign = _isolation_counts(base, owner, grid[:, 0], params.eps / 2.0)
    return _Reference(
        mats=mats,
        grid=grid,
        labels=labels,
        base=base,
        hits=hits,
        foreign=foreign,
        coincide=_coincident(base),
    )


def _check_subset(subset: Iterable[Word], window: int) -> frozenset:
    out = []
    for w in subset:
        if not isinstance(w, Word):
            raise TypeError("subset members must be Word instances")
        if len(w) > window:
            raise ValueError(f"word {w} exceeds the window length {window}")
        out.append(w)
    return frozenset(out)


def build_configuration(subset: Iterable[Word], params: EncodingParams) -> Configuration:
    """Encode a subset of the word window as a labeled point configuration.

    Every window word contributes its anchor and two satellites; subset
    words additionally carry the third satellite.  The cluster-isolation
    condition (nothing foreign within eps/2 of any anchor) and pairwise
    distinctness of all points are verified; violations raise
    `EncodingError`, signaling that eps is too large for this window.
    The anchors and first two satellites are the same for every subset
    and are checked once per params; each build checks its third
    satellites against the anchors (isolation) and against every point
    (distinctness).  The first failing anchor is reported whichever
    points fail it, and isolation is reported before distinctness.
    """
    subset_set = _check_subset(subset, params.window)
    ref = _reference(params)
    new = np.fromiter(map(_position, subset_set), dtype=np.intp, count=len(subset_set))
    present = np.ones(ref.grid.shape, dtype=bool)  # word i carries family j
    present[:, 3] = False
    present[new, 3] = True
    added = _SortedIndex(ref.grid[new, 3])
    _check_isolation(ref, added, new, params.eps)
    _check_distinct(ref, added)
    return Configuration(
        points=ref.grid[present],  # word-major, families in order
        labels=tuple(compress(ref.labels, present.reshape(-1).tolist())),
        params=params,
    )


class _SortedIndex:
    """A fixed point set sorted by real part, answering batch disc queries.

    `near` finds, for a batch of centres, every point within a Euclidean
    radius of each; the sort confines each search to the slab of points
    whose real part is within that radius.  A pseudo-hyperbolic ball is
    a Euclidean disc, so `within_rho` queries the slightly padded disc
    and keeps the pairs that pass the exact rho expression.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self.order = np.argsort(points.real, kind="stable")
        self.re = points.real[self.order]

    def near(self, centres: np.ndarray, radius) -> tuple:
        """Pairs (centre index, point index) with ``|point - centre| <= radius``.

        ``radius`` is a scalar or one value per centre; pairs come out
        centre by centre, each centre's points in order of real part.
        """
        radius = np.broadcast_to(radius, centres.shape)
        lo = np.searchsorted(self.re, centres.real - radius - _SLAB_PAD, side="left")
        hi = np.searchsorted(self.re, centres.real + radius + _SLAB_PAD, side="right")
        counts = np.maximum(hi - lo, 0)
        ci = np.repeat(np.arange(centres.shape[0]), counts)
        rank = np.arange(ci.shape[0]) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        k = self.order[rank]
        keep = np.abs(self.points[k] - centres[ci]) <= radius[ci]
        return ci[keep], k[keep]

    def within_rho(self, centres: np.ndarray, r: float) -> tuple:
        """Pairs (centre index, point index) with ``rho(centre, point) < r``."""
        if r >= 1.0:
            disc_centres, radius = centres, 2.0  # the whole disc
        else:
            mod_sq = np.abs(centres) ** 2
            shrink = 1.0 - r * r * mod_sq
            disc_centres = centres * (1.0 - r * r) / shrink
            radius = r * (1.0 - mod_sq) / shrink * (1.0 + _RHO_PAD) + _SLAB_PAD
        ci, k = self.near(disc_centres, radius)
        keep = _pseudo_hyperbolic(centres[ci], self.points[k]) < r
        return ci[keep], k[keep]


def _isolation_counts(
    lookup: _SortedIndex, owner: np.ndarray, anchors: np.ndarray, half: float
) -> tuple:
    """Per anchor, the points with rho < half, and how many belong to another word."""
    n_words = anchors.shape[0]
    if half >= 1.0:
        # every ball is the whole disc; counted rather than listing all
        # anchor-point pairs
        hits = np.full(n_words, lookup.points.shape[0])
        return hits, hits - np.bincount(owner, minlength=n_words)
    ci, k = lookup.within_rho(anchors, half)
    return (
        np.bincount(ci, minlength=n_words),
        np.bincount(ci[owner[k] != ci], minlength=n_words),
    )


def _check_isolation(ref: _Reference, added: _SortedIndex, owner: np.ndarray, eps: float) -> None:
    """Each anchor's rho-ball of radius eps/2 holds its own points and no others."""
    hits, foreign = ref.hits, ref.foreign
    if owner.size:
        more_hits, more_foreign = _isolation_counts(added, owner, ref.grid[:, 0], eps / 2.0)
        hits, foreign = hits + more_hits, foreign + more_foreign
    failed = np.flatnonzero((hits == 0) | (foreign > 0))
    if failed.size:
        raise EncodingError(
            "cluster isolation failed near word index "
            f"{int(failed[0])}: eps is too large for this window"
        )


def _coincident(lookup: _SortedIndex) -> bool:
    """Whether two points of the index lie within `_DISTINCT_GAP` of each other."""
    ci, k = lookup.near(lookup.points, _DISTINCT_GAP)
    return bool(np.any(ci != k))


def _check_distinct(ref: _Reference, added: _SortedIndex) -> None:
    """No two points, base or added, lie within `_DISTINCT_GAP` of each other."""
    if ref.coincide or _coincident(added) or ref.base.near(added.points, _DISTINCT_GAP)[0].size:
        raise EncodingError("two configuration points coincide")


def word_search_equivalence(
    set_a: Iterable[Word],
    set_b: Iterable[Word],
    params: EncodingParams,
    search_length: int,
) -> EquivalenceVerdict:
    """Exact combinatorial equivalence: is B a left translate of A.

    Tries every reduced word ``g`` with ``|g| <= search_length`` in
    canonical order and compares ``gA`` with ``B`` as sets of reduced
    words.  Sets of different cardinality are rejected immediately.
    """
    window = params.window
    if not 0 <= search_length <= window:
        raise ValueError("search_length must lie between 0 and the window length")
    a = _check_subset(set_a, window)
    b = _check_subset(set_b, window)
    max_a = max((len(w) for w in a), default=0)
    max_b = max((len(w) for w in b), default=0)
    if min(max_a, max_b) > window - search_length:
        raise _outside_core(window, search_length)
    witness = None
    if len(a) == len(b):
        candidates = _candidates(params.preset, search_length)
        witness = next((g for g in candidates if frozenset(g * w for w in a) == b), None)
    return EquivalenceVerdict(
        equivalent=witness is not None,
        mode="word-search",
        witness_word=witness,
        witness_map=None,
        window=window,
        search_length=search_length,
    )


def _outside_core(window: int, search_length: int) -> ValueError:
    """The error of both procedures when neither subset fits the core window."""
    return ValueError(
        f"at least one subset must fit the core window (length <= {window - search_length})"
    )


@lru_cache(maxsize=32)
def _candidates(preset: GroupPreset, search_length: int) -> tuple:
    """The words of length <= ``search_length``, in canonical order.

    Only the letter rows up to ``search_length`` are expanded, so a word
    search never builds the encoded window.
    """
    spheres = _spheres(preset, search_length, search_length)
    return tuple(g for _, _, rows in spheres for g in _row_words(rows))


def _core_values(lookup: _SortedIndex, anchors: np.ndarray, params: EncodingParams) -> tuple:
    """Label-free reconstruction of the points living on the core window.

    The core points are those within eps/2 of a core anchor; the third
    satellites among them are those whose distance to their anchor is
    within delta/2 of the distance from base to third satellite.  Returns
    (core points, third satellites).
    """
    ci, k = lookup.within_rho(anchors, params.eps / 2.0)
    to_third = rho(params.base, params.satellites[2])
    gap = _pseudo_hyperbolic(anchors[ci], lookup.points[k]) - to_third
    core = np.zeros(lookup.points.shape[0], dtype=bool)
    third = np.zeros_like(core)
    core[k] = True
    third[k[np.abs(gap) < params.delta / 2.0]] = True
    return lookup.points[core], lookup.points[third]


def _maps_onto(
    alpha: np.ndarray, beta: np.ndarray, values: np.ndarray, lookup: _SortedIndex, r: float
) -> np.ndarray:
    """Per map (alpha, beta), whether it sends every value within rho < r of a point."""
    images = (alpha[:, None] * values + beta[:, None]) / (
        np.conj(beta)[:, None] * values + np.conj(alpha)[:, None]
    )
    ci, _ = lookup.within_rho(images.reshape(-1), r)
    return np.all(np.bincount(ci, minlength=images.size).reshape(images.shape) > 0, axis=1)


def geometric_equivalence(
    config_p: Configuration,
    config_q: Configuration,
    params: EncodingParams,
    search_length: int,
) -> EquivalenceVerdict:
    """Label-free conformal equivalence of two encoded configurations.

    Each candidate word ``g`` up to ``search_length`` is tested with its
    own map: ``g`` is accepted when its map sends every core point of P
    within pseudo-hyperbolic distance ``delta/2`` of a point of Q, and
    its inverse sends every core point of Q within ``delta/2`` of a
    point of P.  Only word maps need testing, because an automorphism
    that fits the clusters counts only when a word of the allowed length
    realizes it, and then it is that word's map.  The candidates are
    screened on the core's third satellites first; the survivors are
    checked on every core point.  The first accepted word in canonical
    order is the witness, and ``moebius_from_matrix`` of its matrix the
    witness map.  As in word search, a pair is refused when neither
    subset fits the core window: the maps only check core points, so
    each configuration's subset size (its points beyond the base) is
    compared with its third satellites in the core.  Configurations with
    different point counts are then not equivalent, as word search
    rejects subsets of different sizes: equal counts are what rule out
    extra third satellites outside the core.
    """
    if config_p.params != params or config_q.params != params:
        raise ValueError("both configurations must be built from the given params")
    window = params.window
    if not 0 <= search_length <= window:
        raise ValueError("search_length must lie between 0 and the window length")
    ref = _reference(params)
    # the window's words come in canonical length order
    mats = ref.mats[: 2 * 3**search_length - 1]
    anchors = ref.grid[: 2 * 3 ** (window - search_length) - 1, 0]
    index_q = _SortedIndex(config_q.points)
    index_p = _SortedIndex(config_p.points)
    core_p, third_p = _core_values(index_p, anchors, params)
    core_q, third_q = _core_values(index_q, anchors, params)
    base_size = 3 * ref.grid.shape[0]
    if third_p.size < len(config_p) - base_size and third_q.size < len(config_q) - base_size:
        raise _outside_core(window, search_length)
    r = params.delta / 2.0

    def accepted(alpha, beta, values_p, values_q):
        return _maps_onto(alpha, beta, values_p, index_q, r) & _maps_onto(
            np.conj(alpha), -beta, values_q, index_p, r
        )

    witness, witness_map = None, None
    if len(config_p) == len(config_q):
        alpha, beta = _coefficients(mats)
        survivors = np.flatnonzero(accepted(alpha, beta, third_p, third_q))
        survivors = survivors[accepted(alpha[survivors], beta[survivors], core_p, core_q)]
        if survivors.size:
            gi = int(survivors[0])
            witness = _candidates(params.preset, search_length)[gi]
            witness_map = moebius_from_matrix(Mat2(*(int(x) for x in mats[gi].reshape(-1))))
    return EquivalenceVerdict(
        equivalent=witness is not None,
        mode="geometric",
        witness_word=witness,
        witness_map=witness_map,
        window=window,
        search_length=search_length,
    )
