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
up to its search length, so it never builds the encoded window, and it
compares letter tuples.  All distance lookups go through one query on
one kind of index: points sorted by real part, queried in blocks of a
fixed pair budget for the points within a Euclidean radius of given
centres.  Rho-balls are Euclidean discs, so the cluster queries
(isolation, core reconstruction, mapped core points) pass the exact rho
test into that query, which runs it in every block; each anchor is
checked against its near neighbours only.

Every configuration built from one set of params shares its base: the
anchor and first two satellites of each window word.  A subset only
picks the words that add their third satellite, so isolation and
distinctness are decided once per params for every point of the window,
with the word window and the base's labels: each point's first failing
anchor, and which points coincide.  A build reads the facts of its words.
Failures are reported exactly as a check from scratch would report them.
The equivalence test reads the base's facts once per params and search
length as well: which base points lie in the core and which pass for
third satellites there, and, for each candidate that survives the
screen, the base points near its images of the core base points.  It
finds a configuration's base points by exact value, walking its points
against the base, so the decision stays a function of the point set;
only the other points, the extras, are indexed and looked up per call.

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
from itertools import chain, product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fuchsian import GAMMA3, GroupPreset, Word, enumerate_words
from .fuchsian import _coefficients, _position, _reduce_concat, _row_strings, _spheres
from .hypgeo import (
    _DISTINCT_GAP,
    _disc_point,
    _moebius,
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
_PAIR_BUDGET = 2**18  # slab candidate pairs per block of a `_SortedIndex.near` query


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
    base = _disc_point(base, "base must lie strictly inside the disc")
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
        if not np.max(np.abs(pts), initial=0.0) < 1.0:
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
    of `fuchsian._spheres` and the four family values of each word.  The
    base of a configuration is the anchor and the first two satellites
    of every window word, with their labels read off the letter rows;
    only the third satellites depend on the subset, and a build splices
    them into the base.  Isolation and distinctness are decided here for
    every point of the window, third satellites included, so a build
    reads the facts of its words.  `geometric_equivalence` adds the
    base's core facts per search length on first use.
    """

    mats: np.ndarray
    grid: np.ndarray  # words x families, the four values of each word
    labels: tuple  # (word string, family) for every base point, word-major
    base: "_SortedIndex"  # the base points, word-major
    foreign: int  # the base's first failing anchor, from `_first_foreign`
    third_foreign: np.ndarray  # each third satellite's first failing anchor
    coincide: bool  # whether two base points coincide
    clash: np.ndarray  # per word, whether its third satellite coincides with a base point
    twins: tuple  # (word, word) index pairs whose third satellites coincide
    cores: dict  # search length -> `_BaseCore`, filled by `geometric_equivalence`


@lru_cache(maxsize=16)
def _reference(params: EncodingParams) -> _Reference:
    """The window's matrices and family values, the base and its labels, and every point's checks."""
    _, mats, _, rows = zip(*_spheres(params.preset, params.window))
    mats = np.concatenate(mats)
    alpha, beta = _coefficients(mats)
    grid = _moebius(alpha[:, None], beta[:, None], np.array(params.quadruple(), dtype=complex))
    grid.setflags(write=False)
    base = _SortedIndex(grid[:, :3].reshape(-1))
    anchors, thirds = _SortedIndex(grid[:, 0]), _SortedIndex(grid[:, 3])
    words = np.arange(grid.shape[0])
    half = params.eps / 2.0
    return _Reference(  # the labels come last, so the checks run without them
        mats=mats,
        grid=grid,
        base=base,
        foreign=int(_first_foreign(anchors, base.points, words.repeat(3), half).min()),
        third_foreign=_first_foreign(anchors, thirds.points, words, half),
        coincide=bool(base.near(base.points, _DISTINCT_GAP, np.not_equal)[0].size),
        clash=np.isin(words, base.near(thirds.points, _DISTINCT_GAP)[0]),
        twins=thirds.near(thirds.points, _DISTINCT_GAP, np.not_equal),
        cores={},
        labels=tuple(product([text for r in rows for text in _row_strings(r)], range(3))),
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
    Every point of the window is checked once per params (`_reference`),
    so a build reads the facts of its words: the first anchor that any
    of its points fails, and whether one of its third satellites
    coincides with a base point or with another of them.  The first
    failing anchor is reported whichever points fail it; isolation is
    reported before distinctness.  Points and labels are word-major,
    families in order: each third satellite is spliced into the base
    after its word's second satellite.
    """
    subset_set = _check_subset(subset, params.window)
    ref = _reference(params)
    new = np.sort(np.fromiter(map(_position, subset_set), dtype=np.intp, count=len(subset_set)))
    first = int(ref.third_foreign[new].min(initial=ref.foreign))
    if first < ref.grid.shape[0]:
        raise EncodingError(
            f"cluster isolation failed near word index {first}: eps is too large for this window"
        )
    held = np.zeros(ref.grid.shape[0], dtype=bool)
    held[new] = True
    i, j = ref.twins
    if ref.coincide or ref.clash[new].any() or (held[i] & held[j]).any():
        raise EncodingError("two configuration points coincide")
    cuts = 3 * new + 3
    pieces, lo = [], 0
    for cut in cuts.tolist():
        pieces += (ref.labels[lo:cut], [(ref.labels[cut - 3][0], 3)])
        lo = cut
    pieces.append(ref.labels[lo:])
    return Configuration(
        points=np.insert(ref.base.points, cuts, ref.grid[new, 3]),
        labels=tuple(chain.from_iterable(pieces)),
        params=params,
    )


class _SortedIndex:
    """A fixed point set sorted by real part, answering batch disc queries.

    `near` finds, for a batch of centres, every point within a Euclidean
    radius of each; the sort confines each search to the slab of points
    whose real part is within that radius.  `near` owns the pair budget
    and the exact tests: it lists slab candidates in blocks of about
    `_PAIR_BUDGET` and runs a caller's exact test inside each block.  A
    pseudo-hyperbolic ball is a Euclidean disc, so `within_rho` queries
    the slightly padded disc with the exact rho expression as that test.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self.order = np.argsort(points.real, kind="stable")
        self.re = points.real[self.order]

    def slabs(self, centres: np.ndarray, radius) -> tuple:
        """Per centre, the first sorted position of its slab and the slab's size."""
        lo = np.searchsorted(self.re, centres.real - radius - _SLAB_PAD, side="left")
        hi = np.searchsorted(self.re, centres.real + radius + _SLAB_PAD, side="right")
        return lo, np.maximum(hi - lo, 0)

    def near(self, centres: np.ndarray, radius, keep=None) -> tuple:
        """Pairs (centre index, point index) with ``|point - centre| <= radius``.

        ``radius`` is a scalar or one value per centre; ``keep(ci, k)``,
        if given, masks the pairs within ``radius`` by an exact test.
        Pairs come out centre by centre, each centre's points in order of
        real part.  The centres are queried in blocks, cut where the running
        count of slab candidates crosses a multiple of `_PAIR_BUDGET`, and
        ``keep`` runs in each, so only the kept pairs of all exist at once.
        A query whose candidates fit one budget is one block, with no cut.
        """
        lo, counts = self.slabs(centres, radius)
        edges = [0, centres.shape[0]]
        if counts.sum() > _PAIR_BUDGET:
            # array methods, not np.diff or np.flatnonzero: small queries pay per call
            block = (counts.cumsum() - counts) // _PAIR_BUDGET
            edges[1:1] = ((block[1:] != block[:-1]).nonzero()[0] + 1).tolist()
        per_centre = np.ndim(radius) > 0
        pairs = []
        for start, stop in zip(edges, edges[1:]):
            size = counts[start:stop]
            ci = np.repeat(np.arange(start, stop), size)
            rank = np.arange(ci.shape[0]) - np.repeat(np.cumsum(size) - size - lo[start:stop], size)
            k = self.order[rank]
            close = np.abs(self.points[k] - centres[ci]) <= (radius[ci] if per_centre else radius)
            ci, k = ci[close], k[close]
            exact = slice(None) if keep is None else keep(ci, k)
            pairs.append((ci[exact], k[exact]))
        ci, k = zip(*pairs)
        return np.concatenate(ci), np.concatenate(k)

    def within_rho(self, centres: np.ndarray, r: float) -> tuple:
        """Pairs (centre index, point index) with ``rho(centre, point) < r``."""
        return self.near(
            *_rho_disc(centres, r),
            lambda ci, k: _pseudo_hyperbolic(centres[ci], self.points[k]) < r,
        )


def _rho_disc(centres: np.ndarray, r: float) -> tuple:
    """Centres and radii of Euclidean discs holding the rho-balls of radius ``r``, padded."""
    if r >= 1.0:
        return centres, 2.0  # the whole disc
    mod_sq = np.abs(centres) ** 2
    shrink = 1.0 - r * r * mod_sq
    disc_centres = centres * (1.0 - r * r) / shrink
    return disc_centres, r * (1.0 - mod_sq) / shrink * (1.0 + _RHO_PAD) + _SLAB_PAD


def _first_foreign(
    anchors: _SortedIndex, points: np.ndarray, owner: np.ndarray, half: float
) -> np.ndarray:
    """Per point, the first anchor of another word whose rho-ball of radius ``half`` holds it.

    ``owner`` holds each point's word, and a point that fails no anchor
    gets the anchor count.  The points' padded rho discs find their near
    anchors; inside that query the owner and rho from the anchor's side
    decide each pair.  A ball must hold its anchor, so with ``half <= 0``
    every anchor fails.
    """
    if not half > 0:
        return np.zeros(points.shape[0], dtype=np.intp)
    if half >= 1.0:
        # every ball is the whole disc: a point fails anchor 0 unless it
        # is its own, and then anchor 1, or none if there is no anchor 1
        return (owner == 0).astype(np.intp)
    ci, k = anchors.near(
        *_rho_disc(points, half),
        lambda ci, k: (owner[ci] != k) & (_pseudo_hyperbolic(anchors.points[k], points[ci]) < half),
    )
    first = np.full(points.shape[0], anchors.points.shape[0])
    np.minimum.at(first, ci, k)
    return first


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
        target = frozenset(w.letters for w in b)
        for g in _candidates(search_length):
            if frozenset(_reduce_concat(g.letters, w.letters) for w in a) == target:
                witness = g
                break
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
def _candidates(search_length: int) -> tuple:
    """The words of length <= ``search_length``, in canonical order.

    The words are the same under every preset, and a word search never
    builds the encoded window for them.
    """
    return tuple(enumerate_words(search_length))


class _BaseCore(NamedTuple):
    """What `geometric_equivalence` reads of the base at one search length.

    ``core`` and ``third`` list the base points within eps/2 of a core
    anchor and those among them that pass for third satellites.
    ``pairs`` maps (candidate index, 0 for its map or 1 for the inverse)
    to the pairs (core position, base index) whose base point lies
    within delta/2 of the map's image of the core point; a candidate's
    pairs are found when it first survives the screen, so ``pairs``
    holds at most two entries per candidate.
    """

    core: np.ndarray
    third: np.ndarray
    pairs: dict


class _Side(NamedTuple):
    """One configuration's points, split by value into base points and extras."""

    present: np.ndarray  # which base points it holds
    extras: _SortedIndex  # its other points
    thirds: np.ndarray  # its points that pass for third satellites of the core
    others: np.ndarray  # its other core points among the extras


def _core_masks(lookup: _SortedIndex, anchors: np.ndarray, params: EncodingParams) -> tuple:
    """Label-free reconstruction of the index points living on the core window.

    The core points are those within eps/2 of a core anchor; the third
    satellites among them are those whose distance to their anchor is
    within delta/2 of the distance from base to third satellite.  Both
    are decided from the anchor's side.  Returns the two masks.
    """
    ci, k = lookup.within_rho(anchors, params.eps / 2.0)
    to_third = rho(params.base, params.satellites[2])
    gap = _pseudo_hyperbolic(anchors[ci], lookup.points[k]) - to_third
    core = np.zeros(lookup.points.shape[0], dtype=bool)
    third = np.zeros_like(core)
    core[k] = True
    third[k[np.abs(gap) < params.delta / 2.0]] = True
    return core, third


def _split(points: np.ndarray, base: np.ndarray) -> tuple:
    """A configuration's points as base points and extras, matched by exact value.

    The points are walked against the base in its word-major order, and
    each mismatched point becomes an extra; once the mismatches outnumber
    the points beyond the base, the rest are extras too.  A build splits
    into its base and the third satellites it adds.  Returns (present
    mask over the base, extras), which hold the points as a multiset;
    every split decides alike, since an extra is looked up like any
    other point.

    Each mismatch is found by compares over windows that start at the
    points per extra and double until one holds it, so the walk
    compares each point a bounded number of times.
    """
    present = np.zeros(base.shape[0], dtype=bool)
    spare = points.shape[0] - base.shape[0]
    first = max(points.shape[0] // max(spare + 1, 1), 1)
    # bit for bit, as pairs of int64, which is cheaper than a complex
    # compare; only a zero of the other sign falls to the extras
    bits, base_bits = (np.ascontiguousarray(x).view(np.int64) for x in (points, base))
    extras, i, j = [], 0, 0
    while True:
        n = min(points.shape[0] - i, base.shape[0] - j)
        m, width = 0, first
        while m < n:
            stop = min(m + width, n)
            differ = bits[2 * (i + m) : 2 * (i + stop)] != base_bits[2 * (j + m) : 2 * (j + stop)]
            k = int(differ.argmax())
            if differ[k]:
                m += k // 2
                break
            m, width = stop, 2 * width
        present[j : j + m] = True
        i, j = i + m, j + m
        if m == n or len(extras) >= spare:
            break
        extras.append(i)
        i += 1
    return present, np.concatenate([points[extras], points[i:]])


def _side(points: np.ndarray, base: np.ndarray, facts: _BaseCore, anchors, params) -> _Side:
    present, extras = _split(points, base)
    index = _SortedIndex(extras)
    core, third = _core_masks(index, anchors, params)
    thirds = np.concatenate([base[facts.third[present[facts.third]]], extras[third]])
    return _Side(present, index, thirds, extras[core & ~third])


def _lands(alpha, beta, values, base: _SortedIndex, target: _Side, r: float) -> np.ndarray:
    """Per map (alpha, beta), whether it sends every value within rho < r of a point of ``target``.

    Each image, the centre of its exact test, is looked up among the
    target's extras; those that find none there are looked up in the
    base's index among the base points the target holds.
    """
    images = _moebius(alpha[:, None], beta[:, None], values)
    flat = images.reshape(-1)
    hit = np.zeros(flat.shape[0], dtype=bool)
    if flat.size and target.extras.points.size:
        hit[target.extras.within_rho(flat, r)[0]] = True
    rest = (~hit).nonzero()[0]
    if rest.size:
        centres = flat[rest]
        ci, _ = base.near(
            *_rho_disc(centres, r),
            lambda ci, k: target.present[k] & (_pseudo_hyperbolic(centres[ci], base.points[k]) < r),
        )
        hit[rest[ci]] = True
    return hit.reshape(images.shape).all(axis=1)


def _core_lands(alpha, beta, key, facts: _BaseCore, base, source: _Side, target: _Side, r) -> bool:
    """Whether one map sends every core point of ``source`` within rho < r of a point of ``target``.

    The map's pairs on the base core are found once per ``key``; a core
    base point of the source is looked up only when the target holds
    none of its partners.  The screen has looked up the source's third
    satellites, so of its extras only the other core points are.
    """
    pairs = facts.pairs.get(key)
    if pairs is None:
        images = _moebius(alpha[:, None], beta[:, None], base.points[facts.core])
        found = base.within_rho(images.reshape(-1), r)
        pairs = facts.pairs[key] = tuple(x.astype(np.int32) for x in found)  # held per params
    i, j = pairs
    partnered = np.zeros(facts.core.shape[0], dtype=bool)
    partnered[i[target.present[j]]] = True
    alone = facts.core[source.present[facts.core] & ~partnered]
    values = np.concatenate([base.points[alone], source.others])
    return bool(_lands(alpha, beta, values, base, target, r)[0])


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

    Each configuration is split by exact value into the base points it
    holds and its extras (`_split`).  What the base contributes is read
    once per params and search length from the reference: its core and
    third satellites, and each surviving candidate's pairs of core base
    points and base points within ``delta/2`` of their images.  Per call
    only the extras are indexed, and an image is looked up among the
    base points only when no extra lies near it.  A configuration whose
    points are reordered or edited splits into more extras, and is
    decided alike, at the cost of indexing them.
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
    base = ref.base
    facts = ref.cores.get(search_length)
    if facts is None:
        core, third = _core_masks(base, anchors, params)
        facts = ref.cores[search_length] = _BaseCore(core.nonzero()[0], third.nonzero()[0], {})
    p, q = (_side(c.points, base.points, facts, anchors, params) for c in (config_p, config_q))
    base_size = base.points.shape[0]
    if p.thirds.size < len(config_p) - base_size and q.thirds.size < len(config_q) - base_size:
        raise _outside_core(window, search_length)
    r = params.delta / 2.0
    witness, witness_map = None, None
    if len(config_p) == len(config_q):
        alpha, beta = _coefficients(mats)
        maps = ((alpha, beta, p, q), (np.conj(alpha), -beta, q, p))  # each map, then its inverse
        screened = _lands(alpha, beta, p.thirds, base, q, r).nonzero()[0]
        screened = screened[_lands(np.conj(alpha[screened]), -beta[screened], q.thirds, base, p, r)]
        for gi in screened.tolist():
            if all(
                _core_lands(a[gi : gi + 1], b[gi : gi + 1], (gi, back), facts, base, src, dst, r)
                for back, (a, b, src, dst) in enumerate(maps)
            ):
                witness = _candidates(search_length)[gi]
                witness_map = moebius_from_matrix(Mat2(*(int(x) for x in mats[gi].reshape(-1))))
                break
    return EquivalenceVerdict(
        equivalent=witness is not None,
        mode="geometric",
        witness_word=witness,
        witness_map=witness_map,
        window=window,
        search_length=search_length,
    )
