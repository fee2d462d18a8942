"""Point configurations encoding free-group subsets, and their equivalence.

A subset ``A`` of reduced words is encoded as a finite point set in the
disc: three satellite families ``x_g^(0..2)`` placed at every word ``g``
of the window (the anchor ``x_g^(0)`` is the orbit point of the base,
the others are small pseudo-hyperbolic offsets), plus a fourth satellite
``x_g^(3)`` exactly at the words of ``A``.  Orbit translation acts by
``g x_h^(i) = x_{gh}^(i)``, so two encoded sets are conformally
equivalent precisely when one subset is a group translate of the other.

The decision procedure mirrors that rigidity argument and never reads
provenance labels: anchors are found by the cluster profile (everything
within eps/2 of an anchor is its own satellite family), the labeled
triple (base, first satellite, second satellite) forces its assignment
into a candidate cluster through distinct pairwise distances, the
three-point interpolation problem produces the only automorphism that
could work, and the verdict accepts exactly when that automorphism maps
the core window of one configuration onto points of the other in both
directions and is realized by a word of the allowed length.  Verdicts
are therefore statements about the supplied windows, recorded in the
verdict metadata.

The word window comes from the package's one breadth-first expansion
(`fuchsian`), which gives every word's matrix and letters at once.  All
distance lookups go through one index: the points sorted by real part,
queried in batches for the points within a Euclidean radius of given
centres.  Pseudo-hyperbolic balls are Euclidean discs, so the cluster
queries (isolation, clusters, core reconstruction) use the same index
and decide each candidate with the exact rho expression; each anchor is
checked against its near neighbours only.

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
from typing import Iterable, Sequence

import numpy as np

from .fuchsian import GAMMA3, GroupPreset, Word, enumerate_words
from .fuchsian import _eval_points, _row_words, _spheres  # the package's one word BFS
from .hypgeo import (
    _DISTINCT_GAP,
    _pseudo_hyperbolic,
    DegenerateConfigurationError,
    DiscAutomorphism,
    DiscPreservationError,
    Mat2,
    RigidityMatchError,
    moebius_from_matrix,
    moebius_through_three_points,
    phi_a,
    rho,
    triple_rigidity_match,
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

_REALIZATION_SAMPLES = (0j, 0.37 - 0.21j, -0.12 + 0.44j)
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
            "witness_word": self.witness_word.to_string() if self.witness_word else None,
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


@lru_cache(maxsize=16)
def _reference(params: EncodingParams):
    """Canonical words of the window with matrices and family values."""
    words, mats = [], []
    for _, sphere, rows in _spheres(params.preset, params.window, params.window):
        words.extend(_row_words(rows))
        mats.append(sphere)
    mats = np.concatenate(mats)
    families = []
    for x in params.quadruple():
        vals, _ = _eval_points(mats, complex(x))
        vals.setflags(write=False)
        families.append(vals)
    index = {w: i for i, w in enumerate(words)}
    return tuple(words), mats, tuple(families), index


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
    """
    subset_set = _check_subset(subset, params.window)
    words, _mats, families, index = _reference(params)
    present = np.ones((len(words), 4), dtype=bool)  # word i carries family j
    present[:, 3] = False
    for w in subset_set:
        present[index[w], 3] = True
    owner, family = np.nonzero(present)  # word-major, families in order
    pts = np.stack(families, axis=1)[present]
    texts = [w.to_string() for w in words]
    labels = tuple((texts[i], fam) for i, fam in zip(owner.tolist(), family.tolist()))

    lookup = _SortedIndex(pts)
    _check_isolation(lookup, owner, families[0], params.eps)
    _check_distinct(lookup)
    return Configuration(points=pts, labels=labels, params=params)


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

    def covers(self, values: np.ndarray, tol: float) -> bool:
        """Whether every value lies within ``tol`` of some point."""
        ci, _ = self.near(values, tol)
        return bool(np.all(np.bincount(ci, minlength=values.shape[0])))


def _check_isolation(
    lookup: _SortedIndex, owner: np.ndarray, anchors: np.ndarray, eps: float
) -> None:
    """Each anchor's rho-ball of radius eps/2 holds its own points and no others."""
    half = eps / 2.0
    n_words = anchors.shape[0]
    if half >= 1.0:
        # every ball is the whole disc, so the first anchor meets every
        # word; decided here rather than by listing all anchor-point pairs
        failed = np.arange(min(n_words - 1, 1))
    else:
        ci, k = lookup.within_rho(anchors, half)
        hits = np.bincount(ci, minlength=n_words)
        foreign = np.bincount(ci[owner[k] != ci], minlength=n_words)
        failed = np.flatnonzero((hits == 0) | (foreign > 0))
    if failed.size:
        raise EncodingError(
            "cluster isolation failed near word index "
            f"{int(failed[0])}: eps is too large for this window"
        )


def _check_distinct(lookup: _SortedIndex) -> None:
    ci, k = lookup.near(lookup.points, _DISTINCT_GAP)
    if np.any(ci != k):
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
        raise ValueError(
            "at least one subset must fit the core window "
            f"(length <= {window - search_length})"
        )
    if len(a) != len(b):
        return EquivalenceVerdict(
            equivalent=False,
            mode="word-search",
            witness_word=None,
            witness_map=None,
            window=window,
            search_length=search_length,
        )
    for g in enumerate_words(search_length):
        if frozenset(g * w for w in a) == b:
            return EquivalenceVerdict(
                equivalent=True,
                mode="word-search",
                witness_word=g,
                witness_map=None,
                window=window,
                search_length=search_length,
            )
    return EquivalenceVerdict(
        equivalent=False,
        mode="word-search",
        witness_word=None,
        witness_map=None,
        window=window,
        search_length=search_length,
    )


def _apply_map(f: DiscAutomorphism, values: np.ndarray) -> np.ndarray:
    return (f.alpha * values + f.beta) / (
        np.conj(f.beta) * values + np.conj(f.alpha)
    )


def _core_values(
    lookup: _SortedIndex,
    core_words: int,
    families: tuple,
    eps: float,
    tol: float,
) -> np.ndarray:
    """Label-free reconstruction of the points living on the core window.

    A point is core when it matches a family-0..2 reference value of a
    core word, or when it is the leftover member of a core anchor's
    cluster (necessarily that word's third satellite).
    """
    ref012 = np.concatenate([families[fam][:core_words] for fam in range(3)])
    core = np.zeros(lookup.points.shape[0], dtype=bool)
    core[lookup.near(ref012, tol)[1]] = True
    core[lookup.within_rho(families[0][:core_words], eps / 2.0)[1]] = True
    return lookup.points[core]


def geometric_equivalence(
    config_p: Configuration,
    config_q: Configuration,
    params: EncodingParams,
    search_length: int,
    tol: float = 1e-8,
    map_tol: float = 1e-9,
) -> EquivalenceVerdict:
    """Label-free conformal equivalence of two encoded configurations.

    For each candidate word ``g`` up to ``search_length`` (canonical
    order), the anchor cluster of ``g`` in Q is located by its distance
    profile, the reference triple is rigidly matched into it, the unique
    interpolating automorphism is solved, checked to be realized by
    ``g``, and accepted only when it maps every core point of P onto a
    point of Q and its inverse maps every core point of Q onto a point
    of P (both within ``tol``).  The first surviving candidate is the
    witness.
    """
    if config_p.params != params or config_q.params != params:
        raise ValueError("both configurations must be built from the given params")
    window = params.window
    if not 0 <= search_length <= window:
        raise ValueError("search_length must lie between 0 and the window length")
    core_len = window - search_length
    words, mats, families, _index = _reference(params)
    n_candidates = sum(1 for w in words if len(w) <= search_length)
    core_words = sum(1 for w in words if len(w) <= core_len)

    triple = (params.base, params.satellites[0], params.satellites[1])
    index_q = _SortedIndex(config_q.points)
    index_p = _SortedIndex(config_p.points)
    core_p = _core_values(index_p, core_words, families, params.eps, tol)
    core_q = _core_values(index_q, core_words, families, params.eps, tol)
    q = config_q.points
    anchor_refs = families[0][:n_candidates]
    ref_of, near_ref = index_q.near(anchor_refs, tol)

    for gi in range(n_candidates):
        hits = near_ref[ref_of == gi]
        if hits.size == 0:
            continue
        anchor = q[hits[np.argmin(np.abs(q[hits] - anchor_refs[gi]))]]
        _, members = index_q.within_rho(np.array([anchor]), params.eps / 2.0)
        cluster = q[np.sort(members)]
        if cluster.shape[0] not in (3, 4):
            continue
        try:
            sigma = triple_rigidity_match(
                triple,
                tuple(complex(c) for c in cluster),
                delta=params.delta / 2.0,
                tol=tol,
            )
            f = moebius_through_three_points(
                triple, tuple(complex(cluster[s]) for s in sigma)
            )
        except (DegenerateConfigurationError, RigidityMatchError, DiscPreservationError, ValueError):
            continue
        entries = tuple(int(x) for x in mats[gi].reshape(-1))
        realized = moebius_from_matrix(Mat2(*entries))
        if any(
            abs(f(zs) - realized(zs)) > map_tol for zs in _REALIZATION_SAMPLES
        ):
            continue
        if not index_q.covers(_apply_map(f, core_p), tol):
            continue
        if not index_p.covers(_apply_map(f.inverse(), core_q), tol):
            continue
        return EquivalenceVerdict(
            equivalent=True,
            mode="geometric",
            witness_word=words[gi],
            witness_map=f,
            window=window,
            search_length=search_length,
        )
    return EquivalenceVerdict(
        equivalent=False,
        mode="geometric",
        witness_word=None,
        witness_map=None,
        window=window,
        search_length=search_length,
    )
