"""Tests for subset encodings and the two equivalence procedures.

The word-search procedure is exact combinatorics and serves as the
oracle for the geometric procedure: on every pair tried here the two
must return the same verdict, and (nonempty sets having trivial
stabilizers in a free group) the same witness word.  A brute-force
oracle (all-pairs distances, no point index) pins the indexed lookups.
"""

import math
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pickdisc import encode
from pickdisc.encode import (
    Configuration,
    EncodingError,
    EncodingParams,
    build_configuration,
    geometric_equivalence,
    make_params,
    word_search_equivalence,
)
from pickdisc.fuchsian import (
    GAMMA3,
    GroupPreset,
    Word,
    _eval_points,
    enumerate_words,
    word_to_matrix,
)
from pickdisc.hypgeo import Mat2, moebius_from_matrix, phi_a, rho

PARAMS = make_params()  # entry-3 preset, window 4, base 0

W = Word.from_string


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------

def test_default_eps_is_half_the_frozen_separation():
    assert PARAMS.eps == pytest.approx(0.41602514716892186, abs=1e-15)
    assert PARAMS.delta == pytest.approx(PARAMS.eps / 400.0)
    assert PARAMS.window == 4
    assert PARAMS.base == 0j
    assert hash(PARAMS) == hash(make_params())


def test_satellites_hug_the_base_with_distinct_distances():
    dists = PARAMS.pairwise_distances()
    assert len(dists) == 6
    for i in range(6):
        for j in range(i + 1, 6):
            assert abs(dists[i] - dists[j]) >= PARAMS.delta
    for s in PARAMS.satellites:
        assert rho(s, PARAMS.base) < PARAMS.eps / 5.0
    assert PARAMS.quadruple()[0] == PARAMS.base


def test_make_params_validation_and_overrides():
    with pytest.raises(ValueError):
        make_params(window=0)
    with pytest.raises(ValueError):
        make_params(base=1.0)
    shallow = make_params(separation_level=1)
    assert shallow.eps == pytest.approx(0.5 * 3.0 / math.sqrt(13.0), abs=1e-15)


# ---------------------------------------------------------------------------
# building configurations
# ---------------------------------------------------------------------------

def test_configuration_counts_and_labels():
    subset = [W("e"), W("a"), W("bA")]
    config = build_configuration(subset, PARAMS)
    n_words = 2 * 3**4 - 1
    assert len(config) == 3 * n_words + len(subset)
    fam3 = [text for text, fam in config.labels if fam == 3]
    assert sorted(fam3) == sorted(w.to_string() for w in subset)
    per_word = {}
    for text, fam in config.labels:
        per_word.setdefault(text, []).append(fam)
    assert all(fams[:3] == [0, 1, 2] for fams in per_word.values())
    assert len(per_word) == n_words


def test_anchor_points_are_orbit_points():
    config = build_configuration([], PARAMS)
    anchors = {
        text: pt for (text, fam), pt in zip(config.labels, config.points) if fam == 0
    }
    for text in ("e", "a", "Ab", "baBA"):
        ref = moebius_from_matrix(word_to_matrix(W(text), GAMMA3))(PARAMS.base)
        assert anchors[text] == pytest.approx(ref, abs=1e-12)


def test_build_rejects_words_outside_the_window():
    with pytest.raises(ValueError):
        build_configuration([W("aaaaa")], PARAMS)
    with pytest.raises(TypeError):
        build_configuration(["a"], PARAMS)


def test_oversized_eps_breaks_cluster_isolation():
    small = make_params(window=2)
    bad = EncodingParams(
        preset=small.preset,
        base=small.base,
        eps=1.9,
        satellites=small.satellites,
        delta=small.delta,
        window=2,
    )
    with pytest.raises(EncodingError):
        build_configuration([], bad)


def test_coincident_satellites_are_rejected():
    small = make_params(window=2)
    s = small.satellites
    bad = EncodingParams(
        preset=small.preset,
        base=small.base,
        eps=small.eps,
        satellites=(s[0], s[0], s[2]),
        delta=small.delta,
        window=2,
    )
    with pytest.raises(EncodingError):
        build_configuration([], bad)


def test_configuration_validation_and_permutation():
    config = build_configuration([W("a")], PARAMS)
    with pytest.raises(ValueError):
        Configuration(points=config.points, labels=config.labels[:-1], params=PARAMS)
    with pytest.raises(ValueError):
        Configuration(points=np.array([1.0 + 0j]), labels=(("e", 0),), params=PARAMS)
    order = list(range(len(config)))[::-1]
    flipped = config.permuted(order)
    assert flipped.labels[0] == config.labels[-1]
    assert flipped.points[0] == config.points[-1]
    with pytest.raises(ValueError):
        config.permuted(order[:-1])


# ---------------------------------------------------------------------------
# word-search equivalence
# ---------------------------------------------------------------------------

def test_word_search_finds_a_translate():
    verdict = word_search_equivalence(
        [W("e"), W("a")], [W("b"), W("ba")], PARAMS, search_length=2
    )
    assert verdict.equivalent
    assert verdict.witness_word == W("b")
    assert verdict.mode == "word-search"
    assert verdict.witness_map is None


def test_word_search_rejects_non_translates():
    verdict = word_search_equivalence(
        [W("e"), W("a")], [W("a"), W("A")], PARAMS, search_length=2
    )
    assert not verdict.equivalent
    assert verdict.witness_word is None


def test_word_search_cardinality_shortcut_and_empty_sets():
    assert not word_search_equivalence([W("e")], [W("e"), W("a")], PARAMS, 2).equivalent
    empty = word_search_equivalence([], [], PARAMS, 2)
    assert empty.equivalent
    assert empty.witness_word == Word.identity()


def test_word_search_window_rules():
    with pytest.raises(ValueError):
        word_search_equivalence([W("e")], [W("e")], PARAMS, search_length=5)
    with pytest.raises(ValueError):
        word_search_equivalence([W("e")], [W("e")], PARAMS, search_length=-1)
    with pytest.raises(ValueError):
        # both sets stick out of the core window for this search length
        word_search_equivalence([W("aa")], [W("bb")], PARAMS, search_length=3)
    # one deep set is fine as long as the other fits the core
    assert word_search_equivalence([W("e")], [W("aaa")], PARAMS, 3).equivalent


def test_word_search_does_not_build_the_encoded_window():
    # building the window-10 encoding cold takes about half a second and
    # 200 MB; word search needs only the words up to its search length
    params = make_params(window=10)
    before = encode._reference.cache_info()
    verdict = word_search_equivalence([W("e")], [W("ab")], params, 2)
    after = encode._reference.cache_info()
    assert verdict.witness_word == W("ab")
    assert after.hits + after.misses == before.hits + before.misses


# ---------------------------------------------------------------------------
# geometric equivalence
# ---------------------------------------------------------------------------

def _both(set_a, set_b, search_length=2):
    config_a = build_configuration(set_a, PARAMS)
    config_b = build_configuration(set_b, PARAMS)
    geo = geometric_equivalence(config_a, config_b, PARAMS, search_length)
    ws = word_search_equivalence(set_a, set_b, PARAMS, search_length)
    assert geo.equivalent == ws.equivalent
    assert geo.witness_word == ws.witness_word
    return geo


def test_geometric_translate_with_witness_map():
    geo = _both([W("e"), W("a")], [W("b"), W("ba")])
    assert geo.equivalent
    assert geo.witness_word == W("b")
    ref = moebius_from_matrix(word_to_matrix(W("b"), GAMMA3))
    for z in (0j, 0.3, 0.2 - 0.4j):
        assert geo.witness_map(z) == pytest.approx(ref(z), abs=1e-9)


def test_geometric_rejects_non_translates():
    geo = _both([W("e"), W("a")], [W("a"), W("A")])
    assert not geo.equivalent
    assert geo.witness_map is None


def test_geometric_handles_deep_targets():
    # the image set is allowed to reach the full window when the source
    # fits the core
    geo = _both([W("e"), W("a")], [W("bb"), W("bba")])
    assert geo.equivalent
    assert geo.witness_word == W("bb")


def test_geometric_empty_sets_are_identity_equivalent():
    geo = _both([], [])
    assert geo.equivalent
    assert geo.witness_word == Word.identity()


def test_geometric_singletons():
    assert _both([W("e")], [W("ab")]).equivalent
    assert not _both([W("a")], [W("aa"), W("ab")]).equivalent


def test_geometric_ignores_point_order_and_labels():
    set_a, set_b = [W("e"), W("A")], [W("B"), W("BA")]
    config_a = build_configuration(set_a, PARAMS)
    config_b = build_configuration(set_b, PARAMS)
    rng = np.random.default_rng(42)
    shuffled = config_b.permuted(rng.permutation(len(config_b)))
    masked = Configuration(
        points=np.array(shuffled.points),
        labels=(("", 0),) * len(shuffled),
        params=PARAMS,
    )
    geo = geometric_equivalence(config_a, masked, PARAMS, search_length=2)
    assert geo.equivalent
    assert geo.witness_word == W("B")


def test_geometric_requires_matching_params():
    other = make_params(window=3)
    config = build_configuration([], PARAMS)
    with pytest.raises(ValueError):
        geometric_equivalence(config, config, other, search_length=1)
    with pytest.raises(ValueError):
        geometric_equivalence(config, config, PARAMS, search_length=9)


def test_verdict_serialization():
    geo = _both([W("e")], [W("a")])
    payload = geo.as_dict()
    assert payload["equivalent"] is True
    assert payload["witness_word"] == "a"
    assert isinstance(payload["witness_map"]["alpha"], list)
    assert payload["window"] == 4
    assert "window" in payload["note"]

    for identity in (_both([W("e")], [W("e")], 1), word_search_equivalence([], [], PARAMS, 1)):
        assert identity.as_dict()["witness_word"] == "e"

    miss = word_search_equivalence([W("e")], [W("b")], PARAMS, 0)
    assert not miss.equivalent
    assert miss.as_dict()["witness_word"] is None
    assert miss.as_dict()["witness_map"] is None


# ---------------------------------------------------------------------------
# the point index against brute force
# ---------------------------------------------------------------------------
#
# The oracle below decides everything by brute force: matrices word by
# word, isolation from all anchor-to-point distances, distinctness by a
# sweep, core values and mapped core points by rho to every point.  The
# indexed package must reproduce its points, labels, errors, verdicts
# and witnesses exactly.

def _oracle_reference(params):
    words = enumerate_words(params.window)
    mats = np.array(
        [word_to_matrix(w, params.preset).entries() for w in words], dtype=np.int64
    ).reshape(-1, 2, 2)
    families = tuple(_eval_points(mats, complex(x))[0] for x in params.quadruple())
    return words, families


def _oracle_rho(anchors, pts):
    return np.abs(anchors[:, None] - pts[None, :]) / np.abs(
        1.0 - np.conj(anchors[:, None]) * pts[None, :]
    )


def _oracle_build(subset, params):
    """Points and labels, or the EncodingError message."""
    words, families = _oracle_reference(params)
    subset = set(subset)
    points, labels, owner = [], [], []
    for i, w in enumerate(words):
        for fam in range(4 if w in subset else 3):
            points.append(complex(families[fam][i]))
            labels.append((w.to_string(), fam))
            owner.append(i)
    pts = np.array(points, dtype=complex)
    owner = np.array(owner)
    anchors = families[0]
    for start in range(0, anchors.shape[0], 128):
        near = _oracle_rho(anchors[start : start + 128], pts) < params.eps / 2.0
        for k, row in enumerate(near):
            if not row.any() or np.any(owner[row] != start + k):
                return (
                    "cluster isolation failed near word index "
                    f"{start + k}: eps is too large for this window"
                )
    s = np.sort_complex(pts)
    for i in range(s.shape[0] - 1):
        j = i + 1
        while j < s.shape[0] and s[j].real - s[i].real <= 1e-12:
            if abs(s[j] - s[i]) <= 1e-12:
                return "two configuration points coincide"
            j += 1
    return pts, tuple(labels)


def _oracle_core(pts, core_words, families, eps):
    in_cluster = _oracle_rho(families[0][:core_words], pts) < eps / 2.0
    return pts[in_cluster.any(axis=0)]


def _oracle_maps_onto(f, values, pts, r):
    """Whether f sends every value within rho < r of a point, in chunks of all pairs."""
    images = np.array([f(z) for z in values], dtype=complex)
    return all(
        (_oracle_rho(images[start : start + 256], pts) < r).any(axis=1).all()
        for start in range(0, images.shape[0], 256)
    )


def _oracle_geometric(p_pts, q_pts, params, search_length):
    """(equivalent, witness word, witness (alpha, beta))."""
    words, families = _oracle_reference(params)
    core_words = sum(1 for w in words if len(w) <= params.window - search_length)
    core_p = _oracle_core(p_pts, core_words, families, params.eps)
    core_q = _oracle_core(q_pts, core_words, families, params.eps)
    r = params.delta / 2.0
    for w in words:
        if len(w) > search_length:
            break
        f = moebius_from_matrix(word_to_matrix(w, params.preset))
        if _oracle_maps_onto(f, core_p, q_pts, r) and _oracle_maps_onto(
            f.inverse(), core_q, p_pts, r
        ):
            return True, w, (f.alpha, f.beta)
    return False, None, None


def _agree_with_oracle(set_a, set_b, params, search_length):
    config_a = build_configuration(set_a, params)
    config_b = build_configuration(set_b, params)
    for subset, config in ((set_a, config_a), (set_b, config_b)):
        pts, labels = _oracle_build(subset, params)
        assert config.points.tobytes() == pts.tobytes()
        assert config.labels == labels
    return _agree_on_points(config_a, config_b, params, search_length)


def _agree_on_points(config_p, config_q, params, search_length):
    """The verdict, after the oracle gives the same verdict, witness word and witness map."""
    verdict = geometric_equivalence(config_p, config_q, params, search_length)
    witness_map = verdict.witness_map and (verdict.witness_map.alpha, verdict.witness_map.beta)
    expected = _oracle_geometric(config_p.points, config_q.points, params, search_length)
    assert (verdict.equivalent, verdict.witness_word, witness_map) == expected
    return verdict


@pytest.mark.parametrize("window, pairs", [(4, 8), (6, 1)])
def test_index_matches_the_brute_force_oracle(window, pairs):
    """Seeded subset pairs at search lengths 1 to 3, half of them translates."""
    params = make_params(GAMMA3, window=window)
    words = enumerate_words(window)
    rng = np.random.default_rng(window)
    outcomes = set()
    for trial in range(3 * pairs):
        s = 1 + trial % 3
        core = [w for w in words if len(w) <= window - s]
        translators = [w for w in words if len(w) <= s]
        set_a = [core[i] for i in rng.choice(len(core), rng.integers(1, 4), replace=False)]
        g = translators[rng.integers(len(translators))]
        set_b = [g * w for w in set_a]
        if trial % 2:  # swap one word, so no translate is expected
            set_b = set_b[1:] + [core[rng.integers(len(core))]]
        outcomes.add(_agree_with_oracle(set_a, set_b, params, s).equivalent)
    assert outcomes == {True, False}


def _blocked_and_whole(monkeypatch, query):
    """``query()`` with blocks of a few candidate pairs, ragged, and in one block."""
    monkeypatch.setattr(encode, "_PAIR_BUDGET", 2**62)
    whole = query()
    monkeypatch.setattr(encode, "_PAIR_BUDGET", 7)
    return query(), whole


@pytest.mark.parametrize("half", [PARAMS.eps / 2.0, 0.84, 0.9, 0.97])
def test_foreign_counts_in_anchor_blocks_match_one_block(monkeypatch, half):
    # orbit points lie at least 2 * eps apart, so only the larger balls
    # hold foreign points.  `_first_foreign` queries the points' rho discs
    # against the anchors and gives each point the first anchor it fails,
    # which is checked point by point.  The other exact tests that run
    # inside `near`'s blocks, `within_rho` and the coincidence test, are
    # checked the same way.
    ref = encode._reference(PARAMS)
    anchors = ref.grid[:, 0]
    n_words = anchors.shape[0]
    anchor_index = encode._SortedIndex(anchors)
    for points, owner, blocks in (
        (ref.base.points, np.repeat(np.arange(n_words), 3), 100),
        (ref.grid[:, 3], np.arange(n_words), 20),
    ):
        foreign = owner[None, :] != np.arange(n_words)[:, None]
        brute = (_oracle_rho(anchors, points) < half) & foreign
        _, slab = anchor_index.slabs(*encode._rho_disc(points, half))
        assert slab.sum() > blocks * 7 and slab.max() > 7  # many blocks, some of one point
        first = np.where(brute.any(axis=0), brute.argmax(axis=0), n_words)
        blocked, whole = _blocked_and_whole(
            monkeypatch, lambda: encode._first_foreign(anchor_index, points, owner, half)
        )
        assert np.array_equal(blocked, first) and np.array_equal(whole, first)
        assert bool((first < n_words).any()) == (half > 2.0 * PARAMS.eps)
        # centres just outside each point's ball but inside its padded disc
        # give pairs that only the exact test in each block drops
        z = half * (1.0 + 1e-6) * np.exp(0.3j)
        centres = np.concatenate([anchors, (points - z) / (1.0 - np.conj(points) * z)])
        index = encode._SortedIndex(points)
        blocked, whole = _blocked_and_whole(monkeypatch, lambda: index.within_rho(centres, half))
        assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))
        assert set(zip(*blocked)) == set(zip(*np.nonzero(_oracle_rho(centres, points) < half)))
        padded, _ = index.near(*encode._rho_disc(centres, half))
        assert padded.size > blocked[0].size + points.shape[0] // 2
        for doubled in (points, np.concatenate([points, points[::blocks]])):
            index = encode._SortedIndex(doubled)
            blocked, whole = _blocked_and_whole(
                monkeypatch, lambda: index.near(index.points, encode._DISTINCT_GAP, np.not_equal)
            )
            assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))
            assert bool(blocked[0].size) == (doubled.shape[0] > points.shape[0])


def test_a_later_build_runs_no_index_query(monkeypatch):
    # every point of the window is checked once per params, so a later
    # build only reads the facts of its words
    params = make_params(GAMMA3, window=8)
    build_configuration([W("e")], params)

    def refuse(*args, **kwargs):
        raise AssertionError("a later build made or queried an index")

    monkeypatch.setattr(encode._SortedIndex, "near", refuse)
    monkeypatch.setattr(encode._SortedIndex, "__init__", refuse)
    subset = [W("ab"), W("bAb"), W("aabbA")]
    config = build_configuration(subset, params)
    assert len(config) == 3 * encode._reference(params).grid.shape[0] + len(subset)


def test_index_matches_the_oracle_at_the_core_tolerance():
    # a three-point solve put mapped core points of this translate about
    # 1.1e-8 from their images, beyond a Euclidean 1e-8; the word's own map
    # puts them far inside delta/2 in rho
    params = make_params(GAMMA3, window=6, base=-0.28601639248689914 + 0.010024145884642448j)
    set_a = [W("e"), W("b"), W("ba")]
    verdict = _agree_with_oracle(set_a, [W("ba") * w for w in set_a], params, 2)
    assert verdict.equivalent and verdict.witness_word == W("ba")


def test_a_moved_base_point_rejects_the_translate():
    # in built configurations only the third satellites tell candidates
    # apart; the check of every core point still rejects a translate whose
    # image of a first satellite was moved by 3e-3 in rho
    config_a = build_configuration([W("e"), W("a")], PARAMS)
    config_b = build_configuration([W("b"), W("ba")], PARAMS)
    assert geometric_equivalence(config_a, config_b, PARAMS, 2).witness_word == W("b")
    points = np.array(config_b.points)
    k = config_b.labels.index(("b", 1))
    points[k] = phi_a(points[k], 3e-3)
    moved = Configuration(points=points, labels=config_b.labels, params=PARAMS)
    assert not geometric_equivalence(config_a, moved, PARAMS, 2).equivalent
    assert _oracle_geometric(config_a.points, points, PARAMS, 2) == (False, None, None)


@pytest.mark.parametrize(
    "base, search_length, subset, translators",
    [
        (0j, 3, ("e",), [w for w in enumerate_words(3) if len(w) == 3]),
        (-0.28601639248689914 + 0.010024145884642448j, 2, ("e", "b", "ba"), [W("ba")]),
    ],
    ids=["base-0-all-length-3", "off-centre-ba"],
)
def test_translates_that_a_three_point_solve_missed(base, search_length, subset, translators):
    # the solved maps of 11 of these words at base 0 were rejected by an
    # absolute 1e-9 coefficient check, and the off-centre translate by the
    # Euclidean core check
    params = make_params(GAMMA3, window=6, base=base)
    set_a = [W(text) for text in subset]
    config_a = build_configuration(set_a, params)
    for g in translators:
        config_b = build_configuration([g * w for w in set_a], params)
        verdict = geometric_equivalence(config_a, config_b, params, search_length)
        assert verdict.equivalent and verdict.witness_word == g, g


def test_geometric_agrees_with_word_search_at_windows_6_to_9():
    """Seeded bases, subsets of 1 to 3 core words, 60% of pairs translates."""
    rng = random.Random(11)
    # (window, search lengths, params, pairs per params): the first build
    # per params costs 0.1 to 0.5 s at windows 8 and 9
    for window, lengths, n_params, pairs in (
        (6, (2, 3, 4), 3, 15),
        (7, (3, 4), 2, 10),
        (8, (3, 4), 1, 10),
        (9, (4,), 1, 8),
    ):
        words = enumerate_words(window)
        for _ in range(n_params):
            base = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            params = make_params(GAMMA3, window=window, base=base)
            outcomes = set()
            for trial in range(pairs):
                s = lengths[trial % len(lengths)]
                core = [w for w in words if len(w) <= window - s]
                set_a = rng.sample(core, rng.randint(1, 3))
                g = rng.choice([w for w in words if len(w) <= s])
                set_b = [g * w for w in set_a]
                if rng.random() >= 0.6:  # swap one word, usually no translate
                    set_b = set_b[1:] + [rng.choice(core)]
                geo = geometric_equivalence(
                    build_configuration(set_a, params), build_configuration(set_b, params),
                    params, s,
                )
                ws = word_search_equivalence(set_a, set_b, params, s)
                assert (geo.equivalent, geo.witness_word) == (ws.equivalent, ws.witness_word), (
                    window, base, s, set_a, set_b,
                )
                outcomes.add(geo.equivalent)
            assert outcomes == {True, False}


@pytest.mark.parametrize(
    "subset_a, subset_b",
    [(("e",), ("e", "aaaa")), (("e",), ("a", "aaaa")), ((), ("aaaa",))],
    ids=["e-vs-e-aaaa", "e-vs-a-aaaa", "empty-vs-aaaa"],
)
def test_configurations_of_different_sizes_are_not_equivalent(subset_a, subset_b):
    # aaaa lies outside the core at search length 1, so no map is checked
    # on its third satellite; only the point count tells the pairs apart
    set_a = [W(text) for text in subset_a]
    set_b = [W(text) for text in subset_b]
    geo = geometric_equivalence(
        build_configuration(set_a, PARAMS), build_configuration(set_b, PARAMS), PARAMS, 1
    )
    ws = word_search_equivalence(set_a, set_b, PARAMS, 1)
    assert not geo.equivalent and geo.witness_word is None
    assert not ws.equivalent


@pytest.mark.parametrize(
    "window, search_length, subset_a, subset_b",
    [(4, 1, "aaaa", "bbbb"), (3, 3, "BAb", "bAb")],
    ids=["aaaa-vs-bbbb", "BAb-vs-bAb"],
)
def test_both_modes_refuse_subsets_outside_the_core(window, search_length, subset_a, subset_b):
    # neither subset has a third satellite in the core, so no map checks
    # either subset; only the refusal keeps geometric from accepting e
    params = make_params(window=window)
    set_a, set_b = [W(subset_a)], [W(subset_b)]
    config_a = build_configuration(set_a, params)
    config_b = build_configuration(set_b, params)
    with pytest.raises(ValueError, match="core window"):
        word_search_equivalence(set_a, set_b, params, search_length)
    with pytest.raises(ValueError, match="core window"):
        geometric_equivalence(config_a, config_b, params, search_length)


@lru_cache(maxsize=None)
def _small_params(window, base):
    return make_params(GAMMA3, window=window, base=base)


@st.composite
def _small_window_pairs(draw):
    """Subsets of the whole window at w = 3 to 5, empty and unequal sizes included."""
    window = draw(st.integers(3, 5))
    search_length = draw(st.integers(0, window))
    words = enumerate_words(window)
    set_a = draw(st.lists(st.sampled_from(words), max_size=3, unique=True))
    if draw(st.booleans()):
        # a translate, less the images that leave the window
        g = draw(st.sampled_from(words[: 2 * 3**search_length - 1]))
        set_b = [w for w in (g * v for v in set_a) if len(w) <= window]
    else:
        set_b = draw(st.lists(st.sampled_from(words), max_size=3, unique=True))
    base = draw(st.sampled_from([0j, 0.13 - 0.21j]))
    return _small_params(window, base), search_length, set_a, set_b


def _outcome(decide):
    try:
        verdict = decide()
    except ValueError as exc:
        return str(exc)
    return verdict.equivalent, verdict.witness_word


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_window_pairs())
def test_geometric_agrees_with_word_search_on_small_windows(pair):
    params, search_length, set_a, set_b = pair
    config_a = build_configuration(set_a, params)
    config_b = build_configuration(set_b, params)
    geo = _outcome(lambda: geometric_equivalence(config_a, config_b, params, search_length))
    ws = _outcome(lambda: word_search_equivalence(set_a, set_b, params, search_length))
    assert geo == ws


# ---------------------------------------------------------------------------
# base points found by value
# ---------------------------------------------------------------------------
#
# `geometric_equivalence` splits each configuration by value into the base
# points it holds and its other points, the extras, and reads the base's
# facts from the reference.  A point the split leaves among the extras is
# looked up like any other, so configurations that defeat the split must
# still agree with the oracle.

def _edited(config, kind, rng):
    """The configuration reordered, or with its last base points replaced."""
    points = np.array(config.points)
    k = max(i for i, (_, family) in enumerate(config.labels) if family < 3)
    if kind == "permuted":
        points = points[rng.permutation(points.shape[0])]
    elif kind == "nearby":
        points[k] = phi_a(points[k], config.params.delta / 8.0)
    elif kind == "duplicated":
        points[k] = points[k - 3]
    elif kind == "foreign":
        other = make_params(config.params.preset, config.params.window, config.params.base + 0.05)
        points[k - 1 : k + 1] = encode._reference(other).base.points[rng.choice(k, 2)]
    return Configuration(points=points, labels=config.labels, params=config.params)


@st.composite
def _split_inputs(draw):
    """A built configuration at w = 2 to 4, as built or reordered or edited."""
    window = draw(st.integers(2, 4))
    params = _small_params(window, draw(st.sampled_from([0j, 0.13 - 0.21j])))
    subset = draw(st.lists(st.sampled_from(enumerate_words(window)), max_size=4, unique=True))
    kind = draw(st.sampled_from(["built", "permuted", "nearby", "duplicated", "foreign"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return subset, _edited(build_configuration(subset, params), kind, rng), kind


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_split_inputs())
def test_the_split_is_a_multiset_partition_of_the_points(case):
    subset, config, kind = case
    ref = encode._reference(config.params)
    present, extras = encode._split(config.points, ref.base.points)
    joined = np.concatenate([ref.base.points[present], extras])
    assert np.sort_complex(joined).tobytes() == np.sort_complex(config.points).tobytes()
    if kind == "built":
        added = np.sort([encode._position(w) for w in subset]).astype(int)
        assert present.all() and extras.tobytes() == ref.grid[added, 3].tobytes()
    elif kind != "permuted":
        assert not present.all()


class _CountingBits(np.ndarray):
    """An array whose ``!=`` counts the elements it compares."""

    compared = 0

    def __ne__(self, other):
        _CountingBits.compared += self.size
        return np.not_equal(np.asarray(self), np.asarray(other))


def test_the_split_compares_each_point_a_bounded_number_of_times(monkeypatch):
    # a walk that compares the rest of the points at each mismatch does
    # about (added points) x (points) / 2 compares on the whole window
    params = make_params(GAMMA3, window=6)
    base = encode._reference(params).base.points
    words = enumerate_words(6)
    monkeypatch.setattr(np, "ascontiguousarray", lambda x: np.asarray(x).view(_CountingBits))
    rng = np.random.default_rng(6)
    for subset in (words, words[::3], words[-1:], []):
        config = build_configuration(subset, params)
        for points in (config.points, config.points[rng.permutation(len(config))]):
            _CountingBits.compared = 0
            present, extras = encode._split(points, base)
            assert present.sum() + extras.shape[0] == len(config)
            # two int64s per point
            assert _CountingBits.compared <= 2 * 4 * len(config)


@pytest.mark.parametrize("kind", ["permuted", "nearby", "duplicated", "foreign"])
def test_configurations_that_defeat_the_split_match_the_oracle(kind):
    # translates and others, with one side reordered or its last base
    # points, those of the longest words, replaced; each edit leaves some
    # base points among the extras
    params = make_params(GAMMA3, window=4)
    rng = np.random.default_rng(len(kind))
    outcomes, spilled = set(), 0
    for set_a, set_b, s in (
        ([W("e"), W("a")], [W("b"), W("ba")], 2),
        ([W("A")], [W("bA")], 1),
        ([W("e"), W("ab")], [W("B"), W("Bab")], 2),
        ([W("e"), W("a")], [W("a"), W("A")], 2),
    ):
        config_a = build_configuration(set_a, params)
        config_b = build_configuration(set_b, params)
        base = encode._reference(params).base.points
        for edit_b in (True, False):
            edited = _edited(config_b if edit_b else config_a, kind, rng)
            pair = (config_a, edited) if edit_b else (edited, config_b)
            outcomes.add(_agree_on_points(*pair, params, s).equivalent)
            extras = encode._split(edited.points, base)[1]
            spilled += extras.shape[0] > len(edited) - base.shape[0]
    assert spilled == 8
    assert outcomes == {True, False}


def test_equivalence_indexes_only_the_points_builds_add(monkeypatch):
    # the base's facts are read once per params and search length, and each
    # call indexes only the points that are not base points
    params = make_params(GAMMA3, window=8)
    set_a = [W("e"), W("ab"), W("bAb")]
    config_a = build_configuration(set_a, params)
    config_b = build_configuration([W("ba") * w for w in set_a], params)
    sizes, init = [], encode._SortedIndex.__init__

    def recording(self, points):
        sizes.append(points.shape[0])
        init(self, points)

    monkeypatch.setattr(encode._SortedIndex, "__init__", recording)
    for s in (2, 2, 3):
        assert geometric_equivalence(config_a, config_b, params, s).witness_word == W("ba")
    assert sizes and max(sizes) <= len(set_a)


def _hand_built(**changes):
    small = make_params(window=2)
    fields = dict(
        preset=small.preset,
        base=small.base,
        eps=small.eps,
        satellites=small.satellites,
        delta=small.delta,
        window=2,
    )
    fields.update(changes)
    return EncodingParams(**fields)


@pytest.mark.parametrize(
    "changes",
    [
        dict(eps=0.6),
        dict(eps=0.9),
        dict(eps=1.9),
        dict(eps=2.5),
        dict(eps=2.5, window=0),
        dict(eps=0.0),
        dict(eps=-0.3),
        dict(satellites=(make_params(window=2).satellites[0],) * 2
             + make_params(window=2).satellites[2:]),
        # the first satellite sits next to AAA(base), so aa carries a
        # point into the cluster of A (word index 2) and no earlier one
        dict(satellites=(moebius_from_matrix(word_to_matrix(W("AAA"), GAMMA3))(0j) + 1e-9,)
             + make_params(window=2).satellites[1:]),
    ],
    ids=["eps-0.6", "eps-0.9", "eps-1.9", "eps-2.5", "eps-2.5-one-word", "eps-0",
         "eps-negative", "coincident", "foreign-point"],
)
def test_hand_built_params_match_the_brute_force_oracle(changes):
    _check_hand_built(_hand_built(**changes))


@pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9])
def test_cluster_radius_at_the_nearest_foreign_point(side):
    # eps/2 just below or just above the distance from the base anchor to
    # the nearest point of another word
    subset = [W("a"), W("bA")]
    pts, labels = _oracle_build(subset, make_params(window=2))
    foreign = np.array([text != "e" for text, _fam in labels])
    nearest = _oracle_rho(np.array([0j]), pts[foreign]).min()
    _check_hand_built(_hand_built(eps=2.0 * nearest * side))


def _check_hand_built(params):
    _build_matches_oracle([w for w in (W("a"), W("bA")) if len(w) <= params.window], params)


def _build_matches_oracle(subset, params):
    """The oracle's points and labels or error message, after the package agrees."""
    expected = _oracle_build(subset, params)
    if isinstance(expected, str):
        with pytest.raises(EncodingError) as info:
            build_configuration(subset, params)
        assert str(info.value) == expected
    else:
        config = build_configuration(subset, params)
        assert config.points.tobytes() == expected[0].tobytes()
        assert config.labels == expected[1]
    return expected


# ---------------------------------------------------------------------------
# the per-subset checks against brute force
# ---------------------------------------------------------------------------
#
# Every point of the window is checked once per params, and a build
# combines the facts of its words.  The hand-built params below put third
# satellites where they collide with, or intrude on, other points, so the
# outcome depends on which words the subset holds.

_ORBIT = {
    text: moebius_from_matrix(word_to_matrix(W(text), GAMMA3))(0j) for text in ("a", "AAA")
}


def _isolation_message(index):
    return f"cluster isolation failed near word index {index}: eps is too large for this window"


def test_third_satellite_on_the_first_coincides_in_every_nonempty_subset():
    s = make_params(window=2).satellites
    params = _hand_built(satellites=(s[0], s[1], s[0]))
    words = enumerate_words(2)
    for subset in [[]] + [[w] for w in words] + [words[::3], words]:
        expected = _build_matches_oracle(subset, params)
        if subset:
            assert expected == "two configuration points coincide"
        else:
            assert not isinstance(expected, str)


def test_foreign_third_satellite_fails_only_the_subsets_carrying_it():
    # a AAA = AA and aa AAA = A, so the third satellites of a and aa sit in
    # the clusters of AA (word index 8) and A (word index 2)
    s = make_params(window=2).satellites
    params = _hand_built(satellites=s[:2] + (_ORBIT["AAA"] + 1e-9,))
    carriers = {W("a"): 8, W("aa"): 2}
    words = enumerate_words(2)
    for subset in [[]] + [[w] for w in words] + [[W("a"), W("aa")], [W("b"), W("a"), W("BB")]]:
        expected = _build_matches_oracle(subset, params)
        failing = [carriers[w] for w in subset if w in carriers]
        if failing:
            assert expected == _isolation_message(min(failing))
        else:
            assert not isinstance(expected, str)


def _elliptic_params():
    # a is a rotation of order 3 about (2 - sqrt 3) i, so third satellites
    # placed there coincide for e, a and A, and with no other point
    return EncodingParams(
        preset=GroupPreset("ROT", Mat2(0, -1, 1, 1), Mat2(1, 0, 3, 1)),
        base=0.5j,
        eps=0.05,
        satellites=(0.501j, 0.5j + 0.002, 1j * (2.0 - math.sqrt(3.0))),
        delta=0.05 / 400.0,
        window=1,
    )


def test_third_satellites_of_two_words_coincide_at_an_elliptic_fixed_point():
    params = _elliptic_params()
    for subset, coincide in (
        ([], False),
        ([W("e")], False),
        ([W("b"), W("e")], False),
        ([W("e"), W("a")], True),
        ([W("a"), W("A")], True),
    ):
        expected = _build_matches_oracle(subset, params)
        if coincide:
            assert expected == "two configuration points coincide"
        else:
            assert not isinstance(expected, str)


@pytest.mark.parametrize(
    "first, subset, expected",
    [
        # the first satellite fails the base at word index 2 (as in
        # foreign-point above); the third satellite of e lies in the
        # cluster of a (index 1), that of b in the cluster of ba (index 11)
        ("foreign", [], _isolation_message(2)),
        ("foreign", [W("e")], _isolation_message(1)),
        ("foreign", [W("b")], _isolation_message(2)),
        ("foreign", [W("b"), W("e")], _isolation_message(1)),
        # coincident base points are reported after the subset's isolation
        ("second", [], "two configuration points coincide"),
        ("second", [W("e")], _isolation_message(1)),
        # with a sound base, the first anchor that any subset word fails
        ("first", [W("b")], _isolation_message(11)),
        ("first", [W("b"), W("e")], _isolation_message(1)),
        # twin third satellites coincide only when both words are present
        ("elliptic", [W("a")], None),
        ("elliptic", [W("A"), W("b")], None),
        ("elliptic", [W("a"), W("A")], "two configuration points coincide"),
    ],
    ids=["base", "subset-first", "base-first", "both", "base-coincide", "isolation-first",
         "subset-one-word", "subset-two-words", "twin-alone", "twin-and-other", "twin-pair"],
)
def test_failures_of_base_and_subset_are_reported_as_from_scratch(first, subset, expected):
    if first == "elliptic":
        params = _elliptic_params()
    else:
        s = make_params(window=2).satellites
        sat1 = {"foreign": _ORBIT["AAA"] + 1e-9, "second": s[1]}.get(first, s[0])
        params = _hand_built(satellites=(sat1, s[1], _ORBIT["a"] + 1e-9))
    outcome = _build_matches_oracle(subset, params)
    assert (outcome if isinstance(outcome, str) else None) == expected


@pytest.mark.parametrize("window, builds", [(4, 20), (6, 6)])
def test_builds_alternating_two_params_match_the_oracle(window, builds):
    """Seeded subsets of 0 to 4 words from two params of one window, in turn."""
    both = (make_params(GAMMA3, window=window), make_params(GAMMA3, window=window, base=0.2 - 0.1j))
    words = enumerate_words(window)
    rng = np.random.default_rng(100 + window)
    for trial in range(builds):
        subset = [words[i] for i in rng.choice(len(words), trial % 5, replace=False)]
        assert not isinstance(_build_matches_oracle(subset, both[trial % 2]), str)
