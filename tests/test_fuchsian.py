"""Tests for word enumeration, integer matrix orbits, and sphere sums.

The vectorized breadth-first orbit is checked against a slow oracle that
walks every word separately through exact integer matrices and a scalar
Moebius evaluation.  Frozen constants below were worked out by hand from
the generator matrices (the four letter images of 0 all have modulus
3/sqrt(13) under the entry-3 preset).
"""

import itertools
import math
import random

import numpy as np
import pytest

from pickdisc.fuchsian import (
    GAMMA3,
    LAMBDA2,
    PRESETS,
    GroupPreset,
    OrbitLevel,
    OrbitTable,
    Word,
    blaschke_diagnostics,
    calibrate_blaschke_thresholds,
    enumerate_words,
    load_blaschke_thresholds,
    orbit_points,
    separation_estimate,
    word_to_matrix,
)
from pickdisc.hypgeo import Mat2, moebius_from_matrix, rho

THREE_OVER_ROOT13 = 3.0 / math.sqrt(13.0)


def _random_word(rng, max_len):
    word = Word(())
    for _ in range(rng.randint(0, max_len)):
        word = word * Word((rng.choice((1, -1, 2, -2)),))
    return word


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def test_word_string_round_trip():
    for text in ("e", "a", "Ab", "baBA", "aabAA"):
        assert Word.from_string(text).to_string() == text
    assert Word.from_string("") == Word.identity()
    assert str(Word((1, 2, -1))) == "abA"


def test_from_string_reduces_freely():
    assert Word.from_string("aA") == Word.identity()
    assert Word.from_string("abBA") == Word.identity()
    assert Word.from_string("abBb") == Word((1, 2))


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word((3,))
    with pytest.raises(ValueError):
        Word((1, -1))  # not freely reduced
    with pytest.raises(ValueError):
        Word.from_string("axb")


def test_multiplication_reduces_across_the_seam():
    assert Word((1, 2)) * Word((-2, -1)) == Word.identity()
    assert Word((1, 2)) * Word((-2, 1)) == Word((1, 1))
    assert Word((1, 2, 1)) * Word((-1, -2, 1)) == Word((1, 1))


def test_inverse_is_a_two_sided_inverse():
    rng = random.Random(1)
    for _ in range(100):
        w = _random_word(rng, 8)
        assert w * w.inverse() == Word.identity()
        assert w.inverse() * w == Word.identity()


def test_enumeration_counts_and_order():
    for max_len in range(8):
        words = enumerate_words(max_len)
        assert len(words) == 2 * 3**max_len - 1
        assert len(set(words)) == len(words)
        assert words == sorted(words, key=Word.sort_key)
    by_len = {}
    for w in enumerate_words(5):
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len[0] == 1
    for length in range(1, 6):
        assert by_len[length] == 4 * 3 ** (length - 1)
    with pytest.raises(ValueError):
        enumerate_words(-1)


def test_enumeration_matches_brute_force_reduced_words():
    # every letter string in rank order a < A < b < B, kept when reduced,
    # and built through the validating constructor
    expected = [
        Word(letters)
        for length in range(7)
        for letters in itertools.product((1, -1, 2, -2), repeat=length)
        if all(x != -y for x, y in zip(letters, letters[1:]))
    ]
    words = enumerate_words(6)
    assert words == expected
    assert all(type(l) is int for w in words for l in w.letters)


# ---------------------------------------------------------------------------
# presets and matrices
# ---------------------------------------------------------------------------

def test_letter_matrices_of_the_entry3_preset():
    assert word_to_matrix(Word((1,)), GAMMA3).entries() == (1, 3, 0, 1)
    assert word_to_matrix(Word((-1,)), GAMMA3).entries() == (1, -3, 0, 1)
    assert word_to_matrix(Word((2,)), GAMMA3).entries() == (1, 0, 3, 1)
    assert word_to_matrix(Word(()), GAMMA3).entries() == (1, 0, 0, 1)


def test_word_to_matrix_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(200):
        w1, w2 = _random_word(rng, 6), _random_word(rng, 6)
        lhs = word_to_matrix(w1 * w2, GAMMA3)
        rhs = word_to_matrix(w1, GAMMA3) @ word_to_matrix(w2, GAMMA3)
        assert lhs.entries() == rhs.entries()
        assert lhs.det() == 1


def test_word_inverse_matches_matrix_inverse():
    rng = random.Random(6)
    for _ in range(50):
        w = _random_word(rng, 7)
        lhs = word_to_matrix(w.inverse(), LAMBDA2)
        assert lhs.entries() == word_to_matrix(w, LAMBDA2).inverse().entries()


def test_preset_validation():
    with pytest.raises(ValueError):
        GroupPreset("bad", Mat2(1, 0.5, 0, 1), Mat2(1, 0, 3, 1))
    with pytest.raises(ValueError):
        GroupPreset("bad", Mat2(2, 0, 0, 1), Mat2(1, 0, 3, 1))
    assert set(PRESETS) == {"GAMMA3", "LAMBDA2"}


# ---------------------------------------------------------------------------
# orbits against the word-by-word oracle
# ---------------------------------------------------------------------------

def _orbit_oracle(z, max_length, preset):
    """Per-length orbit points computed one word at a time."""
    levels = {}
    for w in enumerate_words(max_length):
        pt = moebius_from_matrix(word_to_matrix(w, preset))(z)
        levels.setdefault(len(w), []).append(pt)
    return levels


@pytest.mark.parametrize("preset", [GAMMA3, LAMBDA2], ids=lambda p: p.name)
@pytest.mark.parametrize("z", [0j, 0.1 + 0.2j, -0.35j])
def test_vectorized_orbit_matches_the_oracle(z, preset):
    max_length = 5
    table = orbit_points(z, max_length, preset, store_limit=max_length)
    oracle = _orbit_oracle(z, max_length, preset)
    for level in table.levels:
        expected = np.array(oracle[level.length])
        assert level.size == len(expected)
        assert np.allclose(level.points, expected, rtol=0.0, atol=1e-12)
        assert level.sigma == pytest.approx(float(np.sum(1.0 - np.abs(expected))), abs=1e-12)
        if level.length:
            ref_rho = min(rho(z, complex(p)) for p in oracle[level.length])
            assert level.min_rho == pytest.approx(ref_rho, abs=1e-12)
    assert table.total_words() == 2 * 3**max_length - 1


def test_orbit_points_distinct_at_moderate_depth():
    # free group, faithful action: distinct words give distinct points
    table = orbit_points(0.1 + 0.2j, 6, GAMMA3, store_limit=6)
    pts = np.concatenate([level.points for level in table.levels])
    assert len(pts) == 2 * 3**6 - 1
    z = np.sort_complex(pts)
    assert float(np.min(np.abs(np.diff(z)))) > 1e-8


def test_first_sphere_sum_frozen_value():
    table = orbit_points(0j, 1, GAMMA3)
    assert table.levels[1].sigma == pytest.approx(4.0 * (1.0 - THREE_OVER_ROOT13), abs=1e-15)
    assert table.levels[1].min_rho == pytest.approx(THREE_OVER_ROOT13, abs=1e-15)
    assert table.levels[0].sigma == 1.0


def test_orbit_input_validation():
    with pytest.raises(ValueError):
        orbit_points(1.0, 3)
    with pytest.raises(ValueError):
        orbit_points(1.0 - 1e-16, 3)  # numerically on the boundary
    with pytest.raises(ValueError):
        orbit_points(0j, -1)
    with pytest.raises(ValueError):
        orbit_points(0j, 10, word_cap=100)


def test_store_limit_controls_which_levels_keep_words():
    table = orbit_points(0.2, 4, GAMMA3, store_limit=2)
    assert list(table.words_at(2)) == [w for w in enumerate_words(2) if len(w) == 2]
    with pytest.raises(ValueError):  # at the call, before any iteration
        table.words_at(3)
    assert table.levels[3].sigma > 0.0  # aggregates survive past the limit
    bare = orbit_points(0.2, 2, GAMMA3, store_limit=-1)
    with pytest.raises(ValueError):
        bare.words_at(0)


def test_words_at_refuses_lengths_outside_the_table():
    table = orbit_points(0.1j, 3, store_limit=3)
    assert len(list(table.words_at(3))) == 36
    for length in (-1, 4, 99):
        with pytest.raises(ValueError, match="between 0 and 3"):
            table.words_at(length)  # at the call, before any iteration


def test_iter_rows_agrees_with_scalar_evaluation():
    base = 0.1 + 0.2j
    table = orbit_points(base, 3, GAMMA3, store_limit=3)
    rows = list(table.iter_rows())
    assert len(rows) == 2 * 3**3 - 1
    assert rows[0] == ("e", 0, base, pytest.approx(1.0 - abs(base)))
    for text, length, pt, om in rows:
        w = Word.from_string(text)
        assert len(w) == length
        ref = moebius_from_matrix(word_to_matrix(w, GAMMA3))(base)
        assert pt == pytest.approx(ref, abs=1e-12)
        assert om == pytest.approx(1.0 - abs(pt), abs=1e-12)


def test_spheres_guard_against_int64_overflow():
    # sphere 1 holds the entry 2**61, above the guard, so sphere 2 must
    # raise before anything is multiplied
    from pickdisc.fuchsian import _spheres

    huge = GroupPreset("HUGE", Mat2(1, 2**61, 0, 1), Mat2(1, 0, 1, 1))
    spheres = _spheres(huge, 2)
    assert [length for length, _, _, _ in itertools.islice(spheres, 2)] == [0, 1]
    with pytest.raises(OverflowError):
        next(spheres)


@pytest.mark.parametrize("preset", [GAMMA3, LAMBDA2], ids=lambda p: p.name)
@pytest.mark.parametrize("letters_up_to", [-1, 3, 6])
def test_spheres_match_exact_matrices_and_words(preset, letters_up_to):
    # `_spheres` yields the letter rows of every sphere; `orbit_points`
    # keeps them only for the spheres up to its store limit
    from pickdisc.fuchsian import _RANK, _position, _row_strings, _row_words, _spheres

    words = enumerate_words(6)
    assert all(_position(w) == i for i, w in enumerate(words))
    table = orbit_points(0.1 + 0.05j, 6, preset, store_limit=letters_up_to)
    spheres = list(_spheres(preset, 6))
    assert len(table.levels) == len(spheres)
    for level, (length, mats, last, rows) in zip(table.levels, spheres):
        sphere = [w for w in words if len(w) == length]
        exact = [list(word_to_matrix(w, preset).entries()) for w in sphere]
        assert mats.dtype == np.int64 and mats.reshape(-1, 4).tolist() == exact
        if length:
            assert last.tolist() == [_RANK[w.letters[-1]] for w in sphere]
        assert rows.dtype == np.int8 and _row_words(rows) == sphere
        assert _row_strings(rows) == [w.to_string() for w in _row_words(rows)]
        assert level.length == length
        if length > letters_up_to:
            assert level.letters is None
        else:
            assert level.letters.dtype == np.int8 and _row_words(level.letters) == sphere


def test_spheres_raise_before_large_generators_wrap_int64():
    # entries of 1000 reach about 1e18 at sphere 6, where one more letter
    # would wrap int64 although they are still below 2**60
    from pickdisc.fuchsian import _row_words, _spheres

    big = GroupPreset("BIG", Mat2(1, 1000, 0, 1), Mat2(1, 0, 1000, 1))
    spheres = _spheres(big, 7)
    for _length, mats, _last, rows in itertools.islice(spheres, 7):
        exact = [list(word_to_matrix(w, big).entries()) for w in _row_words(rows)]
        assert mats.reshape(-1, 4).tolist() == exact
    with pytest.raises(OverflowError):
        next(spheres)


# ---------------------------------------------------------------------------
# block evaluation
# ---------------------------------------------------------------------------
#
# `orbit_points` evaluates each sphere in blocks of `_BLOCK` matrices and
# grows an unstored deepest sphere from blocks of parents.  With a small
# odd block the blocks end mid-sphere and the last one is ragged; every
# figure must still equal a whole-sphere evaluation bit for bit.

def _whole_sphere_levels(z, max_length, preset):
    """(size, sigma, cumulative, min_rho, points, one_minus, rows) per sphere, unblocked."""
    from pickdisc.fuchsian import _eval_points, _spheres
    from pickdisc.hypgeo import _pseudo_hyperbolic

    levels, cumulative = [], 0.0
    for length, mats, _, rows in _spheres(preset, max_length):
        if length == 0:
            points, one_minus, min_rho = np.array([z]), np.array([1.0 - abs(z)]), math.inf
        else:
            points, one_minus = _eval_points(mats, z)
            min_rho = float(_pseudo_hyperbolic(z, points).min())
        sigma = float(one_minus.sum())
        cumulative += sigma
        levels.append((mats.shape[0], sigma, cumulative, min_rho, points, one_minus, rows))
    return levels


@pytest.mark.parametrize("preset", [GAMMA3, LAMBDA2], ids=lambda p: p.name)
@pytest.mark.parametrize("store_limit", [-1, 0, 3, 6])
def test_block_evaluation_is_bit_identical_to_whole_spheres(monkeypatch, preset, store_limit):
    from pickdisc import fuchsian

    z = 0.1 + 0.05j
    oracle = _whole_sphere_levels(z, 6, preset)
    monkeypatch.setattr(fuchsian, "_BLOCK", 7)
    table = orbit_points(z, 6, preset, store_limit=store_limit)
    assert len(table.levels) == len(oracle)
    for level, (size, sigma, cumulative, min_rho, points, one_minus, rows) in zip(
        table.levels, oracle
    ):
        assert (level.size, level.sigma, level.cumulative, level.min_rho) == (
            size, sigma, cumulative, min_rho
        )
        if level.length <= store_limit:
            assert np.array_equal(level.points, points)
            assert np.array_equal(level.one_minus, one_minus)
            assert np.array_equal(level.letters, rows)
        else:
            assert level.points is None and level.one_minus is None and level.letters is None


@pytest.mark.parametrize("store_limit", [0, 7])
def test_orbit_points_raise_on_int64_overflow_in_any_block(monkeypatch, store_limit):
    # entries of 1000 pass the int64 guard up to sphere 6 only; the
    # boundary guard is lifted so that the overflow guard is reached.
    # With blocks of 7 the first parent blocks of sphere 7 are still
    # small, so the unstored sphere raises mid-sphere.
    from pickdisc import fuchsian

    big = GroupPreset("BIG", Mat2(1, 1000, 0, 1), Mat2(1, 0, 1000, 1))
    monkeypatch.setattr(fuchsian, "_BOUNDARY_GUARD", 0.0)
    monkeypatch.setattr(fuchsian, "_BLOCK", 7)
    assert orbit_points(0.1, 6, big, store_limit=store_limit).levels[6].size == 4 * 3**5
    with pytest.raises(OverflowError):
        orbit_points(0.1, 7, big, store_limit=store_limit)


@pytest.mark.parametrize("store_limit", [0, 3])
def test_orbit_points_raise_on_boundary_points_in_a_grown_sphere(monkeypatch, store_limit):
    # entries of 1000 put sphere 3 within about 1e-18 of the boundary
    from pickdisc import fuchsian

    big = GroupPreset("BIG", Mat2(1, 1000, 0, 1), Mat2(1, 0, 1000, 1))
    monkeypatch.setattr(fuchsian, "_BLOCK", 7)
    assert orbit_points(0.1, 2, big, store_limit=store_limit).levels[2].size == 12
    with pytest.raises(RuntimeError, match="sphere 3 "):
        orbit_points(0.1, 3, big, store_limit=store_limit)


@pytest.mark.parametrize("store_limit", [-1, 0, 10])
def test_orbit_points_of_length_zero_hold_the_base_level(store_limit):
    z = 0.3 - 0.2j
    (level,) = orbit_points(z, 0, GAMMA3, store_limit=store_limit).levels
    assert (level.length, level.size, level.min_rho) == (0, 1, math.inf)
    assert level.sigma == level.cumulative == 1.0 - abs(z)
    if store_limit < 0:
        assert level.points is None and level.one_minus is None and level.letters is None
    else:
        assert level.points.tolist() == [z] and level.one_minus.tolist() == [1.0 - abs(z)]
        assert level.letters.shape == (1, 0)


def test_a_boundary_point_in_a_whole_sphere_precedes_an_overflow_in_the_next(monkeypatch):
    # All spheres up to L = 4 are held whole.  With an int64 guard of 10
    # the entry 11 of ab makes sphere 3 overflow, and the boundary guard
    # puts a point of sphere 2 on the boundary; a whole-sphere expansion
    # meets sphere 2 first.
    from pickdisc import fuchsian

    z = 0.1 + 0.05j
    preset = GroupPreset("P", Mat2(1, 2, 0, 1), Mat2(1, 0, 5, 1))
    one_minus = [level[5] for level in _whole_sphere_levels(z, 2, preset)]
    guard = one_minus[2].min()
    assert guard < one_minus[1].min()
    monkeypatch.setattr(fuchsian, "_INT64_GUARD", 10)
    fresh = GroupPreset("P", Mat2(1, 2, 0, 1), Mat2(1, 0, 5, 1))  # its stack sees the guard
    with pytest.raises(OverflowError, match="reached 11;"):
        orbit_points(z, 4, fresh, store_limit=0)
    monkeypatch.setattr(fuchsian, "_BOUNDARY_GUARD", guard)
    with pytest.raises(RuntimeError, match="sphere 2 "):
        orbit_points(z, 4, fresh, store_limit=0)


# Spheres deeper than `top` (the larger of store_limit and the deepest
# sphere of at most `_BLOCK` words) are grown one subtree at a time.  A
# block of 7 puts `top` at sphere 1 and a block of 35 at sphere 2, or at
# store_limit when that is deeper; at L = 3 and 4 and at store_limit 6,
# L = 7 the subtrees hold several roots and the last one is short.  Points
# are evaluated in chunks of 5, which end mid-level.

@pytest.mark.parametrize("preset", [GAMMA3, LAMBDA2], ids=lambda p: p.name)
@pytest.mark.parametrize("store_limit", [-1, 0, 3, 6])
@pytest.mark.parametrize("max_length", [3, 4, 6, 7])
@pytest.mark.parametrize("block", [7, 35])
def test_subtree_growth_is_bit_identical_to_whole_spheres(
    monkeypatch, block, max_length, store_limit, preset
):
    from pickdisc import fuchsian

    z = -0.3 + 0.1j
    oracle = _whole_sphere_levels(z, max_length, preset)
    monkeypatch.setattr(fuchsian, "_BLOCK", block)
    monkeypatch.setattr(fuchsian, "_CHUNK", 5)
    table = orbit_points(z, max_length, preset, store_limit=store_limit)
    assert len(table.levels) == len(oracle)
    for level, (size, sigma, cumulative, min_rho, points, one_minus, rows) in zip(
        table.levels, oracle
    ):
        assert (level.size, level.sigma, level.cumulative, level.min_rho) == (
            size, sigma, cumulative, min_rho
        )
        if level.length <= store_limit:
            assert np.array_equal(level.points, points)
            assert np.array_equal(level.one_minus, one_minus)
            assert np.array_equal(level.letters, rows)
        else:
            assert level.points is None and level.one_minus is None and level.letters is None


def test_a_shallower_boundary_point_in_a_later_subtree_is_reported(monkeypatch):
    # With a block of 7 each subtree grows from one letter.  The guard is
    # set so that the subtree of `a` first fails at sphere 4 and a later
    # subtree at sphere 3; a whole-sphere expansion meets sphere 3 first.
    from pickdisc import fuchsian

    z = 0.1 + 0.05j
    one_minus = [level[5] for level in _whole_sphere_levels(z, 4, GAMMA3)]
    sphere3, sphere4 = one_minus[3].reshape(4, 9), one_minus[4].reshape(4, 27)  # per letter
    guard = sphere3[1:].min()
    assert sphere4[0].min() <= guard < min(sphere3[0].min(), one_minus[2].min())
    monkeypatch.setattr(fuchsian, "_BLOCK", 7)
    monkeypatch.setattr(fuchsian, "_BOUNDARY_GUARD", guard)
    with pytest.raises(RuntimeError, match="sphere 3 "):
        orbit_points(z, 4, GAMMA3, store_limit=0)


def test_an_overflow_in_a_later_subtree_precedes_a_boundary_point(monkeypatch):
    # At L = 4 a block of 13 grows each subtree from one word of sphere 2.
    # The first, aa, has entries up to 4 and reaches the boundary guard
    # at sphere 3; the second, ab, has an entry 11 above the int64 guard
    # of 10, so making sphere 3 overflows.  At one sphere a whole-sphere
    # expansion checks the overflow before it evaluates any point.
    from pickdisc import fuchsian

    z = 0.1 + 0.05j
    preset = GroupPreset("P", Mat2(1, 2, 0, 1), Mat2(1, 0, 5, 1))
    one_minus = [level[5] for level in _whole_sphere_levels(z, 3, preset)]
    guard = one_minus[3][:3].min()  # the children of aa
    assert guard < one_minus[2].min()
    monkeypatch.setattr(fuchsian, "_INT64_GUARD", 10)
    monkeypatch.setattr(fuchsian, "_BOUNDARY_GUARD", guard)
    monkeypatch.setattr(fuchsian, "_BLOCK", 13)
    fresh = GroupPreset("P", Mat2(1, 2, 0, 1), Mat2(1, 0, 5, 1))  # its stack sees the guard
    with pytest.raises(OverflowError, match="reached 11;"):
        orbit_points(z, 4, fresh, store_limit=0)


def test_a_deeper_overflow_in_an_earlier_subtree_leaves_a_boundary_point_first(monkeypatch):
    # The same subtrees with an int64 guard of 20: aa, whose children
    # reach 21, overflows making sphere 4, and a later subtree holds a
    # sphere-3 point on the boundary guard, which a whole-sphere
    # expansion meets first.
    from pickdisc import fuchsian

    z = 0.1 + 0.05j
    preset = GroupPreset("P", Mat2(1, 2, 0, 1), Mat2(1, 0, 5, 1))
    one_minus = [level[5] for level in _whole_sphere_levels(z, 3, preset)]
    guard = one_minus[3][3:].min()  # the children of the later subtrees
    assert guard < min(one_minus[3][:3].min(), one_minus[2].min())
    monkeypatch.setattr(fuchsian, "_INT64_GUARD", 20)
    monkeypatch.setattr(fuchsian, "_BOUNDARY_GUARD", guard)
    monkeypatch.setattr(fuchsian, "_BLOCK", 13)
    fresh = GroupPreset("P", Mat2(1, 2, 0, 1), Mat2(1, 0, 5, 1))
    with pytest.raises(RuntimeError, match="sphere 3 "):
        orbit_points(z, 4, fresh, store_limit=0)


def test_orbit_points_memory_stays_below_the_deep_spheres():
    # the sphere before the deepest was held whole at about 23 MB; grown
    # subtree by subtree, only the sums of the deep spheres (8.5 MB) stay
    import tracemalloc

    tracemalloc.start()
    try:
        orbit_points(0.1 + 0.05j, 12, GAMMA3, store_limit=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6


def test_orbit_points_memory_stays_below_a_sphere():
    # whole-sphere evaluation peaked at about 100 MB here; the blocks and
    # the grown deepest sphere keep it near 23 MB
    import tracemalloc

    tracemalloc.start()
    try:
        orbit_points(0.1 + 0.05j, 12, GAMMA3, store_limit=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def test_separation_estimate_frozen_value():
    # the minimum sits on the first sphere, where all four images of 0
    # have modulus 3/sqrt(13)
    assert separation_estimate(0j, 8) == pytest.approx(0.8320502943378437, abs=1e-15)
    assert separation_estimate(0j, 1) == pytest.approx(THREE_OVER_ROOT13, abs=1e-15)


def test_separation_estimate_requires_a_nontrivial_orbit():
    with pytest.raises(ValueError):
        separation_estimate(0j, 0)


def test_separation_estimate_is_monotone_in_depth():
    values = [separation_estimate(0.15 - 0.1j, L) for L in range(1, 6)]
    for shallow, deep in zip(values, values[1:]):
        assert deep <= shallow + 1e-15


# ---------------------------------------------------------------------------
# sphere-sum diagnostics
# ---------------------------------------------------------------------------

def test_diagnostics_contrast_between_presets():
    thresholds = load_blaschke_thresholds()
    converging = blaschke_diagnostics(orbit_points(0j, 8, GAMMA3, store_limit=0))
    diverging = blaschke_diagnostics(orbit_points(0j, 8, LAMBDA2, store_limit=0))
    assert converging.verdict == "converging"
    assert diverging.verdict == "not converging"
    assert converging.threshold == thresholds["theta_converging"]
    assert converging.window == thresholds["window"] == 4
    assert len(converging.ratios) == 8


def test_diagnostics_needs_three_spheres():
    with pytest.raises(ValueError):
        blaschke_diagnostics(orbit_points(0j, 1, GAMMA3))
    assert blaschke_diagnostics(orbit_points(0j, 2, GAMMA3)).verdict


def test_diagnostics_threshold_override():
    table = orbit_points(0j, 8, GAMMA3, store_limit=0)
    assert blaschke_diagnostics(table, {"theta_converging": 2.0}).verdict == "converging"
    assert (
        blaschke_diagnostics(table, {"theta_converging": 0.01}).verdict == "not converging"
    )
    tail = table.sphere_ratios()[-4:]
    theta = (min(tail) + max(tail)) / 2.0
    assert min(tail) < theta < max(tail)
    mixed = blaschke_diagnostics(table, {"theta_converging": theta, "window": 4})
    assert mixed.verdict == "inconclusive"
    assert mixed.as_dict()["verdict"] == "inconclusive"


def test_diagnostics_deeper_than_the_calibration_are_inconclusive():
    # GAMMA3 ratios at z = 0: the twelve calibrated ones, then the measured
    # 0.8486 and 0.8581 of depths 13 and 14, still below theta
    thresholds = load_blaschke_thresholds()
    assert thresholds["calibration"]["max_length"] == 12
    ratios = [*thresholds["calibration"]["gamma3_ratios"], 0.8486, 0.8581]
    sigmas = list(itertools.accumulate([1.0, *ratios], lambda sigma, r: sigma * r))
    levels = tuple(
        OrbitLevel(length, 4 * 3 ** (length - 1) if length else 1, sigma, cumulative, 0.5)
        for length, (sigma, cumulative) in enumerate(zip(sigmas, itertools.accumulate(sigmas)))
    )
    deep = OrbitTable(base=0j, preset_name="GAMMA3", levels=levels)
    assert deep.max_length == 14
    assert max(deep.sphere_ratios()[-4:]) < thresholds["theta_converging"]
    for depth, verdict in ((12, "converging"), (13, "inconclusive"), (14, "inconclusive")):
        table = OrbitTable(base=0j, preset_name="GAMMA3", levels=levels[: depth + 1])
        assert blaschke_diagnostics(table).verdict == verdict
    # thresholds without calibration data set no depth limit
    bare = {key: value for key, value in thresholds.items() if key != "calibration"}
    assert blaschke_diagnostics(deep, bare).verdict == "converging"


@pytest.mark.parametrize("window", [0, -2])
def test_diagnostics_refuse_a_window_below_one(window):
    # window 0 read every ratio and -2 all but the first two, each with a verdict
    table = orbit_points(0j, 8, GAMMA3, store_limit=0)
    with pytest.raises(ValueError, match="window"):
        blaschke_diagnostics(table, {"theta_converging": 2.0, "window": window})
    assert blaschke_diagnostics(table, {"theta_converging": 2.0, "window": 1}).window == 1


def test_sphere_sums_decay_for_entry3_but_not_entry2():
    gamma = orbit_points(0j, 9, GAMMA3, store_limit=0)
    lam = orbit_points(0j, 9, LAMBDA2, store_limit=0)
    assert gamma.levels[9].sigma < 0.3 * gamma.levels[1].sigma
    assert lam.levels[9].sigma > 0.5 * lam.levels[1].sigma
    for table in (gamma, lam):
        cumul = [level.cumulative for level in table.levels]
        assert all(b > a for a, b in zip(cumul, cumul[1:]))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_frozen_thresholds_match_a_fresh_calibration():
    frozen = load_blaschke_thresholds()
    fresh = calibrate_blaschke_thresholds(max_length=12)
    assert fresh["theta_converging"] == pytest.approx(frozen["theta_converging"], rel=1e-12)
    assert fresh["theta_diverging"] == pytest.approx(frozen["theta_diverging"], rel=1e-12)
    assert frozen["theta_converging"] < frozen["theta_diverging"]
    assert fresh["calibration"]["ratio_range"] == frozen["calibration"]["ratio_range"]


def test_calibration_rejects_bad_inputs():
    with pytest.raises(ValueError):
        calibrate_blaschke_thresholds(max_length=6, ratio_range=(2, 9))
    with pytest.raises(RuntimeError):
        calibrate_blaschke_thresholds(max_length=6, ratio_range=(2, 5), margin=0.45)
