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
    with pytest.raises(ValueError):
        list(table.words_at(3))
    assert table.levels[3].sigma > 0.0  # aggregates survive past the limit
    bare = orbit_points(0.2, 2, GAMMA3, store_limit=-1)
    with pytest.raises(ValueError):
        list(bare.words_at(0))


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


def test_next_level_guards_against_int64_overflow():
    from pickdisc.fuchsian import _generator_arrays, _next_level

    gens = _generator_arrays(GAMMA3)
    mats = np.array([[[2**61, 0], [0, 1]]], dtype=np.int64)
    last = np.array([1], dtype=np.int8)
    with pytest.raises(OverflowError):
        _next_level(mats, last, gens)


def test_spheres_raise_before_large_generators_wrap_int64():
    # entries of 1000 reach about 1e18 at sphere 6, where one more letter
    # would wrap int64 although they are still below 2**60
    from pickdisc.fuchsian import _row_words, _spheres

    big = GroupPreset("BIG", Mat2(1, 1000, 0, 1), Mat2(1, 0, 1000, 1))
    spheres = _spheres(big, 7, 7)
    for _length, mats, rows in itertools.islice(spheres, 7):
        exact = [list(word_to_matrix(w, big).entries()) for w in _row_words(rows)]
        assert mats.reshape(-1, 4).tolist() == exact
    with pytest.raises(OverflowError):
        next(spheres)


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
