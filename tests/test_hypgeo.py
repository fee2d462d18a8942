"""Disc automorphisms, the invariant metric, and triple rigidity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pickdisc.hypgeo import (
    DegenerateConfigurationError,
    DiscAutomorphism,
    DiscPreservationError,
    Mat2,
    RigidityMatchError,
    as_ball_point,
    moebius_from_matrix,
    moebius_through_three_points,
    phi_a,
    rho,
    triple_rigidity_match,
)

# points kept well inside the disc so denominators stay tame
disc_points = st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False)

# (alpha, beta) pairs with |alpha| > |beta| parameterize automorphisms
# after normalization
auto_params = st.tuples(
    st.complex_numbers(min_magnitude=1.0, max_magnitude=3.0, allow_nan=False),
    st.complex_numbers(max_magnitude=0.9, allow_nan=False),
)


def _random_auto(params) -> DiscAutomorphism:
    alpha, beta = params
    assume(abs(alpha) > abs(beta) + 1e-3)
    return DiscAutomorphism(alpha, beta)


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------

def test_mat2_identity_and_inverse():
    m = Mat2(1, 3, 0, 1)
    assert m.det() == 1
    assert (m @ m.inverse()).entries() == (1, 0, 0, 1)
    assert m.inverse().entries() == (1, -3, 0, 1)


def test_mat2_product_exact():
    a = Mat2(1, 3, 0, 1)
    b = Mat2(1, 0, 3, 1)
    assert (a @ b).entries() == (10, 3, 3, 1)
    assert a.is_integral()


# ---------------------------------------------------------------------------
# automorphism normal form
# ---------------------------------------------------------------------------

def test_identity_fixes_points():
    e = DiscAutomorphism.identity()
    for z in (0j, 0.5 + 0.1j, -0.7j):
        assert e(z) == pytest.approx(z)


def test_normalization_determinant():
    f = DiscAutomorphism(2.0 + 1.0j, 0.5 - 0.3j)
    assert abs(f.alpha) ** 2 - abs(f.beta) ** 2 == pytest.approx(1.0)


def test_scalar_multiples_normalize_identically():
    f = DiscAutomorphism(2.0 + 1.0j, 0.5 - 0.3j)
    g = DiscAutomorphism(-(2.0 + 1.0j), -(0.5 - 0.3j))
    assert f.alpha == pytest.approx(g.alpha)
    assert f.beta == pytest.approx(g.beta)


@given(auto_params, disc_points)
@settings(max_examples=150, deadline=None)
def test_automorphisms_preserve_disc(params, z):
    f = _random_auto(params)
    assert abs(f(z)) < 1.0


@given(auto_params, disc_points)
@settings(max_examples=150, deadline=None)
def test_compose_with_inverse_is_identity(params, z):
    f = _random_auto(params)
    assert f.inverse()(f(z)) == pytest.approx(z, abs=1e-9)
    assert f.compose(f.inverse()).almost_equal(DiscAutomorphism.identity())


def test_compose_matches_pointwise():
    f = DiscAutomorphism(1.5, 0.5j)
    g = DiscAutomorphism(2.0 - 1.0j, 0.3)
    h = f.compose(g)
    for z in (0j, 0.2 - 0.6j, 0.9):
        assert h(z) == pytest.approx(f(g(z)), abs=1e-12)


# ---------------------------------------------------------------------------
# the ball involution and the metric
# ---------------------------------------------------------------------------

def test_phi_a_swaps_zero_and_a_scalar():
    a = 0.4 - 0.2j
    assert phi_a(a, 0j) == pytest.approx(a)
    assert phi_a(a, a) == pytest.approx(0j, abs=1e-15)


def test_phi_a_swaps_zero_and_a_vector():
    a = (0.3 + 0.1j, -0.2j)
    out = phi_a(a, (0j, 0j))
    assert np.allclose(out, a)
    back = phi_a(a, a)
    assert np.allclose(back, 0.0, atol=1e-14)


@given(disc_points, disc_points)
@settings(max_examples=150, deadline=None)
def test_phi_a_is_an_involution(a, z):
    assert complex(phi_a(a, phi_a(a, z))) == pytest.approx(z, abs=1e-10)


def _ball_sample(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / (1.0 + np.linalg.norm(v))  # always strictly inside the ball


def test_phi_a_involution_dimensions_two_and_three():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        for _ in range(25):
            a = _ball_sample(rng, d)
            z = _ball_sample(rng, d)
            back = phi_a(tuple(a), phi_a(tuple(a), tuple(z)))
            assert np.allclose(back, z, atol=1e-10)


def test_rho_basics():
    assert rho(0j, 0.5) == pytest.approx(0.5)
    assert rho(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    assert rho(0.2, 0.5) == pytest.approx(rho(0.5, 0.2))


@given(auto_params, disc_points, disc_points)
@settings(max_examples=150, deadline=None)
def test_rho_invariant_under_automorphisms(params, a, b):
    f = _random_auto(params)
    assert rho(f(a), f(b)) == pytest.approx(rho(a, b), abs=1e-10)


def _circumcenter(a, b, c):
    d = 2.0 * (a.real * (b.imag - c.imag) + b.real * (c.imag - a.imag)
               + c.real * (a.imag - b.imag))
    ux = (abs(a) ** 2 * (b.imag - c.imag) + abs(b) ** 2 * (c.imag - a.imag)
          + abs(c) ** 2 * (a.imag - b.imag)) / d
    uy = (abs(a) ** 2 * (c.real - b.real) + abs(b) ** 2 * (a.real - c.real)
          + abs(c) ** 2 * (b.real - a.real)) / d
    return complex(ux, uy)


def test_rho_circle_is_euclidean_circle():
    # the locus rho(c, z) = r is a Euclidean circle, but its Euclidean
    # center is not the image of c, so fit the circle through three of
    # the sampled points and check every other sample lands on it
    c, r = 0.4 + 0.3j, 0.35
    samples = [complex(phi_a(c, r * cmath.exp(1j * t))) for t in
               np.linspace(0.0, 2.0 * math.pi, 60, endpoint=False)]
    center = _circumcenter(samples[0], samples[20], samples[40])
    radius = abs(samples[0] - center)
    for z in samples:
        assert abs(z - center) == pytest.approx(radius, abs=1e-12)
        assert rho(c, z) == pytest.approx(r, abs=1e-12)


def test_as_ball_point_shapes():
    assert np.allclose(as_ball_point(0.5), [0.5 + 0j])
    assert np.allclose(as_ball_point((0.1, 0.2j)), [0.1 + 0j, 0.2j])
    with pytest.raises(ValueError):
        as_ball_point((0.1, 0.2), dimension=3)
    with pytest.raises(ValueError):
        as_ball_point((1.2,))  # outside the unit ball


# ---------------------------------------------------------------------------
# integer matrices acting on the disc
# ---------------------------------------------------------------------------

def test_matrix_action_frozen_value():
    # worked out by hand through the half-plane model:
    # the unipotent (1 3; 0 1) sends the disc center to (9 - 6i)/13
    f = moebius_from_matrix(Mat2(1, 3, 0, 1))
    assert f(0j) == pytest.approx(complex(9, -6) / 13, abs=1e-14)


def test_almost_equal_across_the_sign_flip_of_the_normal_form():
    # the normal form flips sign at Re(alpha) = 0, so these nearly equal
    # maps are stored with opposite signs
    f = DiscAutomorphism(1e-13 + 1j, 0.1)
    g = DiscAutomorphism(-1e-13 + 1j, 0.1)
    assert abs(f(0.3 + 0.2j) - g(0.3 + 0.2j)) < 1e-12
    assert abs(g.alpha + f.alpha) < 1e-12 and abs(g.beta + f.beta) < 1e-12
    assert f.almost_equal(g) and g.almost_equal(f)
    assert not f.almost_equal(DiscAutomorphism(-1e-13 + 1j, -0.1))


def test_matrix_action_identity_and_sign():
    e = moebius_from_matrix(Mat2(1, 0, 0, 1))
    assert e.almost_equal(DiscAutomorphism.identity())
    minus = moebius_from_matrix(Mat2(-1, 0, 0, -1))
    assert minus.almost_equal(DiscAutomorphism.identity())


def test_matrix_action_is_homomorphism():
    gens = [Mat2(1, 3, 0, 1), Mat2(1, 0, 3, 1), Mat2(1, -3, 0, 1), Mat2(1, 0, -3, 1)]
    rng = np.random.default_rng(3)
    for _ in range(50):
        seq = rng.integers(0, 4, size=5)
        m = Mat2.identity()
        f = DiscAutomorphism.identity()
        for i in seq:
            m = m @ gens[i]
            f = f.compose(moebius_from_matrix(gens[i]))
        assert moebius_from_matrix(m).almost_equal(f, tol=1e-10)


def test_moebius_from_matrix_rejects_nonunimodular():
    with pytest.raises(ValueError):
        moebius_from_matrix(Mat2(2, 0, 0, 1))


# ---------------------------------------------------------------------------
# three-point interpolation
# ---------------------------------------------------------------------------

def test_three_point_recovery():
    f = DiscAutomorphism(1.25 + 0.5j, 0.4 - 0.6j)
    src = (0.1 + 0.2j, -0.3 + 0.1j, 0.5 - 0.4j)
    dst = tuple(f(z) for z in src)
    g = moebius_through_three_points(src, dst)
    assert g.almost_equal(f, tol=1e-9)


def test_three_point_rejects_degenerate_source():
    with pytest.raises(DegenerateConfigurationError):
        moebius_through_three_points((0.1, 0.1, 0.5), (0.1, 0.2, 0.5))


def test_three_point_rejects_metric_distortion():
    # no disc automorphism can fix 0 and 0.5 while moving -0.5 to 0.7:
    # automorphisms preserve rho and rho(0, -0.5) != rho(0, 0.7)
    with pytest.raises(DiscPreservationError):
        moebius_through_three_points((0j, 0.5 + 0j, -0.5 + 0j), (0j, 0.5 + 0j, 0.7 + 0j))


def test_three_point_accepts_long_words_at_the_encoding_triple():
    # words of length 4 have coefficients of modulus up to about 60, so a
    # disc-preservation test on the coefficients rejects some of them;
    # the residual in rho does not grow with that scale
    from pickdisc.encode import make_params
    from pickdisc.fuchsian import GAMMA3, enumerate_words, word_to_matrix

    words = enumerate_words(4)
    assert len(words) == 161
    for base in (0j, -0.286 + 0.010j, 0.13 - 0.21j):
        params = make_params(GAMMA3, window=6, base=base)
        triple = (params.base, params.satellites[0], params.satellites[1])
        for w in words:
            f = moebius_from_matrix(word_to_matrix(w, GAMMA3))
            dst = tuple(f(z) for z in triple)
            assert moebius_through_three_points(triple, dst).almost_equal(f), (base, w)
            # phi_a(d, t) lies at rho |t| from d: move the last destination by delta
            moved = dst[:2] + (phi_a(dst[2], params.delta),)
            with pytest.raises(DiscPreservationError) as info:
                moebius_through_three_points(triple, moved)
            assert info.value.residual > params.delta / 2, (base, w)


@given(auto_params)
@settings(max_examples=100, deadline=None)
def test_three_point_recovery_random(params):
    f = _random_auto(params)
    src = (0.0j, 0.4 + 0.1j, -0.2 - 0.5j)
    dst = tuple(f(z) for z in src)
    g = moebius_through_three_points(src, dst)
    for z in (0.3j, -0.6, 0.1 + 0.1j):
        assert g(z) == pytest.approx(f(z), abs=1e-8)


# ---------------------------------------------------------------------------
# triple rigidity
# ---------------------------------------------------------------------------

def _well_spread_triple():
    return (0j, 0.3 + 0j, 0.1 + 0.45j)


def test_rigidity_recovers_permutation():
    triple = _well_spread_triple()
    f = DiscAutomorphism(1.1, 0.2 + 0.3j)
    image = [f(z) for z in triple]
    for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1)):
        candidates = [image[i] for i in perm]
        sigma = triple_rigidity_match(triple, candidates)
        recovered = tuple(candidates[sigma[i]] for i in range(3))
        assert recovered == pytest.approx(tuple(image))


def test_rigidity_with_extra_candidate():
    triple = _well_spread_triple()
    f = DiscAutomorphism(1.1, 0.2 + 0.3j)
    image = [f(z) for z in triple]
    candidates = [image[2], f(0.05 + 0.05j), image[0], image[1]]
    sigma = triple_rigidity_match(triple, candidates)
    assert tuple(candidates[sigma[i]] for i in range(3)) == pytest.approx(tuple(image))


def test_rigidity_degenerate_triple_rejected():
    # isoceles: two of the three pairwise distances coincide
    with pytest.raises(DegenerateConfigurationError):
        triple_rigidity_match((0j, 0.4 + 0j, 0.4j), (0j, 0.4 + 0j, 0.4j))


def test_rigidity_no_match_rejected():
    triple = _well_spread_triple()
    with pytest.raises(RigidityMatchError):
        triple_rigidity_match(triple, (0j, 0.6 + 0j, 0.1 + 0.8j))
