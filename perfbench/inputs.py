"""Seeded input pieces, kept apart from pickdisc so that they can check it.

Words are letter tuples over 1, -1, 2, -2 (a, A, b, B), ranked in that
order; the canonical order of words is by length, then lexicographically
by rank.  Points are drawn uniformly by radius scale and angle.
"""

from __future__ import annotations

import cmath
import math

ALPHABET = (1, -1, 2, -2)
CHARS = {1: "a", -1: "A", 2: "b", -2: "B"}


def reduce(letters: tuple) -> tuple:
    """Free reduction of a letter tuple."""
    out: list = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def canonical_words(max_length: int) -> list:
    """All reduced words of length <= max_length, in canonical order."""
    out = [()]
    level = [()]
    for _ in range(max_length):
        level = [w + (l,) for w in level for l in ALPHABET if not w or l != -w[-1]]
        out.extend(level)
    return out


def random_word(rng, length: int) -> tuple:
    letters: list = []
    for _ in range(length):
        choices = [l for l in ALPHABET if not letters or l != -letters[-1]]
        letters.append(rng.choice(choices))
    return tuple(letters)


def to_string(letters: tuple) -> str:
    return "".join(CHARS[l] for l in letters) or "e"


def translate(g: tuple, subset) -> frozenset:
    return frozenset(reduce(g + w) for w in subset)


def first_translator(a, b, candidates) -> tuple | None:
    """First candidate g (in the given order) with gA = B, by set arithmetic."""
    b = frozenset(b)
    for g in candidates:
        if translate(g, a) == b:
            return g
    return None


def subset_pair(rng, window: int, search_length: int, size: int, is_translate: bool) -> tuple:
    """Subsets A, B of the window and the translator g (None when B is no translate).

    A holds ``size`` words that fit the core window.  B is gA for a random
    g with |g| = search_length, or, when not a translate, gA with one word
    swapped for a random window word such that no g' with
    |g'| <= search_length maps A onto B.
    """
    a: set = set()
    while len(a) < size:
        a.add(random_word(rng, rng.randint(0, window - search_length)))
    g = random_word(rng, search_length)
    b = translate(g, a)
    if is_translate:
        return frozenset(a), b, g
    candidates = canonical_words(search_length)
    while True:
        swapped = set(b)
        swapped.remove(rng.choice(sorted(swapped)))
        swapped.add(random_word(rng, rng.randint(0, window)))
        if len(swapped) == size and first_translator(a, swapped, candidates) is None:
            return frozenset(a), frozenset(swapped), None


def disc_point(rng, radius: float) -> complex:
    return cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))


def ball_point(rng, dimension: int, radius: float) -> tuple:
    """A point of the complex ball of that dimension at exactly this radius."""
    coords = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dimension)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in coords))
    return tuple(c * radius / norm for c in coords)
