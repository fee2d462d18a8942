"""encode-equiv: is B a group translate of A, decided on encoded point sets.

Window 6 of GAMMA3 at base 0 gives configurations of about 4.4k points,
where `build_configuration` and `geometric_equivalence` dominate.  Half
the cases are translates gA with |g| equal to the search length; the
other half swap one word of a translate, so every candidate is walked.
The encode layer's set-up (params, the cold word reference) is paid in
set-up, where `enumerate_words` and `word_to_matrix` also run.

Search length 3 is left out: `geometric_equivalence` misses translates by
11 of the 36 words of length 3 at this window, which `known_defects.py`
reports.  Add 3 back to SEARCH_LENGTHS once that script passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from pickdisc.encode import (
    build_configuration,
    geometric_equivalence,
    make_params,
    word_search_equivalence,
)
from pickdisc.fuchsian import GAMMA3, Word, enumerate_words, word_to_matrix
from pickdisc.hypgeo import moebius_from_matrix

import harness
import inputs

WINDOW = 6
SEARCH_LENGTHS = (1, 2)
# One cycle holds every (search length, translate or not) pair once.
CYCLE = 2 * len(SEARCH_LENGTHS)
MAX_SUBSET = 4
PROBES = (0.1 + 0.2j, -0.3 + 0.05j, 0.45 - 0.4j, -0.2 - 0.6j)
MAP_TOL = 1e-9

PEAK_RSS_OF_CHILDREN = False


@dataclass
class State:
    seed: int
    params: object
    candidates: dict  # search length -> canonical words up to it
    reference_maps: dict  # letters -> DiscAutomorphism of the word


@dataclass
class Case:
    search_length: int
    a: frozenset
    b: frozenset
    g: tuple | None  # the translator, None when B is no translate
    a_words: list
    b_words: list


def setup(seed: int, tracer) -> State:
    with tracer.span("encode.make_params"):
        params = make_params(GAMMA3, window=WINDOW, base=0j)
    with tracer.span("encode.first_build"):
        build_configuration([Word(())], params)
    reference_maps = {
        w.letters: moebius_from_matrix(word_to_matrix(w, GAMMA3))
        for w in enumerate_words(max(SEARCH_LENGTHS))
    }
    candidates = {s: inputs.canonical_words(s) for s in SEARCH_LENGTHS}
    return State(seed, params, candidates, reference_maps)


def make_input(state: State, index: int) -> Case:
    rng = random.Random(f"encode-equiv:{state.seed}:{index}")
    s = SEARCH_LENGTHS[(index // 2) % len(SEARCH_LENGTHS)]
    size = 1 + (index // CYCLE) % MAX_SUBSET
    a, b, g = inputs.subset_pair(rng, WINDOW, s, size, is_translate=index % 2 == 0)
    return Case(s, a, b, g, [Word(w) for w in sorted(a)], [Word(w) for w in sorted(b)])


def kind(case: Case) -> str:
    return f"s{case.search_length}-{'translate' if case.g is not None else 'other'}"


def run_op(state: State, case: Case, tracer):
    params = state.params
    with tracer.span("encode.build_configuration"):
        config_a = build_configuration(case.a_words, params)
    with tracer.span("encode.build_configuration"):
        config_b = build_configuration(case.b_words, params)
    tracer.count("encode.points_per_config", len(config_a))
    tracer.count("encode.points_per_config", len(config_b))
    with tracer.span("encode.geometric_equivalence"):
        geo = geometric_equivalence(config_a, config_b, params, case.search_length)
    with tracer.span("encode.word_search_equivalence"):
        ws = word_search_equivalence(case.a_words, case.b_words, params, case.search_length)
    tracer.count("encode.equivalent", geo.equivalent)
    return geo, ws


def check(state: State, case: Case, out) -> str | None:
    """Geometric verdict, word-search verdict and set arithmetic must agree."""
    geo, ws = out
    truth = inputs.first_translator(case.a, case.b, state.candidates[case.search_length])
    if truth != case.g:
        return f"set arithmetic finds translator {truth}, construction used {case.g}"
    expected = case.g is not None
    if geo.equivalent != expected or ws.equivalent != expected:
        return f"verdicts geometric={geo.equivalent} word-search={ws.equivalent}, expected {expected}"
    if not expected:
        return None
    for verdict in (geo, ws):
        if verdict.witness_word is None or verdict.witness_word.letters != case.g:
            return f"{verdict.mode} witness {verdict.witness_word} is not {inputs.to_string(case.g)}"
    if geo.witness_map is None:
        return "geometric verdict has no witness map"
    reference = state.reference_maps[case.g]
    drift = max(abs(geo.witness_map(z) - reference(z)) for z in PROBES)
    if drift > MAP_TOL:
        return f"witness map is {drift:.3g} away from the matrix of the witness word"
    return None


def layer_metrics(tracer) -> dict:
    ops = [s for s in tracer.spans if s[4] >= 0]

    def op_ms(name, keep=lambda kind: True):
        return [
            (s[2] - s[1]) / 1e6 for s in ops if s[0] == name and keep(tracer.kinds[s[4]])
        ]

    geo = "encode.geometric_equivalence"
    return {
        "encode.build_configuration_ms": harness.median_or_zero(op_ms("encode.build_configuration")),
        "encode.points_per_config": harness.mean_or_zero(tracer.counts.get("encode.points_per_config", ())),
        "encode.geometric_equivalence_pos_ms": harness.median_or_zero(op_ms(geo, lambda k: k.endswith("translate"))),
        "encode.geometric_equivalence_neg_ms": harness.median_or_zero(op_ms(geo, lambda k: k.endswith("other"))),
        "encode.word_search_equivalence_ms": harness.median_or_zero(op_ms("encode.word_search_equivalence")),
        "encode.equivalent_frac": harness.mean_or_zero(tracer.counts.get("encode.equivalent", ())),
        "encode.make_params_ms": harness.median_or_zero(tracer.durations_ms("encode.make_params")),
        "encode.first_build_ms": harness.median_or_zero(tracer.durations_ms("encode.first_build")),
    }
