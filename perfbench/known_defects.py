"""Defects of pickdisc that the timed workloads leave out, checked directly.

    python3 perfbench/known_defects.py

Run from the root of a checkout.  Each case asks `geometric_equivalence`
at window 6 of GAMMA3 whether gA is a translate of A, for translators g
that word search always finds:

- base 0, search length 3, A = {e}, every g of length 3: the three-point
  solve compares coefficients of modulus 15 to 18 against an absolute
  1e-9 and rejects 11 of the 36 words;
- base -0.286+0.010j, search length 2, A = {e, b, ba}, g = ba: mapped
  core points land up to 1.1e-8 from their images, beyond the absolute
  1e-8 of the core check.

At base 0 every word of length 1 or 2 clears both tolerances by a factor
of 8 or more, so encode-equiv runs search lengths 1 and 2 and the
cli-oneshot encode-test runs search length 2, both at base 0.  The
script prints each missed translator and exits 1 while any is missed;
once it exits 0, those workloads can take search length 3 and seeded
bases again.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.use_checkout_sources()

from pickdisc.encode import build_configuration, geometric_equivalence, make_params  # noqa: E402
from pickdisc.fuchsian import GAMMA3, Word, enumerate_words  # noqa: E402

WINDOW = 6
# (base, search length, subset A, translators g)
CASES = (
    (0j, 3, ("e",), [w.to_string() for w in enumerate_words(3) if len(w) == 3]),
    (-0.28601639248689914 + 0.010024145884642448j, 2, ("e", "b", "ba"), ["ba"]),
)


def missed_translators(base: complex, search_length: int, subset: tuple, translators: list) -> list:
    params = make_params(GAMMA3, window=WINDOW, base=base)
    a = [Word.from_string(w) for w in subset]
    config_a = build_configuration(a, params)
    missed = []
    for text in translators:
        g = Word.from_string(text)
        config_b = build_configuration([g * w for w in a], params)
        verdict = geometric_equivalence(config_a, config_b, params, search_length)
        if not verdict.equivalent or verdict.witness_word != g:
            missed.append(text)
    return missed


def main() -> int:
    total = 0
    for base, search_length, subset, translators in CASES:
        missed = missed_translators(base, search_length, subset, translators)
        total += len(missed)
        print(f"window {WINDOW}, base {base:.4g}, search length {search_length}, A = {{{','.join(subset)}}}: "
              f"{len(missed)} of {len(translators)} translates missed {' '.join(missed)}".rstrip())
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
