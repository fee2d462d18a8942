"""Command line front end.

Every subcommand reads plain-text arguments, runs one library routine,
and writes a deterministic JSON document (or CSV table where noted) to
stdout or to ``--output``.  Exit codes follow one convention:

* 0: the command succeeded; for decision commands, the verdict is positive
* 1: domain errors (an evaluation refused to certify, a step is
  infeasible, library validation rejected the data) and negative
  verdicts; errors print a single diagnostic line to stderr
* 2: usage errors (unknown flags, unparseable numbers, missing files)

Complex numbers are written like ``0.3+0.1i`` (also ``j``); lists of
complex numbers are separated by ``;``, coefficient lists by ``,`` and
word subsets by ``,`` (``;`` is accepted too).  Every value argument
except ``--output`` may be ``@path`` (``--flag @path`` or
``--flag=@path``): the file is read once, before parsing, and the text
read from it is not expanded again.  A ``@`` inside a list names no file.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from itertools import repeat

from .encode import (
    build_configuration,
    geometric_equivalence,
    make_params,
    word_search_equivalence,
)
from .fuchsian import (
    PRESETS,
    Word,
    blaschke_diagnostics,
    orbit_points,
    separation_estimate,
)
from .pick import PickProblem, pick_feasible
from .seqkernel import (
    CoefficientSequence,
    RatioSequence,
    ScalingStepError,
    UncertifiedEvaluationError,
    a_from_b,
    b_from_a,
    check_admissible_log_convex,
    drury_arveson_inner,
    kernel_eval,
    same_growth_report,
    turbulence_step,
)

__all__ = ["main", "UsageError"]


class UsageError(ValueError):
    """Unparseable or malformed command-line input (exit code 2)."""


def _expand_files(argv: list) -> list:
    """Replace each ``@path`` option value by the file's text, once.

    ``--flag @path`` and ``--flag=@path`` both become ``--flag=<text>``,
    so text starting with ``-`` still parses as a value.  A separate
    value that starts like a negative number (``-`` then a digit or
    ``.``, as in ``--z -0.3+0.1i``) is joined to its flag the same way,
    since argparse reads such a complex number as an option.  ``--output``
    and its abbreviations name a file to write and are left alone.
    """
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        i += 1
        flag, eq, value = tok.partition("=")
        if len(flag) > 2 and flag.startswith("--") and not "--output".startswith(flag):
            if not eq and i < len(argv) and re.match(r"@|-[\d.]", argv[i]):
                value = argv[i]
                tok = f"{flag}={value}"
                i += 1
            if value.startswith("@"):
                try:
                    with open(value[1:], "r", encoding="utf-8") as fh:
                        tok = f"{flag}={fh.read().strip()}"
                except OSError as exc:
                    raise UsageError(f"cannot read {value[1:]!r}: {exc}") from None
        out.append(tok)
    return out


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise UsageError(f"cannot parse complex number from {text!r}") from None


def _split(text: str, sep: str) -> list:
    body = text.strip()
    if not body:
        return []
    return [tok.strip() for tok in body.split(sep)]


def _parse_complex_list(text: str, sep: str = ";") -> list:
    return [_parse_complex(tok) for tok in _split(text, sep)]


def _parse_terms(text: str, exact: bool) -> list:
    toks = _split(text, ",")
    try:
        if exact:
            return [Fraction(tok) for tok in toks]
        return [float(Fraction(tok)) if "/" in tok else float(tok) for tok in toks]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse coefficient list {text!r}: {exc}") from None


def _parse_ints(text: str) -> list:
    try:
        return [int(tok) for tok in _split(text, ",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}: {exc}") from None


def _parse_words(text: str) -> list:
    try:
        return [Word.from_string(tok) for tok in _split(text.replace(";", ","), ",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse word list {text!r}: {exc}") from None


def _jsonable(obj):
    """Coerce Fractions, complexes and numpy scalars into JSON types, non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if hasattr(obj, "item") and type(obj).__module__ == "numpy":
        return _jsonable(obj.item())
    return obj


def _emit(args, payload) -> None:
    """Write ``payload`` to stdout or ``--output``: text (CSV) as is, anything else as JSON."""
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse(flag: str, exc: Exception) -> tuple:
    """A refused evaluation or step: one ``error:`` line, then ``{flag: false, "error": ...}``."""
    print(f"error: {exc}", file=sys.stderr)
    return {flag: False, "error": str(exc)}, 1


def _kernel_from_args(args) -> CoefficientSequence:
    if args.a:
        return CoefficientSequence(tuple(_parse_terms(args.a, False)), exact=False)
    if args.b:
        b = CoefficientSequence(tuple(_parse_terms(args.b, False)), exact=False)
        return a_from_b(b, args.n_terms)
    if args.kernel:  # both names are the all-ones (Szego) kernel
        return CoefficientSequence.ones(args.n_terms)
    raise UsageError("a kernel is required: pass --a, --b, or --kernel")


# Each handler returns ``(payload, exit code)``; `main` emits the payload.

def _cmd_coeffs(args) -> tuple:
    exact = args.exact
    if (args.from_a is None) == (args.from_b is None):
        raise UsageError("pass exactly one of --from-a / --from-b")
    if args.from_b is not None:
        if args.n is None:
            raise UsageError("--n is required with --from-b")
        b = CoefficientSequence(tuple(_parse_terms(args.from_b, exact)), exact=exact)
        a = a_from_b(b, args.n)
    else:
        a = CoefficientSequence(tuple(_parse_terms(args.from_a, exact)), exact=exact)
        b = b_from_a(a, args.n)
    return {"a": a.terms, "b": b.terms, "exact": exact}, 0


def _cmd_admissible(args) -> tuple:
    a = CoefficientSequence(tuple(_parse_terms(args.a, args.exact)), exact=args.exact)
    report = check_admissible_log_convex(a, tol=args.tol)
    return report.as_dict(), 0 if report.verdict_at_truncation else 1


def _cmd_growth(args) -> tuple:
    a = CoefficientSequence(tuple(_parse_terms(args.a, exact=False)), exact=False)
    a_prime = CoefficientSequence(tuple(_parse_terms(args.a_prime, exact=False)), exact=False)
    report = same_growth_report(a, a_prime, n_terms=args.n)
    payload = report.as_dict()
    payload["ratio_spread"] = float(report.max_ratio) / float(report.min_ratio)
    return payload, 0


def _cmd_pick(args) -> tuple:
    kernel = _kernel_from_args(args)
    node_toks = _split(args.nodes, ";")
    nodes = tuple(tuple(_parse_complex(c) for c in tok.split(",")) for tok in node_toks)
    targets = tuple(_parse_complex_list(args.targets))
    dimension = args.dimension if args.dimension else (len(nodes[0]) if nodes else 1)
    problem = PickProblem(kernel=kernel, dimension=dimension, nodes=nodes, targets=targets)
    report = pick_feasible(problem, tol=args.tol, kernel_tol=args.kernel_tol)
    payload = report.as_dict()
    payload["feasible"] = report.is_psd
    payload["n_nodes"] = len(problem.nodes)
    payload["dimension"] = dimension
    return payload, 0 if report.is_psd else 1


def _cmd_kernel_eval(args) -> tuple:
    kernel = _kernel_from_args(args)
    u = _parse_complex(args.u)
    try:
        result = kernel_eval(kernel, u, tol=args.tol)
    except UncertifiedEvaluationError as exc:
        return _refuse("certified", exc)
    payload = {
        "certified": True,
        "value": result.value,
        "abs": abs(result.value),
        "tail_bound": result.tail_bound,
        "terms_used": result.terms_used,
    }
    return payload, 0


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _cmd_orbit(args) -> tuple:
    preset = PRESETS[args.preset]
    z = _parse_complex(args.z)
    table = orbit_points(z, args.max_length, preset=preset, store_limit=args.store)
    if args.format == "csv":
        rows = (f"{word},{length},{pt.real!r},{pt.imag!r},{om!r}"
                for word, length, pt, om in table.iter_rows())
        return _csv("word,length,re,im,one_minus_abs", rows), 0
    payload = {
        "base": z,
        "preset": table.preset_name,
        "total_words": table.total_words(),
        "ratios": list(table.sphere_ratios()),
        "levels": [
            {
                "length": lv.length,
                "size": lv.size,
                "sigma": lv.sigma,
                "cumulative": lv.cumulative,
                "min_rho": lv.min_rho,
            }
            for lv in table.levels
        ],
    }
    return payload, 0


def _cmd_blaschke(args) -> tuple:
    preset = PRESETS[args.preset]
    z = _parse_complex(args.z)
    table = orbit_points(z, args.max_length, preset=preset, store_limit=0)
    if args.format == "csv":
        rows = (f"{lv.length},{lv.size},{lv.sigma!r},{lv.cumulative!r},{ratio!r}"
                for lv, ratio in zip(table.levels[1:], table.sphere_ratios()))
        return _csv("L,sphere_size,sigma_L,S_L,ratio", rows), 0
    diag = blaschke_diagnostics(table)
    payload = diag.as_dict()
    payload["preset"] = table.preset_name
    payload["base"] = z
    payload["partial_sums"] = [lv.cumulative for lv in table.levels]
    return payload, 0


def _cmd_separation(args) -> tuple:
    preset = PRESETS[args.preset]
    z = _parse_complex(args.z)
    sep = separation_estimate(z, args.max_length, preset=preset)
    return {"separation": sep, "z": z, "max_length": args.max_length, "preset": preset.name}, 0


def _params_payload(params) -> dict:
    return {
        "preset": params.preset.name,
        "base": params.base,
        "eps": params.eps,
        "delta": params.delta,
        "window": params.window,
        "satellites": list(params.satellites),
    }


def _params_from_args(args):
    return make_params(
        preset=PRESETS[args.preset], window=args.window, base=_parse_complex(args.base)
    )


def _cmd_encode_build(args) -> tuple:
    params = _params_from_args(args)
    config = build_configuration(_parse_words(args.subset), params)
    labels = repeat((None, None)) if args.mask else config.labels
    rows = [(complex(pt), word, family) for pt, (word, family) in zip(config.points, labels)]
    if args.format == "csv":
        # a masked row leaves its word and family cells empty
        lines = (f"{pt.real!r},{pt.imag!r}," + ("," if word is None else f"{word},{family}")
                 for pt, word, family in rows)
        return _csv("re,im,word,family", lines), 0
    points = [{"word": word, "family": family, "point": pt} for pt, word, family in rows]
    return {"params": _params_payload(params), "n_points": len(config), "points": points}, 0


def _cmd_encode_test(args) -> tuple:
    params = _params_from_args(args)
    subset_a = _parse_words(args.subset_a)
    subset_b = _parse_words(args.subset_b)
    payload: dict = {"params": _params_payload(params), "search_length": args.search_length}
    verdicts = []
    if args.mode in ("word", "both"):
        ws = word_search_equivalence(subset_a, subset_b, params, args.search_length)
        payload["word_search"] = ws.as_dict()
        verdicts.append(ws.equivalent)
    if args.mode in ("geometric", "both"):
        config_a = build_configuration(subset_a, params)
        config_b = build_configuration(subset_b, params)
        geo = geometric_equivalence(config_a, config_b, params, args.search_length)
        payload["geometric"] = geo.as_dict()
        verdicts.append(geo.equivalent)
    if len(verdicts) == 2:
        payload["agree"] = verdicts[0] == verdicts[1]
    return payload, 0 if all(verdicts) else 1


def _cmd_turbulence_step(args) -> tuple:
    s = RatioSequence(tuple(_parse_terms(args.s, exact=False)))
    t = RatioSequence(tuple(_parse_terms(args.t, exact=False)))
    try:
        g, n_exp = turbulence_step(s, t, args.n1, args.eps, n_max=args.n_max)
    except ScalingStepError as exc:
        return _refuse("feasible", exc)
    return {"feasible": True, "g": list(g), "root_exponent": n_exp}, 0


def _cmd_da_inner(args) -> tuple:
    alpha = _parse_ints(args.alpha)
    beta = _parse_ints(args.beta)
    value = drury_arveson_inner(alpha, beta)
    payload = {
        "value": value,
        "numerator": value.numerator,
        "denominator": value.denominator,
        "is_zero": value == 0,
    }
    return payload, 0


def _build_parser() -> argparse.ArgumentParser:
    """The ``pickdisc`` parser.

    Options shared by several commands are declared once, on the parent
    parsers below; ``command`` builds every subcommand and adds ``--output``.
    """
    parser = argparse.ArgumentParser(
        prog="pickdisc",
        description="Kernel coefficient tools, Pick feasibility, and disc orbit encodings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def group(*parents):
        return argparse.ArgumentParser(add_help=False, parents=parents)

    preset = group()
    preset.add_argument("--preset", default="GAMMA3", choices=sorted(PRESETS))
    orbit_base = group(preset)
    orbit_base.add_argument("--z", default="0", help="base point")
    kernel = group()
    source = kernel.add_mutually_exclusive_group()
    source.add_argument("--a", help="kernel a coefficients (comma list)")
    source.add_argument("--b", help="kernel b coefficients (comma list)")
    source.add_argument("--kernel", choices=("ones", "szego"),
                        help="named kernel: ones (alias szego)")
    kernel.add_argument("--n-terms", type=int, default=256)
    encoding = group(preset)
    encoding.add_argument("--window", type=int, default=4)
    encoding.add_argument("--base", default="0")
    table_format = group()
    table_format.add_argument("--format", default="json", choices=("json", "csv"))

    def command(name, handler, help, *groups):
        p = subs.add_parser(name, help=help, parents=groups)
        p.add_argument("--output", help="write the result to this file instead of stdout")
        p.set_defaults(handler=handler)
        return p

    p = command("coeffs", _cmd_coeffs, "convert between kernel and reciprocal coefficients")
    p.add_argument("--from-a", help="comma list of a coefficients (a_0 first)")
    p.add_argument("--from-b", help="comma list of b coefficients (b_1 first)")
    p.add_argument("--n", type=int, help="output length (required with --from-b)")
    p.add_argument("--exact", action="store_true", help="use exact rational arithmetic")

    p = command("admissible", _cmd_admissible,
                "check kernel-coefficient admissibility at a truncation")
    p.add_argument("--a", required=True, help="comma list of a coefficients")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--exact", action="store_true")

    p = command("growth", _cmd_growth, "componentwise ratio extremes of two coefficient lists")
    p.add_argument("--a", required=True)
    p.add_argument("--a-prime", required=True)
    p.add_argument("--n", type=int)

    p = command("pick", _cmd_pick, "decide Pick-matrix feasibility for nodes and targets", kernel)
    p.add_argument("--nodes", required=True,
                   help="semicolon list of nodes; coordinates comma separated")
    p.add_argument("--targets", required=True, help="semicolon list of target values")
    p.add_argument("--dimension", type=int, default=0, help="ball dimension (default: inferred)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--kernel-tol", type=float, default=1e-10)

    p = command("kernel-eval", _cmd_kernel_eval,
                "evaluate a kernel power series with a certified tail", kernel)
    p.add_argument("--u", required=True, help="evaluation point (complex)")
    p.add_argument("--tol", type=float, default=1e-10)

    p = command("orbit", _cmd_orbit,
                "breadth-first group orbit of a disc point", orbit_base, table_format)
    p.add_argument("--L", "--max-length", type=int, required=True, dest="max_length")
    p.add_argument("--store", type=int, default=10, help="number of levels to keep point data for")

    p = command("blaschke", _cmd_blaschke,
                "sphere-sum convergence diagnostics for an orbit", orbit_base, table_format)
    p.add_argument("--L", "--max-length", type=int, required=True, dest="max_length")

    p = command("separation", _cmd_separation,
                "smallest orbit distance from a base point", orbit_base)
    p.add_argument("--L", "--max-length", type=int, default=8, dest="max_length")

    p = command("encode-build", _cmd_encode_build,
                "encode a word subset as a point configuration", encoding, table_format)
    p.add_argument("--subset", required=True, help="comma list of words (e for identity)")
    p.add_argument("--mask", action="store_true", help="omit labels from the export")

    p = command("encode-test", _cmd_encode_test,
                "test two encoded subsets for translate equivalence", encoding)
    p.add_argument("--subset-a", required=True, help="comma list of words")
    p.add_argument("--subset-b", required=True, help="comma list of words")
    p.add_argument("--search-length", type=int, required=True)
    p.add_argument("--mode", default="both", choices=("word", "geometric", "both"))

    p = command("turbulence-step", _cmd_turbulence_step,
                "one ratio-scaling step with minimal root exponent")
    p.add_argument("--s", required=True, help="current ratio list (comma separated, in (0,1))")
    p.add_argument("--t", required=True, help="target ratio list")
    p.add_argument("--n1", type=int, required=True, help="index up to which ratios are rescaled")
    p.add_argument("--eps", type=float, required=True, help="deviation budget for the step")
    p.add_argument("--n-max", type=int, default=2**20)

    p = command("da-inner", _cmd_da_inner, "exact monomial inner product in the d-shift space")
    p.add_argument("--alpha", required=True, help="comma list of exponents")
    p.add_argument("--beta", required=True, help="comma list of exponents")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_expand_files(sys.argv[1:] if argv is None else argv))
        payload, code = args.handler(args)
        _emit(args, payload)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, ArithmeticError, RuntimeError) as exc:
        # library-level rejection of the data: a domain error, not a usage one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
