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
word subsets by ``,`` (``;`` is accepted too).  Any value argument may
be ``@path``, read from the file once: text read from it is not expanded again.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

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


def _load_arg(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError as exc:
            raise UsageError(f"cannot read {text[1:]!r}: {exc}") from None
    return text


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


def _seq_payload(seq: CoefficientSequence) -> list:
    if seq.exact:
        return [str(t) for t in seq.terms]
    return [float(t) for t in seq.terms]


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


def _emit(args, payload, csv_text: str | None = None) -> None:
    if csv_text is not None:
        text = csv_text
    else:
        text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_NAMED_KERNELS = ("ones", "szego")


def _kernel_from_args(args) -> CoefficientSequence:
    if getattr(args, "a", None):
        return CoefficientSequence(tuple(_parse_terms(args.a, False)), exact=False)
    if getattr(args, "b", None):
        b = CoefficientSequence(tuple(_parse_terms(args.b, False)), exact=False)
        return a_from_b(b, args.n_terms)
    name = getattr(args, "kernel", None)
    if name:
        if name not in _NAMED_KERNELS:
            raise UsageError(f"unknown kernel name {name!r}; choose from {_NAMED_KERNELS}")
        return CoefficientSequence.ones(args.n_terms)
    raise UsageError("a kernel is required: pass --a, --b, or --kernel")


def _cmd_coeffs(args) -> int:
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
    _emit(args, {"a": _seq_payload(a), "b": _seq_payload(b), "exact": exact})
    return 0


def _cmd_admissible(args) -> int:
    a = CoefficientSequence(tuple(_parse_terms(args.a, args.exact)), exact=args.exact)
    report = check_admissible_log_convex(a, tol=args.tol)
    _emit(args, report.as_dict())
    return 0 if report.verdict_at_truncation else 1


def _cmd_growth(args) -> int:
    a = CoefficientSequence(tuple(_parse_terms(args.a, exact=False)), exact=False)
    a_prime = CoefficientSequence(tuple(_parse_terms(args.a_prime, exact=False)), exact=False)
    report = same_growth_report(a, a_prime, n_terms=args.n)
    payload = report.as_dict()
    payload["ratio_spread"] = float(report.max_ratio) / float(report.min_ratio)
    _emit(args, payload)
    return 0


def _cmd_pick(args) -> int:
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
    _emit(args, payload)
    return 0 if report.is_psd else 1


def _cmd_kernel_eval(args) -> int:
    kernel = _kernel_from_args(args)
    u = _parse_complex(args.u)
    try:
        result = kernel_eval(kernel, u, tol=args.tol)
    except UncertifiedEvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit(args, {"certified": False, "error": str(exc)})
        return 1
    _emit(
        args,
        {
            "certified": True,
            "value": result.value,
            "abs": abs(result.value),
            "tail_bound": result.tail_bound,
            "terms_used": result.terms_used,
        },
    )
    return 0


def _orbit_csv(table) -> str:
    lines = ["word,length,re,im,one_minus_abs"]
    for word, length, pt, om in table.iter_rows():
        lines.append(f"{word},{length},{pt.real!r},{pt.imag!r},{om!r}")
    return "\n".join(lines) + "\n"


def _cmd_orbit(args) -> int:
    preset = PRESETS[args.preset]
    z = _parse_complex(args.z)
    table = orbit_points(z, args.max_length, preset=preset, store_limit=args.store)
    if args.format == "csv":
        _emit(args, None, csv_text=_orbit_csv(table))
        return 0
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
    _emit(args, payload)
    return 0


def _blaschke_csv(table) -> str:
    lines = ["L,sphere_size,sigma_L,S_L,ratio"]
    for lv, ratio in zip(table.levels[1:], table.sphere_ratios()):
        lines.append(f"{lv.length},{lv.size},{lv.sigma!r},{lv.cumulative!r},{ratio!r}")
    return "\n".join(lines) + "\n"


def _cmd_blaschke(args) -> int:
    preset = PRESETS[args.preset]
    z = _parse_complex(args.z)
    table = orbit_points(z, args.max_length, preset=preset, store_limit=0)
    if args.format == "csv":
        _emit(args, None, csv_text=_blaschke_csv(table))
        return 0
    diag = blaschke_diagnostics(table)
    payload = diag.as_dict()
    payload["preset"] = table.preset_name
    payload["base"] = z
    payload["partial_sums"] = [lv.cumulative for lv in table.levels]
    _emit(args, payload)
    return 0


def _cmd_separation(args) -> int:
    preset = PRESETS[args.preset]
    z = _parse_complex(args.z)
    sep = separation_estimate(z, args.max_length, preset=preset)
    _emit(
        args,
        {"separation": sep, "z": z, "max_length": args.max_length, "preset": preset.name},
    )
    return 0


def _params_payload(params) -> dict:
    return {
        "preset": params.preset.name,
        "base": params.base,
        "eps": params.eps,
        "delta": params.delta,
        "window": params.window,
        "satellites": list(params.satellites),
    }


def _cmd_encode_build(args) -> int:
    preset = PRESETS[args.preset]
    params = make_params(preset=preset, window=args.window, base=_parse_complex(args.base))
    subset = _parse_words(args.subset)
    config = build_configuration(subset, params)
    if args.format == "csv":
        lines = ["re,im,word,family"]
        for pt, label in zip(config.points, config.labels):
            if args.mask:
                lines.append(f"{float(pt.real)!r},{float(pt.imag)!r},,")
            else:
                lines.append(f"{float(pt.real)!r},{float(pt.imag)!r},{label[0]},{label[1]}")
        _emit(args, None, csv_text="\n".join(lines) + "\n")
        return 0
    payload = {
        "params": _params_payload(params),
        "n_points": len(config),
        "points": [
            {"word": None if args.mask else label[0],
             "family": None if args.mask else label[1],
             "point": complex(pt)}
            for pt, label in zip(config.points, config.labels)
        ],
    }
    _emit(args, payload)
    return 0


def _cmd_encode_test(args) -> int:
    preset = PRESETS[args.preset]
    params = make_params(preset=preset, window=args.window, base=_parse_complex(args.base))
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
    _emit(args, payload)
    return 0 if all(verdicts) else 1


def _cmd_turbulence_step(args) -> int:
    s = RatioSequence(tuple(_parse_terms(args.s, exact=False)))
    t = RatioSequence(tuple(_parse_terms(args.t, exact=False)))
    try:
        g, n_exp = turbulence_step(s, t, args.n1, args.eps, n_max=args.n_max)
    except ScalingStepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit(args, {"feasible": False, "error": str(exc)})
        return 1
    _emit(args, {"feasible": True, "g": list(g), "root_exponent": n_exp})
    return 0


def _cmd_da_inner(args) -> int:
    alpha = _parse_ints(args.alpha)
    beta = _parse_ints(args.beta)
    value = drury_arveson_inner(alpha, beta)
    _emit(
        args,
        {
            "value": value,
            "numerator": value.numerator,
            "denominator": value.denominator,
            "is_zero": value == 0,
        },
    )
    return 0


def _add_output(sub) -> None:
    sub.add_argument("--output", help="write the result to this file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pickdisc",
        description="Kernel coefficient tools, Pick feasibility, and disc orbit encodings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("coeffs", help="convert between kernel and reciprocal coefficients")
    p.add_argument("--from-a", help="comma list of a coefficients (a_0 first)")
    p.add_argument("--from-b", help="comma list of b coefficients (b_1 first)")
    p.add_argument("--n", type=int, help="output length (required with --from-b)")
    p.add_argument("--exact", action="store_true", help="use exact rational arithmetic")
    _add_output(p)
    p.set_defaults(handler=_cmd_coeffs)

    p = subs.add_parser("admissible", help="check kernel-coefficient admissibility at a truncation")
    p.add_argument("--a", required=True, help="comma list of a coefficients")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--exact", action="store_true")
    _add_output(p)
    p.set_defaults(handler=_cmd_admissible)

    p = subs.add_parser("growth", help="componentwise ratio extremes of two coefficient lists")
    p.add_argument("--a", required=True)
    p.add_argument("--a-prime", required=True, dest="a_prime")
    p.add_argument("--n", type=int, default=None)
    _add_output(p)
    p.set_defaults(handler=_cmd_growth)

    p = subs.add_parser("pick", help="decide Pick-matrix feasibility for nodes and targets")
    p.add_argument("--nodes", required=True, help="semicolon list of nodes; coordinates comma separated")
    p.add_argument("--targets", required=True, help="semicolon list of target values")
    p.add_argument("--a", help="kernel a coefficients (comma list)")
    p.add_argument("--b", help="kernel b coefficients (comma list)")
    p.add_argument("--kernel", help="named kernel: ones (alias szego)")
    p.add_argument("--n-terms", type=int, default=256, dest="n_terms")
    p.add_argument("--dimension", type=int, default=0, help="ball dimension (default: inferred)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--kernel-tol", type=float, default=1e-10, dest="kernel_tol")
    _add_output(p)
    p.set_defaults(handler=_cmd_pick)

    p = subs.add_parser("kernel-eval", help="evaluate a kernel power series with a certified tail")
    p.add_argument("--u", required=True, help="evaluation point (complex)")
    p.add_argument("--a", help="kernel a coefficients")
    p.add_argument("--b", help="kernel b coefficients")
    p.add_argument("--kernel", help="named kernel: ones (alias szego)")
    p.add_argument("--n-terms", type=int, default=256, dest="n_terms")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_output(p)
    p.set_defaults(handler=_cmd_kernel_eval)

    p = subs.add_parser("orbit", help="breadth-first group orbit of a disc point")
    p.add_argument("--z", default="0", help="base point")
    p.add_argument("--L", "--max-length", type=int, required=True, dest="max_length")
    p.add_argument("--preset", default="GAMMA3", choices=sorted(PRESETS))
    p.add_argument("--store", type=int, default=10, help="number of levels to keep point data for")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    _add_output(p)
    p.set_defaults(handler=_cmd_orbit)

    p = subs.add_parser("blaschke", help="sphere-sum convergence diagnostics for an orbit")
    p.add_argument("--z", default="0")
    p.add_argument("--L", "--max-length", type=int, required=True, dest="max_length")
    p.add_argument("--preset", default="GAMMA3", choices=sorted(PRESETS))
    p.add_argument("--format", default="json", choices=("json", "csv"))
    _add_output(p)
    p.set_defaults(handler=_cmd_blaschke)

    p = subs.add_parser("separation", help="smallest orbit distance from a base point")
    p.add_argument("--z", default="0")
    p.add_argument("--L", "--max-length", type=int, default=8, dest="max_length")
    p.add_argument("--preset", default="GAMMA3", choices=sorted(PRESETS))
    _add_output(p)
    p.set_defaults(handler=_cmd_separation)

    p = subs.add_parser("encode-build", help="encode a word subset as a point configuration")
    p.add_argument("--subset", required=True, help="comma list of words (e for identity)")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--base", default="0")
    p.add_argument("--preset", default="GAMMA3", choices=sorted(PRESETS))
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--mask", action="store_true", help="omit labels from the export")
    _add_output(p)
    p.set_defaults(handler=_cmd_encode_build)

    p = subs.add_parser("encode-test", help="test two encoded subsets for translate equivalence")
    p.add_argument("--subset-a", required=True, dest="subset_a", help="comma list of words")
    p.add_argument("--subset-b", required=True, dest="subset_b", help="comma list of words")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--search-length", type=int, required=True, dest="search_length")
    p.add_argument("--mode", default="both", choices=("word", "geometric", "both"))
    p.add_argument("--base", default="0")
    p.add_argument("--preset", default="GAMMA3", choices=sorted(PRESETS))
    _add_output(p)
    p.set_defaults(handler=_cmd_encode_test)

    p = subs.add_parser("turbulence-step", help="one ratio-scaling step with minimal root exponent")
    p.add_argument("--s", required=True, help="current ratio list (comma separated, in (0,1))")
    p.add_argument("--t", required=True, help="target ratio list")
    p.add_argument("--n1", type=int, required=True, help="index up to which ratios are rescaled")
    p.add_argument("--eps", type=float, required=True, help="deviation budget for the step")
    p.add_argument("--n-max", type=int, default=2**20, dest="n_max")
    _add_output(p)
    p.set_defaults(handler=_cmd_turbulence_step)

    p = subs.add_parser("da-inner", help="exact monomial inner product in the d-shift space")
    p.add_argument("--alpha", required=True, help="comma list of exponents")
    p.add_argument("--beta", required=True, help="comma list of exponents")
    _add_output(p)
    p.set_defaults(handler=_cmd_da_inner)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, str) and name != "output":
                setattr(args, name, _load_arg(value))
        return args.handler(args)
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
