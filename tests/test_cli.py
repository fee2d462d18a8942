"""Tests for the command line front end.

The entry point runs in-process so stdout/stderr can be captured
cheaply.  The subprocess check at the bottom runs the same command
three ways and requires the same exit code and stdout from each: the
``pickdisc`` entry point declared in ``pyproject.toml``, run through the
wrapper an installer writes for a console script; ``python -m
pickdisc``; and the installed ``pickdisc`` script, wherever one is on
``PATH``.  The suite thus also runs from the source tree with no
install (``PYTHONPATH=src``).  Exit convention
under test: 0 for success and positive verdicts, 1 for domain errors
and negative verdicts (one diagnostic line on stderr), 2 for usage
problems.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

from pickdisc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect=0):
    code, out, err = run_cli(capsys, *argv)
    assert code == expect, f"exit {code}, stderr: {err}"
    if code != 0:
        assert err.startswith("error:") or out, "errors must leave a diagnostic"
    return json.loads(out)


# ---------------------------------------------------------------------------
# coeffs / admissible / growth
# ---------------------------------------------------------------------------

def test_coeffs_from_b(capsys):
    payload = run_json(capsys, "coeffs", "--from-b", "1,0,0", "--n", "4")
    assert payload["a"] == [1.0, 1.0, 1.0, 1.0]
    assert payload["b"] == [1.0, 0.0, 0.0]
    assert payload["exact"] is False


def test_coeffs_from_a_matches_the_reciprocal_head(capsys):
    payload = run_json(capsys, "coeffs", "--from-a", "1,1,1,1")
    assert payload["b"] == [1.0, 0.0, 0.0]


def test_coeffs_exact_uses_fraction_strings(capsys):
    payload = run_json(
        capsys, "coeffs", "--from-a", "1,1/2,1/3,1/4", "--exact"
    )
    assert payload["a"] == ["1", "1/2", "1/3", "1/4"]
    assert payload["b"] == ["1/2", "1/12", "1/24"]


def test_coeffs_usage_errors(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--from-a", "1,1", "--from-b", "1")
    assert code == 2 and err.startswith("error:")
    code, _, _ = run_cli(capsys, "coeffs", "--from-b", "1,0")  # missing --n
    assert code == 2
    code, _, _ = run_cli(capsys, "coeffs")
    assert code == 2


def test_coeffs_domain_error_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--from-a", "0.5,1,1")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_admissible_verdict_drives_the_exit_code(capsys):
    good = run_json(capsys, "admissible", "--a", "1,1,1,1")
    assert good["verdict_at_truncation"] is True
    code, out, _ = run_cli(capsys, "admissible", "--a", "1,0.5,0.3")
    assert code == 1
    assert json.loads(out)["verdict_at_truncation"] is False


def test_growth_reports_the_ratio_spread(capsys):
    payload = run_json(capsys, "growth", "--a", "1,1,1", "--a-prime", "1,2,4")
    assert payload["min_ratio"] == 1.0
    assert payload["max_ratio"] == 4.0
    assert payload["ratio_spread"] == 4.0


def _refuse_constant(name):
    raise AssertionError(f"non-finite number {name} in the JSON output")


def test_growth_writes_non_finite_ratios_as_null(capsys):
    # both ratios overflow to inf, so their quotient is NaN
    code, out, _ = run_cli(capsys, "growth", "--a", "1e-300", "--a-prime", "1e300")
    assert code == 0
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert payload["max_ratio"] is None and payload["ratio_spread"] is None


def test_growth_rejects_a_malformed_number_list(capsys):
    code, out, err = run_cli(capsys, "growth", "--a", "1,x", "--a-prime", "1,2")
    assert code == 2
    assert not out
    assert err.startswith("error:") and "1,x" in err


# ---------------------------------------------------------------------------
# pick / kernel-eval
# ---------------------------------------------------------------------------

def test_pick_boundary_case_is_feasible(capsys):
    payload = run_json(
        capsys, "pick", "--kernel", "ones", "--nodes", "0;0.5", "--targets", "0;0.5"
    )
    assert payload["feasible"] is True
    assert abs(payload["min_eigenvalue"]) <= payload["tolerance"]


def test_pick_infeasible_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "pick", "--kernel", "ones", "--nodes", "0;0.5", "--targets", "0;0.7"
    )
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_pick_infers_the_ball_dimension(capsys):
    payload = run_json(
        capsys,
        "pick",
        "--kernel",
        "szego",
        "--nodes",
        "0,0;0.3,0.4",
        "--targets",
        "0;0.45",
    )
    assert payload["dimension"] == 2
    assert payload["feasible"] is True


def test_pick_requires_some_kernel(capsys):
    code, _, err = run_cli(capsys, "pick", "--nodes", "0", "--targets", "0")
    assert code == 2 and "kernel" in err


def test_pick_nan_tolerance_is_a_domain_error(capsys):
    # NaN used to fail the PSD comparison and report "feasible": false
    code, out, err = run_cli(
        capsys, "pick", "--kernel", "ones", "--nodes", "0;0.5", "--targets", "0;0.3",
        "--tol", "nan",
    )
    assert code == 1
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_kernel_eval_certified_value(capsys):
    payload = run_json(capsys, "kernel-eval", "--kernel", "szego", "--u", "0.5")
    assert payload["certified"] is True
    assert payload["value"][0] == pytest.approx(2.0, abs=1e-9)
    assert payload["value"][1] == 0.0
    assert payload["tail_bound"] <= 1e-10
    assert payload["terms_used"] <= 256


def test_kernel_eval_accepts_i_notation(capsys):
    # three stored terms only certify a loose tail bound here, so ask for one
    payload = run_json(
        capsys, "kernel-eval", "--a", "1,0.5,0.25", "--u", "0.3+0.1i", "--tol", "0.05"
    )
    value = complex(*payload["value"])
    expected = 1 + 0.5 * (0.3 + 0.1j) + 0.25 * (0.3 + 0.1j) ** 2
    assert payload["tail_bound"] <= 0.05
    assert value == pytest.approx(expected, abs=payload["tail_bound"])


def test_kernel_eval_uncertified_exits_one(capsys):
    code, out, err = run_cli(capsys, "kernel-eval", "--a", "1,1,1", "--u", "0.9")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert json.loads(out)["certified"] is False


# ---------------------------------------------------------------------------
# orbit / blaschke / separation
# ---------------------------------------------------------------------------

def test_orbit_json_counts(capsys):
    payload = run_json(capsys, "orbit", "--L", "3", "--z", "0.1+0.2i")
    assert payload["total_words"] == 53
    assert [lv["size"] for lv in payload["levels"]] == [1, 4, 12, 36]
    assert len(payload["ratios"]) == 3


def test_orbit_max_length_alias(capsys):
    a = run_json(capsys, "orbit", "--L", "2")
    b = run_json(capsys, "orbit", "--max-length", "2")
    assert a == b


def test_orbit_csv_respects_the_store_limit(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--L", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "word,length,re,im,one_minus_abs"
    assert len(lines) == 1 + 53
    code, out, _ = run_cli(
        capsys, "orbit", "--L", "3", "--format", "csv", "--store", "1"
    )
    assert len(out.strip().split("\n")) == 1 + 5


def test_blaschke_json_verdicts(capsys):
    gamma = run_json(capsys, "blaschke", "--L", "8")
    assert gamma["verdict"] == "converging"
    lam = run_json(capsys, "blaschke", "--L", "8", "--preset", "LAMBDA2")
    assert lam["verdict"] == "not converging"
    assert len(lam["partial_sums"]) == 9


def test_blaschke_csv_has_one_row_per_sphere(capsys):
    code, out, _ = run_cli(
        capsys, "blaschke", "--preset", "GAMMA3", "--L", "10", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "L,sphere_size,sigma_L,S_L,ratio"
    assert len(lines) == 1 + 10
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "4"


def test_separation_frozen_value(capsys):
    payload = run_json(capsys, "separation", "--L", "8")
    assert payload["separation"] == pytest.approx(0.8320502943378437, abs=1e-15)
    assert payload["preset"] == "GAMMA3"


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["orbit", "blaschke", "separation"])
def test_a_nan_base_point_is_a_domain_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--L", "2", "--z", "nan")
    assert code == 1
    assert not out
    assert err == "error: base point must lie strictly inside the disc\n"


def test_encode_build_json_counts(capsys):
    payload = run_json(capsys, "encode-build", "--subset", "e,a,bA")
    n_words = 2 * 3**4 - 1
    assert payload["n_points"] == 3 * n_words + 3
    assert payload["params"]["window"] == 4
    families = [pt["family"] for pt in payload["points"]]
    assert families.count(3) == 3


def test_encode_build_csv_masking(capsys):
    code, out, _ = run_cli(
        capsys, "encode-build", "--subset", "e", "--window", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,word,family"
    assert len(lines) == 1 + 3 * 17 + 1
    assert any(line.endswith(",e,3") for line in lines[1:])
    code, masked, _ = run_cli(
        capsys,
        "encode-build", "--subset", "e", "--window", "2", "--format", "csv", "--mask",
    )
    masked_lines = masked.strip().split("\n")
    assert all(line.endswith(",,") for line in masked_lines[1:])
    # masking hides provenance but not geometry
    assert [l.split(",")[:2] for l in masked_lines[1:]] == [
        l.split(",")[:2] for l in lines[1:]
    ]


def test_encode_test_translate_pair(capsys):
    payload = run_json(
        capsys,
        "encode-test",
        "--subset-a", "e,a",
        "--subset-b", "b,ba",
        "--search-length", "2",
    )
    assert payload["agree"] is True
    assert payload["word_search"]["witness_word"] == "b"
    assert payload["geometric"]["witness_word"] == "b"


def test_encode_test_negative_verdict_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "encode-test",
        "--subset-a", "e,a",
        "--subset-b", "a,A",
        "--search-length", "2",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["word_search"]["equivalent"] is False


def test_encode_test_word_mode_only(capsys):
    payload = run_json(
        capsys,
        "encode-test",
        "--subset-a", "e",
        "--subset-b", "a",
        "--search-length", "1",
        "--mode", "word",
    )
    assert "geometric" not in payload
    assert payload["word_search"]["equivalent"] is True


def test_encode_words_must_parse(capsys):
    code, _, err = run_cli(capsys, "encode-build", "--subset", "e,ax")
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# turbulence-step / da-inner
# ---------------------------------------------------------------------------

def test_turbulence_step_feasible(capsys):
    payload = run_json(
        capsys,
        "turbulence-step",
        "--s", "0.5,0.5,0.5,0.5,0.5,0.5",
        "--t", "0.6,0.6,0.6",
        "--n1", "2",
        "--eps", "0.1",
    )
    assert payload["feasible"] is True
    assert payload["root_exponent"] >= 1
    assert len(payload["g"]) == 6
    assert payload["g"][0] == pytest.approx(1.2 ** (1.0 / payload["root_exponent"]))
    assert payload["g"][4:] == [1.0, 1.0]


def test_turbulence_step_infeasible_exits_one(capsys):
    code, out, err = run_cli(
        capsys,
        "turbulence-step",
        "--s", "0.5,0.5,0.5,0.9",
        "--t", "0.125,0.125,0.125",
        "--n1", "2",
        "--eps", "0.1",
    )
    assert code == 1
    assert err.startswith("error:")
    assert json.loads(out)["feasible"] is False


def test_da_inner_orthogonal_monomials(capsys):
    payload = run_json(capsys, "da-inner", "--alpha", "1,0", "--beta", "0,1")
    assert payload["is_zero"] is True
    assert payload["value"] == "0"
    diag = run_json(capsys, "da-inner", "--alpha", "1,1", "--beta", "1,1")
    assert diag["value"] == "1/2"
    assert diag["numerator"] == 1 and diag["denominator"] == 2


# ---------------------------------------------------------------------------
# plumbing: files, output, determinism, argparse behavior
# ---------------------------------------------------------------------------

def test_at_file_arguments(capsys, tmp_path):
    path = tmp_path / "coeffs.txt"
    path.write_text("1,1,1,1\n")
    from_file = run_json(capsys, "admissible", "--a", f"@{path}")
    inline = run_json(capsys, "admissible", "--a", "1,1,1,1")
    assert from_file == inline
    code, _, err = run_cli(capsys, "admissible", "--a", f"@{tmp_path}/missing.txt")
    assert code == 2 and err.startswith("error:")


def test_at_file_text_is_not_expanded_again(capsys, tmp_path):
    (tmp_path / "inner.txt").write_text("e,b\n")
    (tmp_path / "outer.txt").write_text(f"@{tmp_path}/inner.txt\n")
    code, _, err = run_cli(capsys, "encode-build", "--subset", f"@{tmp_path}/outer.txt")
    assert code == 2 and err.startswith("error: cannot parse word list")
    # a ';'-token inside a value names no file either
    (tmp_path / "f").write_text("0.5")
    code, _, err = run_cli(
        capsys, "pick", "--kernel", "ones", "--nodes", "0;0.5", "--targets", f"0;@{tmp_path}/f"
    )
    assert code == 2 and err.startswith("error: cannot parse complex number")


def test_at_file_works_for_every_value_argument(capsys, tmp_path):
    for name, text in [("L", "3"), ("preset", "LAMBDA2"), ("tol", "0.05"), ("z", "-0.3+0.1i")]:
        (tmp_path / name).write_text(text + "\n")
    # typed and choice values are read before argparse converts them
    assert run_json(capsys, "orbit", "--L", f"@{tmp_path}/L") == run_json(
        capsys, "orbit", "--L", "3"
    )
    assert run_json(capsys, "blaschke", "--L", "4", f"--preset=@{tmp_path}/preset") == run_json(
        capsys, "blaschke", "--L", "4", "--preset", "LAMBDA2"
    )
    eval_args = ("kernel-eval", "--a", "1,0.5,0.25", "--u", "0.3+0.1i", "--tol")
    assert run_json(capsys, *eval_args, f"@{tmp_path}/tol") == run_json(capsys, *eval_args, "0.05")
    # text starting with '-' is still the option's value
    assert run_json(capsys, "separation", "--L", "2", "--z", f"@{tmp_path}/z") == run_json(
        capsys, "separation", "--L", "2", "--z=-0.3+0.1i"
    )


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (("separation", "--L", "2"), "--z", "-0.3+0.1i"),
        (("orbit", "--L", "2"), "--z", "-.3-0.1i"),
        (("kernel-eval", "--kernel", "ones"), "--u", "-0.25+0.25i"),
        (("encode-build", "--subset", "e,a", "--window", "2"), "--base", "-0.1+0.05i"),
        (("pick", "--kernel", "ones", "--targets", "0;0.2"), "--nodes", "-0.1+0.2i;0.3"),
        (("pick", "--kernel", "ones", "--nodes", "0;0.5"), "--targets", "-0.1;0.2"),
    ],
)
def test_a_negative_value_may_follow_its_flag(capsys, command, flag, value):
    # argparse alone reads '-0.3+0.1i' as an option and exits 2
    spaced = run_cli(capsys, *command, flag, value)
    joined = run_cli(capsys, *command, f"{flag}={value}")
    assert spaced == joined and spaced[0] == 0 and spaced[1]


def test_output_is_a_file_name_not_an_at_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, stdout, _ = run_cli(capsys, "separation", "--L", "2")
    for flag in (["--output", "@x"], ["--out", "@y"], ["--output=@z"]):
        code, out, _ = run_cli(capsys, "separation", "--L", "2", *flag)
        assert code == 0 and not out
    for name in ("@x", "@y", "@z"):
        assert (tmp_path / name).read_text() == stdout


def test_output_flag_writes_the_same_bytes(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, _, _ = run_cli(
        capsys, "separation", "--L", "2", "--output", str(out_path)
    )
    assert code == 0
    _, stdout, _ = run_cli(capsys, "separation", "--L", "2")
    assert out_path.read_text() == stdout


def test_repeated_runs_are_byte_identical(capsys):
    battery = [
        ("coeffs", "--from-a", "1,0.5,0.25,0.125"),
        ("blaschke", "--L", "6", "--format", "csv"),
        ("encode-build", "--subset", "e,b", "--window", "3", "--format", "csv"),
    ]
    for argv in battery:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second and first


def test_argparse_usage_failures(capsys):
    with pytest.raises(SystemExit) as info:
        main(["orbit"])  # --L is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["orbit", "--L", "2", "--preset", "NO_SUCH_PRESET"])
    assert info.value.code == 2
    pick = ["pick", "--nodes", "0", "--targets", "0"]
    for kernel in (["--kernel", "bergman"], ["--a", "1,1", "--kernel", "ones"]):
        with pytest.raises(SystemExit) as info:
            main(pick + kernel)  # an unknown name, or two kernel sources
        assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name in ("coeffs", "pick", "blaschke", "encode-test", "turbulence-step"):
        assert name in out


COMMANDS = [
    "coeffs", "admissible", "growth", "pick", "kernel-eval", "orbit", "blaschke",
    "separation", "encode-build", "encode-test", "turbulence-step", "da-inner",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_help_and_output(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--output" in out
    takes_preset = command in ("orbit", "blaschke", "separation", "encode-build", "encode-test")
    assert ("--preset" in out) is takes_preset


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SCRIPT_ARGS = ["coeffs", "--from-b", "1,0", "--n", "3"]

# The launcher pip writes for a ``[project.scripts]`` entry: import the
# callable, strip a Windows suffix from argv[0], call it with no
# arguments and exit with what it returns.
CONSOLE_SCRIPT = """\
import re
import sys
from {module} import {head}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def console_script_source(name):
    toml = tomllib or pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = toml.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"{name} is not declared in [project.scripts]"
    module, _, attr = scripts[name].partition(":")
    assert module and attr, f"malformed entry point {scripts[name]!r}"
    return CONSOLE_SCRIPT.format(module=module, head=attr.split(".")[0], attr=attr)


def run_command(argv):
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def test_installed_script_and_module_hook():
    entry = run_command(
        [sys.executable, "-c", console_script_source("pickdisc"), *SCRIPT_ARGS]
    )
    assert entry.returncode == 0, entry.stderr
    assert json.loads(entry.stdout)["a"] == [1.0, 1.0, 1.0]
    module = run_command([sys.executable, "-m", "pickdisc", *SCRIPT_ARGS])
    assert module.returncode == 0, module.stderr
    assert module.stdout == entry.stdout
    installed = shutil.which("pickdisc")
    if installed is not None:
        script = run_command([installed, *SCRIPT_ARGS])
        assert script.returncode == entry.returncode, script.stderr
        assert script.stdout == entry.stdout
