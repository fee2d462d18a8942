"""Package-level checks: the public name list, the demo scripts, and that
every entry point refuses a NaN point with a plain membership error."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pickdisc
from pickdisc import encode, fuchsian, hypgeo, pick, seqkernel

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_public_names_are_the_union_of_the_layer_lists():
    layers = (seqkernel, pick, hypgeo, fuchsian, encode)
    union = ["__version__"] + [name for layer in layers for name in layer.__all__]
    assert pickdisc.__all__ == union
    assert len(set(union)) == len(union)
    for name in pickdisc.__all__:
        assert hasattr(pickdisc, name), name
    for layer in layers:
        for name in layer.__all__:
            assert getattr(pickdisc, name) is getattr(layer, name)


_LAZY_IMPORT = """
import sys
import pickdisc
assert "numpy" not in sys.modules and "pickdisc.encode" not in sys.modules
assert pickdisc.__version__ and not any(m.startswith("pickdisc.") for m in sys.modules)
assert pickdisc.rho(0, 0.5) == 0.5 and "numpy" in sys.modules
assert set(pickdisc.__all__) <= set(dir(pickdisc)) and "rho" in dir(pickdisc)
names = {}
exec("from pickdisc import *", names)
assert sorted(n for n in names if n != "__builtins__") == sorted(pickdisc.__all__)
assert pickdisc.encode.make_params is pickdisc.make_params
print("ok")
"""


def test_import_loads_no_layer_until_a_name_is_read():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT], capture_output=True, text=True, timeout=120, env=env
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_there_are_six_demos():
    assert [p.name for p in DEMOS] == [
        "coefficients_roundtrip.py",
        "disc_geometry.py",
        "orbit_contrast.py",
        "pick_feasibility.py",
        "subset_encoding.py",
        "turbulence_path.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


# Every point lives strictly inside the disc or the ball, and NaN fails every
# comparison; each entry point must refuse it with its own membership message
# before any arithmetic (a RuntimeWarning, a rigidity or certification error,
# or a quiet NaN result would each mean the check let it through).
_ONES = seqkernel.CoefficientSequence.ones(64)
_MEMBERSHIP = r"inside|< 1|<= 1"


def _configuration(z):
    params = encode.make_params(window=2)
    return encode.Configuration(points=[0.1, z], labels=(("e", 0), ("e", 1)), params=params)


_ENTRY_POINTS = {
    "rho": lambda z: hypgeo.rho(0.1, z),
    "phi_a-scalar": lambda z: hypgeo.phi_a(z, 0.1),
    "phi_a-vector": lambda z: hypgeo.phi_a([0.1, 0.2], [z, 0.0]),
    "as_ball_point": lambda z: hypgeo.as_ball_point([z, 0.0]),
    "moebius-source": lambda z: hypgeo.moebius_through_three_points((0.3, z, 0.2), (0.3, 0.1, 0.2)),
    "moebius-destination": lambda z: hypgeo.moebius_through_three_points(
        (0.3, 0.1, 0.2), (0.3, 0.1, z)
    ),
    "orbit_points": lambda z: fuchsian.orbit_points(z, 2),
    "separation_estimate": lambda z: fuchsian.separation_estimate(z, 2),
    "make_params": lambda z: encode.make_params(window=2, base=z),
    "Configuration": _configuration,
    "PickProblem-node": lambda z: pick.PickProblem(_ONES, 2, ((z, 0.0), (0.2, 0.1)), (0.0, 0.1)),
    "PickProblem-target": lambda z: pick.PickProblem(_ONES, 1, ((0.1,), (0.2,)), (0.0, z)),
    "gram_and_irreducibility": lambda z: pick.gram_and_irreducibility(_ONES, 1, (0.1, z)),
    "kernel_eval": lambda z: seqkernel.kernel_eval(_ONES, z),
}


@pytest.mark.parametrize("z", [math.nan, complex(0.1, math.nan)], ids=["nan", "nan-imag"])
@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_nan_points_are_refused_at_the_entry_point(name, z):
    with pytest.raises(ValueError, match=_MEMBERSHIP) as info:
        _ENTRY_POINTS[name](z)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_the_unit_circle_is_refused_and_one_ulp_inside_is_not(name):
    inside = math.nextafter(1.0, 0.0)
    if name == "PickProblem-target":  # targets may lie on the circle
        inside, outside = 1.0, math.nextafter(1.0, 2.0)
    else:
        outside = 1.0
    with pytest.raises(ValueError, match=_MEMBERSHIP):
        _ENTRY_POINTS[name](outside)
    try:
        _ENTRY_POINTS[name](inside)
    except ValueError as exc:  # refused later, for a reason other than membership
        assert not re.search(_MEMBERSHIP, str(exc)), exc
