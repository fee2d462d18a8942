"""Package-level checks: the public name list and the demo scripts."""

import os
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
