"""Run the suite from the source tree, in this process and in child processes.

``pythonpath = ["src"]`` in ``pyproject.toml`` puts the sources on this
interpreter's path.  Tests that start a fresh interpreter (the demos, the
CLI battery, the console-script check) read ``PYTHONPATH`` instead, so the
same directory goes at its front.  The ``error::RuntimeWarning`` filter of
``pyproject.toml`` reaches them through ``PYTHONWARNINGS``, where it is
added last so that it takes precedence.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
WARNING_FILTER = "error::RuntimeWarning"


def pytest_configure(config):
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + paths)
    filters = [f for f in os.environ.get("PYTHONWARNINGS", "").split(",") if f]
    if filters[-1:] != [WARNING_FILTER]:
        os.environ["PYTHONWARNINGS"] = ",".join(filters + [WARNING_FILTER])
