"""Run the suite from the source tree, in this process and in child processes.

``pythonpath = ["src"]`` in ``pyproject.toml`` puts the sources on this
interpreter's path.  Tests that start a fresh interpreter (the CLI
battery, the console-script check) read ``PYTHONPATH`` instead, so the
same directory goes at its front.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + paths)
