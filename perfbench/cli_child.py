"""Run one pickdisc CLI command in this process and report where its time went.

    python3 perfbench/cli_child.py <pickdisc arguments...>

The command writes to stdout and stderr as it would under
``python -m pickdisc``.  One last stderr line, ``perfbench-timing {json}``,
holds monotonic timestamps in ns: ``start`` once the interpreter runs
this file, ``imported`` after ``import pickdisc.cli``, ``done`` after
``main`` returned and stdout was flushed.
"""

import sys
import time

start = time.monotonic_ns()
from pickdisc.cli import main  # noqa: E402  (its import time is measured)

imported = time.monotonic_ns()
code = main(sys.argv[1:])
sys.stdout.flush()
done = time.monotonic_ns()

import json  # noqa: E402

print("perfbench-timing " + json.dumps({"start": start, "imported": imported, "done": done}), file=sys.stderr)
sys.exit(code)
