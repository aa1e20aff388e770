"""Set-up probe: one fresh process importing dtm2d and running the warm-up ops.

    python3 perfbench/probe.py <workload>

The clock starts before anything but the interpreter's own start-up has been
imported, so every module dtm2d and the workloads pull in is timed.  After
the clock stops, the probe checks the warm-up outputs and prints one JSON
line: ``{"setup_s": <seconds>, "ok": <bool>}``.
"""

from time import perf_counter

START = perf_counter()

import os  # noqa: E402  (already loaded by the interpreter's start-up)
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from workloads import WORKLOADS  # noqa: E402  (imports dtm2d)

workload = WORKLOADS[sys.argv[1]]
ops = workload.warmup()
outputs = [workload.run(op) for op in ops]
SETUP_S = perf_counter() - START

import json  # noqa: E402

ok = all(workload.check(op, out)[0] for op, out in zip(ops, outputs))
print(json.dumps({"setup_s": SETUP_S, "ok": ok}))
