"""Set-up probe: import bdli and build one scenario's system, then exit.

Run in a fresh interpreter as ``python3 perfbench/probe.py CONFIG``; the
parent times the whole process.  Prints one JSON object with the import
time and the time to build the Scenario, system and initial state.
"""

import json
import sys
import time

t0 = time.perf_counter()
import bdli  # noqa: E402
import bdli.cli  # noqa: E402,F401

t1 = time.perf_counter()
scn = bdli.load_config(sys.argv[1])
scn.system()
scn.initial_state()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
