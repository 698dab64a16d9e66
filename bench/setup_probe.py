"""One set-up measurement in a fresh interpreter, for the ``setup_s`` metric.

Times, from before ``import pcosync``: the import, ``parse_scenario`` of the
workload's scenario and the first ``build_simulation``. Prints the elapsed
seconds.

    python3 bench/setup_probe.py ROOT SCENARIO_JSON
"""

import sys
import time

t0 = time.perf_counter()
root, scenario_json = sys.argv[1], sys.argv[2]
sys.path.insert(0, f"{root}/src")

import json  # noqa: E402

import pcosync  # noqa: E402,F401
from pcosync.scenario import build_simulation, parse_scenario  # noqa: E402

build_simulation(parse_scenario(json.loads(scenario_json)))
print(time.perf_counter() - t0)
