"""Time what one `causalsim run` pays before its event loop starts.

Run in a fresh interpreter: ``python3 perfbench/setup_probe.py SCENARIO.json``.
It imports the CLI (and with it the whole library), loads the scenario file
and builds the simulation, then prints the elapsed seconds. Interpreter
start-up itself is not included.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import causalsim.cli  # noqa: E402,F401  (the import `causalsim run` pays)
from causalsim import scenarios  # noqa: E402

scenarios.build_simulation(scenarios.load_scenario(sys.argv[1]))
print(f"{time.perf_counter() - start!r}")
