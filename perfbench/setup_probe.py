"""Time one fresh-process set-up: ``import geopack`` plus building a workload's graphs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints the set-up's wall seconds and the calibrated speed around it.
"""

import sys
import time
from pathlib import Path

import calibrate

before = calibrate.loop_speed()
started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import geopack  # noqa: E402,F401
import corpus  # noqa: E402

corpus.build(sys.argv[1], int(sys.argv[2]))
wall = time.perf_counter() - started
print(repr(wall), repr((before + calibrate.loop_speed()) / 2))
