"""Machine-speed calibration: fixed pieces of work that share no code with geopack.

On a shared host the speed of a core changes by up to 1.7x within a minute,
with what other tenants run beside it; one run can sit entirely in a slow
stretch.  The benchmark times a calibration on the same core between solves
and reports each solve's time scaled to the reference machine:
``seconds * speed``, where ``speed`` is the calibration's reference time
over its time now (below 1 on a slow core).

Two calibrations, each matched to the work it scales:

- ``loop_speed``: a pure-Python loop of wide-integer bit operations and dict
  updates (the kinds of work geopack's solvers do, none of their code), for
  solves inside the benchmark's process.  Over 150 s of alternating loops
  and solves of six ``random`` inputs, raw solve times moved by 1.55x
  between 15 s windows and scaled ones by 6 % (8 % with a loop of plain
  integer arithmetic).
- ``start_speed``: one bare interpreter start (``python -c pass``), for
  ``python -m geopack`` children.  Process start-up is bound by the kernel
  and memory more than by the interpreter loop: over 90 s, a CLI call moved
  by 6 % against the loop but by 1.2 % against a bare start.

The reference times are the calibrations' times on an undisturbed core of
the reference machine (see README.md).  They are fixed: changing one
rescales every time metric it calibrates.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

LOOP_REFERENCE_S = 0.002
LOOP_REPEATS = 2
START_REFERENCE_S = 0.050

_KEYS = random.Random(0).sample(range(50_000), 6000)


def _loop() -> int:
    masks = [(1 << (i % 200)) | (1 << (i * 7 % 200)) for i in range(3000)]
    acc = 0
    for m in masks:
        acc |= m
        acc &= ~(m >> 3)
    counts: dict[int, int] = {}
    for k in _KEYS:
        counts[k] = counts.get(k ^ 1, 0) + 1
    return acc ^ len(counts)


def loop_speed() -> float:
    """``LOOP_REFERENCE_S`` over the fastest of ``LOOP_REPEATS`` runs of the loop."""
    best = float("inf")
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return LOOP_REFERENCE_S / best


def start_speed(env: dict) -> float:
    """``START_REFERENCE_S`` over the wall time of one ``python -c pass`` with ``env``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return START_REFERENCE_S / (time.perf_counter() - t0)


def pin_to_one_core() -> None:
    """Keep this process, and every child it starts, on one core of those allowed.

    The calibration then measures the core the solves, set-ups and CLI
    children run on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
