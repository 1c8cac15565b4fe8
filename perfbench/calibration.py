"""Fixed work that measures how fast the machine runs right now.

``loop_us`` is a pure-Python loop with the shape of hyperq's scalar code
(seeded draws, frozen dataclasses, float math, a list of results);
``startup_s`` starts a child Python that imports standard-library modules,
the shape of a set-up.  Neither touches hyperq, so a change to the program
cannot move them.  Imports only the standard library, so it can run before
``import hyperq``.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass

#: us the loop takes at the reference speed: about its median on the
#: machine the baseline in DESIGN.md was measured on.
NOMINAL_US = 750.0


@dataclass(frozen=True)
class _Pair:
    """A split-complex-like value; not hyperq's."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("components must be finite")

    def __add__(self, o):
        return _Pair(self.x + o.x, self.y + o.y)

    def __mul__(self, o):
        return _Pair(self.x * o.x + self.y * o.y, self.x * o.y + o.x * self.y)


def loop_us():
    """Median time in us of three runs of the loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        rng, z, acc = random.Random(1), _Pair(1.0, 0.5), _Pair(0.0, 0.0)
        terms = [z * _Pair(rng.uniform(-3.0, 3.0), math.sinh(i * 1e-3)) for i in range(150)]
        for term in terms:
            acc = acc + term
        times.append((time.perf_counter_ns() - start) / 1e3)
    return sorted(times)[1]


#: Pure-Python and C-extension modules, as ``import hyperq`` loads both.
IMPORTS = ("decimal, fractions, json, csv, email.parser, xml.dom.minidom, http.client, "
           "argparse, unittest, logging, tarfile, zipfile, inspect, difflib")
#: s ``startup_s`` takes at the reference speed (as NOMINAL_US).
STARTUP_NOMINAL_S = 0.17


def startup_s():
    """Wall time in s of a child Python that starts and imports IMPORTS.

    A set-up is mostly imports: file reads, unmarshalling, loading shared
    objects.  Their speed drifts with the machine's memory and disk as well
    as its CPU, which this child follows and ``loop_us`` does not.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", f"import {IMPORTS}"],
                   check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start
