"""Host-speed calibration: fixed loops timed between the benchmark's units of work.

The host shares its cores with other machines, and its speed moves by
up to 2x for seconds to minutes at a time (see README.md, Noise).  A
workload's times are therefore scaled by how fast the host ran while
they were measured, judged by a calibration loop that never changes.
Each unit of work has its own scale, from the samples taken during it
and right after it:

    scaled time = measured time * reference / median(the unit's calibration samples)

The reference is the loop's usual median time on the host described in
README.md, Noise, so scaled figures read as seconds on that host at its
usual speed.  The loops use no prismcode code, so a change to the package
moves the measured times and leaves the calibration where it was.

There are two loops, because the host's slow and fast spells move
different kinds of work by different amounts: "search" for branch and
bound over bitmask constraints, "stream" for a stream of small calls
whose objects partly spill out of a core's L2 cache.
Set-up time, which neither follows, is scaled by the time a fresh
interpreter takes to start and import numpy (startup_probe).
"""

from __future__ import annotations

import functools
import random
import statistics
import subprocess
import sys
import time
from array import array

# A 4 MiB table, twice a core's L2 on the reference host, so most steps of the chase miss L2.
CHASE_BITS = 20


@functools.cache
def chase_table() -> array:
    """Successor of each index on one cycle through all 2**CHASE_BITS indices (a full-period LCG)."""
    mask = (1 << CHASE_BITS) - 1
    return array("I", ((i * 0x9E3779B5 + 0x7F4A7C15) & mask for i in range(1 << CHASE_BITS)))


def chase(steps: int) -> int:
    """Follow the table's cycle: interpreted steps, each a load that depends on the one before."""
    table, i = chase_table(), 0
    for _ in range(steps):
        i = table[i]
    return i


def interpret(steps: int) -> int:
    """Interpreted integer, bit and set work on data that stays in L1."""
    x, acc, seen = 0x9E3779B9, 0, set()
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        m = x & (x >> 3) | (x >> 11)
        acc += m.bit_count()
        if m & 0xFF in seen:
            acc ^= i
        else:
            seen.add(m & 0xFF)
    return acc


def stream_loop() -> int:
    """Half the time interpreted work in L1, half a chase through the table, like a stream of small calls."""
    return interpret(20_000) ^ chase(75_000)


# Fixed 34-bit words, about as many as the constraints of the n = 17 prism.
SEARCH_WORDS = [random.Random(i).getrandbits(34) for i in range(700)]


def search_loop() -> int:
    """Filter a list of bitmask words on each bit and take the narrowest, like one search step."""
    total = 0
    for _ in range(9):
        for v in range(34):
            bit = 1 << v
            rest = [u for u in SEARCH_WORDS if not u & bit]
            width = 99
            for u in rest[:120]:
                w = (u & 0x3FFFF).bit_count()
                if w < width:
                    width = w
            total += len(rest) + width
    return total


# name: (loop, its median time in seconds on the reference host)
LOOPS = {
    "search": (search_loop, 0.022),
    "stream": (stream_loop, 0.025),
}

SHARE = 0.1  # calibration time kept at about this share of the timed work

STARTUP_REFERENCE_S = 0.19  # startup_probe's usual time on the reference host


def startup_probe(cwd, timeout: float) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits, in seconds."""
    begin = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, capture_output=True,
                   timeout=timeout, check=True)
    return time.perf_counter() - begin


class HostSpeed:
    """Samples one calibration loop and turns each unit's measured times into scaled ones."""

    def __init__(self, kind: str):
        self.loop, self.reference_s = LOOPS[kind]
        self.loop()  # builds the loop's table, if any, and warms it up; not a sample
        self.samples: list[float] = []
        self.unit_ends: list[int] = []  # len(samples) at the end of each unit of work
        self.total_s = 0.0

    def sample(self) -> None:
        begin = time.perf_counter()
        self.loop()
        elapsed = time.perf_counter() - begin
        self.samples.append(elapsed)
        self.total_s += elapsed

    def keep_up(self, work_s: float) -> None:
        """Sample until calibration time reaches SHARE of `work_s` seconds of timed work."""
        while self.total_s < SHARE * work_s:
            self.sample()

    def end_unit(self) -> None:
        """Close the current unit's samples, taking one if the unit has none."""
        if len(self.samples) == (self.unit_ends[-1] if self.unit_ends else 0):
            self.sample()
        self.unit_ends.append(len(self.samples))

    def unit_scales(self) -> list[float]:
        """Per unit, the factor from measured to scaled seconds: reference over the unit's median sample."""
        starts = [0] + self.unit_ends[:-1]
        return [self.reference_s / statistics.median(self.samples[a:b]) for a, b in zip(starts, self.unit_ends)]
