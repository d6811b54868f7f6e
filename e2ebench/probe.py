"""The host probe: a calibration kernel sampled beside the measurement.

This host's speed drifts by up to 2x over seconds to minutes, and
neither CPU time (it equals wall here) nor a kernel timed before and
after a measurement follows it.  What does follow it is a probe that runs
*during* the measurement on the same CPU: ``run.py`` pins itself, every
process it starts and this probe to one CPU, and the probe times a ~1 ms
kernel every 25 ms.  It alternates two kernels with no program code in
them, the two kinds of work the program does: a Python loop
(interpreter dispatch, dict stores) and NumPy integer mixing over a 4 MiB
array (memory traffic).  Host contention slows them by different amounts,
and the program sits in between, so ``k`` is the geometric mean of the
two kernels' median times over the samples taken during a measured
interval (widened to at least :data:`MIN_SAMPLES` of each for short
intervals).  The interval's host-normalised time is its wall time ×
``k_ref / k``.  The probe takes about 4 % of the CPU, the same share on
every commit.

Run as a script it samples until SIGTERM, then writes its samples
(``kernel start seconds`` per line) to ``--out``.
"""

from __future__ import annotations

import argparse
import bisect
import os
import signal
import statistics
import sys
import time
from typing import List, Sequence, Tuple

import numpy as np

_LOOP = 5_000
_MEMORY = np.arange(1 << 19, dtype=np.uint64)
PERIOD_S = 0.025
#: Fewest samples of each kernel a normalisation rests on.
MIN_SAMPLES = 25


def loop_kernel() -> int:
    acc = 0
    table = {}
    for i in range(_LOOP):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return acc ^ len(table)


def memory_kernel() -> int:
    x = _MEMORY ^ (_MEMORY >> np.uint64(13))
    x *= np.uint64(0x9E3779B97F4A7C15)
    return int(x[::4099].sum() & np.uint64(0xFFFF))


KERNELS = {"loop": loop_kernel, "memory": memory_kernel}


class Series:
    """One kernel's samples ``(start, seconds)`` sorted by start."""

    def __init__(self, samples: Sequence[Tuple[float, float]]) -> None:
        self.samples = sorted(samples)
        self.starts = [s for s, _ in self.samples]

    def during(self, start: float, end: float) -> float:
        """Median time of the samples taken in ``[start, end]``, widened
        on both sides until there are :data:`MIN_SAMPLES`."""
        if len(self.samples) < MIN_SAMPLES:
            raise ValueError("too few probe samples")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES:
            if lo > 0:
                lo -= 1
            if hi < len(self.samples) and hi - lo < MIN_SAMPLES:
                hi += 1
        return statistics.median(d for _, d in self.samples[lo:hi])


class Timeline:
    """The probe's samples, one :class:`Series` per kernel."""

    def __init__(self, samples: Sequence[Tuple[str, float, float]]) -> None:
        self.series = {name: Series([(s, d) for n, s, d in samples
                                     if n == name]) for name in KERNELS}

    @classmethod
    def load(cls, path: str) -> "Timeline":
        samples = []
        with open(path) as handle:
            for line in handle:
                name, start, seconds = line.split()
                samples.append((name, float(start), float(seconds)))
        return cls(samples)

    def __len__(self) -> int:
        return sum(len(s.samples) for s in self.series.values())

    def during(self, start: float, end: float) -> float:
        """``k`` of an interval: geometric mean of the kernels' medians."""
        k = 1.0
        for series in self.series.values():
            k *= series.during(start, end)
        return k ** (1.0 / len(self.series))

    def median(self) -> float:
        """The run's ``k_run``: ``k`` over every sample."""
        return self.during(float("-inf"), float("inf"))


def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    pin(args.cpu)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    order = list(KERNELS.items())
    for _, kernel in order:
        kernel()
    samples = []
    print("READY", flush=True)
    while not stop:
        name, kernel = order[len(samples) % len(order)]
        start = time.perf_counter()
        kernel()
        samples.append((name, start, time.perf_counter() - start))
        time.sleep(max(0.0, PERIOD_S - (time.perf_counter() - start)))
    with open(args.out, "w") as handle:
        handle.writelines(f"{n} {s!r} {d!r}\n" for n, s, d in samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
