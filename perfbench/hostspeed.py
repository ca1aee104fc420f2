"""How fast the host ran while a measurement ran.

On a shared VM the host switches between a fast and a slow state (about
1.6x apart) within seconds, and CPU time moves with it: it is not steal
time.  :class:`HostSpeed` starts this file as a separate process that,
every :data:`PERIOD` seconds, times a fixed pure-Python loop in its own
CPU time, on each CPU in turn, until its stdin closes; it then prints
its samples.  :meth:`HostSpeed.factor` is the mean loop time over a
window divided by :data:`NOMINAL`: how many times slower than nominal
the host ran then.  The probe never runs program code, so a change to
the program does not move it; at about 2 % of one CPU it barely
disturbs the program.

Run as a process, it samples until its stdin reaches end of file:
``python3 perfbench/hostspeed.py``.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

#: Seconds between two samples.
PERIOD = 0.05
#: CPU seconds the loop takes on this benchmark's reference host (a
#: 2-vCPU Xeon VM at 2.1 GHz, Python 3.11) when it runs fast.
NOMINAL = 1.1e-3
#: Samples this close outside a window still count for it, so a short
#: window (a set-up) has some.
MARGIN = 0.1


def loop() -> None:
    """The fixed work: interpreter arithmetic and small-dict stores."""
    x = 0
    table = {}
    for i in range(12_000):
        x += i * i
        table[i & 255] = x


def sample_until_stdin_closes() -> list[tuple[float, float]]:
    """``(perf_counter at start, CPU seconds)`` of each loop run."""
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        try:
            os.sched_setaffinity(0, {cpus[len(samples) % len(cpus)]})
        except OSError:
            pass
        start = time.perf_counter()
        cpu = time.thread_time()
        loop()
        samples.append((start, time.thread_time() - cpu))
    return samples


class HostSpeed:
    """The probe process, from start to :meth:`stop`."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def stop(self) -> None:
        """End the probe and keep its samples."""
        if self._proc.returncode is None:
            out, _ = self._proc.communicate(timeout=30)
            self.samples = [tuple(s) for s in json.loads(out or "[]")]

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.stop()
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()

    def factor(self, start: float, end: float) -> float:
        return window_factor(self.samples, start, end)


def window_factor(samples, start: float, end: float) -> float:
    """How many times slower than nominal ``samples`` ran over
    ``[start, end]``, widened by :data:`MARGIN` on each side."""
    inside = [cpu for at, cpu in samples
              if start - MARGIN <= at <= end + MARGIN]
    if not inside:
        raise ValueError("no host-speed samples in the window")
    return sum(inside) / len(inside) / NOMINAL


if __name__ == "__main__":
    print(json.dumps(sample_until_stdin_closes()))
