"""Interpreter-speed calibration, interleaved with the timed work.

The virtual machines this benchmark runs on change speed under it: the same
pure-Python loop takes up to twice as long from one tenth of a second to the
next, and 10-30 % longer for minutes at a time, with no steal time and CPU
time equal to wall time.  A job's seconds therefore say as much about the
host as about galela.

So the worker times a fixed loop of interpreter work (loop()) every
INTERVAL_S of wall time while the job runs, from a SIGALRM handler, and the
benchmark rescales the job's own time (wall time minus the loops) by
REF_LOOP_S / mean loop time: seconds at a fixed reference speed.  The loop
runs between the job's bytecodes in the same process, so it sees the speed
the job sees at that moment.  Its three kinds of work (scalar, short-lived
objects, small matrices) each react to the host's slow phases a little
differently, as galela's modules do; their mix tracked every workload's job
time better than any one of them alone.

Set-up is rescaled the same way by a burst of loops run right after galela
is imported.
"""

import gc
import signal
import time

INTERVAL_S = 0.025  # wall time between two loops during a job
BURST = 8  # loops after import, and at the start of a job
REF_LOOP_S = 0.001  # reference speed: loop() in 1 ms (0.85-1.1 ms on the README's machine)

# Scratch tables that every loop() overwrites; their contents never matter.
# They outlive a call so that each call does the same work on tables already
# in place, as a job's lookups do.
_SLOTS = [0] * 256
_MAP = dict.fromkeys(range(256), 0)
_MATRIX = [[(i * 4 + j) % 5 for j in range(4)] for i in range(4)]
_MUL = {(a, b): a * b % 5 for a in range(5) for b in range(5)}


class _Acc:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, value):
        self.total = (self.total + value) & 0xFFFF


_ACC = _Acc()


def _mix(a, b):
    return (a * 31 + b) % 65521


def _scalar_part() -> int:
    """Calls, int arithmetic, list and dict stores, a method call."""
    slots, table, acc = _SLOTS, _MAP, _ACC
    s = 1
    for i in range(600):
        s = _mix(s, i)
        k = s & 255
        slots[k] = i
        table[k] = table.get(i & 255, 0) ^ s
        if slots[i & 255] > k:
            acc.add(s)
    return s


def _object_part() -> int:
    """Short-lived tuples, lists and dicts, built and dropped."""
    s = 0
    for i in range(150):
        t = tuple(range(i & 7, (i & 7) + 6))
        row = [x * 3 for x in t]
        s += sum(row) + len(t)
        d = {t[0]: row, t[1]: s}
        s ^= len(d)
    return s


def _matrix_part() -> int:
    """4 x 4 matrix products over a table-driven field, as linalg does them."""
    m, mul = _MATRIX, _MUL
    acc = 0
    for _ in range(12):
        out = [[0] * 4 for _ in range(4)]
        for i in range(4):
            row = m[i]
            for j in range(4):
                v = 0
                for k in range(4):
                    v = (v + mul[row[k], m[k][j]]) % 5
                out[i][j] = v
        acc ^= out[1][2]
    return acc


def loop() -> int:
    """A fixed amount of interpreter work, a third each of three kinds.

    The objects it builds die inside it, and the collector is off while it
    runs, so it never collects the job's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _scalar_part() ^ _object_part() ^ _matrix_part()
    finally:
        if collecting:
            gc.enable()


def burst(n: int = BURST) -> list[float]:
    """Time n loops back to back."""
    durations = []
    for _ in range(n):
        start = time.perf_counter()
        loop()
        durations.append(time.perf_counter() - start)
    return durations


class Sampler:
    """Runs LOOP every INTERVAL_S of wall time until stopped."""

    def __init__(self):
        self.durations = []
        self._old_handler = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        loop()
        self.durations.append(time.perf_counter() - start)

    def start(self):
        self.durations.extend(burst())
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)


def rescale(seconds: float, durations: list[float]) -> float:
    """seconds at the reference speed, given loop times measured alongside them."""
    return seconds * REF_LOOP_S / (sum(durations) / len(durations))
