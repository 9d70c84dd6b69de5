"""Time a stretch of work at a reference speed, so that a shared host's
changing speed does not move the result.

On a host shared with other tenants the same code runs up to 2x slower for
stretches of seconds to minutes, and how much slower depends on what the
neighbours do.  A `Sampler` therefore runs a fixed calibration kernel every
`INTERVAL_S` of wall time while the work runs (from a SIGALRM handler, in
the work's own thread) and records how long each kernel call took.  The
work's time, with the kernel calls subtracted, is then rescaled by
`KERNEL_REF_S` over the median kernel time of the same stretch:

    reference_s = (busy_s - kernel_s) * KERNEL_REF_S / median(kernel samples)

That is the time the work would take at the speed at which one kernel call
takes `KERNEL_REF_S`.  All times are CPU time of the calling thread, so time
the thread spends descheduled is not counted either.

The kernel does the kinds of work the rsmt simulators do, in pure Python
and independent of the rsmt package: SHA-256 seeded `random.Random` streams,
GF(2^8) and GF(2^16) arithmetic through log/exp tables, small-object
bookkeeping in dicts and lists, and `Fraction` sums.
"""

from __future__ import annotations

import hashlib
import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
# Nominal time of one kernel call: about its median when sampled inside the
# workloads on a 2-vCPU Xeon VM (the work between calls evicts the kernel's
# tables from cache), so reference times come out close to that host's wall
# times.
KERNEL_REF_S = 2e-3
MIN_SAMPLES = 5

clock = time.thread_time


def _gf_tables(m: int, poly: int) -> tuple[list[int], list[int]]:
    q = 1 << m
    exp, log = [0] * (2 * q), [0] * q
    x = 1
    for i in range(q - 1):
        exp[i], log[x] = x, i
        x <<= 1
        if x & q:
            x ^= poly
    for i in range(q - 1, 2 * q):
        exp[i] = exp[i - (q - 1)]
    return exp, log


class _Gf:
    __slots__ = ("exp", "log", "coeffs")

    def __init__(self, m: int, poly: int):
        self.exp, self.log = _gf_tables(m, poly)
        self.coeffs = [((i * 40503) & ((1 << m) - 1)) | 1 for i in range(16)]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]


class _Msg:
    __slots__ = ("channel", "index", "payload")

    def __init__(self, channel: int, index: int, payload: int):
        self.channel, self.index, self.payload = channel, index, payload


# The simulators use small fields and GF(2^16), whose tables do not fit in
# the caches the same way; the kernel uses one of each.
_FIELDS = (_Gf(8, 0x11D), _Gf(16, 0x1100B))
_ROUNDS = 7


def kernel() -> int:
    """Fixed pure-Python work: about 1.5 ms on a 2-vCPU Xeon VM with warm caches."""
    acc = 0
    for r in range(_ROUNDS):
        for i in range(10):
            digest = hashlib.sha256(f"{r}:{i}:party".encode()).digest()
            rng = random.Random(int.from_bytes(digest, "big"))
            acc ^= rng.getrandbits(16) ^ rng.randrange(1 << 16)
        for gf in _FIELDS:
            for x in range(1 + r, 7 + r):
                y = 0
                for c in gf.coeffs:
                    y = gf.mul(y, x) ^ c
                acc ^= y
        book: dict[int, list[_Msg]] = {}
        for i in range(60):
            msg = _Msg(i & 7, i, acc & 255)
            book.setdefault(msg.channel, []).append(msg)
        acc ^= sum(m.payload for msgs in book.values() for m in msgs) & 0xFF
        total = Fraction(0)
        for i in range(1, 6):
            total += Fraction(1, i + r)
        acc ^= total.numerator & 0xFF
    return acc


class Sampler:
    """Context manager: times the enclosed work and samples the host's speed.

    After the block, `busy_s` is the thread's CPU time in the block without
    the kernel calls, `samples` the kernel times, and `reference_s` the
    rescaled time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = clock()
        kernel()
        self.samples.append(clock() - start)

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = clock()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        # Read after the timer stops, so a tick still pending lies inside.
        self.busy_s = clock() - self._start - sum(self.samples)
        # Work shorter than a few intervals: sample right after it.
        while len(self.samples) < MIN_SAMPLES:
            self._tick(None, None)

    @property
    def reference_s(self) -> float:
        return self.busy_s * KERNEL_REF_S / statistics.median(self.samples)
