"""Timing in reference seconds, for a host whose speed is not steady.

On a shared host the same pure-Python work can take from 1x to nearly 3x
as long, in phases that last from seconds to minutes, so wall times taken
in different phases say more about the host than about the program. While
a timed section runs, `Meter` runs a fixed probe every INTERVAL seconds of
wall time from a SIGALRM handler. The probe does the two kinds of work the
program does: exact shortest paths with Fractions, as in verification and
the oracle, and an integer table filled level by level through dict
lookups, as in pruning. Code of different kinds slows by different factors
on this kind of host, so the probe holds both. Each probe gives the host's
speed at that moment, REFERENCE / probe time, where REFERENCE is the
probe's time at full speed. A section's reference time is its wall time,
less the probes, times the mean speed over its samples: the time the same
work takes at full speed.

One process, one thread: the probe runs between bytecodes of the timed
code, as any Python signal handler does, and takes about 9% of its time.
"""
from __future__ import annotations

import heapq
import random
import signal
import time
from fractions import Fraction

INTERVAL = 0.02  # seconds of wall time between probes
REFERENCE = 0.001  # seconds the probe takes at full speed (2.1 GHz Xeon vCPU, Python 3.11)


def _probe_graph(n: int = 16, degree: int = 3) -> list[list[tuple[int, Fraction]]]:
    rng = random.Random(2505)
    adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for u in range(n):
        for v in rng.sample(range(n), degree):
            if v != u:
                w = Fraction(rng.randint(1, 40), rng.randint(1, 4))
                adj[u].append((v, w))
                adj[v].append((u, w))
    return adj


_ADJ = _probe_graph()


def _level_scan(levels: int = 1500) -> int:
    table: dict[int, tuple[int, int]] = {}
    get = table.get
    acc = 0
    for level in range(1, levels):
        row = get(level - 1, ())
        if level % 3 == 0:
            table[level] = (level, acc & 1023)
        for x in row:
            acc += x
        acc = (acc * 31 + level) % 1000003
    return acc


def probe() -> Fraction:
    """Fixed work: an integer level scan, then exact Dijkstra from two
    sources; returns the distance sum plus the scan's checksum."""
    total = Fraction(_level_scan())
    for source in (0, len(_ADJ) // 2):
        dist = {source: Fraction(0)}
        heap = [(Fraction(0), source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


def _timed_probe() -> float:
    started = time.perf_counter()
    probe()
    return time.perf_counter() - started


class Meter:
    """Times sections in wall seconds and in reference seconds.

        meter = Meter()
        with meter.section() as timed:
            work()
        timed.wall, timed.reference, timed.samples

    An inactive meter runs no probe; its reference time is the wall time.
    An active one owns SIGALRM for the rest of the process.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self._samples: list[float] | None = None
        if active:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._samples is not None:
            self._samples.append(_timed_probe())

    def section(self, started: float | None = None) -> "Section":
        """A section timed from now, or from the perf_counter() `started`."""
        return Section(self, started)


class Section:
    """One timed section. On exit, `wall` is its wall time less the probes
    run inside it, `reference` that time at full speed, and `samples` every
    probe time, from the one before the section to the one after it."""

    def __init__(self, meter: Meter, started: float | None):
        self.meter = meter
        self.started = started
        self.samples: list[float] = []
        self.wall = self.reference = 0.0

    def __enter__(self) -> "Section":
        meter = self.meter
        if meter.active:
            self.samples.append(_timed_probe())
        self._started = time.perf_counter() if self.started is None else self.started
        if meter.active:
            meter._samples = self.samples
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        meter = self.meter
        meter._samples = None
        ended = time.perf_counter()
        if not meter.active:
            self.wall = self.reference = ended - self._started
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        # the opening probe ran before the start unless the start was given
        inside = sum(self.samples[0 if self.started is not None else 1:])
        self.samples.append(_timed_probe())
        self.wall = ended - self._started - inside
        speed = sum(REFERENCE / p for p in self.samples) / len(self.samples)
        self.reference = self.wall * speed
