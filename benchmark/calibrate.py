"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared box the same execution can take half again as long from
one second to the next, because other tenants share the cores and caches.
A fixed calibration task, timed every PERIOD_S seconds while the measured
code runs, tracks the machine's speed at that moment. Each stretch of
measured code between two probes is rescaled by NOMINAL_S / (the task's
duration at its ends): the time the code would have taken on a machine where
the task takes NOMINAL_S.

The task is a small frozen event loop (dataclass events on a heap, set
intersections, random draws, per-node float updates), because a slowdown
from a neighbour hits interpreter-heavy code of that shape harder than a
tight numeric loop. It belongs to the benchmark, not to the program, so the
calibrated times of two commits compare.
"""

from __future__ import annotations

import heapq
import math
import random
import signal
import time
from dataclasses import dataclass, field
from enum import IntEnum

PERIOD_S = 0.05
# About the task's duration between stretches of simulation on a quiet
# 2-vCPU x86-64 VM at 2.0 GHz under CPython 3.11, so that calibrated times
# read close to wall times there. It only sets their unit.
NOMINAL_S = 0.0011


class _Kind(IntEnum):
    WAKE = 0
    TIMEOUT = 1
    DELIVERY = 2


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    kind: _Kind = field(compare=False)
    payload: object = field(compare=False, default=None)


@dataclass
class _Node:
    id: int
    x: float
    y: float
    state: int = 0
    spent: float = 0.0
    last: float = 0.0
    rate: float = 0.01


_rng = random.Random(20130924)
_NODES = [_Node(i, _rng.uniform(0.0, 50.0), _rng.uniform(0.0, 50.0)) for i in range(96)]
_NEIGHBORS = [
    frozenset(j for j, b in enumerate(_NODES)
              if j != i and math.hypot(a.x - b.x, a.y - b.y) <= 20.0)
    for i, a in enumerate(_NODES)
]
_POWER = {0: 3e-6, 1: 0.06}


def calibration_task(steps: int = 150) -> int:
    """The same fixed slice of event-loop work on every call."""
    rng = random.Random(7)
    for n in _NODES:
        n.state, n.spent, n.last, n.rate = 0, 0.0, 0.0, 0.01
    heap: list[_Event] = []
    seq = 0
    on: set[int] = set()
    for n in _NODES[:24]:
        heapq.heappush(heap, _Event(rng.random() * 5.0, seq, _Kind.WAKE, n.id))
        seq += 1
    for _ in range(steps):
        if not heap:
            break
        ev = heapq.heappop(heap)
        now = ev.time
        if ev.kind is not _Kind.DELIVERY:
            node = _NODES[ev.payload]
            node.spent += _POWER[node.state] * (now - node.last)
            node.last = now
            node.state = 1
            on.add(node.id)
            receivers = [r for r in sorted(on & _NEIGHBORS[node.id]) if rng.random() >= 0.05]
            heapq.heappush(heap, _Event(now + 0.0008, seq, _Kind.DELIVERY, (node, receivers)))
            heapq.heappush(heap, _Event(now + 1.0, seq + 1, _Kind.TIMEOUT, node.id))
            seq += 2
        else:
            sender, receivers = ev.payload
            for rid in receivers:
                other = _NODES[rid]
                other.spent += 50e-6
                if other.state == 1 and math.hypot(other.x - sender.x, other.y - sender.y) <= 20.0:
                    other.state = 0
                    on.discard(rid)
                    other.rate = min(max(other.rate * 1.1, 1e-3), 0.05)
                    sleep = math.log(1.0 / (1.0 - rng.random())) ** 0.5 / other.rate
                    heapq.heappush(heap, _Event(now + min(sleep, 200.0), seq, _Kind.WAKE, rid))
                    seq += 1
    return seq


def time_task() -> float:
    start = time.perf_counter()
    calibration_task()
    return time.perf_counter() - start


def calibrated(seconds: float, tasks: list[float]) -> float:
    """Rescale a short span by the median task duration measured around it."""
    tasks = sorted(tasks)
    return seconds * NOMINAL_S / tasks[len(tasks) // 2]


class SpeedProbe:
    """Times the calibration task on SIGALRM every PERIOD_S inside a `with`.

    The handler runs on the measured code's own thread, between its
    bytecodes, and touches nothing of the program. After the block, `wall_s`
    is the measured code's wall time without the probes, `calibrated_s` that
    time rescaled to NOMINAL_S, and `probe_s` the probes' own time.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.calibrated_s = 0.0
        self.probe_s = 0.0

    def _close_stretch(self, stopped: float) -> None:
        """Account the code that ran since the last probe, then probe again."""
        task = time_task()
        gap = stopped - self._resumed
        self.wall_s += gap
        self.calibrated_s += gap * NOMINAL_S * 0.5 * (1.0 / self._task + 1.0 / task)
        self._task = task

    def _handler(self, signum, frame) -> None:
        stopped = time.perf_counter()
        self._close_stretch(stopped)
        self._resumed = time.perf_counter()
        self.probe_s += self._resumed - stopped

    def __enter__(self):
        self._task = time_task()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._resumed = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        stopped = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close_stretch(stopped)
