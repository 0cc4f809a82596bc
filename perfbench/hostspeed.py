"""Host speed, measured on the cores a round runs on, while it runs.

The shared hosts this benchmark runs on do not hold their speed: a
vCPU runs the same Python loop up to twice as slowly for seconds at a
time, and how often it does so drifts over minutes.  Probing the host
before or after a round misses most of that, so the meter probes *during*
the round, from the round's own processes:

* a ``SIGPROF`` interval timer fires every ``PERIOD_S`` of the process's
  CPU time, and its handler (in the main thread, between bytecodes)
  times a fixed piece of work, the *probe*;
* processes the round forks (the ``fig12-pool`` workers) start their
  own timer in an at-fork hook and record into their own slot of a
  shared page, which the round reads after they have exited.

A sample is clipped at ``CLIP`` times the fastest sample of its process,
so an interrupt landing inside one probe does not weigh more than a
slow spell.  The mean probe time of a phase over ``REF_NS`` is the
phase's *slowdown*: how much slower than the reference core the cores
ran, weighted by the CPU time spent on each.  ``run.py`` divides the
phase's host times by it.  The probe costs under 1 % of CPU time.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import struct
import time

import numpy as np

#: CPU seconds between probes
PERIOD_S = 0.02
#: the probe's time on the reference core: about the fast state of the
#: 2-vCPU Xeon VM the benchmark was tuned on
REF_NS = 80_000
#: samples slower than this many times the process's fastest are clipped
CLIP = 3.0
#: slots in the shared page: the round's process and the ones it forks
MAX_PROCS = 64
_SLOT = struct.Struct("dd")  # samples, clipped probe ns

_TABLE = {i: i for i in range(256)}
#: a 64-set, 8-way tag array with half its ways filled, and its LRU stamps
_TAGS = np.full((64, 8), -1, dtype=np.int64)
_TAGS[:, :4] = np.arange(256).reshape(64, 4)
_LRU = np.zeros((64, 8), dtype=np.int64)


def probe_ns() -> int:
    """One probe, in ns: the two kinds of host work the simulator does.

    A loop of dict reads and integer arithmetic (pure Python), then
    lookups in a small set-associative tag array (scalar NumPy calls,
    the shape of ``memsim.cache``).  The scalar NumPy part tracks the
    slow spells of ``fig04b-scalar`` far better than pure Python alone.
    """
    table, tags, lru = _TABLE, _TAGS, _LRU
    start = time.perf_counter_ns()
    total = 0
    for i in range(200):
        total += table[i & 255] * i
    for i in range(20):
        row = i & 63
        hit = np.nonzero(tags[row] == i)[0]
        if hit.size:
            lru[row, hit[0]] = i
        else:
            total += int(np.argmin(lru[row]))
    return time.perf_counter_ns() - start


class SpeedMeter:
    """Samples the probe in this process and the processes it forks."""

    def __init__(self) -> None:
        #: anonymous and shared, so forked children write where we read
        self._page = mmap.mmap(-1, MAX_PROCS * _SLOT.size)
        self._slot: int | None = 0
        self._forks = 0
        self._child_slot: int | None = None
        self._fastest = math.inf
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)
        self._running = True
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _before_fork(self) -> None:
        self._forks += 1
        self._child_slot = self._forks if self._forks < MAX_PROCS else None

    def _in_child(self) -> None:
        # interval timers are not inherited across fork; handlers are
        self._slot = self._child_slot
        self._forks = MAX_PROCS  # slots are the round's to give: grandchildren go unprobed
        self._fastest = math.inf
        if self._running and self._slot is not None:
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _sample(self, signum=None, frame=None) -> None:
        if self._slot is None:
            return
        ns = probe_ns()
        self._fastest = min(self._fastest, ns)
        offset = self._slot * _SLOT.size
        count, total = _SLOT.unpack_from(self._page, offset)
        _SLOT.pack_into(self._page, offset, count + 1, total + min(ns, CLIP * self._fastest))

    # ------------------------------------------------------------------
    def snapshot(self, samples: int = 0) -> tuple[float, float]:
        """Samples and probe ns so far, over this process and its forks.

        ``samples`` extra probes are taken first, in this process, so a
        phase too short for the timer still has a reading."""
        for _ in range(samples):
            self._sample()
        count = total = 0.0
        for slot in range(MAX_PROCS):
            c, t = _SLOT.unpack_from(self._page, slot * _SLOT.size)
            count, total = count + c, total + t
        return count, total


def slowdown(count: float, total_ns: float) -> float:
    """Mean probe time over the reference core's (1.0 with no samples)."""
    return total_ns / count / REF_NS if count else 1.0
