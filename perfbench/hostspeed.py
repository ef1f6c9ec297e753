"""Host speed, measured by a fixed calibration kernel between requests.

On a shared virtual machine the same code can run 1.5x slower for
seconds to minutes at a time, because the host gives the guest's CPUs
less time; process CPU time moves with wall time, so CPU time does not
help.  A run cannot average out a slow stretch longer than itself, and
ten runs cannot average out one that covers a whole set of runs.

So the benchmark times a fixed pure-Python kernel, which belongs to the
benchmark and not to the program, right before every request, outside
the request's timing.  A pass's *speed factor* is ``REFERENCE_S``
divided by the pass's mean kernel time, and every time the benchmark
reports is its measured seconds times that factor: seconds on a host
where one kernel call takes ``REFERENCE_S``.  A change that makes the
program slower moves the request times and not the kernel, so it shows
in full.  The raw seconds and the factors are kept in the result file.
"""

from __future__ import annotations

import cProfile
import gc
import statistics
import time
from typing import List, Optional

#: Kernel seconds the reported times refer to: about one call on an
#: unloaded 2-CPU x86-64 virtual machine under CPython 3.11.
REFERENCE_S = 0.004
_ROUNDS = 30_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _step(cell: _Cell, table: dict, i: int) -> None:
    cell.value = (cell.value + i * i) % 1_000_003
    table[i & 255] = cell.value


def kernel() -> float:
    """Seconds one call of the calibration kernel takes now.

    Interpreter work of the kind the program does (calls, attribute and
    dict stores, integer arithmetic) with no container allocated and the
    cyclic collector off, so the program's heap does not slow it.
    """
    cell, table = _Cell(), {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(_ROUNDS):
            _step(cell, table, i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Kernel samples taken over one pass (or one set-up)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: The traced pass's profiler, paused while the kernel runs: an
        #: active profiler slows every bytecode of the kernel twofold.
        self.profile: Optional[cProfile.Profile] = None

    def sample(self) -> None:
        if self.profile is None:
            self.samples.append(kernel())
            return
        self.profile.disable()
        try:
            self.samples.append(kernel())
        finally:
            self.profile.enable()

    def factor(self) -> float:
        """``REFERENCE_S`` over the mean kernel time sampled so far.

        The mean, not the median: when the host changes speed within a
        pass, the mean weighs both stretches as the requests felt them.
        """
        return REFERENCE_S / statistics.fmean(self.samples)
