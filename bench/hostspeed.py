"""How fast the host runs the interpreter right now, against a fixed kernel.

The benchmark runs on shared virtual machines. For tens of seconds to
minutes at a time the same interpreter work runs up to half again as
fast or slow, with what the other tenants do; CPU time moves with wall
time, so it is no way out. A run of the benchmark is too short to
average such phases away.

So every timed unit of work (a replay, one ``traces`` subcommand, one
sweep, one set-up) is bracketed by a fixed reference kernel, timed just
before and just after it. The kernel is the benchmark's own code and
never changes with the program, so its time says only how fast the host
is at that moment. A unit's wall time, multiplied by
``REFERENCE_KERNEL_S`` over the mean of the two kernel times around it,
is its time on a reference host on which the kernel takes
``REFERENCE_KERNEL_S``: the host time the benchmark reports. Between
two commits the ratio of those times is the ratio of the wall times the
same host would give in the same phase.

The kernel is plain interpreter work of the kind the program spends its
time in: dictionary probes, method calls, attribute reads and writes on
small objects, integer arithmetic and array updates, spread over more
memory than the processor caches. It runs in the benchmark's own
process (a child asks its parent to time it, see :class:`ParentKernel`),
so it adds nothing to a measured process's memory.
"""

from __future__ import annotations

import contextlib
import gc
import os
import select
import struct
import subprocess
import time
from array import array
from typing import Callable, Iterator, Set

#: Kernel time on the reference host: the median of one 2-vCPU x86-64
#: virtual machine with CPython 3.11. It sets only the scale of the
#: reported times, not their ratios between commits.
REFERENCE_KERNEL_S = 0.035
#: Iterations of the kernel's loop.
KERNEL_STEPS = 30_000
#: Entries of the kernel's table of small objects and words of its
#: array: about 24 MB together, far past the processor's own caches, as
#: the program's traces and machine state are. A kernel that stayed in
#: the caches would miss the phases in which the other tenants crowd
#: them, and those slow the program most.
TABLE_LINES = 1 << 16
ARRAY_WORDS = 1 << 21


class _Line:
    __slots__ = ("tag", "state", "hits")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.state = 1
        self.hits = 0

    def touch(self, write: bool) -> int:
        self.hits += 1
        if write:
            self.state = 2
        return self.state


_tables: tuple = ()


def tables() -> tuple:
    """The kernel's table and array, built on first use."""
    global _tables
    if not _tables:
        _tables = ({tag << 6: _Line(tag) for tag in range(TABLE_LINES)},
                   array("q", bytes(8 * ARRAY_WORDS)))
    return _tables


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Probe the table and update the array along a fixed pseudo-random
    address stream."""
    lines, words = tables()
    line_mask, word_mask = TABLE_LINES - 1, ARRAY_WORDS - 1
    writes = 0
    address = 12345
    for step in range(steps):
        address = (address * 1103515245 + 12345) & 0x7FFFFFFF
        writes += lines[(address & line_mask) << 6].touch(step & 3 == 0) >> 1
        word = (address >> 5) & word_mask
        words[word] = (words[word] + step) & 0xFFFF
    return writes


def kernel_s() -> float:
    """Wall time of one pass of the kernel, now.

    The garbage collector is off meanwhile: the kernel's allocations
    would otherwise set off collections of the program's heap, whose
    cost depends on the program and not on the host."""
    tables()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def on_cpus(cpus: Set[int]) -> Iterator[None]:
    """Run this process, and the processes it starts meanwhile, on *cpus*.

    The virtual processors of a shared host are slowed by different
    neighbours, so the kernel says how fast the processor it ran on is:
    the benchmark keeps a unit of work and the kernels around it on the
    same processor."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


class ParentKernel:
    """Has the parent process time the kernel, while this one waits.

    The kernel's memory then never counts towards a measured process's
    peak resident size, and its timings never depend on the state of the
    program's heap. The parent answers through :func:`serve_kernel`.
    """

    def __init__(self, ask_fd: int, answer_fd: int) -> None:
        self.ask_fd = ask_fd
        self.answer_fd = answer_fd

    def __call__(self) -> float:
        os.write(self.ask_fd, b"k")
        answer = b""
        while len(answer) < 8:
            chunk = os.read(self.answer_fd, 8 - len(answer))
            if not chunk:
                raise EOFError("the parent stopped timing the kernel")
            answer += chunk
        return struct.unpack("d", answer)[0]


def serve_kernel(proc: subprocess.Popen, ask_fd: int, answer_fd: int,
                 timeout: float) -> None:
    """Time the kernel each time *proc* asks, until it closes its end of
    the asking pipe; raise ``TimeoutExpired`` if that takes longer than
    *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while True:
        left = deadline - time.monotonic()
        ready, _, _ = select.select([ask_fd], [], [], max(left, 0.0))
        if not ready:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        if not os.read(ask_fd, 1):
            return
        os.write(answer_fd, struct.pack("d", kernel_s()))


class HostSpeed:
    """Scale factors for units of work timed one after another.

    Create it right before the first unit; call :meth:`scale` right after
    each unit. The kernel time taken after one unit serves as the time
    before the next.
    """

    def __init__(self, time_kernel: Callable[[], float]) -> None:
        """*time_kernel* times the kernel now: :func:`kernel_s`, or a
        :class:`ParentKernel` in a child process."""
        self.time_kernel = time_kernel
        self.before = self.time_kernel()

    def scale(self) -> float:
        """Reference seconds per host second for the unit just ended."""
        after = self.time_kernel()
        factor = REFERENCE_KERNEL_S / ((self.before + after) / 2.0)
        self.before = after
        return factor
