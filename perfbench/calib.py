"""Reference-speed probe: times are reported at one fixed machine speed.

On a shared host the speed of a vCPU changes with the neighbours' load:
a fixed pure-Python loop ran 1.9x slower at one moment than half an
hour earlier, in CPU time as much as in wall time, and swung by +-30%
from one second to the next.  A measured time alone therefore says as
much about the host as about the program.

The probe runs a fixed chunk of pure-Python work (Fractions, tuples, a
dict; no discarr code) from a signal handler every INTERVAL_S seconds of
user CPU time, in the same thread as the measured work, and times each
chunk.  A chunk
slows down with the host exactly when the program does, so

    scaled = (raw - time spent in chunks) * REFERENCE_CHUNK_S / chunk_mean

is the time the work would take on a host where one chunk takes
REFERENCE_CHUNK_S.  chunk_mean is the mean chunk time over the same
interval after dropping the slowest tenth of the chunks: a mean, because
chunks are spread evenly in time and so weigh slow and fast periods by
how long they lasted; trimmed, because a chunk that was descheduled
says nothing about the speed.  The garbage collector is paused during a
chunk, so a collection the program's own objects made due does not land
in the probe.  The probe's work never depends on the program, so a
program that gets 2x faster reads 2x faster.

The timer is ITIMER_VIRTUAL, whose signal is raised only while the
process runs in user mode, and the handler restarts system calls: a
signal that interrupts a blocked write of a large print() to a pipe
makes CPython 3.11 drop the rest of the write.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# One chunk's time on a 2-vCPU Xeon VM at 2.0 GHz (Python 3.11) in its
# quiet periods; the slow periods read about 0.8 ms.
REFERENCE_CHUNK_S = 0.0005
TRIM = 0.1


def chunk() -> Fraction:
    """The fixed work timed by the probe."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 60):
        f = Fraction(i, i + 7)
        acc = (acc + f * f) % 97
        key = (i % 13, i % 17, i % 19)
        seen[key] = seen.get(key, 0) + 1
    return acc


def chunk_mean(chunks) -> float:
    """Mean chunk time without the slowest tenth."""
    if not chunks:
        raise ValueError("no probe chunk ran in the interval")
    kept = sorted(chunks)[:len(chunks) - int(len(chunks) * TRIM)]
    return sum(kept) / len(kept)


def scale(raw: float, spent: float, mean: float) -> float:
    """raw seconds, less the probe's own time spent, at the reference
    speed, given the interval's chunk_mean."""
    return (raw - spent) * REFERENCE_CHUNK_S / mean


class Probe:
    """Times chunk() every INTERVAL_S seconds between start() and stop().

    chunks holds every chunk time and spent their sum, so an interval's
    share is the difference of two mark()s."""

    def __init__(self):
        self.chunks: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        chunk()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.chunks.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.siginterrupt(signal.SIGVTALRM, False)
        self._tick()  # so that even a short interval holds one chunk
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.chunks), self.spent

    def since(self, mark) -> tuple[float, list[float]]:
        """(probe seconds, chunk times) since a mark()."""
        n, spent = mark
        return self.spent - spent, self.chunks[n:]

    def summary(self) -> dict:
        return {"spent": self.spent, "chunks": len(self.chunks),
                "chunk_mean": chunk_mean(self.chunks)}
