"""Host-speed normalization by interleaved reference bursts.

On a shared host the speed of a pure-Python process drifts by tens of
per cent over minutes, so raw wall times of the same code spread more
than any useful regression bound.  A RefClock measures that speed while
the program runs: an interval timer (SIGALRM) interrupts the program
every `interval` seconds, and the handler runs one burst of a fixed
stdlib-only reference kernel and times it.  The bursts sample the host's
speed at the same moments as the program, so

    normalized = (raw span - time spent in bursts)
                 * NOMINAL_ROUND_S / (measured seconds per kernel round)

is the span's length on a host that runs the kernel at its nominal speed.
A faster program gives a proportionally smaller normalized time; a slower
host does not.

The kernel does tuple-keyed dict lookups and small-int arithmetic, the
staple operations of the package, on a few hundred bytes of data.  It
allocates no container, so it never triggers a garbage collection that
the program's own allocations made due.
"""

from __future__ import annotations

import signal
import time

# About the seconds one kernel round takes on an unloaded 2-vCPU KVM host
# with CPython 3.11; only the scale of the normalized times depends on it.
NOMINAL_ROUND_S = 7.0e-6
ROUNDS_PER_BURST = 150  # about 1 ms

_WORDS = [tuple((i * 7 + j * 3) % 5 for j in range(8)) for i in range(8)]
_KEYS = tuple(w[k : k + 3] for w in _WORDS for k in range(6))
_TABLE = {key: (i * 13) % 7 for i, key in enumerate(_KEYS[::2])}


def kernel(rounds: int) -> int:
    acc = 0
    for _ in range(rounds):
        for key in _KEYS:
            acc = (acc * 31 + _TABLE.get(key, 1)) % 65521
    return acc


class RefClock:
    """Interleaves reference bursts with the running program.

    `spent` is the time spent in bursts, handler bookkeeping included;
    `now()` is monotonic time with that time taken out, so spans measured
    with it cover the program alone.
    """

    def __init__(self):
        start = time.monotonic()
        kernel(ROUNDS_PER_BURST)  # untimed: the interpreter specializes its loop
        self.spent = time.monotonic() - start
        self.burst_s = 0.0
        self.rounds = 0

    def _burst(self, _signum=None, _frame=None):
        start = time.monotonic()
        kernel(ROUNDS_PER_BURST)
        end = time.monotonic()
        self.burst_s += end - start
        self.rounds += ROUNDS_PER_BURST
        self.spent += time.monotonic() - start

    def run(self, interval: float):
        """Start (or re-time) the bursts, one every `interval` seconds."""
        signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def now(self) -> float:
        return time.monotonic() - self.spent

    def mark(self) -> tuple[float, float, int]:
        return (self.spent, self.burst_s, self.rounds)

    def since(self, start: float, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(raw, normalized) program seconds from monotonic time `start` to now.

        `mark` is this clock's mark() taken at `start`.  A span too short
        to have held a burst gets one burst at its end.
        """
        spent, burst_s, rounds = mark
        program = time.monotonic() - start - (self.spent - spent)
        if self.rounds == rounds:
            self._burst()
        per_round = (self.burst_s - burst_s) / (self.rounds - rounds)
        return program, program * NOMINAL_ROUND_S / per_round
