"""The machine's pace, from a fixed pure-Python reference that uses no p7c4 code.

On the shared 2-core VM this benchmark was defined on, the speed of
pure-Python code drifts by 20% and more over minutes, and all such code
slows together: over 10 s windows, a p7c4 workload timed between reference
samples varied by 8.5% raw and by 1.3% once divided by the reference. So a
pass takes a reference sample every EVERY_S seconds and divides each moment
of its timed part by the pace nearest to it:

    pace = reference sample time / REFERENCE_S

The pace is 1 on a machine where one sample takes REFERENCE_S, so
normalised times read as seconds on that machine. A change to p7c4 cannot
move the reference; it moves only the normalised times. The time a sample
takes is left out of every interval it falls in.

Where the ops are child processes (cli_batch), the in-process reference
does not track them, so a sample there is a child process instead: this
file run as a script, which starts an interpreter, imports the stdlib
modules the CLI imports and runs the reference work once (CHILD_REFERENCE_S).
"""

from __future__ import annotations

import bisect
import os
import random
import signal
import statistics
import subprocess
import sys
import time

REFERENCE_S = 0.02  # one sample on the 2-core VM this benchmark was defined on
CHILD_REFERENCE_S = 0.1  # one child-process sample on the same VM
EVERY_S = 0.5
_REPEATS = 10


def _graph(n: int = 44, p: float = 0.5, seed: int = 7) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _graph()


def _work(adj: list[int]) -> int:
    """Bitset clique search plus degree refinement: the kinds of work p7c4
    does, written out here so that p7c4 changes cannot touch it."""
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand ^= 1 << v
            nxt = cand & adj[v]
            if nxt:
                expand(nxt, size + 1)
            elif size + 1 > best:
                best = size + 1

    expand((1 << len(adj)) - 1, 0)
    colors = [a.bit_count() for a in adj]
    for _ in range(4):
        sigs = [(colors[v], tuple(sorted(colors[u] for u in range(len(adj)) if a >> u & 1)))
                for v, a in enumerate(adj)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
    return best


class Speedometer:
    """Reference samples (start, end) over a pass, and the normalised length
    of any interval of it."""

    def __init__(self, in_child: bool = False) -> None:
        self.samples: list[tuple[float, float]] = []
        self.in_child = in_child
        self.reference_s = CHILD_REFERENCE_S if in_child else REFERENCE_S
        self._due = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        if self.in_child:
            # no timeout: with one, waiting polls with sleeps of up to 50 ms
            subprocess.run([sys.executable, os.path.abspath(__file__)], check=True)
        else:
            for _ in range(_REPEATS):
                _work(_ADJ)
        now = time.perf_counter()
        self.samples.append((started, now))
        self._due = now + EVERY_S

    def maybe_sample(self) -> None:
        """At an op boundary: a sample if one is due."""
        if time.perf_counter() >= self._due:
            self.sample()

    def start_timer(self) -> None:
        """Sample every EVERY_S seconds from a SIGALRM handler as well, so a
        long library call (enumeration, a deep decomposition) is covered.
        Only for a process that computes in Python itself: a handler that
        runs while the process waits for a child would compete with it."""

        def on_alarm(signum, frame):
            try:
                self.sample()
            except RecursionError:  # fired at the bottom of a deep library recursion
                pass

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pace(self) -> float:
        return statistics.median(e - s for s, e in self.samples) / self.reference_s

    def measurer(self):
        """A function giving the (raw, normalised) seconds of an interval
        [a, b] of the pass, without the samples inside it. Call it once all
        samples are taken.

        The pace is piecewise constant: sample k's pace holds from halfway
        after the previous sample to halfway before the next one.
        """
        samples = sorted(self.samples)
        mids = [(s + e) / 2 for s, e in samples]
        cuts = [(mids[k] + mids[k + 1]) / 2 for k in range(len(mids) - 1)]

        def measure(a: float, b: float) -> tuple[float, float]:
            raw = norm = 0.0
            k = bisect.bisect_left(cuts, a)
            lo = a
            while lo < b:
                hi = min(b, cuts[k]) if k < len(cuts) else b
                s, e = samples[k]
                inside = (hi - lo) - max(0.0, min(hi, e) - max(lo, s))
                raw += inside
                norm += inside / ((e - s) / self.reference_s)
                lo = hi
                k += 1
            return raw, norm

        return measure


if __name__ == "__main__":
    import argparse  # noqa: F401  the stdlib modules `python -m p7c4.cli` imports
    import dataclasses  # noqa: F401
    import json  # noqa: F401

    _work(_ADJ)
