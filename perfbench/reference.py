"""The reference loop that end-to-end times are measured against.

The benchmark's host is a few cores of a shared machine whose speed drifts
by a third over minutes as other tenants load it, so a pass's time alone
says as much about the host as about equihom.  While a pass runs, a
SIGPROF handler runs this module's fixed piece of pure-Python integer
linear algebra every INTERVAL_S of process CPU time and records the CPU
time it took.  The pass's CPU time divided by the mean of those samples is
the pass's cost in reference loops, which the host's speed moves far less
than it moves the seconds; CPU time rather than wall time, because a
sample too short to be preempted cannot see time lost to preemption.  The
loop is the benchmark's own code and never changes with equihom, so a
faster or slower equihom moves the ratio in proportion.

The loop mirrors the program's hot paths: a dense matrix-vector product
that skips zeros (`IntMatrix.mul_vector`), tuple rows checked entry by
entry (`IntMatrix.__init__`) and an elimination row operation.  Its matrix
is circulant, so every sample does the same operations on a different
block of rows, and the whole matrix (about 2 MB) is walked as the program
walks its own.
"""

import random
import signal
import time

SIZE = 480          # the matrix is SIZE x SIZE
ROWS = 96           # rows per sample: about 3 ms on one AMD EPYC core
INTERVAL_S = 0.1    # process CPU time between samples


def circulant(size, seed=0):
    """A sparse +-1/2 row and its size rotations."""
    rng = random.Random(seed)
    base = [rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(size)]
    return tuple(tuple(base[size - i:] + base[:size - i])
                 for i in range(size))


class ReferenceSampler:
    """Times the reference loop now and then, from inside a running pass.

    `samples` holds (start, seconds) pairs on the time.thread_time clock:
    while ITIMER_PROF is armed the process CPU clock only advances at
    scheduler ticks, the thread's clock stays exact, and the benchmark's
    process has one thread.
    """

    def __init__(self, size=SIZE, rows=ROWS):
        self.matrix = circulant(size)
        self.vector = list(range(1, size + 1))
        self.rows = rows
        self.next_row = 0
        self.samples = []
        self._previous = None

    def sample(self):
        t0 = time.thread_time()
        start = self.next_row
        block = self.matrix[start:start + self.rows]
        self.next_row = (start + self.rows) % len(self.matrix)
        out = []
        for row in block:
            s = 0
            for a, b in zip(row, self.vector):
                if a and b:
                    s += a * b
            out.append(s)
        copied = tuple(tuple(row) for row in block)
        for row in copied:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("reference entries are integers")
        pivot = copied[0]
        for row in copied[1:]:
            c = row[0] or 1
            out.append(sum(a * c - b for a, b in zip(row, pivot)))
        self.samples.append((t0, time.thread_time() - t0))
        return out

    def _on_prof(self, signum, frame):
        self.sample()

    def start(self, interval=INTERVAL_S):
        self._previous = signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def within(self, t0, t1):
        """CPU seconds of the samples that started in [t0, t1)."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def mean(self):
        return sum(d for _, d in self.samples) / len(self.samples)
