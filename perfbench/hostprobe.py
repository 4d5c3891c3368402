"""Host-speed probe: a fixed pure-Python loop sampled during every operation.

On a shared host the same detection can take twice as long from one minute
to the next, and this guest sees no steal time: process CPU time moves with
wall time, so neither clock alone gives a steady figure.  The slowdown also
changes within a single detection, so a probe timed only before and after
it tracks it poorly (on a contended host, per-detection spread fell from
21 % raw only to 19 % with bracketing probes, and to 3 % with sampling).

So while an operation runs, :class:`HostSampler` interrupts it every
``SAMPLE_INTERVAL_S`` of wall time and times one short run of the probe
loop.  Each time metric is reported as
``(wall - sampling) * probe_ref / mean(samples taken during it)``: seconds
at the speed of a host on which one sample takes ``probe_ref`` seconds.
``sampling`` is the wall time the samples themselves took; it grows with
the host's slowness, so leaving it in would make the figure drift with
the very host speed the division removes.

A sample is the loop's thread CPU time.  That clock counts the host pausing
or slowing this virtual CPU, which the guest cannot see, but not the guest
scheduler running the shared-memory pool's workers instead of the sampler.

The loop imports nothing from ``repro`` and allocates no GC-tracked
container (only small ints and cached one-character strings), so the size
of the program's heap cannot slow it down.
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

_WORDS = ("sorted", "neighborhood", "duplicate", "detection", "movie",
          "title", "person", "catalog", "window", "closure", "similarity",
          "key")

#: Loop rounds of one sample (about 0.1 ms on a quiet 2020s Xeon vCPU).
SAMPLE_ROUNDS = 500

#: Wall seconds between two samples.  Sampling takes about 1 % of an
#: operation's wall time on a quiet host, proportionally more on a slow one.
SAMPLE_INTERVAL_S = 0.010


def probe() -> float:
    """Thread CPU seconds ``SAMPLE_ROUNDS`` of the fixed loop take now."""
    words = _WORDS
    count = len(words)
    state = 12345
    acc = 0
    start = thread_time()
    for _ in range(SAMPLE_ROUNDS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        left = words[state % count]
        right = words[(state >> 9) % count]
        if left < right:
            acc += len(left)
        elif left[0] == right[-1]:
            acc -= 1
        acc ^= state & 1023
    return thread_time() - start


class HostSampler:
    """Probe samples taken every ``SAMPLE_INTERVAL_S`` inside a ``with``.

    ``on_sample`` receives the wall seconds each sample interrupted the
    program for; traced runs use it to keep sampling out of layer self
    times.
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(probe())
        spent = perf_counter() - start
        self.sampling_s += spent
        if self.on_sample is not None:
            self.on_sample(spent)

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> tuple[float, float]:
        """The mean sample and the wall seconds sampling took, both since
        the last call.  With no sample yet, one is taken now, outside the
        measured time."""
        samples, self.samples = self.samples or [probe()], []
        spent, self.sampling_s = self.sampling_s, 0.0
        return sum(samples) / len(samples), spent


def normalise(wall: float, probe_mean: float, probe_ref: float) -> float:
    """``wall`` rescaled to the reference host speed."""
    return wall * probe_ref / probe_mean
