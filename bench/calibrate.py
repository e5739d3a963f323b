"""Host-speed calibration: the benchmark's timings at a fixed reference speed.

The benchmark shares a few cores of a host with other work, and the
host's speed drifts by tens of percent over minutes; every timing of a
run moves with it.  So the loop times a fixed probe of its own between
ops and rescales each op and set-up time by the probe's reference time
over the median of the probe times taken nearest to it.  A rescaled time
is the time the op would have taken on a host that runs the probe in its
reference time.  The probes never call the package, so a change to the
package moves the rescaled times in full.

Each workload's probe does what its ops do:

- ``in_process``, for the library workloads: ``kernel`` in the
  benchmark's own process.  The kernel does what the package's hot loops
  do, in plain Python: it transports big-integer weights through
  flip-like steps and counts in a dict.
- ``child_process``, for cli_cold, whose ops are fresh interpreters: this
  file run as a child, which starts an interpreter and runs the kernel
  three times, timed from spawn to exit.  The kernel's speed in the
  parent does not follow the children's: rescaled by it, the spread of
  cli_cold's median grew.  The child's peak memory stays below that of
  the set-up's ``import fdtc.cli``, so it never sets cli_cold's
  ``peak_rss_mb``.

Run as a script, this file is that child.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

_EDGES = 12
_STEPS = [((7 * i) % _EDGES, (7 * i + 1) % _EDGES, (7 * i + 4) % _EDGES,
           (5 * i + 2) % _EDGES, (5 * i + 9) % _EDGES) for i in range(64)]
_ROUNDS = 80
_CHILD_TIMEOUT_S = 30.0


def kernel():
    """A fixed amount of interpreted big-integer and dict work."""
    w = tuple((1 << 200) + 12345 * i for i in range(_EDGES))
    seen = {}
    for _ in range(_ROUNDS):
        for e, a, b, c, d in _STEPS:
            out = list(w)
            out[e] = max(w[a] + w[c], w[b] + w[d]) - w[e] + (1 << 200)
            w = tuple(out)
            seen[e, a] = seen.get((e, a), 0) + 1
    return w


def time_kernel():
    """Seconds of one ``kernel()`` here, with the collector held off so
    that only the kernel is timed."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t1 - t0


def time_child():
    """Seconds from spawning this file as a child to its exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], stdout=subprocess.DEVNULL,
                   check=True, timeout=_CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def child_main():
    for _ in range(3):
        kernel()


class Calibration:
    """Probe times taken between ops, and the rescaling they give.

    ``probe`` returns the seconds of one probe, taken at most every
    ``every_s``.  An op or set-up is rescaled by ``ref_s`` over the median
    of the ``neighbours`` samples before it and the ``neighbours`` after
    it: one sample is noisy, as the host's speed swings by up to 2x
    within a second, so the median spans a few seconds, well inside the
    minutes over which the host drifts."""

    def __init__(self, probe, every_s, neighbours, ref_s):
        self.probe = probe
        self.every_s = every_s
        self.neighbours = neighbours
        self.ref_s = ref_s
        self.samples = []
        self.spent = 0.0
        self.last = float("-inf")

    def mark(self):
        """The position of a timing about to be taken among the samples."""
        return len(self.samples)

    def maybe_sample(self):
        """Take a sample when ``every_s`` have passed since the last."""
        if time.perf_counter() - self.last >= self.every_s:
            self.sample()

    def sample(self):
        now = time.perf_counter()
        self.samples.append(self.probe())
        self.last = time.perf_counter()
        self.spent += self.last - now

    def rescale(self, seconds, mark):
        """``seconds`` taken at ``mark``, at the reference speed."""
        k = self.neighbours
        return seconds * self.ref_s / statistics.median(
            self.samples[max(0, mark - k):mark + k])


# The reference times are fixed constants, near the probes' medians on the
# 2-vCPU x86-64 cloud VM the benchmark was tuned on: 6-7 ms for the
# kernel, about 100 ms for the child.


def in_process():
    """The probe of the library workloads: the kernel every 0.25 s."""
    return Calibration(time_kernel, 0.25, 8, 0.006)


def child_process():
    """The probe of cli_cold: a child every 2 s, about 5% of the run."""
    return Calibration(time_child, 2.0, 4, 0.1)


if __name__ == "__main__":
    child_main()
