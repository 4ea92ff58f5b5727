"""Machine-speed sampling, for timings that hold still on a shared host.

On a shared host the speed of one core is not constant: a fixed loop of
small numpy operations and Python arithmetic alternates between two speeds
about 1.55 times apart, in periods from a second to over a minute, and the
process's CPU time slows down with its wall time, so neither clock removes
it. A 30-second run can sit entirely in either period.

``SpeedProbe`` measures that speed while the workload runs. Every
``INTERVAL_S`` of process CPU time a ``SIGPROF`` handler runs a fixed
calibration kernel of the same kind of work as the package (small dense
numpy products and a short Python loop; it calls nothing of the package, so
a change to the package cannot move it) and records its wall time. A round
timed under the probe is then scaled to the reference speed: its work time
(the round's wall time less the time spent in the handler) times the mean
over the round's samples of ``REF_KERNEL_S`` over the kernel time. The
samples are evenly spaced in time, so each stands for an equal slice of the
round, and a slice of length t at kernel time k does the work of
t * REF_KERNEL_S / k at the reference speed. (Dividing by the mean kernel
time instead understates the reference time of rounds that straddle a
change of speed, by up to 5%.)
Kernel samples above twice the run's median are clipped first: a single
stall inside a millisecond-long sample would otherwise count about thirty
times more than the same stall inside the workload.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.03
# Mean kernel time at the reference speed. It only scales the normalised
# figures; it is the kernel's time in the fast periods of a 2-vCPU VM.
REF_KERNEL_S = 1.0e-3
CLIP = 2.0

_rng = np.random.default_rng(0)
_W1 = _rng.standard_normal((2, 32))
_W2 = _rng.standard_normal((32, 32))
_W3 = _rng.standard_normal((32, 3))
_X = _rng.standard_normal((16, 2))


def _numpy_steps(n: int) -> None:
    for _ in range(n):
        h1 = np.maximum(_X @ _W1, 0.0)
        h2 = np.maximum(h1 @ _W2, 0.0)
        out = h2 @ _W3
        g = out - out.mean(axis=1, keepdims=True)
        gh2 = (g @ _W3.T) * (h2 > 0.0)
        _ = h1.T @ gh2


def kernel() -> float:
    """Wall time in seconds of one calibration kernel, caches warmed first."""
    _numpy_steps(10)
    start = time.perf_counter()
    _numpy_steps(40)
    acc = 0
    for i in range(300):
        acc += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the calibration kernel on a CPU-time timer while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def clock(self) -> float:
        """``time.perf_counter`` less every second spent in the handler."""
        return time.perf_counter() - self.spent_s

    def take(self) -> list[float]:
        """The kernel samples since the last call."""
        out, self.samples = self.samples, []
        return out


def reference_seconds(rounds) -> list[float]:
    """Each round's work time scaled to the reference speed.

    ``rounds`` are (work seconds, kernel samples) pairs; a round without
    samples takes the speed of the whole run.
    """
    everything = [s for _, samples in rounds for s in samples]
    limit = CLIP * statistics.median(everything)

    def speed(samples):
        return statistics.fmean(REF_KERNEL_S / min(s, limit) for s in samples)

    overall = speed(everything)
    return [work_s * (speed(samples) if samples else overall) for work_s, samples in rounds]
