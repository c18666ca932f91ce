"""Speed sampler: scales timings to a fixed reference speed of the machine.

The benchmark's host is shared, and the speed it gives one process drifts by
10-30% over minutes and at times by up to 2x from one second to the next (other
tenants on the same physical cores; steal time stays near zero). So while the
workload's calls run, an interval timer interrupts the benchmark's own thread
every `INTERVAL` seconds of wall time, and the signal handler runs a small
frozen probe and records how long it took. The probe runs on the same thread
as the workload, so it is slowed by what slows the workload: a busy sibling
core or a lower clock, and in part time slicing with other processes (a short
probe often fits inside one time slice).

A call's scaled time is its raw time, less the probes that ran inside it, times
`REFERENCE_S` x the mean probe speed (1 / probe time) over the probes in and
around the call. It reads as seconds at the reference speed, the speed at which
one probe takes `REFERENCE_S`. Samples come at fixed wall-time intervals, so
the mean speed is the time-weighted speed of the machine over the call; if the
machine switches between states that slow probe and workload by the same
factor, the scaled time does not depend on how long each state lasted. The
probe is benchmark code: a change to `mxl` moves scaled timings as it moves raw
ones.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import numpy as np

INTERVAL = 0.1
# probe time, in seconds, that defines the reference speed: about the median on
# a 2-vCPU x86_64 VM with Python 3.11 and numpy 2.4
REFERENCE_S = 0.0015
SETUP_PROBES = 20

_h = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])


def _kernel() -> float:
    """Interpreter work and small numpy calls (a 2x2 Hermitian eigh, an
    exponential, a product and a trace), the mix `mxl` spends its time on."""
    acc = 0.0
    table: dict = {}
    for i in range(40):
        w, v = np.linalg.eigh(_h)
        e = np.exp(w - w.max())
        x = (v * e) @ v.conj().T
        acc += float(np.real(np.trace(x))) / float(e.sum())
        for j in range(20):
            key = (i + j) % 13
            table[key] = table.get(key, 0.0) + (j * 0.5) ** 0.5
    return acc + sum(table.values())


def probe() -> float:
    """Seconds one pass of the probe takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale_now(n: int = SETUP_PROBES) -> float:
    """REFERENCE_S x mean probe speed over `n` probes run back to back now."""
    return REFERENCE_S * sum(1.0 / probe() for _ in range(n)) / n


class Speed:
    """Probe samples taken from a SIGALRM handler between `start()` and `stop()`.

    With `pool_dir`, the workload's time is spent in forked pool workers and
    the benchmark's own process only waits: its probes would compete with the
    workers for the cores. Then each process forked while the sampler runs
    samples itself and appends its probes to a file in `pool_dir`, and
    `stop()` collects them.
    """

    def __init__(self, pool_dir: Path | None = None):
        self.pool_dir = pool_dir
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sources: list[int] = []
        self._saved = None
        self._active = False
        self._fd = -1
        _kernel()  # warm up before anything is timed
        if pool_dir is not None:
            pool_dir.mkdir(parents=True, exist_ok=True)
            os.register_at_fork(after_in_child=self._child_start)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        if self._fd >= 0:
            os.write(self._fd, f"{t0!r} {t1!r}\n".encode())
        else:
            self.starts.append(t0)
            self.ends.append(t1)
            self.sources.append(0)

    def _timer(self, seconds: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def _child_start(self) -> None:
        if not self._active:
            return
        self._fd = os.open(self.pool_dir / f"speed-{os.getpid()}.txt",
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.signal(signal.SIGALRM, self._sample)
        self._timer(INTERVAL)

    def start(self) -> None:
        self._active = True
        if self.pool_dir is None:
            self._saved = signal.signal(signal.SIGALRM, self._sample)
            self._timer(INTERVAL)

    def stop(self) -> None:
        """Stop sampling; with `pool_dir`, collect the workers' probes."""
        self._active = False
        if self.pool_dir is None:
            self._timer(0.0)
            signal.signal(signal.SIGALRM, self._saved)
            return
        for n, path in enumerate(sorted(self.pool_dir.glob("speed-*.txt")), start=1):
            for line in path.read_text().splitlines():
                t0, t1 = map(float, line.split())
                self.starts.append(t0)
                self.ends.append(t1)
                self.sources.append(n)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would have taken at the reference speed.

        The speed is the mean over the probes that started within one interval
        of [t0, t1], or over the two nearest probes when fewer lie there. Probe
        time inside the interval is taken out, shared among the processes that
        sampled.
        """
        near = [i for i, s in enumerate(self.starts)
                if t0 - INTERVAL <= s <= t1 + INTERVAL]
        if len(near) < 2:
            mid = (t0 + t1) / 2
            near = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))[:2]
        if not near:
            raise RuntimeError("no speed samples: the sampler did not run")
        inside = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in zip(self.starts, self.ends))
        inside /= len({self.sources[i] for i in near})
        speed = sum(1.0 / (self.ends[i] - self.starts[i]) for i in near) / len(near)
        return (t1 - t0 - inside) * REFERENCE_S * speed

    def probe_times(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]
