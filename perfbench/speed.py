"""Machine-speed probe: a fixed kernel timed around and during each op.

The CPU of a shared host runs this single-threaded code at speeds that
drift by up to 2x within a few seconds, and CPU time drifts with it, so
raw op times from two runs are not comparable. The benchmark times a
small fixed kernel between consecutive operations (FRESH times when a
phase starts), and a SIGALRM timer also runs it every INTERVAL_S inside
operations that last longer than WINDOW_S: a probe inside a short op
would slow the op's tail, and the ends of a long op miss the drift within
it. Each operation is reported at reference speed:

    reported = measured * REFERENCE_S / (mean probe time around the op)

where the mean covers the probes from WINDOW_S before the op to the one
right after it: a speed mode lasts a second or more, and one probe alone
is noisy. Probe time inside an op is subtracted from the op.

The kernel is the benchmark's own code, not the program's. It does what
the program does per graph node (small matmuls, elementwise ufuncs,
short-lived Python objects) and one batched attention-sized matmul. Run
cold, right after or inside an op, it pays for page faults and cache
misses that depend on the program's heap, up to 2x when the program keeps
its graphs alive. So each probe runs the kernel once untimed and times
the runs after it, and the large arrays are preallocated; probe_heap.py
checks how far the heap still moves the probe. The garbage collector is
paused while the kernel runs, and everything it allocates is freed before
it returns, so it does not shift the program's collections.
"""

import gc
import signal
import time

import numpy as np

REFERENCE_S = 1e-3   # probe time that defines reference speed
INTERVAL_S = 0.05
FRESH = 10
WINDOW_S = 0.1       # probes this long before an op also count for it
WINDOW_MAX = 64
CAPACITY = 1 << 15


class SpeedProbe:
    """``ticks=False`` probes at op boundaries only, so that no probe time
    falls inside a traced span."""

    def __init__(self, ticks=True):
        self.ticks = ticks
        rng = np.random.default_rng(0)
        self.w = rng.normal(size=(32, 128)).astype(np.float32)
        self.x = rng.normal(size=(17, 32)).astype(np.float32)
        self.tokens = rng.normal(size=(16 * 65, 32)).astype(np.float32)
        self.y = np.empty((16 * 65, 96), np.float32)
        self.scores = np.empty((16, 65, 65), np.float32)
        self.at = np.zeros(CAPACITY)      # start of each probe, perf_counter
        self.took = np.zeros(CAPACITY)    # its duration
        self.n = 0
        self.inside = 0.0                 # seconds spent in ticks so far
        self._busy = False
        self._fresh = True
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, *_):
        if not self._busy:
            self._busy = True
            start = time.perf_counter()
            self._sample()
            self.inside += time.perf_counter() - start
            self._busy = False

    def _kernel(self):
        x, keep = self.x, []
        for _ in range(30):
            g = x @ self.w
            a = np.tanh(g[:, :32])
            b = 1.0 / (1.0 + np.exp(-g[:, 32:64]))
            x = a * b + x * 0.5
            keep.append((x, (a, b)))
        # Preallocated: where a fresh large array comes from depends on
        # the program's allocation history.
        np.matmul(self.tokens, self.w[:, :96], out=self.y)
        y = self.y.reshape(16, 65, 96)
        np.matmul(y[:, :, :32], y[:, :, 32:64].transpose(0, 2, 1), out=self.scores)

    def _sample(self, times=1):
        was_enabled = gc.isenabled()
        gc.disable()
        # Untimed first: it pays for the page faults and cache misses that
        # depend on what the program left behind.
        self._kernel()
        for _ in range(times):
            start = time.perf_counter()
            self._kernel()
            took = time.perf_counter() - start
            i = self.n % CAPACITY
            self.at[i], self.took[i] = start, took
            self.n += 1
        if was_enabled:
            gc.enable()

    def time(self, fn):
        """Run ``fn()``; returns (its result, measured s, s at reference speed).

        The speed of an op is the mean of the probes from WINDOW_S before
        it to the one right after it. The probe after one op is also a
        probe before the next, until ``restart`` is called.
        """
        if self._fresh:
            self._sample(FRESH)
        inside0 = self.inside
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, WINDOW_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            dt = time.perf_counter() - start - (self.inside - inside0)
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        self._fresh = False
        recent = np.arange(max(self.n - WINDOW_MAX, 0), self.n) % CAPACITY
        took = self.took[recent[self.at[recent] >= start - WINDOW_S]].mean()
        return out, dt, dt * REFERENCE_S / took

    def restart(self):
        """Probe again before the next op, after work that was not timed."""
        self._fresh = True

    def median(self):
        return float(np.median(self.took[:min(self.n, CAPACITY)]))
