"""Host-speed-corrected time for a shared, noisy machine.

On a host shared with other tenants the speed of a core changes by 1.5x or
more within seconds, so plain wall time of a multi-second pass spreads far
more than the program's own cost.  ``HostClock`` measures that speed on the
core and at the moments the program runs: every ``PERIOD_S`` a SIGALRM
handler, which Python runs in the main thread between two bytecodes, times
one fixed calibration chunk.  Program time between two chunks is weighted by
``REF_CHUNK_S`` over the mean duration of those two chunks, and the chunks
themselves count for nothing.  The result, ``ref_s``, is the program's time
in seconds at the host speed at which one chunk takes ``REF_CHUNK_S``: a
program that does 10% more work reads 10% more, whatever the neighbours do.

The chunk is a fixed mix of interpreter work and small numpy and scipy.fft
calls (FFTs, sine transforms, polyval, ufuncs; no BLAS), like the solvers it
stands beside.  It costs 3 to 6% of the run, the same on every commit.
"""

import signal
import time

import numpy as np
import scipy.fft as sf

PERIOD_S = 0.1
# the duration of one chunk at the reference speed, a round figure near its
# duration inside a workload on a 2-core Xeon VM; it only sets the scale of ref_s
REF_CHUNK_S = 3.0e-3
_REPS = 40

_A = np.cos(np.arange(256) * 0.37)
_X = np.cos(np.arange(24) * 0.37)
_Y = np.sin(np.arange(48) * 0.11).reshape(6, 8)
_P = np.array([0.3, -0.2, 0.1, 0.05])


def _chunk():
    """The fixed calibration work; its result is kept so it is not skipped."""
    a, x, y, s = _A.copy(), _X.copy(), _Y.copy(), 0.0
    for i in range(_REPS):
        a = np.fft.irfft(np.fft.rfft(a) * 0.999, 256)
        x = sf.idst(sf.dst(x, type=1) * 0.999, type=1)
        y = sf.irfft(sf.rfft(y, axis=1) * 0.999, n=8, axis=1)
        z = np.polynomial.polynomial.polyval(x, _P)
        w = np.zeros((6, 8))
        w[:, :3] = np.tanh(y[:, :3])
        s += float(z.sum()) + float(np.abs(w).max())
        for j in range(24):
            s += (i * j * 0.5) % 7.0
    return s + float(a[0])


class HostClock:
    """Samples the host speed with chunks; maps monotonic times to ref_s."""

    def __init__(self):
        self.samples = []      # (start, end) of each chunk, time.monotonic()
        self.chunk_cpu_s = 0.0
        self._sink = 0.0
        self._old = None
        self._cache = None

    def _handler(self, signum, frame):
        c0 = time.process_time()
        t0 = time.monotonic()
        self._sink += _chunk()
        t1 = time.monotonic()
        self.chunk_cpu_s += time.process_time() - c0
        self.samples.append((t0, t1))

    def start(self):
        self._sink += _chunk()     # untimed: the first call sets up FFT plans
        self._handler(None, None)
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None
        self._handler(None, None)

    def mark(self):
        """A point in time for ``between``."""
        return (time.monotonic(), time.process_time(), len(self.samples),
                self.chunk_cpu_s)

    def between(self, m0, m1):
        """Program time from mark m0 to mark m1, chunks taken out: wall and
        CPU seconds as measured, and both corrected to ref_s.

        Call it after ``stop``, so that both ends have a chunk on either side
        to weigh them by."""
        (t0, c0, k0, chunk_cpu0), (t1, c1, k1, chunk_cpu1) = m0, m1
        wall = t1 - t0 - sum(b - a for a, b in self.samples[k0:k1])
        cpu = c1 - c0 - (chunk_cpu1 - chunk_cpu0)
        ref = self.to_ref(t1) - self.to_ref(t0)
        return {"wall_s": wall, "cpu_s": cpu, "ref_s": ref,
                "ref_cpu_s": cpu * ref / wall}

    def to_ref(self, t):
        """ref_s elapsed from the first chunk's start to t (an array or a float).

        Between chunks i-1 and i time runs at REF_CHUNK_S over their mean
        duration; inside a chunk it stands still; before the first and after
        the last chunk it runs at the rate of that chunk."""
        knots, ref = self._table()
        t = np.asarray(t, dtype=float)
        out = np.interp(t, knots, ref)
        first = REF_CHUNK_S / (knots[1] - knots[0])
        last = REF_CHUNK_S / (knots[-1] - knots[-2])
        out = np.where(t < knots[0], (t - knots[0]) * first, out)
        out = np.where(t > knots[-1], ref[-1] + (t - knots[-1]) * last, out)
        return out if out.ndim else float(out)

    def _table(self):
        n = len(self.samples)
        if self._cache is not None and self._cache[0] == n:
            return self._cache[1], self._cache[2]
        knots = np.array(self.samples, dtype=float).ravel()
        dur = knots[1::2] - knots[0::2]
        gaps = knots[2::2] - knots[1:-1:2]
        ref = np.zeros_like(knots)
        ref[2::2] = np.cumsum(gaps * REF_CHUNK_S / (0.5 * (dur[:-1] + dur[1:])))
        ref[3::2] = ref[2::2]
        self._cache = (n, knots, ref)
        return knots, ref
