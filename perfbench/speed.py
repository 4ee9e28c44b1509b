"""How fast the machine ran while a timed region ran, from in-process samples.

On a shared host the speed of the vCPU drifts: a fixed loop of pure Python
runs up to twice as slow for stretches of a fraction of a second to minutes
while neighbours load the machine.  A pass of the timed region takes that
drift with it, so raw wall times of the same code spread far more than the
bounds of the benchmark allow.

``SpeedSampler`` measures the drift over exactly the stretch of time a pass
runs. While it is active, a ``SIGALRM`` timer interrupts the main thread after
every ``PERIOD_S`` seconds of the program's own time; the handler runs a fixed
reference kernel (about a millisecond of the kind of work the pipeline does: a
sparse coordinate-descent sweep and a longest-match dictionary segmentation)
and records how long it took. The handler's own time is subtracted from the
pass, and the pass's time is divided by how much slower than ``REFERENCE_S``
the kernel ran on average during it: the result is the pass's time at a fixed
reference speed, which a slow stretch of the host does not move but a slower
program does.

The kernel is part of the benchmark, not of the program, so no change to the
program changes it.  It allocates no objects that the garbage collector
tracks, so it does not move the program's collections.  Python runs signal
handlers only between bytecodes of the main thread: during a long call into C
a tick waits, and the program's system calls are restarted after it (PEP 475).
"""

from __future__ import annotations

import random
import signal
import time

PERIOD_S = 0.02
REFERENCE_S = 0.001   # the kernel's time at reference speed; sets the unit
_REPS = 15            # kernel repetitions per tick, about 1 ms on a 2020s x86 core


class SpeedSampler:
    """Context manager: samples the reference kernel's time every PERIOD_S."""

    def __init__(self) -> None:
        rng = random.Random(11)
        n_features = 3000
        self._rows = [sorted(rng.sample(range(n_features), rng.randint(3, 12)))
                      for _ in range(40)]
        self._ys = [1.0 if rng.random() < 0.6 else -1.0 for _ in self._rows]
        self._w = [0.0] * n_features
        words = ["".join(rng.choice("甲乙丙丁戊己庚辛壬癸") for _ in range(rng.randint(1, 4)))
                 for _ in range(400)]
        self._lexicon = dict.fromkeys(words[::2], 0)
        self._text = "".join(words[:60])
        self.ticks = 0
        self.kernel_rate = 0.0  # sum over ticks of the kernel's runs per second
        self.handler_s = 0.0    # time spent in the handler, kernel included
        self._active = False
        self._previous = None

    def kernel(self) -> float:
        """Run the reference kernel once; returns the seconds it took."""
        start = time.perf_counter()
        rows, ys, w = self._rows, self._ys, self._w
        text, lexicon = self._text, self._lexicon
        n_rows, n_text = len(rows), len(text)
        for _ in range(_REPS):
            for r in range(n_rows):
                idx = rows[r]
                s = 0.0
                for k in range(len(idx)):
                    s += w[idx[k]]
                delta = (1.0 - ys[r] * s) * 1e-9
                for k in range(len(idx)):
                    w[idx[k]] += delta
            i = 0
            while i < n_text:
                length = 4
                while length > 1 and text[i:i + length] not in lexicon:
                    length -= 1
                i += length
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        # a tick whose signal arrived as the sampler stopped must not re-arm
        # the timer: once the default action is back, the alarm would kill
        # the process
        if not self._active:
            return
        start = time.perf_counter()
        self.kernel_rate += 1.0 / self.kernel()
        self.ticks += 1
        self.handler_s += time.perf_counter() - start
        # one-shot, re-armed after the kernel: a tick never interrupts a tick,
        # and the ticks are spread evenly over the program's own time
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        """How many times slower than reference speed the program ran: 1.0 at
        reference speed.

        Progress at reference speed per second is 1 / slowdown, and the ticks
        are spread evenly over the program's time, so the mean slowdown over
        that time is the harmonic mean of the kernel's times over REFERENCE_S.
        """
        if not self.ticks:
            raise ValueError("no speed samples: the timed region was shorter than a tick")
        return self.ticks / (self.kernel_rate * REFERENCE_S)
