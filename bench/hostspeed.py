"""Host-speed probe: how much slower than nominal is the host right now?

This host's speed moves by ±25 % in phases that last from seconds to
minutes (a shared VM: the same repetition reads 2.3 s and 3.7 s a minute
apart, CPU time tracking wall, no steal).  Best-of-N inside one 20 s run
cannot filter a phase longer than the run.  What it can do is *measure*
the phase: a fixed kernel with no ``repro`` code in it — interpreter
dispatch and dict traffic, dependent loads over a few MB, and numpy
sort/unique — is timed right before and right after every repetition.
Its time ÷ ``NOMINAL_S`` is the repetition's slowdown, and the
repetition's times are divided by it.  On the sizing runs this cut the
spread of single repetitions from 26 % to 8 % (``campus_sparse``), 16 %
to 8 % (``college_mixed``) and 11 % to 7 % (``service_thread``).

The probe allocates nothing the cyclic GC tracks, so it adds nothing to
the collections the workload pays for.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe seconds on a quiet host of this repository's VM class (the floor
#: seen over the sizing runs).  Another host class rescales every timing
#: metric by one constant; results are only compared within a fingerprint.
NOMINAL_S = 0.095

_STEPS = 60_000
_CHAIN = 1 << 18


class HostSpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # One random cycle over _CHAIN slots: every load depends on the last.
        order = rng.permutation(_CHAIN)
        chain = np.empty(_CHAIN, dtype=np.int64)
        chain[order] = np.roll(order, -1)
        self._chain = chain.tolist()
        self._keys = (np.arange(250_000, dtype=np.int64) * 2654435761) & 0xFFFFF
        self.seconds()  # the first pass pays for cold caches, not host speed

    def seconds(self) -> float:
        """One probe: ~0.1 s of fixed work, timed."""
        start = time.perf_counter()
        counts: dict = {}
        get = counts.get
        for index in range(_STEPS):
            key = (index * 2654435761) & 0xFFFF
            counts[key] = get(key, 0.0) + 1.0
        chain = self._chain
        slot = 0
        for _ in range(_STEPS):
            slot = chain[slot]
        keys = self._keys.copy()
        keys.sort()
        np.unique(keys)
        return time.perf_counter() - start
