"""Speed reference: how much slower than its quiet self is this box, now?

The box is a 2-vCPU guest whose neighbours slow it by 1.2-2x for spells
of seconds to hours.  CPU time inflates with wall time and steal time
stays near zero, so from inside the guest the only sign is that
everything runs slower (numbers in README.md).  ``SpeedReference.sample``
times a fixed loop of the program's instruction mix (small sorted-array
intersections in numpy, set and dict work in the interpreter); the
harness takes a reading on both sides of every timed pass and divides
the pass's wall time by ``reading / QUIET_S``.
"""

from __future__ import annotations

import time

import numpy as np

#: Floor of ``sample()`` on the builder's box (quiet runs read 0.97-1.03
#: of it); it only fixes the scale: at this speed one reported second is
#: one wall second.
QUIET_S = 0.0046
#: Readings on each side of a pass.
READINGS = 3


class SpeedReference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._sorted = np.sort(rng.choice(1 << 20, 1 << 16, replace=False))
        self._list = self._sorted[:20000].tolist()
        self._keys = set(self._sorted[::3].tolist())

    def sample(self) -> float:
        """Seconds the fixed loop took."""
        ids, keys = self._sorted, self._keys
        start = time.perf_counter()
        hits = 0
        for i in range(0, 24000, 30):
            hits += len(np.intersect1d(ids[i:i + 96], ids[i + 48:i + 160],
                                       assume_unique=True))
        seen = {}
        for x in self._list:
            if x in keys:
                seen[x] = hits
        return time.perf_counter() - start

    def slowdown(self) -> float:
        """Mean of ``READINGS`` readings over the quiet floor (1.0 = quiet)."""
        return sum(self.sample() for _ in range(READINGS)) / READINGS / QUIET_S
