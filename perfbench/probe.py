"""How fast the host runs Python right now, to put timings on one scale.

On a shared host the same code runs up to 1.6 times slower for minutes
at a time, because other tenants load the processor; the benchmark's
processes see it as slower execution, not as waiting.  ``probe`` times
a fixed loop that stays in the first-level caches and allocates almost
nothing, so its time moves with the host's speed and not with anything
the simulator does.  A time ``t`` measured next to a probe ``p`` reads
``t * REFERENCE_S / p`` on the benchmark's scale: host seconds on a
host where the probe takes ``REFERENCE_S``, which is about how long it
takes on an idle 2-vCPU Xeon virtual machine.
"""

from __future__ import annotations

import time

#: The loop's length and how often it is timed.  ``REFERENCE_S`` holds
#: for these values only: changing either puts results on another scale.
ROUNDS = 150_000
REPEATS = 3
REFERENCE_S = 0.02


def probe() -> float:
    """Seconds of the fastest of ``REPEATS`` timings of the fixed loop."""
    best = float("inf")
    for _ in range(REPEATS):
        table = {i: i for i in range(256)}
        acc = 0
        start = time.perf_counter()
        for i in range(ROUNDS):
            key = i & 255
            table[key] = table[key] + 1
            acc ^= table[(key * 31) & 255]
        best = min(best, time.perf_counter() - start)
    return best
