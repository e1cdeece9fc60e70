"""D001 path-exemption fixture: tests may pin timing behaviour."""

import time
from time import perf_counter


def measure() -> float:
    start = perf_counter()
    _ = sum(range(1000))
    return time.time() - start
