#!/usr/bin/env python
"""Read numpy's ziggurat tables for the standard normal into a module.

Usage::

    python tools/ziggurat_tables.py > src/repro/workload/_ziggurat.py

numpy's normal sampler is the Marsaglia–Tsang ziggurat (JSS 5(8),
2000).  It splits one 64-bit word ``r`` from the bit generator into a
table index ``i = r & 0xff``, a sign bit ``(r >> 8) & 1`` and a 52-bit
``rabs = (r >> 9) & (2**52 - 1)``, and returns ``±rabs * wi[i]`` at once
whenever ``rabs < ki[i]``.  numpy ships no header with its 256-entry
``wi`` and ``ki`` tables, so this script reads them off the installed
numpy through public API alone: PCG64's ``state`` setter makes any
chosen word the next output, ``Generator.standard_normal()`` draws, and
the state read back after the draw tells whether it took one output
(the fast path) or more.

* ``ki[i]`` is the first ``rabs`` whose draw takes more than one output,
  found by bisection over ``[0, 2**52]`` (``2**52`` when every 52-bit
  ``rabs`` takes the fast path).
* ``wi[i]`` is the draw of ``rabs = 1``, which is ``1.0 * wi[i]``
  exactly.  An index whose ``ki`` is at most 1 returns it through the
  wedge test instead, which ``exp(-x*x/2) == 1`` accepts for such a
  tiny ``x``; the script checks that the draw took exactly two outputs.

The printed module holds both tables as read-only arrays and names no
numpy version, so the same tables print the same bytes under every
numpy that samples this way.  ``tests/workload/test_jitter_kernel.py``
checks that the checked-in module equals this script's output.
"""

from __future__ import annotations

import sys

#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1
MULT_INV = pow(MULT, -1, 1 << 128)
#: Any odd increment: the probe sets the state after each draw.
INC = 1
RABS_BITS = 52


class Probe:
    """``standard_normal()`` with a chosen first output word."""

    def __init__(self) -> None:
        from numpy.random import PCG64, Generator

        self.bitgen = PCG64()
        self.generator = Generator(self.bitgen)

    def draw(self, word: int) -> tuple[float, int]:
        """The draw whose first output is ``word``, and its output count.

        The LCG steps the state before each output, and PCG64's XSL-RR
        output of a state whose high half is 0 is its low half (the
        rotation is the top 6 bits), so the state one step before
        ``word`` is ``(word - INC) / MULT`` mod ``2**128``.  The count is
        1, 2 or "more" (3).
        """
        first = word
        self.bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": (first - INC) * MULT_INV & MASK128, "inc": INC},
            "has_uint32": 0,
            "uinteger": 0,
        }
        value = float(self.generator.standard_normal())
        end = self.bitgen.state["state"]["state"]
        if end == first:
            return value, 1
        return value, 2 if end == (first * MULT + INC) & MASK128 else 3


def word(index: int, rabs: int) -> int:
    """The output word of table index ``index``, sign +, and ``rabs``."""
    return rabs << 9 | index


def read_ki(probe: Probe, index: int) -> int:
    low, high = 0, 1 << RABS_BITS
    while low < high:
        mid = (low + high) // 2
        if probe.draw(word(index, mid))[1] == 1:
            low = mid + 1
        else:
            high = mid
    return low


def read_wi(probe: Probe, index: int, ki: int) -> float:
    value, outputs = probe.draw(word(index, 1))
    if outputs != (1 if ki > 1 else 2) or not value > 0.0:
        raise SystemExit(
            f"wi[{index}]: the draw of rabs 1 took {outputs} outputs and "
            f"returned {value!r}; this numpy does not sample the standard "
            f"normal by the ziggurat this script reads"
        )
    return value


def tables() -> tuple[list[int], list[float]]:
    """numpy's ``(ki, wi)``, each indexed by the word's low byte."""
    probe = Probe()
    ki = [read_ki(probe, index) for index in range(256)]
    wi = [read_wi(probe, index, ki[index]) for index in range(256)]
    return ki, wi


def render() -> str:
    """The source of ``repro/workload/_ziggurat.py``."""
    ki, wi = tables()
    lines = [
        '"""numpy\'s ziggurat tables for the standard normal (generated).',
        "",
        "Written by ``tools/ziggurat_tables.py``, which reads them off the",
        "installed numpy; do not edit.  A draw's 64-bit word ``r`` takes the",
        "fast path when ``rabs < KI[i]``, with ``i = r & 0xff`` and",
        "``rabs = (r >> 9) & (2**52 - 1)``; the draw is then ``rabs * WI[i]``,",
        "negated when bit 8 of ``r`` is set.",
        '"""',
        "",
        "import numpy as np",
        "",
        '__all__ = ["KI", "WI"]',
        "",
        "KI = np.array([",
    ]
    lines += [
        "    " + " ".join(f"0x{value:016X}," for value in ki[row:row + 4])
        for row in range(0, 256, 4)
    ]
    lines += ["], np.uint64)", "KI.flags.writeable = False", "", "WI = np.array(["]
    lines += [
        "    " + " ".join(f"{value!r}," for value in wi[row:row + 3])
        for row in range(0, 256, 3)
    ]
    lines += ["], np.float64)", "WI.flags.writeable = False", ""]
    return "\n".join(lines)


def main() -> int:
    sys.stdout.write(render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
