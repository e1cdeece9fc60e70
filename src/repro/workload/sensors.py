"""Input sources of a metaverse device (paper Table 3).

Three sensors feed the unit models: a camera (images, 60 FPS), a lidar
(sparse depth points, 60 FPS) and a microphone (audio segments, 3 FPS).
Each data frame arrives with a small jitter around its nominal streaming
time; Definition 7 formalises the jittered request time as

    Treq = Linit + frame_id / FPS + 2*Jt*(Dist(rand(...)) - 0.5)

with ``Dist`` a distribution over [0, 1] (Gaussian by default in the paper;
we use a clipped Gaussian) and ``rand`` a deterministic function of the
sensor and frame id, so a run is reproducible for a given seed.

Jitter is computed in blocks of (sensor, frames, seeds), any number of
them in one kernel call (:func:`jitter_blocks_s`); the one-frame
accessors are the block of one.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np
import numpy.typing as npt

from ._ziggurat import KI, WI

__all__ = [
    "InputSource", "CAMERA", "LIDAR", "MICROPHONE", "SENSORS", "get_sensor",
    "jitter_blocks_s",
]

IntArray = npt.NDArray[np.int64]
FloatArray = npt.NDArray[np.float64]
WordArray = npt.NDArray[np.uint64]

# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_multipliers(
    init: int, mult: int, count: int
) -> tuple[npt.NDArray[np.uint32], npt.NDArray[np.uint32]]:
    """The multiplier before and after each of ``count`` hash steps.

    SeedSequence multiplies its hash constant by ``mult`` at every step,
    whatever the data, so the schedule is the same for every seed.
    """
    before, after = [], []
    value = init
    for _ in range(count):
        before.append(value)
        value = value * mult & 0xFFFFFFFF
        after.append(value)
    return (
        np.array(before, np.uint32)[:, None],
        np.array(after, np.uint32)[:, None],
    )


#: Pool mixing: 4 entropy words, then 3 cross mixes from each pool word.
_MIX_BEFORE, _MIX_AFTER = _hash_multipliers(_INIT_A, _MULT_A, 16)
#: Output: 8 uint32 words (4 uint64), drawn cyclically from the pool.
_OUT_BEFORE, _OUT_AFTER = _hash_multipliers(_INIT_B, _MULT_B, 8)
_OTHERS = tuple([d for d in range(4) if d != src] for src in range(4))


def _seed_words(entropy: npt.NDArray[np.uint32]) -> npt.NDArray[np.uint64]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for many seeds.

    ``entropy`` holds each seed ``s < 2**64`` as a row of its low and high
    32-bit words.  numpy pads a seed's entropy to the 4-word pool with
    zeros, and a seed below ``2**32`` (one word) hashes exactly like
    ``[s, 0]``, so every row takes the same path.  The arithmetic is
    SeedSequence's own, on uint32 arrays (wrapping like its C code).
    Within one source word's cross mixes that word does not change, so
    its three mixes are one array step.  Returns ``(len(entropy), 4)``
    C-contiguous rows, each what PCG64 asks its seed sequence for.
    """
    pool = np.zeros((4, len(entropy)), np.uint32)
    pool[:2] = entropy.T
    pool = (pool ^ _MIX_BEFORE[:4]) * _MIX_AFTER[:4]
    pool ^= pool >> _XSHIFT
    for src, others in enumerate(_OTHERS):
        step = slice(4 + 3 * src, 7 + 3 * src)
        hashed = (pool[src] ^ _MIX_BEFORE[step]) * _MIX_AFTER[step]
        hashed ^= hashed >> _XSHIFT
        mixed = pool[others] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[others] = mixed ^ (mixed >> _XSHIFT)
    out = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUT_BEFORE) * _OUT_AFTER
    out ^= out >> _XSHIFT
    words = np.ascontiguousarray(out.T).view("<u8")
    return words.astype(np.uint64, copy=False)


def _column(*values: int) -> WordArray:
    """A read-only uint64 column of shape ``(len(values), 1)``."""
    column = np.array(values, np.uint64)[:, None]
    column.flags.writeable = False
    return column


# PCG64's seeding steps its 128-bit LCG (multiplier ``_M``, pcg64.h) once
# from ``inc + seed``, and each output steps it again, so the state behind
# the first output is ``seed * M**2 + inc * (M**2 + M + 1)`` mod 2**128.
# Row 0 of each column below holds the seed's factor, row 1 the
# increment's; ``_INC_SHIFT`` makes ``inc = seq << 1 | 1`` of row 1.
_M = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_FACTOR = _M * _M % 2**128
_INC_FACTOR = (_M * _M + _M + 1) % 2**128
_FACTOR_HI = _column(_SEED_FACTOR >> 64, _INC_FACTOR >> 64)
_FACTOR_LO = _column(_SEED_FACTOR % 2**64, _INC_FACTOR % 2**64)
_FACTOR_LO_HI = _column(_SEED_FACTOR % 2**64 >> 32, _INC_FACTOR % 2**64 >> 32)
_FACTOR_LO_LO = _column(_SEED_FACTOR % 2**32, _INC_FACTOR % 2**32)
_INC_SHIFT = _column(0, 1)
_LOW32 = np.uint64(0xFFFFFFFF)
_U1, _U8, _U9, _U32, _U58, _U63, _U64 = (
    np.uint64(n) for n in (1, 8, 9, 32, 58, 63, 64)
)
_INDEX_MASK = np.uint64(0xFF)
_RABS_MASK = np.uint64(2**52 - 1)


def _pcg64_first_outputs(words: WordArray) -> WordArray:
    """The first ``random_raw()`` of PCG64 seeded with each row of words.

    PCG64 (O'Neill, HMC-CS-2014-0905) reads a row ``[s0, s1, i0, i1]``
    as a 128-bit seed ``(s0:s1)`` and sequence ``(i0:i1)``; the state
    behind its first output is the affine map above, and the output is
    the XSL-RR of that state: its halves xored, rotated right by its top
    six bits.  The seed and increment ride as the two rows of ``(2, n)``
    arrays through one 128-bit multiply, whose products wrap except the
    carry out of the low halves, rebuilt from their 32-bit halves.
    """
    pairs = words.reshape(-1, 2, 2).transpose(1, 2, 0)
    hi, lo = pairs[:, 0], pairs[:, 1]
    hi = hi << _INC_SHIFT | lo >> _U63 & _INC_SHIFT
    lo = lo << _INC_SHIFT | _INC_SHIFT
    lo_lo, lo_hi = lo & _LOW32, lo >> _U32
    p_ll, p_lh = lo_lo * _FACTOR_LO_LO, lo_lo * _FACTOR_LO_HI
    p_hl = lo_hi * _FACTOR_LO_LO
    mid = (p_ll >> _U32) + (p_lh & _LOW32) + (p_hl & _LOW32)
    hi = (
        lo_hi * _FACTOR_LO_HI + (p_lh >> _U32) + (p_hl >> _U32)
        + (mid >> _U32) + lo * _FACTOR_HI + hi * _FACTOR_LO
    )
    lo = lo * _FACTOR_LO
    state_lo = lo[0] + lo[1]
    state_hi = hi[0] + hi[1] + (state_lo < lo[1])
    out = state_hi ^ state_lo
    rotate = state_hi >> _U58
    return out >> rotate | out << ((_U64 - rotate) & _U63)


def _ziggurat_fast_path(
    outputs: WordArray,
) -> tuple[FloatArray, npt.NDArray[np.bool_]]:
    """numpy's ``normal(0.5, 1/6)`` from each word, where one word decides.

    numpy's standard normal is the Marsaglia–Tsang ziggurat (JSS 5(8),
    2000): a word ``r`` splits into a table index ``r & 0xff``, a sign
    bit and a 52-bit ``rabs``, and ``x = ±rabs * WI[index]`` is the draw
    whenever ``rabs < KI[index]``; ``normal`` returns ``0.5 + (1/6) *
    x``.  Returns that value for every word and a mask of the words that
    took the fast path.  The others (about 1.5%: index 0's tail, index
    1, whose ``KI`` is 0, and the wedge tests) hold no draw.
    """
    index = (outputs & _INDEX_MASK).astype(np.intp)
    rabs = outputs >> _U9 & _RABS_MASK
    x = rabs * WI[index]
    np.negative(x, out=x, where=(outputs >> _U8 & _U1).astype(bool))
    return 0.5 + (1.0 / 6.0) * x, rabs < KI[index]


@functools.cache
def _seeded_normal() -> Callable[[npt.NDArray[np.uint64]], float]:
    """``Generator(PCG64(words)).normal(0.5, 1/6)`` for one row of words.

    The draws off the ziggurat's fast path take this route.  Built on
    first use, so importing the package does not import ``numpy.random``.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):  # type: ignore[misc]
        """Seed words computed ahead of time by :func:`_seed_words`."""

        def __init__(self, words: npt.NDArray[np.uint64]) -> None:
            self.words = words

        def generate_state(
            self, n_words: int, dtype: Any = np.uint32
        ) -> npt.NDArray[np.uint64]:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"precomputed seed words are 4 x uint64, not "
                    f"{n_words} x {dtype}"
                )
            return self.words

    def draw(words: npt.NDArray[np.uint64]) -> float:
        normal: float = Generator(PCG64(SeedWords(words))).normal(
            0.5, 1.0 / 6.0
        )
        return normal

    return draw


#: Jitter keys in a block: ``(name, frames, seeds)`` stands for the key
#: ``f"{name}:{frame}:{seed}"`` of every frame under every seed,
#: seed-major.
JitterBlock = tuple[str, Sequence[int], Sequence[int]]
#: Keys per pass of the array arithmetic: whatever the batch size, a pass
#: holds its temporaries to a few hundred kB.
_CHUNK = 4096


def _jitter_units(blocks: Iterable[JitterBlock]) -> FloatArray:
    """The clipped-Gaussian draws ``u`` of blocks of jitter keys.

    Each draw is exactly
    ``clip(default_rng(int.from_bytes(sha256(key)[:8], "little"))
    .normal(0.5, 1/6), 0, 1)`` for ``key = f"{name}:{frame}:{seed}"``:
    a pure function of its key, so frames, seeds and blocks are
    order-independent.  The draws come back block by block, each
    seed-major (reshape a block's to ``(len(seeds), len(frames))``).
    One sha256 pass, which encodes each frame's key prefix once per
    block, feeds uint array arithmetic over every key at once: the
    seed-sequence hashing (:func:`_seed_words`), PCG64's seeding and
    first output (:func:`_pcg64_first_outputs`) and the ziggurat's fast
    path (:func:`_ziggurat_fast_path`), whose tables
    ``tools/ziggurat_tables.py`` read off numpy into ``_ziggurat.py``.
    The 1.5% of draws off the fast path seed a generator with their
    words and run numpy's own sampler.  The array passes have a fixed
    cost, so a run draws every schedule it plans in one call
    (:func:`repro.workload.loadgen.root_schedules`), degrade phases one
    at a time: a cold 256-session ``vr_gaming`` run makes one call of
    30,720 keys, 28 ms, where it made 256 calls of 120 keys at 0.22 ms
    each (one key alone takes 0.16 ms; numpy 2.4.6, CPython 3.11.7,
    2-core Intel Xeon).
    """
    sha256 = hashlib.sha256
    digests: list[bytes] = []
    for name, frames, seeds in blocks:
        prefixes = [f"{name}:{frame}:".encode() for frame in frames]
        digests += [
            b"".join([
                sha256(prefix + suffix).digest()[:8] for prefix in prefixes
            ])
            for suffix in [str(seed).encode() for seed in seeds]
        ]
    entropy = np.frombuffer(b"".join(digests), "<u4").reshape(-1, 2)
    units = np.empty(len(entropy))
    for start in range(0, len(entropy), _CHUNK):
        words = _seed_words(entropy[start:start + _CHUNK])
        chunk, fast = _ziggurat_fast_path(_pcg64_first_outputs(words))
        slow = np.flatnonzero(~fast).tolist()
        if slow:
            draw = _seeded_normal()
            for row in slow:
                chunk[row] = draw(words[row])
        units[start:start + _CHUNK] = chunk
    return np.minimum(np.maximum(units, 0.0, out=units), 1.0, out=units)


@dataclass(frozen=True)
class InputSource:
    """A sensor stream (``sigma`` in Definition 1).

    Attributes:
        name: ``inSrcID`` — the sensor identifier.
        input_type: human-readable payload description (Table 3).
        fps: nominal streaming rate in frames per second.
        jitter_ms: maximum absolute jitter ``Jt`` in milliseconds.
        init_latency_ms: ``Linit``, the stream's setup latency.
    """

    name: str
    input_type: str
    fps: float
    jitter_ms: float
    init_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError(f"sensor fps must be > 0, got {self.fps}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter_ms}")
        if self.init_latency_ms < 0:
            raise ValueError(
                f"init latency must be >= 0, got {self.init_latency_ms}"
            )

    @property
    def period_s(self) -> float:
        """Nominal seconds between consecutive frames."""
        return 1.0 / self.fps

    def nominal_arrivals_s(self, frame_ids: IntArray) -> FloatArray:
        """Unjittered arrival times of ``frame_ids`` (seconds)."""
        if (frame_ids < 0).any():
            raise ValueError(f"frame_id must be >= 0, got {frame_ids.min()}")
        return self.init_latency_ms / 1e3 + frame_ids / self.fps

    def arrivals_from_s(
        self, frame_ids: IntArray, jitters_s: FloatArray | float
    ) -> FloatArray:
        """Arrival times of ``frame_ids`` given their jitter (Definition 7).

        ``jitters_s`` may carry leading axes, such as one row per seed
        (:func:`jitter_blocks_s`).  Clamped at zero: a frame cannot
        arrive before the stream starts.
        """
        times = self.nominal_arrivals_s(frame_ids) + jitters_s
        return np.where(times > 0.0, times, 0.0)

    def nominal_arrival_s(self, frame_id: int) -> float:
        """Unjittered arrival time of one frame (seconds)."""
        return float(self.nominal_arrivals_s(np.array([frame_id]))[0])

    def jitter_s(self, frame_id: int, seed: int = 0) -> float:
        """Deterministic jitter of one frame in seconds.

        The block of one of :func:`jitter_blocks_s`.
        """
        (jitter,) = jitter_blocks_s([(self, np.array([frame_id]), (seed,))])
        return float(jitter[0, 0])

    def arrival_s(self, frame_id: int, seed: int = 0) -> float:
        """Jittered arrival time of one frame (Definition 7), seconds."""
        frame_ids = np.array([frame_id])
        jitter = self.jitter_s(frame_id, seed)
        return float(self.arrivals_from_s(frame_ids, jitter)[0])

CAMERA = InputSource("camera", "Images", fps=60.0, jitter_ms=0.05)
LIDAR = InputSource("lidar", "Sparse Depth Points", fps=60.0, jitter_ms=0.05)
MICROPHONE = InputSource("microphone", "Audio", fps=3.0, jitter_ms=0.1)

SENSORS: dict[str, InputSource] = {
    s.name: s for s in (CAMERA, LIDAR, MICROPHONE)
}


def jitter_blocks_s(
    blocks: Sequence[tuple[InputSource, IntArray, Sequence[int]]],
) -> list[FloatArray]:
    """Deterministic jitter of (sensor, frame ids, seeds) blocks, seconds.

    Block ``(sensor, frame_ids, seeds)`` gets a ``(len(seeds),
    len(frame_ids))`` matrix whose row ``i`` is the jitter under
    ``seeds[i]``: ``2*Jt*(u - 0.5)``, where ``u`` is drawn from a
    Gaussian centred at 0.5 (sigma 1/6) clipped to [0, 1] and seeded by
    a stable hash of (sensor, frame, seed), so every harness component
    observing a frame sees the same arrival time.  Every block's draws
    come from one :func:`_jitter_units` call; a sensor without jitter
    draws nothing.
    """
    units = _jitter_units([
        (sensor.name, frame_ids.tolist(), seeds)
        for sensor, frame_ids, seeds in blocks
        if sensor.jitter_ms != 0.0
    ])
    jitters: list[FloatArray] = []
    start = 0
    for sensor, frame_ids, seeds in blocks:
        shape = (len(seeds), len(frame_ids))
        if sensor.jitter_ms == 0.0:
            jitters.append(np.zeros(shape))
            continue
        stop = start + shape[0] * shape[1]
        u = units[start:stop].reshape(shape)
        jitters.append(2.0 * (sensor.jitter_ms / 1e3) * (u - 0.5))
        start = stop
    return jitters


def get_sensor(name: str) -> InputSource:
    """Look up a sensor by ``inSrcID``; raises ``KeyError`` with options."""
    try:
        return SENSORS[name]
    except KeyError:
        raise KeyError(
            f"unknown sensor {name!r}; available: {sorted(SENSORS)}"
        ) from None
