"""C001 positive fixture: InferenceScore is a hot record."""

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class InferenceScore:  # line 8: frozen but not slotted
    rt: float


class _Chain(NamedTuple):
    codes: tuple


class SegmentChain(_Chain):  # line 16: a namedtuple's subclass has a dict
    pass
