"""C001 negative fixture: a direct NamedTuple subclass is slotted."""

import typing
from typing import NamedTuple


class InferenceScore(NamedTuple):
    rt: float

    @property
    def overall(self) -> float:
        return self.rt


class ChainSuffix(typing.NamedTuple):
    start: int
