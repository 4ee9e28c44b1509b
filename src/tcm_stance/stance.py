"""Binary stance labels shared across the pipeline."""

from __future__ import annotations

import enum


class Stance(enum.Enum):
    SUPPORTING = "support"
    OPPOSING = "oppose"

    def __init__(self, wire: str) -> None:
        # the on-disk spelling, a plain attribute: every written row reads it
        self.wire = wire

    @classmethod
    def from_wire(cls, word: str) -> "Stance":
        """Parse the on-disk spelling ("support" / "oppose")."""
        try:
            return _BY_WIRE[word]
        except (KeyError, TypeError):
            raise ValueError(f"unknown stance word: {word!r}") from None

    def other(self) -> "Stance":
        return Stance.OPPOSING if self is Stance.SUPPORTING else Stance.SUPPORTING


_BY_WIRE = {stance.value: stance for stance in Stance}
