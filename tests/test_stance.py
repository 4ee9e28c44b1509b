"""Stance labels and their on-disk spelling."""

from __future__ import annotations

import pytest

from tcm_stance.stance import Stance


def test_from_wire_reads_both_spellings():
    assert Stance.from_wire("support") is Stance.SUPPORTING
    assert Stance.from_wire("oppose") is Stance.OPPOSING
    for stance in Stance:
        assert Stance.from_wire(stance.wire) is stance


@pytest.mark.parametrize("word", ["meh", "Support", " support", "", 1, None, 1.5,
                                  ["support"], {"support": 1}, {"oppose"}])
def test_from_wire_rejects_anything_else(word):
    with pytest.raises(ValueError, match=r"^unknown stance word: "):
        Stance.from_wire(word)
