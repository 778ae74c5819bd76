"""Segment-level handling of the unified Mapuche alphabet (AMU).

Surface strings are sequences of segments, not characters: the digraphs
ng, ll, ch, tr and sh each count as one segment, and ü is a plain vowel.
All boundary phonology (allomorph selection, sandhi, prothesis) is stated
over segments, so everything else in the package goes through here.
"""

from __future__ import annotations

# Digraphs are matched greedily, before single letters.
DIGRAPHS = ("ch", "ll", "ng", "sh", "tr")

VOWELS = frozenset("aeiouü")

SINGLE_LETTERS = frozenset("adefgiklmnñoprstuüwy")


class AlphabetError(ValueError):
    """Raised when a string contains a character outside the alphabet."""

    def __init__(self, char: str, text: str):
        self.char = char
        self.text = text
        super().__init__(f"unknown character {char!r} in {text!r}")


def segments(text: str) -> list[str]:
    """Split a surface string into alphabet segments (greedy digraphs)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        two = text[i:i + 2]
        if two in DIGRAPHS:
            out.append(two)
            i += 2
            continue
        one = text[i]
        if one in SINGLE_LETTERS:
            out.append(one)
            i += 1
            continue
        raise AlphabetError(one, text)
    return out


def is_valid(text: str) -> bool:
    try:
        segments(text)
    except AlphabetError:
        return False
    return True


def is_vowel(segment: str) -> bool:
    return segment in VOWELS


def final_segment(text: str) -> str:
    """Last segment of a non-empty surface string."""
    if not text:
        raise ValueError("empty surface string has no final segment")
    return segments(text)[-1]
