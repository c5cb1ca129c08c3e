"""Finite and periodic words over {1..k} selecting maps from a system.

A word drives a nonautonomous orbit: step i applies the map named by letter i.
Periodic words stand in for the infinite sequences every limit construction
needs; finite words are orbit prefixes.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Sequence

from .errors import Record


class WordMode(enum.Enum):
    FINITE = "finite"
    PERIODIC = "periodic"


class Word(Record):
    __slots__ = _fields = ("letters", "mode")

    def __init__(self, letters: Sequence[int], mode: WordMode = WordMode.FINITE):
        letters = tuple(letters)
        if any(type(c) is not int or c < 1 for c in letters):
            raise ValueError("letters are 1-based integer map indices")
        if mode is WordMode.PERIODIC and not letters:
            raise ValueError("a periodic word needs at least one letter")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def finite(cls, letters: Sequence[int]) -> "Word":
        return cls(letters, WordMode.FINITE)

    @classmethod
    def periodic(cls, letters: Sequence[int]) -> "Word":
        return cls(letters, WordMode.PERIODIC)

    @property
    def is_periodic(self) -> bool:
        return self.mode is WordMode.PERIODIC

    def __len__(self) -> int:
        return len(self.letters)

    def max_letter(self) -> int:
        return max(self.letters) if self.letters else 1

    def letter_at(self, i: int) -> int:
        """Letter of step i+1 (0-based); periodic words wrap around."""
        if i < 0:
            raise IndexError(i)
        if self.is_periodic:
            return self.letters[i % len(self.letters)]
        if i >= len(self.letters):
            raise IndexError(f"finite word of length {len(self.letters)} has no step {i + 1}")
        return self.letters[i]

    def supports_depth(self, n: int) -> bool:
        return self.is_periodic or n <= len(self.letters)

    def shift(self) -> "Word":
        """Drop the first letter; periodic words rotate."""
        if not self.letters:
            raise ValueError("cannot shift the empty word")
        if self.is_periodic:
            return Word(self.letters[1:] + self.letters[:1], WordMode.PERIODIC)
        return Word(self.letters[1:], WordMode.FINITE)

    @classmethod
    def from_json(cls, obj: dict) -> "Word":
        return cls(obj["letters"], WordMode(obj.get("mode", "finite")))

    def __str__(self) -> str:
        body = ",".join(str(c) for c in self.letters)
        return f"[{body}]" + ("~" if self.is_periodic else "")


def primitive_root(letters: tuple) -> tuple:
    """Shortest pattern whose repetition gives the letters."""
    n = len(letters)
    for length in range(1, n + 1):
        if n % length == 0 and letters == letters[:length] * (n // length):
            return letters[:length]
    return letters


def iter_periodic_words(k: int, max_period: int) -> Iterator[Word]:
    """Periodic words with primitive period <= max_period, deterministic order."""
    for length in range(1, max_period + 1):
        for letters in itertools.product(range(1, k + 1), repeat=length):
            if primitive_root(letters) == letters:
                yield Word.periodic(letters)
