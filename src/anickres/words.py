"""Weighted alphabets and words of the free monoid, with the degree-first
lexicographic (deglex) ordering.

A word is a plain tuple of letter indices: the index of a generator is its
position in the alphabet's rank order.  Hashing, equality, slicing and
concatenation of words are those of tuples.  Only the `Alphabet` knows
degrees, names and the order, so every comparison of words goes through
`Alphabet.sort_key`: total degree first; on ties, letter by letter from the
left, with a strict prefix counting as smaller (tuple order on the indices).
Because every generator has degree >= 1 this order is monoidal and artinian.
Generator objects appear only at the input/output boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    rank: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"generator {self.name} has degree {self.degree} < 1")

    def __repr__(self):
        return f"Generator({self.name!r}, deg={self.degree}, rank={self.rank})"


class Alphabet:
    """An ordered, weighted alphabet.  Generators are totally ordered by rank;
    letter i of a word is the i-th generator in that order."""

    def __init__(self, generators: Iterable[Generator]):
        gens = tuple(sorted(generators, key=lambda g: g.rank))
        ranks = [g.rank for g in gens]
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate generator ranks")
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.generators = gens
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._degrees = tuple(g.degree for g in gens)
        self.empty_word: Word = ()

    @classmethod
    def from_names(cls, names_degrees: Sequence[tuple[str, int]]) -> "Alphabet":
        """Build an alphabet assigning ranks by position."""
        return cls(Generator(name, deg, rank) for rank, (name, deg) in enumerate(names_degrees))

    def __len__(self):
        return len(self.generators)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __getitem__(self, index: int) -> Generator:
        """The generator of a letter index."""
        return self.generators[index]

    def generator(self, name: str) -> Generator:
        return self.generators[self.index(name)]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator name {name!r}") from None

    def word(self, *names: str) -> Word:
        return tuple(self.index(n) for n in names)

    def degree(self, w: Word) -> int:
        return sum(map(self._degrees.__getitem__, w))

    def sort_key(self, w: Word) -> tuple[int, Word]:
        """Deglex sort key: degree first, then the index tuple."""
        return (sum(map(self._degrees.__getitem__, w)), w)

    def format(self, w: Word) -> str:
        """Space-separated generator names; the empty word prints as 1."""
        if not w:
            return "1"
        gens = self.generators
        return " ".join(gens[i].name for i in w)


def find(w: Word, sub: Word, start: int = 0) -> int:
    """Index of the leftmost occurrence of `sub` in w at or after `start`, or -1."""
    m = len(sub)
    for i in range(start, len(w) - m + 1):
        if w[i : i + m] == sub:
            return i
    return -1


def contains(w: Word, sub: Word) -> bool:
    return find(w, sub) >= 0


def words_up_to_degree(alphabet: Alphabet, max_degree: int) -> list[Word]:
    """All words of degree <= max_degree, in deglex order."""
    letters = [((i,), g.degree) for i, g in enumerate(alphabet)]
    out = [alphabet.empty_word]
    frontier = [(alphabet.empty_word, 0)]
    while frontier:
        nxt = [
            (w + x, d + dx) for w, d in frontier for x, dx in letters if d + dx <= max_degree
        ]
        out.extend(w for w, _ in nxt)
        frontier = nxt
    out.sort(key=alphabet.sort_key)
    return out
