"""Weighted alphabets and words of the free monoid, with the degree-first
lexicographic (deglex) ordering.

A word compares by total degree first; on ties, letter by letter from the
left using the generator ranks, with a strict prefix counting as smaller.
Because every generator has degree >= 1 this order is monoidal and artinian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence


class AlphabetMismatchError(ValueError):
    """Raised when values from different alphabets are combined."""


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
    """An ordered, weighted alphabet.  Generators are totally ordered by rank."""

    def __init__(self, generators: Iterable[Generator]):
        gens = tuple(sorted(generators, key=lambda g: g.rank))
        ranks = [g.rank for g in gens]
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate generator ranks")
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.generators = gens
        self._by_name = {g.name: g for g in gens}
        self.empty_word = Word(())

    @classmethod
    def from_names(cls, names_degrees: Sequence[tuple[str, int]]) -> "Alphabet":
        """Build an alphabet assigning ranks by position."""
        return cls(Generator(name, deg, rank) for rank, (name, deg) in enumerate(names_degrees))

    def __len__(self):
        return len(self.generators)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __contains__(self, g: Generator) -> bool:
        return self._by_name.get(g.name) == g

    def generator(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown generator name {name!r}") from None

    def word(self, *names: str) -> "Word":
        return Word(tuple(self.generator(n) for n in names))

    def parse_word(self, text: str) -> "Word":
        """Whitespace-separated generator names; '' or '1' is the empty word."""
        text = text.strip()
        if text in ("", "1", "e"):
            return self.empty_word
        return self.word(*text.split())


class Word:
    """An element of the free monoid: a finite sequence of generators.

    A word carries its degree and its rank tuple, derived once from the
    letters; concatenation and slicing pass them on without revisiting the
    generators.  Hashing, ordering and subword search read the rank tuple,
    which identifies a word within one alphabet; equality also compares the
    letters, so words over different alphabets stay apart.
    """

    __slots__ = ("letters", "degree", "ranks", "_hash")

    def __init__(self, letters: tuple[Generator, ...]):
        self.letters = letters
        self.degree = sum(g.degree for g in letters)
        self.ranks = tuple(g.rank for g in letters)
        self._hash = hash(self.ranks)

    @classmethod
    def _of(cls, letters: tuple[Generator, ...], degree: int, ranks: tuple[int, ...]) -> "Word":
        """A word from parts already known to agree with `letters`."""
        w = object.__new__(cls)
        w.letters = letters
        w.degree = degree
        w.ranks = ranks
        w._hash = hash(ranks)
        return w

    def sort_key(self):
        """Deglex sort key: words compare equal iff the keys do (one alphabet)."""
        return (self.degree, self.ranks)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, item):
        if isinstance(item, slice):
            letters = self.letters[item]
            return Word._of(letters, sum(g.degree for g in letters), self.ranks[item])
        return self.letters[item]

    def __mul__(self, other: "Word") -> "Word":
        if not other.letters:
            return self
        if not self.letters:
            return other
        return Word._of(
            self.letters + other.letters,
            self.degree + other.degree,
            self.ranks + other.ranks,
        )

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Word)
            and self.ranks == other.ranks
            and self.letters == other.letters
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Word"):
        return deglex_compare(self, other) < 0

    def __le__(self, other: "Word"):
        return deglex_compare(self, other) <= 0

    def __gt__(self, other: "Word"):
        return deglex_compare(self, other) > 0

    def __ge__(self, other: "Word"):
        return deglex_compare(self, other) >= 0

    def is_empty(self) -> bool:
        return not self.letters

    def find(self, sub: "Word", start: int = 0) -> int:
        """Index of the leftmost occurrence of `sub` at or after `start`, or -1."""
        ranks, target = self.ranks, sub.ranks
        m = len(target)
        for i in range(start, len(ranks) - m + 1):
            if ranks[i : i + m] == target:
                return i
        return -1

    def contains(self, sub: "Word") -> bool:
        return self.find(sub) >= 0

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(g.name for g in self.letters)

    def __repr__(self):
        return f"Word({self})"


def word_of(*gens: Generator) -> Word:
    return Word(tuple(gens))


def concat(words: Iterable[Word]) -> Word:
    return reduce(lambda a, b: a * b, words, Word(()))


def deglex_compare(u: Word, v: Word) -> int:
    """-1, 0 or +1: degree first, then leftmost rank difference, prefix smaller.

    Raises AlphabetMismatchError when the two words agree in ranks up to
    their first difference but not in letters.
    """
    if u.degree != v.degree:
        return -1 if u.degree < v.degree else 1
    ru, rv = u.ranks, v.ranks
    n = 0
    for a, b in zip(ru, rv):
        if a != b:
            break
        n += 1
    if u.letters[:n] != v.letters[:n]:
        raise AlphabetMismatchError(f"words {u} and {v} share ranks but not letters")
    if n < len(ru) and n < len(rv):
        return -1 if ru[n] < rv[n] else 1
    if len(ru) == len(rv):
        return 0
    return -1 if len(ru) < len(rv) else 1


def words_up_to_degree(alphabet: Alphabet, max_degree: int) -> list[Word]:
    """All words of degree <= max_degree, in deglex order."""
    singles = [word_of(g) for g in alphabet]
    out = [alphabet.empty_word]
    frontier = [alphabet.empty_word]
    while frontier:
        nxt = []
        for w in frontier:
            for g in singles:
                if w.degree + g.degree <= max_degree:
                    nxt.append(w * g)
        out.extend(nxt)
        frontier = nxt
    out.sort(key=Word.sort_key)
    return out
