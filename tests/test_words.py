import pytest

from anickres.words import (
    Alphabet,
    Generator,
    contains,
    find,
    words_up_to_degree,
)


@pytest.fixture
def alphabet():
    return Alphabet.from_names([("a", 1), ("b", 1), ("c", 2)])


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator("x", 0, 0)


def test_alphabet_uniqueness():
    with pytest.raises(ValueError):
        Alphabet([Generator("x", 1, 0), Generator("y", 1, 0)])
    with pytest.raises(ValueError):
        Alphabet([Generator("x", 1, 0), Generator("x", 1, 1)])


def test_alphabet_lookup(alphabet):
    assert alphabet.generator("a").degree == 1
    with pytest.raises(KeyError):
        alphabet.generator("z")
    assert len(alphabet) == 3
    assert alphabet[alphabet.index("c")] == alphabet.generator("c")


def test_alphabet_word_rejects_unknown_name(alphabet):
    with pytest.raises(KeyError, match="unknown generator name 'z'"):
        alphabet.word("a", "z")


def test_letter_index_is_the_rank_position():
    # ranks need not be contiguous: a letter is its position in rank order
    alpha = Alphabet([Generator("y", 1, 7), Generator("x", 2, 3)])
    assert alpha.word("x", "y") == (0, 1)
    assert alpha.degree(alpha.word("x", "y")) == 3


def test_word_degree_and_concat(alphabet):
    w = alphabet.word("a", "c", "b")
    assert alphabet.degree(w) == 4
    assert len(w) == 3
    v = alphabet.word("b")
    assert alphabet.format(w + v) == "a c b b"
    assert alphabet.degree(w + v) == 5


def test_deglex_degree_first(alphabet):
    # degree dominates: c (degree 2) beats any degree-1 word
    key, w = alphabet.sort_key, alphabet.word
    assert key(w("b")) < key(w("c"))
    assert key(w("a", "a")) < key(w("c"))
    assert key(w("c")) > key(w("a", "a"))
    # raw tuple order disagrees: it puts c above a a a, whose degree is larger
    assert w("c") > w("a", "a", "a")
    assert key(w("c")) < key(w("a", "a", "a"))


def test_deglex_left_to_right(alphabet):
    key, w = alphabet.sort_key, alphabet.word
    assert key(w("a", "b")) < key(w("b", "a"))
    assert key(w("a", "a")) < key(w("a", "b"))


def test_deglex_prefix_smaller():
    # equal degree, one a strict prefix of the other: prefix is smaller
    alpha = Alphabet.from_names([("x", 1), ("y", 2)])
    key = alpha.sort_key
    u, v = alpha.word("x", "x"), alpha.word("y")
    assert (key(u) < key(v)) != (key(v) < key(u))  # total
    w = alpha.word("x")
    assert key(w) != key(alpha.word("x", "y"))


def test_monoidal(alphabet):
    key = alphabet.sort_key
    u, v, w = alphabet.word("a"), alphabet.word("b"), alphabet.word("c", "a")
    assert key(u) < key(v)
    assert key(u + w) < key(v + w)
    assert key(w + u) < key(w + v)


def test_subword_search(alphabet):
    w = alphabet.word("a", "b", "a", "b")
    assert find(w, alphabet.word("b", "a")) == 1
    assert find(w, alphabet.word("b", "a"), 2) == -1
    assert contains(w, alphabet.word("a", "b"))
    assert not contains(w, alphabet.word("c"))


def test_slicing(alphabet):
    w = alphabet.word("a", "b", "c")
    assert w[:2] == alphabet.word("a", "b")
    assert w[1:] == alphabet.word("b", "c")
    assert alphabet[w[0]] == alphabet.generator("a")


def test_words_up_to_degree(alphabet):
    words = words_up_to_degree(alphabet, 2)
    # e; a, b; aa, ab, ba, bb, c
    assert len(words) == 8
    assert words[0] == ()
    degrees = [alphabet.degree(w) for w in words]
    assert degrees == sorted(degrees)
    keys = [alphabet.sort_key(w) for w in words]
    assert keys == sorted(keys)


def test_str(alphabet):
    assert alphabet.format(alphabet.word()) == "1"
    assert alphabet.format(alphabet.word("a", "c")) == "a c"
