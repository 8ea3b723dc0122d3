"""Lyndon word machinery against brute-force oracles."""
from itertools import product

import pytest

from kvlie.lyndon import (bracket_expansion, bracket_structure, is_lyndon,
                          lyndon_basis, lyndon_words, standard_factorization)


def brute_lyndon(n, length):
    """A word is Lyndon iff strictly smaller than all proper rotations."""
    out = []
    for w in product(range(n), repeat=length):
        if all(w < w[i:] + w[:i] for i in range(1, length)):
            out.append(w)
    return out


def test_enumeration_matches_brute_force():
    for n in (2, 3):
        for length in range(1, 6):
            assert sorted(lyndon_basis(n, length)) == brute_lyndon(n, length)


def test_witt_counts():
    # necklace counting: sum over d | m of d * count(d) = n^m
    for n in (2, 3):
        for m in range(1, 7):
            total = sum(d * len(lyndon_basis(n, d))
                        for d in range(1, m + 1) if m % d == 0)
            assert total == n ** m


def test_standard_factorization_property():
    # w = uv with v the smallest proper suffix; both halves are Lyndon
    for w in (w for d in (2, 3, 4, 5) for w in lyndon_basis(2, d)):
        u, v = standard_factorization(w)
        assert u + v == w
        assert is_lyndon(u) and is_lyndon(v)
        assert v == min(w[i:] for i in range(1, len(w)))


def test_bracket_expansion_triangular():
    # the expansion of the bracketing of a Lyndon word has coefficient 1
    # on the word itself and is supported on words >= it
    for length in range(1, 6):
        for w in lyndon_basis(2, length):
            exp = bracket_expansion(w)
            assert exp[w] == 1
            assert all(v >= w for v in exp)


def test_bracket_structure_leaves():
    for w in lyndon_basis(2, 4):
        struct = bracket_structure(w)

        def leaves(s):
            if isinstance(s, int):
                return (s,)
            return leaves(s[0]) + leaves(s[1])

        assert leaves(struct) == w


@pytest.mark.parametrize("letters", [0, -1])
def test_lyndon_words_need_a_letter(letters):
    # Duval's loop never ends on an empty alphabet
    with pytest.raises(ValueError):
        lyndon_words(letters, 3)


@pytest.mark.parametrize("max_len", [0, -1])
def test_lyndon_words_below_length_one_are_empty(max_len):
    # lengths 1..max_len is an empty range
    assert lyndon_words(2, max_len) == []
