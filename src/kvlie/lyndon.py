"""Lyndon words and their standard bracketings.

The Lie basis used everywhere in this package is the set of Lyndon words
with the Chen-Fox-Lyndon standard factorization bracketing.  Expanding a
bracketed Lyndon word in the word algebra gives the word itself plus
lexicographically larger words of the same multidegree, which makes the
word -> Lie conversion a triangular greedy elimination.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

Word = Tuple[int, ...]


def lyndon_words(n_letters: int, max_len: int) -> List[Word]:
    """All Lyndon words over 0..n_letters-1 of length 1..max_len (Duval)."""
    if n_letters < 1:
        raise ValueError("Lyndon words need at least one letter")
    out: List[Word] = []
    w = [-1] if max_len >= 1 else []
    while w:
        w[-1] += 1
        out.append(tuple(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[-m])
        while w and w[-1] == n_letters - 1:
            w.pop()
    return sorted(out, key=lambda word: (len(word), word))


def is_lyndon(word: Word) -> bool:
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def standard_factorization(word: Word) -> Tuple[Word, Word]:
    """Split a Lyndon word of length >= 2 as u.v with v the least proper suffix."""
    if len(word) < 2:
        raise ValueError("cannot factor a single letter")
    best = 1
    for i in range(2, len(word)):
        if word[i:] < word[best:]:
            best = i
    return word[:best], word[best:]


@lru_cache(maxsize=None)
def bracket_structure(word: Word):
    """Nested-pair form of the standard bracketing of a Lyndon word."""
    if len(word) == 1:
        return word[0]
    u, v = standard_factorization(word)
    return (bracket_structure(u), bracket_structure(v))


@lru_cache(maxsize=None)
def bracket_expansion(word: Word) -> Dict[Word, int]:
    """Expansion of the standard bracketing of a Lyndon word in the word
    algebra; its coefficients are integers (the word itself has 1)."""
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    left = bracket_expansion(u)
    right = bracket_expansion(v)
    table: Dict[Word, int] = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            table[w1 + w2] = table.get(w1 + w2, 0) + c1 * c2
            table[w2 + w1] = table.get(w2 + w1, 0) - c1 * c2
    return {w: c for w, c in table.items() if c}


def lyndon_basis(n_letters: int, degree: int) -> List[Word]:
    """Lyndon words of exactly the given length, sorted lexicographically."""
    return [w for w in lyndon_words(n_letters, degree) if len(w) == degree]
