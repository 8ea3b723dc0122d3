"""Word algebra basics: arithmetic, exp/log, substitution."""
import operator
import random
from fractions import Fraction

import pytest

from kvlie.cyclic import CycSeries
from kvlie.lie import LieSeries
from kvlie.words import MAX_LETTERS, Alphabet, AmbientMismatch, AssocSeries


A2 = Alphabet(2)


def rand_series(rng, alphabet, degree, terms=6):
    table = {}
    for _ in range(terms):
        length = rng.randint(1, degree)
        word = tuple(rng.randrange(alphabet.n) for _ in range(length))
        table[word] = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    return AssocSeries(alphabet, degree, table)


def test_zero_pruning_and_equality():
    s = AssocSeries(A2, 3, {(0,): Fraction(1), (1,): Fraction(0)})
    t = AssocSeries(A2, 3, {(0,): Fraction(1)})
    assert s == t
    assert (0,) in s.coeffs and (1,) not in s.coeffs


def test_truncation_drops_long_words():
    s = AssocSeries(A2, 2, {(0, 1, 0): Fraction(1)})
    assert not s


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        AssocSeries(A2, 3, {(0,): 0.5})


@pytest.mark.parametrize("cls", [AssocSeries, LieSeries, CycSeries])
def test_ambient_mismatch(cls):
    s = cls(A2, 3, {(0,): Fraction(1)})
    for t in (cls(A2, 4, {(0,): Fraction(1)}), cls(Alphabet(3), 3, {(0,): Fraction(1)})):
        with pytest.raises(AmbientMismatch):
            s + t
        with pytest.raises(AmbientMismatch):
            s - t


KINDS = (AssocSeries, LieSeries, CycSeries)


@pytest.mark.parametrize("left,right", [(a, b) for a in KINDS for b in KINDS if a is not b],
                         ids=lambda cls: cls.__name__)
def test_mixed_kinds_rejected(left, right):
    # (0, 1) is a word, a Lyndon word and a rotation-minimal necklace
    s = left(A2, 3, {(0, 1): Fraction(1)})
    t = right(A2, 3, {(0, 1): Fraction(1)})
    for op in (operator.add, operator.sub):
        with pytest.raises(AmbientMismatch) as exc:
            op(s, t)
        assert left.__name__ in str(exc.value) and right.__name__ in str(exc.value)


def test_mul_associative_randomized():
    rng = random.Random(11)
    for _ in range(20):
        a = rand_series(rng, A2, 5)
        b = rand_series(rng, A2, 5)
        c = rand_series(rng, A2, 5)
        assert (a * b) * c == a * (b * c)


def test_mul_distributes():
    rng = random.Random(12)
    for _ in range(20):
        a = rand_series(rng, A2, 4)
        b = rand_series(rng, A2, 4)
        c = rand_series(rng, A2, 4)
        assert a * (b + c) == a * b + a * c


def test_exp_log_roundtrip():
    rng = random.Random(13)
    for _ in range(10):
        a = rand_series(rng, A2, 5)
        assert a.exp().log() == a


def test_exp_of_sum_for_commuting_elements():
    x = AssocSeries.generator(A2, 6, 0)
    # x commutes with itself, so exp(x) * exp(x) = exp(2x)
    assert x.exp() * x.exp() == x.scale(2).exp()


def test_substitute_is_algebra_map():
    rng = random.Random(14)
    a3 = Alphabet(3)
    for _ in range(10):
        a = rand_series(rng, A2, 4)
        b = rand_series(rng, A2, 4)
        images = [rand_series(rng, a3, 4), rand_series(rng, a3, 4)]
        assert (a * b).substitute(images) == \
            a.substitute(images) * b.substitute(images)
        assert (a + b).substitute(images) == \
            a.substitute(images) + b.substitute(images)


def test_substitute_identity():
    rng = random.Random(15)
    gens = [AssocSeries.generator(A2, 5, i) for i in range(2)]
    for _ in range(5):
        a = rand_series(rng, A2, 5)
        assert a.substitute(gens) == a


def test_word_name_roundtrip():
    assert A2.word_name((0, 1, 1)) == "xyy"
    assert A2.parse_word("xyy") == (0, 1, 1)
    a5 = Alphabet(5)
    w = (0, 4, 2)
    assert a5.parse_word(a5.word_name(w)) == w


def test_alphabet_size_is_bounded():
    assert Alphabet(MAX_LETTERS).names[-1] == f"x{MAX_LETTERS}"
    for n in (0, MAX_LETTERS + 1, 2_000_000):
        with pytest.raises(ValueError, match="generators"):
            Alphabet(n)
