"""Invariants of the exact kernel.

Validation happens once, in the public constructors; arithmetic builds
its results without re-checking them.  These tests pin both halves: the
public checks still reject bad input, and no arithmetic result carries a
zero coefficient, an over-long word or a key the public constructor would
refuse.
"""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvlie.cyclic import CycSeries, canonical_rotation, partial_decompose, tr_project
from kvlie.derivations import TDer
from kvlie.lie import LieSeries
from kvlie.lyndon import bracket_structure, is_lyndon, lyndon_words
from kvlie.words import Alphabet, AssocSeries, NotPrimitiveError

A2 = Alphabet(2)
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- public constructors ------------------------------------------------


@pytest.mark.parametrize("cls", [AssocSeries, LieSeries, CycSeries])
def test_float_coefficient_rejected(cls):
    with pytest.raises(TypeError):
        cls(A2, 3, {(0,): 0.5})
    with pytest.raises(TypeError):
        cls(A2, 3, {(0,): Fraction(1)}).scale(0.5)


@pytest.mark.parametrize("cls", [AssocSeries, LieSeries, CycSeries])
def test_out_of_alphabet_word_rejected(cls):
    with pytest.raises(ValueError):
        cls(A2, 3, {(0, 2): Fraction(1)})


def test_non_lyndon_key_rejected():
    with pytest.raises(ValueError):
        LieSeries(A2, 3, {(1, 0): Fraction(1)})


def test_non_rotation_minimal_necklace_rejected():
    with pytest.raises(ValueError):
        CycSeries(A2, 3, {(1, 0): Fraction(1)})


@pytest.mark.parametrize("first, second",
                         list(itertools.combinations([AssocSeries, LieSeries, CycSeries], 2)))
def test_kinds_with_the_same_table_are_unequal(first, second):
    table = {(0,): Fraction(1), (0, 1): Fraction(-2, 3)}
    a, b = first(A2, 3, table), second(A2, 3, table)
    assert a.coeffs == b.coeffs
    assert a != b and b != a


# -- arithmetic results ---------------------------------------------------

fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def assoc_series(draw, n, degree, with_unit=False):
    words = st.lists(st.integers(0, n - 1), min_size=0 if with_unit else 1,
                     max_size=degree).map(tuple)
    table = draw(st.dictionaries(words, fractions, max_size=8))
    return AssocSeries(Alphabet(n), degree, table)


def assert_clean(s, degree, kind):
    """Exactly of class ``kind``, every key valid for it, no zero, nothing
    above the truncation."""
    assert type(s) is kind
    assert s.degree == degree
    for w, c in s.coeffs.items():
        assert isinstance(c, Fraction) and c != 0
        assert len(w) <= degree
        assert all(0 <= i < s.alphabet.n for i in w)
        if isinstance(s, LieSeries):
            assert is_lyndon(w)
        if isinstance(s, CycSeries):
            assert w == canonical_rotation(w)
    # the public constructor accepts the table unchanged
    assert type(s)(s.alphabet, s.degree, s.coeffs).coeffs == s.coeffs


@SETTINGS
@given(st.data(), st.integers(2, 3), st.integers(1, 4))
def test_assoc_and_cyclic_results_are_clean(data, n, degree):
    a = data.draw(assoc_series(n, degree))
    b = data.draw(assoc_series(n, degree))
    c = data.draw(fractions)
    images = [data.draw(assoc_series(n, degree)) for _ in range(n)]
    ta, tb = tr_project(a), tr_project(b)
    results = {
        AssocSeries: [a + b, a - b, a - a, a + (-a), -a, a.scale(c), a.scale(0),
                      a * b, a.commutator(b), a.homogeneous(degree), a.exp(),
                      a.exp().log(), a.substitute(images),
                      partial_decompose(a, 0)],
        CycSeries: [ta, ta + tb, ta - tb, ta - ta, -ta, ta.scale(c),
                    ta.homogeneous(degree)],
    }
    for kind, rs in results.items():
        for r in rs:
            assert_clean(r, degree, kind)


@st.composite
def lie_series(draw, n, degree):
    keys = st.sampled_from(lyndon_words(n, degree))
    table = draw(st.dictionaries(keys, fractions, max_size=5))
    return LieSeries(Alphabet(n), degree, table)


@SETTINGS
@given(st.data(), st.integers(2, 3), st.integers(1, 4))
def test_lie_and_derivation_results_are_clean(data, n, degree):
    a = data.draw(lie_series(n, degree))
    b = data.draw(lie_series(n, degree))
    c = data.draw(fractions)
    u = TDer([data.draw(lie_series(n, degree)) for _ in range(n)])
    images = [data.draw(lie_series(n, degree)) for _ in range(n)]
    cyc = tr_project(a.to_assoc() * b.to_assoc())
    results = {
        LieSeries: [a + b, a - b, a - a, -a, a.scale(c), a.scale(0),
                    a.homogeneous(degree), a.bracket(b),
                    LieSeries.from_assoc(a.to_assoc()), a.substitute(images),
                    u.apply(a)],
        AssocSeries: [a.to_assoc(), u.apply(a.to_assoc()), *u.generator_images()],
        CycSeries: [u.apply(cyc)],
    }
    for kind, rs in results.items():
        for r in rs:
            assert_clean(r, degree, kind)
    assert LieSeries.from_assoc(a.to_assoc()) == a


@SETTINGS
@given(st.data(), st.integers(2, 3), st.integers(1, 4), st.integers(1, 5))
def test_truncated_matches_public_constructor(data, n, degree, cut):
    a = data.draw(assoc_series(n, degree, with_unit=data.draw(st.booleans())))
    b = data.draw(lie_series(n, degree))
    for s in (a, b, tr_project(a - a.homogeneous(0))):
        t = s.truncated(cut)
        assert t == type(s)(s.alphabet, cut, s.coeffs)
        assert_clean(t, cut, type(s))  # no word beyond the cut


def test_generator_images_are_an_immutable_tuple():
    x, y = LieSeries.generators(A2, 4)
    u = TDer([y, x.bracket(y)])
    images = u.generator_images()
    assert isinstance(images, tuple)
    assert images is u.generator_images()
    for i, a in enumerate(u.components):
        xi = AssocSeries.generator(A2, 4, i)
        assert images[i] == xi * a.to_assoc() - a.to_assoc() * xi


# -- integer kernels against plain-Fraction references ------------------
#
# The word product, substitution, Leibniz action, Lyndon conversions and
# both brackets run on integer numerators over a common denominator.  Each
# reference below computes the same table term by term in Fraction
# arithmetic.


def ref_add(a, b, c=Fraction(1)):
    """a + c*b as Fraction tables, zeros kept."""
    table = dict(a)
    for w, v in b.items():
        table[w] = table.get(w, Fraction(0)) + c * v
    return table


def ref_product(a, b, degree):
    table = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) <= degree:
                table[w1 + w2] = table.get(w1 + w2, Fraction(0)) + c1 * c2
    return table


def ref_substitute(s, images, degree):
    table = {}
    for word, c in s.items():
        term = {(): Fraction(1)}
        for letter in word:
            term = ref_product(term, images[letter], degree)
        table = ref_add(table, term, c)
    return table


def ref_commutator(a, b, degree):
    return ref_add(ref_product(a, b, degree), ref_product(b, a, degree), Fraction(-1))


def ref_expand(struct, degree):
    """Word expansion of a nested-pair bracketing by Fraction commutators."""
    if isinstance(struct, int):
        return {(struct,): Fraction(1)}
    return ref_commutator(ref_expand(struct[0], degree), ref_expand(struct[1], degree),
                          degree)


def ref_to_assoc(lie):
    table = {}
    for word, c in lie.coeffs.items():
        table = ref_add(table, ref_expand(bracket_structure(word), lie.degree), c)
    return table


def ref_apply_assoc(u, target):
    images = [ref_commutator({(i,): Fraction(1)}, ref_to_assoc(a), u.degree)
              for i, a in enumerate(u.components)]
    table = {}
    for word, c in target.items():
        for pos, letter in enumerate(word):
            left = ref_product({word[:pos]: Fraction(1)}, images[letter], u.degree)
            table = ref_add(table, ref_product(left, {word[pos + 1:]: Fraction(1)},
                                               u.degree), c)
    return table


def nonzero(table):
    return {w: c for w, c in table.items() if c}


def assert_stored(s, expected):
    """``s`` stores exactly the nonzero entries of ``expected``, each of
    them a Fraction, never an int."""
    for c in s.coeffs.values():
        assert type(c) is Fraction and c != 0
    assert s.coeffs == nonzero(expected)


# Denominators up to 10**6: primes just below it, prime powers, and numbers
# sharing factors with those, so some pairs are coprime and some are not.
DENOMINATORS = (1, 2, 3, 7, 64, 625, 999_961, 999_979, 999_983, 999_999, 10 ** 6)
big_fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                          st.one_of(st.sampled_from(DENOMINATORS),
                                    st.integers(1, 10 ** 6)))


@st.composite
def coefficient_pools(draw):
    """A few coefficients and their negatives.  Terms drawn from one small
    pool often meet on a word with opposite values and cancel."""
    base = draw(st.lists(big_fractions.filter(bool), min_size=1, max_size=3))
    return st.sampled_from(base + [-c for c in base])


@st.composite
def pooled_assoc(draw, n, degree, pool, with_unit=True, max_size=7):
    words = st.lists(st.integers(0, n - 1), min_size=0 if with_unit else 1,
                     max_size=degree).map(tuple)
    table = draw(st.dictionaries(words, pool, max_size=max_size))
    return AssocSeries(Alphabet(n), degree, table)


@st.composite
def pooled_lie(draw, n, degree, pool):
    keys = st.sampled_from(lyndon_words(n, degree))
    return LieSeries(Alphabet(n), degree, draw(st.dictionaries(keys, pool, max_size=6)))


KERNEL_SETTINGS = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])
letters = st.integers(2, 4)


@KERNEL_SETTINGS
@given(st.data(), letters, st.integers(1, 5))
def test_product_matches_fraction_reference(data, n, degree):
    pool = data.draw(coefficient_pools())
    a = data.draw(pooled_assoc(n, degree, pool))
    b = data.draw(pooled_assoc(n, degree, pool))
    for left, right in ((a, b), (b, a), (a, a)):
        assert_stored(left * right, ref_product(left.coeffs, right.coeffs, degree))


def test_product_drops_cancelled_terms():
    p, q = Fraction(1, 999_983), Fraction(-5, 7)
    a = AssocSeries(A2, 3, {(0,): p, (0, 1): p})
    b = AssocSeries(A2, 3, {(1, 0): q, (0,): -q})
    expected = ref_product(a.coeffs, b.coeffs, 3)
    assert expected[(0, 1, 0)] == 0  # x*yx cancels xy*x
    assert_stored(a * b, expected)
    assert (0, 1, 0) not in (a * b).coeffs


@KERNEL_SETTINGS
@given(st.data(), letters, letters, st.integers(1, 4))
def test_substitute_matches_fraction_reference(data, n, m, degree):
    pool = data.draw(coefficient_pools())
    s = data.draw(pooled_assoc(n, degree, pool))
    images = [data.draw(pooled_assoc(m, degree, pool, with_unit=False, max_size=4))
              for _ in range(n)]
    assert_stored(s.substitute(images),
                  ref_substitute(s.coeffs, [im.coeffs for im in images], degree))


@KERNEL_SETTINGS
@given(st.data(), letters, st.integers(1, 5))
def test_apply_assoc_matches_fraction_reference(data, n, degree):
    pool = data.draw(coefficient_pools())
    u = TDer([data.draw(pooled_lie(n, degree, pool)) for _ in range(n)])
    for _ in range(2):  # the second target reuses the scaled generator images
        target = data.draw(pooled_assoc(n, degree, pool))
        assert_stored(u.apply_assoc(target), ref_apply_assoc(u, target.coeffs))


@KERNEL_SETTINGS
@given(st.data(), letters, st.integers(1, 6))
def test_to_assoc_matches_fraction_reference(data, n, degree):
    a = data.draw(pooled_lie(n, degree, data.draw(coefficient_pools())))
    assert_stored(a.to_assoc(), ref_to_assoc(a))


@KERNEL_SETTINGS
@given(st.data(), letters, st.integers(2, 6))
def test_from_assoc_inverts_to_assoc(data, n, degree):
    pool = data.draw(coefficient_pools())
    a = data.draw(pooled_lie(n, degree, pool))
    words = AssocSeries(Alphabet(n), degree, nonzero(ref_to_assoc(a)))
    back = LieSeries.from_assoc(words)
    assert back == a
    assert_stored(back, a.coeffs)
    # a single word of length >= 2 is not a Lie element, so neither is the sum
    word = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=degree)))
    c = data.draw(pool)
    with pytest.raises(NotPrimitiveError) as err:
        LieSeries.from_assoc(words + AssocSeries(Alphabet(n), degree, {word: c}))
    assert err.value.degree == len(word)
    with pytest.raises(NotPrimitiveError) as err:
        LieSeries.from_assoc(words + AssocSeries.one(Alphabet(n), degree).scale(c))
    assert err.value.degree == 0


def ref_from_assoc(table, degree):
    """Lyndon coefficients of a word table by Fraction triangular solve:
    peel off the least remaining word, which must be Lyndon, times its
    standard bracketing."""
    remaining = nonzero(table)
    out = {}
    while remaining:
        word = min(remaining, key=lambda w: (len(w), w))
        assert is_lyndon(word)
        c = out[word] = remaining[word]
        remaining = nonzero(ref_add(remaining, ref_expand(bracket_structure(word), degree),
                                    -c))
    return out


@KERNEL_SETTINGS
@given(st.data(), letters, st.integers(1, 5))
def test_lie_bracket_matches_fraction_reference(data, n, degree):
    pool = data.draw(coefficient_pools())
    a = data.draw(pooled_lie(n, degree, pool))
    b = data.draw(pooled_lie(n, degree, pool))
    for left, right in ((a, b), (b, a), (a, a)):
        got = left.bracket(right)
        assert_clean(got, degree, LieSeries)
        assert_stored(got, ref_from_assoc(
            ref_commutator(ref_to_assoc(left), ref_to_assoc(right), degree), degree))


@KERNEL_SETTINGS
@given(st.data(), letters, st.integers(1, 4))
def test_tder_bracket_matches_fraction_reference(data, n, degree):
    """Component k of [u, v] is u(b_k) - v(a_k) + [a_k, b_k]."""
    pool = data.draw(coefficient_pools())
    u = TDer([data.draw(pooled_lie(n, degree, pool)) for _ in range(n)])
    v = TDer([data.draw(pooled_lie(n, degree, pool)) for _ in range(n)])
    got = u.bracket(v)
    for a, b, c in zip(u.components, v.components, got.components):
        big_a, big_b = ref_to_assoc(a), ref_to_assoc(b)
        words = ref_add(ref_apply_assoc(u, big_b), ref_apply_assoc(v, big_a), Fraction(-1))
        words = ref_add(words, ref_commutator(big_a, big_b, degree))
        assert_clean(c, degree, LieSeries)
        assert_stored(c, ref_from_assoc(words, degree))
    for i, (a, image) in enumerate(zip(u.components, u.generator_images())):
        assert_clean(image, degree, AssocSeries)
        assert_stored(image, ref_commutator({(i,): Fraction(1)}, ref_to_assoc(a), degree))


# -- stored form ----------------------------------------------------------
#
# A series stores integer numerators over one denominator in canonical
# form; Fractions exist only in the ``coeffs`` view and ``coefficient``.


def assert_canonical(s):
    """No zero numerator, a positive denominator sharing no factor with all
    the numerators, and the Fraction view and ``coefficient`` agreeing."""
    assert all(type(v) is int and v != 0 for v in s._num.values())
    assert type(s._den) is int and s._den >= 1
    assert math.gcd(s._den, *s._num.values()) == 1
    assert s.coeffs == {w: Fraction(v, s._den) for w, v in s._num.items()}
    smallest = 1 if isinstance(s, CycSeries) else 0  # a necklace is nonempty
    for length in range(smallest, s.degree + 1):
        for w in itertools.product(range(s.alphabet.n), repeat=length):
            assert s.coefficient(w) == s.coeffs.get(s._key(w), 0)


@KERNEL_SETTINGS
@given(st.data(), st.integers(2, 3), st.integers(1, 4))
def test_every_result_is_stored_in_canonical_form(data, n, degree):
    pool = data.draw(coefficient_pools())
    a, b = (data.draw(pooled_assoc(n, degree, pool)) for _ in range(2))
    x, y = (data.draw(pooled_lie(n, degree, pool)) for _ in range(2))
    p, q = (tr_project(s - s.homogeneous(0)) for s in (a, b))
    images = [data.draw(pooled_assoc(n, degree, pool, with_unit=False, max_size=4))
              for _ in range(n)]
    c = data.draw(pool)
    cut = data.draw(st.integers(1, degree))
    results = [a * b, b * a, a.substitute(images), LieSeries.from_assoc(x.to_assoc()),
               x.bracket(y), y.bracket(x)]
    for s, t in ((a, b), (x, y), (p, q)):
        results += [s, s + t, s - t, s - s, s.scale(c), s.scale(0),
                    s.homogeneous(cut), s.truncated(cut)]
        for same in ((s + t) - t, s.scale(2).scale(Fraction(1, 2)),
                     s.scale(c).scale(1 / c), type(s)(s.alphabet, s.degree, s.coeffs)):
            assert same == s and hash(same) == hash(s)
    for r in results:
        assert_canonical(r)


def test_equal_tables_over_different_denominators_store_alike():
    a = LieSeries(A2, 3, {(0,): Fraction(2, 4), (0, 1): Fraction(3, 6)})
    b = LieSeries(A2, 3, {(0,): Fraction(1, 6)}).scale(3) + LieSeries(
        A2, 3, {(0, 1): Fraction(1, 10)}).scale(5)
    assert (a._num, a._den) == (b._num, b._den) == ({(0,): 1, (0, 1): 1}, 2)
    assert a == b and hash(a) == hash(b)
    assert (a - b)._den == 1 and not a - b
