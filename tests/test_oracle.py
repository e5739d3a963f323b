"""An exact oracle for 3-braids and the one-holed torus, independent of
the flip engine.

Send sigma_1 to [[1, 1], [0, 1]] and sigma_2 to [[1, 0], [-1, 1]] in
SL(2, Z), and let A be the image of the braid beta and e its exponent
sum.  With Psi the Rademacher function of A (Rademacher-Grosswald,
*Dedekind Sums*; Kirby-Melvin, *Dedekind sums, mu-invariants and the
signature cocycle*), the coefficient of the closed 3-braid is
c(beta) = (e - Psi(A)) / 6.  On the one-holed torus, T_a -> sigma_1,
T_b -> sigma_2 and T_S -> (sigma_1 sigma_2)^6 give half of it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fdtc.fdtc import braid_fdtc, fdtc_exact
from fdtc.mcg import Generator, MappingClassWord
from conftest import TORUS_A, TORUS_B

# letter -> (image in SL(2, Z), exponent sum): sigma_1, sigma_2 and the
# full twist Delta^2 squared, (sigma_1 sigma_2)^6, whose image is 1
LETTERS = {"a": (((1, 1), (0, 1)), 1), "b": (((1, 0), (-1, 1)), 1),
           "S": (((1, 0), (0, 1)), 12)}


def dedekind_sum(h, k):
    """s(h, k) for coprime h and k > 0, by reciprocity:
    s(h, k) + s(k, h) = (h^2 + k^2 + 1) / 12hk - 1/4, and s(h, k)
    depends on h mod k only."""
    total, sign = Fraction(0), 1
    h %= k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k)
                         - Fraction(1, 4))
        h, k, sign = k % h, h, -sign
    return total


def _mul(x, y):
    (a, b), (c, d) = x
    (p, q), (r, s) = y
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


def _power(x, k):
    """x^k by squaring; the inverse of a matrix of determinant 1 for k < 0."""
    if k < 0:
        (a, b), (c, d) = x
        x, k = ((d, -b), (-c, a)), -k
    out = ((1, 0), (0, 1))
    while k:
        if k & 1:
            out = _mul(out, x)
        x, k = _mul(x, x), k >> 1
    return out


def rademacher(m):
    """Psi of m in SL(2, Z); 0 on the elliptic classes, |trace| < 2."""
    (a, b), (c, d) = m
    if abs(a + d) < 2:
        return Fraction(0)
    if c == 0:
        return Fraction(b, d)
    sign = 1 if c > 0 else -1
    return (Fraction(a + d, c) - 12 * sign * dedekind_sum(a, abs(c))
            - 3 * sign * (1 if a + d > 0 else -1))


def braid_coefficient(word):
    """c of the closed 3-braid given as [(letter, power), ...] in the
    letters of LETTERS, the leftmost first."""
    m, e = ((1, 0), (0, 1)), 0
    for letter, p in word:
        image, exponent = LETTERS[letter]
        m, e = _mul(m, _power(image, p)), e + exponent * p
    return (e - rademacher(m)) / 6


# letter -> its generator to a power, on S_{1,1} and on D_3
TORUS = {"a": lambda p: Generator.twist(TORUS_A, p),
         "b": lambda p: Generator.twist(TORUS_B, p),
         "S": lambda p: Generator.boundary("S", p)}
DISC3 = {"a": lambda p: Generator.braid(1, p),
         "b": lambda p: Generator.braid(2, p)}


def _engine_word(tri, word, letters):
    return MappingClassWord(tri, [letters[x](p) for x, p in word])


class TestOneHoledTorus:
    """fdtc_exact on S_{1,1} against half the 3-braid coefficient."""

    @pytest.mark.parametrize("k,want", [
        (1, Fraction(1, 6)), (2, Fraction(1, 4)), (3, Fraction(1, 3)),
        (4, Fraction(1, 2)), (10 ** 6, Fraction(1, 2)),
        (10 ** 9, Fraction(1, 2)), (10 ** 30, Fraction(1, 2)),
        (2 ** 63, Fraction(1, 2)), (-10 ** 30, Fraction(0)),
    ])
    def test_pinned(self, torus_tri, k, want):
        word = [("a", k), ("b", 1)]
        assert braid_coefficient(word) / 2 == want
        got = fdtc_exact(_engine_word(torus_tri, word, TORUS), "S")
        assert got.value == want

    def test_random_words(self, torus_tri):
        power = st.one_of(st.integers(-6, 6),
                          st.integers(-10 ** 9, 10 ** 9))
        letter = st.tuples(st.sampled_from("aabbS"), power)

        @settings(max_examples=200, deadline=None)
        @given(st.lists(letter, min_size=1, max_size=6))
        def check(word):
            got = fdtc_exact(_engine_word(torus_tri, word, TORUS), "S")
            assert got.value == braid_coefficient(word) / 2

        check()


@pytest.mark.parametrize("word", [
    [("a", 1), ("b", 1)], [("a", 1), ("b", 1), ("a", 1)],
    [("a", 1), ("b", -1)], [("a", 3), ("b", -2), ("a", 1), ("b", 2)],
    [("b", -1), ("a", 2), ("b", -1), ("a", -3)],
])
def test_three_braids(disc3_tri, word):
    got = braid_fdtc(_engine_word(disc3_tri, word, DISC3), "C")
    assert got.value == braid_coefficient(word)
