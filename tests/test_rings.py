"""The rational field's canonical form, against plain Fraction arithmetic."""

import random
from fractions import Fraction

from ihomology.rings import QQ


def _sample(rng):
    """A small rational as a Fraction, integral about half the time."""
    return Fraction(rng.randint(-12, 12), rng.choice([1, 1, 1, 2, 3, 4, 6]))


def _check(got, want):
    """got equals want and is an int exactly when want is integral."""
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_rational_field_matches_fractions():
    rng = random.Random(31)
    for _ in range(3000):
        x, y = _sample(rng), _sample(rng)
        a, b = QQ.el(x), QQ.el(y)
        _check(a, x)
        _check(QQ.el(a), x)
        if x.denominator == 1:
            _check(QQ.el(x.numerator), x)
        _check(QQ.add(a, b), x + y)
        _check(QQ.sub(a, b), x - y)
        _check(QQ.mul(a, b), x * y)
        _check(QQ.neg(a), -x)
        if x:
            _check(QQ.inv(a), 1 / x)
            _check(QQ.div(b, a), y / x)
            _check(QQ.canonical_unit(a), 1 / x)
        else:
            _check(QQ.canonical_unit(a), Fraction(1))
        g, s, t, u, v = QQ.bezout(a, b)
        for e in (g, s, t, u, v):
            _check(e, Fraction(e))
        assert s * x + t * y == g
        assert u * x + v * y == 0
        assert QQ.is_unit(QQ.sub(QQ.mul(s, v), QQ.mul(t, u)))
        assert (g != 0) == (x != 0 or y != 0)
    _check(QQ.zero, Fraction(0))
    _check(QQ.one, Fraction(1))
