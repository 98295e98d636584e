"""The rational field's canonical form, against plain Fraction
arithmetic, and the fused sparse kernels of every ring, against the
element-wise ring calls they replace."""

import random
from fractions import Fraction

import pytest

from ihomology.matrices import Matrix
from ihomology.rings import QQ, ZZ, Zmod


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


# --- the fused sparse kernels, against element-wise ring calls ---

def reference_axpy(R, dst, src, c):
    """dst += c * src in place, one add, mul and is_zero call per entry."""
    if R.is_zero(c):
        return
    for k, v in src.items():
        w = R.add(dst.get(k, R.zero), R.mul(c, v))
        if R.is_zero(w):
            dst.pop(k, None)
        else:
            dst[k] = w


def reference_row_product(R, row, rows):
    """row times the matrix with the sparse rows rows, one mul and add
    call per term: accumulate in order of first appearance, then drop
    the zeros."""
    acc = {}
    for k, v in row.items():
        for j, w in rows.get(k, {}).items():
            p = R.mul(v, w)
            acc[j] = p if j not in acc else R.add(acc[j], p)
    return {j: x for j, x in acc.items() if not R.is_zero(x)}


KERNEL_RINGS = [ZZ, QQ, Zmod(2), Zmod(4), Zmod(6), Zmod(9)]


def _element(rng, R):
    """A nonzero element, small so that sums cancel often; over Q an int
    or a Fraction, each in canonical form."""
    while True:
        if R is QQ:
            x = QQ.el(_sample(rng))
        elif R is ZZ:
            x = rng.choice([rng.randint(-4, 4), rng.randint(-10**20, 10**20)])
        else:
            x = R.el(rng.randrange(R.m))
        if not R.is_zero(x):
            return x


def _sparse(rng, R, n=9):
    """A sparse dict on a random subset of range(n), in a random key order."""
    keys = rng.sample(range(n), rng.randrange(n + 1))
    return {k: _element(rng, R) for k in keys}


def _same(R, got, want):
    """Equal values in the same key order, no zeros, and canonical types:
    over Q an int exactly when the value is integral, over Z/m a lift in
    range(m)."""
    assert got == want and list(got) == list(want)
    for x in got.values():
        assert not R.is_zero(x)
        if R is QQ:
            assert type(x) is (int if Fraction(x).denominator == 1
                               else Fraction)
        elif R is not ZZ:
            assert type(x) is int and 0 <= x < R.m


@pytest.mark.parametrize("R", KERNEL_RINGS, ids=lambda R: R.name)
def test_axpy_matches_elementwise_calls(R):
    rng = random.Random(71)
    for _ in range(2000):
        dst, src = _sparse(rng, R), _sparse(rng, R)
        c = rng.choice([R.zero, _element(rng, R)])
        if rng.random() < 0.3:
            # -dst on some of its keys, so that those entries cancel
            c = R.one
            src.update((k, R.neg(v)) for k, v in dst.items()
                       if rng.random() < 0.7)
        got, want = dict(dst), dict(dst)
        R.axpy(got, src, c)
        reference_axpy(R, want, src, c)
        _same(R, got, want)


@pytest.mark.parametrize("R", KERNEL_RINGS, ids=lambda R: R.name)
def test_row_product_matches_elementwise_calls(R):
    rng = random.Random(73)
    for _ in range(600):
        rows = {i: _sparse(rng, R, 6) for i in rng.sample(range(8), 5)}
        row = _sparse(rng, R, 8)
        _same(R, R.row_product(row, rows), reference_row_product(R, row, rows))
        M = Matrix(R, 3, 8, {i: _sparse(rng, R, 8) for i in range(3)})
        N = Matrix(R, 8, 6, {i: r for i, r in rows.items() if r})
        P = M @ N
        assert list(P.rows) == [i for i in M.rows if reference_row_product(
            R, M.rows[i], N.rows)]
        for i, r in P.rows.items():
            _same(R, r, reference_row_product(R, M.rows[i], N.rows))
