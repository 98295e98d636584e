"""Coefficient rings for exact homological algebra.

All linear algebra downstream (Smith forms, kernels, homology) is generic
over a small ring interface: exact arithmetic plus the Bezout data needed
for elimination over a principal ideal ring.  Three rings are provided:
the integers Z, the rationals Q, and Z/m for any modulus m >= 2.  A
rational is held as a plain int when it is integral and as a reduced
Fraction otherwise, and every operation returns that form, so
elimination over Q runs on ints until a true fraction appears.  Z/m is
a quotient of a PID, so diagonalization still works; its elements are
kept as canonical lifts in range(m) and Bezout steps are computed on the
lifts, which keeps every 2x2 transform invertible mod m.

The sparse inner loops go through two fused kernels per ring, axpy
and row_product, which run on native operators instead of one ring
call per entry: over Z on + and * alone, over Z/m with one % m per
entry, and over Q on ints until a Fraction appears, which is then put
in canonical form.  The fractions module is loaded on the first
Fraction made, so a job over Z or Z/m never loads it.
"""

from math import gcd

from . import _on_first_use

fractions = _on_first_use("fractions", None)


def xgcd(a, b):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class Ring:
    """Interface shared by the concrete coefficient rings."""

    name = "?"
    is_field = False
    # the order a free summand gets in HomologyGroup.orders: m over a
    # composite Z/m, whose modules need not be free, and 0 elsewhere
    free_order = 0

    def el(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def is_zero(self, a):
        raise NotImplementedError

    def is_unit(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def divides(self, a, b):
        """Whether a | b in the ring."""
        raise NotImplementedError

    def div(self, b, a):
        """Some q with q*a = b; only valid when divides(a, b)."""
        raise NotImplementedError

    def bezout(self, a, b):
        """(g, s, t, u, v) with s*a + t*b = g, u*a + v*b = 0, s*v - t*u a unit.

        g generates the ideal (a, b); the 2x2 matrix [[s, t], [u, v]] is
        invertible over the ring.
        """
        raise NotImplementedError

    def canonical_unit(self, a):
        """A unit u such that u*a is the canonical associate of a."""
        raise NotImplementedError

    def size(self, a):
        """Pivot-quality measure for nonzero a; smaller is better, units give 1."""
        raise NotImplementedError

    def axpy(self, dst, src, c):
        """dst += c * src on sparse dicts, in place: an entry that becomes
        zero is dropped, a new one goes at the end."""
        raise NotImplementedError

    def row_product(self, row, rows):
        """The sparse row vector row times the matrix whose sparse rows
        are the dict rows: each entry summed in full, keys in order of
        first appearance, then the zeros dropped."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


def _row_sums(row, rows):
    """The entries of row_product, each summed with native operators and
    not yet reduced, keys in order of first appearance."""
    acc = {}
    get = acc.get
    for k, v in row.items():
        orow = rows.get(k)
        if orow is not None:
            for j, w in orow.items():
                acc[j] = get(j, 0) + v * w
    return acc


class IntegerRing(Ring):
    name = "Z"
    zero = 0
    one = 1

    def el(self, x):
        # an int has denominator 1 too, so no Fraction class is needed
        if x.denominator != 1:
            raise ValueError(f"{x} is not an integer")
        return int(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a == 1 or a == -1

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        raise ZeroDivisionError(f"{a} is not a unit in Z")

    def divides(self, a, b):
        if a == 0:
            return b == 0
        return b % a == 0

    def div(self, b, a):
        return b // a

    def bezout(self, a, b):
        g, s, t = xgcd(a, b)
        if g == 0:
            return 0, 1, 0, 0, 1
        return g, s, t, -(b // g), a // g

    def canonical_unit(self, a):
        return -1 if a < 0 else 1

    def size(self, a):
        return abs(a)

    def axpy(self, dst, src, c):
        if c:
            get, pop = dst.get, dst.pop
            for k, v in src.items():
                w = get(k, 0) + c * v
                if w:
                    dst[k] = w
                else:
                    pop(k, None)

    def row_product(self, row, rows):
        return {j: x for j, x in _row_sums(row, rows).items() if x}


def _canonical(q):
    """A rational in its canonical form: the int when q is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField(Ring):
    """Q with each element an int when integral and a reduced Fraction
    otherwise, so integral arithmetic runs on plain ints."""

    name = "Q"
    is_field = True
    zero = 0
    one = 1

    def el(self, x):
        return x if x.__class__ is int else _canonical(fractions.Fraction(x))

    def add(self, a, b):
        c = a + b
        return c if c.__class__ is int else _canonical(c)

    def sub(self, a, b):
        c = a - b
        return c if c.__class__ is int else _canonical(c)

    def mul(self, a, b):
        c = a * b
        return c if c.__class__ is int else _canonical(c)

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        return self.div(1, a)

    def divides(self, a, b):
        return a != 0 or b == 0

    def div(self, b, a):
        if a.__class__ is int and b.__class__ is int:
            q, r = divmod(b, a)
            return fractions.Fraction(b, a) if r else q
        return _canonical(fractions.Fraction(b) / a)

    def bezout(self, a, b):
        if a != 0:
            return a, 1, 0, self.neg(self.div(b, a)), 1
        if b != 0:
            return b, 0, 1, 1, 0
        return 0, 1, 0, 0, 1

    def canonical_unit(self, a):
        return self.inv(a) if a else 1

    def size(self, a):
        return 1

    def axpy(self, dst, src, c):
        if c:
            get, pop = dst.get, dst.pop
            for k, v in src.items():
                w = get(k, 0) + c * v
                if w.__class__ is not int:
                    w = _canonical(w)
                if w:
                    dst[k] = w
                else:
                    pop(k, None)

    def row_product(self, row, rows):
        return {j: x if x.__class__ is int else _canonical(x)
                for j, x in _row_sums(row, rows).items() if x}


def _is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class ZmodRing(Ring):
    """Z/m with elements stored as ints in range(m)."""

    def __init__(self, m):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.name = f"Z/{m}"
        self.is_field = _is_prime(m)
        self.free_order = 0 if self.is_field else m
        self.zero = 0
        self.one = 1 % m

    def el(self, x):
        den = x.denominator
        if den != 1:
            if gcd(den, self.m) != 1:
                raise ZeroDivisionError(f"denominator {den} not invertible mod {self.m}")
            return x.numerator * pow(den, -1, self.m) % self.m
        return int(x) % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return -a % self.m

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return gcd(a, self.m) == 1

    def inv(self, a):
        return pow(a, -1, self.m)

    def divides(self, a, b):
        return b % gcd(a, self.m) == 0

    def div(self, b, a):
        g = gcd(a, self.m)
        if b % g:
            raise ZeroDivisionError(f"{a} does not divide {b} mod {self.m}")
        mg = self.m // g
        if mg == 1:
            return 0
        return (b // g) * pow(a // g, -1, mg) % mg

    def bezout(self, a, b):
        g, s, t = xgcd(a, b)
        if g == 0:
            return 0, 1, 0, 0, 1
        m = self.m
        return g % m, s % m, t % m, -(b // g) % m, (a // g) % m

    def canonical_unit(self, a):
        # unit u with u*a == gcd(a, m) mod m
        if a == 0:
            return 1 % self.m
        m = self.m
        g = gcd(a, m)
        mg = m // g
        if mg == 1:
            return 1 % m
        u0 = pow(a // g, -1, mg)
        u = u0
        while gcd(u, m) != 1:
            u += mg
        return u % m

    def size(self, a):
        return gcd(a, self.m)

    def axpy(self, dst, src, c):
        if c:
            m = self.m
            get, pop = dst.get, dst.pop
            for k, v in src.items():
                w = (get(k, 0) + c * v) % m
                if w:
                    dst[k] = w
                else:
                    pop(k, None)

    def row_product(self, row, rows):
        m = self.m
        return {j: y for j, x in _row_sums(row, rows).items() if (y := x % m)}


ZZ = IntegerRing()
QQ = RationalField()

_zmod_cache = {}


def Zmod(m):
    ring = _zmod_cache.get(m)
    if ring is None:
        ring = _zmod_cache[m] = ZmodRing(m)
    return ring


def ring_by_name(name):
    """Parse a coefficient-ring name: 'Z', 'Q', or 'Zmod:<m>'."""
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("Zmod:"):
        try:
            m = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad modulus in {name!r}") from None
        return Zmod(m)
    raise ValueError(f"unknown coefficient ring {name!r} (expected Z, Q, or Zmod:<m>)")
