"""Small odd finite fields F_q, q = p^e, with explicit quadratic residues.

Elements are the integers 0..q-1.  The base-p digits of an element are its
coefficients over F_p (constant term first) as a polynomial modulo the
lexicographically smallest monic irreducible polynomial of degree e, so an
element's value is also its vertex label in the residue graphs built on top.

Arithmetic runs through Zech-logarithm tables built once per q (Lidl and
Niederreiter, *Finite Fields*, ch. 9): with g the smallest primitive element,
`exp[k] = g^k`, `log` inverts it, and `zech[k] = log(1 + g^k)`, so that
g^i + g^j = g^(i + zech[j - i]).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product


def _factor_prime_power(q: int):
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


def _poly_rem(a, b, p):
    """Remainder of a mod b over F_p; coefficient lists, constant first."""
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        coef = a[-1] * inv_lead % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[i + shift] = (a[i + shift] - coef * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2 over F_p."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_rem(list(poly), divisor, p):
                return False
    return True


def _smallest_irreducible(p, e):
    """Lexicographically smallest monic irreducible of degree e over F_p,
    ordered by the coefficient tuple (constant term most significant)."""
    for tail in product(range(p), repeat=e):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError("no irreducible polynomial found")   # unreachable


def _primitive_powers(p, e, modulus) -> list:
    """[g^0, ..., g^(q-2)] as digit values, for the smallest element g of
    order q - 1 in F_p[x]/(modulus), by polynomial multiplication."""
    q = p ** e
    for g in range(2, q):
        gd = [g // p ** i % p for i in range(e)]
        powers = [1]
        cur = [1]
        while len(powers) < q - 1:
            conv = [0] * (len(cur) + e - 1)
            for i, x in enumerate(cur):
                for j, y in enumerate(gd):
                    conv[i + j] += x * y
            cur = _poly_rem(conv, modulus, p)
            value = sum(c * p ** i for i, c in enumerate(cur))
            if value == 1:
                break
            powers.append(value)
        else:
            return powers
    raise RuntimeError(f"no element of F_{q} has order {q - 1}")


class FieldCtx:
    """Arithmetic context for F_q with q odd; elements are 0..q-1."""

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        if p == 2:
            raise ValueError("only odd q supported")
        self.q = q
        self.p = p
        self.e = e
        self.modulus = (0, 1) if e == 1 else _smallest_irreducible(p, e)
        self.order = q - 1          # of the multiplicative group
        powers = _primitive_powers(p, e, self.modulus)
        self.exp = powers + powers  # log a + log b < 2(q-1) needs no reduction
        self.log = [None] * q
        for k, x in enumerate(powers):
            self.log[x] = k
        # 1 + x changes only the constant digit of x; None where 1 + x = 0
        self.zech = [self.log[x - x % p + (x + 1) % p] for x in powers]
        squares = {self.mul(x, x) for x in range(1, q)}
        if len(squares) != (q - 1) // 2:
            raise RuntimeError("square count sanity check failed")
        self.squares = frozenset(squares)

    def add(self, a, b):
        if not a or not b:
            return a or b
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % self.order]
        return 0 if z is None else self.exp[la + z]

    def sub(self, a, b):
        """a + (-1)b, where -1 = g^((q-1)/2)."""
        return self.add(a, self.exp[self.log[b] + self.order // 2]) if b else a

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[self.order - self.log[a]]

    def is_square(self, a) -> bool:
        """Whether a is a nonzero square."""
        return a in self.squares


@lru_cache(maxsize=None)
def field_ctx(q: int) -> FieldCtx:
    """Shared immutable context per q."""
    return FieldCtx(q)


def quad_residue_counts(field: FieldCtx, a) -> tuple:
    """(|(a+C) cap C|, |(a+C) cap Cbar|) for a nonzero shift a, where C is
    the set of nonzero squares and Cbar the nonzero non-squares.

    Counted by direct enumeration.  For q = 4t+5 and s = t+1 the result is
    (s-1, s) when a is a square and (s, s) otherwise.
    """
    if not a:
        raise ValueError("shift must be nonzero")
    shifted = {field.add(a, c) for c in field.squares} - {0}
    in_squares = len(shifted & field.squares)
    return (in_squares, len(shifted) - in_squares)


def shifted_square_failure(field: FieldCtx):
    """The first nonzero shift a, in increasing order, whose counts break the
    law (s-1, s) for squares and (s, s) otherwise, with s = (q-1)/4, as
    (a, got, want); None when every shift obeys it."""
    s = (field.q - 1) // 4
    for a in range(1, field.q):
        got = quad_residue_counts(field, a)
        want = (s - 1, s) if field.is_square(a) else (s, s)
        if got != want:
            return a, got, want
    return None
