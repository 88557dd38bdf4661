"""Small odd finite fields F_q, q = p^e, with explicit quadratic residues.

Elements are coefficient tuples of length e over F_p (constant term first);
for e > 1 arithmetic is polynomial arithmetic modulo the lexicographically
smallest monic irreducible polynomial of degree e.  Elements are indexed by
their base-p digit value, which fixes a deterministic vertex labeling for
the residue graphs built on top.
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


class FieldCtx:
    """Arithmetic context for F_q with q odd."""

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        if p == 2:
            raise ValueError("only odd q supported")
        self.q = q
        self.p = p
        self.e = e
        self.modulus = (0, 1) if e == 1 else _smallest_irreducible(p, e)
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)
        self.elements = [self.element(i) for i in range(q)]
        self._products = {}        # memo of polynomial products, e > 1
        self._inverses = {}
        squares = {self.mul(x, x) for x in self.elements if x != self.zero}
        if len(squares) != (q - 1) // 2:
            raise RuntimeError("square count sanity check failed")
        self.squares = frozenset(squares)

    def element(self, index: int) -> tuple:
        digits = []
        for _ in range(self.e):
            digits.append(index % self.p)
            index //= self.p
        return tuple(digits)

    def add(self, a, b):
        if self.e == 1:
            return ((a[0] + b[0]) % self.p,)
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.e == 1:
            return ((a[0] - b[0]) % self.p,)
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        if self.e == 1:
            return (a[0] * b[0] % self.p,)
        if (a, b) in self._products:
            return self._products[a, b]
        conv = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        rem = _poly_rem(conv, list(self.modulus), self.p)
        rem = rem[:self.e] + [0] * (self.e - len(rem))
        self._products[a, b] = tuple(rem)
        return self._products[a, b]

    def pow(self, a, k: int):
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        if a not in self._inverses:
            self._inverses[a] = self.pow(a, self.q - 2)
        return self._inverses[a]

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
    if a == field.zero:
        raise ValueError("shift must be nonzero")
    shifted = {field.add(a, c) for c in field.squares} - {field.zero}
    in_squares = len(shifted & field.squares)
    return (in_squares, len(shifted) - in_squares)
