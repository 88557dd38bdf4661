"""Slow, independent references for the exact spectral core and the group
searches.

`bareiss_det` expands determinants over Z[x] by fraction-free elimination;
`char_poly_bareiss` and `chi_bareiss` apply it to the defining matrices of
det(xI - E) and det(S(1, c)), which the library derives instead from a
multi-modular Hessenberg reduction.  `integer_det` is the same elimination
over Z, for values det(kI - E) at integers k.  `rational_rank` is plain
Gaussian elimination over Fraction.

`group_by_search_unpruned` is the stabilizer-chain search that issues one
element search per unreached target at every level, and
`pair_orbit_doubly_transitive` grows the orbit of an ordered pair by
breadth-first search; the library prunes the first by fixed-point masks and
reads the second off the stabilizer chain.

`TupleField` is F_q as coefficient tuples with polynomial arithmetic modulo
a given monic irreducible; the library computes with Zech-logarithm tables
on the integers 0..q-1 instead, labeling a tuple by its base-p digit value.
"""

from fractions import Fraction

from equilines.groups import identity_perm, perm_mul
from equilines.spectra import poly_divexact, poly_mul, poly_neg, poly_trim


def poly_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return poly_trim(out)


def bareiss_det(matrix):
    """Determinant of a square matrix with entries in Z[x].

    Fraction-free elimination: every intermediate division by the previous
    pivot is exact, so all arithmetic stays in arbitrary-precision integers.
    """
    n = len(matrix)
    m = [[poly_trim(list(e)) for e in row] for row in matrix]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return []
        piv = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                t = poly_sub(poly_mul(row_i[j], piv), poly_mul(head, m[k][j]))
                row_i[j] = poly_divexact(t, prev)
            row_i[k] = []
        prev = piv
    det = m[n - 1][n - 1]
    return det if sign == 1 else poly_neg(det)


def char_poly_bareiss(g) -> tuple:
    """det(xI - E), constant term first."""
    n = g.n
    return tuple(bareiss_det([[[-g.seidel_entry(i, j)] if i != j else [-1, 1]
                               for j in range(n)] for i in range(n)]))


def chi_bareiss(g) -> tuple:
    """det(S(1, c)): ones on the diagonal, c * E[i][j] off it."""
    n = g.n
    return tuple(bareiss_det([[[1] if i == j else [0, g.seidel_entry(i, j)]
                               for j in range(n)] for i in range(n)]))


def integer_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination with row swaps."""
    m = [list(row) for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                return 0
            m[k], m[r], sign = m[r], m[k], -sign
        piv, top = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):
            head = m[i][k]
            m[i][k + 1:] = [(piv * a - head * b) // prev for a, b in zip(m[i][k + 1:], top)]
        prev = piv
    return sign * m[-1][-1]


def rational_rank(rows) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inv
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def group_by_search_unpruned(n, find_with_prefix):
    """Stabilizer chain with base 0..n-1 of the permutations accepted by the
    searcher: at level i, every target p > i not yet reached through known
    generators fixing 0..i-1 gets its own search with prefix (0..i-1, p)."""
    ident = identity_perm(n)
    gens = []
    levels = []
    for i in range(n):
        fixed = [g for g in gens if all(g[j] == j for j in range(i))]
        trans = {i: ident}

        def close(starts):
            queue = list(starts)
            while queue:
                x = queue.pop(0)
                for g in fixed:
                    y = g[x]
                    if y not in trans:
                        trans[y] = perm_mul(trans[x], g)
                        queue.append(y)

        close([i])
        for p in range(i + 1, n):
            if p in trans:
                continue
            sigma = find_with_prefix(tuple(range(i)) + (p,))
            if sigma is None:
                continue
            gens.append(sigma)
            fixed.append(sigma)
            close(sorted(trans))
        levels.append((i, trans))
    return gens, levels


def pair_orbit_doubly_transitive(n, generators) -> bool:
    """One orbit on ordered pairs of distinct points, by breadth-first search
    from (0, 1)."""
    if n < 2:
        return True
    orbit = {(0, 1)}
    queue = [(0, 1)]
    while queue:
        x, y = queue.pop()
        for g in generators:
            pair = (g[x], g[y])
            if pair not in orbit:
                orbit.add(pair)
                queue.append(pair)
    return len(orbit) == n * (n - 1)


class TupleField:
    """F_{p^e} as coefficient tuples of length e over F_p, constant term
    first, multiplied as polynomials modulo the monic `modulus` of degree e.
    `index` is the library's label of a tuple: its base-p digit value."""

    def __init__(self, p, e, modulus):
        self.p, self.e, self.modulus = p, e, tuple(modulus)
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)
        self.elements = [self.element(i) for i in range(p ** e)]
        self.squares = frozenset(self.mul(x, x) for x in self.elements
                                 if x != self.zero)

    def element(self, index):
        return tuple(index // self.p ** i % self.p for i in range(self.e))

    def index(self, a):
        return sum(c * self.p ** i for i, c in enumerate(a))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        e = self.e
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):      # subtract c x^(k-e) modulus
            c = conv[k]
            for i, m in enumerate(self.modulus):
                conv[k - e + i] -= c * m
        return tuple(c % self.p for c in conv[:e])

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return next(b for b in self.elements if self.mul(a, b) == self.one)
