"""Exact spectra of the +1/-1 matrix of a graph, the parametrized
determinant det(S(1, c)), and synthesis of equiangular line systems.

The exact layer works in Z[x] only: det(xI - E) comes from Hessenberg
reduction modulo the fewest primes below 2^78 whose product covers Hadamard's
bound (one for n <= 30), joined by CRT; det(S(1, c)) comes from it by
substitution, eigenvalues are read off by pulling out integer roots
(Gershgorin: in [2 - n, n]) and copies of x^2 - 2x - (q-1), q = n - 1 (the
values 1 +/- sqrt(q)).  Whatever remains is monic, so its gcds and square-free
(Yun) factors are monic in Z[x] too; each factor's roots are isolated by a
Sturm chain of integer polynomials (positive multiples of the remainders,
which keep every sign) into certified rational intervals.  No floating point
enters until a line system is synthesized, and then the exact Gram matrix is
kept alongside the vectors.

A value lam in the spectrum with matrix S(1, c), c = 1/(1 - lam), positive
semidefinite (lam extreme) yields n unit vectors in dimension n - m(lam)
with pairwise inner products E[i][j] * c.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graphs import SeidelGraph

# ---------------------------------------------------------------------------
# integer polynomials as coefficient lists, constant term first

def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_neg(a):
    return [-c for c in a]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_eval(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def poly_divexact(num, den):
    """Exact quotient num/den in Z[x]; raises ArithmeticError otherwise."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return []
    num = list(num)
    if len(num) < len(den):
        raise ArithmeticError("division not exact")
    lead = den[-1]
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[len(den) - 1 + k]
        if c % lead:
            raise ArithmeticError("division not exact")
        c //= lead
        q[k] = c
        if c:
            for j, d in enumerate(den):
                num[j + k] -= c * d
    if any(num[:len(den) - 1]):
        raise ArithmeticError("division not exact")
    return poly_trim(q)


def _remainder(a, b):
    """The remainder of a by b over Q times a positive rational: an integer
    polynomial with coprime coefficients, [] when b divides a.  Each step
    scales by |lc(b)|, which keeps the sign, and cancels the leading term."""
    a, n = list(a), len(b) - 1
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) > n:
        c = sign * a.pop()
        if c:
            k = len(a) - n
            if scale != 1:
                a = [scale * x for x in a]
            for j, d in enumerate(b[:n]):
                a[k + j] -= c * d
    poly_trim(a)
    content = math.gcd(*a)
    return [x // content for x in a] if content > 1 else a


def _gcd(a, b):
    """gcd in Z[x], primitive with a positive leading coefficient; by Gauss's
    lemma it is monic when a is."""
    while b:
        a, b = b, _remainder(a, b)
    content = math.gcd(*a) * (1 if a[-1] > 0 else -1)
    return [x // content for x in a]


def poly_derivative(a):
    return poly_trim([i * c for i, c in enumerate(a)][1:])


_CACHE_SIZE = 32     # an analysis revisits a graph; a long run sees many


# Miller-Rabin with the prime bases 2..37 is deterministic below
# psi_12 = 318665857834031151167461 > 2^78 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PRODUCT = math.prod(_MR_BASES)
_PRIME_BITS = 78


def _is_prime(m: int) -> bool:
    """Miller-Rabin with the bases 2..37, deterministic for odd m with
    37 < m < psi_12 = 318665857834031151167461.  Such an m sharing a factor
    with a base is composite; that gcd spares most candidates any power."""
    if math.gcd(m, _MR_PRODUCT) != 1:
        return False
    s = ((m - 1) & (1 - m)).bit_length() - 1          # m - 1 = d * 2^s, d odd
    d = (m - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _primes_below(limit: int, k: int) -> list:
    """The k largest primes below limit (odd limit - 1 > 37)."""
    primes, c = [], limit - 1
    while len(primes) < k:
        if _is_prime(c):
            primes.append(c)
        c -= 2
    return primes


@lru_cache(maxsize=_CACHE_SIZE)
def _crt_primes(n: int) -> tuple:
    """The fewest primes below 2^78 whose product exceeds twice the largest
    possible |coefficient| of det(xI - E) for an n x n +1/-1 matrix E, each
    as narrow as that count allows: the k largest primes below 2^b for the
    least b.  The coefficient of x^(n-m) is +/- a sum of C(n, m) principal
    m x m minors, each at most m^(m/2) in absolute value (Hadamard).  A pass
    costs about as much at 78 bits as at 31, so one wide prime beats several
    narrow ones, but no graph pays for a wider prime than it needs; b >= 8
    keeps every candidate above 37."""
    target = 2 * max(math.comb(n, m) * (math.isqrt(m ** m) + 1) for m in range(n + 1))
    k = -(-target.bit_length() // _PRIME_BITS)
    while True:
        # k primes below 2^b multiply to less than 2^(k b): start at k b >= len
        for b in range(max(-(-target.bit_length() // k), 8), _PRIME_BITS + 1):
            primes = _primes_below(1 << b, k)
            if math.prod(primes) > target:
                return tuple(primes)
        k += 1


def _char_poly_mod(e, p):
    """det(xI - E) mod p, constant term first: similarity to upper Hessenberg
    form, then the recurrence on its leading principal minors (Cohen, A Course
    in Computational Algebraic Number Theory, algorithm 2.2.9)."""
    n = len(e)
    h = [[x % p for x in row] for row in e]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        top = h[m]
        inv = pow(top[m - 1], -1, p)
        us = [h[i][m - 1] * inv % p for i in range(m + 1, n)]
        # rows i -= u_i * row m, then column m += sum u_i * column i (i > m):
        # these steps commute, so together they are one similarity transform
        for i, u in enumerate(us, m + 1):
            if u:
                h[i] = [(a - u * b) % p for a, b in zip(h[i], top)]
        for row in h:
            row[m] = (row[m] + sum(map(operator.mul, us, row[m + 1:]))) % p
    polys = [[1]]
    for m in range(n):
        nxt, t = [0] + polys[m], 1
        for i in range(m, -1, -1):
            coef = t * h[i][m] % p
            nxt[:i + 1] = [a - coef * c for a, c in zip(nxt, polys[i])]
            t = t * h[i][i - 1] % p if i else 0
            if not t:
                break
        polys.append([c % p for c in nxt])
    return polys[n]


@lru_cache(maxsize=_CACHE_SIZE)
def char_poly(g: SeidelGraph) -> tuple:
    """det(xI - E) as an exact coefficient tuple, constant term first: the
    residues modulo _crt_primes joined by CRT (one prime, so no join, for
    n <= 30), read in the symmetric range."""
    e = g.seidel_matrix()
    first, *rest = _crt_primes(g.n)
    value, modulus = _char_poly_mod(e, first), first
    for p in rest:
        k = pow(modulus, -1, p)
        value = [v + modulus * ((r - v) * k % p)
                 for v, r in zip(value, _char_poly_mod(e, p))]
        modulus *= p
    return tuple(v - modulus if 2 * v > modulus else v for v in value)


@lru_cache(maxsize=_CACHE_SIZE)
def chi_polynomial(g: SeidelGraph) -> tuple:
    """det(S(1, c)) as an exact coefficient tuple in c, constant term first.

    S(1, c) = (1 - c) I + c E, so with f(x) = det(xI - E) = sum a_k x^k,
    det(S(1, c)) = (-1)^n c^n f(1 - 1/c) = (-1)^n sum a_k (c-1)^k c^(n-k):
    after the Taylor shift f(1 + y) = sum b_j y^j, c^i has (-1)^i b_(n-i).
    """
    b = list(char_poly(g))
    n = len(b) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            b[j] += b[j + 1]
    return tuple(poly_trim([-b[n - i] if i % 2 else b[n - i]
                            for i in range(n + 1)]))


# ---------------------------------------------------------------------------
# eigenvalues

@dataclass(frozen=True)
class Eigenvalue:
    """One eigenvalue with multiplicity.

    Exactly one of `rational`, `quad`, `interval` is set: a Fraction, a
    triple (a, sign, d) meaning a + sign*sqrt(d), or a certified enclosing
    interval of Fractions for a value that resisted exact factoring.
    """

    multiplicity: int
    rational: Fraction = None
    quad: tuple = None
    interval: tuple = None

    @property
    def is_exact(self) -> bool:
        return self.interval is None

    @property
    def approx(self) -> float:
        if self.rational is not None:
            return float(self.rational)
        if self.quad is not None:
            a, sign, d = self.quad
            return a + sign * math.sqrt(d)
        lo, hi = self.interval
        return (float(lo) + float(hi)) / 2

    def label(self) -> str:
        if self.rational is not None:
            return str(self.rational)
        if self.quad is not None:
            a, sign, d = self.quad
            return f"{a}{'+' if sign > 0 else '-'}sqrt({d})"
        return f"[{float(self.interval[0]):.12g}, {float(self.interval[1]):.12g}]"


@dataclass(frozen=True)
class SeidelSpectrum:
    n: int
    eigenvalues: tuple

    @property
    def is_exact(self) -> bool:
        return all(ev.is_exact for ev in self.eigenvalues)

    def distinct_count(self) -> int:
        return len(self.eigenvalues)

    def multiplicity(self, value) -> int:
        ev = self.find(value)
        return ev.multiplicity if ev else 0

    def find(self, value):
        """Match an eigenvalue given as Eigenvalue, Fraction/int, (a, sign, d)
        triple, or a string like "-2", "3/2", "1+sqrt(5)"."""
        target = _coerce_value(value)
        for ev in self.eigenvalues:
            if target.rational is not None and ev.rational == target.rational:
                return ev
            if target.quad is not None and ev.quad == target.quad:
                return ev
        return None

    def min_eigenvalue(self):
        return min(self.eigenvalues, key=lambda ev: ev.approx)

    def max_eigenvalue(self):
        return max(self.eigenvalues, key=lambda ev: ev.approx)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "eigenvalues": [
                {"value": ev.label(), "multiplicity": ev.multiplicity,
                 "approx": ev.approx}
                for ev in self.eigenvalues
            ],
            "exact": self.is_exact,
        }


def _coerce_value(value) -> Eigenvalue:
    if isinstance(value, Eigenvalue):
        return value
    if isinstance(value, (int, Fraction)):
        return Eigenvalue(1, rational=Fraction(value))
    if isinstance(value, tuple) and len(value) == 3:
        return Eigenvalue(1, quad=value)
    if isinstance(value, str):
        return parse_eigenvalue(value)
    raise ValueError(f"cannot interpret eigenvalue {value!r}")


def parse_eigenvalue(text: str) -> Eigenvalue:
    """Parse "a/b", "a", "a+sqrt(d)" or "a-sqrt(d)" forms."""
    s = text.replace(" ", "")
    if "sqrt" in s:
        for sep, sign in (("+sqrt(", 1), ("-sqrt(", -1)):
            if sep in s:
                head, tail = s.split(sep, 1)
                if not tail.endswith(")"):
                    break
                a = int(head) if head else 0
                return Eigenvalue(1, quad=(a, sign, int(tail[:-1])))
        raise ValueError(f"cannot parse eigenvalue {text!r}")
    return Eigenvalue(1, rational=Fraction(s))


# Sturm sequences for whatever the exact factor steps leave.  A Sturm chain
# needs only the signs of its members, so each remainder may be replaced by a
# positive multiple: the chain stays in Z[x], and signs at rational points
# need integer arithmetic only.

def _sign_at(p, x) -> int:
    """Sign of the integer polynomial p at the rational x = a/b, read from
    b^deg * p(a/b) by Horner's rule on the homogenized form."""
    a, b = x.numerator, x.denominator
    v, bp = p[-1], b
    for c in reversed(p[:-1]):
        v, bp = v * a + c * bp, bp * b
    return (v > 0) - (v < 0)


def _sturm_chain(p):
    chain = [p, poly_derivative(p)]
    while chain[-1]:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(poly_neg(r))
    return chain


def _sign_variations(chain, x):
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _isolate_real_roots(p, precision=Fraction(1, 10 ** 13)):
    """Disjoint rational intervals, one simple real root each, of a
    square-free integer polynomial.  The Sturm count splits cells until each
    holds one root, reading the chain once per split point; that root is then
    narrowed by the sign of p alone, since no end of a cell is a root."""
    if len(p) <= 1:
        return []
    chain = _sturm_chain(p)
    bound = Fraction(1) + max(abs(Fraction(c, p[-1])) for c in p[:-1])

    out = []
    lo, hi = -bound - 1, bound + 1
    stack = [(lo, hi, _sign_variations(chain, lo), _sign_variations(chain, hi))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        k = v_lo - v_hi
        if k == 0:
            continue
        if k == 1:
            s_lo = _sign_at(p, lo)
            while hi - lo > precision:
                mid = (lo + hi) / 2
                s_mid = _sign_at(p, mid)
                if s_mid == 0:
                    # nudge the endpoint; roots of the residual are irrational
                    mid += precision / 7
                    s_mid = _sign_at(p, mid)
                if s_mid != s_lo:
                    hi = mid
                else:
                    lo = mid
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _sign_at(p, mid) == 0:
            mid += precision / 7
        v_mid = _sign_variations(chain, mid)
        stack.append((lo, mid, v_lo, v_mid))
        stack.append((mid, hi, v_mid, v_hi))
    return sorted(out)


def _integer_rank(rows) -> int:
    """Rank over the rationals of an integer matrix by fraction-free (Bareiss)
    elimination: each entry stays a minor of the input, so every division by
    the previous pivot is exact.  Pivot rows and eliminated columns drop out."""
    rank, prev = 0, 1
    while rows and rows[0]:
        k = next((i for i, row in enumerate(rows) if row[0]), None)
        if k is None:
            rows = [row[1:] for row in rows]
            continue
        top, pv = rows[k], rows[k][0]
        rows = [[(pv * a - row[0] * b) // prev for a, b in zip(row[1:], top[1:])]
                for row in rows[:k] + rows[k + 1:]]
        prev = pv
        rank += 1
    return rank


def _squarefree_parts(p):
    """Yun decomposition of a monic integer polynomial: list of (square-free
    factor, multiplicity), every factor monic in Z[x]."""
    parts = []
    g = _gcd(p, poly_derivative(p))
    if len(g) <= 1:
        return [(p, 1)]
    w = poly_divexact(p, g)
    mult = 1
    while len(w) > 1:
        nxt = _gcd(w, g)
        factor = poly_divexact(w, nxt)
        if len(factor) > 1:
            parts.append((factor, mult))
        w = nxt
        g = poly_divexact(g, nxt)
        mult += 1
    return parts


@lru_cache(maxsize=_CACHE_SIZE)
def spectrum(g: SeidelGraph) -> SeidelSpectrum:
    """Exact spectrum of the +1/-1 matrix of g.

    Factors out integer roots and copies of x^2 - 2x - (q-1), q = n - 1;
    leftover roots (not expected for the graphs built here) become certified
    intervals.  Moment identities sum(m) = n, sum(m*lam) = n and
    sum(m*lam^2) = n^2 are verified before returning.
    """
    n = g.n
    p = list(char_poly(g))
    found = []

    # integer roots: Gershgorin puts every eigenvalue in [2 - n, n]
    for root in sorted(range(2 - n, n + 1), key=lambda r: (abs(r), -r)):
        mult = 0
        while len(p) > 1 and poly_eval(p, root) == 0:
            p = poly_divexact(p, [-root, 1])
            mult += 1
        if mult:
            found.append(Eigenvalue(mult, rational=Fraction(root)))

    # the 1 +/- sqrt(q) family, skipped when q is a perfect square
    q = n - 1
    if q >= 2 and math.isqrt(q) ** 2 != q:
        quad = [-(q - 1), -2, 1]
        mult = 0
        while len(p) > len(quad) - 1:
            try:
                p = poly_divexact(p, quad)
            except ArithmeticError:
                break
            mult += 1
        if mult:
            found.append(Eigenvalue(mult, quad=(1, 1, q)))
            found.append(Eigenvalue(mult, quad=(1, -1, q)))

    # certified intervals for anything left
    for factor, mult in (_squarefree_parts(p) if len(p) > 1 else []):
        for lo, hi in _isolate_real_roots(factor):
            found.append(Eigenvalue(mult, interval=(lo, hi)))

    found.sort(key=lambda ev: -ev.approx)
    # cross-check rational multiplicities against the exact rank of E - lam I
    # (every rational root is one of the integers tried above)
    e = g.seidel_matrix()
    for ev in found:
        if ev.rational is None:
            continue
        lam = ev.rational.numerator
        shifted = [row[:i] + [row[i] - lam] + row[i + 1:] for i, row in enumerate(e)]
        if n - _integer_rank(shifted) != ev.multiplicity:
            raise RuntimeError(f"rank check failed for eigenvalue {lam}")
    spec = SeidelSpectrum(n, tuple(found))
    _check_moments(spec)
    return spec


def _check_moments(spec: SeidelSpectrum):
    n = spec.n
    if sum(ev.multiplicity for ev in spec.eigenvalues) != n:
        raise RuntimeError("multiplicities do not sum to n")
    if spec.is_exact:
        m1 = Fraction(0)
        m2 = Fraction(0)
        irr1 = {}
        irr2 = {}
        for ev in spec.eigenvalues:
            m = ev.multiplicity
            if ev.rational is not None:
                m1 += m * ev.rational
                m2 += m * ev.rational ** 2
            else:
                a, sign, d = ev.quad
                m1 += m * a
                m2 += m * (a * a + d)
                irr1[d] = irr1.get(d, 0) + m * sign
                irr2[d] = irr2.get(d, 0) + 2 * a * sign * m
        if any(irr1.values()) or any(irr2.values()):
            raise RuntimeError("irrational parts do not cancel")
        ok = m1 == n and m2 == n * n
    else:
        m1 = sum(ev.multiplicity * ev.approx for ev in spec.eigenvalues)
        m2 = sum(ev.multiplicity * ev.approx ** 2 for ev in spec.eigenvalues)
        ok = abs(m1 - n) < 1e-6 and abs(m2 - n * n) < 1e-6 * n
    if not ok:
        raise RuntimeError(f"moment identities violated: {m1} vs {n}, {m2} vs {n * n}")


def two_eigenvalue_check(g: SeidelGraph) -> bool:
    """Whether the matrix of g has at most two distinct eigenvalues.

    Decided exactly: the degree of char_poly / gcd(char_poly, char_poly')
    counts distinct roots.
    """
    p = list(char_poly(g))
    gcd = _gcd(p, poly_derivative(p))
    return (len(p) - 1) - (len(gcd) - 1) <= 2


# ---------------------------------------------------------------------------
# line systems

@dataclass(frozen=True)
class LineSystem:
    """n unit vectors whose pairwise inner products are E[i][j] * c."""

    n: int
    dim: int
    cos_exact: str
    cos_value: float
    sign: int                 # sign of c = 1/(1 - lam)
    eigenvalue: Eigenvalue
    vectors: tuple
    gram_exact: tuple
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "cos": self.cos_exact,
            "vectors": [list(v) for v in self.vectors],
            "gram_exact": [list(row) for row in self.gram_exact],
            "residual": self.residual,
        }


def embed_lines(g: SeidelGraph, value, tol=1e-9) -> LineSystem:
    """Synthesize the line system of an extreme exact eigenvalue.

    The Gram matrix is S(1, c) with c = 1/(1 - lam); it is positive
    semidefinite exactly when lam is the smallest (c > 0) or largest (c < 0)
    eigenvalue.  Interior eigenvalues give indefinite forms and are refused.
    """
    spec = spectrum(g)
    ev = spec.find(value)
    if ev is None:
        raise ValueError(f"{value!r} is not an eigenvalue (spectrum: "
                         f"{[e.label() for e in spec.eigenvalues]})")
    if not ev.is_exact:
        raise ValueError("line synthesis needs an exactly represented eigenvalue")
    lam = ev.approx
    if lam == 1.0:
        raise ValueError("eigenvalue 1 has no finite inner-product scale")
    is_min = ev == spec.min_eigenvalue()
    is_max = ev == spec.max_eigenvalue()
    if not (is_min or is_max):
        raise ValueError("interior eigenvalue: the form is indefinite, "
                         "no Euclidean line system exists")

    n = g.n
    if ev.rational is not None:
        c_exact = Fraction(1) / (1 - ev.rational)
        c = float(c_exact)
        c_str = str(c_exact)
        edge_str = str(-c_exact)
    else:
        a, sgn, d = ev.quad
        if a != 1:
            raise ValueError("unsupported quadratic eigenvalue form")
        # c = 1/(1 - (1 + sgn*sqrt(d))) = -sgn/sqrt(d)
        c = -sgn / math.sqrt(d)
        c_str = f"{'-' if sgn > 0 else ''}1/sqrt({d})"
        edge_str = f"{'-' if sgn < 0 else ''}1/sqrt({d})"
    # off-diagonal entries are c E[i][j]: c on non-edges, -c on edges
    rows = g.seidel_matrix()
    strs = {1: c_str, -1: edge_str}
    gram_exact = []
    for i, row in enumerate(rows):
        entries = list(map(strs.__getitem__, row))
        entries[i] = "1"
        gram_exact.append(tuple(entries))
    gram = np.array(rows, dtype=float) * c
    np.fill_diagonal(gram, 1.0)

    vals, vecs = np.linalg.eigh(gram)
    rank = n - ev.multiplicity
    if vals[0] < -tol:
        raise ValueError("Gram matrix unexpectedly indefinite")
    zero_part = vals[:n - rank]
    pos_part = vals[n - rank:]
    if (zero_part.size and np.max(np.abs(zero_part)) > tol) or np.min(pos_part) <= tol:
        raise RuntimeError("numeric rank disagrees with the exact multiplicity")
    basis = vecs[:, n - rank:] * np.sqrt(pos_part)
    residual = float(np.max(np.abs(basis @ basis.T - gram)))
    if residual > tol:
        raise RuntimeError(f"reconstruction residual {residual} exceeds {tol}")

    return LineSystem(
        n=n,
        dim=rank,
        cos_exact=c_str,
        cos_value=c,
        sign=1 if c > 0 else -1,
        eigenvalue=ev,
        vectors=tuple(map(tuple, basis.tolist())),
        gram_exact=tuple(gram_exact),
        residual=residual,
    )
