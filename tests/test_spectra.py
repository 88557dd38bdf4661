"""Exact polynomials, spectra and line systems."""

import math
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilines import (SeidelGraph, apply_switching, char_poly,
                       chi_polynomial, conjugate, embed_lines,
                       paley_projective, parse_eigenvalue, spectrum,
                       two_eigenvalue_check, two_graph_group)
from equilines.spectra import (_crt_primes, _gcd, _integer_rank, _is_prime, _remainder,
                               _sign_at, _squarefree_parts, poly_divexact, poly_eval, poly_mul, poly_neg,
                               poly_pow)
from equilines.battery import expand

from conftest import random_graph
from oracles import (bareiss_det, char_poly_bareiss, chi_bareiss, integer_det,
                     rational_rank)


def test_poly_helpers():
    assert poly_mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert poly_divexact([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ArithmeticError):
        poly_divexact([1, 0, 1], [1, 1])
    assert poly_pow([0, 1], 3) == [0, 0, 0, 1]


def test_bareiss_against_numpy(rng):
    for _ in range(40):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        det = bareiss_det([[[e] for e in row] for row in m])
        value = det[0] if det else 0
        assert value == round(np.linalg.det(np.array(m, dtype=float)))


def test_char_poly_small_cases():
    k2 = SeidelGraph(2, [(0, 1)])
    assert list(char_poly(k2)) == [0, -2, 1]            # x^2 - 2x
    empty3 = SeidelGraph(3)
    assert list(char_poly(empty3)) == [0, 0, -3, 1]     # x^2 (x - 3)
    one = SeidelGraph(1)
    assert list(char_poly(one)) == [-1, 1]


def test_char_poly_pentagon_extension(extensions):
    assert list(char_poly(extensions[6])) == expand(([-4, -2, 1], 3))


@given(st.integers(2, 6), st.integers(0, 2 ** 15 - 1))
@settings(max_examples=40)
def test_char_poly_matches_numpy_roots(n, bits):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = SeidelGraph(n, [p for k, p in enumerate(pairs[: n * (n - 1) // 2])
                        if (bits >> k) & 1])
    coeffs = list(char_poly(g))
    eigs = np.linalg.eigvalsh(np.array(g.seidel_matrix(), dtype=float))
    # evaluate the exact polynomial at the numeric eigenvalues
    for lam in eigs:
        value = sum(c * lam ** k for k, c in enumerate(coeffs))
        assert abs(value) < 1e-6 * max(1.0, abs(lam)) ** g.n


def test_chi_polynomials_match_frozen_factorizations(extensions):
    assert list(chi_polynomial(extensions[4])) == poly_neg(
        expand(([-1, 3], 1), ([1, 1], 3)))
    assert list(chi_polynomial(extensions[6])) == poly_neg(
        expand(([-1, 0, 5], 3)))
    assert list(chi_polynomial(extensions[16])) == expand(
        ([1, 5], 6), ([-1, 3], 10))
    assert list(chi_polynomial(extensions[28])) == poly_neg(
        expand(([1, 9], 7), ([-1, 3], 21)))


def test_chi_paley_factorizations(paley_extensions):
    for q, ext in paley_extensions.items():
        got = list(chi_polynomial(ext))
        base = expand(([-1, 0, q], (q + 1) // 2))
        assert got in (base, poly_neg(base))
        assert got[0] == 1   # value at c=0 is det of the identity


@given(st.integers(1, 5), st.integers(0, 2 ** 10 - 1))
@settings(max_examples=40)
def test_chi_substitution_identity(n, bits):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = SeidelGraph(n, [p for k, p in enumerate(pairs)
                        if k < len(pairs) and (bits >> k) & 1])
    assert char_poly(g) == char_poly_bareiss(g)
    assert chi_polynomial(g) == chi_bareiss(g)


def test_chi_substitution_identity_large(extensions, paley_extensions):
    for g in list(extensions.values()) + list(paley_extensions.values()):
        assert char_poly(g) == char_poly_bareiss(g)
        assert chi_polynomial(g) == chi_bareiss(g)


def test_char_poly_and_chi_match_bareiss_random(rng):
    for n in range(1, 23):
        g = random_graph(rng, n)
        coeffs = char_poly(g)
        assert coeffs == char_poly_bareiss(g)
        assert chi_polynomial(g) == chi_bareiss(g)
        # the CRT modulus covers the largest coefficient seen
        assert math.prod(_crt_primes(n)) > 2 * max(abs(c) for c in coeffs)


def test_char_poly_matches_sympy(rng, extensions):
    sympy = pytest.importorskip("sympy")
    graphs = [random_graph(rng, rng.randint(1, 12)) for _ in range(30)]
    graphs += [extensions[n] for n in (6, 10, 16, 28)]
    for g in graphs:
        want = sympy.Matrix(g.seidel_matrix()).charpoly().all_coeffs()[::-1]
        assert list(char_poly(g)) == want


def test_crt_primes_are_distinct_primes_below_2_78():
    sympy = pytest.importorskip("sympy")
    used = set()
    for n in range(1, 130):
        primes = _crt_primes(n)
        assert len(set(primes)) == len(primes)
        used.update(primes)
    for p in used:
        assert 37 < p < 2 ** 78
        assert sympy.isprime(p)


def test_is_prime_is_miller_rabin_to_twelve_bases(rng):
    sympy = pytest.importorskip("sympy")
    # psi_1..psi_11: the least strong pseudoprimes to the first 1..11 prime
    # bases, so each fools a prefix of the bases but not all twelve
    for m in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not _is_prime(m)
    for _ in range(2000):
        m = rng.randrange(39, 2 ** 78, 2)
        assert _is_prime(m) == sympy.isprime(m)


def test_char_poly_crt_join_matches_integer_determinants(rng):
    # n > 30 needs two primes; a monic polynomial of degree n is fixed by its
    # values at the n + 1 points k = 0..n, here det(kI - E)
    for n in range(32, 37):
        assert len(_crt_primes(n)) >= 2
        g = random_graph(rng, n)
        e, p = g.seidel_matrix(), char_poly(g)
        assert len(p) == n + 1 and p[-1] == 1
        for k in range(n + 1):
            shifted = [[(k if i == j else 0) - x for j, x in enumerate(row)]
                       for i, row in enumerate(e)]
            assert poly_eval(p, k) == integer_det(shifted)


def test_integer_rank_matches_fraction_rank(rng):
    for _ in range(60):
        rows, cols, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(r)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
             if r else [0] * cols for row in left]
        assert _integer_rank(m) == rational_rank(m)


def test_sign_at_matches_fraction_evaluation(rng):
    for _ in range(300):
        p = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [rng.choice((-2, 1, 3))]
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        value = poly_eval([Fraction(c) for c in p], x)
        assert _sign_at(p, x) == (value > 0) - (value < 0)
    assert _sign_at([-2, 0, 1], Fraction(3, 2)) == 1 and _sign_at([-1, 1], 1) == 0


def test_import_generates_no_primes():
    code = ("import equilines\n"
            "from equilines import spectra\n"
            "assert spectra._crt_primes.cache_info().currsize == 0\n"
            "assert all(f.cache_info().maxsize for f in (spectra.char_poly,"
            " spectra.chi_polynomial, spectra.spectrum))\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ,
                            PYTHONPATH=str(Path(__file__).parents[1] / "src")))


def test_spectrum_exact_values(extensions, paley_extensions):
    sp6 = spectrum(extensions[6])
    assert [(ev.label(), ev.multiplicity) for ev in sp6.eigenvalues] == \
        [("1+sqrt(5)", 3), ("1-sqrt(5)", 3)]
    sp28 = spectrum(extensions[28])
    assert [(ev.label(), ev.multiplicity) for ev in sp28.eigenvalues] == \
        [("10", 7), ("-2", 21)]
    for q, ext in paley_extensions.items():
        sp = spectrum(ext)
        root = math.isqrt(q)
        if root * root == q:   # 1 +/- sqrt(q) are plain integers
            want = [(str(1 + root), (q + 1) // 2), (str(1 - root), (q + 1) // 2)]
        else:
            want = [(f"1+sqrt({q})", (q + 1) // 2), (f"1-sqrt({q})", (q + 1) // 2)]
        assert [(ev.label(), ev.multiplicity) for ev in sp.eigenvalues] == want
    k2 = SeidelGraph(2, [(0, 1)])
    assert [(ev.label(), ev.multiplicity) for ev in spectrum(k2).eigenvalues] == \
        [("2", 1), ("0", 1)]


class _Deadline(Exception):
    pass


@pytest.mark.parametrize("q", [29, 37, 49, 61])
def test_paley_projective_spectrum_finishes(q):
    g = paley_projective(q)
    spectrum.cache_clear()
    char_poly.cache_clear()

    def expire(signum, frame):
        raise _Deadline(f"spectrum(paley_projective({q})) took over 5 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        sp = spectrum(g)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    root, half = math.isqrt(q), (q + 1) // 2
    if root * root == q:
        want = [(str(1 + root), half), (str(1 - root), half)]
    else:
        want = [(f"1+sqrt({q})", half), (f"1-sqrt({q})", half)]
    assert [(ev.label(), ev.multiplicity) for ev in sp.eigenvalues] == want


def test_spectrum_interval_fallback():
    p4 = SeidelGraph(4, [(0, 1), (1, 2), (2, 3)])
    sp = spectrum(p4)
    assert not sp.is_exact
    assert sp.distinct_count() == 4
    # interval values really enclose 1 +/- sqrt(5)
    approxes = sorted(ev.approx for ev in sp.eigenvalues)
    assert abs(approxes[0] - (1 - math.sqrt(5))) < 1e-9
    assert abs(approxes[-1] - (1 + math.sqrt(5))) < 1e-9


def test_interval_eigenvalues_against_sympy(rng):
    """Each interval (lo, hi] holds exactly one root of det(xI - E), every
    multiplicity is the one sympy's square-free factorization gives, and the
    eigenvalues account for every distinct root.  Cycles add interval
    eigenvalues of multiplicity 2."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    graphs = [SeidelGraph(n, [(i, (i + 1) % n) for i in range(n)])
              for n in (7, 9, 11, 13)]
    while len(graphs) < 34:
        g = random_graph(rng, rng.randint(4, 14))
        if not spectrum(g).is_exact:
            graphs.append(g)
    for g in graphs:
        poly = sympy.Poly(list(reversed(char_poly(g))), x)
        _, parts = poly.sqf_list()
        sp = spectrum(g)
        assert sp.distinct_count() == poly.sqf_part().degree()
        for ev in sp.eigenvalues:
            if ev.interval is not None:
                lo, hi = (sympy.Rational(v.numerator, v.denominator)
                          for v in ev.interval)
                assert lo < hi and poly.eval(lo) != 0 and poly.eval(hi) != 0
                counts = [(f.count_roots(lo, hi), k) for f, k in parts]
                assert sorted(counts, reverse=True)[0] == (1, ev.multiplicity)
                assert sum(c for c, _ in counts) == 1
            else:
                if ev.rational is not None:
                    r = ev.rational
                    minimal = sympy.Poly(r.denominator * x - r.numerator, x)
                else:
                    a, _, d = ev.quad
                    minimal = sympy.Poly(x ** 2 - 2 * a * x + a * a - d, x)
                assert [k for f, k in parts if f.rem(minimal).is_zero] == \
                    [ev.multiplicity]
        bounds = sorted(ev.interval for ev in sp.eigenvalues if ev.interval)
        assert all(a[1] < b[0] for a, b in zip(bounds, bounds[1:]))


def _random_monic(rng, degree):
    return [rng.randint(-4, 4) for _ in range(degree)] + [1]


def test_integer_gcd_remainder_and_yun_against_sympy(rng):
    """The Z[x] remainder is a positive multiple of sympy's remainder over Q;
    the gcd and the square-free parts of monic products with repeated
    factors are sympy's."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def poly(coeffs):
        return sympy.Poly(list(reversed(coeffs)), x, domain="QQ")

    for _ in range(60):
        a = [rng.randint(-30, 30) for _ in range(rng.randint(1, 9))] + [rng.randint(1, 9)]
        b = [rng.randint(-30, 30) for _ in range(rng.randint(0, 5))] + [rng.choice((-6, -1, 2, 5))]
        want, got = poly(a).rem(poly(b)), _remainder(a, b)
        if want.is_zero:
            assert got == []
            continue
        ratio = poly(got).LC() / want.LC()
        assert ratio > 0 and poly(got) == want * ratio
        assert math.gcd(*got) == 1
    for _ in range(40):
        factors = [_random_monic(rng, rng.randint(1, 3)) for _ in range(3)]
        a = expand(*((f, rng.randint(0, 3)) for f in factors))
        b = expand(*((f, rng.randint(0, 3)) for f in factors))
        want = sympy.gcd(sympy.Poly(list(reversed(a)), x),
                         sympy.Poly(list(reversed(b)), x))
        assert _gcd(a, b) == [int(c) for c in reversed(want.all_coeffs())]
        if len(a) > 1:
            _, parts = sympy.Poly(list(reversed(a)), x).sqf_list()
            assert sorted((tuple(f), k) for f, k in _squarefree_parts(a)) == \
                sorted((tuple(int(c) for c in reversed(f.all_coeffs())), k)
                       for f, k in parts)


def _relabel_and_switch(rng, g):
    sigma = list(range(g.n))
    rng.shuffle(sigma)
    nu = tuple(rng.choice((-1, 1)) for _ in range(g.n))
    return apply_switching(conjugate(g, sigma), nu)


def _class_invariants(g):
    return (char_poly(g), chi_polynomial(g), spectrum(g).to_json_dict(),
            two_graph_group(g).order if g.n >= 3 else None)


def test_spectrum_switching_invariance(rng, extensions):
    """Metamorphic: a random relabeling and switching keeps char_poly, chi,
    the spectrum, the two-graph group order and, on the extensions, the line
    systems at both extreme eigenvalues."""
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 10))
        assert _class_invariants(_relabel_and_switch(rng, g)) == \
            _class_invariants(g)
    for g in extensions.values():
        h = _relabel_and_switch(rng, g)
        assert _class_invariants(h) == _class_invariants(g)
        sp = spectrum(g)
        for ev in (sp.min_eigenvalue(), sp.max_eigenvalue()):
            want, got = embed_lines(g, ev.label()), embed_lines(h, ev.label())
            assert (got.dim, got.cos_exact) == (want.dim, want.cos_exact)


def test_spectrum_moments(rng):
    # the constructor enforces the identities; just touch many graphs
    for _ in range(25):
        spectrum(random_graph(rng, rng.randint(2, 8)))


def test_two_eigenvalue_check(extensions):
    for ext in extensions.values():
        assert two_eigenvalue_check(ext)
    assert two_eigenvalue_check(SeidelGraph(2, [(0, 1)]))
    p4 = SeidelGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert not two_eigenvalue_check(p4)


def test_doubly_transitive_implies_two_eigenvalues(extensions, paley_extensions,
                                                   two_graph_groups):
    for n, grp in two_graph_groups.items():
        assert grp.is_doubly_transitive()
        assert two_eigenvalue_check(extensions[n])
    for ext in paley_extensions.values():
        assert two_eigenvalue_check(ext)


def test_parse_eigenvalue():
    assert parse_eigenvalue("-2").rational == Fraction(-2)
    assert parse_eigenvalue("3/2").rational == Fraction(3, 2)
    assert parse_eigenvalue("1+sqrt(5)").quad == (1, 1, 5)
    assert parse_eigenvalue("1 - sqrt(13)").quad == (1, -1, 13)
    with pytest.raises(ValueError):
        parse_eigenvalue("sqrt")


def check_line_system(ls, g, want_dim, want_cos):
    assert ls.dim == want_dim
    assert ls.residual <= 1e-9
    vecs = [np.array(v) for v in ls.vectors]
    for v in vecs:
        assert abs(np.dot(v, v) - 1) <= 1e-9
    for i in range(g.n):
        for j in range(i + 1, g.n):
            inner = float(np.dot(vecs[i], vecs[j]))
            assert abs(abs(inner) - want_cos) <= 1e-9
            # sign pattern is the matrix entry times the recorded sign
            assert math.copysign(1, inner) == \
                g.seidel_entry(i, j) * ls.sign


def test_line_systems(extensions, paley_extensions):
    check_line_system(embed_lines(extensions[6], "1-sqrt(5)"),
                      extensions[6], 3, 1 / math.sqrt(5))
    check_line_system(embed_lines(extensions[16], "-2"),
                      extensions[16], 6, 1 / 3)
    check_line_system(embed_lines(extensions[28], "-2"),
                      extensions[28], 7, 1 / 3)
    check_line_system(embed_lines(extensions[28], "10"),
                      extensions[28], 21, 1 / 9)
    check_line_system(embed_lines(paley_extensions[13], "1-sqrt(13)"),
                      paley_extensions[13], 7, 1 / math.sqrt(13))


def test_line_system_errors(extensions):
    with pytest.raises(ValueError):
        embed_lines(extensions[6], "7")            # not an eigenvalue
    with pytest.raises(ValueError):
        embed_lines(extensions[6], "1+sqrt(7)")
    g = SeidelGraph(4, [(0, 1), (1, 2), (2, 3)])   # 4 distinct eigenvalues
    sp = spectrum(g)
    inner = sorted(sp.eigenvalues, key=lambda ev: ev.approx)[1]
    with pytest.raises(ValueError):
        embed_lines(g, "2" if inner.label() == "2" else inner.label())


def test_line_system_json(extensions):
    d = embed_lines(extensions[16], "-2").to_json_dict()
    assert d["n"] == 16 and d["dim"] == 6 and d["cos"] == "1/3"
    assert len(d["vectors"]) == 16 and len(d["vectors"][0]) == 6
    assert d["gram_exact"][0][0] == "1"
    assert set(d["gram_exact"][0][1:]) <= {"1/3", "-1/3"}
    assert d["residual"] <= 1e-9


def test_gram_exact_entries_match_matrix(extensions):
    g = extensions[16]
    ls = embed_lines(g, "-2")
    for i in range(g.n):
        for j in range(g.n):
            want = Fraction(1) if i == j else Fraction(g.seidel_entry(i, j), 3)
            assert Fraction(ls.gram_exact[i][j]) == want


def test_gram_exact_entries_both_signs(extensions):
    # c * E[i][j] as exact strings, for c > 0 and c < 0, rational and surd
    for g, value, c, text in (
            (extensions[16], "6", Fraction(-1, 5), None),
            (extensions[6], "1-sqrt(5)", 1, "1/sqrt(5)"),
            (extensions[6], "1+sqrt(5)", -1, "1/sqrt(5)")):
        ls = embed_lines(g, value)
        for i in range(g.n):
            for j in range(g.n):
                e = 1 if i == j else g.seidel_entry(i, j) * c
                want = "1" if i == j else (str(e) if text is None else
                                           f"{'-' if e < 0 else ''}{text}")
                assert ls.gram_exact[i][j] == want
