"""Named graphs, the t=1 family structure, fields and Paley constructions."""

import random

import pytest

from equilines import (FieldCtx, SeidelGraph, construct,
                       extensible_params, field_ctx, find_isomorphism,
                       localize, paley_graph, paley_projective, paley_verify,
                       pentagon, quad_residue_counts, sl2_orbit_check,
                       t1_graph, triangle, verify_t1_structure)
from equilines.constructions import sl2_point_permutations
from oracles import TupleField


def test_construct_dispatch():
    assert construct("pentagon") == pentagon()
    assert construct("triangle") == triangle()
    assert construct("t1:3") == t1_graph(3)
    assert construct("paley:5") == paley_graph(5)
    assert construct("paley-proj:5") == paley_projective(5)
    with pytest.raises(ValueError):
        construct("heptagon")
    with pytest.raises(ValueError):
        t1_graph(4)


def test_t1_family_parameters():
    assert t1_graph(1) == triangle()
    for s, sbar in ((2, 2), (3, 4), (5, 8)):
        g = t1_graph(s)
        assert g.n == 2 + 2 * s + 2 * sbar - 1
        assert extensible_params(g).as_tuple() == (1, s, sbar)


def test_t1_structure_square_cube_hypercube():
    st2 = verify_t1_structure(t1_graph(2), 0)
    assert st2.group_size == 4 and st2.rank == 2
    far = sorted(v for pair in st2.parts[0] for v in pair)
    square = SeidelGraph(4, [(0, 1), (1, 3), (2, 3), (0, 2)])
    relabel = {v: i for i, v in enumerate(far)}
    induced = SeidelGraph(4, [(relabel[a], relabel[b])
                              for a, b in t1_graph(2).edges()
                              if a in relabel and b in relabel])
    assert find_isomorphism(induced, square) is not None

    st3 = verify_t1_structure(t1_graph(3), 0)
    assert st3.group_size == 8 and st3.rank == 3
    cube = SeidelGraph(8, [(a, b) for a in range(8) for b in range(a + 1, 8)
                           if bin(a ^ b).count("1") == 1])
    far = sorted(v for pair in st3.parts[0] for v in pair)
    relabel = {v: i for i, v in enumerate(far)}
    induced = SeidelGraph(8, [(relabel[a], relabel[b])
                              for a, b in t1_graph(3).edges()
                              if a in relabel and b in relabel])
    assert find_isomorphism(induced, cube) is not None

    st5 = verify_t1_structure(t1_graph(5), 0)
    assert st5.group_size == 16 and st5.rank == 4   # rank s-1, dependent fifth
    hyper = SeidelGraph(16, [(a, b) for a in range(16) for b in range(a + 1, 16)
                             if bin(a ^ b).count("1") in (1, 4)])
    far = sorted(v for pair in st5.parts[0] for v in pair)
    relabel = {v: i for i, v in enumerate(far)}
    induced = SeidelGraph(16, [(relabel[a], relabel[b])
                               for a, b in t1_graph(5).edges()
                               if a in relabel and b in relabel])
    assert find_isomorphism(induced, hyper) is not None


def test_t1_structure_at_every_vertex():
    g = t1_graph(2)
    for y in range(g.n):
        st = verify_t1_structure(g, y)
        assert st.group_size == 4
        assert len(st.pairs) == 2
        assert all(len(p1) == len(p2) == 2 for p1, p2 in st.parts)


def test_t1_structure_rejects_bad_graphs():
    with pytest.raises(ValueError):
        verify_t1_structure(pentagon(), 0)        # t = 0
    with pytest.raises(ValueError):
        verify_t1_structure(triangle(), 0)        # s = 1


def test_t1_2_is_paley_9():
    assert find_isomorphism(t1_graph(2), paley_graph(9)) is not None


# ---------------------------------------------------------------------------
# fields

def _power(f, a, k):
    """a^k by k - 1 multiplications, for k >= 1."""
    out = a
    for _ in range(k - 1):
        out = f.mul(out, a)
    return out


def test_field_construction():
    f9 = field_ctx(9)
    assert f9.modulus == (1, 0, 1)   # x^2 + 1 over F_3
    assert f9.p == 3 and f9.e == 2
    with pytest.raises(ValueError):
        FieldCtx(8)    # even
    with pytest.raises(ValueError):
        FieldCtx(12)   # not a prime power


def test_field_axioms_spot_check(rng):
    for q in (9, 25, 13):
        f = field_ctx(q)
        elems = range(q)
        for _ in range(40):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
        # multiplicative group order q-1
        assert all(_power(f, a, q - 1) == 1 for a in range(1, q))


@pytest.mark.parametrize("q", (3, 5, 7, 9, 25, 27, 49, 81, 121, 125))
def test_field_tables_match_tuple_oracle(q):
    f = field_ctx(q)
    o = TupleField(f.p, f.e, f.modulus)
    el, idx = o.elements, o.index
    pairs = [(a, b) for a in range(q) for b in range(q)]
    for op, ref in ((f.add, o.add), (f.sub, o.sub), (f.mul, o.mul)):
        assert [op(a, b) for a, b in pairs] == [idx(ref(el[a], el[b]))
                                               for a, b in pairs]
    assert [f.inv(a) for a in range(1, q)] == [idx(o.inv(el[a]))
                                               for a in range(1, q)]
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    assert f.squares == {idx(x) for x in o.squares}


def _oracle_point(o, x, y):
    """Vertex of <(x, y)> under the library's labeling, in tuple arithmetic."""
    if x != o.zero:
        return o.index(o.mul(o.inv(x), y))
    return len(o.elements)


@pytest.mark.parametrize("q", (9, 25, 49, 81))
def test_paley_constructions_match_tuple_oracle(q):
    f = field_ctx(q)
    o = TupleField(f.p, f.e, f.modulus)
    el = o.elements
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)
             if o.sub(el[i], el[j]) in o.squares]
    assert paley_graph(q) == SeidelGraph(q, pairs)

    bases = [(1, 0, 0, 1), (0, 1, 1, 0)]
    rng = random.Random(q)
    while len(bases) < 6:
        basis = tuple(rng.randrange(q) for _ in range(4))
        u0, u1, v0, v1 = (el[i] for i in basis)
        if o.sub(o.mul(u0, v1), o.mul(u1, v0)) != o.zero:
            bases.append(basis)
    for basis in bases:
        u0, u1, v0, v1 = (el[i] for i in basis)
        theta = [_oracle_point(o, o.add(o.mul(lam, u0), v0),
                               o.add(o.mul(lam, u1), v1)) for lam in el]
        want = SeidelGraph(q + 1, [(theta[i], theta[j]) for i, j in pairs])
        assert paley_projective(q, (basis[:2], basis[2:])) == want

    points = [(o.one, y) for y in el] + [(o.zero, o.one)]
    want = []
    for k in range(f.e):
        a = o.element(f.p ** k)
        want.append(tuple(_oracle_point(o, o.add(x, o.mul(a, y)), y)
                          for x, y in points))
        want.append(tuple(_oracle_point(o, x, o.add(o.mul(a, x), y))
                          for x, y in points))
    assert sl2_point_permutations(q) == want


def test_quad_residues():
    for q in (5, 9, 13, 17, 25, 29):
        f = field_ctx(q)
        C = f.squares
        # non-squares by Euler's criterion, independently of f.squares
        Cbar = {a for a in range(1, q) if _power(f, a, (q - 1) // 2) != 1}
        assert len(C) == len(Cbar) == (q - 1) // 2
        assert all(f.mul(a, b) in C for a in C for b in C)
        assert C | Cbar == set(range(1, q))


def test_quad_residue_counts_frozen_values():
    f5 = field_ctx(5)
    assert quad_residue_counts(f5, 1) == (0, 1)
    f13 = field_ctx(13)
    assert quad_residue_counts(f13, 1) == (2, 3)
    f9 = field_ctx(9)
    nonsquare = next(x for x in range(1, 9) if not f9.is_square(x))
    assert quad_residue_counts(f9, nonsquare) == (2, 2)
    with pytest.raises(ValueError):
        quad_residue_counts(f5, 0)


def test_quad_residue_count_law():
    for q in (5, 9, 13, 17, 25, 29):
        f = field_ctx(q)
        s = (q - 1) // 4
        for a in range(1, q):
            want = (s - 1, s) if f.is_square(a) else (s, s)
            assert quad_residue_counts(f, a) == want


# ---------------------------------------------------------------------------
# Paley graphs

def test_paley_5_is_pentagon():
    assert paley_graph(5) == pentagon()


def test_paley_rejects_3_mod_4():
    with pytest.raises(ValueError):
        paley_graph(7)
    with pytest.raises(ValueError):
        paley_projective(7)


def test_paley_parameters():
    for q in (5, 9, 13, 17, 29):
        t = (q - 5) // 4
        assert extensible_params(paley_graph(q)).as_tuple() == (t, t + 1, t + 1)


def test_paley_self_complementary():
    from equilines import complement
    for q in (5, 9, 13, 17):
        g = paley_graph(q)
        assert find_isomorphism(g, complement(g)) is not None


def test_paley_projective_shape():
    g = paley_projective(5)
    assert g.n == 6
    iso = next(v for v in range(6) if g.degree(v) == 0)
    keep = [v for v in range(6) if v != iso]
    relabel = {v: i for i, v in enumerate(keep)}
    induced = SeidelGraph(5, [(relabel[a], relabel[b]) for a, b in g.edges()])
    assert find_isomorphism(induced, pentagon()) is not None


def test_paley_projective_degenerate_basis():
    with pytest.raises(ValueError):
        paley_projective(5, ((1, 0), (2, 0)))


def test_paley_projective_localization_identity():
    from equilines.constructions import _point
    for q in (5, 9, 13):
        f = field_ctx(q)
        u, v = (1, 0), (0, 1)
        g = paley_projective(q, (u, v))
        assert localize(g, _point(f, *v)) == paley_projective(q, (v, u))


def test_paley_verify_reports():
    for q in (5, 9):
        report = paley_verify(q)
        assert report["shifted_square_counts"]
        assert report["common_neighbor_law"]
        assert report["basis_swap_is_localization"]
        assert report["determinant_criterion"]
        assert report["two_orbits"]


def test_sl2_two_orbits():
    for q, count in ((5, 12), (9, 20), (13, 28)):
        assert sl2_orbit_check(q) == {
            "q": q, "graph_count": count, "orbit_count": 2,
            "orbit_sizes": [q + 1, q + 1], "orbits_cover_all": True,
            "localization_set_is_orbit": True, "swap_in_same_orbit": True}
    with pytest.raises(ValueError):
        sl2_orbit_check(17)
