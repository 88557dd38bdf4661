"""Named graphs, the t=1 family structure, fields and Paley constructions."""

import pytest

from equilines import (FieldCtx, SeidelGraph, construct,
                       extensible_params, field_ctx, find_isomorphism,
                       localize, paley_graph, paley_projective, paley_verify,
                       pentagon, quad_residue_counts, sl2_orbit_check,
                       t1_graph, triangle, verify_t1_structure)


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
        elems = f.elements
        for _ in range(40):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in elems:
            if a != f.zero:
                assert f.mul(a, f.inv(a)) == f.one
        # multiplicative group order q-1
        assert all(f.pow(a, q - 1) == f.one for a in elems if a != f.zero)


def test_quad_residues():
    for q in (5, 9, 13, 17, 25, 29):
        f = field_ctx(q)
        C = f.squares
        # non-squares by Euler's criterion, independently of f.squares
        Cbar = {a for a in f.elements
                if a != f.zero and f.pow(a, (q - 1) // 2) != f.one}
        assert len(C) == len(Cbar) == (q - 1) // 2
        assert all(f.mul(a, b) in C for a in C for b in C)
        assert C | Cbar == set(f.elements) - {f.zero}


def test_quad_residue_counts_frozen_values():
    f5 = field_ctx(5)
    assert quad_residue_counts(f5, f5.element(1)) == (0, 1)
    f13 = field_ctx(13)
    assert quad_residue_counts(f13, f13.element(1)) == (2, 3)
    f9 = field_ctx(9)
    nonsquare = next(x for x in f9.elements
                     if x != f9.zero and not f9.is_square(x))
    assert quad_residue_counts(f9, nonsquare) == (2, 2)
    with pytest.raises(ValueError):
        quad_residue_counts(f5, f5.zero)


def test_quad_residue_count_law():
    for q in (5, 9, 13, 17, 25, 29):
        f = field_ctx(q)
        s = (q - 1) // 4
        for a in f.elements:
            if a == f.zero:
                continue
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
    f = field_ctx(5)
    with pytest.raises(ValueError):
        paley_projective(5, ((f.one, f.zero), (f.element(2), f.zero)))


def test_paley_projective_localization_identity():
    from equilines.constructions import _proj_canon, _proj_index, standard_basis
    for q in (5, 9, 13):
        f = field_ctx(q)
        u, v = standard_basis(f)
        _, index = _proj_index(f)
        g = paley_projective(q, (u, v))
        assert localize(g, index[_proj_canon(f, v)]) == paley_projective(q, (v, u))


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
