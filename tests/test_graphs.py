"""Switching, localization, conjugation and serialization of Seidel graphs."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilines import (SeidelGraph, apply_switching, complement, conjugate,
                       find_isomorphism, from_graph6, graph_from_json,
                       graph_to_json, is_switching_equivalent,
                       localization_vector, localize, neighborhood, pentagon,
                       to_graph6, triple_sign)

from conftest import random_graph


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.integers(0, 2 ** len(pairs) - 1))
    return SeidelGraph(n, [p for k, p in enumerate(pairs) if (bits >> k) & 1])


@st.composite
def graphs_with_switching(draw, min_n=1, max_n=7):
    g = draw(graphs(min_n, max_n))
    nu = tuple(draw(st.sampled_from((-1, 1))) for _ in range(g.n))
    return g, nu


def test_seidel_matrix_convention():
    g = SeidelGraph(3, [(0, 1)])
    assert g.seidel_matrix() == [[1, -1, 1], [-1, 1, 1], [1, 1, 1]]


def test_graph_validation():
    with pytest.raises(ValueError):
        SeidelGraph(0)
    with pytest.raises(ValueError):
        SeidelGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        SeidelGraph(3, [(0, 5)])


def test_identity_switching():
    g = pentagon()
    assert apply_switching(g, (1,) * 5) == g


def test_pentagon_switching_example():
    got = apply_switching(pentagon(), (-1, 1, 1, 1, 1))
    assert got.edges() == [(0, 2), (0, 3), (1, 2), (2, 3), (3, 4)]


def test_switching_vector_validation():
    with pytest.raises(ValueError):
        apply_switching(pentagon(), (1, 1, 1))
    with pytest.raises(ValueError):
        apply_switching(pentagon(), (1, 1, 0, 1, 1))


@given(graphs_with_switching())
def test_switching_is_an_involution(case):
    g, nu = case
    assert apply_switching(apply_switching(g, nu), nu) == g


@given(graphs_with_switching(min_n=3))
@settings(max_examples=60)
def test_triple_sign_invariant_under_switching(case):
    g, nu = case
    assert triple_sign(apply_switching(g, nu)) == triple_sign(g)


def test_triple_sign_values():
    tri = SeidelGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert triple_sign(tri) == {(0, 1, 2): -1}
    assert triple_sign(SeidelGraph(3)) == {(0, 1, 2): 1}
    with pytest.raises(ValueError):
        triple_sign(SeidelGraph(2, [(0, 1)]))


def test_localize_pentagon():
    loc = localize(pentagon(), 0)
    assert loc.degree(0) == 0
    assert loc.edges() == [(1, 3), (2, 3), (2, 4)]
    # matches the defining sign vector
    nu = localization_vector(pentagon(), 0)
    assert nu == (1, -1, 1, 1, -1)
    assert apply_switching(pentagon(), nu) == loc


def test_localize_fixed_point():
    g = SeidelGraph(4, [(1, 2), (2, 3)])
    assert localize(g, 0) == g   # vertex 0 already isolated
    with pytest.raises(ValueError):
        localize(g, 7)


@given(graphs(max_n=6), st.data())
def test_localize_idempotence_law(g, data):
    j = data.draw(st.integers(0, g.n - 1))
    k = data.draw(st.integers(0, g.n - 1))
    assert localize(localize(g, j), k) == localize(g, k)


def test_conjugate_is_a_group_action():
    g = pentagon()
    rot = (1, 2, 3, 4, 0)
    assert conjugate(g, rot) == g   # rotation is an automorphism
    assert conjugate(g, (0, 1, 2, 3, 4)) == g
    sigma = (2, 0, 3, 1, 4)
    inv = tuple(sigma.index(i) for i in range(5))
    assert conjugate(conjugate(g, sigma), inv) == g
    with pytest.raises(ValueError):
        conjugate(g, (0, 0, 1, 2, 3))


def test_bitset_builders_match_definitions(rng):
    cases = [SeidelGraph(1), SeidelGraph(9)]
    cases += [random_graph(rng, n) for n in [2, 3] + [rng.randint(4, 40) for _ in range(12)]]
    for g in cases:
        n = g.n
        assert g.seidel_matrix() == [[g.seidel_entry(i, j) for j in range(n)]
                                     for i in range(n)]
        for j in range(n):
            assert localize(g, j) == apply_switching(g, localization_vector(g, j))
        for bad in (-1, n):
            with pytest.raises(ValueError):
                localize(g, bad)
        sigma = list(range(n))
        rng.shuffle(sigma)
        relabeled = {frozenset((sigma[i], sigma[j])) for i, j in g.edges()}
        assert {frozenset(e) for e in conjugate(g, sigma).edges()} == relabeled


@given(graphs(max_n=6), st.data())
@settings(max_examples=60)
def test_conjugation_commutes_with_localization(g, data):
    sigma = tuple(data.draw(st.permutations(range(g.n))))
    j = data.draw(st.integers(0, g.n - 1))
    assert conjugate(localize(g, j), sigma) == localize(conjugate(g, sigma), sigma[j])


def test_switching_equivalence_witness():
    g = pentagon()
    nu = is_switching_equivalent(g, g)
    assert nu == (1,) * 5
    nu = is_switching_equivalent(g, localize(g, 2))
    assert nu is not None and apply_switching(g, nu) == localize(g, 2)
    assert is_switching_equivalent(g, complement(g)) is None
    with pytest.raises(ValueError):
        is_switching_equivalent(g, SeidelGraph(4))


@given(graphs(min_n=2, max_n=6), graphs(min_n=2, max_n=6))
@settings(max_examples=60)
def test_switching_equivalence_matches_exhaustion(g1, g2):
    if g1.n != g2.n:
        return
    witness = is_switching_equivalent(g1, g2)
    brute = any(apply_switching(g1, nu) == g2
                for nu in product((-1, 1), repeat=g1.n))
    assert (witness is not None) == brute
    if witness is not None:
        assert apply_switching(g1, witness) == g2


def test_neighborhood_selectors():
    g = pentagon()
    assert neighborhood(g, 0, 1) == {1, 4}
    assert neighborhood(g, 0, 2) == {2, 3}
    assert neighborhood(g, 0, 0) == {0}
    assert neighborhood(g, 0, "2+") == {2, 3}
    assert neighborhood(localize(g, 0), 0, 1) == frozenset()
    disconnected = SeidelGraph(4, [(0, 1)])
    assert neighborhood(disconnected, 0, 2) == frozenset()
    assert neighborhood(disconnected, 0, "2+") == {2, 3}
    with pytest.raises(ValueError):
        neighborhood(g, 9, 1)
    with pytest.raises(ValueError):
        neighborhood(g, 0, 3)


def test_liaison_parity_law(rng):
    for _ in range(50):
        n = rng.randint(3, 8)
        g = random_graph(rng, n)
        x, y = rng.sample(range(n), 2)
        gx, gy = localize(g, x), localize(g, y)
        shared = neighborhood(gy, x, 1)
        assert shared == neighborhood(gx, y, 1)
        for k in range(n):
            for l in range(k + 1, n):
                same = gx.adjacent(k, l) == gy.adjacent(k, l)
                assert same == (len({k, l} & shared) % 2 == 0)


def test_complement():
    k4 = SeidelGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert complement(k4) == SeidelGraph(4)
    assert complement(complement(pentagon())) == pentagon()
    # the pentagon is self-complementary through i -> 2i mod 5
    relabel = tuple(2 * i % 5 for i in range(5))
    assert conjugate(pentagon(), relabel) == complement(pentagon())
    assert find_isomorphism(pentagon(), complement(pentagon())) is not None


@given(graphs())
def test_graph6_roundtrip(g):
    assert from_graph6(to_graph6(g)) == g


def test_graph6_against_networkx(rng):
    nx = pytest.importorskip("networkx")
    # 62 and 63 straddle the switch to the four-byte size header
    for n in [rng.randint(1, 13) for _ in range(100)] + [62, 63]:
        g = random_graph(rng, n)
        blob = to_graph6(g)
        h = nx.from_graph6_bytes(blob.encode())
        assert h.number_of_nodes() == g.n
        assert {frozenset(e) for e in h.edges()} == {frozenset(e) for e in g.edges()}
        assert from_graph6(nx.to_graph6_bytes(h, header=False)) == g


def test_graph6_large_n():
    g = SeidelGraph(70, [(0, 69), (1, 2)])
    assert from_graph6(to_graph6(g)) == g


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("D\x01")
    with pytest.raises(ValueError):
        from_graph6("Dhcc")


@given(graphs())
def test_json_roundtrip(g):
    d = graph_to_json(g)
    assert d["edges"] == sorted(d["edges"])
    assert graph_from_json(d) == g
