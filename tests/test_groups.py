"""Permutation group machinery and the graph group computations."""

from itertools import permutations

import pytest

from equilines import (DegreeCapError, PermGroup, SeidelGraph,
                       automorphism_group, conjugate, extend, find_isomorphism,
                       is_switching_equivalent, localize, paley_graph,
                       paley_projective, pentagon, t1_graph, triangle,
                       two_graph_group)
from equilines.cli import main
from equilines.groups import (_IsoSearch, identity_perm, perm_inv, perm_mul,
                              perm_order)

from conftest import random_graph
from oracles import group_by_search_unpruned, pair_orbit_doubly_transitive


def brute_elements(n, gens):
    seen = {identity_perm(n)}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = perm_mul(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_perm_primitives():
    p = (1, 2, 0, 4, 3)
    assert perm_mul(p, perm_inv(p)) == identity_perm(5)
    assert perm_order(p) == 6
    assert perm_order(identity_perm(4)) == 1


def test_trivial_and_cyclic_orders():
    assert PermGroup(3).order == 1
    assert PermGroup(6, [(1, 2, 3, 4, 5, 0)]).order == 6


def test_schreier_sims_against_enumeration(rng):
    for _ in range(40):
        n = rng.randint(2, 7)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        elements = brute_elements(n, gens)
        group = PermGroup(n, gens)
        assert group.order == len(elements)
        for _ in range(5):
            p = tuple(rng.sample(range(n), n))
            assert group.contains(p) == (p in elements)


def test_orbits_and_transitivity():
    ident = PermGroup(3)
    assert ident.orbits() == [[0], [1], [2]]
    assert not ident.is_transitive()
    rot = PermGroup(5, [(1, 2, 3, 4, 0)])
    assert rot.is_transitive()
    assert not rot.is_doubly_transitive()   # pair orbits split by distance
    s4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert s4.is_doubly_transitive()
    assert rot.orbits([0, 2]) == [[0, 1, 2, 3, 4]]


def test_automorphism_groups_of_small_graphs():
    assert automorphism_group(pentagon()).order == 10
    k4 = SeidelGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert automorphism_group(k4).order == 24
    assert automorphism_group(t1_graph(2)).order == 72
    assert automorphism_group(SeidelGraph(1)).order == 1


def test_automorphism_generators_are_automorphisms():
    g = t1_graph(2)
    grp = automorphism_group(g)
    for sigma in grp.generators:
        assert conjugate(g, sigma) == g
        assert grp.order % perm_order(sigma) == 0


def test_two_graph_group_contains_automorphisms(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 7))
        aut = automorphism_group(g)
        two = two_graph_group(g)
        assert two.order % aut.order == 0
        for sigma in aut.generators:
            assert two.contains(sigma)


def test_two_graph_group_membership_criterion(rng):
    # every generator sigma satisfies the localized identity at every index
    for _ in range(6):
        g = random_graph(rng, rng.randint(3, 6))
        two = two_graph_group(g)
        for sigma in two.generators:
            for j in range(g.n):
                assert conjugate(localize(g, j), sigma) == localize(g, sigma[j])


def test_two_graph_group_of_empty_graph_is_symmetric():
    assert two_graph_group(SeidelGraph(3)).order == 6


def test_two_graph_group_is_switching_invariant(rng):
    for _ in range(6):
        n = rng.randint(3, 8)
        g = random_graph(rng, n)
        nu = tuple(rng.choice((-1, 1)) for _ in range(n))
        from equilines import apply_switching
        h = apply_switching(g, nu)
        G, H = two_graph_group(g), two_graph_group(h)
        assert G.order == H.order
        assert all(H.contains(s) for s in G.generators)
        assert all(G.contains(s) for s in H.generators)


def test_small_extension_groups(two_graph_groups):
    assert two_graph_groups[4].order == 24
    assert two_graph_groups[6].order == 60
    assert two_graph_groups[10].order == 720


def test_extension_group_order_formula(two_graph_groups, extensions):
    # |G(extension)| = n * |Aut(base graph)| in every constructed case
    bases = {4: triangle(), 6: pentagon(), 10: t1_graph(2), 16: t1_graph(3),
             28: t1_graph(5)}
    for n, grp in two_graph_groups.items():
        assert grp.order == n * automorphism_group(bases[n]).order


def test_degree_cap(monkeypatch):
    big = SeidelGraph(70, [(0, 1)])
    with pytest.raises(DegreeCapError):
        automorphism_group(big)
    monkeypatch.setenv("EQUILINES_SEARCH_CAP", "16")
    with pytest.raises(DegreeCapError):
        automorphism_group(SeidelGraph(20))
    monkeypatch.setenv("EQUILINES_SEARCH_CAP", "80")
    assert automorphism_group(SeidelGraph(70)).order > 0


def test_find_isomorphism(rng):
    g = t1_graph(2)
    assert find_isomorphism(g, paley_graph(9)) is not None
    assert find_isomorphism(pentagon(), SeidelGraph(5, [(0, 1)])) is None
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 7))
        sigma = tuple(rng.sample(range(g.n), g.n))
        h = conjugate(g, sigma)
        tau = find_isomorphism(g, h)
        assert tau is not None and conjugate(g, tau) == h


def test_group_json():
    d = automorphism_group(pentagon()).to_json_dict()
    assert d["order"] == "10"
    assert d["transitivity"] == 1
    assert all(sorted(gen) == list(range(5)) for gen in d["generators"])


def test_localized_graphs_of_extension_are_isomorphic(extensions):
    g = extensions[6]
    locs = [localize(g, j) for j in range(g.n)]
    for h in locs[1:]:
        assert find_isomorphism(locs[0], h) is not None
        assert is_switching_equivalent(locs[0], h) is not None


# -- completeness and equivalence oracles for the pruned search -------------

def unpruned_search(g, two_graph):
    """The searched chain without fixed-point pruning, from the same
    searchers the library builds."""
    if not two_graph:
        return group_by_search_unpruned(g.n, _IsoSearch(g.adj, g.adj).find)
    adjs = [localize(g, j).adj for j in range(g.n)]
    searchers = {}

    def find(prefix):
        q0 = prefix[0]
        if q0 not in searchers:
            searchers[q0] = _IsoSearch(adjs[0], adjs[q0])
        return searchers[q0].find(prefix)

    return group_by_search_unpruned(g.n, find)


@pytest.fixture(scope="module")
def constructed(extensions):
    """Every constructed graph whose groups the paper pins."""
    graphs = {f"extension n={n}": g for n, g in extensions.items()}
    for q in (9, 13, 17):
        graphs[f"paley {q} extension"] = extend(paley_graph(q))
    for q in (25, 29, 37):
        graphs[f"paley-proj {q}"] = paley_projective(q)
    return graphs


def test_groups_against_brute_force(rng):
    graphs = [random_graph(rng, rng.randint(3, 7)) for _ in range(8)]
    graphs += [extend(triangle()), extend(pentagon()), SeidelGraph(7),
               SeidelGraph(6, [(0, 1), (2, 3), (4, 5)])]
    for g in graphs:
        perms = list(permutations(range(g.n)))
        aut = {p for p in perms if conjugate(g, p) == g}
        two = {p for p in perms
               if is_switching_equivalent(conjugate(g, p), g) is not None}
        for grp, want in ((automorphism_group(g), aut),
                          (two_graph_group(g), two)):
            assert grp.order == len(want)
            assert brute_elements(g.n, grp.generators) == want


def test_automorphism_orders_against_networkx(rng):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    graphs = [random_graph(rng, rng.randint(1, 10)) for _ in range(20)]
    graphs += [pentagon(), t1_graph(2), extend(pentagon()), extend(triangle())]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        count = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        assert automorphism_group(g).order == count


def test_searched_order_matches_schreier_sims(constructed):
    for name, g in constructed.items():
        for grp in (two_graph_group(g), automorphism_group(g)):
            assert PermGroup(g.n, grp.generators).order == grp.order, name


def test_pruned_search_matches_unpruned(rng, constructed):
    graphs = [random_graph(rng, rng.randint(3, 12)) for _ in range(40)]
    graphs += list(constructed.values())
    for g in graphs:
        for two_graph, build in ((False, automorphism_group),
                                 (True, two_graph_group)):
            grp = build(g)
            gens, levels = unpruned_search(g, two_graph)
            assert grp.generators == tuple(gens)
            assert grp._levels == levels


def test_doubly_transitive_matches_pair_orbits(rng, constructed):
    outcomes = []
    for _ in range(600):
        n = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = list(range(n))
            kind = rng.randrange(3)
            if kind == 0:
                rng.shuffle(p)
            elif kind == 1 and n > 1:     # a cycle on a random subset
                pts = rng.sample(range(n), rng.randint(2, n))
                for a, b in zip(pts, pts[1:] + pts[:1]):
                    p[a] = b
            elif n > 1:                   # one transposition
                a, b = rng.sample(range(n), 2)
                p[a], p[b] = b, a
            gens.append(tuple(p))
        want = pair_orbit_doubly_transitive(n, gens)
        assert PermGroup(n, gens).is_doubly_transitive() == want, gens
        outcomes.append(want)
    assert 100 < sum(outcomes) < 500
    for name, g in constructed.items():
        for grp in (two_graph_group(g), automorphism_group(g)):
            assert grp.is_doubly_transitive() == \
                pair_orbit_doubly_transitive(g.n, grp.generators), name


def test_search_counts_are_pruned(monkeypatch, extensions):
    calls = []
    plain = _IsoSearch.find

    def counted(self, prefix=()):
        calls.append(prefix)
        return plain(self, prefix)

    monkeypatch.setattr(_IsoSearch, "find", counted)
    # unpruned counts: 324 and 346 on the t1:5 extension, 1748 and 1806 on
    # the Paley two-graph at q = 61
    for g, unpruned in ((extensions[28], (324, 346)),
                        (paley_projective(61), (1748, 1806))):
        for build, before in zip((two_graph_group, automorphism_group),
                                 unpruned):
            calls.clear()
            build(g)
            assert len(calls) <= before // 10, (build.__name__, len(calls))


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-3", " "])
def test_bad_search_cap_rejected(monkeypatch, capsys, tmp_path, raw):
    monkeypatch.setenv("EQUILINES_SEARCH_CAP", raw)
    g = extend(pentagon())
    for call in (lambda: automorphism_group(g), lambda: two_graph_group(g),
                 lambda: find_isomorphism(g, g)):
        with pytest.raises(ValueError, match="EQUILINES_SEARCH_CAP must be a"):
            call()
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1]]}')
    assert main(["group", "--input", str(path)]) == 1
    assert "EQUILINES_SEARCH_CAP must be a" in capsys.readouterr().err
