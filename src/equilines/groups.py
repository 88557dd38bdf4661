"""Exact permutation groups: stabilizer chains, graph automorphism groups and
the group of a switching class.

Permutations are image tuples: p[i] is the image of point i, and
perm_mul(p, q) applies p first, then q.  Everything is deterministic: base
points are 0..n-1 in order, orbits are explored smallest point first, and
backtracking tries candidate images in increasing order, so a given input
always yields the same generators, chain and order.

The group of a switching class is found without enumerating sign vectors:
a permutation s belongs to it iff it maps the localization at vertex 0 onto
the localization at s(0), which turns membership into a constrained graph
isomorphism problem between precomputed localized graphs.

Both group searches build their chain level by level, one prefix search per
target the known generators do not reach yet.  Before level i searches, one
round of refinement from the fixed points 0..i-1 narrows each vertex's
candidate images (same degree, same adjacency to every fixed point); targets
outside vertex i's candidates are not searched, and once every candidate set
is a single vertex the pointwise stabilizer is trivial and the search stops.
Double transitivity is read off the chain: the first transversal covers all
n points and the second the remaining n - 1.
"""

from __future__ import annotations

import os
from math import gcd

from .graphs import SeidelGraph, conjugate, localize

DEFAULT_SEARCH_CAP = 64


class DegreeCapError(ValueError):
    pass


def _search_cap() -> int:
    raw = os.environ.get("EQUILINES_SEARCH_CAP", "")
    if not raw:
        return DEFAULT_SEARCH_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"EQUILINES_SEARCH_CAP must be a positive integer, got {raw!r}")
    return cap


def _check_cap(n: int):
    cap = _search_cap()
    if n > cap:
        raise DegreeCapError(
            f"group search on {n} points exceeds the cap of {cap} "
            "(set EQUILINES_SEARCH_CAP to raise it)")


# ---------------------------------------------------------------------------
# permutation primitives

def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def perm_mul(p, q) -> tuple:
    """Composite permutation: apply p first, then q."""
    return tuple(q[x] for x in p)


def perm_inv(p) -> tuple:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def perm_order(p) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = order * length // gcd(order, length)
    return order


def check_perm(p, n: int) -> tuple:
    p = tuple(p)
    if sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {p}")
    return p


# ---------------------------------------------------------------------------
# stabilizer chains

class PermGroup:
    """Permutation group with a deterministic stabilizer chain.

    The chain is a list of (base point, transversal) pairs where each
    transversal maps an orbit point to a group element carrying the base
    point there while fixing all earlier base points.  The order is the
    product of the transversal sizes.
    """

    def __init__(self, degree: int, generators=(), _levels=None):
        self.degree = degree
        gens = []
        seen = set()
        ident = identity_perm(degree)
        for g in generators:
            g = check_perm(g, degree)
            if g != ident and g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators = tuple(gens)
        self._levels = _levels

    # -- chain construction -------------------------------------------------

    def _chain(self):
        if self._levels is None:
            self._levels = _schreier_sims(self.degree, self.generators)
        return self._levels

    @property
    def order(self) -> int:
        order = 1
        for _, trans in self._chain():
            order *= len(trans)
        return order

    def contains(self, p) -> bool:
        p = check_perm(p, self.degree)
        for b, trans in self._chain():
            t = trans.get(p[b])
            if t is None:
                return False
            p = perm_mul(p, perm_inv(t))
        return p == identity_perm(self.degree)

    def __contains__(self, p):
        return self.contains(p)

    # -- orbits and transitivity --------------------------------------------

    def orbits(self, points=None) -> list:
        if points is None:
            points = range(self.degree)
        pending = sorted(set(points))
        out = []
        seen = set()
        for start in pending:
            if start in seen:
                continue
            orbit = {start}
            queue = [start]
            while queue:
                x = queue.pop()
                for g in self.generators:
                    y = g[x]
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            seen |= orbit
            out.append(sorted(orbit))
        return out

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def is_doubly_transitive(self) -> bool:
        """One orbit on ordered pairs of distinct points, read off the chain:
        the first base point's orbit is every point and its stabilizer's
        orbit of the second base point is every other point."""
        n = self.degree
        if n <= 2:
            return n < 2 or self.is_transitive()
        return [len(trans) for _, trans in self._chain()[:2]] == [n, n - 1]

    def transitivity(self) -> int:
        if self.is_doubly_transitive():
            return 2
        if self.is_transitive():
            return 1
        return 0

    def to_json_dict(self) -> dict:
        return {
            "order": str(self.order),
            "generators": [list(g) for g in self.generators],
            "transitivity": self.transitivity(),
        }

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _schreier_sims(n: int, generators):
    """Deterministic Schreier-Sims; returns the chain levels.

    Fixpoint formulation: the chain for the current strong generating set is
    rebuilt from scratch (level k uses every strong generator fixing the
    first k base points), then the first Schreier generator that fails to
    sift is appended and the process repeats.  Each round grows the group
    the chain describes, so termination is immediate, and rebuilding keeps
    every transversal equal to a true orbit of the corresponding stabilizer.
    """
    ident = identity_perm(n)
    strong = [g for g in dict.fromkeys(generators) if g != ident]
    base = []

    while True:
        for g in strong:
            if all(g[b] == b for b in base):
                base.append(min(i for i in range(n) if g[i] != i))
        levels = []
        for k in range(len(base)):
            gens_k = [g for g in strong
                      if all(g[base[j]] == base[j] for j in range(k))]
            trans = {base[k]: ident}
            queue = [base[k]]
            while queue:
                x = queue.pop(0)
                for g in gens_k:
                    y = g[x]
                    if y not in trans:
                        trans[y] = perm_mul(trans[x], g)
                        queue.append(y)
            levels.append((base[k], gens_k, trans))

        def strip(p, start):
            for k in range(start, len(levels)):
                b, _, trans = levels[k]
                t = trans.get(p[b])
                if t is None:
                    return p
                p = perm_mul(p, perm_inv(t))
            return p

        new_gen = None
        for k, (b, gens_k, trans) in enumerate(levels):
            for x in sorted(trans):
                tx = trans[x]
                for g in gens_k:
                    schreier = perm_mul(perm_mul(tx, g), perm_inv(trans[g[x]]))
                    residue = strip(schreier, k + 1)
                    if residue != ident:
                        new_gen = residue
                        break
                if new_gen:
                    break
            if new_gen:
                break
        if new_gen is None:
            return [(b, dict(trans)) for b, _, trans in levels]
        strong.append(new_gen)


# ---------------------------------------------------------------------------
# backtracking search

class _IsoSearch:
    """Backtracking search for adjacency-preserving bijections between two
    graphs on the same point set, with an optional forced image prefix.

    Source vertices are assigned in natural order.  The candidate set for
    each assignment is a bitmask, so folding in the adjacency constraints of
    all earlier assignments costs one AND per assigned vertex; a branch dies
    as soon as its mask empties.
    """

    def __init__(self, adj_a, adj_b):
        self.n = len(adj_a)
        self.adj_a = adj_a
        self.adj_b = adj_b
        deg_mask = {}
        for w, row in enumerate(adj_b):
            d = row.bit_count()
            deg_mask[d] = deg_mask.get(d, 0) | (1 << w)
        self.cand = [deg_mask.get(row.bit_count(), 0) for row in adj_a]

    def find(self, prefix=()):
        n = self.n
        adj_a, adj_b, cand = self.adj_a, self.adj_b, self.cand
        images = [0] * n

        def extend(v, used):
            if v == n:
                return tuple(images)
            mask = cand[v] & ~used
            row = adj_a[v]
            for u in range(v):
                if not mask:
                    return None
                if (row >> u) & 1:
                    mask &= adj_b[images[u]]
                else:
                    mask &= ~adj_b[images[u]]
            if v < len(prefix):
                w = prefix[v]
                if not (mask >> w) & 1:
                    return None
                images[v] = w
                return extend(v + 1, used | (1 << w))
            while mask:
                b = mask & -mask
                images[v] = b.bit_length() - 1
                found = extend(v + 1, used | b)
                if found is not None:
                    return found
                mask ^= b
            return None

        return extend(0, 0)


def _group_by_search(n, find_with_prefix, search):
    """Build a stabilizer chain with base 0..n-1 for the group of all
    permutations accepted by the searcher.

    For each level i the orbit of i under the pointwise stabilizer of
    0..i-1 is grown by direct element searches; points already reachable
    through known generators are not searched again.  `search` is the
    searcher that find_with_prefix uses for prefixes fixing 0; its masks,
    narrowed by the fixed points 0..i-1 exactly as `find` narrows them,
    bound where each vertex can go under that stabilizer.  Only targets in
    vertex i's mask are searched, and once every mask is a single vertex
    the stabilizer is trivial and so is every remaining level.
    """
    ident = identity_perm(n)
    adj_a, adj_b = search.adj_a, search.adj_b
    masks = list(search.cand)
    gens = []
    levels = []
    for i in range(n):
        if i:
            u = i - 1
            keep_adj, keep_non = adj_b[u] & ~(1 << u), ~adj_b[u] & ~(1 << u)
            for v in range(i, n):
                masks[v] &= keep_adj if (adj_a[v] >> u) & 1 else keep_non
            if all(masks[v] == 1 << v for v in range(i, n)):
                levels.extend((k, {k: ident}) for k in range(i, n))
                break
        # every earlier generator moves the base point of its own level, so
        # none fixes 0..i-1: the stabilizer's generators start with this level
        fixed = []
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
        prefix_base = tuple(range(i))
        targets = masks[i] if i else ~0
        for p in range(i + 1, n):
            if p in trans or not (targets >> p) & 1:
                continue
            sigma = find_with_prefix(prefix_base + (p,))
            if sigma is None:
                continue
            gens.append(sigma)
            fixed.append(sigma)
            close(sorted(trans))
        levels.append((i, trans))
    return gens, levels


def automorphism_group(g: SeidelGraph) -> PermGroup:
    """Group of all relabelings sigma with conjugate(g, sigma) == g."""
    _check_cap(g.n)
    search = _IsoSearch(g.adj, g.adj)
    gens, levels = _group_by_search(g.n, search.find, search)
    group = PermGroup(g.n, gens, _levels=levels)
    for sigma in group.generators:
        if conjugate(g, sigma) != g:
            raise RuntimeError("automorphism search produced a non-automorphism")
    return group


def two_graph_group(g: SeidelGraph) -> PermGroup:
    """Group of all sigma for which the relabeled graph is switching
    equivalent to g; always contains the automorphism group.

    Membership is decided through localized graphs: sigma qualifies iff it
    is an isomorphism from the localization at 0 onto the localization at
    sigma(0).
    """
    if g.n < 3:
        raise ValueError("two-graph group needs at least 3 vertices")
    _check_cap(g.n)
    locs = [localize(g, j) for j in range(g.n)]
    adjs = [h.adj for h in locs]
    searchers = {0: _IsoSearch(adjs[0], adjs[0])}

    def find(prefix):
        q0 = prefix[0]
        s = searchers.get(q0)
        if s is None:
            s = searchers[q0] = _IsoSearch(adjs[0], adjs[q0])
        return s.find(prefix)

    gens, levels = _group_by_search(g.n, find, searchers[0])
    group = PermGroup(g.n, gens, _levels=levels)
    for sigma in group.generators:
        if conjugate(locs[0], sigma) != locs[sigma[0]]:
            raise RuntimeError("switching-class search produced a bad element")
    return group


def find_isomorphism(g1: SeidelGraph, g2: SeidelGraph):
    """Some relabeling with conjugate(g1, sigma) == g2, or None."""
    if g1.n != g2.n:
        return None
    _check_cap(g1.n)
    if sorted(g1.adj[i].bit_count() for i in range(g1.n)) != \
       sorted(g2.adj[i].bit_count() for i in range(g2.n)):
        return None
    return _IsoSearch(g1.adj, g2.adj).find()
