"""Concrete extensible graphs: the pentagon, the triangle, the four graphs
with one triangle per edge, and Paley graphs on affine and projective lines.

The t=1 family is assembled from its translation structure.  A base vertex y
is joined to s disjoint edges; the distance-2 part is a regular orbit of an
elementary abelian 2-group T whose generating translations draw the internal
edges (a square for s=2, a cube for s=3, the 4-hypercube with its principal
diagonals for s=5), and the cross edges follow from the square-closure rule:
starting from a marked point u0 attached to the primed side everywhere, the
points t_j(u0) and t_i(t_j(u0)) for j != i make up the double-primed side of
pair i.

Paley graphs live on field elements with adjacency "difference is a nonzero
square"; the projective version adds the point at infinity of a chosen basis
as an isolated vertex, and the basis action of GL2 / SL2 can be checked by
exhaustive enumeration for small q.  Field elements are the integers 0..q-1
of `fields.FieldCtx`, so element y is vertex y of the Paley graph; a point
<(x, y)> of the projective line is vertex y/x when x != 0 and vertex q when
x = 0, and bases are pairs of coordinate pairs such as ((1, 0), (0, 1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .extensibility import extensible_params
from .fields import FieldCtx, field_ctx, shifted_square_failure
from .graphs import SeidelGraph, complement, conjugate, localize

T1_SUPPORTED = (1, 2, 3, 5)


def pentagon() -> SeidelGraph:
    return SeidelGraph(5, [(i, (i + 1) % 5) for i in range(5)])


def triangle() -> SeidelGraph:
    return SeidelGraph(3, [(0, 1), (0, 2), (1, 2)])


def _t1_translation_masks(s: int):
    """XOR masks of the s translations acting on the distance-2 cube."""
    if s in (2, 3):
        return [1 << (i - 1) for i in range(1, s + 1)]
    # s = 5: rank 4, the fifth translation is the product of the other four
    masks = [1 << i for i in range(4)]
    masks.append(0b1111)
    return masks


def t1_graph(s: int) -> SeidelGraph:
    """The extensible graph with parameters (1, s, 2(s-1)).

    Labels: y = 0; the matched pairs are (2i-1, 2i) for i = 1..s; the
    distance-2 part occupies 2s+1 .. 2s+4(s-1), labeled by the bit value of
    the translation-group orbit.
    """
    if s not in T1_SUPPORTED:
        raise ValueError(f"no graph with one triangle per edge for s={s}")
    if s == 1:
        return triangle()
    masks = _t1_translation_masks(s)
    rank = 4 if s == 5 else s
    size2 = 1 << rank
    base2 = 2 * s + 1
    edges = []
    for i in range(1, s + 1):
        edges.append((0, 2 * i - 1))
        edges.append((0, 2 * i))
        edges.append((2 * i - 1, 2 * i))
    for v in range(size2):
        for m in masks:
            w = v ^ m
            if v < w:
                edges.append((base2 + v, base2 + w))
    # cross edges from the square-closure rule seeded at u0 = 0
    for i in range(1, s + 1):
        second = set()
        for j in range(1, s + 1):
            if j == i:
                continue
            second.add(masks[j - 1])
            second.add(masks[i - 1] ^ masks[j - 1])
        if len(second) != 2 * (s - 1):
            raise RuntimeError(f"square closure at {i} has {len(second)} "
                               f"vertices, not {2 * (s - 1)}")
        for v in range(size2):
            target = 2 * i if v in second else 2 * i - 1
            edges.append((target, base2 + v))
    return SeidelGraph(2 * s + 1 + size2, edges)


def construct(name: str) -> SeidelGraph:
    """Build a named graph: pentagon, triangle, t1:<s>, paley:<q>,
    paley-proj:<q>."""
    if name == "pentagon":
        return pentagon()
    if name == "triangle":
        return triangle()
    if name.startswith("t1:"):
        return t1_graph(int(name[3:]))
    if name.startswith("paley:"):
        return paley_graph(int(name[6:]))
    if name.startswith("paley-proj:"):
        return paley_projective(int(name[11:]))
    raise ValueError(f"unknown construction {name!r}")


# ---------------------------------------------------------------------------
# structure extraction for the t=1 family

@dataclass(frozen=True)
class T1Structure:
    """Certified internal structure of a (1, s, 2(s-1)) graph at a vertex."""

    y: int
    pairs: tuple              # ((a'_i, a''_i), ...)
    parts: tuple              # ((A'_i, A''_i), ...) as sorted vertex tuples
    directions: tuple         # per pair, the matching it draws on Y2
    translations: tuple       # per pair, the involution as a sorted item tuple
    group_size: int
    rank: int


class T1StructureError(ValueError):
    def __init__(self, clause: int, message: str):
        super().__init__(f"clause ({clause}): {message}")
        self.clause = clause


def verify_t1_structure(g: SeidelGraph, y: int) -> T1Structure:
    """Check the five structural clauses at base vertex y and return the data.

    Requires parameters (1, s, 2(s-1)) with s >= 2.  Raises T1StructureError
    with the failing clause index otherwise.
    """
    params = extensible_params(g)
    if params is None or params.t != 1 or params.s < 2:
        raise ValueError("graph must have one triangle per edge and s >= 2")
    s = params.s
    y1 = sorted(v for v in range(g.n) if g.adjacent(y, v))
    y2 = sorted(v for v in range(g.n)
                if v != y and not g.adjacent(y, v))

    # (1) the neighborhood of y splits into s disjoint edges
    pairs = []
    seen = set()
    for v in y1:
        if v in seen:
            continue
        mates = [w for w in y1 if w != v and g.adjacent(v, w)]
        if len(mates) != 1:
            raise T1StructureError(1, f"vertex {v} has {len(mates)} partners")
        pairs.append((v, mates[0]))
        seen.update((v, mates[0]))
    if len(pairs) != s:
        raise T1StructureError(1, "neighborhood is not a perfect matching")

    # (2) each pair splits Y2 into halves of size 2(s-1)
    y2set = set(y2)
    parts = []
    for a1, a2 in pairs:
        p1 = sorted(w for w in y2 if g.adjacent(a1, w))
        p2 = sorted(w for w in y2 if g.adjacent(a2, w))
        if set(p1) & set(p2) or set(p1) | set(p2) != y2set:
            raise T1StructureError(2, f"pair ({a1},{a2}) does not split the far set")
        if len(p1) != 2 * (s - 1) or len(p2) != 2 * (s - 1):
            raise T1StructureError(2, "part sizes are not 2(s-1)")
        parts.append((tuple(p1), tuple(p2)))

    # (3) the far set spans no triangle
    for i, u in enumerate(y2):
        for v in y2[i + 1:]:
            if g.adjacent(u, v) and any(
                    g.adjacent(u, w) and g.adjacent(v, w) for w in y2):
                raise T1StructureError(3, f"triangle through ({u},{v})")

    # (4) each far edge lies in exactly one half, matching it perfectly
    y2_edges = [(u, v) for i, u in enumerate(y2) for v in y2[i + 1:]
                if g.adjacent(u, v)]
    directions = []
    homes = {}
    for idx, (p1, p2) in enumerate(parts):
        matched = []
        for side in (set(p1), set(p2)):
            inside = [(u, v) for (u, v) in y2_edges if u in side and v in side]
            if len(inside) != s - 1 or len({x for e in inside for x in e}) != len(side):
                raise T1StructureError(4, f"half of pair {idx} is not perfectly matched")
            matched.extend(inside)
        directions.append(tuple(matched))
        for e in matched:
            if e in homes:
                raise T1StructureError(4, f"edge {e} lies in two halves")
            homes[e] = idx
    if set(homes) != set(y2_edges):
        raise T1StructureError(4, "some far edge lies in no half")

    # (5a) squares: edges of one direction taken from opposite halves close up
    for idx, (p1, p2) in enumerate(parts):
        side1 = set(p1)
        ed1 = [e for e in directions[idx] if e[0] in side1]
        ed2 = [e for e in directions[idx] if e[0] not in side1]
        for u, v in ed1:
            for x, w in ed2:
                closures = [pair for pair in (((u, x), (v, w)), ((u, w), (v, x)))
                            if all(g.adjacent(*e) for e in pair)]
                if len(closures) != 1:
                    raise T1StructureError(5, "square closure not unique")
                e1, e2 = (tuple(sorted(e)) for e in closures[0])
                if homes[e1] != homes[e2] or homes[e1] == idx:
                    raise T1StructureError(5, "closing edges disagree on direction")
                h1 = set(parts[homes[e1]][0])
                if (e1[0] in h1) == (e2[0] in h1):
                    raise T1StructureError(5, "closing edges sit in the same half")

    # (5b) the translations generate an elementary abelian regular group
    translations = []
    for matched in directions:
        t = {}
        for u, v in matched:
            t[u] = v
            t[v] = u
        translations.append(t)
    for i, ti in enumerate(translations):
        for tj in translations[i + 1:]:
            if any(ti[tj[u]] != tj[ti[u]] for u in y2):
                raise T1StructureError(5, "translations do not commute")
    ident = {u: u for u in y2}
    group = {tuple(sorted(ident.items()))}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for t in translations:
            nxt = {u: t[cur[u]] for u in y2}
            key = tuple(sorted(nxt.items()))
            if key not in group:
                group.add(key)
                frontier.append(nxt)
    if len(group) != len(y2):
        raise T1StructureError(5, "translation group is not regular")
    orbit = {y2[0]}
    changed = True
    while changed:
        changed = False
        for t in translations:
            for u in list(orbit):
                if t[u] not in orbit:
                    orbit.add(t[u])
                    changed = True
    if orbit != y2set:
        raise T1StructureError(5, "translation group is not transitive")
    rank = len(y2).bit_length() - 1
    if (1 << rank) != len(y2) or rank not in (s - 1, s):
        raise T1StructureError(5, f"rank {rank} out of range")
    if rank == s - 1:
        composite = dict(ident)
        for t in translations:
            composite = {u: t[composite[u]] for u in y2}
        if composite != ident:
            raise T1StructureError(5, "dependent translation is not the product")

    return T1Structure(
        y=y,
        pairs=tuple(pairs),
        parts=tuple(parts),
        directions=tuple(directions),
        translations=tuple(tuple(sorted(t.items())) for t in translations),
        group_size=len(group),
        rank=rank,
    )


# ---------------------------------------------------------------------------
# Paley graphs

@lru_cache(maxsize=16)
def _paley_pairs(q: int) -> tuple:
    """Pairs i < j of F_q elements whose difference is a nonzero square,
    found as j = i + c over the squares c (-1 is a square, so each pair is
    met from both ends); shared by the Paley graph and all its projective
    transports."""
    field = field_ctx(q)
    if q % 4 != 1:
        raise ValueError("q must be congruent to 1 mod 4")
    return tuple((i, j) for i in range(q) for c in field.squares
                 if i < (j := field.add(i, c)))


def paley_graph(q: int) -> SeidelGraph:
    """Graph on F_q with a ~ b iff a - b is a nonzero square; needs q = 1 mod 4
    so that -1 is a square and the relation is symmetric."""
    return SeidelGraph(q, _paley_pairs(q))


def _point(field: FieldCtx, x, y) -> int:
    """Vertex of the projective point <(x, y)>: <(1, y)> is vertex y and
    <(0, 1)> is vertex q."""
    if x:
        return field.mul(field.inv(x), y)
    if not y:
        raise ValueError("zero vector spans no projective point")
    return field.q


def paley_projective(q: int, basis=((1, 0), (0, 1))) -> SeidelGraph:
    """Paley graph transported to the projective line through a basis (u, v):
    the point <u> is isolated and <a*u + v> ~ <b*u + v> iff a - b is a
    nonzero square.  Vertices are the canonical point labels of `_point`, so
    graphs built from different bases are directly comparable."""
    field = field_ctx(q)
    if q % 4 != 1:
        raise ValueError("q must be congruent to 1 mod 4")
    (u0, u1), (v0, v1) = basis
    if not field.sub(field.mul(u0, v1), field.mul(u1, v0)):
        raise ValueError("degenerate basis")
    theta = [_point(field, field.add(field.mul(lam, u0), v0),
                    field.add(field.mul(lam, u1), v1)) for lam in range(q)]
    return SeidelGraph(q + 1, [(theta[i], theta[j]) for i, j in _paley_pairs(q)])


def sl2_point_permutations(q: int) -> list:
    """Vertex permutations of the projective line induced by the unit shears
    (x, y) -> (x + a y, y) and (x, y) -> (x, a x + y), over the F_p-basis
    elements a = p^k of the field; these transvections generate SL2(F_q)."""
    field = field_ctx(q)
    points = [(1, y) for y in range(q)] + [(0, 1)]
    perms = []
    for k in range(field.e):
        a = field.p ** k
        perms.append(tuple(_point(field, field.add(x, field.mul(a, y)), y)
                           for x, y in points))
        perms.append(tuple(_point(field, x, field.add(field.mul(a, x), y))
                           for x, y in points))
    return perms


def all_basis_graphs(q: int):
    """Every graph arising from some basis, as a set.

    Scaling a basis by a common factor does not change the graph, so one
    basis per projective normalization is enough.
    """
    field = field_ctx(q)
    normalized = [(1, y) for y in range(q)] + [(0, 1)]
    nonzero = [(x, y) for x in range(q) for y in range(q) if x or y]
    return {paley_projective(q, (u, v)) for u in normalized for v in nonzero
            if field.sub(field.mul(u[0], v[1]), field.mul(u[1], v[0]))}


def sl2_orbit_check(q: int) -> dict:
    """Partition the basis graphs into SL2 orbits by exhaustive enumeration.

    Certifies that there are exactly two orbits, that the orbit of the
    standard graph equals the set of its localizations at all q+1 points,
    and that the basis swap (determinant -1) stays inside that orbit.
    """
    if q > 13:
        raise ValueError("orbit enumeration limited to q <= 13")
    basis_graphs = all_basis_graphs(q)
    perms = sl2_point_permutations(q)

    def orbit_of(start):
        orbit = {start}
        queue = [start]
        while queue:
            g = queue.pop()
            for perm in perms:
                image = conjugate(g, perm)
                if image not in orbit:
                    orbit.add(image)
                    queue.append(image)
        return orbit

    base = paley_projective(q)
    orbit0 = orbit_of(base)
    rest = basis_graphs - orbit0
    orbits = [orbit0]
    if rest:
        orbits.append(orbit_of(min(rest, key=lambda g: g.adj)))
    union = set().union(*orbits)
    localizations = {localize(base, x) for x in range(q + 1)}
    swapped = paley_projective(q, ((0, 1), (1, 0)))
    return {
        "q": q,
        "graph_count": len(basis_graphs),
        "orbit_count": len(orbits),
        "orbit_sizes": sorted(len(o) for o in orbits),
        "orbits_cover_all": (union == basis_graphs
                             and (len(orbits) == 1 or not orbits[0] & orbits[1])),
        "localization_set_is_orbit": localizations == orbit0,
        "swap_in_same_orbit": swapped in orbit0,
    }


def paley_verify(q: int) -> dict:
    """Run the residue-count and projective-line identities for one q.

    Covers: the (s-1, s) / (s, s) shifted-square counts; the common-neighbor
    law on the projective graph (s-1 on edges, s on non-edges); the identity
    "localizing at <v> swaps the basis"; the determinant criterion for basis
    maps fixing <u>; and for q <= 13 the two-orbit census.
    """
    field = field_ctx(q)
    s = (q - 1) // 4   # q = 4t+5 gives s = t+1 = (q-1)/4
    if 4 * s + 1 != q:
        raise ValueError("q must be 1 mod 4")

    counts_ok = shifted_square_failure(field) is None

    g = paley_projective(q)
    iso = next(v for v in range(g.n) if g.degree(v) == 0)
    law_ok = True
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if iso in (x, y):
                continue
            common = (g.adj[x] & g.adj[y]).bit_count()
            want = s - 1 if g.adjacent(x, y) else s
            if common != want:
                law_ok = False

    # <v> = <(0, 1)> is vertex q
    swap_ok = localize(g, q) == paley_projective(q, ((0, 1), (1, 0)))

    det_ok = True
    comp = _complement_within(g, iso)
    for a in range(1, q):
        for d in range(1, q):
            want = g if field.is_square(field.mul(a, d)) else comp
            for b in range(q):
                if paley_projective(q, ((a, 0), (b, d))) != want:
                    det_ok = False

    report = {
        "q": q,
        "shifted_square_counts": counts_ok,
        "common_neighbor_law": law_ok,
        "basis_swap_is_localization": swap_ok,
        "determinant_criterion": det_ok,
    }
    if q <= 13:
        orbit = sl2_orbit_check(q)
        report["two_orbits"] = (orbit["orbit_count"] == 2
                                and orbit["orbits_cover_all"]
                                and orbit["localization_set_is_orbit"]
                                and orbit["swap_in_same_orbit"])
        report["orbit_report"] = orbit
    return report


def _complement_within(g: SeidelGraph, isolated: int) -> SeidelGraph:
    """Complement on the non-isolated part, keeping the marked vertex isolated."""
    comp = complement(g)
    edges = [(i, j) for i, j in comp.edges() if isolated not in (i, j)]
    return SeidelGraph(g.n, edges)
