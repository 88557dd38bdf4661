"""The pinned results of the paper, as one table of rows.

A row is (name, function, arguments); calling the function on the arguments
returns (ok, detail).  `equilines reproduce-table` prints one line per row
of ROWS (and of UNIQUENESS_ROWS with --uniqueness), and the acceptance tests
run the same rows, so each expected value is written down once, here.  Rows
that draw random graphs take the seed as an argument.

Other modules are called through their module attribute (`spectra.spectrum`,
never a name imported into this module), so that anything rebinding those
attributes, such as a tracer, sees the calls made from here.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import combinations, product

from . import constructions, extensibility, fields, graphs, groups, spectra

SEED = 20260810

# the one-point extensions the paper studies, by size, and their bases
EXTENSIONS = {4: "triangle", 6: "pentagon", 10: "t1:2", 16: "t1:3", 28: "t1:5"}


@functools.cache
def extension(name: str) -> graphs.SeidelGraph:
    """The one-point extension of the named construction, built once."""
    return extensibility.extend(constructions.construct(name))


def random_graph(rng: random.Random, n: int) -> graphs.SeidelGraph:
    """G(n, 1/2), drawing the pairs i < j in lexicographic order."""
    return graphs.SeidelGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                  if rng.random() < 0.5])


def expand(*factors):
    """Coefficients of prod f^k over (f, k) pairs, constant term first."""
    out = [1]
    for f, k in factors:
        out = spectra.poly_mul(out, spectra.poly_pow(f, k))
    return out


def chi(base, sign, factors):
    """det(S(1,c)) of the extension of `base` is sign * prod f^k exactly."""
    got = list(spectra.chi_polynomial(extension(base)))
    want = expand(*factors)
    return (got == (want if sign > 0 else spectra.poly_neg(want)),
            f"chi coefficients {got[:4]}...")


def chi_paley(q):
    got = list(spectra.chi_polynomial(extension(f"paley:{q}")))
    base = expand(([-1, 0, q], (q + 1) // 2))
    ok = got == base or got == spectra.poly_neg(base)
    return ok, f"(qc^2-1)^{(q + 1) // 2} up to sign"


def group_order(base, order):
    grp = groups.two_graph_group(extension(base))
    ok = grp.order == order and grp.is_doubly_transitive()
    return ok, f"order {grp.order}, transitivity {grp.transitivity()}"


def paley_group(q):
    grp = groups.two_graph_group(constructions.paley_projective(q))
    psl2 = (q + 1) * q * (q - 1) // 2
    contained = all(grp.contains(p)
                    for p in constructions.sl2_point_permutations(q))
    ok = grp.order % psl2 == 0 and contained and grp.is_doubly_transitive()
    return ok, f"order {grp.order} divisible by {psl2}, PSL2 contained: {contained}"


def lines(base, value, dim, cos):
    """Unit vectors at pairwise |cos| in R^dim, all within 1e-9."""
    g = extension(base)
    n = g.n
    ls = spectra.embed_lines(g, value)
    inner_ok = all(
        abs(abs(sum(a * b for a, b in zip(ls.vectors[i], ls.vectors[j]))) - cos)
        <= 1e-9
        for i in range(n) for j in range(i + 1, n))
    unit_ok = all(abs(math.fsum(x * x for x in v) - 1) <= 1e-9 for v in ls.vectors)
    ok = ls.dim == dim and inner_ok and unit_ok and ls.residual <= 1e-9
    return ok, f"dim {ls.dim}, cos {ls.cos_exact}, residual {ls.residual:.2e}"


def ext_params(name, want):
    p = extensibility.extensible_params(constructions.construct(name))
    got = p.as_tuple() if p else None
    return got == want, f"{name}: {got}"


def residue_counts(q):
    """|(a+C) cap C|, |(a+C) cap Cbar| is (s-1, s) for squares a, else (s, s)."""
    failure = fields.shifted_square_failure(fields.field_ctx(q))
    if failure:
        a, got, want = failure
        return False, f"q={q} shift {a}: {got} != {want}"
    return True, f"q={q} all {q - 1} shifts match"


def projective_identities(q):
    rep = constructions.paley_verify(q)
    rep.pop("orbit_report", None)
    return all(v for k, v in rep.items() if k != "q"), str(rep)


def complement_duality():
    built = [constructions.pentagon(), constructions.t1_graph(2),
             constructions.t1_graph(3), constructions.t1_graph(5)]
    built += [constructions.paley_graph(q) for q in (5, 9, 13, 17, 29)]
    for g in built:
        p = extensibility.extensible_params(g)
        if p.sbar == 0:
            continue   # the complement would be edgeless
        pc = extensibility.extensible_params(graphs.complement(g))
        if pc is None or pc != extensibility.complement_params(p):
            return False, f"duality failed at {p.as_tuple()}"
    return True, "complement parameters (tbar, sbar, s) verified on all built graphs"


def moments(seed):
    """sum m*lam = n and sum m*lam^2 = n^2: exactly (spectrum re-checks both
    internally) and in the floating-point approximations."""
    rng = random.Random(seed)
    gs = [extension(base) for base in EXTENSIONS.values()]
    gs += [constructions.paley_graph(q) for q in (5, 9, 13)]
    gs += [extension(f"paley:{q}") for q in (5, 9, 13)]
    gs += [constructions.construct(base) for base in EXTENSIONS.values()]
    gs += [random_graph(rng, rng.randint(2, 8)) for _ in range(30)]
    ok = True
    for g in gs:
        eigs = spectra.spectrum(g).eigenvalues
        m1 = sum(ev.multiplicity * ev.approx for ev in eigs)
        m2 = sum(ev.multiplicity * ev.approx ** 2 for ev in eigs)
        ok &= abs(m1 - g.n) < 1e-6 and abs(m2 - g.n ** 2) < 1e-6 * g.n
    return ok, f"sum(m*lam) = n and sum(m*lam^2) = n^2 on {len(gs)} graphs"


def switching_oracle(seed):
    """Decision, witness and triple-sign prefilter against all 2^n switchings."""
    rng = random.Random(seed)
    for trial in range(200):
        n = rng.randint(3, 6)
        g1 = random_graph(rng, n)
        if trial % 2:
            nu = tuple(rng.choice((-1, 1)) for _ in range(n))
            g2 = graphs.apply_switching(g1, nu)
        else:
            g2 = random_graph(rng, n)
        witness = graphs.is_switching_equivalent(g1, g2)
        brute = any(graphs.apply_switching(g1, nu) == g2
                    for nu in product((-1, 1), repeat=n))
        if (witness is not None) != brute:
            return False, f"disagreement on trial {trial}"
        if witness is not None and graphs.apply_switching(g1, witness) != g2:
            return False, f"bad witness on trial {trial}"
        if (witness is not None) != (graphs.triple_sign(g1) == graphs.triple_sign(g2)):
            return False, f"triple-sign mismatch on trial {trial}"
    return True, "200 random pairs agree with the exhaustive 2^n search"


def liaison_parity(seed):
    rng = random.Random(seed)
    for trial in range(50):
        n = rng.randint(3, 8)
        g = random_graph(rng, n)
        x, y = rng.sample(range(n), 2)
        gx, gy = graphs.localize(g, x), graphs.localize(g, y)
        shared = graphs.neighborhood(gy, x, 1)
        if shared != graphs.neighborhood(gx, y, 1):
            return False, f"shared neighborhood failed on trial {trial}"
        for k, l in combinations(range(n), 2):
            same = gx.adjacent(k, l) == gy.adjacent(k, l)
            if same != (len({k, l} & shared) % 2 == 0):
                return False, f"parity law failed on trial {trial}"
    return True, "liaison parity law holds on 50 random graphs"


def pentagon_unique():
    """All 1024 graphs on 5 vertices; other sizes <= 9 are ruled out
    arithmetically, since t = 0 forces |Y| = 6s - 1."""
    pairs = list(combinations(range(5), 2))
    found = []
    for bits in range(1 << len(pairs)):
        g = graphs.SeidelGraph(5, [pairs[k] for k in range(len(pairs))
                                   if (bits >> k) & 1])
        p = extensibility.extensible_params(g)
        if p and p.t == 0:
            found.append(g)
    c5 = constructions.pentagon()
    ok = bool(found) and all(
        groups.find_isomorphism(g, c5) is not None for g in found)
    return ok, f"{len(found)} labeled graphs, all pentagons"


def t1_2_unique():
    """Normalization forced by the conditions: the base vertex 0 has
    neighbors 1..4 matched as {1,2}, {3,4}; the far set 5..8 has a 2-regular
    interior and two far neighbors per near vertex."""
    base_edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
    squares = [[(5, 6), (6, 7), (7, 8), (5, 8)],
               [(5, 6), (6, 8), (7, 8), (5, 7)],
               [(5, 7), (6, 7), (6, 8), (5, 8)]]
    options = list(combinations((5, 6, 7, 8), 2))
    t12 = constructions.t1_graph(2)
    count = 0
    for quad in product(options, repeat=4):
        if sorted(v for pair in quad for v in pair) != [5, 5, 6, 6, 7, 7, 8, 8]:
            continue
        cross = [(a, v) for a, pair in zip((1, 2, 3, 4), quad) for v in pair]
        for sq in squares:
            g = graphs.SeidelGraph(9, base_edges + cross + sq)
            p = extensibility.extensible_params(g)
            if p and p.as_tuple() == (1, 2, 2):
                count += 1
                if groups.find_isomorphism(g, t12) is None:
                    return False, "found a non-isomorphic (1,2,2) graph"
    return count > 0, f"{count} normalized candidates, all isomorphic"


ROWS = [
    ("chi n=4 equals -(3c-1)(c+1)^3", chi,
     ("triangle", -1, (([-1, 3], 1), ([1, 1], 3)))),
    ("chi n=6 equals -(5c^2-1)^3", chi, ("pentagon", -1, (([-1, 0, 5], 3),))),
    ("chi n=16 equals (5c+1)^6 (3c-1)^10", chi,
     ("t1:3", 1, (([1, 5], 6), ([-1, 3], 10)))),
    ("chi n=28 equals -(9c+1)^7 (3c-1)^21", chi,
     ("t1:5", -1, (([1, 9], 7), ([-1, 3], 21)))),
    *((f"chi paley q={q} equals +/-({q}c^2-1)^{(q + 1) // 2}", chi_paley, (q,))
      for q in (5, 9, 13)),
    *((f"two-graph group n={n} order {order}, doubly transitive", group_order,
       (EXTENSIONS[n], order))
      for n, order in ((4, 24), (6, 60), (10, 720), (16, 11520), (28, 1451520))),
    *((f"paley-projective q={q} group", paley_group, (q,)) for q in (5, 9, 13)),
    ("lines n=6: 6 unit vectors in R^3 at 1/sqrt(5)", lines,
     ("pentagon", "1-sqrt(5)", 3, 0.4472135954999579)),
    ("lines n=16: 16 in R^6 at 1/3", lines, ("t1:3", "-2", 6, 1 / 3)),
    ("lines n=28: 28 in R^7 at 1/3", lines, ("t1:5", "-2", 7, 1 / 3)),
    ("lines n=28: 28 in R^21 at 1/9", lines, ("t1:5", "10", 21, 1 / 9)),
    ("lines paley q=13: 14 in R^7 at 1/sqrt(13)", lines,
     ("paley:13", "1-sqrt(13)", 7, 0.2773500981126146)),
    # (t, s, sbar); Paley graphs on F_q, q = 4t + 5, have (t, t+1, t+1)
    *((f"params {name} ({t},{s},{sbar})", ext_params, (name, (t, s, sbar)))
      for name, (t, s, sbar) in (
          ("pentagon", (0, 1, 1)), ("triangle", (1, 1, 0)), ("t1:2", (1, 2, 2)),
          ("t1:3", (1, 3, 4)), ("t1:5", (1, 5, 8)), ("paley:5", (0, 1, 1)),
          ("paley:9", (1, 2, 2)), ("paley:13", (2, 3, 3)), ("paley:17", (3, 4, 4)),
          ("paley:29", (6, 7, 7)))),
    *((f"shifted-square counts q={q}", residue_counts, (q,))
      for q in (5, 9, 13, 17, 25, 29)),
    *((f"projective-line identities q={q}", projective_identities, (q,))
      for q in (5, 9, 13)),
    ("complement parameter duality", complement_duality, ()),
    ("spectrum moment identities", moments, (SEED,)),
    ("switching equivalence vs exhaustive search", switching_oracle, (SEED,)),
    ("localization liaison parity law", liaison_parity, (SEED,)),
]

UNIQUENESS_ROWS = [
    ("uniqueness: pentagon is the only t=0 graph (|Y| <= 9)", pentagon_unique, ()),
    ("uniqueness: one (1,2,2) graph up to isomorphism", t1_2_unique, ()),
]


def run_row(row):
    """(name, ok, detail) of one row; a row that raises is a failing row."""
    name, fn, args = row
    try:
        ok, detail = fn(*args)
    except Exception as exc:
        ok, detail = False, f"error: {exc}"
    return name, ok, detail


def report_line(name, ok, detail) -> str:
    return f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]"
