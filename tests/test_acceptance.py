"""Acceptance suite: every pinned result of `equilines.battery`, by criterion.

Each criterion runs the battery rows of its row functions, the rows that
`equilines reproduce-table --uniqueness` prints, and some of them again at
test-only seeds.  The expected values live in the battery, except for
criterion 3, which counts orbits on ordered pairs without the stabilizer
chain, and the plain test of criterion 6b.  Run with -s to see one PASS/FAIL
line per row.
"""

import random

from equilines import (apply_switching, battery, paley_projective,
                       triple_sign, two_graph_group)

from conftest import random_graph


def check(*fns, extra=()):
    """Run every battery row whose function is in `fns`, then the `extra`
    rows; fail naming each failing row."""
    rows = [row for row in battery.ROWS + battery.UNIQUENESS_ROWS if row[1] in fns]
    assert rows, f"no battery rows for {fns}"
    results = [battery.run_row(row) for row in rows + list(extra)]
    for result in results:
        print(battery.report_line(*result))
    failed = [battery.report_line(*result) for result in results if not result[1]]
    assert not failed, "\n".join(failed)


def at_seed(fn, seed):
    return (f"{fn.__name__} at seed {seed}", fn, (seed,))


def test_criterion_1_chi_polynomials():
    check(battery.chi, battery.chi_paley)


def test_criterion_2_group_orders():
    # the extension groups (order and double transitivity) and the Paley
    # two-graph groups (PSL2 inside, order divisible by |PSL2|, doubly
    # transitive)
    check(battery.group_order, battery.paley_group)


def pair_orbit_count(grp):
    """Orbits of the generators on ordered pairs of distinct points, by a
    search that does not use the stabilizer chain."""
    n = grp.degree
    seen = set()
    count = 0
    for start in ((x, y) for x in range(n) for y in range(n) if x != y):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = [start]
        while queue:
            x, y = queue.pop()
            for g in grp.generators:
                image = (g[x], g[y])
                if image not in seen:
                    seen.add(image)
                    queue.append(image)
    return count


def test_criterion_3_double_transitivity(two_graph_groups):
    groups = {n: grp for n, grp in two_graph_groups.items()}
    for q in (5, 9, 13):
        groups[f"paley-proj {q}"] = two_graph_group(paley_projective(q))
    levels = {k: grp.transitivity() for k, grp in groups.items()}
    orbits = {k: pair_orbit_count(grp) for k, grp in groups.items()}
    print(f"criterion 3: transitivity {levels}, pair orbits {orbits}")
    assert all(v == 2 for v in levels.values()), levels
    assert all(v == 1 for v in orbits.values()), orbits


def test_criterion_4_line_systems():
    check(battery.lines)


def test_criterion_5_parameters():
    check(battery.ext_params)


def test_criterion_6a_switching_oracle():
    check(battery.switching_oracle)


def test_criterion_6b_triple_sign_invariance():
    rng = random.Random(20260811)
    for _ in range(10):
        n = rng.randint(3, 6)
        g = random_graph(rng, n)
        base = triple_sign(g)
        for _ in range(100):
            nu = tuple(rng.choice((-1, 1)) for _ in range(n))
            assert triple_sign(apply_switching(g, nu)) == base


def test_criterion_6c_liaison_parity():
    check(battery.liaison_parity, extra=[at_seed(battery.liaison_parity, 20260812)])


def test_criterion_6d_residue_counts():
    check(battery.residue_counts)


def test_criterion_6e_projective_identities():
    check(battery.projective_identities)


def test_criterion_6f_complement_duality():
    check(battery.complement_duality)


def test_criterion_6g_moment_identities():
    check(battery.moments, extra=[at_seed(battery.moments, 20260813)])


def test_criterion_7a_pentagon_unique():
    check(battery.pentagon_unique)


def test_criterion_7b_t1_2_unique():
    check(battery.t1_2_unique)
