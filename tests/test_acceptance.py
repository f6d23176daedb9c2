"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from tropdiv.graphs import (Divisor, RationalFunction, build_graph,
                            canonical_divisor, ord_and_div)
from tropdiv.linear_systems import (extremals, odot, oplus, oplus_cover,
                                    rgd_enumerate, rgd_member, scale)
from tropdiv.generators import (build_gn, certify_basis, graded_cone,
                                hilbert_basis, verify_gn)
from tropdiv.metric import (MetricDivisor, MetricSubgraph, PLFunction, Point,
                            build_metric_graph, can_fire_metric,
                            canonical_divisor_metric, is_extremal_metric,
                            linear_equiv_metric, metric_firing_subgraphs,
                            rgd_member_metric, _sufficiently_small_l)
from tropdiv.witness import (WitnessInstance, build_witness, check_hypotheses,
                             complete_graph_instance, indecomposability_check)

from oracles import (components_of_complement, connected_multigraphs,
                     rgd_box_enumerate_fast, subgraph_from_point, sufficient_box,
                     value_at)


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def theta_metric():
    return build_metric_graph(2, [(0, 1)] * 3, [1, 1, 1], labels=["p", "q"])


def test_c1_gn_structure():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 6):
        graph, _ = build_gn(n)
        ok &= graph.vertex_count == 6 * n - 4
        ok &= graph.edge_count == 6 * n - 3
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"G_n has 6n-4 vertices and 6n-3 edges for n=1..5 "
                  f"({elapsed:.2f}s)")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_c2_unbounded_generator_degrees(n):
    t0 = time.monotonic()
    r = verify_gn(n)
    elapsed = time.monotonic() - t0
    ok = (r["witness_found"] and r["extremal"] and not r["generated_below"]
          and elapsed < 300)
    report(2, ok, f"verify_gn({n}): witness + extremal + not generated below "
                  f"degree {n} ({elapsed:.2f}s, {r['products_checked']} products)")


def _irreducibles_by_bruteforce(cone, height_bound, coord_bound):
    members = set()
    for m in range(0, height_bound + 1):
        for coords in itertools.product(range(-coord_bound, coord_bound + 1),
                                        repeat=cone.dim - 1):
            y = coords + (m,)
            if any(y) and cone.contains(y):
                members.add(y)
    irreducible = set()
    for y in members:
        if not any(tuple(a - b for a, b in zip(y, u)) in members
                   for u in members if u != y):
            irreducible.add(y)
    return irreducible


def test_c3_finite_generation():
    t0 = time.monotonic()
    theta = build_graph(2, [(0, 1)] * 3, labels=["p", "q"])
    path = build_graph(2, [(0, 1)], labels=["p", "q"])
    cases = [(theta, canonical_divisor(theta)), (path, Divisor((1, 0)))]
    ok = True
    for graph, divisor in cases:
        cone = graded_cone(graph, divisor)
        basis = hilbert_basis(cone)
        certified = certify_basis(basis, 8)
        ok &= all(m in certified for m in range(1, 9))
        # brute-force irreducibility oracle over heights <= 8
        bound = sufficient_box(graph, 8 * divisor)
        oracle = _irreducibles_by_bruteforce(cone, 8, bound)
        got = {cone.element_to_slice(el) for el in basis.elements}
        ok &= got == oracle
    theta_basis = hilbert_basis(graded_cone(theta, canonical_divisor(theta)))
    ok &= theta_basis.degrees() == [1, 3]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    report(3, ok, f"Hilbert bases certified through degree 8 on theta and "
                  f"single edge; theta degree set {theta_basis.degrees()} "
                  f"({elapsed:.2f}s)")


def test_c4_tent_orders():
    curve = theta_metric()
    inst = WitnessInstance(curve, canonical_divisor_metric(curve), edge=0, n=1)
    result = build_witness(inst, 1)
    ok = (result.r == curve.point(0, F(2, 3))
          and result.order_triple == (-1, -2, 3)
          and value_at(result.ftilde, result.r) == F(-2, 3))
    report(4, ok, f"tent function at L=1, N=2: r at 2/3, orders "
                  f"{result.order_triple}")


def test_c5_extremality_and_firing_family():
    curve = theta_metric()
    k = canonical_divisor_metric(curve)
    r = curve.point(0, F(2, 3))
    target = MetricDivisor.of(curve, {Point.vertex(0): 1, r: 3})
    f = linear_equiv_metric(curve, target, 2 * k)
    extremal = is_extremal_metric(curve, 2 * k, f)
    family = metric_firing_subgraphs(curve, 2 * k + f.div())
    expected = {
        subgraph_from_point(curve, r),
        MetricSubgraph.build(curve, vertices={0, 1},
                             intervals={0: [(F(2, 3), F(1))],
                                        1: [(F(0), F(1))],
                                        2: [(F(0), F(1))]}),
    }
    ok = extremal and set(family) == expected
    report(5, ok, "witness extremal in R(Gamma, 2K); firing family exactly "
                  "{complement of (p,r), {r}}")


def test_c6_obstruction_rows():
    t0 = time.monotonic()
    curve = theta_metric()
    k = canonical_divisor_metric(curve)
    inst = WitnessInstance(curve, k, edge=0, n=1)
    ok = True
    for s in (1, 2):
        rows = indecomposability_check(inst, s)["rows"]
        ok &= all(rows[j] is False for j in range(1, 2 * s))
    k4 = complete_graph_instance(4)
    rows = indecomposability_check(k4, 2)["rows"]
    ok &= all(rows[j] is False for j in (1, 2, 3))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    report(6, ok, f"k*K never equivalent to deg-matching multiples of [r] "
                  f"below the witness degree (theta s=1,2; K4 s=2) "
                  f"({elapsed:.2f}s)")


def test_c7_complete_graph_hypotheses():
    k4 = complete_graph_instance(4)
    rep4 = check_hypotheses(k4)
    w4 = rep4["equivalence_witness"]
    ok = (k4.genus == 3 and k4.d == 4 and rep4["all_pass"]
          and w4.div() == k4.endpoints_divisor(4) - 2 * k4.divisor)

    k5 = complete_graph_instance(5)
    rep5 = check_hypotheses(k5)
    w5 = rep5["equivalence_witness"]
    ok &= (k5.genus == 6 and k5.d == 10 and rep5["all_pass"]
           and w5.div() == k5.endpoints_divisor(5) - k5.divisor)
    report(7, ok, "K4: genus 3, deg K = 4, 2K ~ 4[v]+4[w] with witness; "
                  "K5: K ~ 5[v]+5[w] with witness")


# -- criterion 8: randomized property suites -----------------------------------


CASES = 1000


def _graph_suite():
    theta = build_graph(2, [(0, 1)] * 3, labels=["p", "q"])
    g2, _ = build_gn(2)
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    return [("theta", theta), ("g2", g2), ("k4", k4)]


def test_c8_degree_zero_and_product_rule():
    failures = 0
    for name, g in _graph_suite():
        rng = random.Random(f"divisors-{name}")
        n = g.vertex_count
        for _ in range(CASES):
            f = RationalFunction(tuple(rng.randint(-8, 8) for _ in range(n)))
            h = RationalFunction(tuple(rng.randint(-8, 8) for _ in range(n)))
            if ord_and_div(g, f).degree() != 0:
                failures += 1
            if ord_and_div(g, odot(f, h)) != ord_and_div(g, f) + ord_and_div(g, h):
                failures += 1
    report("8a", failures == 0,
           f"deg div(f) = 0 and div(f.g) = div f + div g on {CASES} random "
           f"cases per graph ({failures} failures)")


def test_c8_closure_graph_and_metric():
    failures = 0
    for name, g in _graph_suite():
        rng = random.Random(f"closure-{name}")
        k = canonical_divisor(g)
        pools = {m: [el.function for el in rgd_enumerate(g, m * k, degree=m)]
                 for m in (1, 2)}
        if not pools[1] or not pools[2]:
            continue
        for _ in range(CASES):
            m1, m2 = rng.choice([(1, 1), (1, 2), (2, 2)])
            f = scale(rng.randint(-4, 4), rng.choice(pools[m1]))
            h = scale(rng.randint(-4, 4), rng.choice(pools[m2]))
            if m1 == m2 and not rgd_member(g, m1 * k, oplus(f, h)):
                failures += 1
            if not rgd_member(g, (m1 + m2) * k, odot(f, h)):
                failures += 1

    curve = theta_metric()
    km = canonical_divisor_metric(curve)
    r = curve.point(0, F(2, 3))
    target = MetricDivisor.of(curve, {Point.vertex(0): 1, r: 3})
    w = linear_equiv_metric(curve, target, 2 * km)
    pool = [(2, w), (2, w.shift(1)), (2, PLFunction.constant(curve, 0)),
            (4, w.power(2)), (4, w.shift(F(1, 3)).odot(w))]
    rng = random.Random("closure-metric")
    for _ in range(CASES):
        (m1, f), (m2, h) = rng.choice(pool), rng.choice(pool)
        if m1 == m2 and not rgd_member_metric(curve, m1 * km, f.oplus(h)):
            failures += 1
        if not rgd_member_metric(curve, (m1 + m2) * km, f.odot(h)):
            failures += 1
    report("8b", failures == 0,
           f"oplus/odot closure of R(G, mD) and R(Gamma, mD) "
           f"({failures} failures)")


def test_c8_extremal_cover_reconstruction():
    failures = 0
    for name, g in _graph_suite():
        k = canonical_divisor(g)
        for m in (1, 2, 3):
            d = m * k
            elements = rgd_enumerate(g, d, degree=m)
            exts = [el.function.values for el in extremals(g, d, degree=m)]
            for el in elements:
                if oplus_cover(el.function.values, exts) is None:
                    failures += 1
    report("8c", failures == 0,
           f"every enumerated element is a tropical sum of shifted extremals "
           f"({failures} failures)")


def test_c8_can_fire_l_invariance():
    curve = theta_metric()
    rng = random.Random("fire-l")
    grid = [curve.point(0, F(j, 3)) for j in (1, 2)] + \
           [curve.point(1, F(1, 2)), curve.point(2, F(1, 3)),
            Point.vertex(0), Point.vertex(1)]
    failures = 0
    for _ in range(CASES):
        support = rng.sample(grid, rng.randint(1, 3))
        e_div = MetricDivisor.of(
            curve, {p: rng.randint(0, 3) for p in support})
        comps = components_of_complement(curve, e_div.support() or
                                         {Point.vertex(0)})
        pick = rng.sample(comps, rng.randint(1, len(comps)))
        sub = pick[0]
        for extra in pick[1:]:
            sub = sub.union(extra)
        if sub.is_empty() or sub.is_all():
            continue
        l = _sufficiently_small_l(curve, e_div, sub)
        base = can_fire_metric(curve, e_div, sub, l)
        if can_fire_metric(curve, e_div, sub, l / 2) != base:
            failures += 1
    report("8d", failures == 0,
           f"can_fire is invariant under halving the firing distance "
           f"({failures} failures)")


def test_c8_decomposability_shift_invariance():
    theta = build_graph(2, [(0, 1)] * 3, labels=["p", "q"])
    k = canonical_divisor(theta)
    gens = []
    for m in (1, 2):
        gens.extend(rgd_enumerate(theta, m * k, degree=m))
    gen_values = [el.function.values for el in gens]
    rng = random.Random("shift")
    failures = 0
    for _ in range(CASES):
        base = rng.choice(rgd_enumerate(theta, 3 * k, degree=3))
        products = []
        for i, a in enumerate(gens):
            for b in gens[i:]:
                if a.degree + b.degree == 3:
                    products.append(tuple(x + y for x, y in
                                          zip(a.function.values, b.function.values)))
        c = rng.randint(-20, 20)
        shifted = tuple(v + c for v in base.function.values)
        got_base = oplus_cover(base.function.values, products) is not None
        got_shifted = oplus_cover(shifted, products) is not None
        if got_base != got_shifted:
            failures += 1
    report("8e", failures == 0,
           f"decomposability is invariant under constant shifts "
           f"({failures} failures)")


def test_c9_oracle_equivalence():
    t0 = time.monotonic()
    graphs = connected_multigraphs(4, 6)
    discrepancies = 0
    checked = 0
    for g in graphs:
        k = canonical_divisor(g)
        for m in (1, 2, 3):
            expected = rgd_box_enumerate_fast(g, m * k)
            got = {el.function.values for el in rgd_enumerate(g, m * k, degree=m)}
            checked += 1
            if got != expected:
                discrepancies += 1
    elapsed = time.monotonic() - t0
    report(9, discrepancies == 0,
           f"rgd_enumerate matches the box oracle on {len(graphs)} graphs "
           f"(<=4 vertices, <=6 edges) x m<=3, {checked} systems, "
           f"{discrepancies} discrepancies ({elapsed:.1f}s)")
