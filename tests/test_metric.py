import json
import random
from fractions import Fraction as F

import pytest

from tropdiv.budget import Budget
from tropdiv.errors import (BudgetExceeded, CertificateError, EmptySubgraph,
                            InputError, InvalidPL, NotMember, SizeMismatch)
from tropdiv.graphs import RationalFunction
from tropdiv.metric import (
    MetricDivisor, MetricSubgraph, PLFunction, Point, Refinement,
    build_metric_graph, can_fire_metric, canonical_divisor_metric, cf_move,
    is_extremal_metric, linear_equiv_metric, metric_firing_subgraphs,
    rgd_member_metric)
from tropdiv.serialize import dumps, metric_graph_from_json
from tropdiv.witness import build_witness, complete_graph_instance

from conftest import run_optimized
from oracles import (cf_move_by_distances, components_of_complement, grid_model,
                     metric_graph_to_json, metric_firing_subgraphs_by_unions, order_at,
                     subgraph_distances, subgraph_from_point, value_at)


@pytest.fixture
def mtheta():
    return build_metric_graph(2, [(0, 1)] * 3, [1, 1, 1], labels=["p", "q"])


@pytest.fixture
def mk4():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return build_metric_graph(4, edges, [1] * 6)


def grid_function(rng, graph, q, spread):
    """Random PL function with breakpoints on the 1/q grid and values in
    Z/q, so every slope is an integer."""
    def value():
        return F(rng.randint(-spread, spread), q)
    return PLFunction.from_vertex_values(
        graph, [value() for _ in range(graph.model.vertex_count)],
        interior={e: [(F(j, q), value()) for j in range(1, int(q * length))]
                  for e, length in enumerate(graph.lengths)})


def point_divisor(graph, edge, offset):
    return MetricDivisor.of(graph, {graph.point(edge, offset): 1})


def tent(mtheta):
    """0 off edge 0, dipping to -2/3 at offset 2/3."""
    return PLFunction.from_vertex_values(
        mtheta, [0, 0], interior={0: [(F(2, 3), F(-2, 3))]})


def test_rejects_circle_models():
    with pytest.raises(InputError):
        build_metric_graph(1, [(0, 0)], [1])
    with pytest.raises(InputError):
        build_metric_graph(2, [(0, 1), (0, 1)], [1, 1])


def test_rejects_two_valent_vertices_unless_refinement():
    with pytest.raises(InputError):
        build_metric_graph(3, [(0, 1), (1, 2), (0, 2), (0, 2)], [1] * 4)
    g = build_metric_graph(3, [(0, 1), (1, 2), (0, 2), (0, 2)], [1] * 4,
                           is_refinement=True)
    assert g.is_refinement


def test_rejects_bad_lengths(mtheta):
    with pytest.raises(InputError):
        build_metric_graph(2, [(0, 1)] * 3, [1, 0, 1])


def test_zflag():
    assert build_metric_graph(2, [(0, 1)] * 3, [1, 2, 3]).zflag
    assert not build_metric_graph(2, [(0, 1)] * 3, [1, F(3, 2), 1]).zflag


def test_point_canonicalization(mtheta):
    assert mtheta.point(1, 0) == Point.vertex(0)
    assert mtheta.point(1, 1) == Point.vertex(1)
    p = mtheta.point(0, F(1, 2))
    assert not p.is_vertex
    assert not mtheta.is_z_point(p)
    assert mtheta.is_z_point(mtheta.point(0, 0))


def test_canonical_divisor_theta(mtheta):
    k = canonical_divisor_metric(mtheta)
    assert k == MetricDivisor.of(mtheta, {Point.vertex(0): 1, Point.vertex(1): 1})
    assert k.degree() == 2 * mtheta.genus() - 2


def test_canonical_divisor_k4(mk4):
    k = canonical_divisor_metric(mk4)
    assert k.degree() == 4
    assert all(c == 1 for _, c in k.items)
    assert mk4.genus() == 3


def test_canonical_divisor_ignores_two_valent_refinement_vertices(mtheta):
    count, edges, _ = grid_model(mtheta, 3)
    refined = build_metric_graph(count, edges, [F(1, 3)] * 9, is_refinement=True)
    k = canonical_divisor_metric(refined)
    assert k == MetricDivisor.of(refined, {Point.vertex(0): 1, Point.vertex(1): 1})


def test_tent_function_orders(mtheta):
    ft = tent(mtheta)
    r = mtheta.point(0, F(2, 3))
    d = ft.div()
    assert d == MetricDivisor.of(
        mtheta, {Point.vertex(0): -1, Point.vertex(1): -2, r: 3})
    assert d.degree() == 0


def test_constant_divisor_is_zero(mtheta):
    assert PLFunction.constant(mtheta, F(5, 7)).div() == MetricDivisor.zero(mtheta)


def test_order_at_a_point_outside_every_edge_interior(mtheta):
    f = tent(mtheta)
    assert order_at(f, Point.interior(0, F(2, 3))) == 3
    for p in (Point.interior(0, 0), Point.interior(0, 1), Point.interior(3, F(1, 2))):
        with pytest.raises(InputError):
            order_at(f, p)


def test_div_agrees_with_the_per_point_order(mtheta, mk4):
    rng = random.Random(13)
    functions = [tent(mtheta), build_witness(complete_graph_instance(4), 2).ftilde,
                 build_witness(complete_graph_instance(5), 1).ftilde]
    functions += [grid_function(rng, mtheta, 3, 5) for _ in range(10)]
    functions += [grid_function(rng, mk4, 2, 3) for _ in range(10)]
    for f in functions:
        graph = f.graph
        points = {Point.vertex(x) for x in range(graph.model.vertex_count)}
        points |= {Point.interior(e, o) for e, bps in enumerate(f.segs) for o, _ in bps[1:-1]}
        points |= {Point.interior(e, length / 3) for e, length in enumerate(graph.lengths)}
        d = f.div()
        assert {p for p, _ in d.items} <= points
        assert all(d.coeff(p) == order_at(f, p) for p in points)


def test_cycle_slopes_two_ways(mk4):
    # slopes 1, 1, -2 around a triangle; the remaining vertex sits level
    f = PLFunction.from_vertex_values(mk4, [0, 1, 2, 0])
    d = f.div()
    assert d.degree() == 0
    # unit lengths: metric orders equal the finite-graph orders
    from tropdiv.graphs import build_graph, ord_and_div
    g = build_graph(4, mk4.model.edges)
    dd = ord_and_div(g, RationalFunction((0, 1, 2, 0)))
    for i in range(4):
        assert d.coeff(Point.vertex(i)) == dd.coeffs[i]


def test_equal_functions_on_equal_graphs_hash_alike(mtheta):
    data = dumps(metric_graph_to_json(mtheta))
    ga, gb = (metric_graph_from_json(json.loads(data)) for _ in range(2))
    assert ga == gb and ga.model is not gb.model
    fa, fb = tent(ga), tent(gb)
    assert fa == fb
    assert len({fa, fb}) == 1


def test_invalid_pl_rejected(mtheta):
    with pytest.raises(InvalidPL):
        # slope 1/2
        PLFunction.from_vertex_values(mtheta, [0, F(1, 2)])
    with pytest.raises(InvalidPL):
        # discontinuous at q: edge 0 ends at 1, edge 1 ends at 0
        PLFunction(mtheta, [[(0, 0), (1, 1)], [(0, 0), (1, 0)], [(0, 0), (1, 0)]])


def test_telescoping_identity(mtheta):
    rng = random.Random(7)
    for _ in range(50):
        f = grid_function(rng, mtheta, 3, 5)
        for e, bps in enumerate(f.segs):
            total = sum(f._slopes[e][i] * (bps[i + 1][0] - bps[i][0])
                        for i in range(len(bps) - 1))
            assert total == bps[-1][1] - bps[0][1]


def test_oplus_odot_algebra(mtheta):
    ft = tent(mtheta)
    c = PLFunction.constant(mtheta, F(-1, 3))
    both = ft.oplus(c)
    # max introduces crossings where the tent passes -1/3
    assert value_at(both, Point.vertex(0)) == 0
    assert value_at(both, mtheta.point(0, F(2, 3))) == F(-1, 3)
    assert ft.oplus(ft) == ft
    assert value_at(ft.odot(c), mtheta.point(0, F(2, 3))) == F(-2, 3) + F(-1, 3)


def test_product_divisor_rule(mtheta):
    # odot and oplus share one merge, shift and power one value map: check
    # each pointwise at every breakpoint of either input and at the midpoint
    # of every piece of the result, and that every result is canonical
    rng = random.Random(11)
    for _ in range(50):
        g1 = grid_function(rng, mtheta, 2, 3)
        g2 = grid_function(rng, mtheta, 2, 3)
        k, c = rng.randint(0, 3), F(rng.randint(-3, 3), 2)
        product, tsum = g1.odot(g2), g1.oplus(g2)
        assert product.div() == g1.div() + g2.div()
        assert tsum.div().degree() == 0
        for h, rule in ((product, lambda a, b: a + b), (tsum, max),
                        (g1.power(k), lambda a, _: k * a),
                        (g1.shift(c), lambda a, _: a + c)):
            assert all(s1 != s2 for slopes in h._slopes
                       for s1, s2 in zip(slopes, slopes[1:]))
            for e, bps in enumerate(h.segs):
                offs = {o for f in (g1, g2) for o, _ in f.segs[e]}
                offs |= {(o1 + o2) / 2 for (o1, _), (o2, _) in zip(bps, bps[1:])}
                for o in offs:
                    p = mtheta.point(e, o)
                    assert value_at(h, p) == rule(value_at(g1, p), value_at(g2, p))


def test_refine_theta_three(mtheta):
    # a support point at offset 2/3 puts the grid at 1/3
    ref = Refinement(mtheta, [point_divisor(mtheta, 0, F(2, 3))])
    assert ref.graph.vertex_count == 8
    assert ref.graph.edge_count == 9


def test_refinement_rejects_points_off_its_grid(mtheta):
    ref = Refinement(mtheta, [point_divisor(mtheta, 0, F(2, 3))])
    on_grid = point_divisor(mtheta, 1, F(1, 3))
    assert ref.linear_equiv(on_grid, on_grid) == PLFunction.constant(mtheta, 0)
    with pytest.raises(InputError, match="off the 1/3 grid"):
        ref.linear_equiv(point_divisor(mtheta, 0, F(1, 2)), on_grid)


@pytest.mark.parametrize("vertices, edges, lengths, q", [
    (2, [(0, 1)] * 3, [1, 1, 1], 3),
    (4, [(i, j) for i in range(4) for j in range(i + 1, 4)], [1, 2, 3, 1, 2, 3], 2),
    (2, [(0, 1), (0, 1), (0, 1), (0, 0)], [2, F(1, 2), F(3, 2), 1], 2),
])
def test_refinement_numbers_the_grid(vertices, edges, lengths, q):
    # the vertex order and edge list fix the Smith form's pivot order, so
    # they must match the plain grid numbering exactly
    base = build_metric_graph(vertices, edges, lengths)
    ref = Refinement(base, [point_divisor(base, 0, F(1, q))])
    count, grid_edges, points = grid_model(base, q)
    assert ref.graph.vertex_count == count
    assert ref.graph.edges == tuple((min(e), max(e)) for e in grid_edges)
    assert ref._index == {p: i for i, p in enumerate(points)}


def test_refine_non_integral(mtheta):
    g = build_metric_graph(2, [(0, 1)] * 3, [F(3, 2), 1, 1])
    ref = Refinement(g, [])
    # the length 3/2 alone puts the grid at 1/2: that edge splits into 3 segments
    assert ref.graph.vertex_count == 2 + 2 + 1 + 1
    assert ref.graph.edge_count == 3 + 2 + 2


def test_linear_equiv_metric_theta(mtheta):
    k = canonical_divisor_metric(mtheta)
    r = mtheta.point(0, F(2, 3))
    target = MetricDivisor.of(mtheta, {Point.vertex(0): 1, r: 3})
    f = linear_equiv_metric(mtheta, target, 2 * k)
    assert f is not None
    assert f == tent(mtheta).normalized()
    # k = 1 obstruction instance
    assert linear_equiv_metric(mtheta, k, MetricDivisor.of(mtheta, {r: 2})) is None
    # identical divisors: constant witness
    w = linear_equiv_metric(mtheta, k, k)
    assert w == PLFunction.constant(mtheta, 0)


def test_refinement_decides_every_grid_query(mtheta):
    # one refinement on the 1/3 grid answers what linear_equiv_metric answers
    k = canonical_divisor_metric(mtheta)
    r = mtheta.point(0, F(2, 3))
    ref = Refinement(mtheta, [point_divisor(mtheta, 0, r.offset)])
    for d1, d2 in ((MetricDivisor.of(mtheta, {Point.vertex(0): 1, r: 3}), 2 * k),
                   (k, MetricDivisor.of(mtheta, {r: 2})), (k, k)):
        assert ref.linear_equiv(d1, d2) == linear_equiv_metric(mtheta, d1, d2)
    other = build_metric_graph(2, [(0, 1)] * 3, [2, 2, 2])
    with pytest.raises(SizeMismatch):
        ref.linear_equiv(canonical_divisor_metric(other), k)


def test_linear_equiv_metric_degree_mismatch(mtheta):
    k = canonical_divisor_metric(mtheta)
    assert linear_equiv_metric(mtheta, k, 2 * k) is None


def test_cf_move_around_interior_point(mtheta):
    r = mtheta.point(0, F(2, 3))
    sub = subgraph_from_point(mtheta, r)
    cf = cf_move(mtheta, sub, F(1, 10))
    d = cf.div()
    assert d.coeff(r) == -2
    assert d.coeff(mtheta.point(0, F(2, 3) - F(1, 10))) == 1
    assert d.coeff(mtheta.point(0, F(2, 3) + F(1, 10))) == 1
    assert value_at(cf, r) == 0
    assert value_at(cf, Point.vertex(0)) == F(-1, 10)


def test_can_fire_metric_examples(mtheta):
    k = canonical_divisor_metric(mtheta)
    r = mtheta.point(0, F(2, 3))
    e_div = MetricDivisor.of(mtheta, {Point.vertex(0): 1, r: 3})
    assert can_fire_metric(mtheta, e_div, subgraph_from_point(mtheta, r))
    assert not can_fire_metric(
        mtheta, k, subgraph_from_point(mtheta, Point.vertex(1)))
    with pytest.raises(EmptySubgraph):
        can_fire_metric(mtheta, k, MetricSubgraph.whole(mtheta))
    with pytest.raises(EmptySubgraph):
        can_fire_metric(mtheta, k, MetricSubgraph.build(mtheta))


def test_can_fire_independent_of_l(mtheta):
    rng = random.Random(23)
    k = canonical_divisor_metric(mtheta)
    r = mtheta.point(0, F(2, 3))
    e_div = MetricDivisor.of(mtheta, {Point.vertex(0): 1, r: 3})
    for divisor in (k, 2 * k, e_div):
        for sub in metric_firing_subgraphs(mtheta, divisor) or \
                [subgraph_from_point(mtheta, r)]:
            from tropdiv.metric import _sufficiently_small_l
            l = _sufficiently_small_l(mtheta, divisor, sub)
            base = can_fire_metric(mtheta, divisor, sub, l)
            assert can_fire_metric(mtheta, divisor, sub, l / 2) == base
            assert can_fire_metric(mtheta, divisor, sub, l / 4) == base


def test_components_of_complement(mtheta):
    r = mtheta.point(0, F(2, 3))
    comps = components_of_complement(mtheta, {Point.vertex(0), r})
    assert len(comps) == 2
    big = max(comps, key=lambda s: len(s.intervals))
    small = min(comps, key=lambda s: len(s.intervals))
    assert small.edge_intervals(0) == ((F(0), F(2, 3)),)
    assert big.edge_intervals(0) == ((F(2, 3), F(1)),)
    assert big.vertices == frozenset({0, 1})


def test_complement_components_partition_the_graph():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 4)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 4))]
        try:
            graph = build_metric_graph(n, edges, [rng.randint(1, 3) for _ in edges],
                                       is_refinement=True)
        except InputError:
            continue  # a circle
        points = {graph.point(e, F(rng.randint(0, int(4 * length)), 4))
                  for e, length in enumerate(graph.lengths) for _ in range(rng.randint(0, 2))}
        points |= {Point.vertex(x) for x in range(n) if rng.random() < 0.3}
        comps = components_of_complement(graph, points)
        cut = {e: {p.offset for p in points if not p.is_vertex and p.index == e}
               for e in range(graph.model.edge_count)}
        for e, length in enumerate(graph.lengths):
            # the closures tile the edge, meeting only at removed points
            pieces = sorted(iv for c in comps for iv in c.edge_intervals(e))
            assert pieces[0][0] == 0 and pieces[-1][1] == length
            for (_, b), (a, _) in zip(pieces, pieces[1:]):
                assert a == b and b in cut[e]
        for x in range(n):
            if Point.vertex(x) not in points:
                assert sum(x in c.vertices for c in comps) == 1
        for c in comps:
            # each closure is connected through points left in the graph
            parts = [(e, a, b) for e, ivs in c.intervals for a, b in ivs]
            reach, stack = {0}, [0]
            while stack:
                e, a, b = parts[stack.pop()]
                ends = {p for p in (graph.point(e, a), graph.point(e, b)) if p not in points}
                for k, (f, a2, b2) in enumerate(parts):
                    if k not in reach and ends & {graph.point(f, a2), graph.point(f, b2)}:
                        reach.add(k)
                        stack.append(k)
            assert len(reach) == len(parts)
        checked += 1


def test_firing_family_on_witness_divisor(mtheta):
    r = mtheta.point(0, F(2, 3))
    e_div = MetricDivisor.of(mtheta, {Point.vertex(0): 1, r: 3})
    subs = metric_firing_subgraphs(mtheta, e_div)
    point_r = subgraph_from_point(mtheta, r)
    complement = MetricSubgraph.build(
        mtheta, vertices={0, 1},
        intervals={0: [(F(2, 3), F(1))], 1: [(F(0), F(1))], 2: [(F(0), F(1))]})
    assert subs == sorted([point_r, complement],
                          key=lambda s: (len(s.intervals), s.intervals, sorted(s.vertices)))


K4_EDGES = [(i, j) for i in range(4) for j in range(i + 1, 4)]
FIRING_GRAPHS = {
    "theta": (2, [(0, 1)] * 3, [1, 1, 1]),
    "theta-123": (2, [(0, 1)] * 3, [1, 2, 3]),
    "k4": (4, K4_EDGES, [1] * 6),
    "k4-123": (4, K4_EDGES, [1, 2, 3, 1, 2, 3]),
    "dumbbell": (2, [(0, 0), (0, 1), (1, 1)], [1, 1, 1]),
    "banana-loop": (2, [(0, 1)] * 3 + [(1, 1)], [2, 1, F(3, 2), 1]),
}


@pytest.mark.parametrize("name", sorted(FIRING_GRAPHS))
def test_firing_search_matches_the_union_enumerator(name):
    # 150 divisors per graph, 900 in all: 1-5 support points at vertices or
    # on the 1/8 grid, 1-3 chips each
    graph = build_metric_graph(*FIRING_GRAPHS[name])
    rng = random.Random(f"firing/{name}")
    for _ in range(150):
        entries = {}
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.3:
                p = Point.vertex(rng.randrange(graph.model.vertex_count))
            else:
                e = rng.randrange(graph.model.edge_count)
                p = graph.point(e, F(rng.randint(0, int(8 * graph.lengths[e])), 8))
            entries[p] = rng.randint(1, 3)
        divisor = MetricDivisor.of(graph, entries)
        assert metric_firing_subgraphs(graph, divisor) == \
            metric_firing_subgraphs_by_unions(graph, divisor), divisor.items


@pytest.mark.parametrize("name", sorted(FIRING_GRAPHS))
def test_cf_move_matches_the_distance_oracle(name):
    # random vertex sets, closed intervals and interior singletons on the 1/8
    # grid; the closed form holds for l up to half the shortest outside piece
    graph = build_metric_graph(*FIRING_GRAPHS[name])
    rng = random.Random(f"cf_move/{name}")
    checked = 0
    while checked < 40:
        vertices = [x for x in range(graph.model.vertex_count) if rng.random() < 0.3]
        intervals = {}
        for e, length in enumerate(graph.lengths):
            for _ in range(rng.choice((0, 0, 1, 2))):
                a, b = sorted(F(rng.randint(0, int(8 * length)), 8) for _ in range(2))
                intervals.setdefault(e, []).append((a, a) if rng.random() < 0.3 else (a, b))
        sub = MetricSubgraph.build(graph, vertices, intervals)
        if sub.is_empty() or sub.is_all():
            continue
        segments, inside, _ = subgraph_distances(graph, sub)
        bound = min(b - a for (_, a, b, _, _), ins in zip(segments, inside) if not ins) / 2
        for l in (bound, bound / 2, bound / 3):
            assert cf_move(graph, sub, l) == cf_move_by_distances(graph, sub, l), (sub, l)
        with pytest.raises(InputError, match="exceeds half of the piece"):
            cf_move(graph, sub, bound + F(1, 1000))
        checked += 1


def test_firing_refuses_a_divisor_or_subgraph_of_another_graph(mtheta, mk4):
    k = canonical_divisor_metric(mtheta)
    sub = subgraph_from_point(mtheta, mtheta.point(0, F(1, 2)))
    longer = build_metric_graph(2, [(0, 1)] * 3, [2, 2, 2], labels=["p", "q"])
    other = subgraph_from_point(longer, longer.point(0, F(3, 2)))
    with pytest.raises(SizeMismatch):
        can_fire_metric(mtheta, canonical_divisor_metric(mk4), sub)
    with pytest.raises(SizeMismatch):
        can_fire_metric(mtheta, k, other)
    with pytest.raises(SizeMismatch):
        cf_move(mtheta, other, F(1, 10))


def test_firing_search_budget_counts_subgraph_parts(mtheta):
    # [v0] and the three edge midpoints: 4 support points, and the complement
    # has 4 components (three half-edges at v0, and the star around v1); the
    # one firing search cap, max_firing_vertices, counts all 8 parts
    divisor = MetricDivisor.of(
        mtheta, {Point.vertex(0): 1, **{mtheta.point(e, F(1, 2)): 1 for e in range(3)}})
    with pytest.raises(BudgetExceeded, match=r"^firing search parts: 8 exceeds budget 4$"):
        metric_firing_subgraphs(mtheta, divisor, Budget(max_firing_vertices=4))
    subs = metric_firing_subgraphs(mtheta, divisor, Budget(max_firing_vertices=8))
    assert subs == metric_firing_subgraphs_by_unions(mtheta, divisor)
    assert len(subs) == 8


def test_firing_search_replays_every_subgraph(mtheta, monkeypatch):
    import tropdiv.metric
    divisor = MetricDivisor.of(mtheta, {Point.vertex(0): 1, mtheta.point(0, F(2, 3)): 3})
    monkeypatch.setattr(tropdiv.metric, "can_fire_metric", lambda *args: False)
    with pytest.raises(CertificateError, match="can_fire replay"):
        metric_firing_subgraphs(mtheta, divisor)


def test_divisor_points_must_lie_on_the_graph(mtheta):
    for point in (Point.interior(0, F(4, 3)), Point.interior(0, F(1)),
                  Point.interior(0, F(0)), Point.interior(7, F(1, 2)), Point.vertex(9),
                  Point.vertex(-1)):
        with pytest.raises(InputError, match="not on the graph"):
            MetricDivisor.of(mtheta, {point: 2})
    with pytest.raises(InputError, match="not on the graph"):
        MetricDivisor(mtheta, ((Point.interior(1, F(2)), 0),))  # even with coefficient 0
    assert MetricDivisor.of(mtheta, {Point.interior(0, F(1, 3)): 1}).degree() == 1


def test_subgraph_indices_must_lie_on_the_graph(mtheta):
    for edge in (-1, 5):
        with pytest.raises(InputError, match=f"edge {edge} out of range"):
            MetricSubgraph.build(mtheta, intervals={edge: [(F(0), F(1, 2))]})
    with pytest.raises(InputError, match="vertex 7 out of range"):
        MetricSubgraph.build(mtheta, vertices=[7])


def test_is_extremal_metric_witness(mtheta):
    k = canonical_divisor_metric(mtheta)
    r = mtheta.point(0, F(2, 3))
    target = MetricDivisor.of(mtheta, {Point.vertex(0): 1, r: 3})
    f = linear_equiv_metric(mtheta, target, 2 * k)
    assert is_extremal_metric(mtheta, 2 * k, f)


def test_constant_not_extremal_for_canonical(mtheta):
    # unlike the finite-graph case, the metric theta has proper subgraphs
    # containing both vertices: the union of two closed edges fires on
    # [p]+[q] (order -1 at each endpoint), and two such unions cover the
    # graph, so the constant is a proper tropical sum of firing moves
    k = canonical_divisor_metric(mtheta)
    e01 = MetricSubgraph.build(
        mtheta, intervals={0: [(F(0), F(1))], 1: [(F(0), F(1))]})
    e12 = MetricSubgraph.build(
        mtheta, intervals={1: [(F(0), F(1))], 2: [(F(0), F(1))]})
    assert can_fire_metric(mtheta, k, e01)
    assert can_fire_metric(mtheta, k, e12)
    assert e01.union(e12).is_all()
    # union merges overlapping intervals and intervals touching at a point
    for a, b in (((F(1, 5), F(3, 5)), (F(2, 5), F(4, 5))),
                 ((F(1, 5), F(1, 2)), (F(1, 2), F(4, 5)))):
        merged = MetricSubgraph.build(mtheta, intervals={0: [a]}).union(
            MetricSubgraph.build(mtheta, intervals={0: [b]}))
        assert merged.intervals == ((0, ((F(1, 5), F(4, 5)),)),)
        assert merged.vertices == frozenset() and not merged.is_all()
    # closed pieces [0, 1/3] and [1/2, 1] leave the interior point 2/5 out
    gap = e12.union(MetricSubgraph.build(
        mtheta, intervals={0: [(F(0), F(1, 3)), (F(1, 2), F(1))]}))
    assert gap.vertices == {0, 1} and not gap.is_all()
    assert not gap.contains_point(mtheta.point(0, F(2, 5)))
    whole = MetricSubgraph.whole(mtheta)
    assert whole.is_all() and whole.union(MetricSubgraph.build(mtheta)) == whole
    assert not is_extremal_metric(mtheta, k, PLFunction.constant(mtheta, 0))
    l = F(1, 5)
    g = cf_move(mtheta, e01, l)
    h = cf_move(mtheta, e12, l)
    assert g.oplus(h) == PLFunction.constant(mtheta, 0)


def test_is_extremal_metric_rejects_nonmember(mtheta):
    k = canonical_divisor_metric(mtheta)
    bad = PLFunction.from_vertex_values(mtheta, [0, 5])
    with pytest.raises(NotMember):
        is_extremal_metric(mtheta, k, bad)


def test_oplus_of_two_witnesses_not_extremal(mtheta):
    k = canonical_divisor_metric(mtheta)
    r = mtheta.point(0, F(2, 3))
    target = MetricDivisor.of(mtheta, {Point.vertex(0): 1, r: 3})
    w = linear_equiv_metric(mtheta, target, 2 * k)
    f1 = w.power(2)                 # element of R(4K)
    f2 = w.shift(F(1, 3))           # also in R(4K), shifted to cross f1
    f = f1.oplus(f2)
    assert rgd_member_metric(mtheta, 4 * k, f)
    assert not is_extremal_metric(mtheta, 4 * k, f)


def test_membership_after_oplus_odot(mtheta):
    rng = random.Random(5)
    k = canonical_divisor_metric(mtheta)
    r = mtheta.point(0, F(2, 3))
    target = MetricDivisor.of(mtheta, {Point.vertex(0): 1, r: 3})
    w = linear_equiv_metric(mtheta, target, 2 * k)
    pool = [w, w.shift(1), PLFunction.constant(mtheta, 0), w.power(2)]
    degrees = [2, 2, 2, 4]
    for _ in range(100):
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        if degrees[i] == degrees[j]:
            assert rgd_member_metric(mtheta, degrees[i] * k, pool[i].oplus(pool[j]))
        assert rgd_member_metric(mtheta, (degrees[i] + degrees[j]) * k,
                                 pool[i].odot(pool[j]))


def test_div_degree_check_survives_optimized_mode():
    proc = run_optimized(
        "import tropdiv.metric as metric\n"
        "from tropdiv.errors import CertificateError\n"
        "build = metric.MetricDivisor.of\n"
        "metric.MetricDivisor.of = staticmethod(lambda graph, entries: build(\n"
        "    graph, {**entries, metric.Point.vertex(0): 1}))\n"
        "theta = metric.build_metric_graph(2, [(0, 1)] * 3, [1, 1, 1])\n"
        "try:\n"
        "    metric.PLFunction.constant(theta, 0).div()\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "principal divisor has non-zero degree\n"
