"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's enumeration and search strategies:
membership is recomputed from the definition and searches are plain scans,
so agreement with the fast paths is meaningful.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import ge

import numpy as np

from tropdiv.budget import DEFAULT_BUDGET
from tropdiv.errors import CertificateError
from tropdiv.generators import GeneratorSet, extreme_rays
from tropdiv.graphs import RationalFunction
from tropdiv.intlinalg import frac_nullspace, frac_rank, frac_solve, smith_normal_form
from tropdiv.linear_systems import rgd_member


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def dense_smith_form(A):
    """(U, S, V) with U*A*V = S as dense lists, by the library's pivot rule:
    the first entry (row-major) of least absolute value in the remaining
    block, every row and column operation written over whole rows.  The
    sparse smith_normal_form must reproduce these factors entry for entry.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = [list(row) for row in A]
    U = identity_matrix(m)
    V = identity_matrix(n)
    t = 0
    while t < min(m, n):
        # a unit is always of least absolute value: stop at the first one
        pivot = next(((i, j) for i in range(t, m) for j in range(t, n)
                      if S[i][j] in (1, -1)), None)
        if pivot is None:
            least = min(((abs(S[i][j]), i, j) for i in range(t, m) for j in range(t, n)
                         if S[i][j]), default=None)
            if least is None:
                break
            pivot = least[1:]
        pi, pj = pivot
        S[t], S[pi] = S[pi], S[t]
        U[t], U[pi] = U[pi], U[t]
        if pj != t:
            # rows above t vanish in columns t and pj
            for row in S[t:]:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]
        top, utop = S[t], U[t]
        p = top[t]
        dirty = False
        for i in range(t + 1, m):
            if S[i][t]:
                q = S[i][t] // p
                S[i] = [a - q * b for a, b in zip(S[i], top)]
                U[i] = [a - q * b for a, b in zip(U[i], utop)]
                dirty = dirty or S[i][t] != 0
        srows = [S[i] for i in range(t, m) if S[i][t]]
        vrows = [row for row in V if row[t]]
        for j in range(t + 1, n):
            if top[j]:
                q = top[j] // p
                for row in srows:
                    row[j] -= q * row[t]
                for row in vrows:
                    row[j] -= q * row[t]
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        if abs(p) != 1:
            offender = next((i for i in range(t + 1, m)
                             if any(S[i][j] % p for j in range(t + 1, n))), None)
            if offender is not None:
                S[t] = [a + b for a, b in zip(top, S[offender])]
                U[t] = [a + b for a, b in zip(utop, U[offender])]
                continue
        t += 1

    for i in range(min(m, n)):
        if S[i][i] < 0:
            S[i] = [-a for a in S[i]]
            U[i] = [-a for a in U[i]]
    return U, S, V


def sufficient_box(graph, divisor):
    """Provable value range for min-0 members of R(G, D).

    Sort the values of a member f.  For a gap between consecutive distinct
    values, sum the order constraints over the low side A: internal edges
    cancel, so the crossing edges contribute at least (gap) each, while the
    total is at most the positive part of D restricted outside A.  Hence
    every gap is at most d_plus = sum of positive coefficients of D, and the
    full spread is at most (n - 1) * d_plus.
    """
    dplus = sum(max(c, 0) for c in divisor.coeffs)
    return (graph.vertex_count - 1) * dplus


def rgd_box_enumerate(graph, divisor):
    """Scan every min-0 vector in the sufficient box; keep the members."""
    n = graph.vertex_count
    if divisor.degree() < 0:
        return frozenset()
    spread = sufficient_box(graph, divisor)
    out = set()
    for values in itertools.product(range(spread + 1), repeat=n):
        if min(values) != 0:
            continue
        f = RationalFunction(values)
        if rgd_member(graph, divisor, f):
            out.add(values)
    return frozenset(out)


def rgd_box_enumerate_fast(graph, divisor):
    """Same box scan, vectorised (still definition-only membership).

    The min-0 vectors of the box are a disjoint union over their first zero
    coordinate i: entries before i lie in [1, spread], entry i is 0 and the
    entries after it lie in [0, spread].  Only those vectors are built.
    """
    n = graph.vertex_count
    if divisor.degree() < 0:
        return frozenset()
    spread = sufficient_box(graph, divisor)
    lap = np.array([list(r) for r in graph.laplacian], dtype=np.int64)
    coeffs = np.array(divisor.coeffs, dtype=np.int64)
    out = set()
    for i in range(n):
        axes = ([np.arange(1, spread + 1, dtype=np.int64)] * i
                + [np.zeros(1, dtype=np.int64)]
                + [np.arange(spread + 1, dtype=np.int64)] * (n - 1 - i))
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        ok = (grid @ lap.T + coeffs >= 0).all(axis=1)
        out.update(tuple(int(x) for x in row) for row in grid[ok])
    return frozenset(out)


def in_image(solver, b):
    """Whether A x = b has an integer solution, read off the SmithSolver's
    cokernel rows alone: each row's value on b must vanish modulo its
    invariant factor (exactly, for the rows past the rank)."""
    if len(b) != solver.m:
        raise ValueError("right-hand side has wrong length")
    support = [(j, x) for j, x in enumerate(b) if x]
    for row, d in solver.cokernel_rows:
        c = sum(row[j] * x for j, x in support)
        if (c % d if d else c) != 0:
            return False
    return True


def divisor_class_scan(graph, divisor):
    """Every effective divisor of degree deg(D) linearly equivalent to D, as the
    sorted tuple of its chips' vertices: all C(n+d-1, d) candidates, each
    tested with the Laplacian solver's lattice test."""
    n = graph.vertex_count
    d = divisor.degree()
    if d < 0:
        return []
    solver = graph.laplacian_solver
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        coeffs = [0] * n
        for v in combo:
            coeffs[v] += 1
        if in_image(solver, [a - b for a, b in zip(coeffs, divisor.coeffs)]):
            out.append(combo)
    return out


def all_firing_subsets(graph, divisor):
    """Every proper nonempty subset whose firing keeps the divisor effective."""
    from tropdiv.linear_systems import can_fire
    n = graph.vertex_count
    out = []
    for r in range(1, n):
        for combo in itertools.combinations(range(n), r):
            if can_fire(graph, divisor, frozenset(combo)):
                out.append(frozenset(combo))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def two_cover(family, n):
    """Whether two members of a family of vertex sets cover range(n): the
    pair loop of the exhaustive extremality test."""
    everything = frozenset(range(n))
    return any(a | b == everything
               for i, a in enumerate(family) for b in family[i + 1:])


def connected_multigraphs(max_vertices, max_edges):
    """All connected multigraphs (loops allowed) up to isomorphism."""
    from tropdiv.graphs import build_graph
    from tropdiv.errors import Disconnected
    seen = set()
    graphs = [build_graph(1, [])]  # the edgeless point
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for e in range(1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(slots, e):
                canon = min(
                    tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in combo))
                    for p in itertools.permutations(range(n)))
                if (n, canon) in seen:
                    continue
                seen.add((n, canon))
                try:
                    graphs.append(build_graph(n, list(combo)))
                except Disconnected:
                    pass
    return graphs


def extreme_rays_by_facets(cone):
    """Primitive generators of the extreme rays by brute force over facets:
    every choice of dim - 1 rows, any row of the cone included, whose kernel
    is a line gives the orientation of that line the cone contains, if any."""
    d = cone.dim
    rays = set()
    for subset in itertools.combinations(cone.rows, d - 1):
        null = frac_nullspace(list(subset), d)
        if len(null) != 1:
            continue
        v = tuple(null[0])
        for cand in (v, tuple(-a for a in v)):
            if cone.contains(cand):
                rays.add(cand)
                break
    return sorted(rays)


def brute_force_hilbert_basis(cone, max_height, box):
    """Irreducible cone points up to a height, scanning [-box, box] in every
    coordinate but the height."""
    points = [x + (m,) for m in range(1, max_height + 1)
              for x in itertools.product(range(-box, box + 1), repeat=cone.dim - 1)
              if cone.contains(x + (m,))]
    return {c for c in points
            if not any(a[-1] < c[-1]
                       and cone.contains(tuple(u - v for u, v in zip(c, a)))
                       for a in points)}


def monoid_certificate_by_search(cone, target, basis_slices):
    """Nonnegative-integer combination of basis slices equal to the target, as
    a tuple of basis indices with multiplicity, or None: a depth-first search
    that subtracts each basis slice of no greater height whose remainder stays
    in the cone, memoised on the remainder."""
    order = sorted(range(len(basis_slices)), key=lambda i: -basis_slices[i][-1])

    @lru_cache(maxsize=None)
    def search(vec):
        if not any(vec):
            return ()
        for i in order:
            b = basis_slices[i]
            if b[-1] > vec[-1]:
                continue
            rest = tuple(x - y for x, y in zip(vec, b))
            if not cone.contains(rest):
                continue
            sub = search(rest)
            if sub is not None:
                return (i,) + sub
        return None

    return search(tuple(target))


def parallelepiped_points(rays):
    """Non-zero integer points of {sum t_j r_j : t_j in [0, 1)} for independent
    rays: scan the bounding box and keep each x whose coordinates t, solved
    for over the rationals and checked against R t = x, lie in [0, 1)."""
    R = [[r[c] for r in rays] for c in range(len(rays[0]))]  # rays as columns
    ranges = [range(sum(min(a, 0) for a in row), sum(max(a, 0) for a in row) + 1)
              for row in R]
    out = set()
    for x in itertools.product(*ranges):
        t = frac_solve(R, list(x))
        if any(x) and t is not None and all(0 <= tj < 1 for tj in t):
            assert [sum(a * tj for a, tj in zip(row, t)) for row in R] == list(x)
            out.add(x)
    return out


def parallelepiped_point_walk(rays, budget=DEFAULT_BUDGET):
    """Non-zero integer points of {sum t_j r_j : t_j in [0, 1)} as points, []
    for dependent rays: the Smith-form odometer over the classes z in
    prod range(s_i), carrying the point x beside its ray coordinates t and
    subtracting r_j from x whenever t_j wraps."""
    k = len(rays)
    d = len(rays[0])
    _, diag, V = smith_normal_form([[rays[j][i] for j in range(k)] for i in range(d)])
    if k > d or diag[k - 1] == 0:
        return []
    budget.check_count(prod(diag), budget.max_lattice_candidates, "parallelepiped classes")
    top = diag[-1]
    factors = []
    steps = []
    for i, s in enumerate(diag):
        if s > 1:
            col = [V[i].get(j, 0) * (top // s) % top for j in range(k)]
            shift = [sum(cj * r[c] for cj, r in zip(col, rays)) // top for c in range(d)]
            factors.append(s)
            steps.append(([(j, cj) for j, cj in enumerate(col) if cj], shift))
    t = [0] * k
    x = [0] * d
    z = [0] * len(factors)
    points = []
    for _ in range(prod(factors) - 1):
        i = len(factors) - 1
        while True:
            moves, shift = steps[i]
            x = [a + b for a, b in zip(x, shift)]
            for j, cj in moves:
                tj = t[j] + cj
                if tj >= top:
                    tj -= top
                    x = [a - b for a, b in zip(x, rays[j])]
                t[j] = tj
            z[i] += 1
            if z[i] < factors[i]:
                break
            z[i] = 0
            i -= 1
        points.append(tuple(x))
    return points


def hilbert_basis_by_slack(cone, budget=DEFAULT_BUDGET):
    """Gordan's construction on points: the rays and the walked parallelepiped
    points in one set, sorted by (height, point), each kept unless its row
    slack is componentwise at least that of a kept one, i.e. unless it is a
    kept point plus a cone point."""
    rays = extreme_rays(cone)
    if frac_rank(rays) != len(rays):
        raise CertificateError("the cone's extreme rays are linearly dependent")
    candidates = set(rays)
    if rays:
        candidates.update(parallelepiped_point_walk(rays, budget))
    basis = []
    kept_slacks = []
    for c in sorted(candidates, key=lambda y: (y[-1], y)):
        sc = cone.slack(c)
        if not any(all(map(ge, sc, sa)) for sa in kept_slacks):
            basis.append(c)
            kept_slacks.append(sc)
    elements = []
    for y in basis:
        el = cone.slice_to_element(y)
        if el.degree < 1:
            raise CertificateError("a Hilbert basis element has degree below 1")
        elements.append(el)
    return GeneratorSet(cone.graph, cone.divisor, tuple(sorted(elements)))


def det(M):
    """Determinant by cofactor expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def rank_by_minors(A):
    """Rank over the rationals without elimination: the largest r with a
    non-zero r x r minor (every larger minor expands into r x r ones)."""
    m, n = len(A), len(A[0]) if A else 0
    rank = 0
    for r in range(1, min(m, n) + 1):
        if not any(det([[A[i][j] for j in cols] for i in rows])
                   for rows in itertools.combinations(range(m), r)
                   for cols in itertools.combinations(range(n), r)):
            break
        rank = r
    return rank


def oplus_cover_by_argmin(target_values, candidate_values):
    """oplus_cover one candidate at a time: shift it by min(target -
    candidate), and keep it when that argmin meets a vertex still
    uncovered."""
    uncovered = list(range(len(target_values)))
    terms = []
    for idx, cand in enumerate(candidate_values):
        diffs = [t - c for t, c in zip(target_values, cand)]
        shift = min(diffs)
        if any(diffs[v] == shift for v in uncovered):
            terms.append((shift, idx))
            uncovered = [v for v in uncovered if diffs[v] != shift]
            if not uncovered:
                return terms
    return None


def degree_exact_products(degrees, total):
    """Multisets of indices with degree sum exactly total, by recursion over
    the smallest index still allowed (lexicographic order)."""

    def rec(start, remaining):
        if remaining == 0:
            yield ()
            return
        for i in range(start, len(degrees)):
            d = degrees[i]
            if 0 < d <= remaining:
                for rest in rec(i, remaining - d):
                    yield (i,) + rest

    yield from rec(0, total)


def grid_model(base, q):
    """The 1/q grid subdivision of a metric graph, numbered vertex by vertex:
    the model vertices, then each edge's grid points j/q (0 < j < q*length)
    in edge order.  Returns (vertex count, edge list, points)."""
    from tropdiv.metric import Point
    points = [Point.vertex(i) for i in range(base.model.vertex_count)]
    edges = []
    for e, (u, v) in enumerate(base.model.edges):
        prev = u
        for j in range(1, int(q * base.lengths[e])):
            points.append(Point.interior(e, Fraction(j, q)))
            edges.append((prev, len(points) - 1))
            prev = len(points) - 1
        edges.append((prev, v))
    return len(points), edges, points


def components_of_complement(graph, points):
    """Closures of the connected components of a metric graph minus a point
    set: a union-find over the pieces of the model cut at the points, joining
    pieces at every end that stays in the graph."""
    from tropdiv.metric import MetricSubgraph, _cut_model
    removed = set(points)
    cuts = {}
    for p in removed:
        if not p.is_vertex:
            cuts.setdefault(p.index, set()).add(p.offset)
    nodes, segments = _cut_model(graph, cuts)

    parent = list(range(len(segments)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    piece_at = {}
    for s, (_, _, _, i, j) in enumerate(segments):
        for x in (i, j):
            if nodes[x] not in removed:
                parent[find(s)] = find(piece_at.setdefault(x, s))

    groups = {}
    for s, (e, a, b, _, _) in enumerate(segments):
        groups.setdefault(find(s), {}).setdefault(e, []).append((a, b))
    out = [MetricSubgraph.build(graph, intervals=intervals) for intervals in groups.values()]
    return sorted(out, key=lambda s: (s.intervals, sorted(s.vertices)))


def metric_firing_subgraphs_by_unions(graph, divisor):
    """Every union of complement-component closures and support points that
    is proper, nonempty and passes the definitional can_fire_metric: all
    2^parts unions, deduplicated."""
    from tropdiv.metric import MetricSubgraph, can_fire_metric
    support = sorted(divisor.support())
    parts = components_of_complement(graph, support) + \
        [subgraph_from_point(graph, p) for p in support]
    seen = set()
    out = []
    for mask in range(1, 1 << len(parts)):
        chosen = [part for i, part in enumerate(parts) if mask >> i & 1]
        intervals = {}
        for part in chosen:
            for e, ivs in part.intervals:
                intervals.setdefault(e, []).extend(ivs)
        sub = MetricSubgraph.build(
            graph, frozenset().union(*(part.vertices for part in chosen)), intervals)
        key = (sub.vertices, sub.intervals)
        if key in seen or sub.is_empty() or sub.is_all():
            continue
        seen.add(key)
        if can_fire_metric(graph, divisor, sub):
            out.append(sub)
    return sorted(out, key=lambda s: (len(s.intervals), s.intervals, sorted(s.vertices)))


def order_at(f, p):
    """ord_p(f), the sum of f's outgoing slopes at p, read off the breakpoint
    lists one point at a time (the per-point reference for PLFunction.div).

    p is a model vertex or a point strictly inside an edge; anything else is
    an InputError.
    """
    from tropdiv.errors import InputError
    graph = f.graph

    def slope_leaving(e, o, forward):
        # slope of edge e's piece that starts (forward) or ends at offset o,
        # measured away from o
        for (o1, v1), (o2, v2) in zip(f.segs[e], f.segs[e][1:]):
            if (o1 <= o < o2) if forward else (o1 < o <= o2):
                slope = (v2 - v1) / (o2 - o1)
                return slope if forward else -slope
        raise AssertionError("offset outside edge")

    if p.is_vertex:
        total = 0
        for e, (u, v) in enumerate(graph.model.edges):
            if u == p.index:
                total += slope_leaving(e, 0, True)
            if v == p.index:
                total += slope_leaving(e, graph.lengths[e], False)
        return total
    if not (0 <= p.index < graph.model.edge_count and 0 < p.offset < graph.lengths[p.index]):
        raise InputError(f"point {p.describe()} is not inside an edge")
    return slope_leaving(p.index, p.offset, True) + slope_leaving(p.index, p.offset, False)


def to_dot(graph, divisor=None, highlight=()):
    """GraphViz rendering of a finite graph; divisor coefficients become
    vertex labels and highlighted vertices are drawn red."""
    lines = ["graph G {"]
    for x in range(graph.vertex_count):
        label = graph.label_of(x)
        if divisor is not None and divisor.coeffs[x] != 0:
            label += f" [{divisor.coeffs[x]}]"
        extra = ' color="red"' if x in set(highlight) else ""
        lines.append(f'  {x} [label="{label}"{extra}];')
    for u, v in graph.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def metric_graph_to_json(g):
    """The wire form that serialize.metric_graph_from_json parses."""
    from tropdiv.serialize import frac_to_json
    model = {"vertices": g.model.vertex_count,
             "edges": [[u, v] for u, v in g.model.edges]}
    if g.model.labels is not None:
        model["labels"] = list(g.model.labels)
    out = {"model": model,
           "lengths": {str(e): frac_to_json(x) for e, x in enumerate(g.lengths)}}
    if g.is_refinement:
        out["is_refinement"] = True
    return out


def value_at(f, p):
    """f(p) for a PL function, read off its breakpoint lists: at a model
    vertex the end value of an incident edge, inside an edge the linear
    interpolation between the breakpoints around p."""
    if p.is_vertex:
        for e, (u, v) in enumerate(f.graph.model.edges):
            if p.index in (u, v):
                return f.segs[e][0][1] if u == p.index else f.segs[e][-1][1]
        raise AssertionError("vertex on no edge")
    bps = f.segs[p.index]
    for (o1, v1), (o2, v2) in zip(bps, bps[1:]):
        if o1 <= p.offset <= o2:
            return v1 + (v2 - v1) * (p.offset - o1) / (o2 - o1)
    raise AssertionError("offset outside edge")


def subgraph_from_point(graph, p):
    """The one-point metric subgraph {p}."""
    from tropdiv.metric import MetricSubgraph
    if p.is_vertex:
        return MetricSubgraph.build(graph, vertices={p.index})
    return MetricSubgraph.build(graph, intervals={p.index: [(p.offset, p.offset)]})


def subgraph_distances(graph, sub):
    """Cut the model at the subgraph's interval ends.  Returns the pieces,
    whether each lies in the subgraph, and the exact distance from every cut
    model point to the subgraph (Dijkstra)."""
    from tropdiv.errors import EmptySubgraph
    from tropdiv.metric import _cut_model
    points, segments = _cut_model(
        graph, {e: sub.cut_offsets(e) for e in range(graph.model.edge_count)})
    inside = [any(ia <= a and b <= ib for ia, ib in sub.edge_intervals(e))
              for e, a, b, _, _ in segments]
    dist = [None] * len(points)
    heap = []
    for i, p in enumerate(points):
        if sub.contains_point(p):
            dist[i] = Fraction(0)
            heapq.heappush(heap, (Fraction(0), i))
    adj = [[] for _ in points]
    for (_, a, b, i, j), ins in zip(segments, inside):
        w = Fraction(0) if ins else b - a
        adj[i].append((j, w))
        adj[j].append((i, w))
    while heap:
        d, i = heapq.heappop(heap)
        if dist[i] is not None and d > dist[i]:
            continue
        for j, w in adj[i]:
            nd = d + w
            if dist[j] is None or nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, j))
    if any(d is None for d in dist):
        raise EmptySubgraph("distance to an empty subgraph is undefined")
    return segments, inside, dist


def cf_move_by_distances(graph, sub, l):
    """The chip-firing function x -> -min(l, dist(x, subgraph)), exactly, for
    every l > 0: read off the exact distance network, with breakpoints where
    the two fronts along a piece meet and where each crosses the cap l (the
    reference for metric.cf_move's closed form)."""
    from tropdiv.errors import EmptySubgraph, InputError
    from tropdiv.metric import PLFunction, _frac
    l = _frac(l)
    if l <= 0:
        raise InputError("firing distance must be positive")
    if sub.is_empty():
        raise EmptySubgraph("cannot fire an empty subgraph")
    if sub.is_all():
        raise EmptySubgraph("cannot fire the whole graph")
    segments, inside, dist = subgraph_distances(graph, sub)

    per_edge = [{} for _ in range(graph.model.edge_count)]
    for (e, a, b, i, j), ins in zip(segments, inside):
        ln, da, db = b - a, dist[i], dist[j]
        pts = {Fraction(0): da, ln: db}
        if not ins:
            # meeting point of the two linear fronts
            t_star = (db - da + ln) / 2
            if 0 < t_star < ln:
                pts[t_star] = da + t_star
            # crossings with the cap at level l on both rising fronts
            for t in (l - da, ln - (l - db)):
                if 0 < t < ln:
                    pts[t] = min(da + t, db + (ln - t))
        for t, d in pts.items():
            per_edge[e][a + t] = -min(l, d)
    return PLFunction(graph, [sorted(bps.items()) for bps in per_edge])
