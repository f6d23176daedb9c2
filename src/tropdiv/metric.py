"""Z-metric graphs, piecewise linear functions, and metric chip firing.

A metric graph is a finite multigraph with positive rational edge lengths,
glued from intervals.  Rational functions are continuous piecewise linear
maps with integer slopes; the order at a point is the sum of outgoing
slopes, div(f) the divisor of orders.  Exact rational arithmetic is used
throughout; there is no floating point anywhere.

Circles are excluded: a model in which every vertex has valence 2 is
rejected.  Constructors insist on the canonical model (no 2-valent
vertices) unless the refinement flag says the graph is a deliberate
subdivision.  Edges of infinite length are not representable by design;
every construction here lives on compact graphs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .budget import DEFAULT_BUDGET
from .errors import (CertificateError, EmptySubgraph, InputError, InvalidPL,
                     NotMember, SizeMismatch)
from .graphs import Divisor, FiniteGraph, build_graph, canonical_divisor
from .graphs import linear_equiv as graph_linear_equiv
from .linear_systems import firing_subsets


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, order=True)
class Point:
    """Canonical point: either a model vertex or an interior edge point."""

    kind: int  # 0 = vertex, 1 = edge interior (sort order)
    index: int
    offset: Fraction = Fraction(0)

    @staticmethod
    def vertex(i):
        return Point(0, i)

    @staticmethod
    def interior(edge, offset):
        return Point(1, edge, _frac(offset))

    @property
    def is_vertex(self):
        return self.kind == 0

    def describe(self, graph=None):
        if self.is_vertex:
            if graph is not None:
                return graph.model.label_of(self.index)
            return f"v{self.index}"
        return f"e{self.index}@{self.offset}"


@dataclass(frozen=True)
class MetricGraph:
    model: FiniteGraph
    lengths: tuple[Fraction, ...]
    is_refinement: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(_frac(x) for x in self.lengths))
        if len(self.lengths) != self.model.edge_count:
            raise InputError("one length per edge required")
        if self.model.edge_count == 0:
            raise InputError("a metric graph needs at least one edge")
        if any(x <= 0 for x in self.lengths):
            raise InputError("edge lengths must be positive")
        if all(self.model.valence(x) == 2 for x in range(self.model.vertex_count)):
            raise InputError("graph is homeomorphic to the circle; not supported")
        if not self.is_refinement:
            for x in range(self.model.vertex_count):
                if self.model.valence(x) == 2:
                    raise InputError(
                        f"vertex {x} has valence 2; pass a canonical model or "
                        "set is_refinement")

    @property
    def zflag(self):
        return all(x.denominator == 1 for x in self.lengths)

    def genus(self):
        return self.model.genus()

    def point(self, edge, offset):
        """Canonicalize (edge, offset): endpoints become vertex points."""
        offset = _frac(offset)
        if not 0 <= edge < self.model.edge_count:
            raise InputError(f"edge {edge} out of range")
        length = self.lengths[edge]
        if not 0 <= offset <= length:
            raise InputError(f"offset {offset} outside [0, {length}]")
        u, v = self.model.edges[edge]
        if offset == 0:
            return Point.vertex(u)
        if offset == length:
            return Point.vertex(v)
        return Point.interior(edge, offset)

    def vertex_point(self, i):
        if not 0 <= i < self.model.vertex_count:
            raise InputError(f"vertex {i} out of range")
        return Point.vertex(i)

    def is_z_point(self, p):
        if p.is_vertex:
            return True
        return (p.offset.denominator == 1
                and (self.lengths[p.index] - p.offset).denominator == 1)


def build_metric_graph(vertex_count, edges, lengths, labels=None, is_refinement=False):
    model = build_graph(vertex_count, edges, labels)
    return MetricGraph(model, tuple(_frac(x) for x in lengths), is_refinement)


@dataclass(frozen=True)
class MetricDivisor:
    """Finite formal sum of points with nonzero integer coefficients."""

    graph: MetricGraph
    items: tuple[tuple[Point, int], ...]

    def __post_init__(self):
        model, lengths = self.graph.model, self.graph.lengths
        merged = {}
        for p, c in self.items:
            if p.is_vertex:
                on_graph = 0 <= p.index < model.vertex_count
            else:
                on_graph = 0 <= p.index < model.edge_count and 0 < p.offset < lengths[p.index]
            if not on_graph:
                raise InputError(f"point {p.describe()} is not on the graph")
            merged[p] = merged.get(p, 0) + operator.index(c)
        cleaned = tuple(sorted((p, c) for p, c in merged.items() if c != 0))
        object.__setattr__(self, "items", cleaned)

    @staticmethod
    def of(graph, entries):
        return MetricDivisor(graph, tuple(entries.items()))

    @staticmethod
    def zero(graph):
        return MetricDivisor(graph, ())

    def coeff(self, p):
        for q, c in self.items:
            if q == p:
                return c
        return 0

    def degree(self):
        return sum(c for _, c in self.items)

    def support(self):
        return frozenset(p for p, _ in self.items)

    def is_effective(self):
        return all(c >= 0 for _, c in self.items)

    def is_z_divisor(self):
        return all(self.graph.is_z_point(p) for p, _ in self.items)

    def _match(self, other):
        if self.graph is not other.graph and self.graph != other.graph:
            raise SizeMismatch("divisors on different metric graphs")

    def __add__(self, other):
        self._match(other)
        return MetricDivisor(self.graph, self.items + other.items)

    def __sub__(self, other):
        self._match(other)
        return MetricDivisor(self.graph,
                             self.items + tuple((p, -c) for p, c in other.items))

    def __rmul__(self, k):
        k = operator.index(k)
        return MetricDivisor(self.graph, tuple((p, k * c) for p, c in self.items))

    def __neg__(self):
        return MetricDivisor(self.graph, tuple((p, -c) for p, c in self.items))


def canonical_divisor_metric(graph):
    """(val(x) - 2)[x] over model vertices; 2-valent vertices drop out."""
    return MetricDivisor(graph, tuple(
        (Point.vertex(x), c) for x, c in enumerate(canonical_divisor(graph.model).coeffs)))


class PLFunction:
    """Continuous piecewise linear function with integer slopes.

    Stored per edge as a breakpoint list [(offset, value), ...] covering
    [0, length]; construction canonicalizes (merges collinear pieces) and
    validates continuity across shared vertices and integrality of slopes.
    The integer slopes of the canonical pieces are kept per edge.
    """

    __slots__ = ("graph", "segs", "_slopes")

    def __init__(self, graph, segs):
        self.graph = graph
        model = graph.model
        if len(segs) != model.edge_count:
            raise InvalidPL("one breakpoint list per edge required")
        norm, runs = [], []
        for e, bps in enumerate(segs):
            bps = sorted((_frac(o), _frac(v)) for o, v in bps)
            if not bps or bps[0][0] != 0 or bps[-1][0] != graph.lengths[e]:
                raise InvalidPL(f"edge {e}: breakpoints must span [0, length]")
            if len({o for o, _ in bps}) != len(bps):
                raise InvalidPL(f"edge {e}: duplicate breakpoint offsets")
            # one pass: a piece of the current slope moves the last kept
            # breakpoint on, any other slope starts a new piece
            keep, run = [bps[0]], []
            for (o1, v1), (o2, v2) in zip(bps, bps[1:]):
                s = (v2 - v1) / (o2 - o1)
                if s.denominator != 1:
                    raise InvalidPL(f"edge {e}: non-integer slope {s}")
                if run and run[-1] == s:
                    keep[-1] = (o2, v2)
                else:
                    keep.append((o2, v2))
                    run.append(int(s))
            norm.append(tuple(keep))
            runs.append(tuple(run))
        self.segs = tuple(norm)
        self._slopes = tuple(runs)

        values = [None] * model.vertex_count
        for e, (u, v) in enumerate(model.edges):
            for x, val in ((u, norm[e][0][1]), (v, norm[e][-1][1])):
                if values[x] is None:
                    values[x] = val
                elif values[x] != val:
                    raise InvalidPL(f"discontinuous at vertex {x}")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(graph, c):
        return PLFunction.from_vertex_values(graph, [c] * graph.model.vertex_count)

    @staticmethod
    def from_vertex_values(graph, vertex_values, interior=None):
        """Linear interpolation of vertex values, with optional interior
        breakpoints given as {edge: [(offset, value), ...]}."""
        interior = interior or {}
        segs = []
        for e, (u, v) in enumerate(graph.model.edges):
            bps = [(Fraction(0), _frac(vertex_values[u])),
                   (graph.lengths[e], _frac(vertex_values[v]))]
            for o, val in interior.get(e, ()):
                bps.append((_frac(o), _frac(val)))
            segs.append(bps)
        return PLFunction(graph, segs)

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PLFunction)
                and self.graph == other.graph and self.segs == other.segs)

    def __hash__(self):
        return hash((self.graph, self.segs))

    def __repr__(self):
        return f"PLFunction({self.segs!r})"

    def min_value(self):
        return min(v for bps in self.segs for _, v in bps)

    # -- tropical algebra -------------------------------------------------------

    def _map(self, fn):
        return PLFunction(self.graph, [[(o, fn(v)) for o, v in bps]
                                       for bps in self.segs])

    def shift(self, c):
        c = _frac(c)
        return self._map(lambda v: v + c)

    def normalized(self):
        return self.shift(-self.min_value())

    def power(self, k):
        """Tropical k-th power: values scaled by the integer k."""
        k = operator.index(k)
        return self._map(lambda v: k * v)

    def odot(self, other):
        return self._merge(other, operator.add)

    def oplus(self, other):
        return self._merge(other, max)

    def _merge(self, other, op):
        """op of the two functions at the union of their breakpoints and where
        self - other changes sign inside a common piece, so op = max or + is
        linear in between; crossings that + does not need merge away."""
        self._match(other)
        segs = []
        for e in range(self.graph.model.edge_count):
            offs = sorted({o for o, _ in self.segs[e]} | {o for o, _ in other.segs[e]})
            gaps = [(o, self._eval_edge(e, o) - other._eval_edge(e, o)) for o in offs]
            offs += [o1 + (o2 - o1) * d1 / (d1 - d2)
                     for (o1, d1), (o2, d2) in zip(gaps, gaps[1:]) if d1 * d2 < 0]
            segs.append([(o, op(self._eval_edge(e, o), other._eval_edge(e, o)))
                         for o in offs])
        return PLFunction(self.graph, segs)

    def _eval_edge(self, e, o):
        bps = self.segs[e]
        for (o1, v1), (o2, v2) in zip(bps, bps[1:]):
            if o1 <= o <= o2:
                return v1 + (v2 - v1) / (o2 - o1) * (o - o1)
        raise InputError("offset outside edge")

    def _match(self, other):
        if self.graph != other.graph:
            raise SizeMismatch("functions on different metric graphs")

    # -- orders and divisor ------------------------------------------------------

    def div(self):
        """Divisor of orders; supported on vertices and interior breakpoints.

        One pass per edge: its end slopes go to its end vertices and each
        interior breakpoint, where the slope changes by construction, gets
        that change.
        """
        entries = {}
        vertex_ords = [0] * self.graph.model.vertex_count
        for e, (u, v) in enumerate(self.graph.model.edges):
            slopes = self._slopes[e]
            vertex_ords[u] += slopes[0]
            vertex_ords[v] -= slopes[-1]
            for (o, _), s1, s2 in zip(self.segs[e][1:-1], slopes, slopes[1:]):
                entries[Point.interior(e, o)] = s2 - s1
        for x, c in enumerate(vertex_ords):
            if c:
                entries[Point.vertex(x)] = c
        d = MetricDivisor.of(self.graph, entries)
        if d.degree() != 0:
            raise CertificateError("principal divisor has non-zero degree")
        return d


def rgd_member_metric(graph, divisor, f):
    if divisor.graph != graph or f.graph != graph:
        raise SizeMismatch("divisor or function on a different metric graph")
    return (f.div() + divisor).is_effective()


# -- cut models ---------------------------------------------------------------


def _cut_model(graph, cuts):
    """Cut every model edge at the offsets cuts[e], all strictly inside it.

    Returns (points, segments).  points lists the model vertices, then the
    cut points edge by edge in increasing offset; each segment (e, a, b, i, j)
    is the piece [a, b] of edge e running from points[i] to points[j], and
    the pieces come edge by edge in increasing offset.
    """
    points = [Point.vertex(x) for x in range(graph.model.vertex_count)]
    segments = []
    for e, (u, v) in enumerate(graph.model.edges):
        i, a = u, Fraction(0)
        for o in sorted(cuts.get(e, ())):
            points.append(Point.interior(e, o))
            segments.append((e, a, o, i, len(points) - 1))
            i, a = len(points) - 1, o
        segments.append((e, a, graph.lengths[e], i, v))
    return points, segments


# -- model refinement ---------------------------------------------------------


class Refinement:
    """Subdivision of every edge into segments of length 1/q, where q is the
    lcm of the edge-length denominators and the support-offset denominators
    of the given divisors, so the 1/q grid holds every support point.

    Grid points are the vertices of the refined model: the model vertices,
    then each edge's grid points in increasing offset.  A vertex label g(x)
    on the refined model is the PL value g(x)/q, so slopes become plain value
    differences and div is preserved verbatim.
    """

    def __init__(self, graph, divisors):
        self.base = graph
        self.q = lcm(*(x.denominator for x in graph.lengths),
                     *(p.offset.denominator for d in divisors for p, _ in d.items))
        points, self._segments = _cut_model(graph, {
            e: [Fraction(j, self.q) for j in range(1, int(self.q * length))]
            for e, length in enumerate(graph.lengths)})
        self._index = {p: i for i, p in enumerate(points)}
        self.graph = build_graph(len(points),
                                 [(i, j) for _, _, _, i, j in self._segments])

    def linear_equiv(self, d1, d2):
        """Witness f with div(f) = D1 - D2 for divisors on the grid, or None;
        all queries share the one Smith form of the refined Laplacian."""
        if d1.graph != self.base or d2.graph != self.base:
            raise SizeMismatch("divisors on a different metric graph")
        divisors = []
        for d in (d1, d2):
            coeffs = [0] * self.graph.vertex_count
            for p, c in d.items:
                if p not in self._index:
                    raise InputError(f"point {p.describe()} is off the 1/{self.q} grid")
                coeffs[self._index[p]] += c
            divisors.append(Divisor(tuple(coeffs)))
        g = graph_linear_equiv(self.graph, *divisors)
        if g is None:
            return None
        values = [Fraction(v, self.q) for v in g.values]
        segs = [[(Fraction(0), values[u])] for u, _ in self.base.model.edges]
        for e, _, b, _, j in self._segments:
            segs[e].append((b, values[j]))
        # g is min-0 and every grid value is a breakpoint, so f is min-0 too
        f = PLFunction(self.base, segs)
        if f.div() != d1 - d2:
            raise CertificateError("refined witness does not replay D1 - D2")
        return f


def linear_equiv_metric(graph, d1, d2):
    """Witness f with div(f) = D1 - D2, or None; decided on a refinement.

    With q a common denominator of the edge lengths and the support offsets,
    a witness has its divisor supported on the 1/q grid; its slope can then
    only change at grid points, so it restricts to a vertex labelling of the
    refined model, and conversely.  The metric question is therefore exactly
    the integer Laplacian solve on the refinement.
    """
    if d1.graph != graph or d2.graph != graph:
        raise SizeMismatch("divisors on a different metric graph")
    if d1.degree() != d2.degree():
        return None
    return Refinement(graph, [d1, d2]).linear_equiv(d1, d2)


# -- metric subgraphs and chip firing ------------------------------------------


@dataclass(frozen=True)
class MetricSubgraph:
    """Compact subgraph: closed subintervals of edges plus isolated points.

    Canonical form: per-edge sorted disjoint closed intervals (singletons
    allowed only in the interior); an interval reaching an edge end promotes
    the endpoint into the vertex set.
    """

    graph: MetricGraph
    vertices: frozenset[int]
    intervals: tuple[tuple[int, tuple[tuple[Fraction, Fraction], ...]], ...]

    def __post_init__(self):
        per_edge = {}
        for e, ivs in self.intervals:
            per_edge.setdefault(e, []).extend(
                (_frac(a), _frac(b)) for a, b in ivs)
        verts = set(self.vertices)
        for x in verts:
            if not 0 <= x < self.graph.model.vertex_count:
                raise InputError(f"vertex {x} out of range")
        norm = {}
        for e, ivs in per_edge.items():
            if not 0 <= e < self.graph.model.edge_count:
                raise InputError(f"edge {e} out of range")
            length = self.graph.lengths[e]
            u, v = self.graph.model.edges[e]
            for a, b in ivs:
                if not (0 <= a <= b <= length):
                    raise InputError(f"interval [{a},{b}] outside edge {e}")
            ivs.sort()
            merged = []
            for a, b in ivs:
                if merged and a <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], b))
                else:
                    merged.append((a, b))
            cleaned = []
            for a, b in merged:
                if a == 0:
                    verts.add(u)
                if b == length:
                    verts.add(v)
                if a == b and (a == 0 or b == length):
                    continue  # endpoint singleton became a vertex
                cleaned.append((a, b))
            if cleaned:
                norm[e] = tuple(cleaned)
        object.__setattr__(self, "vertices", frozenset(verts))
        object.__setattr__(self, "intervals",
                           tuple(sorted((e, ivs) for e, ivs in norm.items())))

    @staticmethod
    def build(graph, vertices=(), intervals=None):
        intervals = intervals or {}
        return MetricSubgraph(graph, frozenset(vertices),
                              tuple((e, tuple(ivs)) for e, ivs in intervals.items()))

    @staticmethod
    def whole(graph):
        return MetricSubgraph.build(
            graph,
            vertices=range(graph.model.vertex_count),
            intervals={e: [(Fraction(0), graph.lengths[e])]
                       for e in range(graph.model.edge_count)})

    def edge_intervals(self, e):
        for ee, ivs in self.intervals:
            if ee == e:
                return ivs
        return ()

    def is_empty(self):
        return not self.vertices and not self.intervals

    def is_all(self):
        # the whole graph's canonical form has each edge as the one interval
        # [0, length], whose ends bring in every vertex of the connected model
        lengths = self.graph.lengths
        return len(self.intervals) == len(lengths) and all(
            ivs == ((0, lengths[e]),) for e, ivs in self.intervals)

    def union(self, other):
        # the constructor merges each edge's intervals into canonical form
        return MetricSubgraph(self.graph, self.vertices | other.vertices,
                              self.intervals + other.intervals)

    def contains_point(self, p):
        if p.is_vertex:
            return p.index in self.vertices
        return any(a <= p.offset <= b for a, b in self.edge_intervals(p.index))

    def cut_offsets(self, e):
        """Interior offsets where the subgraph structure changes on edge e."""
        out = set()
        for a, b in self.edge_intervals(e):
            for o in (a, b):
                if 0 < o < self.graph.lengths[e]:
                    out.add(o)
        return out


def cf_move(graph, sub, l):
    """The chip-firing function x -> -min(l, dist(x, subgraph)), exactly.

    Cut the model at the subgraph's interval ends.  For l at most half of
    every piece outside the subgraph the function is 0 on the subgraph, a
    ramp of slope -1 and length l from each end of an outside piece that
    lies in the subgraph, and -l everywhere else: any other way off a piece
    crosses a whole outside piece, of length at least 2l.  A larger l is an
    InputError.
    """
    if sub.graph != graph:
        raise SizeMismatch("subgraph on a different metric graph")
    l = _frac(l)
    if l <= 0:
        raise InputError("firing distance must be positive")
    if sub.is_empty():
        raise EmptySubgraph("cannot fire an empty subgraph")
    if sub.is_all():
        raise EmptySubgraph("cannot fire the whole graph")
    points, segments = _cut_model(
        graph, {e: sub.cut_offsets(e) for e in range(graph.model.edge_count)})
    per_edge = [{} for _ in graph.lengths]
    for e, a, b, i, j in segments:
        bps = per_edge[e]
        if sub.contains_point(Point.interior(e, (a + b) / 2)):
            bps[a] = bps[b] = 0
            continue
        if 2 * l > b - a:
            raise InputError(f"firing distance {l} exceeds half of the piece "
                             f"[{a}, {b}] of edge {e} outside the subgraph")
        for end, x, ramp in ((a, i, l), (b, j, -l)):
            if sub.contains_point(points[x]):
                bps[end], bps[end + ramp] = 0, -l
            else:
                bps[end] = -l
    return PLFunction(graph, [bps.items() for bps in per_edge])


def _sufficiently_small_l(graph, divisor, sub):
    """A firing distance below every relevant gap: the shortest piece of the
    model cut at the subgraph's interval ends and the support, divided by 3."""
    cuts = {e: sub.cut_offsets(e) for e in range(graph.model.edge_count)}
    for p, _ in divisor.items:
        if not p.is_vertex:
            cuts[p.index].add(p.offset)
    _, segments = _cut_model(graph, cuts)
    return min(b - a for _, a, b, _, _ in segments) / 3


def can_fire_metric(graph, divisor, sub, l=None):
    """Whether the subgraph fires on the divisor.

    l defaults to a provably small value (min marked gap over 3); any
    sufficiently small positive l gives the same answer, which tests assert
    by halving.
    """
    if divisor.graph != graph or sub.graph != graph:
        raise SizeMismatch("divisor or subgraph on a different metric graph")
    if l is None:
        l = _sufficiently_small_l(graph, divisor, sub)
    return rgd_member_metric(graph, divisor, cf_move(graph, sub, l))


def metric_firing_subgraphs(graph, divisor, budget=DEFAULT_BUDGET):
    """All proper subgraphs that fire on an effective divisor.

    A firing subgraph's boundary receives strictly negative order from the
    firing function, so the boundary must sit inside the divisor's support.
    Cut the model at the interior support points and subdivide every piece
    once by a zero-chip midpoint: such a subgraph is then the vertex subset
    of this finite graph holding its points and the midpoints of its closed
    pieces, and it fires on Gamma exactly when that subset fires, since each
    boundary point loses one chip per piece leaving the subgraph on both.
    The family is therefore firing_subsets' on that graph, under its cap
    max_firing_vertices; every member is replayed through can_fire_metric.
    """
    if divisor.graph != graph:
        raise SizeMismatch("divisor on a different metric graph")
    if not divisor.is_effective():
        raise InputError("firing enumeration expects an effective divisor")
    cuts = {}
    for p, _ in divisor.items:
        if not p.is_vertex:
            cuts.setdefault(p.index, []).append(p.offset)
    points, segments = _cut_model(graph, cuts)
    mid = len(points)
    model = build_graph(mid + len(segments),
                        [edge for m, (_, _, _, i, j) in enumerate(segments, mid)
                         for edge in ((i, m), (m, j))])
    chips = [0] * model.vertex_count
    index = {p: i for i, p in enumerate(points)}
    for p, c in divisor.items:
        chips[index[p]] = c
    out = []
    for subset in firing_subsets(model, Divisor(tuple(chips)), budget):
        vertices, intervals = [], {}
        for x in subset:
            if x >= mid:
                e, a, b, _, _ = segments[x - mid]
                intervals.setdefault(e, []).append((a, b))
            elif points[x].is_vertex:
                vertices.append(x)
            else:
                p = points[x]
                intervals.setdefault(p.index, []).append((p.offset, p.offset))
        sub = MetricSubgraph.build(graph, vertices, intervals)
        if not can_fire_metric(graph, divisor, sub):
            raise CertificateError("firing subgraph fails the can_fire replay")
        out.append(sub)
    return sorted(out, key=lambda s: (len(s.intervals), s.intervals, sorted(s.vertices)))


def is_extremal_metric(graph, divisor, f, budget=DEFAULT_BUDGET):
    """No two proper firing subgraphs may cover the whole graph."""
    if divisor.graph != graph or f.graph != graph:
        raise SizeMismatch("divisor or function on a different metric graph")
    e = divisor + f.div()
    if not e.is_effective():
        raise NotMember("f is not in R(Gamma, D)")
    subs = metric_firing_subgraphs(graph, e, budget)
    for i, a in enumerate(subs):
        for b in subs[i + 1:]:
            if a.union(b).is_all():
                return False
    return True
