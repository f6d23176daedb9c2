"""Finite multigraphs, divisors, and integer rational functions.

A rational function on a finite graph is a Z-valued vertex labelling.  Its
order at a vertex x is the sum of differences f(y) - f(x) over the edges at
x (loops contribute nothing, since the difference vanishes), and div(f) is
the divisor of orders.  Two divisors are linearly equivalent when their
difference is div(f) for some f; over a connected graph this is an exact
integer solvability question for the Laplacian, decided here by Smith form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import add, index, sub

from .errors import (CertificateError, Disconnected, IndexOutOfRange,
                     InputError, SizeMismatch)
from .intlinalg import SmithSolver


def _is_connected(vertex_count, edges):
    """Whether the edges join all vertex_count vertices (search from 0).

    Joining them takes at least vertex_count - 1 edges, so fewer are refused
    before any per-vertex list is built.
    """
    if vertex_count > len(edges) + 1:
        return False
    adj = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == vertex_count


@dataclass(frozen=True)
class FiniteGraph:
    """Connected multigraph; loops and parallel edges allowed."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.vertex_count < 1:
            raise InputError("graph needs at least one vertex")
        object.__setattr__(
            self, "edges",
            tuple((min(u, v), max(u, v)) for u, v in self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise IndexOutOfRange(f"edge ({u},{v}) out of range")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.vertex_count:
                raise InputError("label count must match vertex count")
        if not _is_connected(self.vertex_count, self.edges):
            raise Disconnected("edge list does not connect all vertices")

    @property
    def edge_count(self):
        return len(self.edges)

    def valence(self, x):
        """Number of edge endpoints at x; a loop counts twice."""
        return sum((u == x) + (v == x) for u, v in self.edges)

    def genus(self):
        """First Betti number |E| - |V| + 1."""
        return len(self.edges) - self.vertex_count + 1

    @cached_property
    def neighbors(self):
        """Per-vertex neighbour tuples: one entry per non-loop edge end, so
        parallel edges repeat a neighbour and loops add nothing."""
        out = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            if u != v:
                out[u].append(v)
                out[v].append(u)
        return tuple(tuple(ys) for ys in out)

    @cached_property
    def laplacian(self):
        """Matrix with L*f = div(f): off-diagonal = non-loop multiplicity,
        diagonal = minus the number of non-loop endpoints."""
        n = self.vertex_count
        L = [[0] * n for _ in range(n)]
        for x, ys in enumerate(self.neighbors):
            L[x][x] = -len(ys)
            for y in ys:
                L[x][y] += 1
        return tuple(tuple(row) for row in L)

    @cached_property
    def laplacian_solver(self):
        """SmithSolver of the Laplacian, fed its sparse rows: built in
        O(V + E) from neighbors, with no n x n matrix."""
        return SmithSolver([{**Counter(ys), x: -len(ys)}
                            for x, ys in enumerate(self.neighbors)], self.vertex_count)

    @cached_property
    def bridges(self):
        """Set of edge indices whose removal disconnects the graph."""
        return frozenset(
            i for i in range(len(self.edges))
            if not _is_connected(self.vertex_count, self.edges[:i] + self.edges[i + 1:]))

    def label_of(self, x):
        if self.labels is not None:
            return self.labels[x]
        return f"v{x}"


def build_graph(vertex_count, edges, labels=None):
    """Validate and build a connected multigraph."""
    return FiniteGraph(vertex_count, tuple(tuple(e) for e in edges),
                       tuple(labels) if labels is not None else None)


def _of_ints(cls, ints):
    """cls(ints) for a tuple of ints built in this package: the same type as
    the public constructor gives, without its per-entry operator.index check.
    cls is Divisor or RationalFunction, whose one field __match_args__ names;
    setting it as __post_init__ does keeps the instance as small."""
    obj = object.__new__(cls)
    object.__setattr__(obj, cls.__match_args__[0], ints)
    return obj


@dataclass(frozen=True, order=True)
class Divisor:
    """Integer coefficients per vertex."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))

    @staticmethod
    def zero(n):
        return Divisor((0,) * n)

    @staticmethod
    def of(n, entries):
        """Divisor on n vertices from {vertex: coefficient}."""
        c = [0] * n
        for x, k in entries.items():
            if not 0 <= x < n:
                raise IndexOutOfRange(f"vertex {x} out of range")
            c[x] += k
        return Divisor(tuple(c))

    def degree(self):
        return sum(self.coeffs)

    def is_effective(self):
        return min(self.coeffs, default=0) >= 0

    def support(self):
        return frozenset(i for i, c in enumerate(self.coeffs) if c != 0)

    def __add__(self, other):
        self._match(other)
        return _of_ints(Divisor, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._match(other)
        return _of_ints(Divisor, tuple(map(sub, self.coeffs, other.coeffs)))

    def __rmul__(self, k):
        k = index(k)
        return _of_ints(Divisor, tuple(k * c for c in self.coeffs))

    def __neg__(self):
        return _of_ints(Divisor, tuple(-c for c in self.coeffs))

    def _match(self, other):
        if len(self.coeffs) != len(other.coeffs):
            raise SizeMismatch("divisors on different vertex sets")


@dataclass(frozen=True, order=True)
class RationalFunction:
    """Z-valued vertex labelling."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(index, self.values)))

    def normalized(self):
        """Representative of the constant-shift orbit with minimum value 0."""
        m = min(self.values)
        return _of_ints(RationalFunction, tuple(v - m for v in self.values))

    def shift(self, c):
        c = index(c)
        return _of_ints(RationalFunction, tuple(v + c for v in self.values))


def canonical_divisor(graph):
    """Coefficient val(x) - 2 at every vertex; loops count twice."""
    return Divisor(tuple(graph.valence(x) - 2 for x in range(graph.vertex_count)))


def genus(graph):
    return graph.genus()


def ord_and_div(graph, f):
    """div(f): at each x the sum of f(y) - f(x) over incident non-loop edges."""
    if len(f.values) != graph.vertex_count:
        raise SizeMismatch("function sized to a different graph")
    vals = f.values
    ords = [0] * graph.vertex_count
    for u, v in graph.edges:
        if u == v:
            continue
        d = vals[v] - vals[u]
        ords[u] += d
        ords[v] -= d
    return _of_ints(Divisor, tuple(ords))


def linear_equiv(graph, d1, d2):
    """Witness f with div(f) = d1 - d2, or None when no integer witness exists.

    Degree mismatch always returns None.  Returned witnesses are normalized
    to minimum value 0 (constants act trivially on div).
    """
    if len(d1.coeffs) != graph.vertex_count or len(d2.coeffs) != graph.vertex_count:
        raise SizeMismatch("divisor sized to a different graph")
    if d1.degree() != d2.degree():
        return None
    b = [a - c for a, c in zip(d1.coeffs, d2.coeffs)]
    x = graph.laplacian_solver.solve(b)
    if x is None:
        return None
    f = RationalFunction(tuple(x)).normalized()
    if ord_and_div(graph, f) != d1 - d2:
        raise CertificateError("Laplacian solve does not replay d1 - d2")
    return f
