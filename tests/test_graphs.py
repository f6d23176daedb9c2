import pytest

from tropdiv.errors import Disconnected, IndexOutOfRange, SizeMismatch
from tropdiv.graphs import (
    Divisor, RationalFunction, build_graph, canonical_divisor, genus,
    linear_equiv, ord_and_div)

from conftest import random_multigraph
from oracles import to_dot


def test_build_theta_valid(theta):
    assert theta.vertex_count == 2
    assert theta.edge_count == 3


def test_build_rejects_disconnected():
    with pytest.raises(Disconnected):
        build_graph(2, [])


def test_build_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        build_graph(2, [(0, 2)])


def test_canonical_divisor_theta(theta):
    assert canonical_divisor(theta) == Divisor((1, 1))


def test_canonical_divisor_loop_vertex():
    g = build_graph(1, [(0, 0)])
    assert canonical_divisor(g) == Divisor((0,))


def test_genus():
    assert genus(build_graph(2, [(0, 1)] * 3)) == 2
    tree = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    assert genus(tree) == 0


def test_ord_and_div_theta(theta):
    f = RationalFunction((0, -1))
    assert ord_and_div(theta, f) == Divisor((-3, 3))


def test_ord_and_div_constant(theta):
    assert ord_and_div(theta, RationalFunction((5, 5))) == Divisor((0, 0))


def test_ord_and_div_path(path3):
    f = RationalFunction((0, -1, -2))
    assert ord_and_div(path3, f) == Divisor((-1, 0, 1))


def test_ord_and_div_size_mismatch(theta):
    with pytest.raises(SizeMismatch):
        ord_and_div(theta, RationalFunction((0, 0, 0)))


def test_loops_do_not_contribute_to_orders():
    g = build_graph(2, [(0, 1), (0, 0), (1, 1)])
    f = RationalFunction((3, 7))
    assert ord_and_div(g, f) == Divisor((4, -4))


def test_linear_equiv_identity(theta):
    k = canonical_divisor(theta)
    w = linear_equiv(theta, k, k)
    assert w == RationalFunction((0, 0))


def test_linear_equiv_theta_obstruction(theta):
    # 2K = 2[p]+2[q] vs [p]+3[q]: would need 3 | 1
    k = canonical_divisor(theta)
    assert linear_equiv(theta, 2 * k, Divisor((1, 3))) is None


def test_linear_equiv_degree_mismatch(theta):
    assert linear_equiv(theta, Divisor((1, 0)), Divisor((1, 1))) is None


def test_laplacian_rows_sum_zero(rng):
    for _ in range(50):
        g = random_multigraph(rng)
        for row in g.laplacian:
            assert sum(row) == 0


def test_laplacian_applies_as_div(rng):
    for _ in range(100):
        g = random_multigraph(rng)
        f = RationalFunction(tuple(rng.randint(-6, 6) for _ in range(g.vertex_count)))
        lap_f = [sum(a * b for a, b in zip(row, f.values)) for row in g.laplacian]
        assert list(ord_and_div(g, f).coeffs) == lap_f


def test_div_has_degree_zero(rng):
    for _ in range(200):
        g = random_multigraph(rng)
        f = RationalFunction(tuple(rng.randint(-10, 10) for _ in range(g.vertex_count)))
        assert ord_and_div(g, f).degree() == 0


def test_canonical_degree_is_euler(rng):
    for _ in range(100):
        g = random_multigraph(rng)
        assert canonical_divisor(g).degree() == 2 * genus(g) - 2


def test_linear_equiv_recovers_principal_shifts(rng):
    for _ in range(100):
        g = random_multigraph(rng)
        f = RationalFunction(tuple(rng.randint(-5, 5) for _ in range(g.vertex_count)))
        d = Divisor(tuple(rng.randint(-3, 3) for _ in range(g.vertex_count)))
        w = linear_equiv(g, d + ord_and_div(g, f), d)
        assert w is not None
        assert ord_and_div(g, w) == ord_and_div(g, f)


def test_public_constructors_coerce_and_built_values_share_the_type(theta):
    # Divisor and RationalFunction turn every entry into an int; the values
    # the package builds from ints are the same types, equal and hashed alike
    d = Divisor((True, 2.0))
    f = RationalFunction((True, 2.0))
    assert d.coeffs == f.values == (1, 2)
    divisors = [d + d, d - d, -d, 3 * d, ord_and_div(theta, f)]
    functions = [f.normalized(), f.shift(2.0)]
    assert divisors == [Divisor((2, 4)), Divisor((0, 0)), Divisor((-1, -2)),
                        Divisor((3, 6)), Divisor((3, -3))]
    assert functions == [RationalFunction((0, 1)), RationalFunction((3, 4))]
    assert all(type(x) is Divisor and {type(c) for c in x.coeffs} == {int}
               for x in divisors + [d])
    assert all(type(x) is RationalFunction and {type(c) for c in x.values} == {int}
               for x in functions + [f])
    assert hash(divisors[0]) == hash(Divisor((2, 4))) and divisors[1] < divisors[0]


def test_bridges():
    # two triangles joined by one edge
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    assert g.bridges == frozenset({6})
    theta = build_graph(2, [(0, 1)] * 3)
    assert theta.bridges == frozenset()


def test_dot_output(theta):
    dot = to_dot(theta, divisor=canonical_divisor(theta), highlight=[0])
    assert dot.startswith("graph G {")
    assert "p [1]" in dot
