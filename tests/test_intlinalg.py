import itertools
import random
import signal
from fractions import Fraction
from math import gcd

import pytest

from tropdiv.graphs import build_graph
from tropdiv.intlinalg import (SmithSolver, frac_nullspace, frac_rank, frac_solve,
                               smith_normal_form)
from tropdiv.metric import MetricDivisor, Refinement
from tropdiv.witness import complete_graph_instance

from conftest import random_multigraph
from oracles import dense_smith_form, det, in_image, mat_vec, rank_by_minors


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def random_matrix(rng, m, n, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def random_matrices(rng, count=60):
    """Rectangular integer matrices, a third of them rank-deficient products."""
    out = []
    for i in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        if i % 3 == 0:
            r = rng.randint(0, min(m, n) - 1)
            out.append(mat_mul(random_matrix(rng, m, r, -2, 2),
                               random_matrix(rng, r, n, -2, 2))
                       if r else [[0] * n for _ in range(m)])
        else:
            out.append(random_matrix(rng, m, n))
    return out


def minor_gcd(A, r):
    """gcd of the r x r minors: the covolume of the column lattice of a rank-r A."""
    g = 0
    for rows in itertools.combinations(range(len(A)), r):
        for cols in itertools.combinations(range(len(A[0])), r):
            g = gcd(g, det([[A[i][j] for j in cols] for i in rows]))
    return g


def in_column_lattice(A, b):
    """Independent oracle: b is an integer combination of A's columns iff
    appending b changes neither the rank nor the gcd of the maximal minors."""
    Ab = [row + [x] for row, x in zip(A, b)]
    r = rank_by_minors(A)
    return rank_by_minors(Ab) == r and minor_gcd(A, r) == minor_gcd(Ab, r)


def densified(A, factors):
    """smith_normal_form's (U's row-operation log, diagonal, V columns) as
    dense (U, S, V) lists, U read off the log row by row, after checking
    that V's dicts store no zero entry."""
    U, diag, V = factors
    m, n = len(A), len(A[0])
    assert len(U.order) == m and len(V) == n and len(diag) == min(m, n)
    assert all(a != 0 for entries in V for a in entries.values())
    return ([U.row(i) for i in range(m)],
            [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)],
            [[col.get(i, 0) for col in V] for i in range(n)])


def checked_smith_form(A):
    """Smith-factor A, check that the factors equal the dense oracle's entry
    for entry and U*A*V = S with S a nonnegative divisibility chain, and
    return (U, V, diagonal of S)."""
    m, n = len(A), len(A[0])
    U, S, V = densified(A, smith_normal_form(A))
    assert (U, S, V) == dense_smith_form(A)
    assert mat_mul(mat_mul(U, A), V) == S
    diag = [S[i][i] for i in range(min(m, n))]
    assert all(S[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    return U, V, diag


def test_smith_normal_form_invariants(rng):
    for A in random_matrices(rng):
        U, V, _ = checked_smith_form(A)
        assert abs(det(U)) == 1 and abs(det(V)) == 1


NON_UNITS = [0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9, 12, -12]


def test_smith_normal_form_without_unit_entries(rng):
    # no entry is +-1, so every pivot goes through the least-|a| search, the
    # remainder loop and the divisibility fix-up
    seen = set()
    for i in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(m, n) - 1)
        if i % 3 == 0 and r:
            A = mat_mul([[rng.choice(NON_UNITS) for _ in range(r)] for _ in range(m)],
                        [[rng.choice(NON_UNITS) for _ in range(n)] for _ in range(r)])
        else:
            A = [[rng.choice(NON_UNITS) for _ in range(n)] for _ in range(m)]
        U, V, diag = checked_smith_form(A)
        assert abs(det(U)) == 1 and abs(det(V)) == 1
        # independent identity: d_1 * ... * d_k is the gcd of the k x k minors
        product = 1
        for k, d in enumerate(diag, start=1):
            if d == 0:
                break
            product *= d
            assert product == minor_gcd(A, k)
        seen.update(d for d in diag if d > 1)
    assert len(seen) > 5


def refined_graph(n, offset):
    """The model of K_n refined to the grid of the point at offset on edge 0."""
    graph = complete_graph_instance(n).graph
    r = MetricDivisor.of(graph, {graph.point(0, offset): 1})
    return Refinement(graph, [r]).graph


def refined_k4_laplacian():
    # the K_4 s=2 obstruction rows live on the 1/15 grid: 4 + 6*14 vertices
    return refined_graph(4, Fraction(8, 15)).laplacian


def test_smith_normal_form_of_refined_laplacian():
    A = refined_k4_laplacian()
    assert len(A) == 88
    _, _, diag = checked_smith_form(A)
    assert [d for d in diag if d != 1] == [15, 60, 60, 0]


def test_sparse_factors_match_the_dense_oracle(rng):
    shapes = [[[rng.randint(-4, 4) for _ in range(n)]] for n in range(1, 8)]
    shapes += [[[rng.randint(-4, 4)] for _ in range(m)] for m in range(1, 8)]
    shapes += [[[0] * n for _ in range(m)] for m in (1, 3, 6) for n in (1, 4, 7)]
    shapes += [[[rng.choice(NON_UNITS) for _ in range(n)] for _ in range(m)]
               for m, n in [(1, 5), (5, 1), (7, 7), (6, 3)]]
    for A in shapes + random_matrices(rng, 300):
        checked_smith_form(A)


def test_smith_normal_form_leaves_its_argument_unchanged(rng):
    for A in random_matrices(rng) + [refined_k4_laplacian()]:
        rows = tuple(map(tuple, A))
        copy = [list(row) for row in A]
        assert smith_normal_form(rows) == smith_normal_form(copy)
        assert rows == tuple(map(tuple, A)) and copy == [list(row) for row in A]


def graph_models():
    """Refined K_4 and K_5 models, random multigraphs with loops and
    parallel edges, and the one-vertex loop graph."""
    rng = random.Random(20240309)
    graphs = [refined_graph(4, Fraction(8, 15)), refined_graph(5, Fraction(1, 3)),
              refined_graph(5, Fraction(2, 39)), build_graph(1, [(0, 0)])]
    graphs += [random_multigraph(rng, max_vertices=7, max_extra=6) for _ in range(40)]
    assert any(len(set(g.edges)) < len(g.edges) for g in graphs)
    assert any(u == v for g in graphs for u, v in g.edges)
    return graphs


def sparse_rows(rng, A):
    """A's rows as {column: entry} dicts in shuffled column order, some
    zero entries stored."""
    rows = []
    for row in A:
        keys = [j for j, a in enumerate(row) if a or rng.random() < 0.2]
        rng.shuffle(keys)
        rows.append({j: row[j] for j in keys})
    return rows


def test_dict_rows_give_the_dense_factors(rng):
    # equal logs, diagonals and V columns; small matrices also against the
    # dense oracle entry for entry, and U*A*V = S
    matrices = random_matrices(rng, 200) + [
        [[rng.choice(NON_UNITS) for _ in range(n)] for _ in range(m)]
        for m, n in [(1, 5), (5, 1), (7, 7), (6, 3), (4, 6)]]
    graphs = graph_models()
    for A in matrices + [g.laplacian for g in graphs]:
        m, n = len(A), len(A[0])
        factors = smith_normal_form(sparse_rows(rng, A), n)
        assert factors == smith_normal_form(A)
        if m <= 100:
            U, S, V = densified(A, factors)
            assert (U, S, V) == dense_smith_form(A)
            assert mat_mul(mat_mul(U, A), V) == S
    assert max(len(g.laplacian) for g in graphs) == 385


def test_row_ops_apply_is_U_times_b(rng):
    graphs = graph_models()
    for A in random_matrices(rng, 120) + [g.laplacian for g in graphs[:2]]:
        U = smith_normal_form(A)[0]
        dense = [U.row(i) for i in range(len(A))]
        for _ in range(3):
            b = [rng.randint(-5, 5) for _ in A]
            copy = list(b)
            assert U.apply(b) == mat_vec(dense, b)
            assert b == copy


def test_laplacian_solver_from_sparse_rows_matches_the_dense_laplacian(rng):
    seen = set()
    for g in graph_models():
        n = g.vertex_count
        fast, dense = g.laplacian_solver, SmithSolver(g.laplacian)
        assert (fast.diag, fast.rank, fast.cokernel_rows) == \
            (dense.diag, dense.rank, dense.cokernel_rows)
        for _ in range(8):
            b = [0] * n
            for _ in range(rng.randint(0, 3)):
                b[rng.randrange(n)] += rng.choice((1, -1, 2))
            if rng.random() < 0.5:
                b = mat_vec(g.laplacian, [rng.randint(-3, 3) for _ in range(n)])
            x = fast.solve(b)
            assert x == dense.solve(b)
            assert in_image(fast, b) == in_image(dense, b) == (x is not None)
            if x is not None:
                assert mat_vec(g.laplacian, x) == b
            seen.add(x is not None)
    assert seen == {True, False}


def test_dict_rows_are_left_unmutated_and_type_checked():
    rows = ({2: 1, 0: -1, 1: 0}, {0: 2, 2: -4})
    copy = tuple(dict(row) for row in rows)
    assert smith_normal_form(rows, 3) == smith_normal_form([[-1, 0, 1], [2, 0, -4]])
    assert rows == copy and [list(row) for row in rows] == [[2, 0, 1], [0, 2]]
    for bad in ({0: 1, 1: Fraction(1, 2)}, {0: 1.0}, {1: 0.0}, {0: True}):
        with pytest.raises(TypeError, match="int entries"):
            smith_normal_form([{0: 1}, bad], 2)
    for bad in ({2: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="column"):
            smith_normal_form([{0: 1}, bad], 2)
    # dense rows have every entry checked, zeros included
    with pytest.raises(TypeError, match="int entries"):
        smith_normal_form([[1, 0.0]])


def oracle_solve(A, b):
    """V*(U*b/s) from the dense oracle's factors, or None when some entry
    of U*b is not divisible by its invariant factor (0 past the rank)."""
    U, S, V = dense_smith_form(A)
    c = mat_vec(U, b)
    r = sum(1 for i in range(min(len(A), len(A[0]))) if S[i][i])
    if any(c[i] % S[i][i] for i in range(r)) or any(c[r:]):
        return None
    return mat_vec(V, [c[i] // S[i][i] for i in range(r)] + [0] * (len(A[0]) - r))


def test_solve_is_the_oracle_formula(rng):
    cases = [(A, [rng.randint(-3, 3) for _ in A[0]]) for A in random_matrices(rng, 120)]
    L = refined_k4_laplacian()
    cases += [(L, [rng.choice((0, 0, 0, 1, -1, 2)) for _ in L]) for _ in range(4)]
    seen = set()
    for A, x in cases:
        solver = SmithSolver(A)
        b = mat_vec(A, x)
        if rng.random() < 0.5:
            b[rng.randrange(len(A))] += rng.randint(1, 3)
        got = solver.solve(b)
        assert got == oracle_solve(A, b)
        assert in_image(solver, b) == (got is not None)
        seen.add(got is not None)
    assert seen == {True, False}


def test_image_test_agrees_with_solve_and_lattice_oracle(rng):
    seen = set()
    for A in random_matrices(rng):
        m, n = len(A), len(A[0])
        solver = SmithSolver(A)
        assert all(d != 1 for _, d in solver.cokernel_rows)
        for _ in range(6):
            b = mat_vec(A, [rng.randint(-3, 3) for _ in range(n)])
            if rng.random() < 0.5:
                b[rng.randrange(m)] += rng.randint(1, 3)
            member = in_image(solver, b)
            x = solver.solve(b)
            assert member == (x is not None) == in_column_lattice(A, b)
            if x is not None:
                assert mat_vec(A, x) == b
            seen.add(member)
    assert seen == {True, False}


def test_frac_rank_nullity(rng):
    # rank and nullity against the minors oracle, not against the Smith form
    for A in random_matrices(rng):
        n = len(A[0])
        null = frac_nullspace(A, n)
        assert frac_rank(A) == rank_by_minors(A)
        assert rank_by_minors(A) + len(null) == n
        assert rank_by_minors(null) == len(null)
        for v in null:
            assert all(x == 0 for x in mat_vec(A, v))
    assert frac_rank([]) == 0
    assert frac_nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def assert_primitive_integer_vectors(vectors):
    # the kernel columns of a unimodular V: integers with gcd 1
    for v in vectors:
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1


def test_frac_nullspace_vectors_are_primitive_integer_vectors(rng):
    nulls = [frac_nullspace(A, len(A[0])) for A in random_matrices(rng)]
    assert sum(map(len, nulls)) > 20
    for null in nulls:
        assert_primitive_integer_vectors(null)


def test_frac_elimination_returns_on_a_rational_5x5(rng):
    # smith_normal_form need not return on Fraction entries, so it refuses
    # them and the frac_* helpers must scale rows to integers first; the
    # alarm turns a hang into a failure
    def timeout(signum, frame):
        raise TimeoutError("elimination did not return on a rational 5 x 5")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        for i in range(6):
            A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(5)]
                 for _ in range(5)]
            if i % 2:
                A[4] = [a - Fraction(2, 3) * c for a, c in zip(A[0], A[1])]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(5)]
            with pytest.raises(TypeError, match="int entries"):
                smith_normal_form(A)
            r = frac_rank(A)
            null = frac_nullspace(A, 5)
            x = frac_solve(A, b)
            assert r == rank_by_minors(A) == 5 - len(null)
            assert_primitive_integer_vectors(null)
            assert all(c == 0 for v in null for c in mat_vec(A, v))
            assert (x is not None) == (rank_by_minors([row + [y] for row, y in zip(A, b)]) == r)
            if x is not None:
                assert mat_vec(A, x) == b
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_frac_solve(rng):
    seen = set()
    for A in random_matrices(rng):
        m, n = len(A), len(A[0])
        b = mat_vec(A, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
        if rng.random() < 0.5:
            b[rng.randrange(m)] += 1
        x = frac_solve(A, b)
        consistent = rank_by_minors([row + [y] for row, y in zip(A, b)]) == rank_by_minors(A)
        assert (x is not None) == consistent
        if x is not None:
            assert mat_vec(A, x) == b
        seen.add(consistent)
    assert seen == {True, False}
    assert frac_solve([[1, 2], [2, 4]], [1, 3]) is None
