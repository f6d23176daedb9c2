"""Exact integer and rational linear algebra.

Everything here works over Python ints / Fractions; no floating point.
The Smith form is the one elimination: it drives integer solvability tests
(lattice membership), witness recovery for linear equivalence of divisors,
and the rational rank, kernel and solves of the frac_* helpers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def smith_normal_form(A):
    """Return (U, S, V) with U*A*V = S, U and V unimodular, S diagonal.

    The diagonal entries are nonnegative and each divides the next.

    Each pivot is the first entry (row-major) of least absolute value in the
    remaining block.  A unit pivot needs no divisibility sweep, and clearing
    its row touches only the rows of S and V that are non-zero in its column.
    Graph Laplacians have almost only unit invariant factors, so most pivots
    cost the entries they change rather than a scan of the block.

    Entries must be int: with Fraction entries the remainders need not reach
    zero, so the loop need not end; anything else raises TypeError.
    """
    if not set(map(type, chain.from_iterable(A))) <= {int}:
        raise TypeError("smith_normal_form takes int entries only")
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
        # column t stays fixed while it is added to the others, so only the
        # rows non-zero in it change; once it is clear that is row t of S
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
            continue  # remainders left behind become smaller pivots
        if abs(p) != 1:
            # a non-unit pivot must divide the rest of the block
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


class SmithSolver:
    """Caches the Smith form of an integer matrix to answer Ax = b queries.

    With U A V = S, b lies in the image of A exactly when U b is divisible
    entrywise by the diagonal of S (a zero entry must meet a zero).  Rows of
    U whose invariant factor is 1 impose nothing, so ``cokernel_rows`` keeps
    the others as (row, modulus) pairs, the modulus being the invariant
    factor, or 0 for the rows past the rank.
    """

    def __init__(self, A):
        self.m = len(A)
        self.n = len(A[0]) if self.m else 0
        self.U, S, self.V = smith_normal_form(A)
        self.diag = [S[i][i] for i in range(min(self.m, self.n))]
        self.rank = sum(1 for d in self.diag if d != 0)
        moduli = self.diag[:self.rank] + [0] * (self.m - self.rank)
        self.cokernel_rows = tuple((self.U[i], d) for i, d in enumerate(moduli) if d != 1)

    def in_image(self, b):
        """Whether A x = b has an integer solution."""
        if len(b) != self.m:
            raise ValueError("right-hand side has wrong length")
        for row, d in self.cokernel_rows:
            c = sum(a * x for a, x in zip(row, b))
            if (c % d if d else c) != 0:
                return False
        return True

    def solve(self, b):
        """Return integer x with A x = b, or None when no integer solution exists."""
        if not self.in_image(b):
            return None
        y = [c // d for c, d in zip(mat_vec(self.U[:self.rank], b), self.diag)]
        return mat_vec(self.V, y + [0] * (self.n - self.rank))


def _integer_rows(rows):
    """Each row times the lcm of its denominators.

    Scaling rows keeps the rank and the kernel, and keeps the solutions when
    the right-hand side rides along as a column.  smith_normal_form takes
    int entries only.
    """
    dens = (lcm(*(x.denominator for x in row)) for row in rows)
    return [[int(x * d) for x in row] for row, d in zip(rows, dens)]


def _rank(S):
    return sum(1 for i in range(min(len(S), len(S[0]))) if S[i][i])


def frac_rank(rows):
    """Rank over the rationals: the non-zero invariant factors of the Smith form."""
    return _rank(smith_normal_form(_integer_rows(rows))[1]) if rows else 0


def frac_nullspace(rows, n):
    """Basis of {x : A x = 0} over the rationals; rows may be empty.

    With U A V = S, the columns of V past the rank span the kernel.  V is
    unimodular, so they are a basis of the integer kernel lattice, each a
    primitive integer vector.
    """
    _, S, V = smith_normal_form(_integer_rows(rows) or [[0] * n])
    return [[row[j] for row in V] for j in range(_rank(S), n)]


def frac_solve(A, b):
    """Solve A x = b over the rationals; None if inconsistent.

    With U A V = S (each row and its entry of b scaled to integers alike),
    A x = b is solvable exactly when U b vanishes past the rank r, and
    x = V (U b / s) is one solution, its entries of U b / s past r set to 0.
    """
    n = len(A[0]) if A else 0
    Ab = _integer_rows([list(row) + [y] for row, y in zip(A, b)])
    U, S, V = smith_normal_form([row[:n] for row in Ab] or [[0] * n])
    c = mat_vec(U, [row[n] for row in Ab])
    r = _rank(S)
    if any(c[r:]):
        return None
    return mat_vec(V, [Fraction(c[i], S[i][i]) for i in range(r)] + [0] * (n - r))
