"""Exact integer and rational linear algebra.

Everything here works over Python ints / Fractions; no floating point.
The Smith form drives integer solvability tests (lattice membership) and
witness recovery for linear equivalence of divisors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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


def _gauss_jordan(rows, ncols):
    """Reduced row echelon form over the rationals, pivoting in the first ncols columns.

    Returns (M, pivots): M is the reduced copy of rows as Fractions, in which
    row r < len(pivots) has a 1 in column pivots[r] and every other row a 0
    there, and the rows past len(pivots) vanish in the first ncols columns.
    Columns past ncols (an augmented right-hand side) are carried along.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    m = len(M)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][col]
        M[r] = [a * inv for a in M[r]]
        for i in range(m):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(col)
    return M, pivots


def frac_rank(rows):
    """Rank of a matrix over the rationals (Gaussian elimination, exact)."""
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def frac_nullspace(rows, n):
    """Basis of {x : A x = 0} over the rationals; rows may be empty."""
    M, pivots = _gauss_jordan(rows, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        basis.append(v)
    return basis


def primitive_integer_vector(v):
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    lcm = 1
    for x in v:
        f = Fraction(x)
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(Fraction(x) * lcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def frac_solve(A, b):
    """Solve A x = b over the rationals; None if inconsistent.

    A square or rectangular; returns one solution with free variables at 0.
    """
    n = len(A[0]) if A else 0
    M, pivots = _gauss_jordan([list(row) + [bb] for row, bb in zip(A, b)], n)
    if any(row[n] != 0 for row in M[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = M[r][n]
    return x

