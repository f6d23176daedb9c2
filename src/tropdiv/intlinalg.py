"""Exact integer and rational linear algebra.

Everything here works over Python ints / Fractions; no floating point.
The Smith form is the one elimination: it drives integer solvability tests
(lattice membership), witness recovery for linear equivalence of divisors,
and the rational rank, kernel and solves of the frac_* helpers.  It works
on sparse rows, returns V as sparse columns and U as the log of its row
operations, so eliminations and solves cost about the entries they touch,
not n^2 per pivot or per solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count
from math import lcm


def _axpy(dst, src, q, rows_in=None, r=None):
    """dst -= q * src on {index: entry} dicts, storing only non-zero entries.

    With rows_in given, dst is row r of S, and rows_in[c] stays the set of
    rows of S that are non-zero in column slot c.
    """
    for c, b in src.items():
        a = dst.get(c, 0) - q * b
        if a:
            dst[c] = a
            if rows_in is not None:
                rows_in[c].add(r)
        elif c in dst:
            del dst[c]
            if rows_in is not None:
                rows_in[c].discard(r)


@dataclass(frozen=True)
class RowOps:
    """The unimodular U of a Smith form, kept as the row operations that
    built it rather than as a matrix.

    Starting from the identity on the input rows, each (t, s, q) in ops
    subtracted q times row s from row t; then row i of U is signs[i] times
    the row that started as input row order[i].  A Laplacian's elimination
    makes a few row operations per row while U itself fills in, so replaying
    the log costs about the operations, not U's non-zeros.
    """

    ops: tuple[tuple[int, int, int], ...]
    order: tuple[int, ...]
    signs: tuple[int, ...]

    def apply(self, b):
        """U*b as a list: the operations replayed on a copy of b."""
        y = list(b)
        for t, s, q in self.ops:
            if y[s]:
                y[t] -= q * y[s]
        return [sign * y[r] for sign, r in zip(self.signs, self.order)]

    def row(self, i):
        """Row i of U as a dense list: e_i^T U, its operations undone last first."""
        w = [0] * len(self.order)
        w[self.order[i]] = self.signs[i]
        for t, s, q in reversed(self.ops):
            if w[t]:
                w[s] -= q * w[t]
        return w


def smith_normal_form(A, n=None):
    """Return (U, diag, V) with U*A*V = S, U and V unimodular, S diagonal.

    A is a sequence of m int rows, or, with the column count n given, of m
    {column: int} dicts of a sparse matrix's entries.  Either form of one
    matrix gives the same factors: S is built from the rows in ascending
    column order, its zero entries dropped.  U is a RowOps log, V is its n
    columns, each a {index: entry} dict of the non-zero entries, and diag is
    the min(m, n) diagonal entries of S.  They are nonnegative and each
    divides the next; past the rank they are 0.

    Each pivot is the first entry (row-major) of least absolute value in the
    remaining block.  A unit pivot needs no divisibility sweep.  Rows of S
    are dicts keyed by column slot: slot[j] is the slot now at column j and
    at[c] the column of slot c, so a column swap is two swapped slots, and
    V's columns ride along with the slots.  rows_in[c] holds the rows
    non-zero in slot c, so clearing the pivot's column and then its row
    touches only the entries those operations change.  Graph Laplacians
    have almost only unit invariant factors, and a subdivided one about
    three non-zeros a row.

    Entries must be int: with Fraction entries the remainders need not reach
    zero, so the loop need not end; anything else raises TypeError.  Dense
    rows have every entry checked, zeros included, and dict rows every
    stored entry; a dict column outside range(n) raises ValueError.
    """
    m = len(A)
    if n is None:
        n = len(A[0]) if m else 0
        entries = chain.from_iterable(A)
        S = [dict(zip(compress(count(), row), filter(None, row))) for row in A]
    else:
        entries = chain.from_iterable(map(dict.values, A))
        S = [{c: row[c] for c in sorted(row) if row[c]} for row in A]
    if not set(map(type, entries)) <= {int}:
        raise TypeError("smith_normal_form takes int entries only")
    if not all(0 <= c < n for row in S for c in row):
        raise ValueError("smith_normal_form: column index out of range")
    # order[i] is the input row r now at row i; S[r] moves with it.  Each row
    # operation on S is logged as (target, source, multiplier) for U
    ops = []
    V = [{c: 1} for c in range(n)]
    rows_in = [set() for _ in range(n)]
    for r, row in enumerate(S):
        for c in row:
            rows_in[c].add(r)
    order = list(range(m))
    slot = list(range(n))
    at = list(range(n))
    t = 0
    while t < min(m, n):
        # rows from t on vanish left of column t.  A unit is always of least
        # absolute value: stop at the first row that holds one
        pivot = None
        for i in range(t, m):
            units = [at[c] for c, a in S[order[i]].items() if a == 1 or a == -1]
            if units:
                pivot = i, min(units)
                break
        if pivot is None:
            least = min(((abs(a), i, at[c]) for i in range(t, m)
                         for c, a in S[order[i]].items()), default=None)
            if least is None:
                break
            pivot = least[1:]
        pi, pj = pivot
        order[t], order[pi] = order[pi], order[t]
        if pj != t:
            slot[t], slot[pj] = slot[pj], slot[t]
            at[slot[t]], at[slot[pj]] = t, pj
        pr, pc = order[t], slot[t]
        top = S[pr]
        p = top[pc]
        dirty = False
        for r in [r for r in rows_in[pc] if r != pr]:
            q = S[r][pc] // p
            if q:
                _axpy(S[r], top, q, rows_in, r)
                ops.append((r, pr, q))
            dirty = dirty or pc in S[r]
        # column t stays fixed while it is added to the others, so only the
        # rows non-zero in it change; once it is clear that is row t of S
        srows = list(rows_in[pc])
        for c, a in list(top.items()):
            if c != pc:
                q = a // p
                for r in srows:
                    _axpy(S[r], {c: S[r][pc]}, q, rows_in, r)
                _axpy(V[c], V[pc], q)
                dirty = dirty or c in top
        if dirty:
            continue  # remainders left behind become smaller pivots
        if abs(p) != 1:
            # a non-unit pivot must divide the rest of the block
            offender = next((r for r in order[t + 1:]
                             if any(a % p for a in S[r].values())), None)
            if offender is not None:
                _axpy(top, S[offender], -1, rows_in, pr)
                ops.append((pr, offender, -1))
                continue
        t += 1

    diag = [S[order[i]].get(slot[i], 0) for i in range(min(m, n))]
    signs = tuple(-1 if d < 0 else 1 for d in diag) + (1,) * (m - len(diag))
    U = RowOps(tuple(ops), tuple(order), signs)
    return U, [abs(d) for d in diag], [V[c] for c in slot]


def _combine(coeffs, columns, n):
    """sum of coeffs[i] * columns[i] as a length-n list, reading only the
    stored entries of the columns with a non-zero coefficient."""
    x = [0] * n
    for y, col in zip(coeffs, columns):
        if y:
            for k, v in col.items():
                x[k] += y * v
    return x


class SmithSolver:
    """Caches the Smith form of an integer matrix to answer Ax = b queries.

    A is given as smith_normal_form takes it: int rows, or {column: int}
    rows with the column count n.  With U A V = S, b lies in the image of A
    exactly when U b is divisible entrywise by the diagonal of S (a zero
    entry must meet a zero).  Rows of U whose invariant factor is 1 impose
    nothing, so ``cokernel_rows`` keeps the others as (row, modulus) pairs,
    the row a dense list read off the row-operation log and the modulus the
    invariant factor, or 0 for the rows past the rank.  A solve replays the
    log on b to get U b and combines the columns of V with y_i != 0.
    Nothing n x n is built: a Laplacian's elimination logs a few operations
    a row, and V stays sparse columns.
    """

    def __init__(self, A, n=None):
        self.m = len(A)
        self.U_ops, self.diag, self.V = smith_normal_form(A, n)
        self.n = len(self.V)
        self.rank = sum(1 for d in self.diag if d != 0)
        moduli = self.diag[:self.rank] + [0] * (self.m - self.rank)
        self.cokernel_rows = tuple((self.U_ops.row(i), d)
                                   for i, d in enumerate(moduli) if d != 1)

    def _check_length(self, b):
        if len(b) != self.m:
            raise ValueError("right-hand side has wrong length")

    def in_image(self, b):
        """Whether A x = b has an integer solution."""
        self._check_length(b)
        support = [(j, x) for j, x in enumerate(b) if x]
        for row, d in self.cokernel_rows:
            c = sum(row[j] * x for j, x in support)
            if (c % d if d else c) != 0:
                return False
        return True

    def solve(self, b):
        """Return integer x with A x = b, or None when no integer solution exists."""
        self._check_length(b)
        c = self.U_ops.apply(b)
        r = self.rank
        s = self.diag[:r]
        if any(c[r:]) or any(ci % d for ci, d in zip(c, s)):
            return None
        return _combine([ci // d for ci, d in zip(c, s)], self.V, self.n)


def _integer_rows(rows):
    """Each row times the lcm of its denominators.

    Scaling rows keeps the rank and the kernel, and keeps the solutions when
    the right-hand side rides along as a column.  smith_normal_form takes
    int entries only.
    """
    dens = (lcm(*(x.denominator for x in row)) for row in rows)
    return [[int(x * d) for x in row] for row, d in zip(rows, dens)]


def _rank(diag):
    return sum(1 for d in diag if d)


def frac_rank(rows):
    """Rank over the rationals: the non-zero invariant factors of the Smith form."""
    return _rank(smith_normal_form(_integer_rows(rows))[1]) if rows else 0


def frac_nullspace(rows, n):
    """Basis of {x : A x = 0} over the rationals; rows may be empty.

    With U A V = S, the columns of V past the rank span the kernel.  V is
    unimodular, so they are a basis of the integer kernel lattice, each a
    primitive integer vector.
    """
    _, diag, V = smith_normal_form(_integer_rows(rows) or [[0] * n])
    return [[col.get(i, 0) for i in range(n)] for col in V[_rank(diag):]]


def frac_solve(A, b):
    """Solve A x = b over the rationals; None if inconsistent.

    With U A V = S (each row and its entry of b scaled to integers alike),
    A x = b is solvable exactly when U b vanishes past the rank r, and
    x = V (U b / s) is one solution, its entries of U b / s past r set to 0.
    """
    n = len(A[0]) if A else 0
    Ab = _integer_rows([list(row) + [y] for row, y in zip(A, b)])
    U, diag, V = smith_normal_form([row[:n] for row in Ab] or [[0] * n])
    c = U.apply([row[n] for row in Ab])
    r = _rank(diag)
    if any(c[r:]):
        return None
    return _combine([Fraction(c[i], diag[i]) for i in range(r)], V, n)
