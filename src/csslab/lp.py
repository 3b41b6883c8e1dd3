"""Exact linear programming over the rationals.

Two-phase tableau simplex with Bland's anti-cycling rule.  Instances in this
project are tiny (tens of variables), so exactness is cheap and lets callers
certify optima instead of approximating them.  Coefficients may be given as
ints or ``Fraction``s (anything ``Fraction()`` accepts).

Canonical form solved here:

    minimize    c . x
    subject to  a_ub x <= b_ub
                a_eq x == b_eq
                x >= 0

The tableau's columns are x | slacks | artificials | rhs, one row per
constraint, and its last row is the objective, which every pivot eliminates
like any other row.  It is held fraction-free: integer entries over one
common denominator ``d > 0``, so that entry ``e`` stands for ``e / d``.  A
pivot is Bareiss's integer elimination step (Math. Comp. 1968), after which
``d`` is the magnitude of the pivot entry, i.e. of the basis determinant,
and every division in it is exact.  The constraint rows are scaled by the
least common denominator of all their entries and the objective by that of
``c``, which scales the slacks, the artificials and the objective by
positive constants and so keeps every entering column and leaving row of
the rational tableau.  Only the returned ``x`` and ``value`` are
``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None
    value: Fraction | None


def _scaled_to_integers(rows) -> tuple[int, list[list[int]]]:
    """(D, rows times D), D the entries' least common denominator; int rows come back as is."""
    if all(type(v) is int for row in rows for v in row):
        return 1, rows
    rows = [[v if type(v) is int else Fraction(v) for v in row] for row in rows]
    den = lcm(*(v.denominator for row in rows for v in row))
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in rows]


class _Tableau:
    """Integer tableau ``rows`` over the common denominator ``d``, with the
    basic column of each constraint row in ``basis``."""

    __slots__ = ("rows", "basis", "d")

    def __init__(self, rows, basis, d):
        self.rows, self.basis, self.d = rows, basis, d

    def pivot(self, row, col):
        tab, d = self.rows, self.d
        prow = tab[row]
        p = prow[col]
        if p < 0:
            p = -p
            prow = tab[row] = [-e for e in prow]
        for r, trow in enumerate(tab):
            if r == row:
                continue
            f = trow[col]
            if f:
                tab[r] = [(a * p - f * b) // d for a, b in zip(trow, prow)]
            elif p != d:
                tab[r] = [a * p // d for a in trow]
        self.basis[row] = col
        self.d = p

    def price_out(self):
        """Zero the objective row on the basic columns.  Each is d times a
        unit column of the constraint rows, so only the objective changes."""
        tab, d = self.rows, self.d
        obj = tab[-1]
        for r, col in enumerate(self.basis):
            f = obj[col]
            if f:
                obj = [a - f * b // d for a, b in zip(obj, tab[r])]
        tab[-1] = obj

    def run_simplex(self) -> bool:
        """Minimize the objective row in place; False if unbounded.  Bland's
        rule enters the lowest improving column; the leaving row has the least
        ratio, then the lowest basic column."""
        tab, basis = self.rows, self.basis
        while True:
            obj = tab[-1]
            for col, v in enumerate(obj[:-1]):
                if v < 0:
                    break
            else:
                return True
            best = None
            for r in range(len(basis)):
                a = tab[r][col]
                if a > 0:
                    rhs = tab[r][-1]
                    # rhs / a against the best rhs / a, both a > 0
                    if best is None or rhs * best_a < best_rhs * a or \
                            (rhs * best_a == best_rhs * a and basis[r] < basis[best]):
                        best, best_rhs, best_a = r, rhs, a
            if best is None:
                return False
            self.pivot(best, col)


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=False) -> LpResult:
    """Optimum of the canonical program above (``maximize`` flips the sense).

    Raises ``ValueError`` when a constraint row's length is not ``len(c)`` or
    a matrix and its right-hand side differ in length."""
    nx = len(c)
    a_ub, b_ub, a_eq, b_eq = list(a_ub), list(b_ub), list(a_eq), list(b_eq)
    for name, a, b in (("ub", a_ub, b_ub), ("eq", a_eq, b_eq)):
        if len(a) != len(b):
            raise ValueError(f"a_{name} has {len(a)} rows but b_{name} has {len(b)} entries")
        for row in a:
            if len(row) != nx:
                raise ValueError(f"a_{name} row of length {len(row)}, expected len(c) = {nx}")
    nub = len(a_ub)
    _, cons = _scaled_to_integers([[*a, b] for a, b in zip(a_ub + a_eq, b_ub + b_eq)])
    ncols = nx + nub
    nart = sum(r >= nub or row[-1] < 0 for r, row in enumerate(cons))
    # a row whose slack is absent or negated starts on its own artificial
    tab, basis, art = cons, [], ncols
    pad = [0] * (nub + nart)
    for r, row in enumerate(cons):
        row[-1:-1] = pad
        b = row[-1]
        slack = nx + r if r < nub else None
        if slack is not None:
            row[slack] = 1
        if b < 0:
            row = tab[r] = [-v for v in row]
        if slack is None or b < 0:
            slack, art = art, art + 1
            row[slack] = 1
        basis.append(slack)

    # phase 1: minimize the sum of the artificials
    tab.append([0] * ncols + [1] * nart + [0])
    t = _Tableau(tab, basis, 1)
    t.price_out()
    if not t.run_simplex() or t.rows[-1][-1]:
        return LpResult("infeasible", None, None)
    # drive leftover artificials out of the basis; rows where none can leave
    # are redundant and dropped
    for r, col in enumerate(t.basis):
        if col >= ncols:
            j = next((j for j in range(ncols) if t.rows[r][j]), None)
            if j is not None:
                t.pivot(r, j)
    keep = [r for r, col in enumerate(t.basis) if col < ncols]
    sign = -1 if maximize else 1
    cden, (cint,) = _scaled_to_integers([c])
    t.rows = [t.rows[r][:ncols] + t.rows[r][-1:] for r in keep]
    t.rows.append([sign * t.d * v for v in cint] + [0] * (ncols - nx + 1))
    t.basis = [t.basis[r] for r in keep]

    # phase 2: minimize (sign * c) . x
    t.price_out()
    if not t.run_simplex():
        return LpResult("unbounded", None, None)
    x = [ZERO] * nx
    for r, col in enumerate(t.basis):
        if col < nx:
            x[col] = Fraction(t.rows[r][-1], t.d)
    return LpResult("optimal", tuple(x), Fraction(-sign * t.rows[-1][-1], t.d * cden))


def lp_feasible(a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> tuple[Fraction, ...] | None:
    """Feasible point of the system (x >= 0 implied) or None.  The variable
    count is the length of the first row, so the system needs at least one:
    ``ValueError`` otherwise."""
    rows = [*a_ub, *a_eq]
    if not rows:
        raise ValueError("lp_feasible needs a constraint row to fix the variable count")
    res = solve_lp([0] * len(rows[0]), a_ub, b_ub, a_eq, b_eq)
    return res.x if res.status == "optimal" else None
