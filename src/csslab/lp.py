"""Exact linear programming over the rationals.

Two-phase tableau simplex with Bland's anti-cycling rule, every entry a
``fractions.Fraction``.  Instances in this project are tiny (tens of
variables), so exactness is cheap and lets callers certify optima instead of
approximating them.  Coefficients may be given as ints or ``Fraction``s; they
are converted on entry.

Canonical form solved here:

    minimize    c . x
    subject to  a_ub x <= b_ub
                a_eq x == b_eq
                x >= 0

The tableau's columns are x | slacks | artificials | rhs, one row per
constraint, and its last row is the objective, which every pivot eliminates
like any other row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None
    value: Fraction | None


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    if piv != 1:
        tab[row] = [e / piv for e in tab[row]]
    prow = tab[row]
    for r, trow in enumerate(tab):
        f = trow[col]
        if f and r != row:
            tab[r] = [a - f * b for a, b in zip(trow, prow)]
    basis[row] = col


def _price_out(tab, basis):
    """Zero the objective row on the basic columns."""
    for r, col in enumerate(basis):
        _pivot(tab, basis, r, col)


def _run_simplex(tab, basis) -> bool:
    """Minimize the objective row in place; False if unbounded.  Bland's rule
    enters the lowest improving column; the leaving row has the least ratio,
    then the lowest basic column."""
    while True:
        col = next((j for j, v in enumerate(tab[-1][:-1]) if v < 0), None)
        if col is None:
            return True
        rows = [r for r in range(len(basis)) if tab[r][col] > 0]
        if not rows:
            return False
        _pivot(tab, basis, min(rows, key=lambda r: (tab[r][-1] / tab[r][col], basis[r])), col)


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=False) -> LpResult:
    nx = len(c)
    ub = list(zip(a_ub, b_ub))
    rows = [(a, b, nx + i) for i, (a, b) in enumerate(ub)]
    rows += [(a, b, None) for a, b in zip(a_eq, b_eq)]
    ncols = nx + len(ub)
    nart = sum(slack is None or b < 0 for _, b, slack in rows)
    # a row whose slack is absent or negated starts on its own artificial
    tab, basis, art = [], [], ncols
    for a, b, slack in rows:
        row = [Fraction(v) for v in a] + [ZERO] * (len(ub) + nart) + [Fraction(b)]
        if slack is not None:
            row[slack] = ONE
        if b < 0:
            row = [-v for v in row]
        if slack is None or b < 0:
            slack, art = art, art + 1
            row[slack] = ONE
        tab.append(row)
        basis.append(slack)

    # phase 1: minimize the sum of the artificials
    tab.append([ZERO] * ncols + [ONE] * nart + [ZERO])
    _price_out(tab, basis)
    if not _run_simplex(tab, basis) or tab[-1][-1]:
        return LpResult("infeasible", None, None)
    # drive leftover artificials out of the basis; rows where none can leave
    # are redundant and dropped
    for r, col in enumerate(basis):
        if col >= ncols:
            j = next((j for j in range(ncols) if tab[r][j]), None)
            if j is not None:
                _pivot(tab, basis, r, j)
    keep = [r for r, col in enumerate(basis) if col < ncols]
    sign = -1 if maximize else 1
    tab = [tab[r][:ncols] + tab[r][-1:] for r in keep]
    tab.append([sign * Fraction(v) for v in c] + [ZERO] * (ncols - nx + 1))
    basis = [basis[r] for r in keep]

    # phase 2: minimize (sign * c) . x
    _price_out(tab, basis)
    if not _run_simplex(tab, basis):
        return LpResult("unbounded", None, None)
    x = [ZERO] * nx
    for r, col in enumerate(basis):
        if col < nx:
            x[col] = tab[r][-1]
    return LpResult("optimal", tuple(x), -sign * tab[-1][-1])


def lp_feasible(a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> tuple[Fraction, ...] | None:
    """Feasible point of the system (x >= 0 implied) or None.  The variable
    count is the length of the first row, so the system needs at least one."""
    res = solve_lp([ZERO] * len([*a_ub, *a_eq][0]), a_ub, b_ub, a_eq, b_eq)
    return res.x if res.status == "optimal" else None
