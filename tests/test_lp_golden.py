"""Golden table of the exact simplex's ``(status, x, value)``.

``lp_golden.json`` was written by ``_capture()`` and is not regenerated: a
change of tableau layout must keep every pivot, so a diff here means the
solver now walks a different path or reaches a different vertex.  Each row of
``instances`` is ``[name, c, a_ub, b_ub, a_eq, b_eq, maximize, status, x,
value]``; an entry given as a string is a ``Fraction`` literal, the rest are
plain ints, and ``x`` and ``value`` are printed fractions or null.  Families:

- ``hand``: mixed <=/= rows, negative right-hand sides, ``maximize``,
  infeasible and unbounded programs, empty programs and fractional entries;
- ``mixed``: random small programs over all three statuses;
- ``redundant``: random equality systems with a duplicated (or scaled) row
  and an all-zero row, which leave artificials basic at level zero after
  phase 1 and so exercise the drive-out and the row drop;
- ``covering`` and ``game``: the shapes of ``fractional_transversality``'s
  programs and of the antisymmetric-game programs (weights summing to one,
  out-weight at least in-weight at every vertex).

``side_feasible`` pins ``transversal._side_feasible`` on sign matrices,
including no rows with zero and with three variables.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from csslab.lp import solve_lp
from csslab.transversal import _side_feasible

GOLDEN = Path(__file__).with_name("lp_golden.json")

HAND = [
    # name, c, a_ub, b_ub, a_eq, b_eq, maximize
    ("triangle_cover", [1, 1, 1], [[-1, -1, 0], [0, -1, -1], [-1, 0, -1]],
     [-1, -1, -1], [], [], False),
    ("mixed_rows", [2, -1, 3], [[1, 1, 0], [-1, 0, 2]], [4, -1],
     [[1, -1, 1]], [2], False),
    ("mixed_rows_max", [2, -1, 3], [[1, 1, 0], [-1, 0, 2]], [4, -1],
     [[1, -1, 1]], [2], True),
    ("negative_eq_rhs", [1, 1], [], [], [[-1, -2]], [-3], False),
    ("negative_ub_rhs_max", [1, 2], [[-1, 1], [1, 1]], [-1, 5], [], [], True),
    ("infeasible_ub", [1], [[1], [-1]], [-1, -2], [], [], False),
    ("infeasible_eq", [0, 0], [], [], [[1, 1], [1, 1]], [1, 2], False),
    ("infeasible_zero_row", [1, 1], [], [], [[0, 0]], [3], False),
    ("unbounded_min", [-1], [[-1]], [0], [], [], False),
    ("unbounded_max", [1, 1], [[1, -1]], [2], [], [], True),
    ("unbounded_after_phase1", [-1, 0], [], [], [[1, -1]], [1], False),
    ("duplicate_eq", [1, 2, 3], [], [], [[1, 1, 1], [1, 1, 1]], [2, 2], False),
    ("zero_eq_row", [1, 1], [[1, 1]], [4], [[0, 0], [1, 0]], [0, 1], False),
    ("scaled_eq_rows", [0, 1, 1], [], [], [[1, 2, 0], [2, 4, 0], [0, 0, 0]],
     [2, 4, 0], False),
    ("drive_out_later_col", [1, 0, 0], [], [], [[0, 1, 1], [0, 1, 1], [1, 0, 0]],
     [1, 1, 0], False),
    ("no_rows", [3, 1], [], [], [], [], False),
    ("no_rows_unbounded", [-1, 2], [], [], [], [], False),
    ("no_vars", [], [], [], [[]], [2], False),
    ("no_vars_zero", [], [], [], [[]], [0], False),
    ("fractions", ["1/2", 1], [["1/3", 1], [1, "-2/5"]], ["3/2", 1],
     [["1/7", "1/7"]], ["2/7"], True),
    ("degenerate_zero_rhs", [-1, -1, 0], [[1, -1, 0], [-1, 1, 0], [1, 1, 1]],
     [0, 0, 2], [], [], False),
]


def _mixed(rnd, count):
    out = []
    for i in range(count):
        n = rnd.randint(1, 5)
        rows = lambda m: [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        a_ub, a_eq = rows(rnd.randint(0, 4)), rows(rnd.randint(0, 3))
        out.append((f"mixed_{i}", [rnd.randint(-3, 3) for _ in range(n)],
                    a_ub, [rnd.randint(-4, 4) for _ in a_ub],
                    a_eq, [rnd.randint(-4, 4) for _ in a_eq], rnd.random() < 0.5))
    return out


def _redundant(rnd, count):
    out = []
    for i in range(count):
        n = rnd.randint(2, 5)
        point = [rnd.randint(0, 2) for _ in range(n)]
        a_eq = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(rnd.randint(1, 3))]
        a_eq.append([rnd.choice((1, 2, -1)) * v for v in rnd.choice(a_eq)])
        a_eq.append([0] * n)
        rnd.shuffle(a_eq)
        b_eq = [sum(a * p for a, p in zip(row, point)) for row in a_eq]
        a_ub = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(rnd.randint(0, 2))]
        b_ub = [sum(a * p for a, p in zip(row, point)) + rnd.randint(0, 2) for row in a_ub]
        out.append((f"redundant_{i}", [rnd.randint(-2, 3) for _ in range(n)],
                    a_ub, b_ub, a_eq, b_eq, rnd.random() < 0.3))
    return out


def _covering(rnd, count):
    out = []
    for i in range(count):
        n = rnd.randint(1, 7)
        a_ub = []
        for _ in range(rnd.randint(1, 8)):
            members = {v for v in range(n) if rnd.random() < 0.5} or {rnd.randrange(n)}
            a_ub.append([-1 if v in members else 0 for v in range(n)])
        out.append((f"covering_{i}", [1] * n, a_ub, [-1] * len(a_ub), [], [], False))
    return out


def _game(rnd, count):
    out = []
    for i in range(count):
        n = rnd.randint(1, 7)
        arcs = {}
        for u in range(n):
            for v in range(u + 1, n):
                r = rnd.random()
                if r < 0.4:
                    arcs[u, v] = 1
                elif r < 0.8:
                    arcs[v, u] = 1
        a_ub = [[(1 if (y, x) in arcs else -1 if (x, y) in arcs else 0)
                 for y in range(n)] for x in range(n)]
        out.append((f"game_{i}", [0] * n, a_ub, [0] * n, [[1] * n], [1], False))
    return out


def _instances():
    rnd = random.Random(20261018)
    return (HAND + _mixed(rnd, 240) + _redundant(rnd, 80) + _covering(rnd, 60)
            + _game(rnd, 40))


def _num(v):
    return Fraction(v) if isinstance(v, str) else v


def _solve(c, a_ub, b_ub, a_eq, b_eq, maximize):
    def vec(v):
        return [_num(e) for e in v]
    res = solve_lp(vec(c), [vec(r) for r in a_ub], vec(b_ub),
                   [vec(r) for r in a_eq], vec(b_eq), maximize=maximize)
    x = None if res.x is None else [str(v) for v in res.x]
    value = None if res.value is None else str(res.value)
    return [res.status, x, value]


def _lp_rows():
    return [[name, c, a_ub, b_ub, a_eq, b_eq, maximize]
            + _solve(c, a_ub, b_ub, a_eq, b_eq, maximize)
            for name, c, a_ub, b_ub, a_eq, b_eq, maximize in _instances()]


def _side_rows():
    rnd = random.Random(7)
    cases = [([], 0), ([], 3), ([[1]], 1), ([[-1]], 1), ([[1, -1], [-1, 1]], 2)]
    for _ in range(30):
        nv = rnd.randint(1, 6)
        cases.append(([[rnd.choice((1, -1)) for _ in range(nv)]
                       for _ in range(rnd.randint(1, 6))], nv))
    out = []
    for signs, nv in cases:
        w = _side_feasible(signs, nv)
        out.append([signs, nv, None if w is None else [str(v) for v in w]])
    return out


def _capture():
    return {"instances": _lp_rows(), "side_feasible": _side_rows()}


def _golden(name):
    return json.loads(GOLDEN.read_text())[name]


def test_solve_lp_matches_golden_table():
    assert _lp_rows() == _golden("instances")


def test_side_feasible_matches_golden_table():
    assert _side_rows() == _golden("side_feasible")


def test_golden_table_covers_every_status():
    statuses = {row[7] for row in _golden("instances")}
    assert statuses == {"optimal", "infeasible", "unbounded"}
