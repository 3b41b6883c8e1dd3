import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csslab.lp import solve_lp, lp_feasible
from oracles import fraction_solve_lp


def brute_lp_minimum(c, a_ub, b_ub):
    """Exact minimum of min c.x, a_ub x <= b_ub, x >= 0 by enumerating basic
    feasible points: intersections of n tight constraints drawn from the
    inequality rows and the coordinate planes."""
    n = len(c)
    rows = [([Fraction(v) for v in row], Fraction(b)) for row, b in zip(a_ub, b_ub)]
    rows += [([Fraction(1 if j == i else 0) for j in range(n)], Fraction(0))
             for i in range(n)]
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        mat = [rows[i][0][:] for i in combo]
        rhs = [rows[i][1] for i in combo]
        # gaussian elimination
        x = _solve_square(mat, rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if all(sum(r * v for r, v in zip(row, x)) <= b for row, b in
               [(rows[i][0], rows[i][1]) for i in range(len(a_ub))]):
            val = sum(ci * v for ci, v in zip(c, x))
            if best is None or val < best:
                best = val
    return best


def _solve_square(mat, rhs):
    n = len(rhs)
    m = [row[:] + [r] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def test_triangle_covering():
    res = solve_lp([1, 1, 1],
                   a_ub=[[-1, -1, 0], [0, -1, -1], [-1, 0, -1]],
                   b_ub=[-1, -1, -1])
    assert res.status == "optimal"
    assert res.value == Fraction(3, 2)


def test_single_edge_covering():
    res = solve_lp([1, 1], a_ub=[[-1, -1]], b_ub=[-1])
    assert res.status == "optimal" and res.value == 1


def test_infeasible():
    res = solve_lp([1], a_ub=[[1], [-1]], b_ub=[-1, -2])
    assert res.status == "infeasible"
    assert lp_feasible(a_ub=[[1], [-1]], b_ub=[-1, -2]) is None


def test_unbounded():
    res = solve_lp([-1], a_ub=[[-1]], b_ub=[0])
    assert res.status == "unbounded"


def test_maximize():
    res = solve_lp([1, 2], a_ub=[[1, 1]], b_ub=[3], maximize=True)
    assert res.status == "optimal" and res.value == 6


def test_equality_constraints():
    res = solve_lp([0, 0], a_eq=[[1, 1]], b_eq=[1])
    assert res.status == "optimal"
    assert sum(res.x) == 1


def test_against_vertex_enumeration():
    rnd = random.Random(2)
    for trial in range(60):
        n = rnd.randint(1, 4)
        m = rnd.randint(1, 6)
        # covering-style rows keep instances feasible and bounded
        a_ub, b_ub = [], []
        for _ in range(m):
            members = [i for i in range(n) if rnd.random() < 0.7] or [rnd.randrange(n)]
            a_ub.append([-1 if i in members else 0 for i in range(n)])
            b_ub.append(-1)
        c = [rnd.randint(1, 4) for _ in range(n)]
        res = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        assert res.status == "optimal"
        assert res.value == brute_lp_minimum(c, a_ub, b_ub)
        # returned point must be feasible and achieve the value
        for row, b in zip(a_ub, b_ub):
            assert sum(r * x for r, x in zip(row, res.x)) <= b
        assert all(x >= 0 for x in res.x)
        assert sum(ci * x for ci, x in zip(c, res.x)) == res.value


@pytest.mark.parametrize("c, a_ub, b_ub, a_eq, b_eq", [
    ([1, 1], [[-1]], [-1], [], []),            # ub row shorter than c
    ([1], [], [], [[1, 1]], [1]),              # eq row longer than c
    ([1], [[-1], [1]], [-1], [], []),          # a_ub has more rows than b_ub
    ([-1], [[1]], [], [], []),                 # b_ub has fewer entries than a_ub
    ([1], [], [], [[1]], [1, 2]),              # b_eq has more entries than a_eq
])
def test_misshapen_program_is_rejected(c, a_ub, b_ub, a_eq, b_eq):
    with pytest.raises(ValueError):
        solve_lp(c, a_ub, b_ub, a_eq, b_eq)


def test_lp_feasible_without_rows_is_rejected():
    with pytest.raises(ValueError):
        lp_feasible()


ENTRIES = st.one_of(st.integers(-4, 4),
                    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))


@st.composite
def programs(draw):
    """Small programs over all three statuses: int and ``Fraction`` entries,
    negative right-hand sides and, sometimes, a duplicated (or scaled)
    equality row, which leaves an artificial basic at level zero."""
    n = draw(st.integers(0, 6))
    rows = lambda most: draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                                      max_size=most))
    a_ub, a_eq = rows(5), rows(3)
    b_ub = [draw(ENTRIES) for _ in a_ub]
    b_eq = [draw(ENTRIES) for _ in a_eq]
    if a_eq and draw(st.booleans()):
        i = draw(st.integers(0, len(a_eq) - 1))
        k = draw(st.sampled_from([1, 2, -1]))
        a_eq.append([k * v for v in a_eq[i]])
        b_eq.append(k * b_eq[i])
    c = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    return c, a_ub, b_ub, a_eq, b_eq, draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(programs())
# a tie in the ratio test that only the lowest-basic-column rule settles
@example(([-3, 0, 0], [[2, 1, -2], [-1, 0, -1]], [2, -1], [], [], True))
# rows scaled each by its own denominator would weight the artificials
# unequally in phase 1 and end on another optimal vertex
@example(([2, -1, -1], [[-1, -2, 1], [-2, 2, -2]], [-1, 0],
          [[2, 0, -1], [1, -1, Fraction(-1, 2)]], [4, -2], False))
def test_solve_lp_matches_fraction_tableau(program):
    got = solve_lp(*program)
    want = fraction_solve_lp(*program)
    assert (got.status, got.x, got.value) == (want.status, want.x, want.value)
