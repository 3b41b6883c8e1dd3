"""Compatible 3-coloring of edge-colored complete graphs, the four-part
list-partition problem, 2-SAT reductions, quasi-polynomial 2-list coverings,
and the certificate transformers between coverings and separators.

Colors of the edge-coloring problem are 0, 1, 2 (printed A, B, C); parts of
the list-partition problem are 1..4 (printed A1..A4), where part 4 must be a
clique, parts 1 and 2 stable sets, and parts 1 and 3 completely non-adjacent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (Graph, bits, induced, is_clique, is_split_graph, is_stable,
                     mask_of, maximal_cliques, split_partitions)
from .rng import SplitMix64
from .separator import CutFamily, family_from_masks

COLOR_NAMES = "ABC"
_COLORS = frozenset((0, 1, 2))
PART_NAMES = ("A1", "A2", "A3", "A4")

ListAssignment = tuple  # tuple[frozenset[int], ...], one list per vertex


class MalformedCovering(ValueError):
    pass


class NotReallyThreeColorable(ValueError):
    def __init__(self, vertex: int, color: int, witness: int):
        super().__init__(
            f"vertex {vertex} is not really 3-colorable for color "
            f"{COLOR_NAMES[color]}: non-split clique {list(bits(witness))}")
        self.vertex = vertex
        self.color = color
        self.witness = witness


# -- instances ---------------------------------------------------------------


class CcpInstance:
    """Edge 3-coloring of the complete graph on n vertices.  ``colors`` holds
    the color of every pair u < v in lexicographic order; ``classes[c][x]``
    is the mask of the vertices joined to x by an edge of color c."""

    __slots__ = ("n", "colors", "classes")

    def __init__(self, n: int, colors):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        colors = tuple(colors)
        if len(colors) != n * (n - 1) // 2:
            raise ValueError("color vector length must be n(n-1)/2")
        if not _COLORS.issuperset(colors):
            raise ValueError("edge colors must be 0, 1 or 2")
        classes = ([0] * n, [0] * n, [0] * n)
        for (u, v), c in zip(itertools.combinations(range(n), 2), colors):
            classes[c][u] |= 1 << v
            classes[c][v] |= 1 << u
        self.n = n
        self.colors = colors
        self.classes = tuple(map(tuple, classes))

    def __eq__(self, other):
        return (isinstance(other, CcpInstance) and self.n == other.n
                and self.colors == other.colors)

    def __repr__(self):
        return f"CcpInstance(n={self.n})"


def random_ccp_instance(n: int, seed: int) -> CcpInstance:
    draws = SplitMix64(seed).draws(n * (n - 1) // 2)
    return CcpInstance(n, tuple((draws % 3).tolist()))


def ccp_of_graph(g: Graph) -> CcpInstance:
    """Two-color encoding of a graph: edges get color A, non-edges color B."""
    return CcpInstance(g.n, [0 if g.has_edge(u, v) else 1
                             for u, v in itertools.combinations(range(g.n), 2)])


def _check_vertex(inst: CcpInstance, x: int) -> None:
    if not 0 <= x < inst.n:
        raise ValueError(f"vertex {x} is not in the {inst.n}-vertex instance")


def verify_3ccp_solution(inst: CcpInstance, coloring) -> bool:
    """True iff no pair shares its edge color with both endpoints."""
    if len(coloring) != inst.n:
        raise ValueError("coloring length must match the instance")
    if not _COLORS.issuperset(coloring):
        raise ValueError("vertex colors must be 0, 1 or 2")
    classes = inst.classes
    seen = [0, 0, 0]  # per color, the vertices before v that carry it
    for v, c in enumerate(coloring):
        if classes[c][v] & seen[c]:
            return False
        seen[c] |= 1 << v
    return True


def all_3ccp_solutions(inst: CcpInstance):
    """Exhaustive solution list, in the order of ``itertools.product``; use
    only at desk scale.  A depth-first search colors the vertices in order
    and prunes color c at v when an earlier c-colored vertex is joined to v
    by a c-colored pair: every constraint is on a pair, so the prune is the
    pair check of ``verify_3ccp_solution`` and loses no solution."""
    n, classes = inst.n, inst.classes
    out = []
    coloring = [0] * n
    seen = [0, 0, 0]  # per color, the vertices before v that carry it

    def extend(v: int) -> None:
        if v == n:
            out.append(tuple(coloring))
            return
        bit = 1 << v
        for c in (0, 1, 2):
            if not classes[c][v] & seen[c]:
                coloring[v] = c
                seen[c] |= bit
                extend(v + 1)
                seen[c] ^= bit

    extend(0)
    return out


def covering_covers(covering, solutions) -> list:
    """Solutions from the list not compatible with any assignment, in list
    order.

    An index holds one solution bitset per (vertex, value): bit i is set when
    solution i gives the vertex that value.  An assignment then allows the
    AND over the vertices of the OR of the bitsets of the values on its list;
    each vertex computes that OR once per distinct list.  Each newly covered
    solution is confirmed once by ``stubborn_assignment_compatible``."""
    solutions = list(solutions)
    index = [{} for _ in range(len(solutions[0]))] if solutions else []
    for i, sol in enumerate(solutions):
        for row, value in zip(index, sol):
            row[value] = row.get(value, 0) | 1 << i
    ors = [{} for _ in index]  # per vertex: list -> OR of its values' bitsets
    uncovered = (1 << len(solutions)) - 1
    for la in covering:
        if not uncovered:
            break
        allowed = uncovered
        for row, memo, lst in zip(index, ors, la):
            key = frozenset(lst)
            ored = memo.get(key)
            if ored is None:
                ored = 0
                for value in key:
                    ored |= row.get(value, 0)
                memo[key] = ored
            allowed &= ored
        for i in bits(allowed):
            if not stubborn_assignment_compatible(la, solutions[i]):
                raise RuntimeError(
                    f"implementation bug: solution index allows {solutions[i]} "
                    f"under an assignment that does not")
        uncovered &= ~allowed
    return [solutions[i] for i in bits(uncovered)]


# -- 2-SAT --------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSatInstance:
    nvars: int
    clauses: tuple[tuple[int, int], ...]  # literals are +-(var+1)

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError(f"variable count {self.nvars} is negative")
        for a, b in self.clauses:
            for lit in (a, b):
                if lit == 0 or abs(lit) > self.nvars:
                    raise ValueError(f"literal {lit} out of range")


def solve_2sat(ts: TwoSatInstance):
    """Satisfying assignment (tuple of bools) or None, by strongly connected
    components of the implication graph (Aspvall, Plass and Tarjan, 1979).

    Literal node ids: 2v for the negation of variable v, 2v + 1 for the
    variable itself; with that numbering an unconstrained variable comes out
    False.  In the iterative Tarjan search a vertex is on the stack exactly
    when it has an index but no component yet.
    """
    nn = 2 * ts.nvars
    adj: list[list[int]] = [[] for _ in range(nn)]
    for a, b in ts.clauses:
        x, y = 2 * abs(a) - 2 + (a > 0), 2 * abs(b) - 2 + (b > 0)
        adj[x ^ 1].append(y)
        adj[y ^ 1].append(x)

    index, low, comp = [-1] * nn, [0] * nn, [-1] * nn
    stack: list[int] = []
    count = comps = 0
    for root in (r for r in range(nn) if index[r] == -1):  # index read as reached
        work = [(root, iter(adj[root]))]
        while work:
            v, succ = work[-1]
            if index[v] == -1:
                index[v] = low[v] = count
                count += 1
                stack.append(v)
            for w in succ:
                if index[w] == -1:
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] == -1:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    while stack[-1] != v:
                        comp[stack.pop()] = comps
                    comp[stack.pop()] = comps
                    comps += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

    if any(comp[x] == comp[x + 1] for x in range(0, nn, 2)):
        return None
    return tuple(comp[x + 1] < comp[x] for x in range(0, nn, 2))


def two_list_to_2sat(inst: CcpInstance, la: ListAssignment):
    """Encode the solutions compatible with a 2-list assignment.

    Per vertex with a two-color list: one variable per color, an "at least
    one" and an "at most one" clause.  Singleton lists contribute one
    variable forced true.  Every same-colored conflict along an edge whose
    color appears on both endpoints' lists adds an exclusion clause.
    Returns the instance plus a decoder from assignments to vertex colorings.
    """
    if len(la) != inst.n:
        raise ValueError("assignment length must match the instance")
    lists = [sorted(set(lst)) for lst in la]
    lit_of: dict[tuple[int, int], int] = {}  # (vertex, color) -> its positive literal
    clauses = []
    for v, lst in enumerate(lists):
        if not 1 <= len(lst) <= 2:
            raise ValueError(f"vertex {v} list must hold one or two colors")
        if not _COLORS.issuperset(lst):
            raise ValueError(f"vertex {v} list holds a color outside 0, 1, 2")
        x = len(lit_of) + 1
        lit_of.update(((v, c), x + i) for i, c in enumerate(lst))
        clauses += [(x, x + 1), (-x, -x - 1)] if len(lst) == 2 else [(x, x)]
    for (u, v), c in zip(itertools.combinations(range(inst.n), 2), inst.colors):
        if (u, c) in lit_of and (v, c) in lit_of:
            clauses.append((-lit_of[(u, c)], -lit_of[(v, c)]))
    ts = TwoSatInstance(len(lit_of), tuple(clauses))

    def decode(assignment) -> tuple[int, ...]:
        colors = []
        for v, lst in enumerate(lists):
            chosen = [c for c in lst if assignment[lit_of[(v, c)] - 1]]
            if len(chosen) != 1:
                raise ValueError("assignment does not select exactly one color")
            colors.append(chosen[0])
        return tuple(colors)

    return ts, decode


# -- quasi-polynomial covering tree -------------------------------------------


@dataclass(frozen=True)
class CoveringTree:
    assignments: tuple[ListAssignment, ...]
    raw_leaf_count: int
    height: int
    level_removals: tuple[tuple[int, int], ...]  # (pool size, vertices constrained)


def majority_color(inst: CcpInstance, x: int, pool: int) -> int:
    """The color of most edges from x into the vertex mask ``pool``."""
    _check_vertex(inst, x)
    counts = [(row[x] & pool).bit_count() for row in inst.classes]
    return counts.index(max(counts))  # ties fall to the lowest color


def build_quasipoly_covering(inst: CcpInstance) -> CoveringTree:
    """Recursion tree over majority colors.

    Each level branches on which still-unconstrained vertex receives its
    majority color (that vertex becomes a singleton, its majority-colored
    neighborhood loses that color), plus one extra leaf where every remaining
    vertex is denied its majority color.  Every valid solution is compatible
    with some leaf.
    """
    if inst.n < 1:
        raise ValueError("instance must have at least one vertex")
    leaves: list[tuple[ListAssignment, int]] = []
    removals: list[tuple[int, int]] = []

    def rec(pool: int, constraints: dict, depth: int):
        if not pool:
            leaves.append((tuple(constraints[v] for v in range(inst.n)), depth))
            return
        size = pool.bit_count()
        majors = {x: majority_color(inst, x, pool) for x in bits(pool)}
        for x, alpha in majors.items():
            nbhd = inst.classes[alpha][x] & pool
            child = dict(constraints)
            child[x] = frozenset({alpha})
            rest = _COLORS - {alpha}
            for y in bits(nbhd):
                child[y] = rest
            next_pool = pool & ~nbhd & ~(1 << x)
            removals.append((size, size - next_pool.bit_count()))
            rec(next_pool, child, depth + 1)
        extra = dict(constraints)
        for x, alpha in majors.items():
            extra[x] = _COLORS - {alpha}
        leaves.append((tuple(extra[v] for v in range(inst.n)), depth + 1))

    rec((1 << inst.n) - 1, {}, 0)
    height = max(d for _, d in leaves)
    assignments = tuple(dict.fromkeys(la for la, _ in leaves))
    return CoveringTree(assignments, len(leaves), height, tuple(removals))


# -- really-3-colorable test ----------------------------------------------------


def really_3colorable(inst: CcpInstance, x: int, alpha: int
                      ) -> tuple[bool, int | None]:
    """True iff every maximal clique using the other two colors inside the
    alpha-edge-neighborhood of x splits into a clique of one color and a
    clique of the other; otherwise the mask of the first non-split witness
    is returned."""
    _check_vertex(inst, x)
    others = [c for c in (0, 1, 2) if c != alpha]
    derived, ids = _derived_graph(inst, inst.classes[alpha][x], others)
    for z in maximal_cliques(derived):
        members = mask_of(ids[i] for i in bits(z))
        if not is_split_graph(_derived_graph(inst, members, (others[0],))[0]):
            return False, members
    return True, None


# -- the four-part list-partition problem ---------------------------------------


@dataclass(frozen=True)
class StubbornInstance:
    graph: Graph
    lists: tuple  # frozenset[int] over {1, 2, 3, 4}, one per vertex

    def __post_init__(self):
        if len(self.lists) != self.graph.n:
            raise ValueError("list count must match the vertex count")
        for lst in self.lists:
            if not lst or not set(lst) <= {1, 2, 3, 4}:
                raise ValueError("lists must be nonempty subsets of {1,2,3,4}")


def trivial_stubborn(g: Graph) -> StubbornInstance:
    return StubbornInstance(g, tuple(frozenset({1, 2, 3, 4}) for _ in range(g.n)))


@dataclass(frozen=True)
class StubbornCheck:
    valid: bool
    maximal: bool
    reason: str | None = None


def verify_stubborn_solution(inst: StubbornInstance, part) -> StubbornCheck:
    """Exact validity and maximality flags for a 1..4 assignment."""
    g = inst.graph
    if len(part) != g.n or any(p not in (1, 2, 3, 4) for p in part):
        raise ValueError("assignment must give every vertex a part in 1..4")
    masks = [0] * 5  # masks[i]: the vertices in part i
    for v, p in enumerate(part):
        if p not in inst.lists[v]:
            return StubbornCheck(False, False, f"vertex {v} violates its list")
        masks[p] |= 1 << v
    if not is_clique(g, masks[4]):
        return StubbornCheck(False, False, "part 4 is not a clique")
    for i in (1, 2):
        if not is_stable(g, masks[i]):
            return StubbornCheck(False, False, f"part {i} is not stable")
    for v in bits(masks[1]):
        if g.adj[v] & masks[3]:
            return StubbornCheck(False, False, "parts 1 and 3 are adjacent")
    maximal = all(3 not in inst.lists[v] for v in bits(masks[1]))
    return StubbornCheck(True, maximal)


def all_maximal_stubborn_solutions(inst: StubbornInstance):
    """Exhaustive list of the maximal solutions, in the order of
    ``itertools.product`` over the sorted lists.  A depth-first search places
    the vertices in order, each on a part of its list, and prunes with the
    pair conditions of ``verify_stubborn_solution`` against the parts of the
    earlier vertices: part 4 joins every earlier part-4 vertex, part 1 (kept
    off vertices whose list holds 3, for maximality) and part 2 meet no
    earlier vertex of their own part, and parts 1 and 3 meet no earlier
    vertex of the other."""
    n, adj = inst.graph.n, inst.graph.adj
    lists = [sorted(lst) for lst in inst.lists]
    out = []
    part = [0] * n
    masks = [0] * 5  # masks[i]: the vertices before v in part i

    def extend(v: int) -> None:
        if v == n:
            out.append(tuple(part))
            return
        bit, nbrs = 1 << v, adj[v]
        for p in lists[v]:
            if p == 4:
                ok = not masks[4] & ~nbrs
            elif p == 1:
                ok = 3 not in lists[v] and not nbrs & (masks[1] | masks[3])
            elif p == 2:
                ok = not nbrs & masks[2]
            else:
                ok = not nbrs & masks[1]
            if ok:
                part[v] = p
                masks[p] |= bit
                extend(v + 1)
                masks[p] ^= bit

    extend(0)
    return out


def stubborn_assignment_compatible(la, part) -> bool:
    """Whether every vertex's value in ``part`` lies on its list in ``la``;
    checks any list assignment, of parts or of colors."""
    return all(part[v] in la[v] for v in range(len(part)))


# -- separator -> list-partition covering ---------------------------------------


def square_cut_family(family: CutFamily) -> CutFamily:
    """All pairwise intersections of A-sides (B-sides union), deduplicated.
    Separates every clique from any union of two stable sets the input
    separates individually."""
    masks = family.masks
    return family_from_masks(family.host_n,
                             (a & b for a in masks for b in masks))


def separator_to_stubborn_covering(inst: StubbornInstance,
                                   f2: CutFamily) -> list[ListAssignment]:
    """One 2-list assignment per cut: A-side vertices may use parts 3 or 4;
    B-side vertices take parts 2/3 when their own list allows part 3 and
    parts 1/2 otherwise.  Covers every maximal solution provided f2 separates
    cliques from unions of two stable sets."""
    g = inst.graph
    if f2.host_n != g.n:
        raise ValueError("cut family lives on the wrong host")
    b_lists = [frozenset({2, 3}) if 3 in lst else frozenset({1, 2}) for lst in inst.lists]
    return list(dict.fromkeys(
        tuple(frozenset({3, 4}) if a >> v & 1 else b_lists[v]
              for v in range(g.n))
        for a in f2.masks))


# -- list-partition coverings -> edge-coloring coverings -------------------------


_MAIN_TABLE = {
    frozenset({2}): frozenset({2}),
    frozenset({3}): frozenset({1, 2}),
    frozenset({4}): frozenset({0}),
    frozenset({2, 4}): frozenset({0, 2}),
    frozenset({2, 3}): frozenset({1, 2}),
}
_REFINE_TABLE = {
    frozenset({2}): frozenset({1}),
    frozenset({3}): frozenset({0, 2}),
    frozenset({4}): frozenset({2}),
    frozenset({2, 4}): frozenset({1, 2}),
    frozenset({2, 3}): frozenset({0, 1}),
    frozenset({3, 4}): frozenset({0, 2}),
}


def _table_key(lst: frozenset) -> frozenset:
    key = frozenset(lst) - {1}
    if not key:
        raise MalformedCovering(f"list {sorted(lst)} has no row in the translation table")
    return key


def _derived_graph(inst: CcpInstance, pool: int, colors) -> tuple[Graph, tuple[int, ...]]:
    """The graph of the edges with a color in ``colors``, induced on the
    vertex mask ``pool``, and its map from new index to vertex."""
    # a pair has one color, so the classes are disjoint and their sum is their union
    union = [sum(inst.classes[c][v] for c in colors) for v in range(inst.n)]
    return induced(Graph(inst.n, union, validate=False), bits(pool))


def _translate(main: frozenset, refine: frozenset) -> frozenset:
    key = _table_key(main)
    val = (_REFINE_TABLE.get(_table_key(refine)) if key == frozenset({3, 4})
           else _MAIN_TABLE.get(key))
    if val is None:
        raise MalformedCovering(f"lists {sorted(main)}/{sorted(refine)} have no table row")
    return val


def _side(inst: CcpInstance, x: int, cover_stubborn, frame
          ) -> tuple[tuple[int, ...], list[tuple]]:
    """The ``far``-edge-neighborhood of x and color lists on it for solutions
    coloring x with color ``a``, where ``frame = (a, near, far)``.
    ``cover_stubborn`` covers two list-partition instances on the
    neighborhood, on its near and far edges (main) and on its near edges
    alone (refine), and each pair of their assignments translates into one
    list per vertex; the table's colors A, B, C stand for a, near, far."""
    _, near, far = frame
    main, pool = _derived_graph(inst, inst.classes[far][x], (near, far))
    refine, _ = _derived_graph(inst, inst.classes[far][x], (near,))
    main_cov = cover_stubborn(trivial_stubborn(main))
    refine_cov = cover_stubborn(trivial_stubborn(refine))
    if not pool:  # the empty neighborhood has one list assignment, the empty one
        return pool, [()]
    lists = {}  # (main list, refine list) -> translated color list

    def translated(main_list, refine_list):
        lst = lists.get((main_list, refine_list))
        if lst is None:
            lst = frozenset(frame[c] for c in _translate(main_list, refine_list))
            lists[main_list, refine_list] = lst
        return lst

    vertices = range(len(pool))
    return pool, list(dict.fromkeys(
        tuple([translated(f[v], fp[v]) for v in vertices])
        for f in main_cov for fp in refine_cov))


def stubborn_to_3ccp_covering(inst: CcpInstance, x: int, cover_stubborn,
                              target: int = 0) -> list[ListAssignment]:
    """2-list assignments covering every solution that gives x the target
    color.  With ``(a, b, c)`` the colors 0, 1, 2 with the target swapped into
    the first place, x gets a and its a-neighbors b or c; the lists on its
    c-neighbors (C side) and on its b-neighbors (B side, the C side with b and
    c swapped) come from ``cover_stubborn``, which maps a list-partition
    instance to a covering of its maximal solutions and is invoked C side
    first.

    If x cannot take the target color at all the empty covering is returned;
    if the structural test fails for one of the other two colors the
    construction is unsound and raises."""
    _check_vertex(inst, x)
    if target not in (0, 1, 2):
        raise ValueError("target color must be 0, 1 or 2")
    verdicts = [really_3colorable(inst, x, color) for color in (0, 1, 2)]
    return _slice_covering(inst, x, cover_stubborn, target, verdicts)


def _slice_covering(inst: CcpInstance, x: int, cover_stubborn, target: int,
                    verdicts) -> list[ListAssignment]:
    """``stubborn_to_3ccp_covering`` on a checked vertex and target, given
    ``verdicts[c] = really_3colorable(inst, x, c)`` for the colors c."""
    perm = [0, 1, 2]
    perm[0], perm[target] = target, 0
    a, b, c = perm

    if not verdicts[a][0]:
        return []
    for other in (b, c):
        ok, wit = verdicts[other]
        if not ok:
            raise NotReallyThreeColorable(x, other, wit)

    c_pool, c_side = _side(inst, x, cover_stubborn, (a, b, c))
    b_pool, b_side = _side(inst, x, cover_stubborn, (a, c, b))
    ua = tuple(bits(inst.classes[a][x]))
    out = []
    for cl in c_side:
        for bl in b_side:
            la: list[frozenset] = [None] * inst.n
            la[x] = frozenset({a})
            for v in ua:
                la[v] = frozenset({b, c})
            for v, lst in zip(c_pool, cl):
                la[v] = lst
            for v, lst in zip(b_pool, bl):
                la[v] = lst
            out.append(tuple(la))
    return out  # the sides hold distinct lists on disjoint pools


def full_3ccp_covering_via_stubborn(inst: CcpInstance, x: int,
                                    cover_stubborn) -> list[ListAssignment]:
    """Union of the three per-color coverings for a fixed branch vertex, the
    same as ``stubborn_to_3ccp_covering`` for the targets 0, 1, 2 in turn,
    with the really-3-colorable test run once per color."""
    _check_vertex(inst, x)
    verdicts = [really_3colorable(inst, x, color) for color in (0, 1, 2)]
    return [la for target in (0, 1, 2)  # each target fixes x's list
            for la in _slice_covering(inst, x, cover_stubborn, target, verdicts)]


# -- edge-coloring coverings -> separators ---------------------------------------


# list -> where ccp_covering_to_separator puts its vertex: 0 the {A,B} set,
# 1 the {B,C} side, 2 the {A,C} side (the B side of the cut)
_CUT_SIDE = {
    frozenset({0, 1}): 0,
    frozenset({1, 2}): 1, frozenset({1}): 1, frozenset({2}): 1,
    frozenset({0, 2}): 2, frozenset({0}): 2,
}


def ccp_covering_to_separator(g: Graph, covering) -> CutFamily:
    """From a 2-list covering of the two-color encoding of g, emit for every
    assignment and every split partition of its {A,B} set the cut (clique
    part plus the {B,C} vertices) versus the rest.  Singleton lists fold into
    a side that keeps the construction sound: B joins the {B,C} side, A the
    {A,C} side, C the {B,C} side.

    The cuts depend only on the {A,B} and {B,C} vertex masks, so an
    assignment repeating an earlier pair of masks is checked but adds no cut,
    and the clique parts of each {A,B} mask are enumerated once."""
    masks = []
    seen = set()  # (A,B mask, B,C mask) pairs already cut
    clique_parts = {}  # A,B mask -> host masks of its split clique parts
    for la in covering:
        if len(la) != g.n:
            raise ValueError("assignment length must match the graph")
        sides = [0, 0, 0]  # the {A,B} vertices, the {B,C} side, the rest
        for v, lst in enumerate(la):
            side = _CUT_SIDE.get(frozenset(lst))
            if side is None:
                raise MalformedCovering(f"vertex {v} carries unusable list {sorted(lst)}")
            sides[side] |= 1 << v
        x_mask, y_mask, _ = sides
        if (x_mask, y_mask) in seen:
            continue
        seen.add((x_mask, y_mask))
        parts = clique_parts.get(x_mask)
        if parts is None:
            sub, ids = induced(g, bits(x_mask))
            parts = clique_parts[x_mask] = [
                mask_of(ids[i] for i in bits(sp.clique_part)) for sp in split_partitions(sub)]
        masks.extend(y_mask | part for part in parts)
    return family_from_masks(g.n, masks)
