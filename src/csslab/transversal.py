"""Conflict tournaments, side game weights, hypergraph transversals and VC
dimension, and the two structured separator builders that rest on them:
one for graphs excluding a fixed split pattern, one for graphs excluding a
long path and its complement.  A (clique, stable set) pair's tournament is
the one encoding of its adjacencies the side game reads: the arcs into
each side are the rows of that side's weight LP.

All linear programs are solved exactly over the rationals (see ``lp``), so
every bound reported here is certified, not approximated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (Graph, bits, complement, contains_induced,
                     find_biclique_pair, induced, is_clique, is_stable, mask_of,
                     path_graph, split_partitions)
from .lp import ZERO, lp_feasible, solve_lp
from .separator import CutFamily, disjoint_maximal_pairs, family_from_masks, separates


class BicliquePairNotFound(RuntimeError):
    def __init__(self, level_vertices: tuple[int, ...], needed: int):
        super().__init__(
            f"no completely (non-)adjacent pair of size {needed} on the "
            f"{len(level_vertices)}-vertex recursion level {sorted(level_vertices)}")
        self.level_vertices = level_vertices
        self.needed = needed


# -- conflict tournaments -----------------------------------------------------


@dataclass(frozen=True)
class ConflictDigraph:
    out: tuple[int, ...]      # out[u]: arc mask over digraph ids
    clique: tuple[int, ...]   # original vertex ids, sorted; digraph ids 0..|K|-1
    stable: tuple[int, ...]   # original vertex ids, sorted; digraph ids |K|..


def conflict_digraph(g: Graph, k: int, s: int) -> ConflictDigraph:
    """Bipartite tournament on the masks K then S: the arc runs from the
    clique vertex to the stable vertex when they are adjacent, backwards
    otherwise."""
    ks = tuple(bits(k))
    ss = tuple(bits(s))
    if k & s:
        raise ValueError(f"clique and stable set intersect in {list(bits(k & s))}")
    if not is_clique(g, k):
        raise ValueError(f"{list(ks)} is not a clique")
    if not is_stable(g, s):
        raise ValueError(f"{list(ss)} is not a stable set")
    nk = len(ks)
    out = [0] * (nk + len(ss))
    for i, x in enumerate(ks):
        for j, y in enumerate(ss):
            if g.adj[x] >> y & 1:
                out[i] |= 1 << (nk + j)
            else:
                out[nk + j] |= 1 << i
    return ConflictDigraph(tuple(out), ks, ss)


@dataclass(frozen=True)
class SideWeights:
    side: str                       # "K" | "S"
    weights: dict                   # original vertex id -> Fraction, total 2


def _side_feasible(signs: list[list[int]], nv: int) -> tuple[Fraction, ...] | None:
    """Weights w >= 0 with sum 2 and signs . w >= 0 componentwise."""
    return lp_feasible(a_ub=[[-c for c in row] for row in signs], b_ub=[0] * len(signs),
                       a_eq=[[1] * nv], b_eq=[2])


def side_weights(cd: ConflictDigraph) -> SideWeights:
    """Pick the side of the conflict digraph carrying weight and rescale it to
    total 2, so that every opposite-side vertex sees out-weight at least 1.

    The sign rows are read off the tournament's arcs: side K's from the
    stable vertices' rows, side S's from the clique vertices' rows shifted
    past K.  The clique side is certified first; by the game argument at
    least one side always works.  All three conditions are checked exactly
    before returning.
    """
    if not cd.clique and not cd.stable:
        return SideWeights("K", {})
    nk = len(cd.clique)
    views = (("K", cd.clique, cd.stable, cd.out[nk:]),
             ("S", cd.stable, cd.clique, [a >> nk for a in cd.out[:nk]]))
    for side, ids, opp, arcs in views:
        # sign[x][v] = +1 if the arc runs x -> v, else -1
        rows = [[1 if a >> i & 1 else -1 for i in range(len(ids))] for a in arcs]
        w = _side_feasible(rows, len(ids))
        if w is not None:
            break
    else:
        raise RuntimeError("neither side admits game weights: implementation bug")
    # the checks run on integer numerators over the common denominator d
    d = math.lcm(*(v.denominator for v in w))
    num = [v.numerator * (d // v.denominator) for v in w]
    if not (sum(num) == 2 * d and all(v >= 0 for v in num)):
        raise RuntimeError("side weights do not sum to 2 or are negative")
    for x, row in zip(opp, rows):
        if sum(v for v, sign in zip(num, row) if sign > 0) < d:
            raise RuntimeError(f"out-weight below 1 at vertex {x} against side {sorted(ids)}")
    return SideWeights(side, dict(zip(ids, w)))


# -- hypergraphs -------------------------------------------------------------


class Hypergraph:
    """Vertices 0..n-1; ``edges`` is a tuple of vertex masks, duplicates kept
    (one hyperedge per generating vertex).  Masks reaching past vertex n-1
    (negative ones too) are rejected."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = tuple(edges)
        if edges and (min(edges) < 0 or max(edges) >> n):
            raise ValueError("hyperedge references vertices out of range")
        self.n = n
        self.edges = edges

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={len(self.edges)})"


def build_hypergraph(g: Graph, base: int,
                     opposite: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """One hyperedge per opposite vertex x: the base vertices outside N(x).
    Returns the hypergraph over re-indexed base vertices plus the id map.
    For the base vertices inside N(x), pass complement(g)."""
    if base & opposite:
        raise ValueError("base and opposite sets intersect")
    ids = tuple(bits(base))
    local = {1 << v: 1 << i for i, v in enumerate(ids)}  # base bit -> index bit
    edges = []
    for x in bits(opposite):
        away, e = base & ~g.adj[x], 0
        while away:
            low = away & -away
            e |= local[low]
            away ^= low
        edges.append(e)
    return Hypergraph(len(ids), edges), ids


def _shape(edges: frozenset) -> frozenset:
    """An isomorphic copy of ``edges`` on only the vertices they use, which
    are renumbered 0.. by (degree, sorted sizes of the edges through the
    vertex), ties by index.  The signature is an isomorphism invariant, so
    isomorphic edge sets often get equal shapes; only ties can give them
    different ones."""
    through: dict[int, list[int]] = {}   # vertex bit -> sizes of its edges, sorted
    for e in sorted(edges, key=int.bit_count):
        size = e.bit_count()
        while e:
            low = e & -e
            through.setdefault(low, []).append(size)
            e ^= low
    order = sorted(through, key=lambda v: (len(through[v]), through[v], v))
    label = {v: 1 << i for i, v in enumerate(order)}
    shape = []
    for e in edges:
        m = 0
        while e:
            low = e & -e
            m |= label[low]
            e ^= low
        shape.append(m)
    return frozenset(shape)


def fractional_transversality(h: Hypergraph) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact optimum of the fractional covering program together with an
    optimal weight vector."""
    if not all(h.edges):
        raise ValueError("empty hyperedge: covering program infeasible")
    if not h.edges:
        return ZERO, (ZERO,) * h.n
    a_ub = [[-(e >> v & 1) for v in range(h.n)] for e in h.edges]
    res = solve_lp([1] * h.n, a_ub=a_ub, b_ub=[-1] * len(h.edges))
    if res.status != "optimal":
        raise RuntimeError(f"fractional transversal LP is {res.status}, not optimal")
    return res.value, res.x


def greedy_transversal(h: Hypergraph) -> int:
    """Mask of a hitting set by repeated max-coverage choice (lowest index on
    ties).  ``inc[v]`` has bit i set when edge i holds v."""
    if not all(h.edges):
        raise ValueError("empty hyperedge cannot be hit")
    inc = [0] * h.n
    for i, e in enumerate(h.edges):
        bit = 1 << i
        while e:
            low = e & -e
            inc[low.bit_length() - 1] |= bit
            e ^= low
    uncovered = (1 << len(h.edges)) - 1
    chosen = 0
    while uncovered:
        best, most = 0, -1
        for v, row in enumerate(inc):
            hits = (row & uncovered).bit_count()
            if hits > most:
                best, most = v, hits
        chosen |= 1 << best
        uncovered &= ~inc[best]
    return chosen


def exact_min_transversal(h: Hypergraph) -> int:
    """Mask of a minimum hitting set by branch and bound; intended for
    n <= 20."""
    if h.n > 20:
        raise ValueError("exact transversal capped at 20 vertices")
    best = greedy_transversal(h)

    def search(chosen: int, remaining: list[int]):
        nonlocal best
        if chosen.bit_count() >= best.bit_count():
            return
        if not remaining:
            best = chosen
            return
        for v in bits(min(remaining, key=int.bit_count)):
            search(chosen | 1 << v, [e for e in remaining if not e >> v & 1])

    search(0, list(h.edges))
    return best


@dataclass(frozen=True)
class VcResult:
    value: int
    exact: bool        # False means "at least value" (cap reached)
    degenerate: bool   # True for the edgeless hypergraph, where value 0 is a convention


def vc_dimension(h: Hypergraph, cap: int) -> VcResult:
    """Largest shattered vertex set, exhaustively up to size ``cap``."""
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if not h.edges:
        return VcResult(0, True, True)
    best = 0
    single = [1 << v for v in range(h.n)]
    for size in range(1, min(cap, h.n) + 1):
        # stop at too few edges for 2^size traces, or no shattered set (the
        # sum of distinct bits is their mask)
        if len(h.edges) < (1 << size) or not any(
                len({e & a for e in h.edges}) == 1 << size
                for a in map(sum, itertools.combinations(single, size))):
            break
        best = size
    if best >= cap:
        return VcResult(cap, False, False)
    return VcResult(best, True, False)


# -- separator for graphs excluding a fixed split pattern --------------------


@dataclass(frozen=True)
class PairPipelineReport:
    clique: int
    stable: int
    side: str
    tau: int
    tau_star: Fraction
    vc: VcResult
    cut_mask: int


def transversal_budget(phi: int) -> float:
    return 64.0 * phi * (math.log2(phi) + 2.0)


def _solved(memo: dict, kind: str, shape: frozenset, solve):
    """``solve`` once per build and kind on the hypergraph of ``shape`` over
    the vertices 0..m-1 it uses (the largest mask holds m-1); vertices in no
    edge change neither tau* nor the VC dimension."""
    if (kind, shape) not in memo:
        memo[kind, shape] = solve(Hypergraph(max(shape, default=0).bit_length(), shape))
    return memo[kind, shape]


def _set_values(memo: dict, key, edges: frozenset, side: str, side_of) -> tuple:
    """(side, tau*, VC dimension) of the hypergraph of side ``side`` with the
    distinct edges ``edges``, once per build and ``key``; the last two are
    None unless ``side_of(minimal edges, their _shape)`` picks ``side``.  The
    minimal edges decide the side and tau*, which are kept per minimal set."""
    if key not in memo:
        kept: list[int] = []
        for e in sorted(edges, key=int.bit_count):
            if all(f & e != f for f in kept):
                kept.append(e)
        minimal = frozenset(kept)
        if ("minimal", side, minimal) not in memo:
            shape = _shape(minimal)
            picked = side_of(minimal, shape)
            memo["minimal", side, minimal] = picked, shape, _solved(
                memo, "tau*", shape, lambda h: fractional_transversality(h)[0]
            ) if picked == side else None
        picked, shape, tau_star = memo["minimal", side, minimal]
        memo[key] = (picked, None, None) if picked != side else (
            picked, tau_star, _solved(memo, "vc", shape if edges == minimal else _shape(edges),
                                      lambda h: vc_dimension(h, cap=h.n + 1)))
    return memo[key]


def _side(memo: dict, g: Graph, ids: tuple[int, ...], edge_of: dict, s: int,
          minimal: frozenset, shape: frozenset) -> str:
    """The side of a pair (K, S) with K-side minimal edges ``minimal``, once
    per build and ``shape``: ``side_weights`` on the clique vertices in some
    minimal edge against one stable vertex per minimal edge.  Exact, as side
    K is feasible iff tau*(H_K) <= 2; the game argument gives S otherwise."""
    if ("side", shape) not in memo:
        k_used = mask_of(ids[i] for e in minimal for i in bits(e))
        s_min = mask_of(next(x for x in bits(s) if edge_of[x] == e) for e in minimal)
        memo["side", shape] = side_weights(conflict_digraph(g, k_used, s_min)).side
    return memo["side", shape]


def separate_pair_split_free(g: Graph, k: int, s: int,
                             budget: float, *, memo: dict | None = None
                             ) -> PairPipelineReport:
    """Run the weight/hypergraph/transversal pipeline on one disjoint pair of
    masks and return the separating cut with its certificates.  The stable
    side runs on complement(g), and its cut is complemented back to g.

    ``memo`` holds what one build has found: per clique, each outside
    vertex's hyperedge (a pair's K-side edges are a gather over S); per
    sorted K-side edge tuple (side, tau*, VC, transversal); per distinct edge
    set (side, tau*, VC); per ``_shape`` of minimal edges (side, tau*) or of
    distinct edges (VC), the value solved on the shape, which isomorphic
    edge sets share.  Without a memo the pair gets its own."""
    if memo is None:
        memo = {}
    if k & s:
        raise ValueError("base and opposite sets intersect")
    clique = memo.get(("clique", k))
    if clique is None:
        if not is_clique(g, k):
            raise ValueError(f"{list(bits(k))} is not a clique")
        h, ids = build_hypergraph(g, k, g.full_mask & ~k)
        clique = memo["clique", k] = ids, dict(zip(bits(g.full_mask & ~k), h.edges))
    ids, edge_of = clique
    edges, rest = [], s
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        if g.adj[x] & s:
            raise ValueError(f"{list(bits(s))} is not a stable set")
        edges.append(edge_of[x])
        rest ^= low
    edges = tuple(sorted(edges))  # what follows depends on the multiset alone
    entry = memo.get(edges)
    if entry is None:
        distinct = frozenset(edges)
        side, tau_star, vc = _set_values(
            memo, distinct, distinct, "K",
            lambda minimal, shape: _side(memo, g, ids, edge_of, s, minimal, shape))
        entry = memo[edges] = (side, tau_star, vc, greedy_transversal(
            Hypergraph(len(ids), edges)) if side == "K" else None)
    side, tau_star, vc, transversal = entry
    h_g = g
    if side == "S":
        h_g = complement(g)
        h, ids = build_hypergraph(h_g, s, k)
        _, tau_star, vc = _set_values(memo, ("S", h.edges), frozenset(h.edges), "S",
                                      lambda *_: "S")
        transversal = greedy_transversal(h)
    tau = transversal.bit_count()
    if tau > budget:
        raise RuntimeError(
            f"transversal size {tau} exceeds the budget {budget:.1f}; "
            "input graph is probably not in the stated class")
    u = h_g.full_mask
    while transversal:
        low = transversal & -transversal
        v = ids[low.bit_length() - 1]
        u &= h_g.adj[v] | 1 << v
        transversal ^= low
    if side == "S":
        u = g.full_mask & ~u
    if not separates(u, k, s):
        raise RuntimeError("pipeline produced a non-separating cut: implementation bug")
    return PairPipelineReport(k, s, side, tau, tau_star, vc, u)


def split_free_report(g: Graph, gamma: Graph
                      ) -> tuple[CutFamily, list[PairPipelineReport]]:
    """Cut family plus the per-pair pipeline reports for a graph with no
    induced copy of the split pattern ``gamma``."""
    options = split_partitions(gamma)
    if not options:
        raise ValueError("pattern graph is not split")
    phi = min(max(sp.clique_part.bit_count(), sp.stable_part.bit_count())
              for sp in options)
    if phi == 0:
        raise ValueError("pattern graph must be nonempty")
    hit = contains_induced(g, gamma)
    if hit is not None:
        raise ValueError(f"graph contains the forbidden pattern at {hit}")
    budget = transversal_budget(phi)
    memo: dict = {}
    reports = [separate_pair_split_free(g, k, s, budget, memo=memo)
               for k, s in disjoint_maximal_pairs(g)]
    return family_from_masks(g.n, [rep.cut_mask for rep in reports]), reports


def build_split_free_separator(g: Graph, gamma: Graph) -> CutFamily:
    family, _ = split_free_report(g, gamma)
    return family


# -- separator for graphs excluding a long path and its complement ------------


PK_BASE_SIZE = 12  # recursion levels this small take every bipartition


def path_free_constant(t_k: float) -> float:
    """-1 / log2(1 - t_k), through ``log1p``: ``1 - t_k`` rounds to 1 for a
    tiny t_k, whose constant is huge (inf below about 1e-308)."""
    return -math.log(2) / math.log1p(-t_k)


def build_pk_free_separator(g: Graph, k: int, t_k: float) -> CutFamily:
    """Recursive construction: peel off a completely non-adjacent pair of
    linear size (working in the complement when only an adjacent pair
    exists), separate the two overlapping remainders, and lift their cuts.
    Levels of at most ``PK_BASE_SIZE`` vertices are leaves and take every
    bipartition.

    A split leaves two parts of at most (1 - t_k) m vertices each, so it
    needs t_k <= 1/2, which makes c = ``path_free_constant(t_k)`` at least
    1, and there are at most 2 (n / PK_BASE_SIZE)^c <= n^c leaves.  The
    build raises when the leaves outnumber max(1, n^c)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < t_k < 1.0:
        raise ValueError("t_k must lie strictly inside (0, 1)")
    pk = path_graph(k)
    hit = contains_induced(g, pk)
    if hit is not None:
        raise ValueError(f"graph contains an induced {k}-vertex path at {hit}")
    hit = contains_induced(g, complement(pk))
    if hit is not None:
        raise ValueError(f"graph contains an induced complement path at {hit}")

    leaves = 0

    def rec(h: Graph, ids: tuple[int, ...]) -> list[int]:
        """Cuts of the level graph ``h`` lifted to g through ``ids``."""
        nonlocal leaves
        m = h.n
        if m <= PK_BASE_SIZE:
            leaves += 1
            return [mask_of(ids[i] for i in bits(sub)) for sub in range(1 << m)]
        needed = math.ceil(t_k * m)
        pair = find_biclique_pair(h, needed)
        if pair is None:
            raise BicliquePairNotFound(ids, needed)
        if pair.mode == "adjacent":
            level = mask_of(ids)
            return [level & ~a for a in rec(complement(h), ids)]
        rest = h.full_mask & ~pair.a & ~pair.b
        out = []
        for part in (pair.a | rest, pair.b | rest):
            sub, sub_ids = induced(h, bits(part))
            out.extend(rec(sub, tuple(ids[i] for i in sub_ids)))
        return out

    family = family_from_masks(g.n, rec(g, tuple(range(g.n))))
    if leaves > 1 and math.log(leaves) > path_free_constant(t_k) * math.log(g.n):
        raise RuntimeError("path-free separator exceeds its size bound")
    return family
