"""Slow scalar reference implementations that the library is tested
against, and fixture builders that only tests use."""

import itertools
from fractions import Fraction

from csslab.csp import (CcpInstance, MalformedCovering, NotReallyThreeColorable,
                        StubbornInstance, TwoSatInstance, _derived_graph, _translate,
                        really_3colorable, stubborn_assignment_compatible, trivial_stubborn,
                        verify_3ccp_solution, verify_stubborn_solution)
from csslab.formats import (_PART_TOKENS, FormatError, _header, _reject_rows_past,
                            _split_header)
from csslab.graphs import (Graph, bits, complement, from_edges, greedy_coloring, induced,
                           mask_of, maximal_cliques, maximal_stables, split_partitions)
from csslab.lp import LpResult
from csslab.packing import (BicliqueCovering, PackingCertificate, VerifyResult,
                            _first_bad_biclique)
from csslab.rng import bernoulli_threshold
from csslab.separator import (CutFamily, SeparationReport, SeparatorBuildError,
                              disjoint_maximal_pairs, family_from_masks)
from csslab.transversal import (Hypergraph, PairPipelineReport, build_hypergraph,
                                conflict_digraph, fractional_transversality,
                                greedy_transversal, side_weights, vc_dimension)


def set_of(mask: int) -> frozenset:
    """The vertex set of a mask: the reference form of a vertex set."""
    return frozenset(bits(mask))


def set_maximal_cliques(g) -> list:
    """``maximal_cliques`` on frozensets: Bron-Kerbosch without pivoting on
    neighbour sets, sorted by sorted member list.  The graph on no vertices
    has no maximal cliques, as in the library."""
    nbrs = [frozenset(v for v in range(g.n) if g.has_edge(u, v)) for u in range(g.n)]
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
        for v in sorted(p):
            expand(r | {v}, p & nbrs[v], x & nbrs[v])
            p, x = p - {v}, x | {v}

    if g.n:
        expand(frozenset(), frozenset(range(g.n)), frozenset())
    return sorted(out, key=lambda s: tuple(sorted(s)))


def set_maximal_stables(g) -> list:
    """``maximal_stables`` on frozensets."""
    return set_maximal_cliques(complement(g))


def set_split_partitions(g) -> list:
    """``split_partitions`` as (clique part, stable part) frozenset pairs, by
    trying every vertex subset as the clique part."""
    def edges_in(s):
        return [g.has_edge(x, y) for x, y in itertools.combinations(sorted(s), 2)]

    everyone = frozenset(range(g.n))
    out = []
    for r in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            u = frozenset(combo)
            if all(edges_in(u)) and not any(edges_in(everyone - u)):
                out.append((u, everyone - u))
    return sorted(out, key=lambda p: tuple(sorted(p[0])))


def _part_sizes(rnd, n: int, k: int) -> list[int]:
    """k positive sizes summing to n, cut at random."""
    cuts = sorted(rnd.sample(range(1, n), k - 1))
    return [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]


def substitution_graph(rnd, n: int):
    """A random graph on n vertices built from single vertices by disjoint
    unions, joins, and substitution of five graphs into the vertices of a
    C5 (module i complete to modules i - 1 and i + 1 mod 5).  P5 and its
    complement are prime, and C5 is P5-free and self-complementary, so every
    such graph is P5-free and co-P5-free."""
    if n == 1:
        return from_edges(1, [])
    op = rnd.choice(("union", "join", "c5") if n >= 5 else ("union", "join"))
    parts = [substitution_graph(rnd, m) for m in _part_sizes(rnd, n, 5 if op == "c5" else 2)]
    start = [0]
    for part in parts:
        start.append(start[-1] + part.n)
    edges = [(u + lo, v + lo) for part, lo in zip(parts, start) for u, v in part.edges()]
    links = {"union": [], "join": [(0, 1)], "c5": [(i, (i + 1) % 5) for i in range(5)]}[op]
    for i, j in links:
        edges += [(min(u, v), max(u, v)) for u in range(start[i], start[i + 1])
                  for v in range(start[j], start[j + 1])]
    return from_edges(n, edges)


def as_covering(cert, t: int) -> BicliqueCovering:
    """The packing certificate's bicliques, orientation forgotten, as a
    covering with multiplicity cap ``t``: a star partition is a 1-covering,
    and any packing certificate a 2-covering (once per direction)."""
    return BicliqueCovering(cert.host, cert.bicliques, t)


def all_cuts_family(n: int) -> CutFamily:
    """Every side-A subset of n vertices, which separates every pair."""
    return family_from_masks(n, range(1 << n))


def pairwise_3ccp_solution(inst, coloring) -> bool:
    """``verify_3ccp_solution`` pair by pair: no pair uv whose endpoints both
    carry the color of uv, read from the flat ``inst.colors``."""
    return not any(coloring[u] == coloring[v] == c for (u, v), c in
                   zip(itertools.combinations(range(inst.n), 2), inst.colors))


def product_filter_3ccp(inst) -> list:
    """``all_3ccp_solutions`` by filtering all of {0, 1, 2}^n through
    ``verify_3ccp_solution``."""
    return [c for c in itertools.product((0, 1, 2), repeat=inst.n)
            if verify_3ccp_solution(inst, c)]


def scan_covering_covers(covering, solutions) -> list:
    """``covering_covers`` by scanning the covering for each solution."""
    return [sol for sol in solutions
            if not any(stubborn_assignment_compatible(la, sol) for la in covering)]


def per_assignment_covering_covers(covering, solutions) -> list:
    """``covering_covers`` with the OR of each list's solution bitsets
    recomputed for every assignment, confirming each newly covered solution
    by ``stubborn_assignment_compatible``."""
    solutions = list(solutions)
    index = [{} for _ in range(len(solutions[0]))] if solutions else []
    for i, sol in enumerate(solutions):
        for row, value in zip(index, sol):
            row[value] = row.get(value, 0) | 1 << i
    uncovered = (1 << len(solutions)) - 1
    for la in covering:
        if not uncovered:
            break
        allowed = uncovered
        for row, lst in zip(index, la):
            ored = 0
            for value in lst:
                ored |= row.get(value, 0)
            allowed &= ored
        for i in bits(allowed):
            if not stubborn_assignment_compatible(la, solutions[i]):
                raise RuntimeError(
                    f"implementation bug: solution index allows {solutions[i]} "
                    f"under an assignment that does not")
        uncovered &= ~allowed
    return [solutions[i] for i in bits(uncovered)]


def per_vertex_side(inst, x: int, cover_stubborn, frame):
    """``csp._side`` translating every vertex of every (main, refine)
    assignment pair afresh."""
    _, near, far = frame
    main, pool = _derived_graph(inst, inst.classes[far][x], (near, far))
    refine, _ = _derived_graph(inst, inst.classes[far][x], (near,))
    main_cov = cover_stubborn(trivial_stubborn(main))
    refine_cov = cover_stubborn(trivial_stubborn(refine))
    if not pool:
        return pool, [()]
    return pool, list(dict.fromkeys(
        tuple(frozenset(frame[c] for c in _translate(f[v], fp[v]))
              for v in range(len(pool)))
        for f in main_cov for fp in refine_cov))


def per_target_3ccp_covering(inst, x: int, cover_stubborn, target: int = 0) -> list:
    """``stubborn_to_3ccp_covering`` on ``per_vertex_side``, running the
    really-3-colorable test for the target and then the other two colors."""
    if not 0 <= x < inst.n:
        raise ValueError(f"vertex {x} is not in the {inst.n}-vertex instance")
    perm = [0, 1, 2]
    perm[0], perm[target] = target, 0
    a, b, c = perm
    ok, _ = really_3colorable(inst, x, a)
    if not ok:
        return []
    for other in (b, c):
        ok, wit = really_3colorable(inst, x, other)
        if not ok:
            raise NotReallyThreeColorable(x, other, wit)
    c_pool, c_side = per_vertex_side(inst, x, cover_stubborn, (a, b, c))
    b_pool, b_side = per_vertex_side(inst, x, cover_stubborn, (a, c, b))
    out = []
    for cl in c_side:
        for bl in b_side:
            la = [None] * inst.n
            la[x] = frozenset({a})
            for v in bits(inst.classes[a][x]):
                la[v] = frozenset({b, c})
            for v, lst in zip(c_pool, cl):
                la[v] = lst
            for v, lst in zip(b_pool, bl):
                la[v] = lst
            out.append(tuple(la))
    return list(dict.fromkeys(out))


def per_target_full_3ccp_covering(inst, x: int, cover_stubborn) -> list:
    """``full_3ccp_covering_via_stubborn`` as the union of the three
    ``per_target_3ccp_covering`` calls, nine really-3-colorable tests."""
    return list(dict.fromkeys(
        la for target in (0, 1, 2)
        for la in per_target_3ccp_covering(inst, x, cover_stubborn, target)))


def unmemoised_ccp_covering_to_separator(g, covering) -> CutFamily:
    """``ccp_covering_to_separator`` classifying lists by comparison and
    enumerating the split partitions of every assignment's {A,B} set."""
    ab, bc, ac = frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})
    masks = []
    for la in covering:
        if len(la) != g.n:
            raise ValueError("assignment length must match the graph")
        x_mask = y_mask = 0
        for v, lst in enumerate(la):
            lst = frozenset(lst)
            if lst == ab:
                x_mask |= 1 << v
            elif lst == bc or lst == frozenset({1}) or lst == frozenset({2}):
                y_mask |= 1 << v
            elif not (lst == ac or lst == frozenset({0})):
                raise MalformedCovering(f"vertex {v} carries unusable list {sorted(lst)}")
        sub, ids = induced(g, bits(x_mask))
        for sp in split_partitions(sub):
            masks.append(y_mask | mask_of(ids[i] for i in bits(sp.clique_part)))
    return family_from_masks(g.n, masks)


def product_filter_maximal_stubborn(inst) -> list:
    """``all_maximal_stubborn_solutions`` by filtering all of {1, 2, 3, 4}^n,
    the lists checked only by ``verify_stubborn_solution``."""
    return [part for part in itertools.product((1, 2, 3, 4), repeat=inst.graph.n)
            if (chk := verify_stubborn_solution(inst, part)).valid and chk.maximal]


def pairs_cross(p, q) -> bool:
    """Two (clique, stable set) pairs of vertex sets cross when the clique of
    one meets the stable set of the other: the adjacency of the pair graph
    that ``pairs_packing`` builds."""
    return bool(p[0] & q[1] or q[0] & p[1])


def greedy_base_colorer(h, partition) -> tuple[int, ...]:
    """First-fit greedy base colorer for ``compose_coloring``."""
    return greedy_coloring(h)


def set_greedy_coloring(g) -> tuple[int, ...]:
    """First-fit coloring in vertex order from the set of colors already on
    each vertex's neighbors: the reference for ``greedy_coloring``."""
    colors = [-1] * g.n
    for v in range(g.n):
        taken = {colors[w] for w in bits(g.adj[v]) if colors[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return tuple(colors)


def recursive_fooling_pairs(g) -> list[tuple[int, int]]:
    """The pairs of ``build_fooling_set`` by plain recursion: split on the
    lowest vertex v, extend the neighborhood side's cliques and the
    non-neighborhood side's stable sets with v, neighborhood side first."""

    def rec(vmask: int) -> list[tuple[int, int]]:
        if vmask == 0:
            return [(0, 0)]
        v = (vmask & -vmask).bit_length() - 1
        bv = 1 << v
        nb = g.adj[v] & vmask
        nonnb = vmask & ~g.adj[v] & ~bv
        part1 = [(k | bv, s) for k, s in rec(nb)]
        part2 = [(k, s | bv) for k, s in rec(nonnb)]
        return part1 + part2

    return rec(g.full_mask)


def pair_walk_verify_packing(cert) -> VerifyResult:
    """``verify_packing`` with the coverage check walking ``g.edges()`` and
    testing both directions of each edge: the reference for its verdict and
    witness."""
    g = cert.host
    bad = _first_bad_biclique(g, cert.bicliques)
    if bad is not None:
        return bad
    cover_out = [0] * g.n
    seen_dup = None
    for left, right in cert.bicliques:
        for a in bits(left):
            dup = cover_out[a] & right
            if dup:
                b = next(bits(dup))
                if seen_dup is None or (a, b) < seen_dup:
                    seen_dup = (a, b)
            cover_out[a] |= right
    for u, v in g.edges():
        if not (cover_out[u] >> v & 1 or cover_out[v] >> u & 1):
            return VerifyResult(False, "uncovered-edge", (u, v))
    if seen_dup is not None:
        return VerifyResult(False, "doubly-covered-arc", seen_dup)
    return VerifyResult(True)


def unmemoised_pair_pipeline(g, k, s, budget: float) -> PairPipelineReport:
    """``separate_pair_split_free`` with nothing shared between pairs: the
    side from ``side_weights`` on the pair's conflict digraph, then tau* and
    the VC dimension solved on the chosen side's own hypergraph."""
    side = side_weights(conflict_digraph(g, k, s)).side
    h_g, base, opposite = (g, k, s) if side == "K" else (complement(g), s, k)
    h, ids = build_hypergraph(h_g, base, opposite)
    tau_star, _ = fractional_transversality(h)
    transversal = greedy_transversal(h)
    if transversal.bit_count() > budget:
        raise RuntimeError(f"transversal size {transversal.bit_count()} exceeds the budget")
    u = h_g.full_mask
    for i in bits(transversal):
        u &= h_g.adj[ids[i]] | (1 << ids[i])
    if side == "S":
        u = g.full_mask & ~u
    if k & ~u or s & u:
        raise RuntimeError("pipeline produced a non-separating cut")
    vc = vc_dimension(h, cap=h.n + 1)
    return PairPipelineReport(k, s, side, transversal.bit_count(), tau_star, vc, u)


def scan_greedy_transversal(n: int, edge_sets) -> frozenset:
    """``greedy_transversal`` on vertex sets: each round counts, per vertex in
    index order, the uncovered edges holding it, and takes the first vertex
    with the most (the lowest index on ties)."""
    edges = [frozenset(e) for e in edge_sets]
    uncovered = list(range(len(edges)))
    chosen = set()
    while uncovered:
        best_v, best_hits = -1, -1
        for v in range(n):
            hits = sum(1 for i in uncovered if v in edges[i])
            if hits > best_hits:
                best_v, best_hits = v, hits
        chosen.add(best_v)
        uncovered = [i for i in uncovered if best_v not in edges[i]]
    return frozenset(chosen)


# -- the SplitMix64 stream one output at a time, and the samplers on it ------


class ScalarSplitMix64:
    """SplitMix64 written out from its published constants, one output per
    call: the reference that ``SplitMix64.draws`` is checked against."""

    def __init__(self, seed: int):
        self.state = seed % 2**64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)


def scalar_bernoulli_mask(rng: ScalarSplitMix64, n: int, threshold: int) -> int:
    """One ``next_u64`` per vertex: bit v set iff the v-th draw is below threshold."""
    mask = 0
    for v in range(n):
        if rng.next_u64() < threshold:
            mask |= 1 << v
    return mask


def scalar_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one scalar draw per pair u < v, in lexicographic order."""
    rng = ScalarSplitMix64(seed)
    threshold = bernoulli_threshold(p)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_u64() < threshold:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def scalar_poset_comparability(n: int, seed: int) -> Graph:
    """Comparability graph of the dominance order on n scalar x-keys, then
    n scalar y-keys, ties broken by index."""
    rng = ScalarSplitMix64(seed)
    xs = [(rng.next_u64(), i) for i in range(n)]
    ys = [(rng.next_u64(), i) for i in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (xs[u] < xs[v]) == (ys[u] < ys[v])]
    return from_edges(n, edges)


def scalar_ccp_instance(n: int, seed: int) -> CcpInstance:
    """One scalar draw mod 3 per pair u < v, in lexicographic order."""
    rng = ScalarSplitMix64(seed)
    return CcpInstance(n, [rng.next_u64() % 3 for _ in range(n * (n - 1) // 2)])


def greedy_separator(g, p: float, seed: int, max_rounds: int | None = None, *,
                     stats_out: dict | None = None) -> CutFamily:
    """Pure-Python greedy random-cut construction on Python-int masks.

    Same contract as ``build_random_separator``, ``stats_out`` included:
    each round draws 32 candidates of n draws each, candidate after
    candidate, and keeps the first one covering the most uncovered disjoint
    maximal pairs.  The uncovered pairs are held as one int per clique, bit
    j for the j-th maximal stable set, built from the stable sets through
    each vertex, so a round walks the cliques and stable sets once per
    candidate and the pairs are never listed.
    """
    cliques, stables = maximal_cliques(g), maximal_stables(g)
    through = [0] * g.n
    for j, s in enumerate(stables):
        for v in bits(s):
            through[v] |= 1 << j
    every = (1 << len(stables)) - 1
    uncovered = {}
    for k in cliques:
        met = 0
        for v in bits(k):
            met |= through[v]
        if row := every & ~met:
            uncovered[k] = row
    pairs = sum(row.bit_count() for row in uncovered.values())
    cap = 2 * g.n ** 7 if max_rounds is None else max_rounds
    if stats_out is not None:
        stats_out.update(rounds=0, cap=cap, pairs=pairs)
    if not pairs:
        return CutFamily(g.n, ())
    rng = ScalarSplitMix64(seed)
    threshold = bernoulli_threshold(p)
    remaining = pairs
    chosen = []
    rounds = 0
    while remaining and rounds < cap:
        rounds += 1
        best = best_gain = best_outside = None
        for _ in range(32):
            a = scalar_bernoulli_mask(rng, g.n, threshold)
            outside = sum(1 << j for j, s in enumerate(stables) if s & a == 0)
            gain = sum((row & outside).bit_count()
                       for k, row in uncovered.items() if k & ~a == 0)
            if best_gain is None or gain > best_gain:
                best, best_gain, best_outside = a, gain, outside
        if not best_gain:
            continue
        for k in uncovered:
            if k & ~best == 0:
                uncovered[k] &= ~best_outside
        remaining -= best_gain
        chosen.append(best)
    if stats_out is not None:
        stats_out["rounds"] = rounds
    if remaining:
        raise SeparatorBuildError(remaining, rounds)
    return family_from_masks(g.n, chosen)


def pair_list_verify(g, family: CutFamily) -> SeparationReport:
    """Verify a CS-separator by walking the list of disjoint maximal pairs in
    lexicographic order and testing each pair against each cut: the
    reference that ``verify_cs_separator`` must match in verdict, witness
    and ``pairs_checked``."""
    if family.host_n != g.n:
        raise ValueError("family host size does not match the graph")
    if g.n == 0:
        return SeparationReport(True, None, 0)
    masks = family.masks
    checked = 0
    for k, s in disjoint_maximal_pairs(g):
        checked += 1
        for a in masks:
            if k & ~a == 0 and s & a == 0:
                break
        else:
            return SeparationReport(False, (k, s), checked)
    return SeparationReport(True, None, checked)


def fraction_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=False) -> LpResult:
    """Two-phase simplex on a tableau of ``Fraction``s with Bland's rule:
    the reference that ``csslab.lp.solve_lp`` must match pivot for pivot.

    The tableau's columns are x | slacks | artificials | rhs and its last
    row is the objective.  Shapes are not checked."""
    zero, one = Fraction(0), Fraction(1)

    def pivot(tab, basis, row, col):
        piv = tab[row][col]
        if piv != 1:
            tab[row] = [e / piv for e in tab[row]]
        prow = tab[row]
        for r, trow in enumerate(tab):
            f = trow[col]
            if f and r != row:
                tab[r] = [a - f * b for a, b in zip(trow, prow)]
        basis[row] = col

    def price_out(tab, basis):
        for r, col in enumerate(basis):
            pivot(tab, basis, r, col)

    def run_simplex(tab, basis):
        while True:
            col = next((j for j, v in enumerate(tab[-1][:-1]) if v < 0), None)
            if col is None:
                return True
            rows = [r for r in range(len(basis)) if tab[r][col] > 0]
            if not rows:
                return False
            pivot(tab, basis, min(rows, key=lambda r: (tab[r][-1] / tab[r][col], basis[r])),
                  col)

    nx = len(c)
    ub = list(zip(a_ub, b_ub))
    rows = [(a, b, nx + i) for i, (a, b) in enumerate(ub)]
    rows += [(a, b, None) for a, b in zip(a_eq, b_eq)]
    ncols = nx + len(ub)
    nart = sum(slack is None or b < 0 for _, b, slack in rows)
    tab, basis, art = [], [], ncols
    for a, b, slack in rows:
        row = [Fraction(v) for v in a] + [zero] * (len(ub) + nart) + [Fraction(b)]
        if slack is not None:
            row[slack] = one
        if b < 0:
            row = [-v for v in row]
        if slack is None or b < 0:
            slack, art = art, art + 1
            row[slack] = one
        tab.append(row)
        basis.append(slack)

    tab.append([zero] * ncols + [one] * nart + [zero])
    price_out(tab, basis)
    if not run_simplex(tab, basis) or tab[-1][-1]:
        return LpResult("infeasible", None, None)
    for r, col in enumerate(basis):
        if col >= ncols:
            j = next((j for j in range(ncols) if tab[r][j]), None)
            if j is not None:
                pivot(tab, basis, r, j)
    keep = [r for r, col in enumerate(basis) if col < ncols]
    sign = -1 if maximize else 1
    tab = [tab[r][:ncols] + tab[r][-1:] for r in keep]
    tab.append([sign * Fraction(v) for v in c] + [zero] * (ncols - nx + 1))
    basis = [basis[r] for r in keep]

    price_out(tab, basis)
    if not run_simplex(tab, basis):
        return LpResult("unbounded", None, None)
    x = [zero] * nx
    for r, col in enumerate(basis):
        if col < nx:
            x[col] = tab[r][-1]
    return LpResult("optimal", tuple(x), -sign * tab[-1][-1])


def has_edge_contains_induced(g, pattern):
    """``contains_induced`` by backtracking with one ``has_edge`` test per
    earlier pattern vertex: the first assignment in the same search order."""
    k = pattern.n
    if k > g.n:
        return None
    if k == 0:
        return ()
    order = []
    placed = 0
    remaining = set(range(k))
    while remaining:
        connected = [v for v in remaining if pattern.adj[v] & placed]
        pool = connected if connected else list(remaining)
        v = max(pool, key=lambda u: (pattern.degree(u), -u))
        order.append(v)
        placed |= 1 << v
        remaining.discard(v)

    assign = [-1] * k
    used = 0

    def backtrack(i):
        nonlocal used
        if i == k:
            return True
        pv = order[i]
        for cand in range(g.n):
            bc = 1 << cand
            if used & bc:
                continue
            if all(pattern.has_edge(pv, order[j]) == g.has_edge(cand, assign[order[j]])
                   for j in range(i)):
                assign[pv] = cand
                used |= bc
                if backtrack(i + 1):
                    return True
                used &= ~bc
                assign[pv] = -1
        return False

    return tuple(assign) if backtrack(0) else None


def unpruned_contains_induced(g, pattern):
    """``contains_induced`` without the degree filter: every unused host
    vertex is a candidate for every pattern vertex, so the search visits
    dead branches that the filter skips but finds the same first
    assignment."""
    k = pattern.n
    if k > g.n:
        return None
    if k == 0:
        return ()
    order = []
    placed = 0
    remaining = set(range(k))
    while remaining:
        connected = [v for v in remaining if pattern.adj[v] & placed]
        pool = connected if connected else list(remaining)
        v = max(pool, key=lambda u: (pattern.degree(u), -u))
        order.append(v)
        placed |= 1 << v
        remaining.discard(v)

    links = [[(pu, pattern.adj[order[i]] >> pu & 1) for pu in order[:i]] for i in range(k)]
    adj, full = g.adj, g.full_mask
    assign = [-1] * k

    def extend(i: int, used: int) -> bool:
        if i == k:
            return True
        cands = full & ~used
        for pu, edge in links[i]:
            nb = adj[assign[pu]]
            cands &= nb if edge else ~nb
        while cands:
            low = cands & -cands
            assign[order[i]] = low.bit_length() - 1
            if extend(i + 1, used | low):
                return True
            cands ^= low
        return False

    if extend(0, 0):
        return tuple(assign)
    return None


# -- parsers that read every vertex token with int() ----------------------------


def int_tokens(parts, n: int, lineno: int) -> list[int]:
    """The vertices the tokens ``parts`` name, each read by ``int()`` and
    range-checked, with no token table."""
    out = []
    for p in parts:
        try:
            v = int(p)
        except ValueError:
            raise FormatError(f"bad vertex token {p!r}", lineno)
        if not 0 <= v < n:
            raise FormatError(f"vertex {v} out of range [0, {n})", lineno)
        out.append(v)
    return out


def _int_token_edges(rows, start: int, n: int):
    """The edge list of the ``e <u> <v>`` lines from ``rows[start]`` on and
    the index of the first other non-blank line."""
    edges, seen = [], set()
    for pos in range(start, len(rows)):
        parts = rows[pos].split()
        if not parts:
            continue
        if parts[0] != "e":
            return edges, pos
        lineno = pos + 1
        if len(parts) != 3:
            raise FormatError("edge lines look like 'e <u> <v>'", lineno)
        u, v = int_tokens(parts[1:], n, lineno)
        if u == v:
            raise FormatError(f"self-loop at {u}", lineno)
        if u > v:
            raise FormatError("edges must be written with u < v", lineno)
        if (u, v) in seen:
            raise FormatError(f"duplicate edge ({u}, {v})", lineno)
        seen.add((u, v))
        edges.append((u, v))
    return edges, len(rows)


def int_token_parse_graph(text: str):
    """``parse_graph`` through an edge list and ``from_edges``."""
    rows, (n,) = _split_header(text, "graph", 1)
    edges, pos = _int_token_edges(rows, 1, n)
    if pos < len(rows):
        raise FormatError("edge lines look like 'e <u> <v>'", pos + 1)
    return from_edges(n, edges)


def _int_token_rows(text: str, keyword: str, noun: str):
    rows, (n, m) = _split_header(text, keyword, 2)
    if len(rows) < m + 1:
        raise FormatError(f"expected {m} {noun} lines", len(rows))

    def masks():
        for lineno in range(2, m + 2):
            yield lineno, mask_of(int_tokens(rows[lineno - 1].split(), n, lineno))
        _reject_rows_past(rows, m + 1)
    return n, masks()


def int_token_parse_cut_family(text: str) -> CutFamily:
    n, rows = _int_token_rows(text, "cuts", "cut")
    masks = {}
    for lineno, mask in rows:
        if mask in masks:
            raise FormatError("duplicate cut", lineno)
        masks[mask] = None
    return CutFamily(n, masks)


def int_token_parse_hypergraph(text: str) -> Hypergraph:
    n, rows = _int_token_rows(text, "hgraph", "hyperedge")
    return Hypergraph(n, [mask for _, mask in rows])


def int_token_parse_packing(text: str, host) -> PackingCertificate:
    rows, (n, k) = _split_header(text, "packing", 2)
    if n != host.n:
        raise FormatError(f"certificate is for {n} vertices, host has {host.n}", 1)
    if len(rows) < 1 + 2 * k:
        raise FormatError(f"expected {2 * k} side lines", len(rows))
    sides = []
    for lineno in range(2, 2 + 2 * k):
        tag, row = "AB"[lineno % 2], rows[lineno - 1]
        if not row.startswith(f"{tag}:"):
            raise FormatError(f"expected a '{tag}:' line", lineno)
        sides.append(mask_of(int_tokens(row[len(tag) + 1:].split(), n, lineno)))
    _reject_rows_past(rows, 1 + 2 * k)
    return PackingCertificate(host, tuple(zip(sides[::2], sides[1::2])))


def _per_line_lists(rows, start: int, tokens, noun: str):
    """A ``lists`` section read line by line, every line parsed anew."""
    (n,) = _header(rows[start] if start < len(rows) else "", start + 1, "lists", 1)
    if len(rows) < start + 1 + n:
        raise FormatError(f"expected {n} list lines", len(rows))
    lists = []
    for i in range(n):
        vals = []
        for tok in rows[start + 1 + i].split():
            if tok not in tokens:
                raise FormatError(f"unknown {noun} token {tok!r}", start + 2 + i)
            vals.append(tokens[tok])
        if not vals:
            raise FormatError(f"empty {noun} list", start + 2 + i)
        lists.append(frozenset(vals))
    return tuple(lists), start + 1 + n


def per_line_parse_covering(text: str, tokens, noun: str) -> list:
    """``parse_ccp_covering`` (``_COLOR_TOKENS``, "color") or
    ``parse_stubborn_covering`` (``_PART_TOKENS``, "part")."""
    rows = text.splitlines()
    out = []
    pos = 0
    while pos < len(rows):
        if not rows[pos].strip() or rows[pos].strip() == "--":
            pos += 1
            continue
        la, pos = _per_line_lists(rows, pos, tokens, noun)
        out.append(la)
    if not out:
        raise FormatError("no list assignments found")
    return out


def int_token_parse_stubborn(text: str) -> StubbornInstance:
    rows, (n,) = _split_header(text, "stubborn", 1)
    edges, pos = _int_token_edges(rows, 1, n)
    lists, end = _per_line_lists(rows, pos, _PART_TOKENS, "part")
    _reject_rows_past(rows, end)
    if len(lists) != n:
        raise FormatError("list section size disagrees with the header")
    return StubbornInstance(from_edges(n, edges), lists)


# -- the 2-SAT layer and the greedy pair search before their one-pass rewrites --


def resume_index_solve_2sat(ts: TwoSatInstance):
    """``solve_2sat`` with an ``on_stack`` list, boxed counters and DFS frames
    that resume at a successor index (iterative Tarjan).

    Literal node ids: 2v for the negation of variable v, 2v + 1 for the
    variable itself; with that numbering an unconstrained variable comes out
    False.
    """
    n = ts.nvars
    nn = 2 * n

    def node(lit: int) -> int:
        v = abs(lit) - 1
        return 2 * v + 1 if lit > 0 else 2 * v

    def negate(x: int) -> int:
        return x ^ 1

    adj: list[list[int]] = [[] for _ in range(nn)]
    for a, b in ts.clauses:
        adj[negate(node(a))].append(node(b))
        adj[negate(node(b))].append(node(a))

    index = [-1] * nn
    low = [0] * nn
    comp = [-1] * nn
    on_stack = [False] * nn
    stack: list[int] = []
    counter = [0]
    comp_count = [0]

    for root in range(nn):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = comp_count[0]
                    if w == v:
                        break
                comp_count[0] += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    out = []
    for v in range(n):
        if comp[2 * v] == comp[2 * v + 1]:
            return None
        out.append(comp[2 * v + 1] < comp[2 * v])
    return tuple(out)


def triple_sort_two_list_to_2sat(inst, la):
    """``two_list_to_2sat`` that sorts each list once per pass: variables,
    clauses and every decode.

    Per vertex with a two-color list: one variable per color, an "at least
    one" and an "at most one" clause.  Singleton lists contribute one
    variable forced true.  Every same-colored conflict along an edge whose
    color appears on both endpoints' lists adds an exclusion clause.
    Returns the instance plus a decoder from assignments to vertex colorings.
    """
    if len(la) != inst.n:
        raise ValueError("assignment length must match the instance")
    var_of: dict[tuple[int, int], int] = {}
    for v in range(inst.n):
        lst = sorted(set(la[v]))
        if not 1 <= len(lst) <= 2:
            raise ValueError(f"vertex {v} list must hold one or two colors")
        for c in lst:
            var_of[(v, c)] = len(var_of)
    clauses = []
    for v in range(inst.n):
        lst = sorted(set(la[v]))
        if len(lst) == 2:
            x = var_of[(v, lst[0])] + 1
            y = var_of[(v, lst[1])] + 1
            clauses.append((x, y))
            clauses.append((-x, -y))
        else:
            x = var_of[(v, lst[0])] + 1
            clauses.append((x, x))
    for (u, v), c in zip(itertools.combinations(range(inst.n), 2), inst.colors):
        xu = var_of.get((u, c))
        xv = var_of.get((v, c))
        if xu is not None and xv is not None:
            clauses.append((-(xu + 1), -(xv + 1)))
    ts = TwoSatInstance(len(var_of), tuple(clauses))

    def decode(assignment) -> tuple[int, ...]:
        colors = []
        for v in range(inst.n):
            lst = sorted(set(la[v]))
            chosen = [c for c in lst if assignment[var_of[(v, c)]]]
            if len(chosen) != 1:
                raise ValueError("assignment does not select exactly one color")
            colors.append(chosen[0])
        return tuple(colors)

    return ts, decode


def branchy_pair_search_greedy(g, size: int):
    """``_pair_search_greedy`` with a ``best = -1`` sentinel and one branch per
    side."""
    adj = g.adj
    full = g.full_mask
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            a, b = 1 << u, 1 << v
            while True:
                grown = False
                for side in (0, 1):
                    other = b if side == 0 else a
                    best = -1
                    for w in bits(full & ~(a | b)):
                        if other & adj[w] == 0:
                            best = w
                            break
                    if best >= 0:
                        if side == 0:
                            a |= 1 << best
                        else:
                            b |= 1 << best
                        grown = True
                if not grown:
                    break
            if a.bit_count() >= size and b.bit_count() >= size:
                return a, b
    return None
