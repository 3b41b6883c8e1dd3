"""Undirected simple graphs on indexed vertices, with the enumeration
machinery every other module builds on: maximal cliques and stable sets,
split partitions, induced-pattern search and large (non-)adjacent pairs.

A vertex set is an int mask throughout csslab: bit v is set iff vertex v is
a member.  Adjacency is one such mask per vertex (bit v of adj[u] set iff uv
is an edge), and cliques, stable sets, cut sides and certificate sides are
masks too.  Lists of colours and of parts hold values, not vertices, and
stay frozensets.  Lists of vertex sets come in lexicographic order of their
sorted member lists, ``tuple(bits(m))``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .rng import SplitMix64, bernoulli_threshold


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int):
    """Iterate set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable graph; ``n`` vertices, ``adj`` a tuple of neighbor bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj, *, validate: bool = True):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        if validate:
            for u in range(n):
                for v in bits(adj[u]):
                    if not adj[v] >> u & 1:
                        raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self.adj = adj

    # -- basic queries -------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def from_edges(n: int, edges) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v})")
        if adj[u] >> v & 1:
            raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj, validate=False)


# -- generators ---------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n, validate=False)


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)), validate=False)


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def net_graph() -> Graph:
    """Triangle 0-1-2 with pendant vertices 3, 4, 5 attached to 0, 1, 2."""
    return from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample; pair (u, v), u < v, consumes one SplitMix64 draw
    in lexicographic order and the edge is present iff draw < p * 2**64."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 0:
        raise ValueError("n must be nonnegative")
    flags = SplitMix64(seed).bernoulli_flags(n * (n - 1) // 2, bernoulli_threshold(p))
    adj = [0] * n
    for (u, v), edge in zip(itertools.combinations(range(n), 2), flags.tolist()):
        if edge:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, adj, validate=False)


def comparability_from_random_poset(n: int, seed: int) -> Graph:
    """Comparability graph of a random two-dimensional dominance order.

    Each vertex gets two 64-bit keys; u < v in the order iff both keys are
    smaller (ties broken by index, which almost never matters).
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    keys = SplitMix64(seed).draws(2 * n).tolist()
    xs = list(zip(keys[:n], range(n)))
    ys = list(zip(keys[n:], range(n)))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            below = xs[u] < xs[v] and ys[u] < ys[v]
            above = xs[u] > xs[v] and ys[u] > ys[v]
            if below or above:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj, validate=False)


# -- elementary operations ----------------------------------------------


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)),
                 validate=False)


def induced(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the tuple mapping new index -> original vertex."""
    ids = tuple(sorted(vertices))
    for v in ids:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(ids)}
    adj = [0] * len(ids)
    for i, v in enumerate(ids):
        for w in bits(g.adj[v]):
            j = pos.get(w)
            if j is not None:
                adj[i] |= 1 << j
    return Graph(len(ids), adj, validate=False), ids


def is_clique(g: Graph, m: int) -> bool:
    for v in bits(m):
        if m & ~g.adj[v] & ~(1 << v):
            return False
    return True


def is_stable(g: Graph, m: int) -> bool:
    for v in bits(m):
        if g.adj[v] & m:
            return False
    return True


# -- maximal cliques and stable sets --------------------------------------


# byte b -> b with its eight bits in reverse order
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def maximal_cliques(g: Graph) -> list[int]:
    """All inclusion-maximal cliques, Bron-Kerbosch with pivoting, returned in
    lexicographic order of their sorted member lists.

    Maximal cliques form an antichain, so of two of them the
    lexicographically smaller holds the lowest vertex where they differ:
    the order is that of the bit-reversed masks, descending.  The sort key
    is the mask's little-endian bytes with the bits of each byte reversed,
    which compare as the mask's bits read from bit 0 up."""
    if g.n == 0:
        return []
    out = []
    adj = g.adj
    # the (r, p, x) calls still to expand, each with p nonempty: an explicit
    # stack, so the depth is not bounded by Python's recursion limit
    stack = [(0, g.full_mask, 0)]
    while stack:
        r, p, x = stack.pop()
        # pivot: the lowest vertex of p | x with most neighbors inside p
        best_cnt = -1
        rest = p | x
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            cnt = (p & adj[u]).bit_count()
            if cnt > best_cnt:
                best, best_cnt = u, cnt
            rest ^= low
        cand = p & ~adj[best]
        while cand:
            bv = cand & -cand
            nv = adj[bv.bit_length() - 1]
            # a child with nothing left to add is maximal iff no vertex of x
            # extends it
            if p & nv:
                stack.append((r | bv, p & nv, x & nv))
            elif not x & nv:
                out.append(r | bv)
            cand ^= bv
            p ^= bv
            x |= bv
    width = (g.n + 7) // 8
    return sorted(out, key=lambda m: m.to_bytes(width, "little").translate(_REVERSED_BITS),
                  reverse=True)


def maximal_stables(g: Graph) -> list[int]:
    return maximal_cliques(complement(g))


# -- split structure -------------------------------------------------------


@dataclass(frozen=True)
class SplitPartition:
    clique_part: int
    stable_part: int


def is_split_graph(g: Graph) -> bool:
    """Degree-sequence split test (Hammer-Simeone)."""
    if g.n == 0:
        return True
    d = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    m = 0
    for i, di in enumerate(d, start=1):
        if di >= i - 1:
            m = i
    lhs = sum(d[:m])
    rhs = m * (m - 1) + sum(d[m:])
    return lhs == rhs


def _all_clique_masks(g: Graph):
    """Every vertex subset inducing a clique (including the empty set), in
    lexicographic order of sorted member lists."""
    n = g.n
    adj = g.adj

    def grow(current: int, lo: int):
        yield current
        for v in range(lo, n):
            bv = 1 << v
            if current & ~adj[v]:
                continue
            yield from grow(current | bv, v + 1)

    yield from grow(0, 0)


def split_partitions(g: Graph) -> list[SplitPartition]:
    """All bipartitions (U, W) of the vertices with U a clique and W stable,
    in the order of their clique parts.

    Empty iff the graph is not split.  Brute force over clique candidates,
    guarded by the degree-sequence split test; capped at 20 vertices.
    """
    if g.n > 20:
        raise ValueError("split_partitions is exhaustive; 20-vertex cap exceeded")
    if not is_split_graph(g):
        return []
    full = g.full_mask
    return [SplitPartition(u, full & ~u) for u in _all_clique_masks(g)
            if is_stable(g, full & ~u)]


# -- induced pattern search ------------------------------------------------


def contains_induced(g: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """Injective map (tuple indexed by pattern vertex) realizing pattern as an
    induced subgraph of g, or None.  Deterministic: lexicographically first
    assignment in the fixed search order."""
    k = pattern.n
    if k > g.n:
        return None
    if k == 0:
        return ()
    # order pattern vertices so each after the first attaches to a previous
    # one when possible; ties by degree then index for pruning
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

    # level i starts from the vertices with room for order[i]'s neighbours
    # and non-neighbours; placing order[i] at x keeps at each later level the
    # vertices adjacent to x exactly as in the pattern, and is skipped if that
    # empties a level.  Candidates are tried in increasing order
    adj = g.adj
    host_degree = [a.bit_count() for a in adj]
    room = []
    for u in order:
        d = pattern.degree(u)
        room.append(mask_of(v for v, dv in enumerate(host_degree)
                            if dv >= d and g.n - dv >= k - d))
    links = [[pattern.adj[order[j]] >> order[i] & 1 for j in range(i + 1, k)] for i in range(k)]
    assign = [-1] * k

    def extend(i: int, cands: list[int]) -> bool:
        if i == k:
            return True
        here, later = cands[0], cands[1:]
        while here:
            low = here & -here
            nb = adj[low.bit_length() - 1]
            narrowed = []
            for m, edge in zip(later, links[i]):
                m &= nb if edge else ~nb ^ low
                if not m:
                    break
                narrowed.append(m)
            else:
                assign[order[i]] = low.bit_length() - 1
                if extend(i + 1, narrowed):
                    return True
            here ^= low
        return False

    if extend(0, room):
        return tuple(assign)
    return None


# -- completely (non-)adjacent pairs ---------------------------------------


@dataclass(frozen=True)
class BicliquePair:
    a: int
    b: int
    mode: str  # "adjacent" | "nonadjacent"
    exact: bool


def _pair_search_exact(g: Graph, size: int) -> tuple[int, int] | None:
    """Masks of the first completely non-adjacent pair in the search order
    whose sides both reach ``size``; None when no such pair exists."""
    adj = g.adj
    full = g.full_mask
    for combo in itertools.combinations(range(g.n), size):
        a_mask = mask_of(combo)
        cand = full & ~a_mask
        for v in combo:
            cand &= ~adj[v]
        if cand.bit_count() >= size:
            # extend the seed side against the full opposite side
            a_full = 0
            for v in bits(full & ~cand):
                if cand & adj[v] == 0:
                    a_full |= 1 << v
            return a_full, cand
    return None


def _pair_search_greedy(g: Graph, size: int) -> tuple[int, int] | None:
    """Seed-and-grow heuristic from every non-edge; a miss proves nothing."""
    adj = g.adj
    full = g.full_mask
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            sides = [1 << u, 1 << v]
            grown = True
            while grown:
                grown = False
                for i in (0, 1):
                    w = next((w for w in bits(full & ~(sides[0] | sides[1]))
                              if sides[1 - i] & adj[w] == 0), None)
                    if w is not None:
                        sides[i] |= 1 << w
                        grown = True
            if min(map(int.bit_count, sides)) >= size:
                return tuple(sides)
    return None


def find_biclique_pair(g: Graph, min_size: int) -> BicliquePair | None:
    """Two disjoint vertex sets, each of size >= min_size, completely
    non-adjacent or completely adjacent (non-adjacent preferred).

    Only non-adjacent pairs are searched for: an adjacent pair of g is a
    non-adjacent pair of its complement.  Exact search for n <= 24 (a miss
    means no such pair exists); beyond that a greedy seed-and-grow heuristic
    whose misses are flagged exact=False.
    """
    if min_size < 1:
        raise ValueError("min_size must be positive")
    exact = g.n <= 24
    search = _pair_search_exact if exact else _pair_search_greedy
    for mode, h in (("nonadjacent", g), ("adjacent", complement(g))):
        hit = search(h, min_size)
        if hit is not None:
            return BicliquePair(*hit, mode, exact)
    return None


# -- coloring helper --------------------------------------------------------


def greedy_coloring(g: Graph) -> tuple[int, ...]:
    """First-fit proper coloring in vertex order: v takes the first color
    class, held as a vertex mask, that holds no neighbor of v."""
    colors = []
    classes = []
    for v, row in enumerate(g.adj):
        c = 0
        while c < len(classes) and row & classes[c]:
            c += 1
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
        colors.append(c)
    return tuple(colors)


def is_proper_coloring(g: Graph, colors) -> bool:
    """One color per vertex, and the ends of every edge differ."""
    return len(colors) == g.n and all(colors[u] != colors[v] for u, v in g.edges())
