"""Oriented biclique packings, biclique coverings, fooling sets, and the
transformations tying them to colorings and separators.

Every side of a biclique or of a fooling pair is a vertex mask.
Verification is exhaustive and reports the lexicographically first violation,
so re-running in any order yields the same result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (Graph, _all_clique_masks, bits, complement,
                     complete_graph, from_edges, induced, is_clique,
                     is_proper_coloring, is_stable, mask_of)
from .separator import CutFamily, family_from_masks, separates


@dataclass(frozen=True)
class PackingCertificate:
    """Oriented bicliques of ``host``, each an (A, B) pair of masks oriented
    A to B."""
    host: Graph
    bicliques: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BicliqueCovering:
    host: Graph
    bicliques: tuple[tuple[int, int], ...]
    t: int


@dataclass(frozen=True)
class FoolingSet:
    """(clique, stable set) pairs of ``host``, as masks."""
    host: Graph
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    violation: str | None = None
    detail: tuple | None = None


# -- verifiers ----------------------------------------------------------------


def _first_bad_biclique(g: Graph, sides) -> VerifyResult | None:
    """The first (left, right) in ``sides`` that names a vertex outside
    ``g``, whose sides meet, or that misses an edge between them; None when
    every one is a biclique of ``g``."""
    for i, (left, right) in enumerate(sides):
        if (left | right) >> g.n:
            return VerifyResult(False, "vertex-out-of-range", (i,))
        if left & right:
            return VerifyResult(False, "sides-intersect", (i,))
        for a in bits(left):
            missing = right & ~g.adj[a]
            if missing:
                return VerifyResult(False, "incomplete-biclique",
                                    (i, a, next(bits(missing))))
    return None


def verify_packing(cert: PackingCertificate) -> VerifyResult:
    """Check completeness of every oriented biclique, coverage of every edge
    in at least one direction, and that no ordered pair is covered twice."""
    g = cert.host
    bad = _first_bad_biclique(g, cert.bicliques)
    if bad is not None:
        return bad
    cover_out = [0] * g.n
    cover_in = [0] * g.n
    seen_dup = None
    for left, right in cert.bicliques:
        for a in bits(left):
            dup = cover_out[a] & right
            if dup:
                b = next(bits(dup))
                if seen_dup is None or (a, b) < seen_dup:
                    seen_dup = (a, b)
            cover_out[a] |= right
        for b in bits(right):
            cover_in[b] |= left
    for u, row in enumerate(g.adj):
        # edges uv with v > u covered in neither direction; the lowest v first
        missed = row >> (u + 1) << (u + 1) & ~(cover_out[u] | cover_in[u])
        if missed:
            return VerifyResult(False, "uncovered-edge", (u, (missed & -missed).bit_length() - 1))
    if seen_dup is not None:
        return VerifyResult(False, "doubly-covered-arc", seen_dup)
    return VerifyResult(True)


def verify_covering(cov: BicliqueCovering) -> VerifyResult:
    """Every biclique complete, every edge covered between once and t times."""
    g = cov.host
    if cov.t < 1:
        return VerifyResult(False, "bad-multiplicity-cap", (cov.t,))
    bad = _first_bad_biclique(g, cov.bicliques)
    if bad is not None:
        return bad
    counts: dict[tuple[int, int], int] = {}
    for left, right in cov.bicliques:
        for a in bits(left):
            for b in bits(right):
                key = (a, b) if a < b else (b, a)
                counts[key] = counts.get(key, 0) + 1
    for u, v in g.edges():
        c = counts.get((u, v), 0)
        if c == 0:
            return VerifyResult(False, "uncovered-edge", (u, v))
        if c > cov.t:
            return VerifyResult(False, "over-covered-edge", (u, v, c))
    return VerifyResult(True)


def verify_fooling_set(fs: FoolingSet) -> VerifyResult:
    g = fs.host
    for i, (k, s) in enumerate(fs.pairs):
        if (k | s) >> g.n:
            return VerifyResult(False, "vertex-out-of-range", (i,))
        if k & s:
            return VerifyResult(False, "pair-intersects", (i,))
        if not is_clique(g, k):
            return VerifyResult(False, "not-a-clique", (i,))
        if not is_stable(g, s):
            return VerifyResult(False, "not-stable", (i,))
    for i in range(len(fs.pairs)):
        ki, si = fs.pairs[i]
        for j in range(i + 1, len(fs.pairs)):
            kj, sj = fs.pairs[j]
            if not (ki & sj) and not (kj & si):
                return VerifyResult(False, "uncrossed-pairs", (i, j))
    return VerifyResult(True)


# -- fooling sets -------------------------------------------------------------


def build_fooling_set(g: Graph) -> FoolingSet:
    """Fooling set of size n + 1 by recursion: split on the lowest vertex v,
    extend the neighborhood side's cliques and the non-neighborhood side's
    stable sets with v, and list the neighborhood side's pairs first.

    The recursion runs on an explicit stack of (vertices left, clique,
    stable set), so its depth is not bounded by Python's recursion limit."""
    pairs = []
    stack = [(g.full_mask, 0, 0)]
    while stack:
        vmask, k, s = stack.pop()
        if not vmask:
            pairs.append((k, s))
            continue
        v = (vmask & -vmask).bit_length() - 1
        bv = 1 << v
        # the neighborhood side goes on top, so it is listed first
        stack.append((vmask & ~g.adj[v] & ~bv, k, s | bv))
        stack.append((g.adj[v] & vmask, k | bv, s))
    return FoolingSet(g, tuple(pairs))


def _transpose(n: int, pairs) -> list[tuple[int, int]]:
    """For each vertex x < n, the index masks of the (first, second) pairs
    whose first side holds x and of those whose second side holds x."""
    firsts, seconds = [0] * n, [0] * n
    for i, (first, second) in enumerate(pairs):
        for x in bits(first):
            firsts[x] |= 1 << i
        for x in bits(second):
            seconds[x] |= 1 << i
    return list(zip(firsts, seconds))


def _vertex_bicliques(n: int, pairs) -> tuple[tuple[int, int], ...]:
    """For each vertex x < n with both sides nonempty, the oriented biclique
    (index mask of pairs whose clique holds x, index mask of pairs whose
    stable set holds x)."""
    return tuple((a, b) for a, b in _transpose(n, pairs) if a and b)


def fooling_to_packing(fs: FoolingSet) -> PackingCertificate:
    """Oriented packing of the complete graph on the fooling pairs: vertex x
    contributes the biclique (pairs whose clique holds x, pairs whose stable
    set holds x)."""
    check = verify_fooling_set(fs)
    if not check.ok:
        raise ValueError(f"input fooling set invalid: {check.violation} {check.detail}")
    cert = PackingCertificate(complete_graph(len(fs.pairs)),
                              _vertex_bicliques(fs.host.n, fs.pairs))
    out = verify_packing(cert)
    if not out.ok:
        raise RuntimeError(f"constructed packing invalid: {out.violation} {out.detail}")
    return cert


def certificate_aux_pairs(cert: PackingCertificate
                          ) -> tuple[Graph, list[tuple[int, int]]]:
    """Auxiliary graph on the bicliques (edge when two A-sides meet) plus, for
    each host vertex x, the clique of bicliques whose A-side holds x and the
    stable set of those whose B-side holds x."""
    nb = len(cert.bicliques)
    a_masks = [a for a, _ in cert.bicliques]
    edges = [(i, j) for i in range(nb) for j in range(i + 1, nb)
             if a_masks[i] & a_masks[j]]
    return from_edges(nb, edges), _transpose(cert.host.n, cert.bicliques)


def packing_to_fooling(cert: PackingCertificate) -> tuple[Graph, FoolingSet]:
    """From a packing of a complete graph, recover a fooling set of the same
    size on the auxiliary graph of the certificate."""
    check = verify_packing(cert)
    if not check.ok:
        raise ValueError(f"certificate invalid: {check.violation} {check.detail}")
    g = cert.host
    if g != complete_graph(g.n):
        raise ValueError("certificate host must be a complete graph")
    aux, pairs = certificate_aux_pairs(cert)
    fs = FoolingSet(aux, tuple(pairs))
    out = verify_fooling_set(fs)
    if not out.ok:
        raise RuntimeError(f"constructed fooling set invalid: {out.violation} {out.detail}")
    return aux, fs


# -- star partitions and brute-force packing numbers ---------------------------


def star_partition(n: int) -> PackingCertificate:
    """Edge partition of the complete graph into n - 1 oriented stars."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    host = complete_graph(n)
    bicliques = [(1 << i, host.full_mask >> (i + 1) << (i + 1)) for i in range(n - 1)]
    return PackingCertificate(host, tuple(bicliques))


def star_cover(g: Graph) -> PackingCertificate:
    """Edge partition of an arbitrary graph into oriented stars: vertex i
    against its higher-numbered neighbors."""
    bicliques = []
    for i in range(g.n):
        hi = g.adj[i] >> (i + 1) << (i + 1)
        if hi:
            bicliques.append((1 << i, hi))
    return PackingCertificate(g, tuple(bicliques))


class CapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"minimum exceeds the cap: value >= {cap + 1}")
        self.cap = cap


def _min_biclique_cover(g: Graph, t: int, oriented: bool, cap: int) -> int:
    """Least k such that k complete bipartite subgraphs of ``g`` cover every
    edge at least once and at most ``t`` times; with ``oriented`` each one
    carries an orientation and no arc (ordered edge) may be used twice.

    Each nonempty L is paired with every nonempty subset R of its common
    neighbourhood, so every complete (L, R) is listed once, within 3^n
    steps; unoriented, R lies above the lowest vertex of L.  The search
    branches on the lowest uncovered edge, with edges indexed
    lexicographically, and ``layers[j]`` holds the edges covered more than
    j times.  Raises CapExceeded when the minimum is larger than ``cap``."""
    n = g.n
    eidx = {e: i for i, e in enumerate(g.edges())}
    full = (1 << len(eidx)) - 1
    bicliques = []
    for lm in range(1, 1 << n):
        common = g.full_mask
        for a in bits(lm):
            common &= g.adj[a]
        if not oriented:
            common &= -(lm & -lm)
        rm = common
        while rm:
            em = arcs = 0
            for x in bits(lm):
                for y in bits(rm):
                    em |= 1 << eidx[min(x, y), max(x, y)]
                    arcs |= 1 << (x * n + y)
            bicliques.append((em, arcs if oriented else 0))
            rm = (rm - 1) & common

    def search(budget: int, layers: tuple, used_arcs: int) -> bool:
        uncovered = full & ~layers[0]
        if not uncovered:
            return True
        if budget == 0:
            return False
        low = uncovered & -uncovered
        for em, arcs in bicliques:
            if em & low and not em & layers[-1] and not arcs & used_arcs:
                grown = (layers[0] | em,) + tuple(
                    layers[j] | layers[j - 1] & em for j in range(1, t))
                if search(budget - 1, grown, used_arcs | arcs):
                    return True
        return False

    for k in range(cap + 1):
        if search(k, (0,) * t, 0):
            return k
    raise CapExceeded(cap)


def min_bp_bruteforce(g: Graph, cap: int) -> int:
    """Exact minimum number of edge-disjoint complete bipartite subgraphs
    partitioning the edge set; intended for n <= 6.  Raises CapExceeded when
    the minimum is larger than ``cap``."""
    if g.n > 6:
        raise ValueError("brute-force packing number capped at 6 vertices")
    return _min_biclique_cover(g, 1, False, cap)


def min_bpt_bruteforce(g: Graph, t: int, cap: int) -> int:
    """Exact minimum size of a covering by complete bipartite subgraphs with
    every edge covered between once and t times; n <= 6 only."""
    if g.n > 6:
        raise ValueError("brute-force covering number capped at 6 vertices")
    if t < 1:
        raise ValueError("multiplicity cap must be positive")
    return _min_biclique_cover(g, t, False, cap)


def min_bpor_bruteforce(g: Graph, cap: int) -> int:
    """Exact minimum size of an oriented packing certificate; n <= 6 only."""
    if g.n > 6:
        raise ValueError("brute-force oriented packing capped at 6 vertices")
    return _min_biclique_cover(g, 2, True, cap)


# -- separators <-> colorings --------------------------------------------------


def separator_to_coloring(g: Graph, cert: PackingCertificate,
                          family: CutFamily) -> tuple[int, ...]:
    """Color every vertex by the first cut separating its associated
    (clique, stable set) pair in the certificate's auxiliary graph.  The
    coloring is proper; uses at most one color per cut."""
    check = verify_packing(cert)
    if not check.ok:
        raise ValueError(f"certificate invalid: {check.violation} {check.detail}")
    aux, pairs = certificate_aux_pairs(cert)
    if family.host_n != aux.n:
        raise ValueError("cut family lives on the wrong host")
    colors = []
    for x, (kx, sx) in enumerate(pairs):
        for idx, a in enumerate(family.masks):
            if separates(a, kx, sx):
                colors.append(idx)
                break
        else:
            raise ValueError(f"pair of vertex {x} is separated by no cut")
    colors = tuple(colors)
    if not is_proper_coloring(g, colors):
        raise RuntimeError("derived coloring is improper: implementation bug")
    return colors


def pairs_packing(g: Graph) -> tuple[Graph, list[tuple[int, int]],
                                     PackingCertificate]:
    """Auxiliary graph on every disjoint (clique, stable set) pair, both sides
    possibly empty, together with the vertex-indexed oriented packing of it."""
    if g.n > 8:
        raise ValueError("pair enumeration capped at 8 vertices")
    stables = list(_all_clique_masks(complement(g)))
    pairs = [(k, s) for k in _all_clique_masks(g) for s in stables if not k & s]
    bicliques = _vertex_bicliques(g.n, pairs)
    # pairs cross when a vertex lies in the clique of one and the stable set
    # of the other: the aux graph is the union of the vertex bicliques
    adj = [0] * len(pairs)
    for a, b in bicliques:
        for i in bits(a):
            adj[i] |= b
        for j in bits(b):
            adj[j] |= a
    aux = Graph(len(pairs), adj, validate=False)
    cert = PackingCertificate(aux, bicliques)
    out = verify_packing(cert)
    if not out.ok:
        raise RuntimeError(f"pair packing invalid: {out.violation} {out.detail}")
    return aux, pairs, cert


def pair_coloring_to_separator(g: Graph, pairs, coloring) -> CutFamily:
    """Each color class of the pair graph yields one cut: the union of its
    cliques against the rest.  Within a class the clique union must miss the
    stable-set union."""
    if len(coloring) != len(pairs):
        raise ValueError(f"coloring has {len(coloring)} colors for {len(pairs)} pairs")
    by_color: dict[int, tuple[int, int]] = {}
    for idx, (k, s) in enumerate(pairs):
        kc, sc = by_color.get(coloring[idx], (0, 0))
        by_color[coloring[idx]] = (kc | k, sc | s)
    for c, (kc, sc) in by_color.items():
        if kc & sc:
            raise ValueError(f"color class {c} mixes intersecting pairs; "
                             "coloring is not proper for the pair graph")
    return family_from_masks(g.n, (by_color[c][0] for c in sorted(by_color)))


# -- multiplicity refinement (labels) and coloring composition -----------------


@dataclass(frozen=True)
class RefinedPartition:
    subgraph: Graph                       # edges covered exactly t times
    partition: BicliqueCovering           # 1-covering of the subgraph
    labels: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def refine_t_covering(g: Graph, cov: BicliqueCovering) -> RefinedPartition:
    """Group the exactly-t-covered edges by their label: the sorted tuple of
    covering biclique indices plus, per index, which side holds the endpoint
    that the lowest-indexed covering biclique keeps on its left.  Each label
    class is a complete bipartite graph and the classes partition the
    exactly-t subgraph.

    Anchoring the signs to the first biclique (rather than to the vertex
    order) is what makes every class complete: with vertex-order signs, an
    edge whose left-side endpoint happens to carry the higher index flips its
    sign vector and leaves its class with a hole."""
    check = verify_covering(cov)
    if not check.ok:
        raise ValueError(f"covering invalid: {check.violation} {check.detail}")
    t = cov.t
    cover_lists: dict[tuple[int, int], list[int]] = {}
    for idx, (left, right) in enumerate(cov.bicliques):
        for a in bits(left):
            for b in bits(right):
                key = (a, b) if a < b else (b, a)
                cover_lists.setdefault(key, []).append(idx)
    exact_edges = [e for e in g.edges() if len(cover_lists.get(e, ())) == t]
    sub = from_edges(g.n, exact_edges)
    classes: dict[tuple, list[tuple[int, int]]] = {}
    for (u, v) in exact_edges:
        idxs = tuple(sorted(cover_lists[(u, v)]))
        anchor = u if cov.bicliques[idxs[0]][0] >> u & 1 else v
        signs = tuple(-1 if cov.bicliques[i][0] >> anchor & 1 else 1 for i in idxs)
        classes.setdefault((idxs, signs), []).append((u, v))
    bicliques = []
    labels = []
    for label in sorted(classes):
        first_left = cov.bicliques[label[0][0]][0]
        lows = highs = 0
        for (u, v) in classes[label]:
            low, high = (u, v) if first_left >> u & 1 else (v, u)
            lows |= 1 << low
            highs |= 1 << high
        # the class's distinct edges run from lows to highs, so it is
        # complete exactly when it has |lows| |highs| of them
        if lows & highs or len(classes[label]) != lows.bit_count() * highs.bit_count():
            raise RuntimeError("label class is not complete bipartite: implementation bug")
        bicliques.append((lows, highs))
        labels.append(label)
    part = BicliqueCovering(sub, tuple(bicliques), 1)
    out = verify_covering(part)
    if not out.ok:
        raise RuntimeError(f"refined partition invalid: {out.violation} {out.detail}")
    return RefinedPartition(sub, part, tuple(labels))


def compose_coloring(g: Graph, cov: BicliqueCovering, base_colorer) -> tuple[int, ...]:
    """Proper coloring of g built by recursion on the multiplicity cap: color
    the exactly-t subgraph through its label partition, then recurse on every
    color class, whose restricted covering has multiplicity below t."""
    check = verify_covering(cov)
    if not check.ok:
        raise ValueError(f"covering invalid: {check.violation} {check.detail}")
    if cov.t == 1:
        colors = tuple(base_colorer(g, cov))
        if not is_proper_coloring(g, colors):
            raise ValueError("base colorer returned an improper coloring")
        return colors
    refined = refine_t_covering(g, cov)
    alpha = tuple(base_colorer(refined.subgraph, refined.partition))
    if not is_proper_coloring(refined.subgraph, alpha):
        raise ValueError("base colorer returned an improper coloring")
    final: list[tuple[int, int] | None] = [None] * g.n
    for a_color in sorted(set(alpha)):
        sub, ids = induced(g, [v for v in range(g.n) if alpha[v] == a_color])
        restricted = tuple(
            tuple(mask_of(i for i, v in enumerate(ids) if side >> v & 1) for side in sides)
            for sides in cov.bicliques)
        subcov = BicliqueCovering(sub, restricted, cov.t - 1)
        beta = compose_coloring(sub, subcov, base_colorer)
        for local, v in enumerate(ids):
            final[v] = (a_color, beta[local])
    palette = sorted(set(final))
    lookup = {c: i for i, c in enumerate(palette)}
    colors = tuple(lookup[c] for c in final)
    if not is_proper_coloring(g, colors):
        raise RuntimeError("composed coloring improper: implementation bug")
    return colors
