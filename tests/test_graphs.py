import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csslab.graphs import (BicliquePair, Graph, _pair_search_greedy, bits, complement,
                           complete_graph, comparability_from_random_poset,
                           contains_induced, cycle_graph, empty_graph,
                           find_biclique_pair, from_edges, gen_gnp,
                           greedy_coloring, induced, is_clique,
                           is_proper_coloring, is_split_graph, is_stable,
                           mask_of, maximal_cliques, maximal_stables,
                           net_graph, path_graph, split_partitions)
from oracles import (branchy_pair_search_greedy, has_edge_contains_induced,
                     set_greedy_coloring, set_maximal_cliques, set_maximal_stables,
                     set_of, set_split_partitions, unpruned_contains_induced)

# ---------------------------------------------------------------- oracles


def brute_contains_induced(g, pattern):
    k = pattern.n
    for combo in itertools.permutations(range(g.n), k):
        if all(pattern.has_edge(i, j) == g.has_edge(combo[i], combo[j])
               for i in range(k) for j in range(i + 1, k)):
            return True
    return False


def brute_biclique_pair_exists(g, size, mode):
    verts = range(g.n)
    for a in itertools.combinations(verts, size):
        rest = [v for v in verts if v not in a]
        for b in itertools.combinations(rest, size):
            pairs = [(x, y) for x in a for y in b]
            if mode == "adjacent" and all(g.has_edge(x, y) for x, y in pairs):
                return True
            if mode == "nonadjacent" and not any(g.has_edge(x, y) for x, y in pairs):
                return True
    return False


# ---------------------------------------------------------------- generators


def test_gnp_extremes():
    assert gen_gnp(5, 0.0, 123).edge_count() == 0
    assert gen_gnp(5, 1.0, 123) == complete_graph(5)


def test_gnp_pinned_seed_concentration():
    g = gen_gnp(30, 0.5, 42)
    trials = 30 * 29 // 2
    mean, sigma = trials * 0.5, (trials * 0.25) ** 0.5
    assert mean - 4 * sigma <= g.edge_count() <= mean + 4 * sigma
    assert g.edge_count() == 209  # regression lock for the pinned seed


def test_gnp_deterministic():
    assert gen_gnp(12, 0.3, 7) == gen_gnp(12, 0.3, 7)
    assert gen_gnp(12, 0.3, 7) != gen_gnp(12, 0.3, 8)


def test_gnp_rejects_bad_p():
    with pytest.raises(ValueError):
        gen_gnp(5, 1.5, 0)


def test_comparability_generator_is_net_free():
    for seed in range(5):
        g = comparability_from_random_poset(14, seed)
        assert contains_induced(g, net_graph()) is None


# ---------------------------------------------------------------- basics


def test_complement_examples():
    assert complement(complete_graph(4)) == empty_graph(4)
    assert complement(empty_graph(4)) == complete_graph(4)
    g = gen_gnp(9, 0.4, 5)
    assert complement(complement(g)) == g


def test_p4_self_complementary():
    p4 = path_graph(4)
    c = complement(p4)
    # complement of 0-1-2-3 is the path 1-3, 3-0, 0-2 i.e. order (1, 3, 0, 2)
    assert sorted(c.edges()) == [(0, 2), (0, 3), (1, 3)]
    assert contains_induced(c, p4) is not None


def test_induced_examples():
    k3, ids = induced(complete_graph(5), {0, 1, 2})
    assert k3 == complete_graph(3) and ids == (0, 1, 2)
    g0, _ = induced(cycle_graph(5), frozenset())
    assert g0.n == 0
    g, ids = induced(cycle_graph(5), {0, 1, 3})
    assert ids == (0, 1, 3)
    assert sorted(g.edges()) == [(0, 1)]  # edge 0-1 survives, vertex 3 isolated
    with pytest.raises(ValueError):
        induced(complete_graph(3), {5})


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError, match="not symmetric"):
        Graph(257, (0b10,) + (0,) * 256)  # asymmetric past 256 vertices
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        from_edges(2, [(0, 5)])


# ---------------------------------------------------------------- cliques


def test_maximal_cliques_examples():
    assert maximal_cliques(complete_graph(4)) == [0b1111]
    assert maximal_cliques(empty_graph(3)) == [0b001, 0b010, 0b100]
    c5 = maximal_cliques(cycle_graph(5))
    assert c5 == [0b00011, 0b10001, 0b00110, 0b01100, 0b11000]


def test_maximal_stables_examples():
    assert maximal_stables(complete_graph(4)) == [1 << v for v in range(4)]
    assert maximal_stables(empty_graph(3)) == [0b111]
    assert len(maximal_stables(cycle_graph(5))) == 5


def test_maximal_cliques_against_bruteforce():
    rnd = random.Random(1)
    for trial in range(40):
        n = rnd.randint(1, 10)
        g = gen_gnp(n, rnd.choice([0.2, 0.5, 0.8]), trial)
        assert list(map(set_of, maximal_cliques(g))) == set_maximal_cliques(g)
        assert list(map(set_of, maximal_stables(g))) == set_maximal_stables(g)


# ---------------------------------------------------------------- split


def test_split_partitions_examples():
    single = split_partitions(complete_graph(1))
    assert [(sp.clique_part, sp.stable_part) for sp in single] == [(0, 0b1), (0b1, 0)]
    assert split_partitions(cycle_graph(5)) == []
    p3 = split_partitions(path_graph(3))
    assert [(sp.clique_part, sp.stable_part) for sp in p3] == \
        [(0b011, 0b100), (0b010, 0b101), (0b110, 0b001)]


def test_split_partitions_against_bruteforce():
    rnd = random.Random(3)
    for trial in range(40):
        n = rnd.randint(0, 8)
        g = gen_gnp(n, rnd.random(), 100 + trial)
        got = [(set_of(sp.clique_part), set_of(sp.stable_part)) for sp in split_partitions(g)]
        assert got == set_split_partitions(g)
        assert bool(got) == is_split_graph(g)


def test_split_partition_count_linear_bound():
    # working constant for the cited linear count: 2n + 2
    rnd = random.Random(9)
    seen_split = 0
    for trial in range(120):
        n = rnd.randint(1, 9)
        g = gen_gnp(n, rnd.random(), 500 + trial)
        parts = split_partitions(g)
        if parts:
            seen_split += 1
            assert len(parts) <= 2 * n + 2
        for sp in parts:
            assert is_clique(g, sp.clique_part)
            assert is_stable(g, sp.stable_part)
            assert sp.clique_part | sp.stable_part == (1 << n) - 1
            assert not sp.clique_part & sp.stable_part
    assert seen_split > 10


# ---------------------------------------------------------------- patterns


def test_contains_induced_examples():
    hit = contains_induced(cycle_graph(5), path_graph(4))
    assert hit is not None
    p4 = path_graph(4)
    g = cycle_graph(5)
    for i in range(4):
        for j in range(i + 1, 4):
            assert p4.has_edge(i, j) == g.has_edge(hit[i], hit[j])
    assert contains_induced(complete_graph(4), empty_graph(2)) is None
    net_hit = contains_induced(net_graph(), complete_graph(3))
    assert net_hit is not None and set(net_hit) == {0, 1, 2}


def test_contains_induced_against_bruteforce():
    rnd = random.Random(5)
    patterns = [path_graph(3), path_graph(4), cycle_graph(4), cycle_graph(5),
                complete_graph(3), empty_graph(3)]
    for trial in range(30):
        n = rnd.randint(3, 9)
        g = gen_gnp(n, rnd.choice([0.3, 0.5, 0.7]), 900 + trial)
        pat = patterns[trial % len(patterns)]
        got = contains_induced(g, pat)
        assert (got is not None) == brute_contains_induced(g, pat)
        if got is not None:
            assert len(set(got)) == pat.n
            for i in range(pat.n):
                for j in range(i + 1, pat.n):
                    assert pat.has_edge(i, j) == g.has_edge(got[i], got[j])


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


NAMED_PATTERNS = [net_graph(), complement(net_graph()), empty_graph(0)] + \
    [f(path_graph(k)) for k in range(1, 6) for f in (lambda h: h, complement)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(graphs(10), st.one_of(graphs(5), st.sampled_from(NAMED_PATTERNS)))
def test_contains_induced_matches_has_edge_search(g, pattern):
    assert contains_induced(g, pattern) == has_edge_contains_induced(g, pattern)
    larger = path_graph(g.n + 1)
    assert contains_induced(g, larger) is has_edge_contains_induced(g, larger) is None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(graphs(12), st.builds(comparability_from_random_poset, st.integers(1, 13),
                                       st.integers(0, 2 ** 31 - 1))),
       st.one_of(graphs(6), st.sampled_from(NAMED_PATTERNS)))
def test_degree_filter_keeps_the_first_assignment(g, pattern):
    # the filter drops only host vertices with too few neighbours or
    # non-neighbours for the pattern vertex, which no embedding uses; the
    # net-free comparability hosts are the ones the split-free build searches
    assert contains_induced(g, pattern) == unpruned_contains_induced(g, pattern)


@st.composite
def split_graphs(draw, max_n):
    """A clique on some vertices, a stable set on the rest, random edges
    between them, and the vertices shuffled."""
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(0, n))
    cross = [(u, v) for u in range(k) for v in range(k, n)]
    mask = draw(st.integers(0, (1 << len(cross)) - 1))
    perm = draw(st.permutations(range(n)))
    edges = list(itertools.combinations(range(k), 2))
    edges += [e for i, e in enumerate(cross) if mask >> i & 1]
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.one_of(graphs(12), split_graphs(12)))
@example(empty_graph(0))
@example(empty_graph(1))
@example(gen_gnp(63, 0.5, 63))
@example(gen_gnp(64, 0.5, 64))
@example(gen_gnp(65, 0.5, 65))
@example(gen_gnp(67, 0.5, 67))
def test_mask_enumerators_match_set_oracles(g):
    """The mask enumerators give the frozenset references' sets in the same
    order: lexicographic by sorted member list."""
    assert list(map(set_of, maximal_cliques(g))) == set_maximal_cliques(g)
    assert list(map(set_of, maximal_stables(g))) == set_maximal_stables(g)
    if g.n <= 12:  # split_partitions is exhaustive
        assert [(set_of(sp.clique_part), set_of(sp.stable_part))
                for sp in split_partitions(g)] == set_split_partitions(g)


def test_enumerators_on_complete_and_edgeless_graphs_past_word_boundaries():
    for n in range(1, 71):
        singletons = [1 << v for v in range(n)]
        full = (1 << n) - 1
        assert maximal_cliques(complete_graph(n)) == maximal_stables(empty_graph(n)) == [full]
        assert maximal_cliques(empty_graph(n)) == maximal_stables(complete_graph(n)) == singletons


def test_enumerator_depth_is_not_bounded_by_the_recursion_limit():
    """Bron-Kerbosch on K_1500 goes 1500 calls deep, past Python's default
    recursion limit of 1000."""
    assert maximal_cliques(complete_graph(1500)) == [(1 << 1500) - 1]


def clique_join(k: int, top):
    """A clique on the vertices below k joined to the graph ``top`` on the
    vertices from k on: every maximal clique holds the whole low clique, so
    any two share their first k members and differ only among the top
    vertices."""
    edges = list(itertools.combinations(range(k), 2))
    edges += [(u, k + v) for u in range(k) for v in range(top.n)]
    edges += [(k + u, k + v) for u, v in top.edges()]
    return from_edges(k + top.n, edges), k, top


# Bron-Kerbosch finds the maximal cliques of this graph out of order:
# {2} before {0, 3} and {1, 3}
UNORDERED = from_edges(4, [(0, 3), (1, 3)])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.builds(lambda n, top: clique_join(n - top.n, top), st.integers(55, 70),
                 graphs(8).filter(lambda h: h.n >= 1)))
@example(clique_join(66, UNORDERED))
@example(clique_join(62, UNORDERED))
@example(clique_join(60, UNORDERED))
def test_enumerator_order_when_cliques_share_long_prefixes(case):
    """n = 55 to 70, so that the top vertices lie below, across or above
    bit 64."""
    g, k, top = case
    low = (1 << k) - 1
    assert maximal_cliques(g) == [low | mask_of(c) << k for c in set_maximal_cliques(top)]
    assert list(map(set_of, maximal_stables(g))) == set_maximal_stables(g)


# ---------------------------------------------------------------- pairs


def test_find_biclique_pair_examples():
    hit = find_biclique_pair(complete_graph(6), 3)
    assert hit is not None and hit.mode == "adjacent"
    assert hit.a.bit_count() >= 3 and hit.b.bit_count() >= 3 and not hit.a & hit.b
    hit = find_biclique_pair(empty_graph(6), 3)
    assert hit is not None and hit.mode == "nonadjacent"
    assert find_biclique_pair(cycle_graph(5), 2) is None
    assert not brute_biclique_pair_exists(cycle_graph(5), 2, "adjacent")
    assert not brute_biclique_pair_exists(cycle_graph(5), 2, "nonadjacent")
    with pytest.raises(ValueError):
        find_biclique_pair(cycle_graph(5), 0)


def test_find_biclique_pair_against_bruteforce():
    rnd = random.Random(11)
    for trial in range(30):
        n = rnd.randint(2, 8)
        size = rnd.randint(1, max(1, n // 2))
        g = gen_gnp(n, rnd.random(), 1300 + trial)
        got = find_biclique_pair(g, size)
        exists = brute_biclique_pair_exists(g, size, "adjacent") or \
            brute_biclique_pair_exists(g, size, "nonadjacent")
        assert (got is not None) == exists
        if got is not None:
            assert got.exact
            assert got.a.bit_count() >= size and got.b.bit_count() >= size
            assert not got.a & got.b
            for x in bits(got.a):
                for y in bits(got.b):
                    assert g.has_edge(x, y) == (got.mode == "adjacent")


def test_find_biclique_pair_heuristic_flagged():
    g = empty_graph(30)
    hit = find_biclique_pair(g, 5)
    assert hit is not None and not hit.exact and hit.mode == "nonadjacent"


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.one_of(graphs(30), st.builds(gen_gnp, st.integers(0, 30),
                                       st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)),
                                       st.integers(0, 2 ** 32))),
       st.integers(1, 6))
@example(empty_graph(30), 5)
@example(complete_graph(30), 1)
def test_pair_search_greedy_matches_branchy_oracle(g, size):
    assert _pair_search_greedy(g, size) == branchy_pair_search_greedy(g, size)


def test_greedy_coloring_proper():
    for seed in range(5):
        g = gen_gnp(12, 0.5, seed)
        assert is_proper_coloring(g, greedy_coloring(g))


def test_proper_coloring_gives_one_color_per_vertex():
    # a longer coloring once passed, a shorter one raised IndexError
    k4 = complete_graph(4)
    assert is_proper_coloring(k4, (0, 1, 2, 3))
    for colors in ((0, 1, 2, 3, 4), (0, 1, 2), ()):
        assert not is_proper_coloring(k4, colors)
    assert not is_proper_coloring(empty_graph(2), (0,))


def test_greedy_coloring_matches_set_first_fit():
    for seed in range(40):
        g = gen_gnp(seed % 25, (0.1, 0.5, 0.9)[seed % 3], 300 + seed)
        assert greedy_coloring(g) == set_greedy_coloring(g)
