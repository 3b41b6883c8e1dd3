import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csslab.graphs import (bits, complement, complete_graph,
                           comparability_from_random_poset, contains_induced,
                           cycle_graph, empty_graph, from_edges, gen_gnp,
                           mask_of, net_graph, path_graph)
from csslab import lp, transversal
from csslab.lp import solve_lp
from csslab.separator import disjoint_maximal_pairs, verify_cs_separator
from csslab.transversal import (BicliquePairNotFound, ConflictDigraph,
                                Hypergraph, build_hypergraph,
                                build_pk_free_separator,
                                build_split_free_separator, conflict_digraph,
                                exact_min_transversal, fractional_transversality,
                                greedy_transversal, separate_pair_split_free,
                                path_free_constant, side_weights,
                                split_free_report, transversal_budget,
                                vc_dimension)
from oracles import (scan_greedy_transversal, set_of, substitution_graph,
                     unmemoised_pair_pipeline)

# ------------------------------------------------------- conflict tournaments


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 10), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 2 ** 31 - 1))
def test_conflict_arcs_are_both_sides_hyperedges(n, p, seed):
    # one arc per (clique, stable) pair and none inside a side; the stable
    # rows are the K-side hyperedges and the clique rows, shifted past K,
    # are the S-side hyperedges of the complement: side_weights reads both
    g = gen_gnp(n, p, seed)
    for k, s in disjoint_maximal_pairs(g):
        cd = conflict_digraph(g, k, s)
        nk, ns = len(cd.clique), len(cd.stable)
        kmask, smask = (1 << nk) - 1, ((1 << ns) - 1) << nk
        for u, a in enumerate(cd.out):
            other = smask if u < nk else kmask
            assert a & ~other == 0
            for v in bits(other):
                assert (a >> v & 1) + (cd.out[v] >> u & 1) == 1
        assert list(cd.out[nk:]) == list(build_hypergraph(g, k, s)[0].edges)
        assert ([a >> nk for a in cd.out[:nk]]
                == list(build_hypergraph(complement(g), s, k)[0].edges))


def test_conflict_digraph_examples():
    g_edge = from_edges(2, [(0, 1)])
    cd = conflict_digraph(g_edge, 0b1, 0b10)
    assert cd.out == (0b10, 0)  # arc K -> S
    g_non = empty_graph(2)
    cd = conflict_digraph(g_non, 0b1, 0b10)
    assert cd.out == (0, 0b01)  # arc S -> K
    with pytest.raises(ValueError):
        conflict_digraph(g_non, 0b11, 0)  # not a clique
    with pytest.raises(ValueError):
        conflict_digraph(g_edge, 0b1, 0b1)


def test_conflict_digraph_rejects_nonstable():
    g = from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        conflict_digraph(g, 0b1, 0b110)


def test_side_weights_edge_pair_prefers_s():
    g = from_edges(2, [(0, 1)])
    cd = conflict_digraph(g, 0b1, 0b10)
    sw = side_weights(cd)
    assert sw.side == "S" and sw.weights == {1: 2}


def test_side_weights_nonedge_pair_prefers_k():
    g = empty_graph(2)
    cd = conflict_digraph(g, 0b1, 0b10)
    sw = side_weights(cd)
    assert sw.side == "K" and sw.weights == {0: 2}


def test_side_weights_on_actual_pairs():
    rnd = random.Random(17)
    checked = 0
    for trial in range(25):
        n = rnd.randint(3, 9)
        g = gen_gnp(n, rnd.choice([0.3, 0.5, 0.7]), 7000 + trial)
        for k, s in disjoint_maximal_pairs(g)[:6]:
            cd = conflict_digraph(g, k, s)
            sw = side_weights(cd)  # exact >= 1 checks run inside
            assert sw.side in ("K", "S")
            assert sum(sw.weights.values()) == 2
            checked += 1
    assert checked > 50


def test_side_weights_pinned_instance():
    # fixed conflict instance kept as a regression anchor: triangle clique,
    # two stable vertices each adjacent to one clique vertex
    g = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    cd = conflict_digraph(g, 0b111, 0b11000)
    sw = side_weights(cd)
    assert sw.side == "K"
    assert sw.weights == {0: 1, 1: 1, 2: 0}
    # hand check: vertex 3 misses {1, 2}, vertex 4 misses {0, 2}; both
    # non-neighborhoods weigh 1 + 0 = 1
    assert sw.weights[1] + sw.weights[2] >= 1
    assert sw.weights[0] + sw.weights[2] >= 1


@pytest.mark.parametrize("weights, message", [
    ((1, 1, 1), "side weights do not sum to 2 or are negative"),
    ((3, 0, -1), "side weights do not sum to 2 or are negative"),
    ((Fraction(4, 3), Fraction(1, 3), Fraction(1, 3)),
     r"out-weight below 1 at vertex 3 against side \[0, 1, 2\]"),
    ((Fraction(1, 3), Fraction(4, 3), Fraction(1, 3)),
     r"out-weight below 1 at vertex 4 against side \[0, 1, 2\]"),
])
def test_side_weights_rejects_a_bad_certificate(monkeypatch, weights, message):
    # the pinned instance with the LP's weights replaced
    g = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    cd = conflict_digraph(g, 0b111, 0b11000)
    monkeypatch.setattr(transversal, "_side_feasible", lambda rows, nv: weights)
    with pytest.raises(RuntimeError, match=message):
        side_weights(cd)


def test_side_weights_accepts_out_weight_exactly_one(monkeypatch):
    g = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    cd = conflict_digraph(g, 0b111, 0b11000)
    weights = (Fraction(1), Fraction(2, 3), Fraction(1, 3))
    monkeypatch.setattr(transversal, "_side_feasible", lambda rows, nv: weights)
    assert side_weights(cd).weights == {0: 1, 1: Fraction(2, 3), 2: Fraction(1, 3)}


# ---------------------------------------------------------------- hypergraphs


def test_build_hypergraph_examples():
    g = from_edges(3, [(0, 2)])  # K={0,1}, S={2}; 2 adjacent to 0 only
    h, ids = build_hypergraph(g, 0b11, 0b100)
    assert ids == (0, 1)
    assert h.edges == (0b10,)
    # neighbors in g are the non-neighbors in the complement
    h2, _ = build_hypergraph(complement(g), 0b100, 0b11)
    assert h2.edges == (0b1, 0)
    h3, _ = build_hypergraph(g, 0b11, 0)
    assert h3.edges == ()
    with pytest.raises(ValueError):
        build_hypergraph(g, 0b1, 0b1)


def brute_fractional_transversality(h):
    rows = [[-1 if v in set_of(e) else 0 for v in range(h.n)] for e in h.edges]
    res = solve_lp([1] * h.n, a_ub=rows, b_ub=[-1] * len(h.edges))
    return res.value


def test_fractional_transversality_examples():
    assert fractional_transversality(Hypergraph(2, [0b11]))[0] == 1
    tri = Hypergraph(3, [0b011, 0b110, 0b101])
    value, weights = fractional_transversality(tri)
    assert value == Fraction(3, 2)
    for e in tri.edges:
        assert sum(weights[v] for v in set_of(e)) >= 1
    with pytest.raises(ValueError):
        fractional_transversality(Hypergraph(2, [0]))
    assert fractional_transversality(Hypergraph(3, []))[0] == 0


def brute_min_hitting(h):
    for r in range(h.n + 1):
        for combo in itertools.combinations(range(h.n), r):
            if all(set(combo) & set_of(e) for e in h.edges):
                return r
    return None


def test_transversal_examples_and_oracle():
    assert greedy_transversal(Hypergraph(3, [])) == 0
    assert greedy_transversal(Hypergraph(2, [0b01, 0b10])) == 0b11
    tri = Hypergraph(3, [0b011, 0b110, 0b101])
    assert greedy_transversal(tri).bit_count() == 2
    assert exact_min_transversal(tri).bit_count() == 2
    rnd = random.Random(23)
    for trial in range(30):
        n = rnd.randint(1, 7)
        m = rnd.randint(0, 8)
        edges = []
        for _ in range(m):
            e = {v for v in range(n) if rnd.random() < 0.5} or {rnd.randrange(n)}
            edges.append(mask_of(e))
        h = Hypergraph(n, edges)
        exact = exact_min_transversal(h)
        assert exact.bit_count() == brute_min_hitting(h)
        assert all(exact & e for e in h.edges)
        greedy = greedy_transversal(h)
        assert all(greedy & e for e in h.edges)
        assert greedy.bit_count() >= exact.bit_count()


@st.composite
def hitting_instances(draw):
    """(n, edge masks) with n <= 10 and at most 12 nonempty edges, each new
    edge fresh, a copy of an earlier one, or a superset of one."""
    n = draw(st.integers(0, 10))
    edges = []
    for _ in range(draw(st.integers(0, 12)) if n else 0):
        how = draw(st.sampled_from(("fresh", "duplicate", "superset")))
        if how == "fresh" or not edges:
            edges.append(draw(st.integers(1, (1 << n) - 1)))
        else:
            e = draw(st.sampled_from(edges))
            edges.append(e if how == "duplicate" else e | draw(st.integers(0, (1 << n) - 1)))
    return n, edges


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(hitting_instances())
@example((3, []))
@example((4, [0b0011, 0b1100]))            # all four vertices tie: {0, 2}
@example((5, [0b00110, 0b11000, 0b00110]))  # 1 and 2 tie at two hits
def test_greedy_transversal_matches_scan_oracle(instance):
    n, edges = instance
    assert set_of(greedy_transversal(Hypergraph(n, edges))) == \
        scan_greedy_transversal(n, map(set_of, edges))


def test_hypergraph_rejects_masks_outside_its_vertices():
    assert Hypergraph(3, [0b111, 0]).edges == (0b111, 0)
    for bad in (0b1000, 0b1001, -1):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(3, [0b1, bad])


def test_hypergraph_rejects_a_negative_vertex_count():
    # Hypergraph(-2, ()) once constructed, and with a mask raised a bare
    # "negative shift count"
    for edges in ((), (0,)):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            Hypergraph(-2, edges)


def brute_vc(h):
    masks = h.edges
    best = 0
    for r in range(h.n + 1):
        for combo in itertools.combinations(range(h.n), r):
            a = mask_of(combo)
            if len({m & a for m in masks}) == 1 << r:
                best = max(best, r)
    return best


def test_vc_dimension_examples_and_oracle():
    assert vc_dimension(Hypergraph(3, []), cap=5) == \
        vc_dimension(Hypergraph(3, []), cap=5)
    res = vc_dimension(Hypergraph(3, []), cap=5)
    assert res.value == 0 and res.degenerate
    power = Hypergraph(2, [0b00, 0b01, 0b10, 0b11])
    assert vc_dimension(power, cap=5).value == 2
    capped = vc_dimension(power, cap=1)
    assert capped.value == 1 and not capped.exact
    rnd = random.Random(29)
    for trial in range(25):
        n = rnd.randint(1, 8)
        m = rnd.randint(1, 10)
        edges = [mask_of(v for v in range(n) if rnd.random() < 0.5) for _ in range(m)]
        h = Hypergraph(n, edges)
        res = vc_dimension(h, cap=n + 1)
        assert res.exact
        assert res.value == brute_vc(h)


def test_vc_dimension_rejects_negative_cap():
    for h in (Hypergraph(3, []), Hypergraph(2, [0b01, 0b11])):
        with pytest.raises(ValueError, match="nonnegative"):
            vc_dimension(h, cap=-1)
    assert vc_dimension(Hypergraph(2, [0b01, 0b11]), cap=0).value == 0


# ---------------------------------------------------------------- split-free builder


def test_split_free_on_complete_graph_empty():
    fam = build_split_free_separator(complete_graph(5), net_graph())
    assert len(fam) == 0


def test_split_free_rejects_pattern_host():
    g = net_graph()
    with pytest.raises(ValueError):
        build_split_free_separator(g, net_graph())


def test_split_free_rejects_nonsplit_pattern():
    with pytest.raises(ValueError):
        build_split_free_separator(complete_graph(3), cycle_graph(5))


def test_split_free_pipeline_certificates():
    phi = 3
    budget = transversal_budget(phi)
    assert abs(budget - 64 * 3 * (math.log2(3) + 2)) < 1e-12
    for seed in (2, 5, 8):
        g = comparability_from_random_poset(12, seed)
        fam, reports = split_free_report(g, net_graph())
        assert verify_cs_separator(g, fam).ok
        for rep in reports:
            assert rep.tau_star <= 2           # exact rational comparison
            assert rep.vc.exact and rep.vc.value <= 2 * phi - 1
            assert rep.tau <= budget
            # the emitted cut separates its generating pair
            assert rep.clique & ~rep.cut_mask == 0
            assert rep.stable & rep.cut_mask == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2 ** 31 - 1))
def test_split_free_reports_match_unmemoised_pipeline(n, seed):
    g = comparability_from_random_poset(n, seed)
    budget = transversal_budget(3)
    _, reports = split_free_report(g, net_graph())
    assert reports == [unmemoised_pair_pipeline(g, rep.clique, rep.stable, budget)
                       for rep in reports]


def minimal_edges(edges) -> frozenset:
    return frozenset(e for e in edges if not any(f != e and f & e == f for f in edges))


def reduced_side(g, k: int, s: int) -> str:
    """The side the build picks for (k, s), on its reduced instance: the
    clique vertices in some minimal K-side edge against one stable vertex
    per minimal edge."""
    rest = g.full_mask & ~k
    h, ids = build_hypergraph(g, k, rest)
    edge_of = dict(zip(bits(rest), h.edges))
    minimal = minimal_edges({edge_of[x] for x in bits(s)})
    return transversal._side({}, g, ids, edge_of, s, minimal, transversal._shape(minimal))


def test_shared_memo_matches_unmemoised_pipeline_on_random_graphs():
    # G(12, 1/2) holds nets, so the build's loop runs here by hand: every
    # disjoint maximal pair through one memo, as split_free_report does, and
    # the side of each on its reduced instance
    budget = transversal_budget(3)
    sides = set()
    for seed in range(4):
        g = gen_gnp(12, 0.5, 1200 + seed)
        memo = {}
        for k, s in disjoint_maximal_pairs(g):
            rep = separate_pair_split_free(g, k, s, budget, memo=memo)
            assert rep == unmemoised_pair_pipeline(g, k, s, budget)
            assert rep == separate_pair_split_free(g, k, s, budget)
            assert reduced_side(g, k, s) == rep.side
            sides.add(rep.side)
    assert sides == {"K", "S"}


@pytest.mark.parametrize("seed", [1, 2])
def test_split_free_matches_unmemoised_pipeline_on_comparability_n30(seed):
    # a scale where pairs share cliques, edge tuples, edge sets and shapes
    # many times over (3,150 and 2,682 pairs)
    g = comparability_from_random_poset(30, seed)
    fam, reports = split_free_report(g, net_graph())
    budget = transversal_budget(3)
    assert [(rep.clique, rep.stable) for rep in reports] == disjoint_maximal_pairs(g)
    assert reports == [unmemoised_pair_pipeline(g, rep.clique, rep.stable, budget)
                       for rep in reports]
    assert verify_cs_separator(g, fam).ok


def test_split_free_comparability_n40_pins_pairs_cuts_and_lp_calls(monkeypatch):
    # 49,366 pipelines yield 208 distinct cuts and share 70 exact LP solves:
    # one side and one tau* program per shape of minimal edges
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    monkeypatch.setattr(transversal, "solve_lp", counted)
    fam, reports = split_free_report(comparability_from_random_poset(40, 1), net_graph())
    assert (len(reports), len(fam), len(calls)) == (49366, 208, 70)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 2 ** 31 - 1))
def test_reduced_side_instance_picks_the_pairs_side(n, p, seed):
    g = gen_gnp(n, p, seed)
    for k, s in disjoint_maximal_pairs(g):
        assert reduced_side(g, k, s) == side_weights(conflict_digraph(g, k, s)).side


def test_split_free_memo_lives_for_one_build(monkeypatch):
    calls = []

    def counted(h):
        calls.append(h)
        return fractional_transversality(h)

    monkeypatch.setattr(transversal, "fractional_transversality", counted)
    g = comparability_from_random_poset(13, 4)
    first, reports = split_free_report(g, net_graph())
    per_build = len(calls)
    assert 0 < per_build < len(reports)
    second, _ = split_free_report(g, net_graph())
    assert len(calls) == 2 * per_build
    assert first.masks == second.masks


def test_split_free_lp_calls_stay_few(monkeypatch):
    # pairs whose hypergraphs have the same shape share their LPs; keyed on
    # the labelled edges alone, these five builds make 698 solves
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    monkeypatch.setattr(transversal, "solve_lp", counted)
    for seed in range(1, 6):
        split_free_report(comparability_from_random_poset(20, seed), net_graph())
    assert 0 < len(calls) <= 150


# ---------------------------------------------------------------- memo shapes


@st.composite
def edge_sets(draw, max_n=7, max_m=8):
    """(n, distinct edge masks over n vertices), the empty edge and the
    edgeless case included."""
    n = draw(st.integers(0, max_n))
    return n, frozenset(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_m)))


def signature(edges: frozenset, v: int) -> list[int]:
    return sorted(e.bit_count() for e in edges if e >> v & 1)


def relabel(edges: frozenset, image) -> frozenset:
    return frozenset(mask_of(image[v] for v in bits(e)) for e in edges)


def isomorphic_on_used_vertices(edges: frozenset, target: frozenset) -> bool:
    """Whether some renumbering of the vertices ``edges`` use onto 0.. maps
    ``edges`` to ``target``, by trying every one."""
    used = list(bits(mask_of(v for e in edges for v in bits(e))))
    return any(relabel(edges, dict(zip(used, perm))) == target
               for perm in itertools.permutations(range(len(used))))


def side_of(n: int, edges: frozenset) -> str:
    """The side ``side_weights`` picks for a pair whose K-side hypergraph
    has these edges: a clique on 0..n-1, and per edge a stable vertex
    adjacent to the clique vertices outside it."""
    es = sorted(edges)
    links = list(itertools.combinations(range(n), 2))
    links += [(v, n + i) for i, e in enumerate(es) for v in range(n) if not e >> v & 1]
    g = from_edges(n + len(es), links)
    return side_weights(conflict_digraph(g, (1 << n) - 1, ((1 << len(es)) - 1) << n)).side


def memo_values(n: int, edges: frozenset):
    h = Hypergraph(n, edges)
    tau_star = fractional_transversality(h)[0] if 0 not in edges else None
    return side_of(n, edges), tau_star, vc_dimension(h, cap=n + 1)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(edge_sets(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_shape_ignores_labels_that_its_signature_orders(instance, extra, rnd):
    # relabel into n + extra vertices, keeping the order of the vertices
    # with equal signatures: the tie-break by index sees the same order
    n, edges = instance
    image = dict(enumerate(rnd.sample(range(n + extra), n)))
    classes: dict = {}
    for v in range(n):
        classes.setdefault(tuple(signature(edges, v)), []).append(v)
    for members in classes.values():
        for v, w in zip(members, sorted(image[v] for v in members)):
            image[v] = w
    assert transversal._shape(relabel(edges, image)) == transversal._shape(edges)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(edge_sets(max_n=6))
def test_shape_is_an_isomorphic_copy_on_the_used_vertices(instance):
    _, edges = instance
    shape = transversal._shape(edges)
    used = mask_of(v for e in edges for v in bits(e)).bit_count()
    assert mask_of(v for e in shape for v in bits(e)) == (1 << used) - 1
    assert isomorphic_on_used_vertices(edges, shape)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(edge_sets())
@example((0, frozenset()))
@example((3, frozenset()))
@example((0, frozenset({0})))
@example((2, frozenset({0, 0b11})))
def test_equal_shapes_give_equal_memo_values(instance):
    # every edge set has the values of its shape, so two edge sets of one
    # shape have equal side, tau* and VC dimension
    n, edges = instance
    shape = transversal._shape(edges)
    used = mask_of(v for e in shape for v in bits(e)).bit_length()
    assert memo_values(n, edges) == memo_values(used, shape)


def test_split_free_advisory_bounds():
    # refined VC bound phi + ceil(log2 phi) and the transversal bound with
    # measured quantities, recorded as advisory
    phi = 3
    refined_cap = phi + math.ceil(math.log2(phi))
    g = comparability_from_random_poset(10, 31)
    _, reports = split_free_report(g, net_graph())
    advisory_hits = 0
    for rep in reports:
        if rep.vc.value <= refined_cap:
            advisory_hits += 1
        d, ts = rep.vc.value, float(rep.tau_star)
        if d > 0 and ts > 0 and d * ts > 1:
            assert rep.tau <= 16 * d * ts * math.log2(d * ts) or rep.tau <= d * ts
    assert advisory_hits == len(reports)


# ---------------------------------------------------------------- path-free builder


def test_pk_free_base_case_full_cuts():
    g = gen_gnp(4, 0.5, 77)
    fam = build_pk_free_separator(g, k=5, t_k=0.25)
    assert len(fam) == 16
    assert verify_cs_separator(g, fam).ok


@pytest.mark.parametrize("k", [0, -1, -5])
def test_pk_free_rejects_a_path_length_below_one(k):
    # a path has at least one vertex: the empty path k = 0 lies "at ()" in
    # every graph, and k < 0 is no vertex count
    with pytest.raises(ValueError, match=r"^k must be at least 1$"):
        build_pk_free_separator(gen_gnp(6, 0.5, 1), k=k, t_k=0.25)


def test_pk_free_two_cliques_single_level(monkeypatch):
    monkeypatch.setattr(transversal, "PK_BASE_SIZE", 7)
    blocks = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    blocks += [(u, v) for u in range(7, 14) for v in range(u + 1, 14)]
    g = from_edges(14, blocks)
    fam = build_pk_free_separator(g, k=5, t_k=0.5)
    assert verify_cs_separator(g, fam).ok


def test_pk_free_complement_route(monkeypatch):
    monkeypatch.setattr(transversal, "PK_BASE_SIZE", 8)
    # complete multipartite: adjacent pair found first, recursion flips
    parts = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13)]
    edges = [(u, v) for i, a in enumerate(parts) for b in parts[i + 1:]
             for u in a for v in b]
    g = from_edges(14, edges)
    assert contains_induced(g, path_graph(5)) is None
    fam = build_pk_free_separator(g, k=5, t_k=0.4)
    assert verify_cs_separator(g, fam).ok


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(5), complete_graph(12)],
                         ids=["P4", "C5", "K12"])
def test_pk_free_tiny_t_k_keeps_the_base_case(g):
    """1 - t_k rounds to 1 for a tiny t_k, and n^c overflows a float; a build
    on at most 12 vertices is the base case whatever t_k is."""
    assert math.isinf(path_free_constant(5e-324))
    assert math.isfinite(path_free_constant(1e-300))
    families = [build_pk_free_separator(g, k=5, t_k=t_k)
                for t_k in (5e-324, 1e-300, 1e-10, 0.25)]
    assert all(fam == families[-1] for fam in families)
    assert len(families[-1]) == 1 << g.n


def test_pk_free_leaf_count_bound(monkeypatch):
    """K_{7,7} takes the complement route to two disjoint K7 leaves, 255
    distinct cuts; two leaves exceed n^c = 14^0.01, so the build raises.
    One leaf never raises, on no vertices included."""
    g = from_edges(14, [(u, v) for u in range(7) for v in range(7, 14)])
    fam = build_pk_free_separator(g, k=5, t_k=0.25)
    assert len(fam) == 255 and verify_cs_separator(g, fam).ok
    monkeypatch.setattr(transversal, "path_free_constant", lambda t_k: 0.01)
    with pytest.raises(RuntimeError, match="exceeds its size bound"):
        build_pk_free_separator(g, k=5, t_k=0.25)
    for h in (empty_graph(0), empty_graph(1), complete_graph(12)):
        assert len(build_pk_free_separator(h, k=5, t_k=0.25)) == 1 << h.n


# The pair search is exact on levels of at most 24 vertices, and there a
# substitution graph on m vertices has a pair of size m / 7: a module S with
# m/7 <= |S| <= 5m/7 (prime nodes have at most five children) against the
# larger of the vertices complete or anticomplete to it.  Larger levels rely
# on the greedy search.
PK_T = 1 / 7


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(14, 30), st.integers(0, 2 ** 32 - 1))
def test_pk_free_builds_recurse_on_substitution_graphs(n, seed):
    g = substitution_graph(random.Random(seed), n)
    fam = build_pk_free_separator(g, k=5, t_k=PK_T)
    assert verify_cs_separator(g, fam).ok
    # each leaf gives at most 2^PK_BASE_SIZE cuts, and there are at most n^c
    assert len(fam) <= 2 ** transversal.PK_BASE_SIZE * n ** path_free_constant(PK_T)


def test_pk_free_rejects_paths():
    with pytest.raises(ValueError):
        build_pk_free_separator(path_graph(6), k=5, t_k=0.25)
    with pytest.raises(ValueError):
        build_pk_free_separator(complement(path_graph(6)), k=5, t_k=0.25)


def test_pk_free_pair_not_found_reported(monkeypatch):
    monkeypatch.setattr(transversal, "PK_BASE_SIZE", 4)
    # a cograph whose top split is very unbalanced: demanding 90 percent of
    # the vertices on both sides cannot succeed
    star_edges = [(0, v) for v in range(1, 14)]
    g = from_edges(14, star_edges)
    assert contains_induced(g, path_graph(5)) is None
    with pytest.raises(BicliquePairNotFound) as exc:
        build_pk_free_separator(g, k=5, t_k=0.9)
    assert exc.value.needed == math.ceil(0.9 * 14)
    assert len(exc.value.level_vertices) == 14


def random_cograph(rnd, n):
    """Random cotree: single vertices joined by disjoint union or full join."""
    if n == 1:
        return from_edges(1, [])
    k = rnd.randint(1, n - 1)
    left = random_cograph(rnd, k)
    right = random_cograph(rnd, n - k)
    edges = list(left.edges())
    edges += [(u + left.n, v + left.n) for u, v in right.edges()]
    if rnd.random() < 0.5:  # join
        edges += [(u, v + left.n) for u in range(left.n) for v in range(right.n)]
    return from_edges(left.n + right.n, edges)


def test_pk_free_random_cographs(monkeypatch):
    monkeypatch.setattr(transversal, "PK_BASE_SIZE", 6)
    rnd = random.Random(59)
    built = 0
    reported = 0
    for trial in range(12):
        n = rnd.randint(8, 14)
        g = random_cograph(rnd, n)
        assert contains_induced(g, path_graph(5)) is None
        assert contains_induced(complement(g), path_graph(5)) is None
        try:
            fam = build_pk_free_separator(g, k=5, t_k=0.25)
        except BicliquePairNotFound as exc:
            assert exc.needed == math.ceil(0.25 * len(exc.level_vertices))
            reported += 1
            continue
        assert verify_cs_separator(g, fam).ok
        built += 1
    assert built >= 6  # the construction exercises real recursion, not only reports
