import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csslab.formats import emit_cut_family
from csslab.graphs import (bits, complement, complete_graph, cycle_graph,
                           empty_graph, from_edges, gen_gnp, is_clique, is_stable,
                           mask_of)
from csslab.separator import (AppendixBoundReport, CutFamily, SeparationReport,
                              SeparatorBuildError, build_random_separator,
                              check_appendix_bound, disjoint_maximal_pairs,
                              extend_to_full_separator, family_from_masks,
                              separates, verify_cs_separator)
from csslab import separator
from csslab.graphs import _all_clique_masks
from csslab.rng import SplitMix64

from oracles import all_cuts_family, greedy_separator, pair_list_verify


def all_cliques(g):
    return list(_all_clique_masks(g))


def separated_by_family(family, k, s):
    return any(separates(a, k, s) for a in family.masks)


# ---------------------------------------------------------------- cuts


def test_separates_examples():
    assert separates(0b11111, 0b11, 0)
    assert not separates(0, 0b1, 0)
    assert separates(0b00011, 0b11, 0b1000)
    assert not separates(0b00011, 0b11, 0b10)


def test_cut_family_rejects_duplicates_and_mismatch():
    with pytest.raises(ValueError, match="duplicate"):
        CutFamily(3, [1, 1])
    with pytest.raises(ValueError, match="outside the host"):
        CutFamily(3, [0b1000])  # vertex 3 of a 3-vertex host
    with pytest.raises(ValueError, match="outside the host"):
        CutFamily(3, [-1])
    with pytest.raises(ValueError, match="outside the host"):
        CutFamily(2, [0b100])


def test_cut_family_rejects_a_negative_host():
    # CutFamily(-1, ()) once constructed, and with a mask raised a bare
    # "negative shift count"
    for masks in ((), (0,)):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            CutFamily(-1, masks)


# ---------------------------------------------------------------- verify


def test_verify_k3_single_cut():
    rep = verify_cs_separator(complete_graph(3), CutFamily(3, [0b111]))
    assert rep.ok and rep.pairs_checked == 0


def test_verify_c5_empty_family_first_witness():
    rep = verify_cs_separator(cycle_graph(5), CutFamily(5, []))
    assert not rep.ok
    assert rep.witness == (0b00011, 0b10100)
    k, s = rep.witness
    assert is_clique(cycle_graph(5), k) and is_stable(cycle_graph(5), s) and not k & s


def test_verify_all_cuts_always_ok():
    for seed in range(5):
        g = gen_gnp(6, 0.5, seed)
        assert verify_cs_separator(g, all_cuts_family(6)).ok


def test_verify_host_mismatch():
    with pytest.raises(ValueError):
        verify_cs_separator(complete_graph(3), CutFamily(4, []))


def test_verify_deterministic():
    g = gen_gnp(7, 0.5, 3)
    fam = CutFamily(7, [0b1010101])
    assert verify_cs_separator(g, fam) == verify_cs_separator(g, fam)


# ---------------------------------------------------------------- extension


def test_extend_single_vertex():
    g = complete_graph(1)
    fam = extend_to_full_separator(g, CutFamily(1, []))
    assert sorted(fam.masks) == [0, 1]


def test_extend_size_bound():
    g = gen_gnp(9, 0.5, 4)
    base = build_random_separator(g, 0.5, seed=1)
    full = extend_to_full_separator(g, base)
    assert len(full) <= len(base) + 2 * g.n


def test_extend_separates_all_pairs():
    # brute force over every disjoint clique/stable pair, not just maximal ones
    rnd = random.Random(6)
    cases = [complete_graph(3), cycle_graph(5)]
    cases += [gen_gnp(rnd.randint(2, 8), rnd.random(), 40 + t) for t in range(8)]
    for g in cases:
        base = build_random_separator(g, 0.5, seed=11)
        assert verify_cs_separator(g, base).ok
        full = extend_to_full_separator(g, base)
        cliques = all_cliques(g)
        stables = all_cliques(complement(g))
        for k in cliques:
            for s in stables:
                if not k & s:
                    assert separated_by_family(full, k, s), (bin(k), bin(s))


def test_extend_k3_separates_nonmaximal_pair():
    g = complete_graph(3)
    full = extend_to_full_separator(g, CutFamily(3, []))
    assert separated_by_family(full, 0b01, 0b10)


# ---------------------------------------------------------------- random builder


def test_random_separator_complete_graph_empty():
    for n in (1, 4, 7):
        fam = build_random_separator(complete_graph(n), 0.5, seed=0)
        assert len(fam) == 0


def test_random_separator_rejects_empty_graph():
    with pytest.raises(ValueError):
        build_random_separator(empty_graph(0), 0.5, seed=0)


def test_random_separator_c5():
    fam = build_random_separator(cycle_graph(5), 0.5, seed=5)
    assert verify_cs_separator(cycle_graph(5), fam).ok


def test_random_separator_bit_identical_and_paths_agree():
    g = gen_gnp(12, 0.5, 21)
    a = build_random_separator(g, 0.5, seed=9)
    b = build_random_separator(g, 0.5, seed=9)
    c = greedy_separator(g, 0.5, seed=9)
    assert a == b == c


def build_outcome(build, g, p, seed, max_rounds=None):
    """The family or the round-cap error's (remaining, rounds), and the
    build's ``stats_out``."""
    stats = {}
    try:
        outcome = build(g, p, seed, max_rounds, stats_out=stats)
    except SeparatorBuildError as exc:
        outcome = ("cap", exc.remaining, exc.rounds)
    return outcome, stats


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_graphs(), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 2 ** 64 - 1),
       st.integers(0, 3))
def test_random_separator_matches_greedy_oracle(g, p, seed, max_rounds):
    fam = build_random_separator(g, p, seed)
    assert fam == greedy_separator(g, p, seed)
    assert verify_cs_separator(g, fam).ok
    capped = build_outcome(build_random_separator, g, p, seed, max_rounds)
    assert capped == build_outcome(greedy_separator, g, p, seed, max_rounds)
    if disjoint_maximal_pairs(g) and max_rounds == 0:
        assert capped[0][:2] == ("cap", len(disjoint_maximal_pairs(g)))


# round caps inside and on the edges of the builder's batches of 1, 2, 4, ... rounds
BATCH_EDGE_CAPS = (1, 2, 3, 4, 5, 7, 8, 9, 31, 33, 65)


# candidates are looked up a byte of vertices at a time: n = 8k ends a
# byte and n = 8k + 1 starts one with a single vertex
@pytest.mark.parametrize("n", [8, 9, 14, 15, 16, 17, 24, 25])
def test_random_separator_matches_oracle_across_batch_edges(n):
    for seed in range(3):
        g = gen_gnp(n, 0.5, 100 * n + seed)
        for max_rounds in BATCH_EDGE_CAPS + (None,):
            got = build_outcome(build_random_separator, g, 0.5, seed, max_rounds)
            assert got == build_outcome(greedy_separator, g, 0.5, seed, max_rounds), \
                (n, seed, max_rounds)


@pytest.mark.parametrize("n", [63, 64, 65])
def test_random_separator_matches_oracle_across_a_word_edge(n):
    # cuts of 63..65 vertices end a byte and a 64-bit word or start new
    # ones; every batch is one round at this size, so cap 2 runs two
    g = gen_gnp(n, 0.5, 500 + n)
    got = build_outcome(build_random_separator, g, 0.5, n, 2)
    assert got == build_outcome(greedy_separator, g, 0.5, n, 2)


def test_random_separator_matches_oracle_on_two_word_rows():
    # the disjoint cells span more than 64 maximal stable sets, so each
    # uncovered row takes two uint64 words
    g = gen_gnp(22, 0.5, 7)
    assert len({s for _, s in disjoint_maximal_pairs(g)}) > 64
    for max_rounds in (5, 33, None):
        got = build_outcome(build_random_separator, g, 0.5, 11, max_rounds)
        assert got == build_outcome(greedy_separator, g, 0.5, 11, max_rounds), max_rounds


@pytest.mark.parametrize("graph_seed,seed", [(2, 21), (5, 22), (11, 23)])
def test_random_separator_matches_oracle_at_the_benchmark_shape(graph_seed, seed):
    # G(22, 1/2) as in the gnp-random workload: more than 64 stable columns
    # put each uncovered row in two words and cap the doubling batches at
    # _BLOCK_CELLS // (32 * columns) < 64 rounds, so a build of more than
    # 100 rounds runs capped batches; caps 40 and 100 fall inside the batch
    # of 32 and the first capped batch
    g = gen_gnp(22, 0.5, graph_seed)
    assert len({s for _, s in disjoint_maximal_pairs(g)}) > 64
    got = build_outcome(build_random_separator, g, 0.5, seed)
    assert got[1]["rounds"] > 100
    assert got == build_outcome(greedy_separator, g, 0.5, seed)
    for max_rounds in (40, 100):
        got = build_outcome(build_random_separator, g, 0.5, seed, max_rounds)
        assert got == build_outcome(greedy_separator, g, 0.5, seed, max_rounds), max_rounds


@pytest.mark.parametrize("graph_seed,seed,draws,calls", [(2, 21, 154880, 9),
                                                        (5, 22, 182336, 10)])
def test_random_separator_batch_schedule_pinned(monkeypatch, graph_seed, seed, draws, calls):
    # a batch draws all its rounds at once, so the stream runs up to one
    # batch past the last round: the draw count locks the batch sizes
    g = gen_gnp(22, 0.5, graph_seed)
    sizes = []
    mask = SplitMix64.bernoulli_mask
    monkeypatch.setattr(SplitMix64, "bernoulli_mask",
                        lambda rng, n, threshold: sizes.append(n) or mask(rng, n, threshold))
    build_random_separator(g, 0.5, seed)
    assert (sum(sizes), len(sizes)) == (draws, calls)


def clique_beside_five_cycle():
    """K_65 and a disjoint C_5 on vertices spread over two 64-bit words:
    n = 70 with 325 disjoint maximal pairs, each a cycle edge against a
    clique vertex plus the one stable pair of the cycle missing that edge."""
    cycle = (3, 30, 62, 64, 69)
    clique = [v for v in range(70) if v not in cycle]
    edges = list(itertools.combinations(clique, 2))
    edges += [(cycle[i], cycle[(i + 1) % 5]) for i in range(5)]
    return from_edges(70, edges)


def test_random_separator_beyond_one_word():
    g = clique_beside_five_cycle()
    assert len(disjoint_maximal_pairs(g)) == 325
    fam = build_random_separator(g, 0.5, seed=3)
    assert fam == greedy_separator(g, 0.5, seed=3)
    assert verify_cs_separator(g, fam).ok
    assert max(fam.masks) >> 64


def int_rows(flags):
    """Reference packing: bit j of row i is cell (i, j)."""
    return [sum(1 << j for j, cell in enumerate(row) if cell) for row in flags.tolist()]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(arrays(bool, st.tuples(st.integers(0, 40),
                              st.sampled_from([7, 8, 63, 64, 65, 127, 128, 129])
                              | st.integers(1, 130))))
def test_packing_helpers_match_int_rows(flags):
    # widths cover non-multiples of 8 and both sides of 64 and 128
    assert separator._bit_rows(flags) == int_rows(flags)


# counts on both sides of byte and word edges
EDGE_COUNTS = st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200])


@st.composite
def masks_on(draw, n, max_size):
    """Masks of an n-vertex host, half of them of at most 3 vertices."""
    size = draw(EDGE_COUNTS.filter(lambda c: c <= max_size) | st.integers(0, max_size))
    rnd = draw(st.randoms(use_true_random=False))
    return [rnd.getrandbits(n) if rnd.random() < 0.5
            else sum(1 << v for v in {rnd.randrange(n) for _ in range(rnd.randrange(4))})
            for _ in range(size)]


@st.composite
def table_cases(draw):
    n = draw(EDGE_COUNTS.filter(lambda c: 1 <= c <= 130) | st.integers(1, 130))
    return n, draw(masks_on(n, 200)), draw(masks_on(n, 200)), draw(masks_on(n, 9))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(table_cases())
def test_cut_table_lookups_match_int_reference(case):
    # 0..200 cliques and 0..200 stable sets on 1..130 vertices, so member
    # and vertex counts fall on both sides of byte and word edges: a lookup
    # at a cut's bytes gives the cliques inside the cut and the stable sets
    # outside it
    n, cliques, stables, cuts = case
    nbytes = (n + 7) // 8
    tables = separator._cut_tables(separator._byte_rows(cliques, nbytes),
                                   separator._byte_rows(stables, nbytes))
    at = separator._byte_rows(cuts, nbytes)
    for members, table, test in ((cliques, tables[0], lambda m, a: m & ~a == 0),
                                 (stables, tables[1], lambda m, a: m & a == 0)):
        assert table.dtype == "<u8" and table.shape == (nbytes, 256, (len(members) + 63) // 64)
        rows = separator._lookup(table, at)
        assert rows.shape == (len(cuts), table.shape[2])
        want = [sum(1 << i for i, m in enumerate(members) if test(m, a)) for a in cuts]
        assert [int.from_bytes(row.tobytes(), "little") for row in rows] == want


# ---------------------------------------------------------------- rectangle verifier


def agree(g, family):
    """The rectangle verifier's report, checked against the pair-list oracle."""
    rep = verify_cs_separator(g, family)
    assert rep == pair_list_verify(g, family)
    return rep


@st.composite
def graphs_with_subfamilies(draw):
    """A graph on at most 12 vertices and a random subfamily of a separator
    built for it, sometimes with the empty and the full cut added."""
    g = draw(small_graphs(max_n=12))
    fam = build_random_separator(g, 0.5, draw(st.integers(0, 2 ** 64 - 1)))
    keep = draw(st.lists(st.booleans(), min_size=len(fam), max_size=len(fam)))
    masks = [a for a, k in zip(fam.masks, keep) if k]
    masks += draw(st.sets(st.sampled_from([0, (1 << g.n) - 1])))
    return g, family_from_masks(g.n, masks)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(graphs_with_subfamilies())
def test_verify_matches_pair_list_oracle(case):
    agree(*case)


def spread_graph(n, seed):
    """G(8, 1/2) placed on vertices of both 64-bit words of an n-vertex host;
    the other vertices form one clique with no edge to it, so every maximal
    stable set holds one of them."""
    rnd = random.Random(seed)
    spots = [3, 63, 64]
    spots += rnd.sample([v for v in range(n) if v not in spots], 5)
    h = gen_gnp(8, 0.5, seed)
    edges = [(spots[u], spots[v]) for u in range(8) for v in bits(h.adj[u]) if u < v]
    edges += itertools.combinations([v for v in range(n) if v not in spots], 2)
    return from_edges(n, edges)


def test_verify_matches_oracle_beyond_one_word():
    rnd = random.Random(5)
    high_witnesses = 0
    for n in range(65, 73):
        g = spread_graph(n, n)
        fam = build_random_separator(g, 0.5, seed=n)
        assert agree(g, fam).ok
        for _ in range(3):
            rep = agree(g, CutFamily(n, [a for a in fam.masks if rnd.random() < 0.9]))
            if not rep.ok and (rep.witness[0] | rep.witness[1]).bit_length() > 64:
                high_witnesses += 1
    assert high_witnesses >= 8


@pytest.mark.parametrize("cells", [1, 7, 100])
def test_verify_in_small_blocks(monkeypatch, cells):
    # blocks of one row up to a few rows give the verdicts of one block
    cases = [(cycle_graph(5), CutFamily(5, []))]
    for g in [gen_gnp(11, 0.5, seed) for seed in range(4)] + [spread_graph(70, 3)]:
        fam = build_random_separator(g, 0.5, seed=1)
        cases += [(g, fam), (g, CutFamily(g.n, fam.masks[:-1])),
                  (g, CutFamily(g.n, fam.masks[::2]))]
    expected = [pair_list_verify(g, fam) for g, fam in cases]
    assert sum(not rep.ok for rep in expected) >= 8
    monkeypatch.setattr(separator, "_BLOCK_CELLS", cells)
    assert [verify_cs_separator(g, fam) for g, fam in cases] == expected


def test_verify_empty_family():
    for g in (cycle_graph(5), gen_gnp(9, 0.5, 2), clique_beside_five_cycle()):
        rep = agree(g, CutFamily(g.n, []))
        assert not rep.ok and rep.pairs_checked == 1


def test_verify_without_disjoint_pairs():
    # every maximal clique of K_n meets every maximal stable set (a vertex),
    # and so does every clique of the edgeless graph with its one stable set
    for g in (complete_graph(1), complete_graph(2), complete_graph(7), empty_graph(5)):
        for masks in ([], [0], [1], [0, (1 << g.n) - 1]):
            assert agree(g, family_from_masks(g.n, masks)) == SeparationReport(True, None, 0)
    assert agree(empty_graph(0), CutFamily(0, [])) == SeparationReport(True, None, 0)


def test_verify_empty_and_full_cut_cover_nothing():
    # the empty cut holds no (nonempty) clique and the full cut leaves out
    # no stable set, so both rectangles are empty
    g = gen_gnp(9, 0.5, 2)
    full = (1 << 9) - 1
    assert agree(g, family_from_masks(9, [0, full])) == agree(g, CutFamily(9, []))
    masks = build_random_separator(g, 0.5, seed=1).masks
    assert agree(g, family_from_masks(9, [0, *masks, full])).ok
    assert not agree(g, family_from_masks(9, [0, *masks[:-1], full])).ok


def test_random_separator_rejects_degenerate_p():
    # every candidate cut is then empty or full, which covers no pair, so the
    # build must fail at once rather than run to its round cap
    g = gen_gnp(8, 0.5, 3)
    for p in (0.0, 1e-30, 1.0):
        with pytest.raises(ValueError, match="covers no disjoint pair"):
            build_random_separator(g, p, seed=1, max_rounds=10)
    assert len(build_random_separator(complete_graph(4), 0.0, seed=1)) == 0


def test_random_separator_round_cap_reported():
    g = cycle_graph(5)
    with pytest.raises(SeparatorBuildError) as exc:
        build_random_separator(g, 0.5, seed=1, max_rounds=0)
    assert exc.value.remaining > 0
    with pytest.raises(ValueError, match="max_rounds"):
        build_random_separator(g, 0.5, seed=1, max_rounds=-3)


def test_random_separator_pinned_regression():
    g = gen_gnp(20, 0.5, 7)
    fam = build_random_separator(g, 0.5, seed=7)
    assert verify_cs_separator(g, fam).ok
    assert len(fam) <= 2 * 20 ** 7
    assert len(fam) == 133  # regression lock for the pinned seed


@pytest.mark.parametrize("n,cuts,digest", [
    (40, 1455, "6577aadd3ec8d491b7ebbe7733469faa905dde9bf3ad2e39f195b545a499a7a8"),
    # 2,359,405 disjoint pairs: _BLOCK_CELLS holds every batch to one round
    (60, 6320, "374d8559693c8f6ef12eeeb5c44aa0ab9efae9db65a2f61193eecd28fb25400b"),
])
def test_random_separator_pinned_at_scale(n, cuts, digest):
    # regression locks on G(n, 1/2) at seed 7: the cut count and the sha256
    # of the emitted family
    fam = build_random_separator(gen_gnp(n, 0.5, 7), 0.5, seed=7)
    assert len(fam) == cuts
    assert hashlib.sha256(emit_cut_family(fam).encode()).hexdigest() == digest


# ---------------------------------------------------------------- closed-form bound


def test_appendix_bound_monotone_grid():
    for exp in range(2, 10):
        rep = check_appendix_bound(10 ** exp, 0.5)
        assert rep.ok, rep
        assert rep.omega == rep.alpha


def test_appendix_bound_dense_case():
    rep = check_appendix_bound(10 ** 6, 0.9)
    assert rep.ok and not rep.small_alpha_fallback


def test_appendix_bound_small_alpha_fallback():
    rep = check_appendix_bound(100, 0.9999)
    assert rep.small_alpha_fallback and rep.ok
    assert rep.alpha == 3.0


def test_appendix_bound_domain_errors():
    with pytest.raises(ValueError):
        check_appendix_bound(100, 0.0)
    with pytest.raises(ValueError):
        check_appendix_bound(2, 0.5)
    with pytest.raises(ValueError):
        check_appendix_bound(100, 1e-9)  # log_b n <= 1 on the clique side


def test_appendix_bound_half_matches_display():
    # at p = 1/2 both thresholds collapse to the same closed form
    rep = check_appendix_bound(2 ** 20, 0.5)
    L = 20.0
    expected = 2 * L - 2 * math.log2(L) + 2 * math.log2(math.e / 2) + 1
    assert abs(rep.omega - expected) < 1e-9
    assert rep.ok
