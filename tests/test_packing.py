import itertools
import math
import random
from fractions import Fraction

import pytest

from csslab.graphs import (complement, complete_graph, cycle_graph, empty_graph,
                           bits, from_edges, gen_gnp, greedy_coloring,
                           is_proper_coloring, mask_of)
from csslab.packing import (BicliqueCovering, CapExceeded, FoolingSet,
                            PackingCertificate, build_fooling_set, certificate_aux_pairs,
                            compose_coloring, fooling_to_packing,
                            min_bp_bruteforce, min_bpor_bruteforce,
                            packing_to_fooling, pair_coloring_to_separator,
                            pairs_packing, refine_t_covering, star_cover,
                            star_partition, separator_to_coloring,
                            VerifyResult, verify_covering, verify_fooling_set,
                            verify_packing)
from csslab.separator import (CutFamily, build_random_separator,
                              extend_to_full_separator, verify_cs_separator)

from oracles import (as_covering, greedy_base_colorer, pair_walk_verify_packing,
                     pairs_cross, recursive_fooling_pairs)


def crossed_biclique_graph():
    """Six-vertex bipartite graph admitting a two-element oriented cover."""
    g = from_edges(6, [(0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5)])
    cert = PackingCertificate(g, (
        (0b000011, 0b011000),
        (0b110000, 0b000110),
    ))
    return g, cert


# ---------------------------------------------------------------- verifiers


def test_verify_packing_crossed_cover():
    g, cert = crossed_biclique_graph()
    assert verify_packing(cert).ok
    # edge 1-4 is covered once in each direction
    dirs = [(a >> 1 & b >> 4 & 1, a >> 4 & b >> 1 & 1) for a, b in cert.bicliques]
    assert dirs == [(1, 0), (0, 1)]


def test_verify_packing_trivia():
    assert verify_packing(PackingCertificate(empty_graph(3), ())).ok
    k2 = complete_graph(2)
    bc = (0b01, 0b10)
    res = verify_packing(PackingCertificate(k2, (bc, bc)))
    assert not res.ok and res.violation == "doubly-covered-arc"
    res = verify_packing(PackingCertificate(k2, ()))
    assert not res.ok and res.violation == "uncovered-edge"
    bad = (0b01, 0b10)
    res = verify_packing(PackingCertificate(empty_graph(2), (bad,)))
    assert not res.ok and res.violation == "incomplete-biclique"


def test_verify_packing_witness_matches_pair_walk():
    # every packing with one biclique dropped leaves edges uncovered; the
    # reported edge must be the pair walk's first, and a repeated biclique
    # must give the same doubly-covered arc
    certs = [crossed_biclique_graph()[1], star_partition(5)]
    for seed in range(12):
        g = gen_gnp(4 + seed % 5, 0.5, 900 + seed)
        certs.append(star_cover(g))
        certs.append(pairs_packing(g)[2])
    checked = 0
    for cert in certs:
        bcs = cert.bicliques
        variants = [bcs] + [bcs[:i] + bcs[i + 1:] for i in range(len(bcs))]
        variants += [bcs[:i] + bcs[i + 1:] + bcs[:1] for i in range(1, len(bcs))]
        for bicliques in variants:
            cand = PackingCertificate(cert.host, bicliques)
            got = verify_packing(cand)
            assert got == pair_walk_verify_packing(cand), bicliques
            checked += got.violation == "uncovered-edge"
    assert checked > 50


def test_verify_fooling_trivia():
    g = complete_graph(1)
    assert verify_fooling_set(FoolingSet(g, ((0, 0),))).ok
    two = FoolingSet(g, ((0b1, 0), (0, 0b1)))
    assert verify_fooling_set(two).ok
    dup = FoolingSet(complete_graph(2), ((0b01, 0b10), (0b01, 0b10)))
    res = verify_fooling_set(dup)
    assert not res.ok and res.violation == "uncrossed-pairs"


def test_verifiers_report_vertices_outside_the_host():
    """A side naming a vertex past n - 1, or a negative side, is a located
    violation of the first such pair, checked before anything else."""
    k3 = complete_graph(3)
    out = "vertex-out-of-range"
    for side in (1 << 5, 1 << 3, -1):
        for first, second in ((side, 1), (1, side)):
            bad = (first, second)
            assert verify_packing(PackingCertificate(k3, (bad,))) == VerifyResult(False, out, (0,))
            assert verify_packing(PackingCertificate(k3, ((0b1, 0b10), bad))) == \
                VerifyResult(False, out, (1,))
            assert verify_covering(BicliqueCovering(k3, ((0b1, 0b10), bad), 2)) == \
                VerifyResult(False, out, (1,))
            assert verify_fooling_set(FoolingSet(k3, (bad,))) == VerifyResult(False, out, (0,))
            assert verify_fooling_set(FoolingSet(k3, ((0b1, 0), bad))) == \
                VerifyResult(False, out, (1,))
    assert verify_packing(PackingCertificate(k3, ((1 << 5, 1),))).violation == out
    assert verify_fooling_set(FoolingSet(k3, ((1 << 5, 0),))).violation == out


# ---------------------------------------------------------------- fooling sets


def brute_fooling_exists(g, size):
    cliques = [frozenset(c) for r in range(g.n + 1)
               for c in itertools.combinations(range(g.n), r)
               if not any(not g.has_edge(a, b)
                          for a, b in itertools.combinations(c, 2))]
    stables = [frozenset(c) for r in range(g.n + 1)
               for c in itertools.combinations(range(g.n), r)
               if not any(g.has_edge(a, b)
                          for a, b in itertools.combinations(c, 2))]
    pairs = [(k, s) for k in cliques for s in stables if not k & s]

    def crossed(p, q):
        return bool(p[0] & q[1]) or bool(q[0] & p[1])

    found = [[p] for p in pairs]
    for _ in range(size - 1):
        nxt = []
        for chain in found:
            start = pairs.index(chain[-1]) + 1
            for q in pairs[start:]:
                if all(crossed(p, q) for p in chain):
                    nxt.append(chain + [q])
        found = nxt
        if not found:
            return False
    return bool(found)


def test_build_fooling_set_sizes():
    for g in (complete_graph(1), complete_graph(3), cycle_graph(5)):
        fs = build_fooling_set(g)
        assert len(fs.pairs) == g.n + 1
        assert verify_fooling_set(fs).ok
    assert brute_fooling_exists(complete_graph(3), 4)


def test_build_fooling_set_matches_recursive_oracle():
    rnd = random.Random(7)
    for n in range(13):
        for p in (0.2, 0.5, 0.8):
            g = gen_gnp(n, p, rnd.randrange(1 << 30))
            assert list(build_fooling_set(g).pairs) == recursive_fooling_pairs(g)


@pytest.mark.parametrize("g", [complete_graph(1500), empty_graph(1500)],
                         ids=["complete", "edgeless"])
def test_build_fooling_set_past_the_recursion_limit(g):
    """The split recurses once per vertex on these graphs, deeper than
    Python's default recursion limit of 1000."""
    fs = build_fooling_set(g)
    assert len(fs.pairs) == 1501
    assert verify_fooling_set(fs).ok


def test_fooling_to_packing_smallest():
    g = complete_graph(1)
    fs = build_fooling_set(g)
    cert = fooling_to_packing(fs)
    assert cert.host.n == 2 and len(cert.bicliques) == 1
    a, b = cert.bicliques[0]
    # the pair with v in the clique points at the pair with v in the stable set
    assert a.bit_count() == 1 and b.bit_count() == 1


def test_fooling_roundtrip_c5():
    fs = build_fooling_set(cycle_graph(5))
    cert = fooling_to_packing(fs)
    assert cert.host.n == 6 and len(cert.bicliques) <= 5
    aux, fs2 = packing_to_fooling(cert)
    assert len(fs2.pairs) == len(fs.pairs)
    assert verify_fooling_set(fs2).ok


def test_packing_to_fooling_requires_complete_host():
    g, cert = crossed_biclique_graph()
    with pytest.raises(ValueError):
        packing_to_fooling(cert)


def test_star_partition_reinterpreted():
    cert = star_partition(5)
    aux, fs = packing_to_fooling(cert)
    assert aux.n == 4 and len(fs.pairs) == 5
    assert verify_fooling_set(fs).ok


# ---------------------------------------------------------------- stars, brute force


def test_star_partition_examples():
    assert star_partition(1).bicliques == ()
    two = star_partition(2)
    assert two.bicliques == ((0b01, 0b10),)
    four = star_partition(4)
    assert len(four.bicliques) == 3 and verify_packing(four).ok
    # exact edge partition: every edge covered exactly once, one direction
    covered = {}
    for left, right in four.bicliques:
        for a in bits(left):
            for b in bits(right):
                key = (min(a, b), max(a, b))
                covered[key] = covered.get(key, 0) + 1
    assert covered == {e: 1 for e in complete_graph(4).edges()}


def test_min_bp_bruteforce_values():
    for n in (2, 3, 4, 5):
        assert min_bp_bruteforce(complete_graph(n), cap=n) == n - 1
    assert min_bp_bruteforce(empty_graph(4), cap=2) == 0
    g, _ = crossed_biclique_graph()
    assert min_bp_bruteforce(g, cap=5) == 3
    assert min_bpor_bruteforce(g, cap=3) == 2
    with pytest.raises(CapExceeded):
        min_bp_bruteforce(complete_graph(5), cap=2)


def test_star_cover_general_graph():
    for seed in range(4):
        g = gen_gnp(7, 0.5, 400 + seed)
        cert = star_cover(g)
        assert verify_packing(cert).ok
        assert len(cert.bicliques) <= max(g.n - 1, 0)


# ---------------------------------------------------------------- colorings


def test_separator_to_coloring_stable_set_case():
    g = empty_graph(4)
    cert = PackingCertificate(g, ())
    fam = CutFamily(0, [0])
    colors = separator_to_coloring(g, cert, fam)
    assert len(set(colors)) == 1


def test_separator_to_coloring_k4():
    g = complete_graph(4)
    cert = star_partition(4)
    aux, _ = certificate_aux_pairs(cert)
    base = build_random_separator(aux, 0.5, seed=2)
    fam = extend_to_full_separator(aux, base)
    colors = separator_to_coloring(g, cert, fam)
    assert is_proper_coloring(g, colors)
    assert len(set(colors)) >= 4
    assert len(set(colors)) <= len(fam)


def test_separator_to_coloring_reports_unseparated():
    g = complete_graph(2)
    cert = star_partition(2)
    with pytest.raises(ValueError):
        separator_to_coloring(g, cert, CutFamily(1, []))


def test_pairs_packing_k1():
    aux, pairs, cert = pairs_packing(complete_graph(1))
    assert pairs == [(0, 0), (0, 0b1), (0b1, 0)]
    assert len(cert.bicliques) <= 1
    assert verify_packing(cert).ok


def test_pairs_packing_routes_to_separator():
    for seed in range(5):
        g = gen_gnp(5, 0.5, 600 + seed)
        aux, pairs, cert = pairs_packing(g)
        colors = greedy_coloring(aux)
        fam = pair_coloring_to_separator(g, pairs, colors)
        assert verify_cs_separator(g, fam).ok
        assert len(fam) <= len(set(colors))


def test_pair_coloring_needs_one_color_per_pair():
    # a short coloring once raised IndexError, and a long one passed
    g = cycle_graph(5)
    _, pairs, _ = pairs_packing(g)
    for colors in ((0,), (0,) * (len(pairs) + 1)):
        with pytest.raises(ValueError,
                           match=f"coloring has {len(colors)} colors for {len(pairs)} pairs"):
            pair_coloring_to_separator(g, pairs, colors)


def test_pairs_packing_aux_is_the_crossing_relation():
    hosts = [from_edges(n, [e for i, e in enumerate(itertools.combinations(range(n), 2))
                            if m >> i & 1])
             for n in range(5) for m in range(1 << n * (n - 1) // 2)]
    hosts += [gen_gnp(n, 0.5, seed) for n in (7, 8) for seed in (1, 2, 3)]
    for g in hosts:
        aux, pairs, _ = pairs_packing(g)
        assert aux.n == len(pairs)
        for i, p in enumerate(pairs):
            assert aux.adj[i] == mask_of(j for j, q in enumerate(pairs)
                                         if pairs_cross(p, q)), (g, i)


# ---------------------------------------------------------------- coverings


def test_observation_chain_transformers():
    fs = build_fooling_set(cycle_graph(5))
    cert = fooling_to_packing(fs)
    cov2 = as_covering(cert, 2)
    assert verify_covering(cov2).ok and cov2.t == 2


def test_refine_t1_star():
    g = complete_graph(4)
    ref = refine_t_covering(g, as_covering(star_partition(4), 1))
    assert ref.subgraph.edge_count() == 6
    assert verify_covering(ref.partition).ok
    assert len(ref.partition.bicliques) <= (2 * 3) ** 1


def test_refine_hand_built_double_edge():
    # triangle covered by its three edges, plus the edge 0-1 again: only 0-1
    # is covered twice
    g = complete_graph(3)
    cov = BicliqueCovering(g, ((0b001, 0b010), (0b010, 0b100), (0b001, 0b100),
                               (0b010, 0b001)), 2)
    assert verify_covering(cov).ok
    ref = refine_t_covering(g, cov)
    assert ref.subgraph.edge_count() == 1
    assert len(ref.partition.bicliques) == 1
    assert ref.partition.bicliques[0] == (0b01, 0b10)


def random_valid_2covering(rnd, n, k):
    """Random bicliques define the host; resample until multiplicity <= 2."""
    while True:
        bicliques = []
        for _ in range(k):
            verts = [v for v in range(n) if rnd.random() < 0.6]
            if len(verts) < 2:
                continue
            cutoff = rnd.randint(1, len(verts) - 1)
            rnd.shuffle(verts)
            bicliques.append((mask_of(verts[:cutoff]), mask_of(verts[cutoff:])))
        counts = {}
        for left, right in bicliques:
            for a in bits(left):
                for b in bits(right):
                    key = (min(a, b), max(a, b))
                    counts[key] = counts.get(key, 0) + 1
        if bicliques and counts and max(counts.values()) <= 2:
            g = from_edges(n, sorted(counts))
            return g, BicliqueCovering(g, tuple(bicliques), 2)


def test_refine_random_2coverings():
    rnd = random.Random(31)
    for trial in range(40):
        n = rnd.randint(3, 8)
        k = rnd.randint(1, 5)
        g, cov = random_valid_2covering(rnd, n, k)
        assert verify_covering(cov).ok
        ref = refine_t_covering(g, cov)
        kk = len(cov.bicliques)
        assert len(ref.partition.bicliques) <= (2 * kk) ** 2
        # classes partition the exactly-2 subgraph
        seen = set()
        for left, right in ref.partition.bicliques:
            for a in bits(left):
                for b in bits(right):
                    e = (min(a, b), max(a, b))
                    assert e not in seen
                    seen.add(e)
        assert seen == set(ref.subgraph.edges())


def test_compose_coloring_t1_direct():
    g = complete_graph(4)
    colors = compose_coloring(g, as_covering(star_partition(4), 1), greedy_base_colorer)
    assert is_proper_coloring(g, colors)
    assert len(set(colors)) == 4


def test_compose_coloring_t2_random():
    rnd = random.Random(37)
    for trial in range(15):
        g, cov = random_valid_2covering(rnd, rnd.randint(3, 7), rnd.randint(1, 4))
        colors = compose_coloring(g, cov, greedy_base_colorer)
        assert is_proper_coloring(g, colors)


def test_compose_rejects_improper_base():
    g = complete_graph(3)
    cov = as_covering(star_partition(3), 1)

    def bad(h, part):
        return tuple(0 for _ in range(h.n))

    with pytest.raises(ValueError):
        compose_coloring(g, cov, bad)


def test_compose_rejects_a_base_coloring_of_the_wrong_length():
    # two colors for K4 once raised IndexError inside the properness check
    g = complete_graph(4)
    with pytest.raises(ValueError, match="base colorer returned an improper coloring"):
        compose_coloring(g, as_covering(star_partition(4), 1), lambda h, part: (0, 1))


def test_min_bpt_bruteforce_chain():
    from csslab.packing import min_bpt_bruteforce
    # multiplicity monotonicity on complete graphs, and the oriented number
    # sandwiched between the 2-covering and 1-partition numbers
    for n in range(2, 6):
        g = complete_graph(n)
        bp1 = min_bpt_bruteforce(g, 1, cap=n)
        bp2 = min_bpt_bruteforce(g, 2, cap=n)
        bp3 = min_bpt_bruteforce(g, 3, cap=n)
        assert bp3 <= bp2 <= bp1 == n - 1
        bpor = min_bpor_bruteforce(g, cap=n)
        assert bp2 <= bpor <= bp1


def test_two_covering_bounds_advisory():
    """Numeric comparison of exact 2-covering numbers on complete graphs with
    the asymptotic envelope sqrt(t!/2^t) k^(1/t) .. t k^(1/t); logged, and
    only the direction that holds without unknown lower-order slack is
    asserted."""
    from csslab.packing import min_bpt_bruteforce
    t = 2
    for k in range(2, 7):
        exact = min_bpt_bruteforce(complete_graph(k), t, cap=6)
        lower = (math.factorial(t) / 2 ** t) ** (1 / t) * k ** (1 / t)
        upper = t * k ** (1 / t)
        print(f"advisory bp_{t}(K_{k}) = {exact}; envelope "
              f"[{lower:.2f}, {upper:.2f}]")
        assert exact >= math.floor(lower)
