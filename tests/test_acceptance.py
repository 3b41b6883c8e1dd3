"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and asserting the stated budget."""

import itertools
import math
import random
import time

import numpy as np
import pytest

from csslab import fixture_text
from csslab.csp import (CcpInstance, TwoSatInstance, all_3ccp_solutions,
                        all_maximal_stubborn_solutions, build_quasipoly_covering,
                        ccp_covering_to_separator, ccp_of_graph, covering_covers,
                        full_3ccp_covering_via_stubborn, random_ccp_instance,
                        separator_to_stubborn_covering, solve_2sat,
                        square_cut_family, stubborn_assignment_compatible,
                        StubbornInstance)
from csslab.formats import parse_graph, parse_packing
from csslab.graphs import (bits, complement, complete_graph,
                           comparability_from_random_poset, contains_induced,
                           from_edges, gen_gnp, greedy_coloring,
                           is_proper_coloring, mask_of, net_graph, path_graph)
from csslab.packing import (BicliqueCovering, build_fooling_set,
                            certificate_aux_pairs, fooling_to_packing,
                            min_bp_bruteforce, packing_to_fooling,
                            pair_coloring_to_separator, pairs_packing,
                            refine_t_covering, separator_to_coloring,
                            star_cover, star_partition, verify_covering,
                            verify_fooling_set, verify_packing)
from csslab.separator import (build_random_separator, check_appendix_bound,
                              extend_to_full_separator, verify_cs_separator)
from csslab.transversal import (BicliquePairNotFound, build_pk_free_separator,
                                split_free_report, transversal_budget)


class budget:
    """Context manager asserting the criterion's runtime budget and printing
    one pass/fail line."""

    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number} ({self.label}): "
              f"{elapsed:.1f}s of {self.seconds:.0f}s budget")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget")
        return False


def test_criterion_01_graham_pollak():
    with budget(1, "star partitions and exact packing numbers", 60):
        for n in range(1, 9):
            cert = star_partition(n)
            assert len(cert.bicliques) == max(n - 1, 0)
            assert verify_packing(cert).ok
        for n in (2, 3, 4, 5):
            assert min_bp_bruteforce(complete_graph(n), cap=n) == n - 1


def test_criterion_02_shipped_certificate():
    with budget(2, "crossed-biclique fixture", 1):
        g = parse_graph(fixture_text("two_biclique_graph.txt"))
        cert = parse_packing(fixture_text("two_biclique_cert.txt"), g)
        assert len(cert.bicliques) == 2
        assert verify_packing(cert).ok
        assert min_bp_bruteforce(g, cap=4) == 3


def test_criterion_03_fooling_sets():
    with budget(3, "fooling sets of size n+1 and the packing round trip", 60):
        rnd = random.Random(303)
        for trial in range(200):
            n = rnd.randint(1, 10)
            g = gen_gnp(n, rnd.choice([0.2, 0.5, 0.8]), 30000 + trial)
            fs = build_fooling_set(g)
            assert len(fs.pairs) == n + 1
            assert verify_fooling_set(fs).ok
            cert = fooling_to_packing(fs)
            aux, fs2 = packing_to_fooling(cert)
            assert len(fs2.pairs) == len(fs.pairs)
            assert verify_fooling_set(fs2).ok


# family sizes for the pinned seeds, locked after the first audited run
PINNED_FAMILY_SIZES = {
    (10, 40001): 9,
    (20, 40002): 143,
    (30, 40003): 545,
}


def test_criterion_04_random_separators():
    with budget(4, "greedy random separators on G(n, 1/2)", 300):
        cap_fractions = []
        plan = [(10, 20), (20, 15), (30, 15)]
        assert sum(c for _, c in plan) == 50
        for n, count in plan:
            for i in range(count):
                seed = 40000 + n // 10 * 1000 + i
                g = gen_gnp(n, 0.5, seed)
                stats = {}
                fam = build_random_separator(g, 0.5, seed=seed, stats_out=stats)
                assert verify_cs_separator(g, fam).ok
                assert stats["cap"] == 2 * n ** 7
                cap_fractions.append(stats["rounds"] / stats["cap"])
        assert max(cap_fractions) < 1e-3  # rounds stay far below the hard cap
        for (n, seed), size in PINNED_FAMILY_SIZES.items():
            g = gen_gnp(n, 0.5, seed)
            fam = build_random_separator(g, 0.5, seed=seed)
            assert len(fam) == size, (n, seed, len(fam))


def test_criterion_05_closed_form_bound():
    with budget(5, "threshold-exponent bound on the decade grid", 1):
        for exp in range(2, 10):
            for tenth in range(1, 10):
                rep = check_appendix_bound(10 ** exp, tenth / 10)
                assert rep.ok, rep
        # p = 1/2 spot check at n = 10^6: the implementation must reproduce
        # the displayed closed form evaluated independently here, within a
        # factor n^0.2 (see the notes for why the leading-term-only envelope
        # n^(-4 +- 0.2) is unattainable at this n)
        n = 10 ** 6
        rep = check_appendix_bound(n, 0.5)
        L = math.log2(n)
        display = 2 * L - 2 * math.log2(L) + 2 * math.log2(math.e / 2) + 1
        expected_log2 = -2 * display
        assert abs(rep.log2_value - expected_log2) <= 0.2 * L
        assert rep.ok and rep.log2_value >= -6 * L
        # the o(1)-free exponent sits 0.68 above -4, far outside n^0.2
        assert rep.log2_value / L > -4 + 0.2


def test_criterion_06_split_free_pipeline():
    with budget(6, "weight/transversal pipeline on net-free graphs", 300):
        phi = 3
        t_budget = transversal_budget(phi)
        refined_cap = phi + math.ceil(math.log2(phi))
        for i in range(50):
            n = 10 + (i % 9)
            g = comparability_from_random_poset(n, 60000 + i)
            assert contains_induced(g, net_graph()) is None
            fam, reports = split_free_report(g, net_graph())
            for rep in reports:
                assert rep.side in ("K", "S")      # exactly one case certified
                assert rep.tau_star <= 2           # exact rational comparison
                assert rep.vc.exact and rep.vc.value <= 2 * phi - 1
                assert rep.vc.value <= refined_cap  # advisory refinement holds here
                assert rep.tau <= t_budget
            assert verify_cs_separator(g, fam).ok


def sample_path_class_instances():
    """Hand-built plus rejection-sampled members of the class excluding the
    5-vertex path and its complement, up to 16 vertices."""
    out = []
    blocks = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    blocks += [(u, v) for u in range(8, 16) for v in range(u + 1, 16)]
    out.append(from_edges(16, blocks))  # two disjoint cliques
    parts = [(2 * i, 2 * i + 1) for i in range(8)]
    edges = [(u, v) for i, a in enumerate(parts) for b in parts[i + 1:]
             for u in a for v in b]
    out.append(from_edges(16, edges))  # complete multipartite
    p5 = path_graph(5)
    found = 0
    seed = 0
    while found < 6:
        seed += 1
        n = 8 + seed % 2
        g = gen_gnp(n, 0.5, 70000 + seed)
        if contains_induced(g, p5) is None and \
                contains_induced(complement(g), p5) is None:
            out.append(g)
            found += 1
    return out


def test_criterion_07_path_free_recursion():
    with budget(7, "recursive separator for path/antipath-free graphs", 120):
        for g in sample_path_class_instances():
            try:
                fam = build_pk_free_separator(g, k=5, t_k=0.25)
            except BicliquePairNotFound as exc:
                # a precise report is an accepted outcome: it names the level
                assert exc.needed == math.ceil(0.25 * len(exc.level_vertices))
                assert len(exc.level_vertices) > 12
                continue
            assert verify_cs_separator(g, fam).ok
            c = -1.0 / math.log2(1 - 0.25)
            assert len(fam) <= g.n ** c + 2 ** 12 * g.n


def test_criterion_08_quasipoly_covering():
    with budget(8, "majority-color covering tree, exhaustive", 180):
        rnd = random.Random(808)
        for trial in range(100):
            n = rnd.randint(1, 8)
            inst = random_ccp_instance(n, 80000 + trial)
            tree = build_quasipoly_covering(inst)
            sols = all_3ccp_solutions(inst)
            assert not covering_covers(tree.assignments, sols)
            height_bound = math.ceil(math.log(n, 1.5)) + 1 if n > 1 else 1
            assert tree.height <= height_bound
            assert tree.raw_leaf_count <= (n + 1) ** tree.height


def test_criterion_09_two_sat_oracle():
    with budget(9, "2-SAT against the exhaustive oracle", 120):
        rnd = random.Random(909)
        for trial in range(500):
            nv = rnd.randint(1, 14)
            nc = rnd.randint(0, 3 * nv)
            clauses = tuple((rnd.choice([1, -1]) * rnd.randint(1, nv),
                             rnd.choice([1, -1]) * rnd.randint(1, nv))
                            for _ in range(nc))
            ts = TwoSatInstance(nv, clauses)
            got = solve_2sat(ts)
            idx = np.arange(1 << nv, dtype=np.uint32)
            ok = np.ones(1 << nv, dtype=bool)
            for a, b in clauses:
                va = (idx >> (abs(a) - 1) & 1).astype(bool)
                vb = (idx >> (abs(b) - 1) & 1).astype(bool)
                ok &= (va if a > 0 else ~va) | (vb if b > 0 else ~vb)
            assert (got is not None) == bool(ok.any())
            if got is not None:
                assert all(((a > 0) == got[abs(a) - 1]) or
                           ((b > 0) == got[abs(b) - 1]) for a, b in clauses)


def random_valid_2covering(rnd, n, k):
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


def test_criterion_10_label_refinement():
    with budget(10, "multiplicity-label refinement", 60):
        rnd = random.Random(1010)
        for trial in range(100):
            n = rnd.randint(3, 8)
            k = rnd.randint(1, 5)
            g, cov = random_valid_2covering(rnd, n, k)
            refined = refine_t_covering(g, cov)
            kk = len(cov.bicliques)
            assert len(refined.partition.bicliques) <= (2 * kk) ** cov.t
            assert verify_covering(refined.partition).ok
            seen = set()
            for left, right in refined.partition.bicliques:
                for a in bits(left):
                    for b in bits(right):
                        e = (min(a, b), max(a, b))
                        assert e not in seen
                        seen.add(e)
            assert seen == set(refined.subgraph.edges())


def test_criterion_11_equivalence_loop():
    with budget(11, "separator/covering equivalence loop", 300):
        rnd = random.Random(1111)

        def provider_for(seed):
            def provider(sub_inst):
                g = sub_inst.graph
                if g.n == 0:
                    return [()]
                fam = extend_to_full_separator(
                    g, build_random_separator(g, 0.5, seed))
                return separator_to_stubborn_covering(
                    sub_inst, square_cut_family(fam))
            return provider

        for trial in range(30):
            n = rnd.randint(3, 6)
            g = gen_gnp(n, 0.5, 110000 + trial)
            lists = tuple(frozenset(rnd.sample([1, 2, 3, 4], rnd.randint(2, 4)))
                          for _ in range(n))
            inst = StubbornInstance(g, lists)
            full = extend_to_full_separator(
                g, build_random_separator(g, 0.5, seed=trial))
            assert verify_cs_separator(g, full).ok
            f2 = square_cut_family(full)
            assert len(f2) <= len(full) ** 2
            cov3 = separator_to_stubborn_covering(inst, f2)
            for sol in all_maximal_stubborn_solutions(inst):
                assert any(stubborn_assignment_compatible(la, sol) for la in cov3)
            enc = ccp_of_graph(g)
            cov4 = full_3ccp_covering_via_stubborn(enc, 0, provider_for(trial))
            assert not covering_covers(cov4, all_3ccp_solutions(enc))
            fam5 = ccp_covering_to_separator(g, cov4)
            assert verify_cs_separator(g, fam5).ok


def test_criterion_12_coloring_directions():
    with budget(12, "separators to colorings and back", 120):
        rnd = random.Random(1212)
        # direction (a): pairs graph, greedy coloring, color-class cuts
        for trial in range(10):
            n = rnd.randint(2, 6)
            g = gen_gnp(n, rnd.choice([0.3, 0.5, 0.7]), 120000 + trial)
            aux, pairs, cert = pairs_packing(g)
            assert verify_packing(cert).ok
            assert len(cert.bicliques) <= n
            colors = greedy_coloring(aux)
            fam = pair_coloring_to_separator(g, pairs, colors)
            assert verify_cs_separator(g, fam).ok
        # direction (b): color a graph by the cuts separating its certificate
        for trial in range(10):
            n = rnd.randint(2, 8)
            g = gen_gnp(n, rnd.choice([0.4, 0.6]), 121000 + trial)
            cert = star_cover(g)
            aux, _ = certificate_aux_pairs(cert)
            if aux.n == 0:
                continue
            fam = extend_to_full_separator(
                aux, build_random_separator(aux, 0.5, seed=trial))
            colors = separator_to_coloring(g, cert, fam)
            assert is_proper_coloring(g, colors)
            assert len(set(colors)) <= len(fam)
        # chromatic sanity on the complete graph
        cert = star_partition(4)
        aux, _ = certificate_aux_pairs(cert)
        fam = extend_to_full_separator(aux, build_random_separator(aux, 0.5, seed=9))
        colors = separator_to_coloring(complete_graph(4), cert, fam)
        assert len(set(colors)) >= 4
