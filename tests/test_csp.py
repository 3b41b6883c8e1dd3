import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csslab.graphs import (complement, complete_graph, cycle_graph, empty_graph,
                           from_edges, gen_gnp, is_clique, is_stable, mask_of)
from csslab.separator import (CutFamily, build_random_separator,
                              extend_to_full_separator, separates,
                              verify_cs_separator)
from csslab import csp
from csslab.csp import (CcpInstance, MalformedCovering, NotReallyThreeColorable,
                        StubbornInstance, TwoSatInstance,
                        all_3ccp_solutions, all_maximal_stubborn_solutions,
                        build_quasipoly_covering,
                        ccp_covering_to_separator, ccp_of_graph,
                        covering_covers, full_3ccp_covering_via_stubborn,
                        majority_color, random_ccp_instance, really_3colorable,
                        separator_to_stubborn_covering, solve_2sat,
                        square_cut_family, stubborn_assignment_compatible,
                        stubborn_to_3ccp_covering, trivial_stubborn,
                        two_list_to_2sat, verify_3ccp_solution,
                        verify_stubborn_solution)

import oracles
from oracles import (pairwise_3ccp_solution, per_assignment_covering_covers,
                     per_target_3ccp_covering, per_target_full_3ccp_covering,
                     product_filter_3ccp, product_filter_maximal_stubborn,
                     resume_index_solve_2sat, scan_covering_covers,
                     triple_sort_two_list_to_2sat, unmemoised_ccp_covering_to_separator)


def separator_provider(seed):
    def provider(sub_inst):
        g = sub_inst.graph
        if g.n == 0:
            return [()]
        fam = extend_to_full_separator(
            g, build_random_separator(g, 0.5, seed))
        return separator_to_stubborn_covering(sub_inst, square_cut_family(fam))
    return provider


def clause_sat(clauses, assignment):
    return all(((a > 0) == assignment[abs(a) - 1]) or
               ((b > 0) == assignment[abs(b) - 1]) for a, b in clauses)


def numpy_2sat_oracle(ts):
    """All-assignment satisfiability over at most 14 variables."""
    n = ts.nvars
    idx = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(1 << n, dtype=bool)
    for a, b in ts.clauses:
        va = (idx >> (abs(a) - 1) & 1).astype(bool)
        vb = (idx >> (abs(b) - 1) & 1).astype(bool)
        ok &= (va if a > 0 else ~va) | (vb if b > 0 else ~vb)
    return ok


# ---------------------------------------------------------------- solutions


def test_verify_3ccp_examples():
    inst = CcpInstance(2, (0,))
    assert verify_3ccp_solution(inst, (1, 1))
    assert not verify_3ccp_solution(inst, (0, 0))
    assert verify_3ccp_solution(inst, (0, 1))


def test_verify_3ccp_matches_pairwise_oracle():
    for n in range(7):
        for seed in range(4):
            inst = random_ccp_instance(n, 300 + seed)
            for coloring in itertools.product((0, 1, 2), repeat=n):
                assert (verify_3ccp_solution(inst, coloring)
                        == pairwise_3ccp_solution(inst, coloring)), (n, seed, coloring)


def test_3ccp_solutions_match_product_filter():
    for n in range(8):
        for seed in range(4):
            inst = random_ccp_instance(n, 400 + seed)
            assert all_3ccp_solutions(inst) == product_filter_3ccp(inst), (n, seed)
        inst = ccp_of_graph(gen_gnp(n, 0.5, 410 + n))
        assert all_3ccp_solutions(inst) == product_filter_3ccp(inst), n


def test_colors_and_vertices_outside_the_instance_raise():
    inst = CcpInstance(2, (0,))
    for coloring in ((5, 5), (-3, -3)):
        with pytest.raises(ValueError, match="colors must be"):
            verify_3ccp_solution(inst, coloring)
    # a bad color is reported even after a violated pair
    with pytest.raises(ValueError, match="colors must be"):
        verify_3ccp_solution(CcpInstance(3, (0, 0, 0)), (0, 0, 3))
    for x in (inst.n, -1):
        with pytest.raises(ValueError, match="not in the"):
            really_3colorable(inst, x, 0)
        with pytest.raises(ValueError, match="not in the"):
            majority_color(inst, x, 0b11)


def test_fixture_demo_solution():
    from csslab import fixture_text
    from csslab.formats import parse_ccp
    inst = parse_ccp(fixture_text("ccp_demo.txt"))
    text = fixture_text("ccp_demo_solution.txt").split()
    sol = tuple("ABC".index(t) for t in text)
    assert verify_3ccp_solution(inst, sol)


# ---------------------------------------------------------------- 2-SAT


def test_two_list_encoding_examples():
    inst = CcpInstance(1, ())
    ts, _ = two_list_to_2sat(inst, (frozenset({0, 1}),))
    assert ts.nvars == 2
    assert set(ts.clauses) == {(1, 2), (-1, -2)}
    sats = [a for a in itertools.product([False, True], repeat=2)
            if clause_sat(ts.clauses, a)]
    assert len(sats) == 2

    inst2 = CcpInstance(2, (0,))
    ts2, dec2 = two_list_to_2sat(inst2, (frozenset({0, 1}), frozenset({0, 1})))
    sats = [a for a in itertools.product([False, True], repeat=ts2.nvars)
            if clause_sat(ts2.clauses, a)]
    assert len(sats) == 3
    for a in sats:
        assert verify_3ccp_solution(inst2, dec2(a))

    # singleton lists forcing an invalid coloring: unsatisfiable
    ts3, _ = two_list_to_2sat(inst2, (frozenset({0}), frozenset({0})))
    assert solve_2sat(ts3) is None


def test_two_list_bijection_exhaustive():
    rnd = random.Random(41)
    for trial in range(12):
        n = rnd.randint(1, 7)
        inst = random_ccp_instance(n, 4000 + trial)
        la = tuple(frozenset(rnd.sample([0, 1, 2], rnd.randint(1, 2)))
                   for _ in range(n))
        ts, dec = two_list_to_2sat(inst, la)
        sats = [a for a in itertools.product([False, True], repeat=ts.nvars)
                if clause_sat(ts.clauses, a)]
        compatible = [s for s in all_3ccp_solutions(inst)
                      if stubborn_assignment_compatible(la, s)]
        assert len(sats) == len(compatible)
        assert sorted(dec(a) for a in sats) == sorted(compatible)


def test_solve_2sat_examples():
    assert solve_2sat(TwoSatInstance(1, ())) == (False,)
    assert solve_2sat(TwoSatInstance(1, ((1, 1), (-1, -1)))) is None


def test_two_list_encoding_rejects_colors_outside_0_to_2():
    # {5} once encoded to a solution decoding to (5, 1), which
    # verify_3ccp_solution rejects with ValueError
    inst = CcpInstance(2, (0,))
    for bad in (frozenset({5}), frozenset({-1, 0}), frozenset({2, 3})):
        with pytest.raises(ValueError, match="vertex 0 list holds a color outside"):
            two_list_to_2sat(inst, (bad, frozenset({0, 1})))
        with pytest.raises(ValueError, match="vertex 1 list holds a color outside"):
            two_list_to_2sat(inst, (frozenset({0, 1}), bad))


def test_ccp_instance_rejects_a_negative_vertex_count():
    # (-1)(-2)/2 = 1 pair, so CcpInstance(-1, (0,)) once constructed and
    # all_3ccp_solutions on it raised IndexError
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        CcpInstance(-1, (0,))


def test_two_sat_instance_rejects_negative_variable_count():
    # TwoSatInstance(-2, ()) once solved to ()
    with pytest.raises(ValueError, match="variable count -2 is negative"):
        TwoSatInstance(-2, ())
    assert solve_2sat(TwoSatInstance(0, ())) == ()


def test_solve_2sat_against_numpy_oracle():
    rnd = random.Random(43)
    for trial in range(150):
        nv = rnd.randint(1, 14)
        nc = rnd.randint(0, 3 * nv)
        clauses = tuple((rnd.choice([1, -1]) * rnd.randint(1, nv),
                         rnd.choice([1, -1]) * rnd.randint(1, nv))
                        for _ in range(nc))
        ts = TwoSatInstance(nv, clauses)
        got = solve_2sat(ts)
        oracle = numpy_2sat_oracle(ts)
        assert (got is not None) == bool(oracle.any())
        if got is not None:
            assert clause_sat(clauses, got)


# ---------------------------------------------------------------- covering tree


def test_quasipoly_single_vertex():
    inst = CcpInstance(1, ())
    tree = build_quasipoly_covering(inst)
    assert len(tree.assignments) <= 2
    assert not covering_covers(tree.assignments, all_3ccp_solutions(inst))


def test_quasipoly_exhaustive_and_bounds():
    rnd = random.Random(47)
    for trial in range(20):
        n = rnd.randint(1, 8)
        inst = random_ccp_instance(n, 5000 + trial)
        tree = build_quasipoly_covering(inst)
        sols = all_3ccp_solutions(inst)
        assert not covering_covers(tree.assignments, sols)
        height_bound = math.ceil(math.log(n, 1.5)) + 1 if n > 1 else 1
        assert tree.height <= height_bound
        assert tree.raw_leaf_count <= (n + 1) ** tree.height
        for pool, removed in tree.level_removals:
            assert removed >= math.ceil(pool / 3)
        for la in tree.assignments:
            assert all(1 <= len(lst) <= 2 for lst in la)


def covering_cases():
    """(covering, solutions) pairs over color lists (quasi-polynomial
    coverings of 3-CCP instances) and part lists (separator coverings of
    list-partition instances), each covering with about half its
    assignments dropped so that some solutions are missed."""
    rnd = random.Random(83)
    cases = []
    for trial in range(12):
        n = rnd.randint(1, 7)
        inst = random_ccp_instance(n, 8000 + trial)
        cov = build_quasipoly_covering(inst).assignments
        cases.append(([la for la in cov if rnd.random() < 0.5], all_3ccp_solutions(inst)))
        g = gen_gnp(n, rnd.choice((0.2, 0.5, 0.8)), 8100 + trial)
        lists = tuple(frozenset(rnd.sample([1, 2, 3, 4], rnd.randint(1, 4)))
                      for _ in range(n))
        sinst = StubbornInstance(g, lists)
        full = extend_to_full_separator(g, build_random_separator(g, 0.5, seed=trial))
        cov = separator_to_stubborn_covering(sinst, square_cut_family(full))
        cases.append(([la for la in cov if rnd.random() < 0.5],
                      all_maximal_stubborn_solutions(sinst)))
    return cases


def test_covering_covers_matches_scan():
    cases = covering_cases()
    with_misses = 0
    for cov, sols in cases:
        for as_list in (frozenset, set, lambda lst: tuple(sorted(lst))):
            plain = [tuple(as_list(lst) for lst in la) for la in cov]
            missed = covering_covers(plain, sols)
            assert missed == scan_covering_covers(plain, sols)
        with_misses += bool(missed)
    assert with_misses >= len(cases) // 2
    cov, sols = cases[0]
    assert covering_covers([], sols) == sols
    assert covering_covers(cov, []) == [] and covering_covers([], []) == []
    empty = all_3ccp_solutions(CcpInstance(0, ()))
    assert empty == [()]
    assert covering_covers([()], empty) == [] and covering_covers([], empty) == empty


def test_covering_covers_confirms_each_covered_solution_once(monkeypatch):
    """``covering_covers`` runs the per-solution predicate once for every
    covered solution and never for a missed one (the benchmark's tracer
    requires the predicate to run), and a disagreement between the predicate
    and the solution index raises."""
    real = csp.stubborn_assignment_compatible
    calls = []

    def counted(la, part):
        calls.append(part)
        return real(la, part)

    monkeypatch.setattr(csp, "stubborn_assignment_compatible", counted)
    for cov, sols in covering_cases():
        calls.clear()
        missed = covering_covers(cov, sols)
        assert sorted(calls) == sorted(s for s in sols if s not in missed)
    monkeypatch.setattr(csp, "stubborn_assignment_compatible", lambda la, part: False)
    cov, sols = covering_cases()[0]
    with pytest.raises(RuntimeError, match="implementation bug"):
        covering_covers(cov, sols)


# ---------------------------------------------------------------- really-3-colorable


def build_c5_blocked_instance():
    """x = 0 sees everyone through A-edges; inside the neighborhood the
    B-edges form a five-cycle, everything else is C."""
    ring = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    cols = []
    for u in range(6):
        for v in range(u + 1, 6):
            if u == 0:
                cols.append(0)
            elif (u, v) in ring:
                cols.append(1)
            else:
                cols.append(2)
    return CcpInstance(6, cols)


def test_really_3colorable_examples():
    inst = CcpInstance(2, (1,))
    ok, wit = really_3colorable(inst, 0, 0)  # empty A-edge-neighborhood
    assert ok and wit is None

    blocked = build_c5_blocked_instance()
    ok, wit = really_3colorable(blocked, 0, 0)
    assert not ok and wit == 0b111110
    # soundness of the structural test: no solution gives x the color
    assert not any(s[0] == 0 for s in all_3ccp_solutions(blocked))


def test_really_3colorable_random_soundness():
    rnd = random.Random(53)
    for trial in range(15):
        n = rnd.randint(2, 7)
        inst = random_ccp_instance(n, 6000 + trial)
        sols = all_3ccp_solutions(inst)
        for alpha in (0, 1, 2):
            ok, wit = really_3colorable(inst, 0, alpha)
            if not ok:
                assert not any(s[0] == alpha for s in sols)
                assert wit is not None and wit.bit_count() >= 5


# ---------------------------------------------------------------- stubborn


def test_verify_stubborn_examples():
    g = gen_gnp(4, 0.5, 61)
    inst = trivial_stubborn(g)
    chk = verify_stubborn_solution(inst, (3, 3, 3, 3))
    assert chk.valid and chk.maximal

    edge_graph = from_edges(2, [(0, 1)])
    inst2 = trivial_stubborn(edge_graph)
    chk2 = verify_stubborn_solution(inst2, (2, 2))
    assert not chk2.valid

    lone = StubbornInstance(empty_graph(1), (frozenset({1, 3}),))
    chk3 = verify_stubborn_solution(lone, (1,))
    assert chk3.valid and not chk3.maximal

    with pytest.raises(ValueError):
        verify_stubborn_solution(inst, (5, 1, 1, 1))


def test_square_family_examples():
    fam = CutFamily(3, [0b011])
    sq = square_cut_family(fam)
    assert sq.masks == (0b011,)

    g = gen_gnp(6, 0.5, 67)
    full = extend_to_full_separator(g, build_random_separator(g, 0.5, seed=3))
    sq = square_cut_family(full)
    assert len(sq) <= len(full) ** 2
    # separates every clique from unions of two stable sets f separates
    from csslab.graphs import _all_clique_masks
    cliques = list(_all_clique_masks(g))
    stables = list(_all_clique_masks(complement(g)))
    rnd = random.Random(0)
    for _ in range(200):
        k = rnd.choice(cliques)
        s1, s2 = rnd.choice(stables), rnd.choice(stables)
        if k & (s1 | s2):
            continue
        assert any(separates(a, k, s1 | s2) for a in sq.masks)


def test_stubborn_covering_single_vertex():
    inst = StubbornInstance(empty_graph(1), (frozenset({3, 4}),))
    fam = CutFamily(1, [0b1])
    cov = separator_to_stubborn_covering(inst, fam)
    assert cov == [(frozenset({3, 4}),)]


def test_stubborn_covering_exhaustive():
    rnd = random.Random(71)
    for trial in range(10):
        n = rnd.randint(1, 6)
        g = gen_gnp(n, 0.5, 7000 + trial)
        lists = tuple(frozenset(rnd.sample([1, 2, 3, 4], rnd.randint(1, 4)))
                      for _ in range(n))
        inst = StubbornInstance(g, lists)
        full = extend_to_full_separator(g, build_random_separator(g, 0.5, seed=trial))
        cov = separator_to_stubborn_covering(inst, square_cut_family(full))
        for sol in all_maximal_stubborn_solutions(inst):
            assert any(stubborn_assignment_compatible(la, sol) for la in cov)


def test_maximal_stubborn_solutions_match_product_filter():
    rnd = random.Random(67)
    for trial in range(30):
        n = rnd.randint(0, 6)
        g = gen_gnp(n, rnd.choice((0.2, 0.5, 0.8)), 7100 + trial)
        lists = tuple(frozenset(rnd.sample([1, 2, 3, 4], rnd.randint(1, 4)))
                      for _ in range(n))
        inst = StubbornInstance(g, lists)
        assert all_maximal_stubborn_solutions(inst) == product_filter_maximal_stubborn(inst)


# ---------------------------------------------------------------- the transformer


def test_translation_table_rows():
    inst = ccp_of_graph(complete_graph(3))
    provider = separator_provider(5)
    cov = stubborn_to_3ccp_covering(inst, 0, provider)
    assert cov  # the slice construction produced assignments
    for la in cov:
        assert la[0] == frozenset({0})
        for lst in la:
            assert 1 <= len(lst) <= 2


def test_transformer_covers_slice_exhaustively():
    rnd = random.Random(73)
    done = 0
    for trial in range(20):
        n = rnd.randint(3, 6)
        inst = random_ccp_instance(n, 8000 + trial)
        x = 0
        try:
            for target in (0, 1, 2):
                cov = stubborn_to_3ccp_covering(inst, x, separator_provider(trial),
                                                target=target)
                sols = [s for s in all_3ccp_solutions(inst) if s[x] == target]
                missed = covering_covers(cov, sols)
                assert not missed, (trial, target, missed[:2])
            done += 1
        except NotReallyThreeColorable:
            continue
        if done >= 8:
            break
    assert done >= 8


def test_transformer_blocked_slice_is_empty():
    blocked = build_c5_blocked_instance()
    cov = stubborn_to_3ccp_covering(blocked, 0, separator_provider(1), target=0)
    assert cov == []


def test_transformer_rejects_malformed_sub_covering():
    inst = ccp_of_graph(cycle_graph(4))

    def junk_provider(sub_inst):
        return [tuple(frozenset({1}) for _ in range(sub_inst.graph.n))]

    with pytest.raises(MalformedCovering):
        stubborn_to_3ccp_covering(inst, 0, junk_provider)


def test_transformer_rejects_vertex_outside_instance():
    four = random_ccp_instance(4, 1)
    for inst, x in ((CcpInstance(0, ()), 0), (four, 4), (four, -1)):
        with pytest.raises(ValueError, match="not in the"):
            stubborn_to_3ccp_covering(inst, x, separator_provider(1))


# ---------------------------------------------------------------- covering -> separator


def test_ccp_covering_to_separator_small():
    for g in (empty_graph(3), complete_graph(3), cycle_graph(5)):
        tree = build_quasipoly_covering(ccp_of_graph(g))
        fam = ccp_covering_to_separator(g, tree.assignments)
        assert verify_cs_separator(g, fam).ok


def test_ccp_covering_to_separator_random_end_to_end():
    rnd = random.Random(79)
    for trial in range(8):
        n = rnd.randint(1, 7)
        g = gen_gnp(n, rnd.choice([0.3, 0.5, 0.7]), 9000 + trial)
        tree = build_quasipoly_covering(ccp_of_graph(g))
        fam = ccp_covering_to_separator(g, tree.assignments)
        assert verify_cs_separator(g, fam).ok
        assert len(fam) <= len(tree.assignments) * (2 * n + 2)


def test_ccp_covering_rejects_full_list():
    g = complete_graph(2)
    with pytest.raises(MalformedCovering):
        ccp_covering_to_separator(g, [(frozenset({0, 1, 2}), frozenset({0, 1}))])


def test_full_loop_small():
    rnd = random.Random(83)
    for trial in range(4):
        n = rnd.randint(3, 6)
        g = gen_gnp(n, 0.5, 9500 + trial)
        lists = tuple(frozenset(rnd.sample([1, 2, 3, 4], rnd.randint(2, 4)))
                      for _ in range(n))
        inst = StubbornInstance(g, lists)
        full = extend_to_full_separator(g, build_random_separator(g, 0.5, seed=trial))
        f2 = square_cut_family(full)
        cov3 = separator_to_stubborn_covering(inst, f2)
        for sol in all_maximal_stubborn_solutions(inst):
            assert any(stubborn_assignment_compatible(la, sol) for la in cov3)
        enc = ccp_of_graph(g)
        cov4 = full_3ccp_covering_via_stubborn(enc, 0, separator_provider(trial))
        assert not covering_covers(cov4, all_3ccp_solutions(enc))
        fam5 = ccp_covering_to_separator(g, cov4)
        assert verify_cs_separator(g, fam5).ok


# ---------------------------------------------------------------- parity with the per-call oracles


CUT_LISTS = tuple(map(frozenset, ({0, 1}, {1, 2}, {0, 2}, {0}, {1}, {2})))


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type, message and payload of what
    it raises."""
    try:
        return fn(*args)
    except NotReallyThreeColorable as e:
        return type(e), str(e), e.vertex, e.color, e.witness
    except ValueError as e:  # MalformedCovering included
        return type(e), str(e)


def cut_masks(g, covering, transformer):
    return outcome(lambda: transformer(g, covering).masks)


@st.composite
def two_list_coverings(draw):
    """A graph on at most 6 vertices and a covering of its two-color
    encoding made of a few base assignments, repeated verbatim or with lists
    outside the {A,B} set changed, so that {A,B} sets repeat; sometimes one
    list is unusable."""
    n = draw(st.integers(1, 6))
    g = gen_gnp(n, draw(st.sampled_from((0.3, 0.5, 0.7))), draw(st.integers(0, 2 ** 32)))
    lists = st.sampled_from(CUT_LISTS)
    bases = draw(st.lists(st.tuples(*[lists] * n), min_size=1, max_size=4))
    covering = []
    for _ in range(draw(st.integers(1, 14))):
        la = list(draw(st.sampled_from(bases)))
        for v in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            if la[v] != CUT_LISTS[0]:
                la[v] = draw(st.sampled_from(CUT_LISTS[1:]))
        covering.append(tuple(la))
    if covering and draw(st.integers(0, 7)) == 0:
        i, v = draw(st.integers(0, len(covering) - 1)), draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from((frozenset({0, 1, 2}), frozenset(), frozenset({3}))))
        covering[i] = covering[i][:v] + (bad,) + covering[i][v + 1:]
    as_list = draw(st.sampled_from((frozenset, lambda lst: tuple(sorted(lst)))))
    return g, [tuple(map(as_list, la)) for la in covering]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(two_list_coverings())
def test_ccp_covering_to_separator_matches_unmemoised(case):
    g, covering = case
    assert (cut_masks(g, covering, ccp_covering_to_separator)
            == cut_masks(g, covering, unmemoised_ccp_covering_to_separator))


def recorded_provider(seed, junk_call, calls):
    """``separator_provider(seed)`` that logs each instance it is given and,
    on call number ``junk_call``, hands back a covering whose first list is
    {1}, which has no row in the translation table."""
    inner = separator_provider(seed)

    def provider(sub_inst):
        calls.append((sub_inst.graph.n, sub_inst.graph.adj, sub_inst.lists))
        cov = inner(sub_inst)
        if len(calls) - 1 == junk_call and sub_inst.graph.n:
            cov = [(frozenset({1}),) + cov[0][1:]] + cov[1:]
        return cov
    return provider


def blocked_instance(x, alpha, ring_color, ring):
    """Six vertices: x sees the other five through color ``alpha``, which
    carry a five-cycle in ``ring_color`` (``ring`` lists it in order) and the
    third color elsewhere, so x is not really 3-colorable for alpha."""
    other = 3 - alpha - ring_color
    cycle = {frozenset(p) for p in zip(ring, ring[1:] + ring[:1])}
    return CcpInstance(6, [alpha if x in (u, v) else ring_color
                           if frozenset((u, v)) in cycle else other
                           for u, v in itertools.combinations(range(6), 2)])


@st.composite
def branch_cases(draw):
    """A graph on at most 6 vertices, a 3-CCP instance (its two-color
    encoding, a random three-coloring, or a six-vertex instance blocked for
    one color at the branch vertex), a branch vertex, a provider seed and
    the provider call, if any, that returns a malformed covering."""
    n = draw(st.sampled_from(range(1, 7)))
    seed = draw(st.integers(0, 2 ** 32))
    g = gen_gnp(n, draw(st.sampled_from((0.3, 0.5, 0.7))), seed)
    x = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(("graph", "random") * 2 + ("blocked",) * (n == 6)))
    if kind == "graph":
        inst = ccp_of_graph(g)
    elif kind == "random":
        inst = random_ccp_instance(n, seed)
    else:
        alpha, ring_color = draw(st.permutations((0, 1, 2)))[:2]
        ring = draw(st.permutations([v for v in range(6) if v != x]))
        inst = blocked_instance(x, alpha, ring_color, ring)
    junk_call = draw(st.one_of(st.none(), st.none(), st.integers(0, 11)))
    return g, inst, x, seed % 1000, junk_call


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(branch_cases())
@example((cycle_graph(4), ccp_of_graph(cycle_graph(4)), 0, 1, 0))
def test_3ccp_coverings_match_per_target_oracle(case):
    """The full covering, each per-target covering, the cuts made from the
    full covering and the solutions it misses equal those of the per-call
    oracles, with the same provider calls in the same order and the same
    exceptions."""
    g, inst, x, seed, junk_call = case

    def run(fn, *target):
        calls = []
        return outcome(fn, inst, x, recorded_provider(seed, junk_call, calls), *target), calls

    full, calls = run(full_3ccp_covering_via_stubborn)
    assert (full, calls) == run(per_target_full_3ccp_covering)
    for target in (0, 1, 2):
        assert run(stubborn_to_3ccp_covering, target) == run(per_target_3ccp_covering, target)
    if not isinstance(full, list):
        return
    assert (cut_masks(g, full, ccp_covering_to_separator)
            == cut_masks(g, full, unmemoised_ccp_covering_to_separator))
    sols = all_3ccp_solutions(inst)
    for covering in (full, full[::2], full[1::3] + full[:4]):
        assert (with_confirmations(covering_covers, covering, sols)
                == with_confirmations(per_assignment_covering_covers, covering, sols))


def with_confirmations(covers, covering, solutions):
    """``covers(covering, solutions)`` and the ``stubborn_assignment_compatible``
    calls it made, in order."""
    real, log = csp.stubborn_assignment_compatible, []

    def counted(la, part):
        log.append((la, part))
        return real(la, part)

    with (mock.patch.object(csp, "stubborn_assignment_compatible", counted),
          mock.patch.object(oracles, "stubborn_assignment_compatible", counted)):
        return covers(covering, solutions), log


@st.composite
def two_sat_instances(draw):
    nvars = draw(st.integers(0, 14))
    literals = st.integers(1, max(nvars, 1)).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(literals, literals), max_size=3 * nvars))
    return TwoSatInstance(nvars, tuple(clauses))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(two_sat_instances())
def test_solve_2sat_matches_resume_index_oracle(ts):
    assert solve_2sat(ts) == resume_index_solve_2sat(ts)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
           st.lists(st.integers(0, 2), min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2),
           st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3).map(frozenset),
                    min_size=n, max_size=n))),
       st.data())
def test_two_list_to_2sat_matches_triple_sort_oracle(case, data):
    """Equal instances and equal decodes (or equal errors), on lists of one
    to three colors, for the solver's assignment and for drawn ones."""
    colors, la = case
    inst = CcpInstance(len(la), colors)
    got = outcome(two_list_to_2sat, inst, la)
    want = outcome(triple_sort_two_list_to_2sat, inst, la)
    if not isinstance(want[0], TwoSatInstance):
        assert got == want
        return
    (ts, decode), (oracle_ts, oracle_decode) = got, want
    assert ts == oracle_ts
    assignments = [data.draw(st.lists(st.booleans(), min_size=ts.nvars, max_size=ts.nvars))
                   for _ in range(3)]
    if solve_2sat(ts) is not None:
        assignments.append(solve_2sat(ts))
    for assignment in assignments:
        assert outcome(decode, assignment) == outcome(oracle_decode, assignment)
