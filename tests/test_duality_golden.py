"""Golden table of the outputs that rest on the clique/stable and B/C dualities.

A clique of G is a stable set of its complement, and a cut (A, B) of G is the
cut (B, A) of the complement; likewise the B side of the list-covering
transformer is its C side with colours B and C swapped.  ``duality_golden.json``
was written by ``_capture()`` while each of these sides still had its own code,
and is not regenerated: a diff here means a derived side drifted from the side
it replaced.  Sections:

- ``pairs``: ``find_biclique_pair`` on G(n, p), exact search for n 2-10 and
  the greedy search for n 25-27; each row is ``[n, p, seed, size, hit]`` with
  ``hit`` null or ``[a_mask, b_mask, mode, exact]``.
- ``sides``: ``side_weights`` on every disjoint maximal pair of G(9, 1/2);
  each row is ``[seed, k_mask, s_mask, side, weights]``.
- ``split_free``: ``split_free_report`` against the net on 12-vertex
  comparability graphs and on net-free G(9, 1/2); cut masks plus, per pair,
  side, tau, cut mask, tau* and the VC result.
- ``coverings``: ``stubborn_to_3ccp_covering`` for targets 0-2 and
  ``full_3ccp_covering_via_stubborn``, with the command line's stubborn
  covering provider; each row keeps the provider's calls in order (vertex
  count and edge mask of each instance) and the covering or the raised
  ``NotReallyThreeColorable``.  The capture named the failing colour of
  ``random_ccp_instance(5, 47)``, x = 1, in a recoloured copy of the
  instance; those three rows were corrected by hand to colour A (0).
- ``pk_free``: ``build_pk_free_separator`` cut masks on two disjoint cliques
  and on a complete multipartite graph, which takes the complement route.
"""

import itertools
import json
from pathlib import Path
from unittest.mock import patch

from csslab import transversal
from csslab.cli import _stubborn_covering_provider
from csslab.csp import (COLOR_NAMES, NotReallyThreeColorable, ccp_of_graph,
                        full_3ccp_covering_via_stubborn, random_ccp_instance,
                        really_3colorable, stubborn_to_3ccp_covering)
from csslab.graphs import (bits, comparability_from_random_poset, contains_induced,
                           find_biclique_pair, from_edges, gen_gnp, mask_of,
                           net_graph)
from csslab.separator import disjoint_maximal_pairs
from csslab.transversal import (build_pk_free_separator, conflict_digraph,
                                side_weights, split_free_report)

GOLDEN = Path(__file__).with_name("duality_golden.json")


def _edge_mask(g):
    pairs = itertools.combinations(range(g.n), 2)
    return sum(1 << i for i, (u, v) in enumerate(pairs) if g.has_edge(u, v))


def _masks(family):
    return list(family.masks)


def _pairs():
    rows = []
    for n, p, seed in itertools.product(range(2, 11), (0.2, 0.5, 0.8), range(3)):
        for size in range(1, n // 2 + 2):
            rows.append((n, p, seed, size))
    for n, p, seed in itertools.product((25, 26, 27), (0.3, 0.5, 0.7), range(2)):
        for size in (3, 5, 7, 9):
            rows.append((n, p, seed, size))
    out = []
    for n, p, seed, size in rows:
        hit = find_biclique_pair(gen_gnp(n, p, seed), size)
        if hit is not None:
            hit = [hit.a, hit.b, hit.mode, hit.exact]
        out.append([n, p, seed, size, hit])
    return out


def _sides():
    out = []
    for seed in range(12):
        g = gen_gnp(9, 0.5, seed)
        for kmask, smask in disjoint_maximal_pairs(g):
            sw = side_weights(conflict_digraph(g, kmask, smask))
            weights = {str(v): str(w) for v, w in sorted(sw.weights.items())}
            out.append([seed, kmask, smask, sw.side, weights])
    return out


def _split_free():
    # the stable side is never chosen on the comparability graphs, so the
    # net-free G(9, 1/2) among seeds 0-11 follow them
    graphs = [("poset", seed, comparability_from_random_poset(12, seed))
              for seed in range(6)]
    graphs += [("gnp", seed, gen_gnp(9, 0.5, seed)) for seed in range(12)]
    out = []
    for kind, seed, g in graphs:
        if contains_induced(g, net_graph()) is not None:
            continue
        fam, reports = split_free_report(g, net_graph())
        out.append([kind, seed, _masks(fam), [
            [r.clique, r.stable, r.side, r.tau, r.cut_mask,
             str(r.tau_star), r.vc.value, r.vc.exact, r.vc.degenerate]
            for r in reports]])
    return out


def _lists(covering):
    return ["|".join("".join(COLOR_NAMES[c] for c in sorted(lst)) for lst in la)
            for la in covering]


def _covering_row(inst, x, seed, target):
    calls = []
    provider = _stubborn_covering_provider(seed)

    def logged(sub_inst):
        calls.append([sub_inst.graph.n, _edge_mask(sub_inst.graph)])
        return provider(sub_inst)

    try:
        if target is None:
            result = _lists(full_3ccp_covering_via_stubborn(inst, x, logged))
        else:
            result = _lists(stubborn_to_3ccp_covering(inst, x, logged, target))
    except NotReallyThreeColorable as exc:
        result = {"raised": [exc.vertex, exc.color, list(bits(exc.witness))]}
    return [x, target, calls, result]


def _covering_instance(kind, n, seed):
    if kind == "random":
        return random_ccp_instance(n, seed)
    return ccp_of_graph(gen_gnp(n, 0.5, seed))


def _coverings():
    # seeds 47 (n = 5) and 11 (n = 6) hold vertices that cannot take one
    # colour, so the other two targets raise
    cases = [("random", n, seed) for n in (3, 4, 5, 6) for seed in range(4)]
    cases += [("random", 5, 47), ("random", 6, 11)]
    cases += [("graph", 6, seed) for seed in range(2)]
    out = []
    for kind, n, seed in cases:
        inst = _covering_instance(kind, n, seed)
        for x in range(min(n, 3)):
            for target in (0, 1, 2, None):
                out.append([kind, n, seed] + _covering_row(inst, x, seed, target))
    return out


def _pk_free():
    cliques = [(u, v) for lo in (0, 7)
               for u, v in itertools.combinations(range(lo, lo + 7), 2)]
    parts = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13)]
    multipartite = [(u, v) for a, b in itertools.combinations(parts, 2)
                    for u in a for v in b]
    out = {}
    for name, edges, t_k, base_size in [("two_cliques", cliques, 0.5, 7),
                                        ("multipartite", multipartite, 0.4, 8)]:
        with patch.object(transversal, "PK_BASE_SIZE", base_size):
            out[name] = _masks(build_pk_free_separator(from_edges(14, edges), k=5, t_k=t_k))
    return out


SECTIONS = {"pairs": _pairs, "sides": _sides, "split_free": _split_free,
            "coverings": _coverings, "pk_free": _pk_free}


def _capture():
    return {name: make() for name, make in SECTIONS.items()}


def _golden(name):
    return json.loads(GOLDEN.read_text())[name]


def test_pair_searches_match_golden_table():
    assert _pairs() == _golden("pairs")


def test_side_weights_match_golden_table():
    assert _sides() == _golden("sides")


def test_split_free_reports_match_golden_table():
    assert _split_free() == _golden("split_free")


def test_list_coverings_match_golden_table():
    assert _coverings() == _golden("coverings")


def test_raised_coverings_name_the_failing_colour():
    raised = [row for row in _golden("coverings") if isinstance(row[-1], dict)]
    assert raised
    for kind, n, seed, *_, result in raised:
        vertex, colour, witness = result["raised"]
        inst = _covering_instance(kind, n, seed)
        assert really_3colorable(inst, vertex, colour) == (False, mask_of(witness))


def test_pk_free_separators_match_golden_table():
    assert _pk_free() == _golden("pk_free")
