"""Golden table of the exact biclique numbers.

``bruteforce_golden.json`` holds one row ``[n, edge_mask, bp, bp_2, bp_3,
bp_or]`` per graph: every labelled graph on at most 5 vertices (bit i of
``edge_mask`` is the i-th pair of ``itertools.combinations(range(n), 2)``),
then G(6, 1/2) for seeds 0-59.  The values were computed by the three
separate searches that preceded the shared exact-cover search, so the table
pins the shared search to them.  117 of the 1,160 graphs separate the four
numbers.
"""

import itertools
import json
from pathlib import Path

from csslab.graphs import from_edges, gen_gnp
from csslab.packing import (min_bp_bruteforce, min_bpor_bruteforce,
                            min_bpt_bruteforce)

GOLDEN = Path(__file__).with_name("bruteforce_golden.json")


def _graphs():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
    for seed in range(60):
        yield gen_gnp(6, 0.5, seed)


def _edge_mask(g):
    pairs = list(itertools.combinations(range(g.n), 2))
    return sum(1 << pairs.index(e) for e in g.edges())


def test_biclique_numbers_match_golden_table():
    rows = json.loads(GOLDEN.read_text())
    graphs = list(_graphs())
    assert len(rows) == len(graphs) == 1160
    for g, row in zip(graphs, rows):
        got = [g.n, _edge_mask(g), min_bp_bruteforce(g, g.n),
               min_bpt_bruteforce(g, 2, g.n), min_bpt_bruteforce(g, 3, g.n),
               min_bpor_bruteforce(g, g.n)]
        assert got == row, g.edges()
