"""Property tests for the text codecs: random certificates and instances on
graphs with at most 8 vertices survive emit -> parse -> emit byte for byte,
and a packing, covering or fooling-set file with one line deleted,
duplicated or garbled parses to a certificate or raises FormatError, never
another exception."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from csslab.csp import CcpInstance, StubbornInstance
from csslab.formats import (FormatError, emit_ccp, emit_covering, emit_cut_family,
                            emit_fooling, emit_graph, emit_hypergraph,
                            emit_packing, emit_stubborn, parse_ccp,
                            parse_covering, parse_cut_family, parse_fooling,
                            parse_graph, parse_hypergraph, parse_packing,
                            parse_stubborn)
from csslab.graphs import from_edges
from csslab.packing import BicliqueCovering, FoolingSet, PackingCertificate
from csslab.separator import CutFamily
from csslab.transversal import Hypergraph

SETTINGS = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)


@st.composite
def graphs(draw, n=st.integers(0, 8)):
    n = draw(n)
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


@st.composite
def certificates(draw):
    """(certificate, emit, parse) for a random packing, covering or fooling
    set; its sides are arbitrary vertex masks, since the codec does not
    check certificates."""
    g = draw(graphs())
    side = st.integers(0, (1 << g.n) - 1)
    blocks = tuple(draw(st.lists(st.tuples(side, side), max_size=6)))
    kind = draw(st.sampled_from(["packing", "covering", "fooling"]))
    if kind == "packing":
        cert = PackingCertificate(g, blocks)
        return cert, emit_packing, parse_packing
    if kind == "covering":
        cert = BicliqueCovering(g, blocks, draw(st.integers(0, 4)))
        return cert, emit_covering, parse_covering
    return FoolingSet(g, blocks), emit_fooling, parse_fooling


@SETTINGS
@given(certificates())
def test_emit_parse_emit_is_byte_identical(case):
    cert, emit, parse = case
    text = emit(cert)
    back = parse(text, cert.host)
    assert back == cert
    assert emit(back) == text


@SETTINGS
@given(certificates(), st.data())
def test_one_damaged_line_parses_or_raises_format_error(case, data):
    cert, emit, parse = case
    lines = emit(cert).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    damage = data.draw(st.sampled_from(["delete", "duplicate", "garble"]))
    if damage == "delete":
        lines[i:i + 1] = []
    elif damage == "duplicate":
        lines[i:i + 1] = [lines[i]] * 2
    else:
        lines[i] = data.draw(st.text(max_size=12) | st.sampled_from(
            ["A: 0", "B: 9", "K:", "S: -1", "packing 8 2", "t 2", ""]))
    try:
        parse("\n".join(lines) + "\n", cert.host)
    except FormatError:
        pass


@st.composite
def instances(draw, kind: str, n: int):
    """(value, emit, parse) for a random ``kind`` file on ``n`` vertices."""
    g = draw(graphs(st.just(n)))
    subsets = st.integers(0, (1 << n) - 1)
    if kind == "graph":
        return g, emit_graph, parse_graph
    if kind == "cuts":
        masks = draw(st.lists(subsets, unique=True, max_size=6))
        return CutFamily(n, masks), emit_cut_family, parse_cut_family
    if kind == "hgraph":
        edges = draw(st.lists(subsets, max_size=6))
        return Hypergraph(n, edges), emit_hypergraph, parse_hypergraph
    m = n * (n - 1) // 2
    if kind == "ccp":
        colors = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        return CcpInstance(n, colors), emit_ccp, parse_ccp
    lists = draw(st.lists(st.frozensets(st.integers(1, 4), min_size=1),
                          min_size=n, max_size=n))
    return StubbornInstance(g, tuple(lists)), emit_stubborn, parse_stubborn


def _value(x):
    """What equality compares; Hypergraph defines no ``__eq__``."""
    return (x.n, x.edges) if isinstance(x, Hypergraph) else x


@settings(SETTINGS, max_examples=20)
@given(st.data())
def test_instance_files_round_trip(data):
    for kind in ("graph", "cuts", "hgraph", "ccp", "stubborn"):
        for n in range(9):
            value, emit, parse = data.draw(instances(kind, n))
            text = emit(value)
            back = parse(text)
            assert _value(back) == _value(value), (kind, n)
            assert emit(back) == text, (kind, n)
