"""Property tests for the text codecs: random certificates and instances on
graphs with at most 8 vertices survive emit -> parse -> emit byte for byte,
a packing, covering or fooling-set file with one line deleted, duplicated
or garbled parses to a certificate or raises FormatError, never another
exception, and the token-table parsers give the int()-per-token parsers'
value or error on canonical, respelled and damaged files."""

import itertools
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from csslab.csp import CcpInstance, StubbornInstance
from csslab.formats import (_COLOR_TOKENS, _PART_TOKENS, FormatError, emit_ccp,
                            emit_ccp_covering, emit_covering, emit_cut_family,
                            emit_fooling, emit_graph, emit_hypergraph,
                            emit_packing, emit_stubborn, emit_stubborn_covering,
                            parse_ccp, parse_ccp_covering, parse_covering,
                            parse_cut_family, parse_fooling, parse_graph,
                            parse_hypergraph, parse_packing, parse_stubborn,
                            parse_stubborn_covering)
from csslab.graphs import from_edges
from csslab.packing import BicliqueCovering, FoolingSet, PackingCertificate
from csslab.separator import CutFamily
from csslab.transversal import Hypergraph
from oracles import (int_token_parse_cut_family, int_token_parse_graph,
                     int_token_parse_hypergraph, int_token_parse_packing,
                     int_token_parse_stubborn, per_line_parse_covering)

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


# -- token-table parsers against the int()-per-token parsers -----------------


@st.composite
def parser_cases(draw):
    """(canonical text, its value, parser, reference parser) for a random
    file of a kind whose parser reads vertex or list tokens."""
    kind = draw(st.sampled_from(["graph", "cuts", "hgraph", "stubborn", "packing",
                                 "ccp-covering", "stubborn-covering"]))
    n = draw(st.integers(0, 8))
    if kind in ("graph", "cuts", "hgraph", "stubborn"):
        value, emit, parse = draw(instances(kind, n))
        reference = {"graph": int_token_parse_graph, "cuts": int_token_parse_cut_family,
                     "hgraph": int_token_parse_hypergraph,
                     "stubborn": int_token_parse_stubborn}[kind]
        return emit(value), value, parse, reference
    if kind == "packing":
        g = draw(graphs(st.just(n)))
        side = st.integers(0, (1 << n) - 1)
        cert = PackingCertificate(g, tuple(draw(st.lists(st.tuples(side, side), max_size=5))))
        return (emit_packing(cert), cert, lambda text: parse_packing(text, g),
                lambda text: int_token_parse_packing(text, g))
    # few distinct lists, so that list lines repeat within and across blocks
    tokens, noun, emit, parse = {
        "ccp-covering": (_COLOR_TOKENS, "color", emit_ccp_covering, parse_ccp_covering),
        "stubborn-covering": (_PART_TOKENS, "part", emit_stubborn_covering,
                              parse_stubborn_covering),
    }[kind]
    lst = st.frozensets(st.sampled_from(sorted(tokens.values())), min_size=1, max_size=2)
    covering = draw(st.lists(st.lists(lst, min_size=n, max_size=n).map(tuple),
                             min_size=1, max_size=4))
    return (emit(covering), covering, parse,
            lambda text: per_line_parse_covering(text, tokens, noun))


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                             "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def respelled(draw, text):
    """``text`` with its vertex tokens respelled as ``int()`` still reads
    them (``+1``, ``02``, Arabic-Indic digits), member rows and list lines
    shuffled with some members repeated, and tabs among the separators.
    Header, ``lists`` and ``--`` lines stay as they are."""
    lines = text.splitlines()
    out = lines[:1]
    for line in lines[1:]:
        parts = line.split()
        if not parts or parts[0] in ("lists", "--"):
            out.append(line)
            continue
        head = [parts.pop(0)] if parts[0] == "e" or parts[0].endswith(":") else []
        if head != ["e"] and parts:
            parts += draw(st.lists(st.sampled_from(parts), max_size=2))
            parts = draw(st.permutations(parts))
        parts = [draw(st.sampled_from([p, "+" + p, "0" + p, p.translate(ARABIC_INDIC)]))
                 if p.isdigit() else p for p in parts]
        sep = draw(st.sampled_from([" ", "\t", " \t ", "  "]))
        out.append(sep.join(head + parts) + draw(st.sampled_from(["", "\t", " "])))
    return "\n".join(out) + "\n"


BAD_TOKENS = ["-1", "9", "99", "x", "1.5", "A9", "A", "e", "+1", "\u0663", "0x1"]


@st.composite
def damaged(draw, text):
    """``text`` with one line deleted, duplicated, replaced or with one of
    its tokens replaced."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    damage = draw(st.sampled_from(["delete", "duplicate", "replace", "token"]))
    if damage == "delete":
        lines[i:i + 1] = []
    elif damage == "duplicate":
        lines[i:i + 1] = [lines[i]] * 2
    elif damage == "replace":
        lines[i] = draw(st.text(max_size=10) | st.sampled_from(
            ["e 0 0", "e 1 0", "e 0 9", "0 0 1", "A: 9", "B: -1", "A5 A1", "C C",
             "lists 1", "--", ""]))
    elif lines[i].split():
        parts = lines[i].split()
        j = draw(st.integers(0, len(parts) - 1))
        parts[j] = draw(st.sampled_from(BAD_TOKENS))
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    """The parsed value, or the exception's type, message and line."""
    try:
        return "value", _value(parse(text))
    except Exception as exc:  # the reference decides which exceptions are right
        return type(exc), str(exc), getattr(exc, "line", None)


# a line whose token misses the table is read again from its start: the
# explicit examples put the miss after hits, before a repeated member, and
# in an edge line's second token
@settings(SETTINGS, max_examples=300)
@given(parser_cases(), st.data())
@example(("cuts 4 1\n0 1 +2\n", CutFamily(4, [0b111]), parse_cut_family,
          int_token_parse_cut_family), None)
@example(("hgraph 4 1\n1 +3 0 1 0\n", Hypergraph(4, [0b1011]), parse_hypergraph,
          int_token_parse_hypergraph), None)
@example(("graph 2\ne 0 +1\n", from_edges(2, [(0, 1)]), parse_graph,
          int_token_parse_graph), None)
def test_token_table_parsers_match_int_token_parsers(case, data):
    text, value, parse, reference = case
    assert _outcome(parse, text) == _outcome(reference, text) == ("value", _value(value))
    if data is None:  # an explicit example checks its own text only
        return
    spelled = data.draw(respelled(text))
    assert _outcome(parse, spelled) == _outcome(reference, spelled) == ("value", _value(value))
    broken = data.draw(damaged(text))
    assert _outcome(parse, broken) == _outcome(reference, broken)


def test_vertices_past_the_token_table_parse():
    """A file shorter than its header's n gets a table shorter than n; the
    vertices past the table still parse, through int()."""
    text = "cuts 100000 2\n99999 3\n+7\n"
    assert (parse_cut_family(text) == int_token_parse_cut_family(text)
            == CutFamily(100000, [1 << 99999 | 1 << 3, 1 << 7]))
    text = "graph 100\ne 0 99\n"
    assert parse_graph(text) == int_token_parse_graph(text) == from_edges(100, [(0, 99)])


def _peak_bytes(parse, *args) -> int:
    tracemalloc.start()
    try:
        parse(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_token_tables_cost_memory_linear_in_the_file_length():
    """A header declaring many vertices over a short body costs memory
    linear in the file's length: an empty packing against a 20000-vertex
    host allocates next to nothing, and tripling the rows of a cut or
    hyperedge file on 10**6 vertices (small members) about triples the
    peak instead of raising it ninefold."""
    host = parse_graph("graph 20000\n")
    assert _peak_bytes(parse_packing, "packing 20000 0\n", host) < 64_000

    def cuts(m):
        return f"cuts 1000000 {m}\n" + "".join(f"{i % 100} {100 + i // 100}\n"
                                               for i in range(m))

    def hyperedges(m):
        return f"hgraph 1000000 {m}\n" + "0 1\n" * m

    for parse, text in ((parse_cut_family, cuts), (parse_hypergraph, hyperedges)):
        assert _peak_bytes(parse, text(6000)) < 4.5 * _peak_bytes(parse, text(2000))
