"""Property tests for the packing, covering and fooling-set codec: random
certificates on graphs with at most 8 vertices survive emit -> parse -> emit
byte for byte, and a file with one line deleted, duplicated or garbled parses
to a certificate or raises FormatError, never another exception."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from csslab.formats import (FormatError, emit_covering, emit_fooling,
                            emit_packing, parse_covering, parse_fooling,
                            parse_packing)
from csslab.graphs import from_edges, set_of
from csslab.packing import BicliqueCovering, FoolingSet, PackingCertificate

SETTINGS = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


@st.composite
def certificates(draw):
    """(certificate, emit, parse) for a random packing, covering or fooling
    set; its sides are arbitrary vertex sets, since the codec does not
    check certificates."""
    g = draw(graphs())
    side = st.integers(0, (1 << g.n) - 1).map(set_of)
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
