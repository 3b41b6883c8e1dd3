"""Property test for the command line: a valid input file with one or two
damaged lines (deleted, duplicated, garbled, or the file cut off before it)
ends in exit code 0, 1 or 2, exactly 2 when the format's own parser rejects
the damaged file, and no exception escapes ``cli.main``."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from csslab.cli import main
from csslab.csp import (build_quasipoly_covering, random_ccp_instance,
                        separator_to_stubborn_covering, square_cut_family,
                        trivial_stubborn)
from csslab import formats
from csslab.formats import (emit_ccp, emit_ccp_covering, emit_cut_family,
                            emit_graph, emit_hypergraph, emit_stubborn,
                            emit_stubborn_covering)
from csslab.graphs import from_edges, gen_gnp
from csslab.separator import build_random_separator, extend_to_full_separator
from csslab.transversal import Hypergraph


def _files():
    g = gen_gnp(6, 0.5, 3)
    ccp = random_ccp_instance(4, 77)
    stubborn = trivial_stubborn(from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    cuts4 = extend_to_full_separator(stubborn.graph,
                                     build_random_separator(stubborn.graph, 0.5, 5))
    return {
        "graph": emit_graph(g),
        "cuts": emit_cut_family(extend_to_full_separator(
            g, build_random_separator(g, 0.5, 5))),
        "hgraph": emit_hypergraph(Hypergraph(4, [0b0011, 0b0110, 0b1100, 0b1001])),
        "ccp": emit_ccp(ccp),
        "ccp-covering": emit_ccp_covering(build_quasipoly_covering(ccp).assignments),
        "stubborn": emit_stubborn(stubborn),
        "stubborn-covering": emit_stubborn_covering(
            separator_to_stubborn_covering(stubborn, square_cut_family(cuts4))),
    }


FILES = _files()

# the command that reads each format; every file it names is valid but one
COMMANDS = {
    "graph": ["verify", "separator", "graph", "cuts"],
    "cuts": ["verify", "separator", "graph", "cuts"],
    "hgraph": ["bound-check", "haussler-welzl", "hgraph"],
    "ccp": ["verify", "ccp-covering", "ccp", "ccp-covering"],
    "ccp-covering": ["verify", "ccp-covering", "ccp", "ccp-covering"],
    "stubborn": ["verify", "stubborn-covering", "stubborn", "stubborn-covering"],
    "stubborn-covering": ["verify", "stubborn-covering", "stubborn", "stubborn-covering"],
}

PARSERS = {
    "graph": formats.parse_graph,
    "cuts": formats.parse_cut_family,
    "hgraph": formats.parse_hypergraph,
    "ccp": formats.parse_ccp,
    "ccp-covering": formats.parse_ccp_covering,
    "stubborn": formats.parse_stubborn,
    "stubborn-covering": formats.parse_stubborn_covering,
}


def _expected_codes(fmt, text):
    """Exit codes allowed for a command whose ``fmt`` input is ``text``: the
    usage code when the format's own parser rejects it, else any of 0-2."""
    try:
        PARSERS[fmt](text)
    except ValueError:  # FormatError is one
        return (2,)
    return (0, 1, 2)


GARBLE = st.text(max_size=12) | st.sampled_from([
    "", "--", "lists 3", "lists 5", "e 0 1", "e 0 9", "e 2 1", "A", "B C D",
    "A1 A4", "A5", "0 1 9", "0 -1", "graph 5", "cuts 6 1", "hgraph 4 2",
    "ccp 3", "stubborn 5", "0 1 A", "0 1 Z"])
DAMAGE = st.sampled_from(["delete", "duplicate", "garble", "truncate"])


def _damage(text, damage, line, garble):
    lines = text.splitlines()
    i = line % len(lines)
    if damage == "delete":
        lines[i:i + 1] = []
    elif damage == "duplicate":
        lines[i:i + 1] = [lines[i]] * 2
    elif damage == "garble":
        lines[i] = garble
    else:  # truncate: the file ends before line i
        lines = lines[:i]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(fmt=st.sampled_from(sorted(FILES)),
       damage=st.sampled_from(["delete", "duplicate", "garble", "truncate"]),
       line=st.integers(0, 60), garble=GARBLE)
@example(fmt="stubborn", damage="truncate", line=2, garble="")  # "stubborn 4\ne 0 1"
def test_one_damaged_line_exits_0_1_or_2(fmt, damage, line, garble):
    damaged = _damage(FILES[fmt], damage, line, garble)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in FILES.items():
            paths[name] = Path(tmp) / f"{name}.txt"
            paths[name].write_text(damaged if name == fmt else text)
        command, kind, *roles = COMMANDS[fmt]
        code = main([command, kind] + [str(paths[role]) for role in roles])
    assert code in _expected_codes(fmt, damaged)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(fmt=st.sampled_from(sorted(FILES)), damages=st.tuples(DAMAGE, DAMAGE),
       lines=st.tuples(st.integers(0, 60), st.integers(0, 60)),
       garbles=st.tuples(GARBLE, GARBLE))
def test_two_damaged_lines_exit_0_1_or_2(fmt, damages, lines, garbles):
    text = FILES[fmt]
    for damage, line, garble in zip(damages, lines, garbles):
        text = _damage(text, damage, line, garble)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        paths = {}
        for name, valid in FILES.items():
            paths[name] = Path(tmp) / f"{name}.txt"
            paths[name].write_text(text if name == fmt else valid)
        command, kind, *roles = COMMANDS[fmt]
        code = main([command, kind] + [str(paths[role]) for role in roles])
    assert code in _expected_codes(fmt, text) and "Traceback" not in err.getvalue()
