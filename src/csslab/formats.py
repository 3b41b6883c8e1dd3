"""Line-oriented UTF-8 text formats for every certificate type, with byte
exact round-tripping of canonical files and located parse diagnostics.

Formats (vertex indices are 0-based).  Emitters write canonical lines:
vertex and token lists sorted ascending, each index spelled ``str(v)``.
Parsers accept member rows and lists in any order and with repeated
members (edge lines still need u < v), and any vertex spelling ``int()``
reads (``+3``, ``03``, other Unicode digits): each looks the canonical
spellings up in one table per file and reads only the lines holding
other tokens with ``int()``.

  graph <n>                 one ``e <u> <v>`` line per edge, u < v
  cuts <n> <m>              m lines, each the sorted A-side (possibly empty)
  hgraph <n> <m>            m lines of sorted hyperedge members
  packing <n> <k>           per biclique: ``A: ...`` then ``B: ...``
  covering <n> <k> t <t>    same body as packing
  fooling <n> <m>           per pair: ``K: ...`` then ``S: ...``
  ccp <n>                   n(n-1)/2 lines ``<u> <v> <A|B|C>``
  lists <n>                 per vertex one line of sorted color tokens
  stubborn <n>              edge lines, then a ``lists <n>`` section
  coverings                 ``lists`` blocks joined by ``--`` lines

The mask-row bodies (cuts, hgraph, and the tagged sides of packing, covering
and fooling) are written by ``_emit_rows`` and read by its twin
``_parse_rows``, one routine each way.
"""

from __future__ import annotations

import itertools

from .csp import COLOR_NAMES, PART_NAMES, CcpInstance, StubbornInstance
from .graphs import Graph, mask_of
from .packing import BicliqueCovering, FoolingSet, PackingCertificate
from .separator import CutFamily
from .transversal import Hypergraph


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


def _vertex(tok: str, n: int, lineno: int) -> int:
    """A vertex token read by ``int()`` and range-checked."""
    try:
        v = int(tok)
    except ValueError:
        raise FormatError(f"bad vertex token {tok!r}", lineno)
    if not 0 <= v < n:
        raise FormatError(f"vertex {v} out of range [0, {n})", lineno)
    return v


def _names(n: int, size: int) -> dict[str, int]:
    """The token table of an ``n``-vertex file of ``size`` characters:
    ``str(v) -> v`` for v below n and below ``size // 2``, the most distinct
    tokens such a file can hold, so that the table's cost is linear in the
    file's length whatever n its header declares.  A line with a token
    missing from the table is read again from its start through ``_vertex``,
    so its value and its first error are those of ``int()`` alone."""
    return {str(v): v for v in range(min(n, size // 2))}


def _header(line: str, lineno: int, keyword: str, argc: int) -> list[int]:
    parts = line.split()
    if not parts or parts[0] != keyword:
        raise FormatError(f"expected {keyword!r} header", lineno)
    if len(parts) != argc + 1:
        raise FormatError(f"{keyword} header takes {argc} integers", lineno)
    try:
        values = [int(p) for p in parts[1:]]
    except ValueError:
        raise FormatError(f"non-integer in {keyword} header", lineno)
    if min(values) < 0:
        raise FormatError(f"negative value in {keyword} header", lineno)
    return values


def _split_header(text: str, keyword: str, argc: int) -> tuple[list[str], list[int]]:
    """The lines of ``text`` and the ``argc`` values of its ``keyword`` header."""
    rows = text.splitlines()
    if not rows:
        raise FormatError(f"empty {keyword} file")
    return rows, _header(rows[0], 1, keyword, argc)


def _reject_rows_past(rows, end: int) -> None:
    """Rows from index ``end`` on lie past the count the header declares:
    reject the first that is not blank."""
    for i in range(end, len(rows)):
        if rows[i].strip():
            raise FormatError("row past the count the header declares", i + 1)


# -- graphs -------------------------------------------------------------------


def _parse_edges(rows, start: int, n: int, names) -> tuple[Graph, int]:
    """The graph of the ``e <u> <v>`` lines from ``rows[start]`` on, blank
    lines skipped, up to the first other line, and that line's index
    (``len(rows)`` when there is none).  Each line is checked for range,
    order, self-loops and repeats here, so the graph is not validated
    again."""
    adj = [0] * n
    end = len(rows)
    for pos in range(start, end):
        parts = rows[pos].split()
        if not parts:
            continue
        if parts[0] != "e":
            end = pos
            break
        lineno = pos + 1
        if len(parts) != 3:
            raise FormatError("edge lines look like 'e <u> <v>'", lineno)
        try:
            u, v = names[parts[1]], names[parts[2]]
        except KeyError:
            u, v = _vertex(parts[1], n, lineno), _vertex(parts[2], n, lineno)
        if u == v:
            raise FormatError(f"self-loop at {u}", lineno)
        if u > v:
            raise FormatError("edges must be written with u < v", lineno)
        if adj[u] >> v & 1:
            raise FormatError(f"duplicate edge ({u}, {v})", lineno)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj, validate=False), end


def emit_graph(g: Graph) -> str:
    lines = [f"graph {g.n}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    rows, (n,) = _split_header(text, "graph", 1)
    g, pos = _parse_edges(rows, 1, n, _names(n, len(text)))
    if pos < len(rows):
        raise FormatError("edge lines look like 'e <u> <v>'", pos + 1)
    return g


# -- cut families and hypergraphs: one row of sorted vertices per member -------


def _emit_rows(header: str, masks, tags: str = "") -> str:
    """``header``, then one line of sorted members per mask, led by the tags
    in turn as ``<tag>:`` when given.  Names run up to the highest member,
    not the header's n, so that a large n with small rows costs nothing.  A
    negative mask, which has no finite member list, is a ``ValueError``
    naming its row."""
    names = [str(v) for v in range(max(masks, default=0).bit_length())]
    lines = [header]
    for i, m in enumerate(masks):
        row = [f"{tags[i % len(tags)]}:"] if tags else []
        if m < 0:
            where = f" ({row[0]})" if row else ""
            raise ValueError(f"row {i + 1}{where} holds the negative mask {m}, "
                             "which lists no vertices")
        while m:
            low = m & -m
            row.append(names[low.bit_length() - 1])
            m ^= low
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def _parse_rows(rows, n: int, count: int, noun: str, tags: str = ""):
    """The reader twin of ``_emit_rows``: ``(line number, mask)`` for each of
    the ``count`` rows after the header ``rows[0]`` of an ``n``-vertex file,
    each led by ``<tag>:`` with the tags in turn when given.  Once they are
    exhausted, a non-blank row past them is rejected.  ``noun`` names one row
    in errors."""
    if len(rows) < count + 1:
        raise FormatError(f"expected {count} {noun} lines", len(rows))
    names = _names(n, sum(map(len, rows)))
    heads = itertools.cycle([f"{tag}:" for tag in tags])
    for lineno, row in enumerate(rows[1:count + 1], start=2):
        if tags:
            head = next(heads)
            if not row.startswith(head):
                raise FormatError(f"expected a '{head}' line", lineno)
            row = row[len(head):]
        parts = row.split()
        mask = 0
        try:
            for tok in parts:
                mask |= 1 << names[tok]
        except KeyError:
            mask = mask_of(_vertex(tok, n, lineno) for tok in parts)
        yield lineno, mask
    _reject_rows_past(rows, count + 1)


def emit_cut_family(f: CutFamily) -> str:
    return _emit_rows(f"cuts {f.host_n} {len(f.masks)}", f.masks)


def parse_cut_family(text: str) -> CutFamily:
    rows, (n, m) = _split_header(text, "cuts", 2)
    masks = {}
    for lineno, mask in _parse_rows(rows, n, m, "cut"):
        if mask in masks:
            raise FormatError("duplicate cut", lineno)
        masks[mask] = None
    return CutFamily(n, masks)


def emit_hypergraph(h: Hypergraph) -> str:
    return _emit_rows(f"hgraph {h.n} {len(h.edges)}", h.edges)


def parse_hypergraph(text: str) -> Hypergraph:
    rows, (n, m) = _split_header(text, "hgraph", 2)
    return Hypergraph(n, [mask for _, mask in _parse_rows(rows, n, m, "hyperedge")])


# -- packings, coverings and fooling sets -------------------------------------------


def _parse_blocks(rows, n: int, k: int, host: Graph, tags: str,
                  noun: str) -> list[tuple[int, int]]:
    """The ``k`` (first, second) mask pairs of tagged ``_emit_rows`` output
    whose header, ``rows[0]``, declared ``n`` vertices; ``noun`` names the
    file's certificate in errors."""
    if n != host.n:
        raise FormatError(f"{noun} is for {n} vertices, host has {host.n}", 1)
    sides = [mask for _, mask in _parse_rows(rows, n, 2 * k, "side", tags)]
    return list(zip(sides[::2], sides[1::2]))


def emit_packing(cert: PackingCertificate) -> str:
    return _emit_rows(f"packing {cert.host.n} {len(cert.bicliques)}",
                      [m for pair in cert.bicliques for m in pair], "AB")


def parse_packing(text: str, host: Graph) -> PackingCertificate:
    rows, (n, k) = _split_header(text, "packing", 2)
    blocks = _parse_blocks(rows, n, k, host, "AB", "certificate")
    return PackingCertificate(host, tuple(blocks))


def emit_covering(cov: BicliqueCovering) -> str:
    return _emit_rows(f"covering {cov.host.n} {len(cov.bicliques)} t {cov.t}",
                      [m for pair in cov.bicliques for m in pair], "AB")


def parse_covering(text: str, host: Graph) -> BicliqueCovering:
    rows = text.splitlines()
    if not rows:
        raise FormatError("empty covering file")
    parts = rows[0].split()
    if len(parts) != 5 or parts[3] != "t":
        raise FormatError("covering header looks like 'covering <n> <k> t <t>'", 1)
    n, k, t = _header(" ".join(parts[:3] + parts[4:]), 1, "covering", 3)
    blocks = _parse_blocks(rows, n, k, host, "AB", "covering")
    return BicliqueCovering(host, tuple(blocks), t)


def emit_fooling(fs: FoolingSet) -> str:
    return _emit_rows(f"fooling {fs.host.n} {len(fs.pairs)}",
                      [m for pair in fs.pairs for m in pair], "KS")


def parse_fooling(text: str, host: Graph) -> FoolingSet:
    rows, (n, m) = _split_header(text, "fooling", 2)
    return FoolingSet(host, tuple(_parse_blocks(rows, n, m, host, "KS", "fooling set")))


# -- edge colorings and list assignments ---------------------------------------------


def emit_ccp(inst: CcpInstance) -> str:
    lines = [f"ccp {inst.n}"]
    lines += [f"{u} {v} {COLOR_NAMES[c]}"
              for (u, v), c in zip(itertools.combinations(range(inst.n), 2), inst.colors)]
    return "\n".join(lines) + "\n"


def parse_ccp(text: str) -> CcpInstance:
    rows, (n,) = _split_header(text, "ccp", 1)
    want = n * (n - 1) // 2
    names = _names(n, len(text))
    colors = {}
    for i, row in enumerate(rows[1:], start=2):
        if not row.strip():
            continue
        parts = row.split()
        if len(parts) != 3:
            raise FormatError("edge color lines look like '<u> <v> <A|B|C>'", i)
        try:
            u, v = names[parts[0]], names[parts[1]]
        except KeyError:
            u, v = _vertex(parts[0], n, i), _vertex(parts[1], n, i)
        if u >= v:
            raise FormatError("edges must be written with u < v", i)
        if parts[2] not in COLOR_NAMES:
            raise FormatError(f"unknown color {parts[2]!r}", i)
        if (u, v) in colors:
            raise FormatError(f"duplicate pair ({u}, {v})", i)
        colors[(u, v)] = COLOR_NAMES.index(parts[2])
    if len(colors) != want:
        raise FormatError(f"expected {want} colored pairs, found {len(colors)}")
    return CcpInstance(n, [colors[pair] for pair in itertools.combinations(range(n), 2)])


# token -> list value, one table per list alphabet
_COLOR_TOKENS = {name: i for i, name in enumerate(COLOR_NAMES)}
_PART_TOKENS = {name: i for i, name in enumerate(PART_NAMES, start=1)}


def _emit_lists(lists, tokens) -> list[str]:
    names = {v: tok for tok, v in tokens.items()}
    lines = [f"lists {len(lists)}"]
    for lst in lists:
        lines.append(" ".join(names[v] for v in sorted(lst)))
    return lines


def _parse_lists(rows, start: int, tokens, noun: str, seen) -> tuple[tuple, int]:
    """The ``lists`` section at ``rows[start]`` and the index past it.
    ``noun`` names a token of the alphabet ``tokens`` in errors; ``seen``
    maps each line text the file has already parsed to its list."""
    (n,) = _header(rows[start] if start < len(rows) else "", start + 1, "lists", 1)
    if len(rows) < start + 1 + n:
        raise FormatError(f"expected {n} list lines", len(rows))
    lists = []
    for i in range(n):
        row = rows[start + 1 + i]
        lst = seen.get(row)
        if lst is None:
            vals = []
            for tok in row.split():
                if tok not in tokens:
                    raise FormatError(f"unknown {noun} token {tok!r}", start + 2 + i)
                vals.append(tokens[tok])
            if not vals:
                raise FormatError(f"empty {noun} list", start + 2 + i)
            lst = seen[row] = frozenset(vals)
        lists.append(lst)
    return tuple(lists), start + 1 + n


def _emit_covering(covering, tokens) -> str:
    """``lists`` blocks, one per assignment, joined by ``--`` lines."""
    return "\n--\n".join("\n".join(_emit_lists(la, tokens)) for la in covering) + "\n"


def _parse_covering(text: str, tokens, noun: str) -> list[tuple]:
    rows = text.splitlines()
    seen = {}
    out = []
    pos = 0
    while pos < len(rows):
        if not rows[pos].strip() or rows[pos].strip() == "--":
            pos += 1
            continue
        la, pos = _parse_lists(rows, pos, tokens, noun, seen)
        out.append(la)
    if not out:
        raise FormatError("no list assignments found")
    return out


def emit_ccp_covering(covering) -> str:
    return _emit_covering(covering, _COLOR_TOKENS)


def parse_ccp_covering(text: str) -> list[tuple]:
    return _parse_covering(text, _COLOR_TOKENS, "color")


def emit_stubborn_covering(covering) -> str:
    return _emit_covering(covering, _PART_TOKENS)


def parse_stubborn_covering(text: str) -> list[tuple]:
    return _parse_covering(text, _PART_TOKENS, "part")


def emit_stubborn(inst: StubbornInstance) -> str:
    g = inst.graph
    lines = [f"stubborn {g.n}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    lines += _emit_lists(inst.lists, _PART_TOKENS)
    return "\n".join(lines) + "\n"


def parse_stubborn(text: str) -> StubbornInstance:
    rows, (n,) = _split_header(text, "stubborn", 1)
    g, pos = _parse_edges(rows, 1, n, _names(n, len(text)))
    lists, end = _parse_lists(rows, pos, _PART_TOKENS, "part", {})
    _reject_rows_past(rows, end)
    if len(lists) != n:
        raise FormatError("list section size disagrees with the header")
    return StubbornInstance(g, lists)
