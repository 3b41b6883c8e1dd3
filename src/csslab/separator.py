"""Cuts and clique/stable-set separators.

A cut is a bipartition of the host's vertices, given by its side A: a
family holds its cuts as side-A masks, and side B is the rest of the host.
A family is verified against every disjoint pair of one maximal clique and
one maximal stable set; separating those suffices because the family
extended with the closed/open neighborhood cuts of every vertex separates
every disjoint pair outright (see ``extend_to_full_separator``).

Verification takes the communication view (Yannakakis 1991): list the
maximal cliques and maximal stable sets in lexicographic order and index a
matrix by them.  A cut A covers one rectangle of it, the cliques inside A
times the stable sets outside A, and every cell of that rectangle is a
disjoint pair.  A family is a CS-separator exactly when its rectangles cover
every disjoint cell.  The cells are scanned row by row, so the witness of a
failure is the lexicographically first uncovered disjoint pair.

The random builder runs the greedy set cover on the same matrix: it holds
the uncovered disjoint cells as bit rows, one per clique, and scores each
candidate cut by the uncovered cells of its rectangle, so it never tests a
candidate against the pairs one by one.  It finds a rectangle's rows and
columns by table lookups, one per byte of the cut, not by testing the cut
against each clique and stable set.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .graphs import Graph, maximal_cliques, maximal_stables
from .rng import TWO64, SplitMix64, bernoulli_threshold


class SeparatorBuildError(RuntimeError):
    def __init__(self, remaining: int, rounds: int):
        super().__init__(
            f"round cap reached after {rounds} rounds with {remaining} pairs uncovered")
        self.remaining = remaining
        self.rounds = rounds


class CutFamily:
    """A family of cuts of a ``host_n``-vertex graph, held as the tuple
    ``masks`` of their side-A masks; side B of a cut is the rest of the
    host.  Masks reaching outside the host (negative ones too) and
    duplicate masks are rejected."""

    __slots__ = ("host_n", "masks")

    def __init__(self, host_n: int, masks):
        if host_n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = tuple(masks)
        if masks and (min(masks) < 0 or max(masks) >> host_n):
            raise ValueError("cut side references vertices outside the host")
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate cut in family")
        self.host_n = host_n
        self.masks = masks

    def __len__(self):
        return len(self.masks)

    def __eq__(self, other):
        return (isinstance(other, CutFamily) and self.host_n == other.host_n
                and self.masks == other.masks)

    def __repr__(self):
        return f"CutFamily(n={self.host_n}, m={len(self.masks)})"


def family_from_masks(host_n: int, masks) -> CutFamily:
    """Build a family from side-A masks, dropping duplicates, keeping first
    occurrences in order."""
    return CutFamily(host_n, dict.fromkeys(masks))


@dataclass(frozen=True)
class SeparationReport:
    """Verdict of ``verify_cs_separator``.  ``witness`` is the first
    uncovered disjoint (maximal clique, maximal stable set) pair of masks in
    lexicographic order, or None on a pass.  ``pairs_checked`` counts the
    disjoint maximal pairs up to and including the witness, or all of them
    on a pass."""

    ok: bool
    witness: tuple[int, int] | None
    pairs_checked: int


def separates(a: int, clique: int, stable: int) -> bool:
    """Whether the cut with side-A mask ``a`` puts the ``clique`` mask inside
    A and the ``stable`` mask outside it."""
    return clique & ~a == 0 and stable & a == 0


def disjoint_maximal_pairs(g: Graph) -> list[tuple[int, int]]:
    """Masks of every (maximal clique, maximal stable set) pair that is
    disjoint, in lexicographic order."""
    stables = maximal_stables(g)
    return [(k, s) for k in maximal_cliques(g) for s in stables if k & s == 0]


# cells of one block of rows against stable sets or cuts: the uint64
# temporaries of a block take 1 MB
_BLOCK_CELLS = 1 << 17


def _apart(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bool matrix whose cell (i, j) says word rows x[i] and y[j] share no bit."""
    meet = x[:, None, 0] & y[:, 0]
    for j in range(1, x.shape[1]):
        meet |= x[:, None, j] & y[:, j]
    return meet == 0


def _bit_rows(flags: np.ndarray) -> list[int]:
    """Rows of a bool matrix as ints; bit j of row i is cell (i, j)."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    step = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[i:i + step], "little") for i in range(0, len(buf), step)]


def verify_cs_separator(g: Graph, family: CutFamily) -> SeparationReport:
    """Check that the cuts' rectangles cover every disjoint cell of the
    maximal clique x maximal stable set matrix (see the module docstring).

    Row i of the matrix is held as ints with one bit per stable set: the
    stable sets that miss clique i (its disjoint cells), and the union of
    the stable sets outside each cut that holds clique i (its covered
    cells).  Both come from uint64 word rows, the cuts' outside stable
    sets first and then, per block of cliques, the disjoint rows and the
    cuts holding each clique.  The rows are scanned in order, so a
    rejection stops at the witness's block.
    """
    if family.host_n != g.n:
        raise ValueError("family host size does not match the graph")
    if g.n == 0:
        return SeparationReport(True, None, 0)
    cliques = maximal_cliques(g)
    stables = maximal_stables(g)
    masks = family.masks
    nc, nm = len(cliques), len(masks)
    words = _byte_rows(cliques + list(masks) + stables, 8 * ((g.n + 63) // 64)).view("<u8")
    k_words, a_words, s_words = words[:nc], words[nc:nc + nm], words[nc + nm:]
    # each cut's stable sets outside A, one int per cut
    outside = []
    step = max(1, _BLOCK_CELLS // len(stables))
    for lo in range(0, nm, step):
        outside += _bit_rows(_apart(a_words[lo:lo + step], s_words))
    # a cut holds a clique when the clique misses its B-side; the clique
    # words have no bits past n, so ~A's high bits do not matter
    not_a = ~a_words
    checked = 0
    step = max(1, _BLOCK_CELLS // max(len(stables), nm))
    for lo in range(0, nc, step):
        block = k_words[lo:lo + step]
        row_of, cut = (x.tolist() for x in _apart(block, not_a).nonzero())
        start = 0
        for r, disjoint in enumerate(_bit_rows(_apart(block, s_words))):
            end = bisect_right(row_of, r, start)
            if disjoint:
                covered = 0
                for b in cut[start:end]:
                    covered |= outside[b]
                miss = disjoint & ~covered
                if miss:
                    low = miss & -miss
                    checked += (disjoint & ((low << 1) - 1)).bit_count()
                    witness = (cliques[lo + r], stables[low.bit_length() - 1])
                    return SeparationReport(False, witness, checked)
                checked += disjoint.bit_count()
            start = end
    return SeparationReport(True, None, checked)


def extend_to_full_separator(g: Graph, family: CutFamily) -> CutFamily:
    """Append, for every vertex, the closed-neighborhood cut (N[x] vs rest)
    and the open-neighborhood cut (N(x) vs rest).  If the input separates all
    disjoint maximal pairs, the result separates every disjoint clique/stable
    pair: extend the pair to maximal ones; if those meet in x, one of the two
    new cuts around x does the job."""
    masks = list(family.masks)
    for x in range(g.n):
        masks.append(g.adj[x] | (1 << x))
        masks.append(g.adj[x])
    return family_from_masks(g.n, masks)


def _byte_rows(masks, nbytes: int) -> np.ndarray:
    """Masks as rows of ``nbytes`` bytes; byte j holds bits 8j..8j+7."""
    buf = b"".join([m.to_bytes(nbytes, "little") for m in masks])
    return np.frombuffer(buf, dtype=np.uint8).reshape(-1, nbytes)


# the values of a byte's low nibble and of its high nibble, and the bits
# of the nibble each value leaves out
_NIBBLES = (np.arange(16, dtype=np.uint8) << np.array([[0], [4]], dtype=np.uint8))[..., None]
_NIBBLE_GAPS = _NIBBLES ^ np.array([[[15]], [[240]]], dtype=np.uint8)


def _cut_tables(cliques: np.ndarray, stables: np.ndarray) -> list[np.ndarray]:
    """Four-Russians lookup tables (Arlazarov, Dinic, Kronrod and Faradzev
    1970) of cliques and stable sets given as ``_byte_rows``.  Entry [j, x]
    holds, as uint64 words with one bit per member, the cliques whose byte
    j lies within x, or the stable sets whose byte j misses x, so the AND
    of the entries at a cut's bytes (``_lookup``) is the cliques inside the
    cut, or the stable sets outside it.  Entry [j, 16 h + l] is the AND of
    the members fitting high nibble h and those fitting low nibble l, found
    by one broadcast test per family: the same few numpy calls at any size,
    with temporaries of an eighth of the tables' bits as bytes."""
    nbytes = cliques.shape[1]
    split = 64 * ((len(cliques) + 63) // 64)
    cells = np.zeros((nbytes, 2, 16, split + 64 * ((len(stables) + 63) // 64)), dtype=bool)
    np.equal(_NIBBLE_GAPS & cliques.T[:, None, None, :], 0, out=cells[..., :len(cliques)])
    np.equal(_NIBBLES & stables.T[:, None, None, :], 0, out=cells[..., split:split + len(stables)])
    halves = np.packbits(cells, axis=3, bitorder="little").view("<u8")
    tables = []
    for half in halves[..., :split // 64], halves[..., split // 64:]:
        table = half[:, 1, :, None] & half[:, 0, None, :]
        tables.append(table.reshape(nbytes, 256, half.shape[3]))
    return tables


def _lookup(table: np.ndarray, at: np.ndarray) -> np.ndarray:
    """AND of the ``_cut_tables`` entries [j, byte j] for each row of
    ``at``, a vertex set given as ``_byte_rows``."""
    out = table[0].take(at[:, 0], 0)
    for j in range(1, at.shape[1]):
        out &= table[j].take(at[:, j], 0)
    return out


def build_random_separator(g: Graph, p: float, seed: int,
                           max_rounds: int | None = None, *,
                           stats_out: dict | None = None) -> CutFamily:
    """Greedy random-cut construction.

    Each round draws 32 candidate bipartitions (vertex joins side A with
    probability p), keeps the one covering the most still-uncovered disjoint
    maximal pairs, first on ties, and marks the pairs it covers.  Rounds
    that cover nothing add no cut.  The default round cap is 2 n^7.  When
    ``stats_out`` is given it receives the round count, the cap and the
    initial pair count.

    The pairs are the disjoint cells of the maximal clique x maximal stable
    set matrix (see the module docstring), held as one row of uint64 words
    per clique, one bit per stable set.  A candidate covers the cells of
    the cliques inside it against the stable sets outside it, so its score
    is the popcount of those rows ANDed with its outside row, and a kept
    cut clears its outside bits in the rows of its inside cliques.

    Both sides of that test are ``_cut_tables`` lookups at the cut's
    ceil(n / 8) bytes, over the cliques and stable sets with a disjoint
    cell; the initial uncovered rows are the stable lookups at each
    clique's bytes.  Cliques whose cells are all covered are masked out of
    the clique lookups; the rows a batch's kept cuts changed are checked
    for remaining cells before the next batch.

    Rounds are scored in batches: the batch's candidates are drawn at once
    and looked up, and then its rounds run one after another on the
    uncovered rows.  Batches start at one round and double while 32 times
    the batch's rounds times the larger of the live clique and the stable
    set counts stays within ``_BLOCK_CELLS``.  A batch lists its
    incidences, the (candidate, clique inside A) pairs, candidate-major and
    clique ascending, as flat arrays: the clique, the candidate's outside
    row and its slot 0..31 in its round.  A round is one contiguous slice
    of them, scored by one row take of the uncovered rows, one AND, one
    popcount, a column add per word and one ``np.bincount`` over the
    slots, and the kept cut's incidences are a contiguous slice within it.

    A round uses the bits of one ``bernoulli_mask(32 n)`` draw; candidate i
    is its bits i n .. i n + n - 1 (candidate-major, vertex-minor).  A batch
    of b rounds makes one ``bernoulli_mask(32 n b)`` draw, which gives the
    same bits since the stream is counter-based, so the stream may run up
    to one batch past the last round.  A kept cut is read straight from
    that draw's int.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if max_rounds is not None and max_rounds < 0:
        raise ValueError("max_rounds must be nonnegative")
    pairs = disjoint_maximal_pairs(g)
    cap = 2 * g.n ** 7 if max_rounds is None else max_rounds
    if stats_out is not None:
        stats_out.update(rounds=0, cap=cap, pairs=len(pairs))
    if not pairs:
        return CutFamily(g.n, ())
    rng = SplitMix64(seed)
    threshold = bernoulli_threshold(p)
    if threshold in (0, TWO64):
        raise ValueError(f"p={p} makes every candidate cut empty or full, "
                         "which covers no disjoint pair")
    n = g.n
    nbytes = (n + 7) // 8
    # the rows: the cliques with a disjoint cell; the columns: the stable
    # sets with one
    cliques = dict.fromkeys(map(itemgetter(0), pairs))
    stables = dict.fromkeys(map(itemgetter(1), pairs))
    nk, ns = len(cliques), len(stables)
    members = _byte_rows([*cliques, *stables], nbytes)
    k_bytes = members[:nk]
    k_table, s_table = _cut_tables(k_bytes, members[nk:])
    uncovered = _lookup(s_table, k_bytes)
    # the live cliques, those with uncovered cells, padded to whole words
    live = np.zeros(64 * k_table.shape[2], dtype=bool)
    live[:nk] = True
    full = (1 << n) - 1
    remaining = len(pairs)
    chosen: list[int] = []
    rounds = 0
    batch = 1
    # the rows the kept cuts of the last batch changed
    touched: list[np.ndarray] = []
    while remaining and rounds < cap:
        if touched:
            rows = np.concatenate(touched)
            live[rows] = uncovered.take(rows, 0).any(axis=1)
            touched.clear()
        b = min(batch, cap - rounds)
        # the next batch grows from the live cliques at this batch's start
        limit = max(1, _BLOCK_CELLS // (32 * max(int(np.count_nonzero(live)), ns)))
        # drawn as a mask and unpacked, since bench/tracer.py counts the
        # draws at ``bernoulli_mask``
        draw = rng.bernoulli_mask(32 * n * b, threshold)
        flags = np.unpackbits(np.frombuffer(draw.to_bytes(4 * n * b, "little"), np.uint8),
                              bitorder="little")
        a_bytes = np.packbits(flags.reshape(32 * b, n), axis=1, bitorder="little")
        outside = _lookup(s_table, a_bytes)
        inside = _lookup(k_table, a_bytes)
        inside &= np.packbits(live, bitorder="little").view("<u8")
        cand_of, clique = np.divmod(np.flatnonzero(np.unpackbits(
            inside.view(np.uint8), axis=1, count=nk, bitorder="little").view(bool)), nk)
        cand_out = outside.take(cand_of, 0)
        slot = cand_of % 32
        # each candidate's first incidence, and each round's as ints
        first = np.searchsorted(cand_of, np.arange(32 * b + 1))
        bounds = first[::32].tolist()
        for r in range(b):
            rounds += 1
            lo, hi = bounds[r], bounds[r + 1]
            k = clique[lo:hi]
            before = uncovered.take(k, 0)
            meet = before & cand_out[lo:hi]
            ones = np.bitwise_count(meet)
            gain = ones[:, 0]
            for j in range(1, ones.shape[1]):
                gain = np.add(gain, ones[:, j], dtype=np.intp)
            counts = np.bincount(slot[lo:hi], weights=gain, minlength=32)
            best = int(counts.argmax())
            top = counts[best]
            if not top:
                continue
            # the kept cut's meets, one contiguous run, are exactly the
            # cells it covers
            kept = slice(first[32 * r + best] - lo, first[32 * r + best + 1] - lo)
            rows = k[kept]
            uncovered[rows] = before[kept] ^ meet[kept]
            touched.append(rows)
            remaining -= int(top)
            chosen.append(draw >> n * (32 * r + best) & full)
            if not remaining:
                break
        batch = min(2 * batch, limit)
    if stats_out is not None:
        stats_out["rounds"] = rounds
    if remaining:
        raise SeparatorBuildError(remaining, rounds)
    return family_from_masks(g.n, chosen)


# -- closed-form bound on the random construction ---------------------------


@dataclass(frozen=True)
class AppendixBoundReport:
    n: int
    p: float
    omega: float
    alpha: float
    log2_value: float
    value: float
    ok: bool
    small_alpha_fallback: bool


def _threshold_size(n: float, base_log2: float) -> float:
    """2 log_b n - 2 log_b log_b n + 2 log_b(e/2) + 1 with log2(b) given."""
    lb_n = math.log2(n) / base_log2
    return 2 * lb_n - 2 * (math.log2(lb_n) / base_log2) \
        + 2 * (math.log2(math.e / 2) / base_log2) + 1


def check_appendix_bound(n: int, p: float) -> AppendixBoundReport:
    """Evaluate the expectation-one clique/independence thresholds for G(n, p)
    and check p^omega (1-p)^alpha >= n^-6 in log space.

    When the density is so high that the independence threshold degenerates
    (alpha <= 3), the report flags the fallback family of all cuts with
    |A| <= 3 and the check passes through that route.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if n < 3:
        raise ValueError("n must be at least 3")
    log2_b = -math.log2(p)        # b = 1/p
    log2_bp = -math.log2(1.0 - p)  # b' = 1/(1-p)
    if math.log2(n) / log2_b <= 1.0:
        raise ValueError("clique threshold formula undefined: log_b n <= 1")
    omega = _threshold_size(n, log2_b)
    if math.log2(n) / log2_bp <= 1.0:
        alpha = 3.0
        fallback = True
    else:
        alpha = _threshold_size(n, log2_bp)
        fallback = alpha <= 3.0
    log2_value = omega * math.log2(p) + alpha * math.log2(1.0 - p)
    bound = -6.0 * math.log2(n)
    ok = log2_value >= bound * (1.0 + 1e-9) or fallback
    return AppendixBoundReport(n, p, omega, alpha, log2_value, 2.0 ** log2_value,
                               ok, fallback)
