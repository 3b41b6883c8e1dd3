"""The three workloads, as fixed blocks of instance chains.

A block is the list of chains one pass runs; it depends only on the workload
and the seed.  A chain takes one generated input through the CLI commands the
workload stresses.  Each step names its kind (``gen``, ``build`` for commands
that produce a certificate, ``verify`` on a valid certificate, ``reject`` on a
corrupted one), the exit code it must give, and the artifact it writes.

Sizes are chosen so that one pass gives at least 40 ``build`` and 40
``verify`` samples, so that ``.tail`` lies above the median; see README.md
for why each workload exists.
"""

from __future__ import annotations

import random
from functools import partial
from pathlib import Path

GNP, POSET, EQUIV = "gnp-random", "poset-splitfree", "equivalence-small"
WORKLOADS = (GNP, POSET, EQUIV)
DEFAULT_SEED = 1

# acceptance criterion 4's pinned instances: (n, seed, family size)
PINNED_GNP = ((10, 40001, 9), (20, 40002, 143), (30, 40003, 545))
GNP_SIZES = (22,) * 37
POSET_SIZES = (13,) * 150
EQUIV_STUBBORN_SIZES = (3, 4, 5, 6) * 16
EQUIV_CCP = 28        # edge-coloring instances on 8 vertices
EQUIV_FOOLING = 56    # graphs on 10 vertices: theorem 7 round trip, fooling set
EQUIV_PAIRS = 24      # graphs on 7 vertices; reduce pairs-packing caps at 8


# -- files the benchmark reads and writes itself ---------------------------------


def _members(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def read_graph(path) -> tuple[int, list[int]]:
    rows = Path(path).read_text(encoding="utf-8").splitlines()
    n = int(rows[0].split()[1])
    adj = [0] * n
    for row in rows[1:]:
        _, u, v = row.split()
        adj[int(u)] |= 1 << int(v)
        adj[int(v)] |= 1 << int(u)
    return n, adj


def _maximal_cliques(n: int, adj: list[int]) -> list[int]:
    """Reference Bron-Kerbosch, sorted by member list."""
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot = max(_members(p | x), key=lambda u: (p & adj[u]).bit_count())
        for v in _members(p & ~adj[pivot]):
            expand(r | 1 << v, p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << n) - 1, 0)
    return sorted(out, key=_members)


def first_pair(n: int, adj: list[int]):
    """Lexicographically first disjoint (maximal clique, maximal stable set)
    pair, the first pair ``verify separator`` checks; None if there is none."""
    full = (1 << n) - 1
    stables = _maximal_cliques(n, [full & ~row & ~(1 << v) for v, row in enumerate(adj)])
    for k in _maximal_cliques(n, adj):
        for s in stables:
            if not k & s:
                return k, s
    return None


def write_cuts(path, n: int, sides: list[str]) -> None:
    Path(path).write_text("\n".join([f"cuts {n} {len(sides)}"] + sides) + "\n", encoding="utf-8")


def read_cuts(path) -> tuple[int, list[str]]:
    rows = Path(path).read_text(encoding="utf-8").splitlines()
    _, n, m = rows[0].split()
    return int(n), rows[1:1 + int(m)]


def drop_first_pair_cuts(graph, cuts, bad) -> str | None:
    """Drop every cut that separates the first disjoint maximal pair, so the
    verifier must reject with exactly that pair as its witness, whatever
    built the family.  Returns the expected witness, or None when the graph
    has no such pair."""
    n, adj = read_graph(graph)
    pair = first_pair(n, adj)
    if pair is None:
        return None
    k, s = pair
    _, sides = read_cuts(cuts)
    kept = []
    for side in sides:
        a = sum(1 << int(v) for v in side.split())
        if k & ~a or s & a:
            kept.append(side)
    write_cuts(bad, n, kept)
    return witness_text(k, s)


def witness_text(k: int, s: int) -> str:
    return " ".join(map(str, _members(k))) + " | " + " ".join(map(str, _members(s)))


# -- chains ------------------------------------------------------------------------


def gnp_chain(step, f, n, seed, family_size=None):
    g, cuts = f("graph"), f("cuts")
    step("gen", ["gen", "gnp", "--n", n, "--p", "0.5", "--seed", seed, "--out", g], out=g)
    step("build", ["build", "random-separator", g, "--seed", seed, "--out", cuts], out=cuts,
         metrics={"family_size": family_size} if family_size else None)
    verify_and_reject(step, f, g, cuts)


def verify_and_reject(step, f, g, cuts):
    """Verify a separator, then the same certificate corrupted, which must
    be rejected with the expected witness."""
    bad = f("bad")
    step("verify", ["verify", "separator", g, cuts])
    witness = drop_first_pair_cuts(g, cuts, bad)
    if witness is not None:
        step("reject", ["verify", "separator", g, bad], rc=1, witness=witness)


def poset_chain(step, f, n, seed):
    g, cuts = f("graph"), f("cuts")
    step("gen", ["gen", "comparability-from-random-poset", "--n", n, "--seed", seed,
                 "--out", g], out=g)
    step("build", ["build", "split-free", g, "--out", cuts], out=cuts)
    verify_and_reject(step, f, g, cuts)


def stubborn_chain(step, f, text, seed):
    inst = f("stubborn")
    Path(inst).write_text(text, encoding="utf-8")
    step("build", ["roundtrip", "theorem16-loop", inst, "--seed", seed])


def ccp_chain(step, f, text):
    inst, cov = f("ccp"), f("covering")
    Path(inst).write_text(text, encoding="utf-8")
    step("build", ["build", "quasipoly-covering", "--instance", inst, "--out", cov], out=cov)
    step("verify", ["verify", "ccp-covering", inst, cov])


def fooling_chain(step, f, seed):
    g, fool, pack = f("graph"), f("fooling"), f("packing")
    step("gen", ["gen", "gnp", "--n", 10, "--p", "0.5", "--seed", seed, "--out", g], out=g)
    step("build", ["roundtrip", "theorem7", g])
    step("build", ["build", "fooling", g, "--out", fool], out=fool)
    step("verify", ["verify", "fooling", g, fool])
    step("build", ["reduce", "fooling-to-packing", g, fool, "--out", pack], out=pack)


def pairs_chain(step, f, seed):
    g, cuts = f("graph"), f("cuts")
    step("gen", ["gen", "gnp", "--n", 7, "--p", "0.5", "--seed", seed, "--out", g], out=g)
    step("build", ["reduce", "pairs-packing", g, "--out", cuts], out=cuts)
    verify_and_reject(step, f, g, cuts)


def _stubborn_text(rnd: random.Random, n: int) -> str:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.5]
    lists = [sorted(rnd.sample((1, 2, 3, 4), rnd.randint(1, 4))) for _ in range(n)]
    rows = [f"stubborn {n}"] + [f"e {u} {v}" for u, v in edges] + [f"lists {n}"]
    rows += [" ".join(f"A{p}" for p in lst) for lst in lists]
    return "\n".join(rows) + "\n"


def _ccp_text(rnd: random.Random, n: int) -> str:
    rows = [f"ccp {n}"] + [f"{u} {v} {rnd.choice('ABC')}"
                           for u in range(n) for v in range(u + 1, n)]
    return "\n".join(rows) + "\n"


def block(workload: str, seed: int) -> list[tuple[str, object]]:
    """(label, chain) pairs of one pass; the same arguments give the same
    inputs.  A chain is called as ``chain(step, f)`` with ``f(suffix)``
    naming its files."""
    rnd = random.Random(f"{workload}/{seed}")

    def draw():
        return rnd.randrange(1, 2 ** 31)

    if workload == GNP:
        chains = [(f"pin{n}", partial(gnp_chain, n=n, seed=s, family_size=size))
                  for n, s, size in PINNED_GNP]
        chains += [(f"g{i:02d}n{n}", partial(gnp_chain, n=n, seed=draw()))
                   for i, n in enumerate(GNP_SIZES)]
    elif workload == POSET:
        chains = [(f"p{i:02d}n{n}", partial(poset_chain, n=n, seed=draw()))
                  for i, n in enumerate(POSET_SIZES)]
    elif workload == EQUIV:
        chains = [(f"s{i:02d}n{n}", partial(stubborn_chain, text=_stubborn_text(rnd, n),
                                             seed=draw()))
                  for i, n in enumerate(EQUIV_STUBBORN_SIZES)]
        chains += [(f"c{i:02d}", partial(ccp_chain, text=_ccp_text(rnd, 8)))
                   for i in range(EQUIV_CCP)]
        chains += [(f"f{i:02d}", partial(fooling_chain, seed=draw()))
                   for i in range(EQUIV_FOOLING)]
        chains += [(f"q{i:02d}", partial(pairs_chain, seed=draw()))
                   for i in range(EQUIV_PAIRS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return chains
