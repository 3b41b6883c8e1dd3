"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 on a certificate
violation (the witness lands in the report), 2 on usage and input errors.
Argparse reports usage errors; every other bad input, an input past an
exhaustive check's cap included (``verify ccp-covering`` and ``verify
stubborn-covering`` above 8 vertices, ``roundtrip theorem16-loop`` above 6),
raises ``ValueError`` or ``OSError``, which ``main`` prints as one
``error: ...`` line.  Every build subcommand verifies its own output
in-process and writes it only if it passes; a failed packing, covering or
fooling-set check, built or read, reports ``violation`` and ``detail``.
``build quasipoly-covering`` above 8 vertices, past the exhaustive check's
cap, writes the covering unchecked and says so in its report
(``metric uncovered_solutions unchecked``).

``COMMANDS`` maps each ``(command, kind)`` to the roles of its input files, in
order, and to its handler; ``@_command`` fills it.  ``main`` checks the file
count, reads and parses the files and calls ``handler(args, report, *inputs)``.
Handlers and parsers reach library code through its module at call time
(``graphs.gen_gnp(...)``), so that rebinding a module attribute reaches every
call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import csp, formats, graphs, packing, separator, transversal
from .report import RunReport

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_SEED_ENV = "CSSLAB_SEED"
_MAX_DIGITS = 4300  # Python's default limit on int -> str conversion

# (command, kind) -> (input roles in order, handler)
COMMANDS: dict = {}

# input role -> parser of its text; a certificate on a graph is parsed
# against ``g``, the kind's first input
_PARSE = {
    "graph": lambda text, g: formats.parse_graph(text),
    "cuts": lambda text, g: formats.parse_cut_family(text),
    "hgraph": lambda text, g: formats.parse_hypergraph(text),
    "packing": lambda text, g: formats.parse_packing(text, g),
    "covering": lambda text, g: formats.parse_covering(text, g),
    "fooling": lambda text, g: formats.parse_fooling(text, g),
    "ccp": lambda text, g: formats.parse_ccp(text),
    "ccp-covering": lambda text, g: formats.parse_ccp_covering(text),
    "stubborn": lambda text, g: formats.parse_stubborn(text),
    "stubborn-covering": lambda text, g: formats.parse_stubborn_covering(text),
}


def _command(command: str, kind: str, *roles: str):
    """Register the decorated handler for ``command kind`` with input ``roles``."""
    def register(handler):
        COMMANDS[command, kind] = (roles, handler)
        return handler
    return register


def _default_seed() -> int:
    value = os.environ.get(DEFAULT_SEED_ENV, "1")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{DEFAULT_SEED_ENV} must be an integer, got {value!r}") from None


def _read(path: str, report: RunReport) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    report.add_input(os.path.basename(path), data)
    return data.decode("utf-8")


def _write_artifact(text: str, out: str | None, report: RunReport) -> None:
    """Write ``text`` to ``out``, then the report to stdout, so an unwritable
    path prints no report; with no ``out``, report to stderr, text to stdout."""
    if out is None:
        print(report.emit(), end="", file=sys.stderr)
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(report.emit(), end="")


def _finish(report: RunReport, ok: bool, out_text: str | None = None,
            out: str | None = None) -> int:
    report.set_outcome("pass" if ok else "fail")
    if out_text is not None and ok:
        _write_artifact(out_text, out, report)
    else:
        print(report.emit(), end="")
    return EXIT_PASS if ok else EXIT_VIOLATION


def _certificate_verdict(report: RunReport, result, text: str | None = None,
                         out: str | None = None) -> int:
    """Tail of every packing, covering and fooling-set check: report the
    violation and its detail on failure; write ``text`` only on success."""
    if not result.ok:
        report.metric("violation", result.violation)
        report.metric("detail", " ".join(map(str, result.detail)))
    return _finish(report, result.ok, text, out)


def _separator_verdict(report: RunReport, g, fam) -> bool:
    """Verify ``fam`` as a CS-separator of ``g``; report its size, the pairs
    checked and, on failure, the first uncovered pair."""
    rep = separator.verify_cs_separator(g, fam)
    report.metric("family_size", len(fam))
    report.metric("pairs_checked", rep.pairs_checked)
    if not rep.ok:
        report.metric("witness_clique", " ".join(map(str, graphs.bits(rep.witness[0]))))
        report.metric("witness_stable", " ".join(map(str, graphs.bits(rep.witness[1]))))
    return rep.ok


def _write_separator(args, report: RunReport, g, fam) -> int:
    """Tail of every separator builder: write the family only if it verifies."""
    return _finish(report, _separator_verdict(report, g, fam),
                   formats.emit_cut_family(fam), args.out)


def _uncovered_stubborn(report: RunReport, inst, covering) -> list:
    """Report the number of maximal solutions of ``inst``; return those that
    no assignment of ``covering`` allows."""
    maxsols = csp.all_maximal_stubborn_solutions(inst)
    report.metric("maximal_solutions", len(maxsols))
    return csp.covering_covers(covering, maxsols)


def _refine(report: RunReport, g, cov):
    """Refine a t-covering into exact-multiplicity classes; report the class
    count against the (2k)^t bound and return the refinement and the check.
    The classes partition edges, so the power need not grow past the edge
    count; the bound prints as ``<2k>^<t>`` beyond ``_MAX_DIGITS`` digits."""
    refined = packing.refine_t_covering(g, cov)
    base, t = 2 * len(cov.bicliques), cov.t
    classes = len(refined.partition.bicliques)
    report.metric("classes", classes)
    short = base < 2 or (t * math.log10(base) <= _MAX_DIGITS + 1
                         and base ** t < 10 ** _MAX_DIGITS)
    report.metric("class_bound", base ** t if short else f"{base}^{t}")
    return refined, classes <= base ** min(t, g.edge_count().bit_length() + 1)


def _stubborn_covering_provider(seed: int):
    def provider(sub_inst):
        g = sub_inst.graph
        if g.n == 0:
            return [()]
        fam = separator.extend_to_full_separator(
            g, separator.build_random_separator(g, 0.5, seed))
        return csp.separator_to_stubborn_covering(sub_inst, csp.square_cut_family(fam))
    return provider


def _gen(kind: str, make) -> None:
    """Register ``gen kind``; ``make(args)`` returns the graph."""
    @_command("gen", kind)
    def handler(args, report):
        g = make(args)
        report.metric("vertices", g.n)
        report.metric("edges", g.edge_count())
        return _finish(report, True, formats.emit_graph(g), args.out)


_gen("gnp", lambda a: graphs.gen_gnp(a.n, a.p, a.seed))
_gen("complete", lambda a: graphs.complete_graph(a.n))
_gen("cycle", lambda a: graphs.cycle_graph(a.n))
_gen("path", lambda a: graphs.path_graph(a.n))
_gen("net", lambda a: graphs.net_graph())
_gen("comparability-from-random-poset",
     lambda a: graphs.comparability_from_random_poset(a.n, a.seed))


@_command("build", "random-separator", "graph")
def _build_random_separator(args, report, g):
    stats = {}
    try:
        fam = separator.build_random_separator(g, args.p, args.seed,
                                               args.max_rounds, stats_out=stats)
    except separator.SeparatorBuildError as exc:
        report.metric("uncovered_pairs", exc.remaining)
        report.metric("rounds", exc.rounds)
        return _finish(report, False)
    report.metric("rounds", stats["rounds"])
    return _write_separator(args, report, g, fam)


@_command("build", "split-free", "graph")
def _build_split_free(args, report, g):
    # --pattern names the built-in net or a graph file, read after the graph
    pattern = graphs.net_graph() if args.pattern == "net" \
        else formats.parse_graph(_read(args.pattern, report))
    fam, reports = transversal.split_free_report(g, pattern)
    report.metric("pairs", len(reports))
    report.metric("tau_max", max((r.tau for r in reports), default=0))
    return _write_separator(args, report, g, fam)


@_command("build", "pk-free", "graph")
def _build_pk_free(args, report, g):
    try:
        fam = transversal.build_pk_free_separator(g, args.k, args.tk)
    except transversal.BicliquePairNotFound as exc:
        report.metric("failed_level_size", len(exc.level_vertices))
        report.metric("needed_pair_size", exc.needed)
        return _finish(report, False)
    return _write_separator(args, report, g, fam)


@_command("build", "fooling", "graph")
def _build_fooling(args, report, g):
    fs = packing.build_fooling_set(g)
    report.metric("fooling_size", len(fs.pairs))
    return _certificate_verdict(report, packing.verify_fooling_set(fs),
                                formats.emit_fooling(fs), args.out)


@_command("build", "star-partition")
def _build_star_partition(args, report):
    cert = packing.star_partition(args.n)
    report.metric("bicliques", len(cert.bicliques))
    return _certificate_verdict(report, packing.verify_packing(cert),
                                formats.emit_packing(cert), args.out)


@_command("build", "quasipoly-covering", "ccp")
def _build_quasipoly_covering(args, report, inst):
    tree = csp.build_quasipoly_covering(inst)
    report.metric("leaf_count", tree.raw_leaf_count)
    report.metric("tree_height", tree.height)
    report.metric("assignments", len(tree.assignments))
    if inst.n > 8:  # beyond the exhaustive check's cap, as in verify ccp-covering
        report.metric("uncovered_solutions", "unchecked")
    else:
        missed = csp.covering_covers(tree.assignments, csp.all_3ccp_solutions(inst))
        report.metric("uncovered_solutions", len(missed))
        if missed:
            return _finish(report, False)
    return _finish(report, True, formats.emit_ccp_covering(tree.assignments), args.out)


@_command("verify", "separator", "graph", "cuts")
def _verify_separator(args, report, g, fam):
    return _finish(report, _separator_verdict(report, g, fam))


def _verify_on_graph(kind: str, role: str, check) -> None:
    """Register ``verify kind`` of a certificate on a graph; ``check(cert)``
    returns its verification result."""
    @_command("verify", kind, "graph", role)
    def handler(args, report, g, cert):
        return _certificate_verdict(report, check(cert))


_verify_on_graph("packing", "packing", lambda cert: packing.verify_packing(cert))
_verify_on_graph("covering-t", "covering", lambda cert: packing.verify_covering(cert))
_verify_on_graph("fooling", "fooling", lambda cert: packing.verify_fooling_set(cert))


def _check_covering_input(covering, n: int) -> None:
    """Reject a covering unless each assignment gives one list per vertex,
    and an instance too large for the exhaustive check."""
    for i, la in enumerate(covering, start=1):
        if len(la) != n:
            raise ValueError(f"assignment {i} has {len(la)} lists for {n} vertices")
    if n > 8:
        raise ValueError("exhaustive covering verification capped at 8 vertices")


@_command("verify", "ccp-covering", "ccp", "ccp-covering")
def _verify_ccp_covering(args, report, inst, covering):
    _check_covering_input(covering, inst.n)
    sols = csp.all_3ccp_solutions(inst)
    missed = csp.covering_covers(covering, sols)
    report.metric("solutions", len(sols))
    report.metric("assignments", len(covering))
    report.metric("uncovered_solutions", len(missed))
    return _finish(report, not missed)


@_command("verify", "stubborn-covering", "stubborn", "stubborn-covering")
def _verify_stubborn_covering(args, report, inst, covering):
    _check_covering_input(covering, inst.graph.n)
    missed = _uncovered_stubborn(report, inst, covering)
    report.metric("assignments", len(covering))
    report.metric("uncovered_solutions", len(missed))
    return _finish(report, not missed)


@_command("reduce", "fooling-to-packing", "graph", "fooling")
def _reduce_fooling_to_packing(args, report, g, fs):
    cert = packing.fooling_to_packing(fs)
    report.metric("host_size", cert.host.n)
    report.metric("bicliques", len(cert.bicliques))
    return _finish(report, True, formats.emit_packing(cert), args.out)


@_command("reduce", "packing-to-fooling", "graph", "packing")
def _reduce_packing_to_fooling(args, report, g, cert):
    aux, fs = packing.packing_to_fooling(cert)
    report.metric("aux_vertices", aux.n)
    report.metric("fooling_size", len(fs.pairs))
    text = formats.emit_graph(aux) + formats.emit_fooling(fs)
    return _finish(report, True, text, args.out)


@_command("reduce", "pairs-packing", "graph")
def _reduce_pairs_packing(args, report, g):
    aux, pairs, cert = packing.pairs_packing(g)
    colors = graphs.greedy_coloring(aux)
    fam = packing.pair_coloring_to_separator(g, pairs, colors)
    ok = separator.verify_cs_separator(g, fam).ok
    report.metric("pairs", len(pairs))
    report.metric("colors", len(set(colors)))
    report.metric("family_size", len(fam))
    return _finish(report, ok, formats.emit_cut_family(fam), args.out)


@_command("reduce", "separator-to-coloring", "graph", "packing", "cuts")
def _reduce_separator_to_coloring(args, report, g, cert, fam):
    colors = packing.separator_to_coloring(g, cert, fam)
    report.metric("colors", len(set(colors)))
    return _finish(report, True, " ".join(map(str, colors)) + "\n", args.out)


@_command("reduce", "ccp-to-separator", "graph", "ccp-covering")
def _reduce_ccp_to_separator(args, report, g, covering):
    fam = csp.ccp_covering_to_separator(g, covering)
    ok = separator.verify_cs_separator(g, fam).ok
    report.metric("family_size", len(fam))
    return _finish(report, ok, formats.emit_cut_family(fam), args.out)


@_command("reduce", "separator-to-stubborn", "stubborn", "cuts")
def _reduce_separator_to_stubborn(args, report, inst, fam):
    covering = csp.separator_to_stubborn_covering(inst, fam)
    report.metric("assignments", len(covering))
    return _finish(report, True, formats.emit_stubborn_covering(covering), args.out)


@_command("reduce", "stubborn-to-ccp", "ccp")
def _reduce_stubborn_to_ccp(args, report, inst):
    provider = _stubborn_covering_provider(args.seed)
    covering = csp.full_3ccp_covering_via_stubborn(inst, args.vertex, provider)
    report.metric("assignments", len(covering))
    return _finish(report, True, formats.emit_ccp_covering(covering), args.out)


@_command("reduce", "refine-t", "graph", "covering")
def _reduce_refine_t(args, report, g, cov):
    refined, ok = _refine(report, g, cov)
    report.metric("exact_t_edges", refined.subgraph.edge_count())
    return _finish(report, ok, formats.emit_covering(refined.partition), args.out)


@_command("reduce", "square", "cuts")
def _reduce_square(args, report, fam):
    sq = csp.square_cut_family(fam)
    report.metric("input_size", len(fam))
    report.metric("output_size", len(sq))
    return _finish(report, len(sq) <= len(fam) ** 2, formats.emit_cut_family(sq), args.out)


@_command("roundtrip", "theorem7", "graph")
def _roundtrip_theorem7(args, report, g):
    fs = packing.build_fooling_set(g)
    if not packing.verify_fooling_set(fs).ok:
        return _finish(report, False)
    cert = packing.fooling_to_packing(fs)
    aux, fs2 = packing.packing_to_fooling(cert)
    report.metric("fooling_size", len(fs.pairs))
    report.metric("packing_host", cert.host.n)
    report.metric("roundtrip_size", len(fs2.pairs))
    return _finish(report, len(fs.pairs) == g.n + 1 and len(fs2.pairs) == len(fs.pairs))


@_command("roundtrip", "theorem16-loop", "stubborn")
def _roundtrip_theorem16_loop(args, report, inst):
    g = inst.graph
    if g.n > 6:
        raise ValueError("equivalence loop is exhaustive; capped at 6 vertices")
    full = separator.extend_to_full_separator(
        g, separator.build_random_separator(g, 0.5, args.seed))
    f2 = csp.square_cut_family(full)
    report.metric("separator_size", len(full))
    report.metric("square_size", len(f2))
    if len(f2) > len(full) ** 2:
        return _finish(report, False)
    missed3 = _uncovered_stubborn(report, inst, csp.separator_to_stubborn_covering(inst, f2))
    report.metric("stubborn_uncovered", len(missed3))
    enc = csp.ccp_of_graph(g)
    cov4 = csp.full_3ccp_covering_via_stubborn(enc, 0, _stubborn_covering_provider(args.seed))
    sols = csp.all_3ccp_solutions(enc)
    missed4 = csp.covering_covers(cov4, sols)
    report.metric("ccp_solutions", len(sols))
    report.metric("ccp_uncovered", len(missed4))
    fam5 = csp.ccp_covering_to_separator(g, cov4)
    rep = separator.verify_cs_separator(g, fam5)
    report.metric("final_family_size", len(fam5))
    return _finish(report, not missed3 and not missed4 and rep.ok)


@_command("bound-check", "appendix-a")
def _bound_appendix_a(args, report):
    res = separator.check_appendix_bound(args.n, args.p)
    report.metric("omega", res.omega)
    report.metric("alpha", res.alpha)
    report.metric("log2_value", res.log2_value)
    report.metric("value", res.value)
    report.metric("small_alpha_fallback", res.small_alpha_fallback)
    report.metric("ok", res.ok)
    return _finish(report, res.ok)


@_command("bound-check", "haussler-welzl", "hgraph")
def _bound_haussler_welzl(args, report, h):
    tau_star, _ = transversal.fractional_transversality(h)
    greedy = transversal.greedy_transversal(h)
    cap = args.cap if args.cap is not None else h.n + 1
    vc = transversal.vc_dimension(h, cap=cap)
    report.metric("vc_dimension", vc.value)
    report.metric("vc_exact", vc.exact)
    report.metric("tau_star", tau_star)
    report.metric("greedy_tau", greedy.bit_count())
    if vc.value > 0 and tau_star > 0:
        bound = 16 * vc.value * float(tau_star) * \
            max(math.log2(vc.value * float(tau_star)), 1.0)
        report.metric("hw_bound", bound)
        report.metric("greedy_within_bound", greedy.bit_count() <= bound)
    report.set_outcome("advisory")
    print(report.emit(), end="")
    return EXIT_PASS


@_command("bound-check", "label-count", "graph", "covering")
def _bound_label_count(args, report, g, cov):
    return _finish(report, _refine(report, g, cov)[1])


# -- parser ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` call in the process.  It reads nothing from the
    environment: ``main`` fills the ``--seed`` default on each call."""
    parser = argparse.ArgumentParser(
        prog="csslab",
        description="build, transform and verify clique/stable-set separation certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("kind", choices=[kind for cmd, kind in COMMANDS if cmd == name])
        p.add_argument("inputs", nargs="*", metavar="FILE",
                       help="input files, in the order the kind expects")
        return p

    p = command("gen", "generate instance graphs")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = command("build", "build certificates, verifying before writing")
    p.add_argument("--instance", help="edge-coloring file (quasipoly-covering)")
    p.add_argument("--n", type=int, default=4, help="size for star-partition")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--pattern", default="net", help="split pattern: 'net' or a graph file")
    p.add_argument("--k", type=int, default=5, help="forbidden path length")
    p.add_argument("--tk", type=float, default=0.25, help="linear pair fraction")
    p.add_argument("--out", default=None)

    command("verify", "verify certificates")

    p = command("reduce", "transform certificates between formulations")
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = command("roundtrip", "equivalence round trips with verification")
    p.add_argument("--seed", type=int, default=None)

    p = command("bound-check", "closed-form and advisory bound checks")
    p.add_argument("--n", type=int, default=10 ** 6)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--cap", type=int, default=None,
                   help="search cap for the shattering dimension")

    return parser


def main(argv=None) -> int:
    try:
        seed = _default_seed()
        parser = build_parser()
        # Files may follow options; argparse leaves those after the first
        # option unmatched, so they join the positional ones here.
        args, rest = parser.parse_known_args(argv)
        if any(word.startswith("-") for word in rest):
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except ValueError as exc:  # from _default_seed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "seed", 0) is None:  # a command with --seed, not given
        args.seed = seed
    roles, handler = COMMANDS[args.command, args.kind]
    paths = args.inputs + rest
    if getattr(args, "instance", None):  # build quasipoly-covering --instance FILE
        paths.insert(0, args.instance)
    if len(paths) != len(roles):
        print(f"{args.command} {args.kind} expects {len(roles)} input files "
              f"({' '.join(roles) or 'none'}), got {len(paths)}", file=sys.stderr)
        return EXIT_USAGE
    report = RunReport(f"{args.command} {args.kind}")
    try:
        texts = [_read(path, report) for path in paths]
        inputs = []
        for role, text in zip(roles, texts):
            inputs.append(_PARSE[role](text, inputs[0] if inputs else None))
        return handler(args, report, *inputs)
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
