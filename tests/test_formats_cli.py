import argparse
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import csslab
from csslab import cli, fixture_text, graphs
from csslab.cli import main
from csslab.csp import (CcpInstance, StubbornInstance, all_3ccp_solutions,
                        all_maximal_stubborn_solutions, build_quasipoly_covering,
                        random_ccp_instance, separator_to_stubborn_covering,
                        square_cut_family, trivial_stubborn)
from csslab.graphs import (complete_graph, cycle_graph, from_edges, gen_gnp,
                           net_graph)
from csslab.packing import (BicliqueCovering, FoolingSet, PackingCertificate,
                            build_fooling_set, star_partition, verify_packing)
from csslab.separator import (CutFamily, build_random_separator,
                              extend_to_full_separator)
from csslab.transversal import Hypergraph
from csslab import formats
from csslab.formats import (FormatError, emit_ccp, emit_ccp_covering,
                            emit_covering, emit_cut_family, emit_fooling,
                            emit_graph, emit_hypergraph, emit_packing,
                            emit_stubborn, emit_stubborn_covering, parse_ccp,
                            parse_ccp_covering, parse_covering,
                            parse_cut_family, parse_fooling, parse_graph,
                            parse_hypergraph, parse_packing, parse_stubborn,
                            parse_stubborn_covering)

from oracles import as_covering, scan_covering_covers
from test_separator import clique_beside_five_cycle

# ---------------------------------------------------------------- round trips


def test_graph_roundtrip():
    for seed in range(4):
        g = gen_gnp(9, 0.4, seed)
        text = emit_graph(g)
        assert parse_graph(text) == g
        assert emit_graph(parse_graph(text)) == text


def test_graph_parse_errors_located():
    with pytest.raises(FormatError, match="line 2"):
        parse_graph("graph 3\nedge 0 1\n")
    with pytest.raises(FormatError, match="duplicate"):
        parse_graph("graph 3\ne 0 1\ne 0 1\n")
    with pytest.raises(FormatError, match="self-loop"):
        parse_graph("graph 3\ne 1 1\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_graph("graph 3\ne 0 7\n")
    with pytest.raises(FormatError, match="u < v"):
        parse_graph("graph 3\ne 1 0\n")


def test_cut_family_roundtrip():
    g = gen_gnp(8, 0.5, 2)
    fam = extend_to_full_separator(g, build_random_separator(g, 0.5, seed=4))
    text = emit_cut_family(fam)
    back = parse_cut_family(text)
    assert back == fam
    assert emit_cut_family(back) == text
    with pytest.raises(FormatError, match="duplicate"):
        parse_cut_family("cuts 3 2\n0 1\n0 1\n")


def test_hypergraph_roundtrip():
    h = Hypergraph(4, [0b0011, 0, 0b1110])
    text = emit_hypergraph(h)
    back = parse_hypergraph(text)
    assert back.n == h.n and back.edges == h.edges
    assert emit_hypergraph(back) == text


def test_hypergraph_parse_locates_out_of_range_vertex():
    with pytest.raises(FormatError, match=r"^line 3: vertex 4 out of range \[0, 4\)"):
        parse_hypergraph("hgraph 4 2\n0 1\n2 4\n")
    with pytest.raises(FormatError, match=r"^line 2: vertex -1 out of range"):
        parse_hypergraph("hgraph 4 1\n-1 2\n")


@pytest.mark.parametrize("parse, text", [
    (parse_graph, "graph 3\ne 0 1\n\ne 1 2\n"),
    (parse_stubborn, "stubborn 3\ne 0 1\n\ne 1 2\nlists 3\nA1 A2\nA3\nA4\n"),
], ids=["graph", "stubborn"])
def test_blank_lines_among_edge_lines(parse, text):
    got = parse(text)
    assert (got if parse is parse_graph else got.graph).edges() == [(0, 1), (1, 2)]


def test_packing_and_fooling_roundtrip():
    g = cycle_graph(5)
    fs = build_fooling_set(g)
    text = emit_fooling(fs)
    assert parse_fooling(text, g).pairs == fs.pairs
    assert emit_fooling(parse_fooling(text, g)) == text

    cert = star_partition(5)
    text = emit_packing(cert)
    back = parse_packing(text, cert.host)
    assert back.bicliques == cert.bicliques
    assert emit_packing(back) == text
    with pytest.raises(FormatError, match="host"):
        parse_packing(text, cycle_graph(4))


def test_emitters_name_a_row_with_a_negative_side():
    # the certificates keep such sides, so that the verifiers can report
    # them as vertex-out-of-range; a file cannot list them
    k3 = complete_graph(3)
    with pytest.raises(ValueError, match=r"row 1 \(A:\) holds the negative mask -1"):
        emit_packing(PackingCertificate(k3, ((-1, 2),)))
    with pytest.raises(ValueError, match=r"row 4 \(B:\) holds the negative mask -2"):
        emit_covering(BicliqueCovering(k3, ((1, 2), (1, -2)), 2))
    with pytest.raises(ValueError, match=r"row 2 \(S:\) holds the negative mask -1"):
        emit_fooling(FoolingSet(k3, ((1, -1),)))


@pytest.mark.parametrize("parse, text", [
    (parse_cut_family, "cuts 4 1\n0 1\n"),
    (parse_hypergraph, "hgraph 4 1\n0 1\n"),
    (lambda text: parse_packing(text, cycle_graph(4)), "packing 4 1\nA: 0\nB: 1\n"),
    (lambda text: parse_covering(text, cycle_graph(4)), "covering 4 1 t 2\nA: 0\nB: 1\n"),
    (lambda text: parse_fooling(text, cycle_graph(4)), "fooling 4 1\nK: 0\nS: 2\n"),
    (parse_stubborn, "stubborn 2\ne 0 1\nlists 2\nA1\nA2 A3\n"),
], ids=["cuts", "hgraph", "packing", "covering", "fooling", "stubborn"])
def test_rows_past_declared_count_rejected(parse, text):
    parse(text + "\n  \n")  # blank rows past the count stay legal
    junk_line = len(text.splitlines()) + 3
    with pytest.raises(FormatError, match=f"^line {junk_line}: row past"):
        parse(text + "\n  \nK: junk\n")


def test_cli_rejects_rows_past_declared_count(tmp_path, capsys):
    k4 = tmp_path / "k4.txt"
    k4.write_text(emit_graph(complete_graph(4)))
    fooling = tmp_path / "f.txt"
    fooling.write_text("fooling 4 1\nK: 0\nS:\n")
    assert run_cli(tmp_path, "verify", "fooling", k4, fooling) == 0
    fooling.write_text("fooling 4 1\nK: 0\nS:\nK: junk\n")
    assert run_cli(tmp_path, "verify", "fooling", k4, fooling) == 2
    assert "line 4: row past" in capsys.readouterr().err


def test_negative_header_counts_rejected():
    for parse, text in ((parse_cut_family, "cuts 3 -1\n"),
                        (lambda t: parse_packing(t, cycle_graph(3)), "packing 3 -1\n"),
                        (lambda t: parse_covering(t, cycle_graph(3)), "covering 3 -1 t 1\n"),
                        (lambda t: parse_covering(t, cycle_graph(3)), "covering 3 1 t -1\n")):
        with pytest.raises(FormatError, match="^line 1: negative"):
            parse(text)


def test_covering_roundtrip():
    cov = as_covering(star_partition(4), 1)
    text = emit_covering(cov)
    back = parse_covering(text, cov.host)
    assert back.bicliques == cov.bicliques and back.t == 1
    assert emit_covering(back) == text


def test_ccp_roundtrip():
    inst = random_ccp_instance(6, 9)
    text = emit_ccp(inst)
    assert parse_ccp(text) == inst
    assert emit_ccp(parse_ccp(text)) == text
    with pytest.raises(FormatError, match="unknown color"):
        parse_ccp("ccp 2\n0 1 X\n")


def test_ccp_covering_roundtrip():
    rnd = random.Random(1)
    covering = [tuple(frozenset(rnd.sample([0, 1, 2], rnd.randint(1, 2)))
                      for _ in range(4)) for _ in range(3)]
    text = emit_ccp_covering(covering)
    assert parse_ccp_covering(text) == covering


def test_stubborn_roundtrip():
    g = from_edges(4, [(0, 1), (2, 3)])
    inst = StubbornInstance(g, (frozenset({1, 2}), frozenset({3, 4}),
                                frozenset({1, 2, 3, 4}), frozenset({2})))
    text = emit_stubborn(inst)
    back = parse_stubborn(text)
    assert back == inst
    assert emit_stubborn(back) == text

    cov = [(frozenset({3, 4}),) * 4, (frozenset({1, 2}),) * 4]
    text = emit_stubborn_covering(cov)
    assert parse_stubborn_covering(text) == cov


def test_bad_list_tokens_are_named_by_their_alphabet():
    """A bad token in a part list is a part token, in a colour list a
    colour token; each message names the token and its line."""
    with pytest.raises(FormatError, match=r"^line 4: unknown part token 'A5'$"):
        parse_stubborn("stubborn 2\nlists 2\nA1\nA5\n")
    with pytest.raises(FormatError, match=r"^line 3: unknown part token 'A'$"):
        parse_stubborn_covering("lists 2\nA1 A2\nA\n")
    with pytest.raises(FormatError, match=r"^line 2: unknown color token 'A1'$"):
        parse_ccp_covering("lists 1\nA1\n")


@pytest.mark.parametrize("parse, text, message", [
    (parse_stubborn, "stubborn 1\nlists 1\n\n", "^line 3: empty part list$"),
    (parse_stubborn_covering, "lists 1\n\n", "^line 2: empty part list$"),
    (parse_ccp_covering, "lists 1\n\n", "^line 2: empty color list$"),
])
def test_empty_lists_are_named_by_their_alphabet(parse, text, message):
    with pytest.raises(FormatError, match=message):
        parse(text)


def test_fixture_files():
    g = parse_graph(fixture_text("two_biclique_graph.txt"))
    assert g.n == 6 and g.edge_count() == 7
    cert = parse_packing(fixture_text("two_biclique_cert.txt"), g)
    assert len(cert.bicliques) == 2 and verify_packing(cert).ok
    assert parse_graph(fixture_text("net.txt")) == net_graph()
    parse_ccp(fixture_text("ccp_demo.txt"))
    parse_stubborn(fixture_text("stubborn_demo.txt"))


# ---------------------------------------------------------------- CLI


def run_cli(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_cli_gen_build_verify_cycle(tmp_path, capsys):
    g = tmp_path / "g.txt"
    cuts = tmp_path / "cuts.txt"
    assert run_cli(tmp_path, "gen", "gnp", "--n", 9, "--p", 0.5,
                   "--seed", 3, "--out", g) == 0
    assert run_cli(tmp_path, "build", "random-separator", g, "--seed", 5,
                   "--out", cuts) == 0
    assert run_cli(tmp_path, "verify", "separator", g, cuts) == 0
    out = capsys.readouterr().out
    assert "outcome pass" in out

    # tampering: an empty family fails verification with exit 1
    cuts.write_text("cuts 9 0\n")
    assert run_cli(tmp_path, "verify", "separator", g, cuts) == 1
    out = capsys.readouterr().out
    assert "outcome fail" in out and "witness_clique" in out


def test_cli_usage_errors(tmp_path, capsys):
    assert run_cli(tmp_path, "frobnicate") == 2
    g = tmp_path / "g.txt"
    run_cli(tmp_path, "gen", "complete", "--n", 4, "--out", g)
    capsys.readouterr()
    assert run_cli(tmp_path, "verify", "separator", g, g) == 2  # wrong format


def test_cli_fooling_roundtrip(tmp_path, capsys):
    g = tmp_path / "g.txt"
    run_cli(tmp_path, "gen", "cycle", "--n", 5, "--out", g)
    assert run_cli(tmp_path, "roundtrip", "theorem7", g) == 0
    out = capsys.readouterr().out
    assert "metric fooling_size 6" in out


def test_cli_theorem16_loop(tmp_path, capsys):
    from csslab.formats import emit_stubborn
    inst = trivial_stubborn(gen_gnp(4, 0.5, 12))
    f = tmp_path / "inst.txt"
    f.write_text(emit_stubborn(inst))
    assert run_cli(tmp_path, "roundtrip", "theorem16-loop", f, "--seed", 2) == 0
    out = capsys.readouterr().out
    assert "metric ccp_uncovered 0" in out
    assert "metric stubborn_uncovered 0" in out


def test_cli_theorem16_loop_past_its_cap_is_bad_input(tmp_path, capsys):
    f = tmp_path / "inst.txt"
    f.write_text(emit_stubborn(trivial_stubborn(gen_gnp(7, 0.5, 12))))
    assert run_cli(tmp_path, "roundtrip", "theorem16-loop", f) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: equivalence loop is exhaustive; capped at 6 vertices\n"
    assert captured.out == ""


@pytest.mark.parametrize("builder, broken, argv, failure", [
    # two copies of one pair cross neither way
    ("build_fooling_set", lambda g: FoolingSet(g, ((0b01, 0b10), (0b01, 0b10))),
     ["fooling", "{g}"], "metric violation uncrossed-pairs\nmetric detail 0 1\n"),
    # no biclique covers edge (0, 1)
    ("star_partition", lambda n: PackingCertificate(complete_graph(n), ()),
     ["star-partition", "--n", "4"], "metric violation uncovered-edge\nmetric detail 0 1\n"),
], ids=["fooling", "star-partition"])
def test_cli_failed_build_check_reports_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                           builder, broken, argv, failure):
    g = tmp_path / "g.txt"
    g.write_text(emit_graph(complete_graph(3)))
    out_file = tmp_path / "cert.txt"
    monkeypatch.setattr(cli.packing, builder, broken)
    assert run_cli(tmp_path, "build", *[a.format(g=g) for a in argv], "--out", out_file) == 1
    assert not out_file.exists()
    assert failure + "outcome fail\n" in capsys.readouterr().out


def test_cli_bound_checks(tmp_path, capsys):
    assert run_cli(tmp_path, "bound-check", "appendix-a",
                   "--n", 10 ** 6, "--p", 0.5) == 0
    out = capsys.readouterr().out
    assert "metric ok true" in out

    h = tmp_path / "h.txt"
    h.write_text("hgraph 3 3\n0 1\n1 2\n0 2\n")
    assert run_cli(tmp_path, "bound-check", "haussler-welzl", h) == 0
    out = capsys.readouterr().out
    assert "outcome advisory" in out
    assert "metric tau_star 3/2" in out


def test_cli_reduce_square_and_refine(tmp_path, capsys):
    g = tmp_path / "g.txt"
    cuts = tmp_path / "cuts.txt"
    sq = tmp_path / "sq.txt"
    run_cli(tmp_path, "gen", "gnp", "--n", 6, "--seed", 8, "--out", g)
    run_cli(tmp_path, "build", "random-separator", g, "--seed", 8, "--out", cuts)
    assert run_cli(tmp_path, "reduce", "square", cuts, "--out", sq) == 0
    parsed = parse_cut_family(sq.read_text())
    base = parse_cut_family(cuts.read_text())
    assert len(parsed) <= len(base) ** 2

    k4 = tmp_path / "k4.txt"
    cov = tmp_path / "cov.txt"
    run_cli(tmp_path, "gen", "complete", "--n", 4, "--out", k4)
    cov.write_text(emit_covering(as_covering(star_partition(4), 1)))
    capsys.readouterr()
    assert run_cli(tmp_path, "reduce", "refine-t", k4, cov) == 0
    captured = capsys.readouterr()
    assert "metric classes" in captured.err  # artifact on stdout, report on stderr
    assert captured.out.startswith("covering")


# Runs the command in a child that reports the command's own time, so that a
# (2k)^t computed in full fails on the timeout instead of hanging the suite.
_TIMED_MAIN = ("import sys, time; from csslab.cli import main; t0 = time.perf_counter(); "
               "code = main(sys.argv[1:]); print('elapsed', time.perf_counter() - t0); "
               "sys.exit(code)")


@pytest.mark.parametrize("t", [6000, 10 ** 9])
@pytest.mark.parametrize("command", ["bound-check label-count", "reduce refine-t"])
def test_cli_label_count_with_large_multiplicity_cap(tmp_path, command, t):
    """The class check never builds (2k)^t past the edge count, and a bound
    of more than 4,300 digits prints as <2k>^<t>."""
    k4, cov = tmp_path / "k4.txt", tmp_path / "cov.txt"
    k4.write_text(emit_graph(complete_graph(4)))
    cov.write_text(emit_covering(as_covering(star_partition(4), t)))
    src = str(Path(csslab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", _TIMED_MAIN, *command.split(), k4, cov],
                         capture_output=True, text=True, env=env, timeout=30)
    assert run.returncode == 0, run.stderr
    report = run.stderr if command == "reduce refine-t" else run.stdout
    assert "outcome pass" in report and f"metric class_bound 6^{t}\n" in report
    assert float(run.stdout.rsplit("elapsed ", 1)[1]) < 1.0


def test_cli_unwritable_out_prints_no_passing_report(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.txt"
    assert run_cli(tmp_path, "gen", "gnp", "--n", 5, "--out", out) == 2
    captured = capsys.readouterr()
    assert "outcome pass" not in captured.out
    assert "Traceback" not in captured.err


def test_cli_build_verifies_before_writing(tmp_path, capsys):
    # a pk-free build that cannot find its pair reports failure, writes nothing
    star = tmp_path / "star.txt"
    star.write_text(emit_graph(from_edges(14, [(0, v) for v in range(1, 14)])))
    out_file = tmp_path / "cuts.txt"
    code = run_cli(tmp_path, "build", "pk-free", star, "--k", 5, "--tk", 0.9,
                   "--out", out_file)
    assert code == 1
    assert not out_file.exists()
    out = capsys.readouterr().out
    assert "failed_level_size" in out


def test_cli_pk_free_tiny_t_k_builds_the_base_case(tmp_path):
    """1 - t_k rounds to 1 for t_k = 1e-300, and n^c overflows for 1e-10:
    both builds pass with the same cuts as t_k = 0.25 and print no traceback."""
    g = tmp_path / "p4.txt"
    g.write_text(emit_graph(graphs.path_graph(4)))
    src = str(Path(csslab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cuts = []
    for t_k in ("1e-300", "1e-10", "0.25"):
        out = tmp_path / f"cuts_{t_k}.txt"
        run = subprocess.run([sys.executable, "-m", "csslab.cli", "build", "pk-free", str(g),
                              "--k", "5", "--tk", t_k, "--out", str(out)],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
        cuts.append(out.read_text())
    assert cuts[0] == cuts[1] == cuts[2] == emit_cut_family(CutFamily(4, range(16)))


def test_cli_verify_separator_on_a_deep_clique(tmp_path):
    """On K_1100 the maximal-clique enumeration goes 1100 levels deep, past
    Python's default recursion limit; the one maximal clique meets every
    maximal stable set, so the empty family passes with no pair to check."""
    g, cuts = tmp_path / "k1100.txt", tmp_path / "cuts.txt"
    g.write_text(emit_graph(complete_graph(1100)))
    cuts.write_text("cuts 1100 0\n")
    src = str(Path(csslab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "csslab.cli", "verify", "separator",
                          str(g), str(cuts)], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
    assert "metric pairs_checked 0\n" in run.stdout


def test_cli_quasipoly_and_ccp_route(tmp_path, capsys):
    ccp = tmp_path / "inst.txt"
    cover = tmp_path / "cover.txt"
    ccp.write_text(emit_ccp(random_ccp_instance(5, 77)))
    assert run_cli(tmp_path, "build", "quasipoly-covering",
                   "--instance", ccp, "--out", cover) == 0
    assert run_cli(tmp_path, "verify", "ccp-covering", ccp, cover) == 0
    out = capsys.readouterr().out
    assert "metric uncovered_solutions 0" in out


def test_cli_quasipoly_past_the_check_cap_reports_unchecked(tmp_path, capsys):
    """Above 8 vertices the build cannot run the exhaustive check, and its
    report says so instead of a count; verify refuses the same pair."""
    ccp = tmp_path / "inst.txt"
    cover = tmp_path / "cover.txt"
    ccp.write_text(emit_ccp(random_ccp_instance(9, 4)))
    assert run_cli(tmp_path, "build", "quasipoly-covering", ccp, "--out", cover) == 0
    out = capsys.readouterr().out
    assert "metric uncovered_solutions unchecked\noutcome pass\n" in out
    assert parse_ccp_covering(cover.read_text())
    assert run_cli(tmp_path, "verify", "ccp-covering", ccp, cover) == 2
    assert "capped at 8 vertices" in capsys.readouterr().err


def test_cli_reduce_tour(tmp_path, capsys):
    """Exercise every remaining reduce path once, checking exit codes."""
    g = tmp_path / "g.txt"
    run_cli(tmp_path, "gen", "cycle", "--n", 5, "--out", g)

    fool = tmp_path / "fool.txt"
    assert run_cli(tmp_path, "build", "fooling", g, "--out", fool) == 0

    pack = tmp_path / "pack.txt"
    assert run_cli(tmp_path, "reduce", "fooling-to-packing", g, fool,
                   "--out", pack) == 0
    k6 = tmp_path / "k6.txt"
    run_cli(tmp_path, "gen", "complete", "--n", 6, "--out", k6)
    assert run_cli(tmp_path, "verify", "packing", k6, pack) == 0

    back = tmp_path / "back.txt"
    assert run_cli(tmp_path, "reduce", "packing-to-fooling", k6, pack,
                   "--out", back) == 0

    sep = tmp_path / "sep.txt"
    assert run_cli(tmp_path, "reduce", "pairs-packing", g, "--out", sep) == 0
    assert run_cli(tmp_path, "verify", "separator", g, sep) == 0

    # separator-to-coloring on the star cover of g
    from csslab.formats import emit_packing, emit_cut_family
    from csslab.packing import star_cover, certificate_aux_pairs
    from csslab.graphs import cycle_graph
    from csslab.separator import (CutFamily, build_random_separator,
                              extend_to_full_separator)
    cert = star_cover(cycle_graph(5))
    certf = tmp_path / "cert.txt"
    certf.write_text(emit_packing(cert))
    aux, _ = certificate_aux_pairs(cert)
    fam = extend_to_full_separator(aux, build_random_separator(aux, 0.5, 1))
    auxcuts = tmp_path / "auxcuts.txt"
    auxcuts.write_text(emit_cut_family(fam))
    col = tmp_path / "col.txt"
    assert run_cli(tmp_path, "reduce", "separator-to-coloring", g, certf,
                   auxcuts, "--out", col) == 0
    assert len(col.read_text().split()) == 5

    # stubborn route: instance, separator, square, covering, verify
    from csslab.formats import emit_stubborn
    from csslab.csp import trivial_stubborn
    from csslab.graphs import gen_gnp
    inst = trivial_stubborn(gen_gnp(4, 0.5, 5))
    instf = tmp_path / "inst.txt"
    instf.write_text(emit_stubborn(inst))
    gf = tmp_path / "g4.txt"
    gf.write_text(emit_graph(inst.graph))
    cuts = tmp_path / "cuts4.txt"
    fam = extend_to_full_separator(inst.graph,
                                   build_random_separator(inst.graph, 0.5, 5))
    cuts.write_text(emit_cut_family(fam))
    sq = tmp_path / "sq4.txt"
    assert run_cli(tmp_path, "reduce", "square", cuts, "--out", sq) == 0
    stub_cov = tmp_path / "stubcov.txt"
    assert run_cli(tmp_path, "reduce", "separator-to-stubborn", instf, sq,
                   "--out", stub_cov) == 0
    assert run_cli(tmp_path, "verify", "stubborn-covering", instf, stub_cov) == 0

    # edge-coloring route: instance, covering via the transformer, separator
    from csslab.formats import emit_ccp
    from csslab.csp import ccp_of_graph
    ccpf = tmp_path / "ccp4.txt"
    ccpf.write_text(emit_ccp(ccp_of_graph(inst.graph)))
    ccp_cov = tmp_path / "ccpcov.txt"
    assert run_cli(tmp_path, "reduce", "stubborn-to-ccp", ccpf, "--seed", 5,
                   "--out", ccp_cov) == 0
    assert run_cli(tmp_path, "verify", "ccp-covering", ccpf, ccp_cov) == 0
    sep2 = tmp_path / "sep2.txt"
    assert run_cli(tmp_path, "reduce", "ccp-to-separator", gf, ccp_cov,
                   "--out", sep2) == 0
    assert run_cli(tmp_path, "verify", "separator", gf, sep2) == 0

    # covering multiplicity verification
    from csslab.formats import emit_covering as _ec
    from csslab.formats import parse_packing as _pp, parse_graph as _pg
    cov2 = as_covering(_pp(pack.read_text(), _pg(k6.read_text())), 2)
    covf = tmp_path / "cov2.txt"
    covf.write_text(_ec(cov2))
    assert run_cli(tmp_path, "verify", "covering-t", k6, covf) == 0

    # structured builders through the CLI
    from csslab.graphs import comparability_from_random_poset
    comp = tmp_path / "comp.txt"
    comp.write_text(emit_graph(comparability_from_random_poset(10, 3)))
    sf = tmp_path / "sf.txt"
    assert run_cli(tmp_path, "build", "split-free", comp, "--out", sf) == 0
    assert run_cli(tmp_path, "verify", "separator", comp, sf) == 0

    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["build", "quasipoly-covering"],                       # missing instance
    ["verify", "separator", "{g}"],                        # missing certificate
    ["verify", "separator", "{dir}", "{g}"],               # directory as input
    ["build", "split-free", "{g}", "--pattern", "{dir}"],  # directory as pattern
    ["verify", "separator", "{g}", "{dir}/absent.txt"],    # no such file
    ["bound-check", "appendix-a", "{g}"],                  # extra input
    ["build", "star-partition", "{g}"],                    # extra input
    ["build", "random-separator", "{g}", "--p", "0", "--max-rounds", "10"],
    ["build", "random-separator", "{g}", "--p", "1", "--max-rounds", "10"],
    ["build", "random-separator", "{g}", "--max-rounds", "-3"],  # negative cap
    ["CSSLAB_SEED=abc", "gen", "net"],                     # non-integer seed variable
    ["roundtrip", "theorem16-loop", "{stub}"],             # no lists section
    ["bound-check", "haussler-welzl", "{h}", "--cap", "-1"],  # negative cap
    ["reduce", "stubborn-to-ccp", "{ccp0}"],               # no vertex 0 to branch on
    ["CSSLAB_SEED=abc", "verify", "separator", "{g}", "{cuts}"],  # seed variable, no --seed
    ["CSSLAB_SEED=abc", "bound-check", "appendix-a"],      # seed variable, no --seed
    ["reduce", "stubborn-to-ccp", "{ccp5}"],               # vertex 0 not really 3-colorable
    ["build", "pk-free", "{g}", "--k", "0"],               # no path to exclude
    ["build", "pk-free", "{g}", "--k", "-1"],              # negative path length
])
def test_cli_bad_input_exits_2_without_traceback(tmp_path, capsys, monkeypatch, argv):
    if "=" in argv[0]:  # a leading NAME=value sets the environment, as in a shell
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    g = tmp_path / "g.txt"
    graph = gen_gnp(8, 0.5, 3)
    g.write_text(emit_graph(graph))
    cuts = tmp_path / "cuts.txt"  # a separator of g: verifies without the seed variable
    cuts.write_text(emit_cut_family(extend_to_full_separator(
        graph, build_random_separator(graph, 0.5, 1))))
    stub = tmp_path / "stub.txt"
    stub.write_text("stubborn 6\ne 0 1\n")
    h = tmp_path / "h.txt"
    h.write_text("hgraph 3 3\n0 1\n1 2\n0 2\n")
    ccp0 = tmp_path / "ccp0.txt"
    ccp0.write_text("ccp 0\n")
    ccp5 = tmp_path / "ccp5.txt"
    ccp5.write_text("ccp 5\n0 1 B\n0 2 B\n0 3 B\n0 4 B\n1 2 A\n1 3 C\n1 4 C\n"
                    "2 3 C\n2 4 C\n3 4 A\n")
    assert main([a.format(g=g, cuts=cuts, dir=tmp_path, stub=stub, h=h, ccp0=ccp0,
                          ccp5=ccp5)
                 for a in argv]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["ccp-covering", "stubborn-covering"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_cli_covering_list_count_must_match_instance(tmp_path, capsys, kind, extra):
    """An assignment with fewer or more lists than the instance has vertices
    is bad input, named by its place in the file."""
    n = 4
    if kind == "ccp-covering":
        inst = emit_ccp(random_ccp_instance(n, 77))
        emit, full = emit_ccp_covering, frozenset({0, 1, 2})
    else:
        inst = emit_stubborn(trivial_stubborn(gen_gnp(n, 0.5, 12)))
        emit, full = emit_stubborn_covering, frozenset({1, 2, 3, 4})
    instf, covf = tmp_path / "inst.txt", tmp_path / "cov.txt"
    instf.write_text(inst)
    covf.write_text(emit([(full,) * n, (full,) * (n + extra)]))
    assert run_cli(tmp_path, "verify", kind, instf, covf) == 2
    err = capsys.readouterr().err
    assert f"assignment 2 has {n + extra} lists" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["ccp-covering", "stubborn-covering"])
def test_cli_covering_with_dropped_assignments_fails(tmp_path, capsys, kind):
    """A covering that misses solutions exits 1 and reports as many
    uncovered solutions as the scan oracle finds."""
    n = 6
    if kind == "ccp-covering":
        inst = random_ccp_instance(n, 77)
        cov = build_quasipoly_covering(inst).assignments
        sols, text, emit = all_3ccp_solutions(inst), emit_ccp(inst), emit_ccp_covering
    else:
        inst = trivial_stubborn(gen_gnp(n, 0.5, 12))
        full = extend_to_full_separator(inst.graph,
                                        build_random_separator(inst.graph, 0.5, 5))
        cov = separator_to_stubborn_covering(inst, square_cut_family(full))
        sols = all_maximal_stubborn_solutions(inst)
        text, emit = emit_stubborn(inst), emit_stubborn_covering
    kept = cov[::3]
    missed = scan_covering_covers(kept, sols)
    assert kept and missed
    instf, covf = tmp_path / "inst.txt", tmp_path / "cov.txt"
    instf.write_text(text)
    covf.write_text(emit(kept))
    assert run_cli(tmp_path, "verify", kind, instf, covf) == 1
    out = capsys.readouterr().out
    assert f"metric uncovered_solutions {len(missed)}\n" in out
    assert "outcome fail" in out


def test_cli_random_separator_beyond_one_word(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(emit_graph(clique_beside_five_cycle()))
    cuts = tmp_path / "cuts.txt"
    assert run_cli(tmp_path, "build", "random-separator", g, "--seed", 3,
                   "--out", cuts) == 0
    assert "outcome pass" in capsys.readouterr().out
    assert cuts.read_text().startswith("cuts 70 23\n")


def test_cli_instance_positional_or_option(tmp_path, capsys):
    ccp = tmp_path / "inst.txt"
    ccp.write_text(emit_ccp(random_ccp_instance(5, 77)))
    outputs = []
    for argv in (["build", "quasipoly-covering", ccp],
                 ["build", "quasipoly-covering", "--instance", ccp]):
        assert run_cli(tmp_path, *argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.startswith("lists")
    # both forms at once give two instances for one role
    assert run_cli(tmp_path, "build", "quasipoly-covering", ccp, "--instance", ccp) == 2


def test_cli_files_may_follow_options(tmp_path, capsys):
    g = tmp_path / "g.txt"
    run_cli(tmp_path, "gen", "cycle", "--n", 5, "--out", g)
    capsys.readouterr()
    assert run_cli(tmp_path, "roundtrip", "theorem7", g, "--seed", 2) == 0
    after = capsys.readouterr()
    assert run_cli(tmp_path, "roundtrip", "theorem7", "--seed", 2, g) == 0
    assert capsys.readouterr() == after
    assert run_cli(tmp_path, "roundtrip", "theorem7", "--seed", 2, g, "--bogus") == 2


@pytest.mark.parametrize("kind", ["complete", "path"])
def test_negative_vertex_count_message(capsys, kind):
    """``gen complete`` and ``gen path`` reject a negative size with the same
    message, from the library and through the CLI."""
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        getattr(graphs, f"{kind}_graph")(-2)
    assert main(["gen", kind, "--n", "-2"]) == 2
    assert capsys.readouterr().err == "error: vertex count must be nonnegative\n"


def test_cli_seed_variable_read_at_every_call(tmp_path, capsys, monkeypatch):
    """The parser is shared by every ``main`` call, yet each call takes its
    default seed from ``CSSLAB_SEED`` as set at that call."""
    def gnp(name, *seed):
        out = tmp_path / name
        assert run_cli(tmp_path, "gen", "gnp", "--n", 12, *seed, "--out", out) == 0
        return out.read_text()

    monkeypatch.setenv("CSSLAB_SEED", "5")
    from_env_5 = gnp("env5.txt")
    monkeypatch.setenv("CSSLAB_SEED", "11")
    from_env_11 = gnp("env11.txt")
    explicit_5 = gnp("seed5.txt", "--seed", 5)  # wins over CSSLAB_SEED=11
    monkeypatch.delenv("CSSLAB_SEED")
    explicit_11 = gnp("seed11.txt", "--seed", 11)
    unset = gnp("unset.txt")
    assert from_env_5 == explicit_5 == emit_graph(gen_gnp(12, 0.5, 5))
    assert from_env_11 == explicit_11 == emit_graph(gen_gnp(12, 0.5, 11))
    assert unset == emit_graph(gen_gnp(12, 0.5, 1))
    assert from_env_5 != from_env_11
    assert cli.build_parser() is cli.build_parser()


def test_cli_parser_built_once_and_reused_after_errors(tmp_path, capsys, monkeypatch):
    """Usage errors and ``--help`` leave the shared parser fit for the next
    call: its help and reports are byte-identical to a fresh process's, and
    no parser is constructed after the first call."""
    g, cuts = tmp_path / "g.txt", tmp_path / "cuts.txt"
    graph = gen_gnp(9, 0.5, 3)
    g.write_text(emit_graph(graph))
    cuts.write_text(emit_cut_family(extend_to_full_separator(
        graph, build_random_separator(graph, 0.5, 5))))
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width

    def fresh_process(*argv):
        src = str(Path(csslab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "csslab.cli", *map(str, argv)],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == 0, run.stderr
        return run.stdout

    constructed, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        assert main(["build"]) == 2
        first = len(constructed)
        capsys.readouterr()
        assert main(["--help"]) == 0
        help_text = capsys.readouterr().out
        assert main(["verify", "separator", str(g), str(cuts), "--bogus"]) == 2
        capsys.readouterr()
        assert run_cli(tmp_path, "verify", "separator", g, cuts) == 0
        report = capsys.readouterr().out
        assert first > 0 and len(constructed) == first
        assert cli.build_parser() is cli.build_parser()
    finally:
        cli.build_parser.cache_clear()  # the next test builds an uncounted parser
    assert "outcome pass" in report
    assert help_text == fresh_process("--help")
    assert report == fresh_process("verify", "separator", g, cuts)
