"""Cross-module invariants that do not belong to a single operation."""

import ast
import importlib
import itertools
import random
import re
from pathlib import Path

import csslab

from csslab import formats, separator, transversal
from csslab.cli import main
from csslab.csp import _MAIN_TABLE, _REFINE_TABLE
from csslab.graphs import (bits, complement, comparability_from_random_poset,
                           from_edges, gen_gnp, net_graph)
from csslab.graphs import _all_clique_masks
from csslab.packing import pairs_packing, verify_packing
from csslab.report import RunReport
from csslab.separator import (CutFamily, build_random_separator,
                              extend_to_full_separator, separates,
                              verify_cs_separator)
from csslab.transversal import (build_pk_free_separator, build_split_free_separator,
                                conflict_digraph, side_weights, vc_dimension,
                                Hypergraph)

from oracles import pair_list_verify


def full_pair_check(g, family):
    stables = list(_all_clique_masks(complement(g)))
    for k in _all_clique_masks(g):
        for s in stables:
            if not k & s:
                assert any(separates(a, k, s) for a in family.masks), (bin(k), bin(s))


def test_every_builder_output_extends_to_full_separator(monkeypatch):
    # random builder
    for seed in range(3):
        g = gen_gnp(7, 0.5, 500 + seed)
        fam = build_random_separator(g, 0.5, seed=seed)
        assert verify_cs_separator(g, fam).ok
        full_pair_check(g, extend_to_full_separator(g, fam))
    # split-pattern builder
    g = comparability_from_random_poset(9, 42)
    fam = build_split_free_separator(g, net_graph())
    assert verify_cs_separator(g, fam).ok
    full_pair_check(g, extend_to_full_separator(g, fam))
    # path-recursion builder
    blocks = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    blocks += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    g = from_edges(10, blocks)
    monkeypatch.setattr(transversal, "PK_BASE_SIZE", 5)
    fam = build_pk_free_separator(g, k=5, t_k=0.4)
    assert verify_cs_separator(g, fam).ok
    full_pair_check(g, extend_to_full_separator(g, fam))


def test_verify_separator_builds_no_pair_list(monkeypatch, tmp_path, capsys):
    """Verification works on rectangles; only the builders list the
    disjoint maximal pairs."""
    g = gen_gnp(12, 0.5, 3)
    fam = build_random_separator(g, 0.5, seed=2)
    bad = CutFamily(g.n, fam.masks[:-1])
    expected = pair_list_verify(g, bad)
    assert not expected.ok

    def refuse(g):
        raise RuntimeError("the verifier listed the disjoint maximal pairs")

    monkeypatch.setattr(separator, "disjoint_maximal_pairs", refuse)
    assert verify_cs_separator(g, fam).ok
    assert verify_cs_separator(g, bad) == expected
    paths = {}
    for name, text in [("g", formats.emit_graph(g)), ("ok", formats.emit_cut_family(fam)),
                       ("bad", formats.emit_cut_family(bad))]:
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "separator", str(paths["g"]), str(paths["ok"])]) == 0
    assert main(["verify", "separator", str(paths["g"]), str(paths["bad"])]) == 1
    out = capsys.readouterr().out
    assert "outcome pass" in out
    assert f"metric pairs_checked {expected.pairs_checked}\n" in out
    assert f"metric witness_clique {' '.join(map(str, bits(expected.witness[0])))}\n" in out
    assert f"metric witness_stable {' '.join(map(str, bits(expected.witness[1])))}\n" in out


def test_vc_dimension_bruteforce_to_ten():
    from csslab.graphs import mask_of
    rnd = random.Random(101)
    for trial in range(15):
        n = rnd.randint(1, 10)
        m = rnd.randint(1, 12)
        edges = [mask_of(v for v in range(n) if rnd.random() < 0.5) for _ in range(m)]
        h = Hypergraph(n, edges)
        res = vc_dimension(h, cap=n + 1)
        masks = h.edges
        best = 0
        for r in range(n + 1):
            for combo in itertools.combinations(range(n), r):
                a = mask_of(combo)
                if len({mm & a for mm in masks}) == 1 << r:
                    best = max(best, r)
        assert res.exact and res.value == best


def test_side_weights_tie_breaks_to_clique_side():
    # both sides admit weights here; the clique side must win
    g = from_edges(4, [(0, 1), (0, 2), (1, 3)])  # K={0,1}, S={2,3}, one edge each
    cd = conflict_digraph(g, 0b0011, 0b1100)
    sw = side_weights(cd)
    assert sw.side == "K"


def test_translation_tables_match_row_list():
    f = frozenset
    assert _MAIN_TABLE == {
        f({2}): f({2}),          # -> C
        f({3}): f({1, 2}),       # -> B, C
        f({4}): f({0}),          # -> A
        f({2, 4}): f({0, 2}),    # -> A, C
        f({2, 3}): f({1, 2}),    # -> B, C
    }
    assert _REFINE_TABLE == {
        f({2}): f({1}),          # -> B
        f({3}): f({0, 2}),       # -> A, C
        f({4}): f({2}),          # -> C
        f({2, 4}): f({1, 2}),    # -> B, C
        f({2, 3}): f({0, 1}),    # -> A, B
        f({3, 4}): f({0, 2}),    # -> A, C
    }


def test_pairs_packing_two_isolated_vertices():
    aux, pairs, cert = pairs_packing(from_edges(2, []))
    assert verify_packing(cert).ok


def test_run_report_deterministic():
    def build():
        r = RunReport("verify separator")
        r.add_input("g.txt", b"graph 1\n")
        r.metric("family_size", 3)
        r.metric("value", 1.5)
        r.set_outcome("pass")
        return r.emit()

    assert build() == build()
    assert build().splitlines()[0] == "command verify separator"


def test_library_checks_survive_optimize():
    """``python -O`` strips ``assert``, so no library check may be one."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(csslab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_twin_path_flags():
    """Each operation has one code path, so no library function takes a
    ``_force...`` parameter that selects between twins."""
    found = [f"{path.name}:{node.lineno} {arg.arg}"
             for path in sorted(Path(csslab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
             and arg.arg.startswith("_force")]
    assert found == []


def test_no_function_level_imports():
    """Imports sit at the top of each module, where import cycles show at
    once, not inside functions."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(csslab.__file__).parent.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_public_names_are_used_or_documented():
    """Each public top-level ``def`` or ``class`` in the package is referenced
    outside its own definition, re-exports in ``__init__.py`` not counting,
    or README.md names it as public API."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(csslab.__file__).parent.glob("*.py"))}
    uses = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = [f"{path.name}:{d.name}"
              for path, tree in trees.items() for d in tree.body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
              and not any(name == d.name and not (where == path and
                                                  d.lineno <= line <= d.end_lineno)
                          for where, line, name in uses)
              and not re.search(rf"\b{d.name}\b", readme)]
    assert unused == []


def test_every_traced_span_names_a_callable(monkeypatch):
    """The benchmark's tracer (bench/tracer.py) wraps csslab functions by
    name; a rename that unhooks one fails here, not only in traced runs."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    tracer = importlib.import_module("tracer")
    dangling = []
    for module, attr, *_ in tracer.SPANS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            dangling.append(f"{module}.{attr}")
    assert tracer.SPANS and dangling == []


def test_no_process_wide_memo():
    """The benchmark's worker (bench/worker.py) runs every invocation of a
    pass in one process, so a memo that outlived a call would carry work
    from one invocation to the next.  ``functools`` caches decorate only the
    CLI parser builder, which holds no result of a run; memos of a
    computation are locals of the call that fills them."""
    memos = {"cache", "lru_cache", "cached_property"}
    decorated, uses = [], 0
    for path in sorted(Path(csslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                uses += sum(alias.name in memos for alias in node.names)
            elif (isinstance(node, ast.Attribute) and node.attr in memos
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                uses += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorated += [f"{path.stem}.{node.name}" for dec in node.decorator_list
                              if re.match(r"(functools\.)?(cache|lru_cache)\b", ast.unparse(dec))]
    assert decorated == ["cli.build_parser"] and uses == 1
