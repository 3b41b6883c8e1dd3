"""Golden transcript of the command line: every (command, kind) pair once.

Each run records its exit code, the stdout and stderr text and the sha256 of
its ``--out`` artifact.  Runs that exit 2 record the exit code only, so usage
wording may change.  The golden file ``cli_transcript.json`` was written from
the CLI before its dispatch was rewritten and is not regenerated: a diff here
means the command line changed behaviour.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

from csslab import csp, formats, graphs, packing, separator
from csslab.cli import COMMANDS, main

from oracles import as_covering

GOLDEN = Path(__file__).with_name("cli_transcript.json")


def _fixture(name):
    return str(resources.files("csslab.fixtures").joinpath(name))


def _write_inputs(d: Path) -> None:
    """Inputs the CLI cannot make itself, written by the library."""
    (d / "k4cov.txt").write_text(
        formats.emit_covering(as_covering(packing.star_partition(4), 1)))
    (d / "k6.txt").write_text(formats.emit_graph(graphs.complete_graph(6)))
    (d / "bad.txt").write_text("cuts 8 0\n")
    (d / "h.txt").write_text("hgraph 3 3\n0 1\n1 2\n0 2\n")

    cert = packing.star_cover(graphs.cycle_graph(5))
    (d / "starcert.txt").write_text(formats.emit_packing(cert))
    aux, _ = packing.certificate_aux_pairs(cert)
    fam = separator.extend_to_full_separator(
        aux, separator.build_random_separator(aux, 0.5, 1))
    (d / "auxcuts.txt").write_text(formats.emit_cut_family(fam))

    inst = csp.trivial_stubborn(graphs.gen_gnp(4, 0.5, 5))
    (d / "inst.txt").write_text(formats.emit_stubborn(inst))
    (d / "g4.txt").write_text(formats.emit_graph(inst.graph))
    (d / "ccp4.txt").write_text(formats.emit_ccp(csp.ccp_of_graph(inst.graph)))
    fam4 = separator.extend_to_full_separator(
        inst.graph, separator.build_random_separator(inst.graph, 0.5, 5))
    (d / "cuts4.txt").write_text(formats.emit_cut_family(fam4))


# In run order: later runs read what earlier runs wrote.  A name ending in
# ".txt" is a file in the run directory, "@name" a shipped fixture.
CASES = [
    "gen gnp --n 8 --p 0.5 --seed 3 --out g.txt",
    "gen complete --n 4 --out k4.txt",
    "gen cycle --n 5 --out c5.txt",
    "gen path --n 5",
    "gen net --out net.txt",
    "gen comparability-from-random-poset --n 10 --seed 3 --out comp.txt",
    "build random-separator g.txt --seed 5 --out cuts.txt",
    "build split-free comp.txt --pattern net.txt --out sf.txt",
    "build pk-free c5.txt --k 5 --tk 0.25 --out pk.txt",
    "build fooling c5.txt --out fool.txt",
    "build star-partition --n 4 --out star.txt",
    "build quasipoly-covering --instance @ccp_demo.txt --out qcov.txt",
    "verify separator g.txt bad.txt",
    "verify packing @two_biclique_graph.txt @two_biclique_cert.txt",
    "verify covering-t k4.txt k4cov.txt",
    "verify fooling c5.txt fool.txt",
    "verify ccp-covering @ccp_demo.txt qcov.txt",
    "reduce fooling-to-packing c5.txt fool.txt --out pack.txt",
    "reduce packing-to-fooling k6.txt pack.txt --out back.txt",
    "reduce pairs-packing c5.txt --out pp.txt",
    "reduce separator-to-coloring c5.txt starcert.txt auxcuts.txt --out col.txt",
    "reduce square cuts4.txt --out sq4.txt",
    "reduce separator-to-stubborn inst.txt sq4.txt --out stubcov.txt",
    "verify stubborn-covering inst.txt stubcov.txt",
    "reduce stubborn-to-ccp ccp4.txt --seed 5 --out ccpcov.txt",
    "reduce ccp-to-separator g4.txt ccpcov.txt --out sep4.txt",
    "reduce refine-t k4.txt k4cov.txt",
    "roundtrip theorem7 c5.txt",
    "roundtrip theorem16-loop inst.txt --seed 2",
    "bound-check appendix-a --n 1000000 --p 0.5",
    "bound-check haussler-welzl h.txt",
    "bound-check label-count k4.txt k4cov.txt",
]


def _argv(case: str, d: Path) -> list[str]:
    argv = []
    for word in case.split():
        if word.startswith("@"):
            word = _fixture(word[1:])
        elif word.endswith(".txt"):
            word = str(d / word)
        argv.append(word)
    return argv


def run_transcript(d: Path, capsys) -> dict:
    _write_inputs(d)
    transcript = {}
    for case in CASES:
        argv = _argv(case, d)
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 2:
            transcript[case] = {"exit": code}
            continue
        artifacts = {}
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            if path.exists():
                artifacts[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        transcript[case] = {"exit": code, "stdout": out, "stderr": err,
                            "artifacts": artifacts}
    return transcript


def test_transcript_matches_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CSSLAB_SEED", raising=False)
    transcript = run_transcript(tmp_path, capsys)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(transcript) == list(golden)
    for case, expected in golden.items():
        assert transcript[case] == expected, case


def test_transcript_covers_every_pair():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    pairs = {tuple(case.split()[:2]) for case in golden}
    assert len(pairs) == len(golden) == 32
    assert pairs == set(COMMANDS)
