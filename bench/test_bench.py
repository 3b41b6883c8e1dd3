"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# counts that later changes may quote as counts; they must repeat exactly
EXACT = ("rng.draws", "graphs.maximal_sets", "separator.pairs", "separator.rounds",
         "separator.pairs_checked", "lp.calls", "lp.distinct_ratio", "csp.solutions")


def traced_pass(workload, limit, workdir):
    spec = {"workload": workload, "seed": workloads.DEFAULT_SEED, "trace": True,
            "workdir": str(workdir), "src": str(run.ROOT / "src"), "limit": limit}
    return run.run_worker(spec, run.child_env(), 170)


@pytest.mark.parametrize("workload,limit", [(workloads.GNP, 3), (workloads.POSET, 3),
                                            (workloads.EQUIV, None)])
def test_counts_repeat_exactly(workload, limit, tmp_path):
    first = traced_pass(workload, limit, tmp_path / "a")
    second = traced_pass(workload, limit, tmp_path / "b")
    assert not first["failures"] and not second["failures"]
    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second["layers"].items() if not k.endswith("_s")}
    assert first["digests"] == second["digests"]
    for name in EXACT:
        assert name in counts


def test_spans_account_for_the_invocation():
    t = tracer.Tracer()

    leaf_w = t.wrap("leaf", "a_s", lambda: time.sleep(0.002), None)

    def broken():
        leaf_w()
        raise ValueError("unwinds through the span")

    broken_w = t.wrap("broken", "b_s", broken, None)

    def invocation():
        leaf_w()
        try:
            broken_w()
        except ValueError:
            pass
        return 0

    t0 = time.perf_counter()
    assert t.invoke(invocation) == 0
    wall = time.perf_counter() - t0
    assert 0 <= wall - sum(t.self_s.values()) < 1e-3
    assert t.self_s["a_s"] >= 0.004 and t.self_s["b_s"] < t.self_s["a_s"]
    assert not t.stack and t.outside == 0
    leaf_w()  # a span outside any invocation is counted, not lost
    assert t.outside == 1


def fake_pass(**traced):
    return {"attempted": 4, "failures": [], "digests": {}, "witnesses": {},
            "samples": {"build": {str(i): 0.1 for i in range(40)},
                        "verify": {str(i): 0.1 for i in range(40)}},
            "traced": True, "layers": {}, "unhooked": [], "outside_spans": 0,
            "accounting_gap_s": 1e-4, "interpreter": [], "reference_s": 7e-4, **traced}


def test_check_fails_on_lost_or_extra_time():
    args = SimpleNamespace(seed=workloads.DEFAULT_SEED + 1, workload=workloads.GNP)
    assert run.check(args, [fake_pass()]) == (4, 0, [])
    for bad in ({"outside_spans": 2}, {"accounting_gap_s": -0.01},
                {"accounting_gap_s": 0.5}, {"unhooked": ["csslab.lp.solve_lp"]},
                {"interpreter": ["threads were started"]}):
        assert len(run.check(args, [fake_pass(**bad)])[2]) == 1, bad


def test_rounds_come_from_the_program():
    import csslab.cli  # noqa: F401
    from csslab import graphs, separator
    g = graphs.gen_gnp(12, 0.5, 7)
    stats = {}
    separator.build_random_separator(g, 0.5, 3, stats_out=stats)
    t = tracer.Tracer()
    tracer.install(t)
    t.invoke(lambda: separator.build_random_separator(g, 0.5, 3))
    mine = {}
    t.invoke(lambda: separator.build_random_separator(g, 0.5, 3, stats_out=mine))
    assert mine["rounds"] == stats["rounds"] > 0
    layers = t.metrics()
    assert layers["separator.rounds"] == 2 * stats["rounds"]
    assert layers["separator.candidates"] == 32 * layers["separator.rounds"]


def test_install_rebinds_every_alias():
    import csslab.cli  # noqa: F401
    from csslab import graphs, lp, separator, transversal
    from csslab.rng import SplitMix64
    t = tracer.Tracer()
    tracer.install(t)
    assert transversal.solve_lp is lp.solve_lp and hasattr(lp.solve_lp, "__wrapped__")
    assert separator.maximal_cliques is graphs.maximal_cliques
    assert hasattr(SplitMix64.bernoulli_mask, "__wrapped__")
    SplitMix64(3).bernoulli_mask(5, 1 << 63)
    assert t.counts["rng.draws"] == 5


def test_tail_leaves_ten_samples_beyond_it():
    samples = [float(i) for i in range(40, 0, -1)]
    value, pct = run.tail(samples)
    assert pct == 75.0 and value == 30.0
    assert sum(1 for s in samples if s > value) == 10


def test_first_pair_matches_the_verifier_order():
    from csslab.graphs import gen_gnp
    from csslab.separator import disjoint_maximal_pairs
    rnd = random.Random(5)
    for _ in range(30):
        g = gen_gnp(rnd.randint(1, 12), 0.5, rnd.randrange(1 << 30))
        pairs = disjoint_maximal_pairs(g)
        assert workloads.first_pair(g.n, list(g.adj)) == (pairs[0] if pairs else None)


def test_times_are_scaled_to_the_reference_cpu():
    slow = fake_pass(reference_s=2 * run.REFERENCE_S, certified=10, wall_s=2.0,
                     samples={kind: {"x:0": 0.4} for kind in ("build", "verify", "reject")},
                     peak_rss_mb=1.0)
    scaled, _ = run.end_to_end([slow], [0.1])
    unscaled, _ = run.end_to_end([slow], [0.1], scaled=False)
    assert scaled["build_s.p50"] == 0.2 and unscaled["build_s.p50"] == 0.4
    assert scaled["certified_per_s"] == 10.0 and unscaled["certified_per_s"] == 5.0
