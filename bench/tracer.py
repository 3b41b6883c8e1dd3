"""Outside-in layer tracing for the benchmark.

The program has no spans of its own yet, so this module wraps public
functions of each csslab module from outside.  A span is one call of a
wrapped function; its self time is its duration minus the durations of the
wrapped calls nested inside it.  The benchmark opens one root span per CLI
invocation, metric ``cli.self_s``, so the self times of one invocation add up
to its wall time by construction.  What can go wrong is a span that runs
outside any invocation, or a root span that does not cover the invocation;
``outside`` counts the first, and the worker compares a pass's summed self
times with its own per-invocation timings for the second.  Counters are read
from arguments and results at the same boundaries.

Each row of ``SPANS`` names the function, the self-time metric it feeds, and
the workloads on which it must be called at least once, so that a rename
that unhooks a span fails the run instead of reporting 0 s.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

from workloads import EQUIV, GNP, POSET


def _draws(t, args, kwargs, result):
    # bernoulli_mask(self, n, threshold) consumes exactly n draws
    t.counts["rng.draws"] += args[1]


def _maximal_sets(t, args, kwargs, result):
    t.counts["graphs.maximal_sets"] += len(result)


def _pairs(t, args, kwargs, result):
    t.counts["separator.pairs"] += len(result)


def _built(t, args, kwargs, result):
    t.counts["separator.build_calls"] += 1
    t.counts["separator.cuts_kept"] += len(result)
    t.counts["separator.rounds"] += kwargs["stats_out"]["rounds"]


def _give_stats_out(kwargs):
    """build_random_separator reports its round count into ``stats_out``;
    give it a dict when the caller did not."""
    if kwargs.get("stats_out") is None:
        kwargs["stats_out"] = {}


_built.prepare = _give_stats_out


def _checked(t, args, kwargs, result):
    t.counts["separator.pairs_checked"] += result.pairs_checked


def _solutions(t, args, kwargs, result):
    t.counts["csp.solutions"] += len(result)


def _bytes_in(t, args, kwargs, result):
    t.counts["formats.bytes_in"] += len(args[0].encode())


def _bytes_out(t, args, kwargs, result):
    t.counts["formats.bytes_out"] += len(result.encode())


def _calls(name):
    def count(t, args, kwargs, result):
        t.counts[name] += 1
    return count


@functools.cache
def _lp_signature():
    return inspect.signature(sys.modules["csslab.lp"].solve_lp)


def _lp_instance(t, args, kwargs, result):
    """Count the call and its canonical instance: rows sorted, so instances
    that differ only in row order count once."""
    bound = _lp_signature().bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    rows_ub = tuple(sorted(zip(map(tuple, a["a_ub"]), a["b_ub"])))
    rows_eq = tuple(sorted(zip(map(tuple, a["a_eq"]), a["b_eq"])))
    t.counts["lp.calls"] += 1
    t.lp_instances.add((tuple(a["c"]), rows_ub, rows_eq, bool(a["maximize"])))


# (module, attribute, self-time metric, counter, workloads that must call it)
SPANS = [
    ("csslab.rng", "SplitMix64.bernoulli_mask", "rng.self_s", _draws, (GNP, EQUIV)),
    ("csslab.graphs", "gen_gnp", "graphs.gen_s", None, (GNP, EQUIV)),
    ("csslab.graphs", "comparability_from_random_poset", "graphs.gen_s", None, (POSET,)),
    ("csslab.graphs", "maximal_cliques", "graphs.enum_s", _maximal_sets, (GNP, POSET, EQUIV)),
    ("csslab.graphs", "maximal_stables", "graphs.enum_s", None, (GNP, POSET, EQUIV)),
    ("csslab.graphs", "contains_induced", "graphs.induced_search_s",
     _calls("graphs.induced_search_calls"), (POSET,)),
    ("csslab.separator", "disjoint_maximal_pairs", "separator.pairs_s", _pairs,
     (GNP, POSET, EQUIV)),
    ("csslab.separator", "build_random_separator", "separator.greedy_s", _built, (GNP, EQUIV)),
    ("csslab.separator", "verify_cs_separator", "separator.verify_s", _checked,
     (GNP, POSET, EQUIV)),
    ("csslab.transversal", "conflict_digraph", "transversal.weights_s", None, (POSET,)),
    ("csslab.transversal", "side_weights", "transversal.weights_s", None, (POSET,)),
    ("csslab.transversal", "build_hypergraph", "transversal.hitting_s", None, (POSET,)),
    ("csslab.transversal", "fractional_transversality", "transversal.hitting_s", None, (POSET,)),
    ("csslab.transversal", "greedy_transversal", "transversal.hitting_s", None, (POSET,)),
    # called only when the greedy transversal exceeds its budget
    ("csslab.transversal", "exact_min_transversal", "transversal.hitting_s", None, ()),
    ("csslab.transversal", "vc_dimension", "transversal.vc_s", None, (POSET,)),
    ("csslab.transversal", "separate_pair_split_free", "transversal.pipeline_s",
     _calls("transversal.pair_pipelines"), (POSET,)),
    ("csslab.transversal", "split_free_report", "transversal.pipeline_s", None, (POSET,)),
    ("csslab.lp", "solve_lp", "lp.self_s", _lp_instance, (POSET,)),
    ("csslab.lp", "lp_feasible", "lp.self_s", None, (POSET,)),
] + [
    ("csslab.packing", name, "packing.self_s", _calls("packing.calls"), needs)
    for name, needs in [
        ("build_fooling_set", (EQUIV,)), ("verify_fooling_set", (EQUIV,)),
        ("fooling_to_packing", (EQUIV,)), ("packing_to_fooling", (EQUIV,)),
        ("pairs_packing", (EQUIV,)), ("pair_coloring_to_separator", (EQUIV,)),
        ("verify_packing", (EQUIV,)),
    ]
] + [
    ("csslab.csp", "all_3ccp_solutions", "csp.oracle_s", _solutions, (EQUIV,)),
    ("csslab.csp", "all_maximal_stubborn_solutions", "csp.oracle_s", _solutions, (EQUIV,)),
    ("csslab.csp", "covering_covers", "csp.oracle_s", None, (EQUIV,)),
    ("csslab.csp", "stubborn_assignment_compatible", "csp.oracle_s", None, (EQUIV,)),
] + [
    ("csslab.csp", name, "csp.transform_s", None, (EQUIV,))
    for name in ["build_quasipoly_covering", "square_cut_family",
                 "separator_to_stubborn_covering", "full_3ccp_covering_via_stubborn",
                 "ccp_covering_to_separator", "ccp_of_graph"]
] + [
    ("csslab.formats", name, "formats.parse_s", _bytes_in, needs)
    for name, needs in [
        ("parse_graph", (GNP, POSET, EQUIV)), ("parse_cut_family", (GNP, POSET, EQUIV)),
        ("parse_ccp", (EQUIV,)), ("parse_ccp_covering", (EQUIV,)),
        ("parse_stubborn", (EQUIV,)), ("parse_fooling", (EQUIV,)),
    ]
] + [
    ("csslab.formats", name, "formats.emit_s", _bytes_out, needs)
    for name, needs in [
        ("emit_graph", (GNP, POSET, EQUIV)), ("emit_cut_family", (GNP, POSET, EQUIV)),
        ("emit_ccp_covering", (EQUIV,)), ("emit_fooling", (EQUIV,)),
        ("emit_packing", (EQUIV,)),
    ]
]

CLI_METRIC = "cli.self_s"


class Tracer:
    """Span recorder.  ``stack`` holds, per open span, the summed duration of
    the wrapped calls already finished inside it."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.lp_instances: set = set()
        self.outside = 0  # wrapped calls made while no invocation was open

    def _enter(self):
        frame = [0.0]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _leave(self, metric, frame, t0):
        dt = time.perf_counter() - t0
        self.stack.pop()
        self.self_s[metric] += dt - frame[0]
        if self.stack:
            self.stack[-1][0] += dt
        return dt

    def wrap(self, name, metric, fn, counter):
        prepare = getattr(counter, "prepare", None)

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if not self.stack:
                self.outside += 1
            if prepare is not None:
                prepare(kwargs)
            frame, t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(metric, frame, t0)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def invoke(self, call):
        """Run one CLI invocation as the root span."""
        if self.stack:
            raise RuntimeError("root span opened inside another span")
        self.counts["cli.invocations"] += 1
        frame, t0 = self._enter()
        try:
            return call()
        finally:
            self._leave(CLI_METRIC, frame, t0)

    def missing(self, workload):
        """Wrapped names the workload must call but did not."""
        return [f"{mod}.{attr}" for mod, attr, _, _, needs in SPANS
                if workload in needs and not self.calls[f"{mod}.{attr}"]]

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        c = self.counts
        rounds = c["separator.rounds"]
        out = {metric: self.self_s.get(metric, 0.0)
               for metric in sorted({row[2] for row in SPANS} | {CLI_METRIC})}
        for name in ("rng.draws", "graphs.maximal_sets", "graphs.induced_search_calls",
                     "separator.pairs", "separator.rounds", "separator.build_calls",
                     "separator.pairs_checked", "transversal.pair_pipelines", "lp.calls",
                     "packing.calls", "csp.solutions", "formats.bytes_in",
                     "formats.bytes_out", "cli.invocations"):
            out[name] = c[name]
        out["separator.candidates"] = 32 * rounds  # 32 candidate cuts per greedy round
        out["separator.useful_round_ratio"] = c["separator.cuts_kept"] / rounds if rounds else 0.0
        out["lp.distinct_ratio"] = (len(self.lp_instances) / c["lp.calls"]
                                    if c["lp.calls"] else 0.0)
        return out


def install(tracer: Tracer) -> None:
    """Replace every function in ``SPANS`` by its traced wrapper, at every
    attribute of a loaded csslab module that binds it."""
    modules = [m for name, m in sys.modules.items()
               if name == "csslab" or name.startswith("csslab.")]
    originals = set()
    for modname, attr, metric, counter, _ in SPANS:
        owner = sys.modules[modname]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        originals.add(id(original))
        traced = tracer.wrap(f"{modname}.{attr}", metric, original, counter)
        setattr(owner, name, traced)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    for module in modules:
        for key, value in vars(module).items():
            if id(value) in originals:
                raise RuntimeError(f"{module.__name__}.{key} still binds an untraced function")
