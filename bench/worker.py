"""One pass of one workload, in a fresh interpreter.

Usage (run.py starts it; the argument is a JSON object):

    python3 bench/worker.py '{"workload": "gnp-random", "seed": 1, "trace": false,
                              "workdir": ".bench_work/p0", "src": "src"}'

Optional keys: ``cpu`` pins the pass to that CPU, ``limit`` runs only the
first chains of the block.  The pass
drives ``csslab.cli.main(argv)`` in-process, one invocation at a time, and
prints one JSON object: the wall time of each invocation by kind, keyed by
chain label and step, failures, artifact digests, reject witnesses, the
pass's wall time and peak memory, the median time of the reference loop run
before each chain, and with tracing on the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads


class StepFailed(Exception):
    pass


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop; run.py scales the pass's
    timings by it to take out the speed of the CPU (see README.md)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(10_000):
        x += i * i
    return time.perf_counter() - t0


def _report_metrics(report: str) -> dict[str, str]:
    out = {}
    for line in report.splitlines():
        if line.startswith("metric "):
            _, key, *value = line.split(" ")
            out[key] = " ".join(value)
    return out


def run_pass(spec: dict) -> dict:
    if "cpu" in spec:
        os.sched_setaffinity(0, {spec["cpu"]})
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import csslab.cli as cli
    if Path(cli.__file__).resolve().parent != src / "csslab":
        raise SystemExit(f"csslab imported from {cli.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    work = Path(spec["workdir"])
    work.mkdir(parents=True, exist_ok=True)
    samples = {"gen": {}, "build": {}, "verify": {}, "reject": {}}
    result = {"attempted": 0, "failures": [], "digests": {}, "witnesses": {},
              "certified": 0}

    def step_for(label):
        index = itertools.count()

        def step(kind, argv, *, out=None, rc=0, witness=None, metrics=None):
            argv = [str(a) for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            call = lambda: cli.main(argv)  # noqa: E731
            problem = None
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = tracer.invoke(call) if tracer else call()
                except Exception:  # a traceback is a failed invocation
                    code, problem = None, traceback.format_exc(limit=3)
            samples[kind][f"{label}:{next(index)}"] = time.perf_counter() - t0
            result["attempted"] += 1
            report = stdout.getvalue()
            got = _report_metrics(report)
            if problem is None and code != rc:
                problem = f"exit code {code}, expected {rc}: {stderr.getvalue().strip()}"
            for key, want in (metrics or {}).items():
                if problem is None and got.get(key) != str(want):
                    problem = f"metric {key} is {got.get(key)}, expected {want}"
            if problem is None and out is not None:
                digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
                result["digests"][Path(out).name] = digest
            if problem is None and kind == "reject":
                seen = f"{got.get('witness_clique')} | {got.get('witness_stable')}"
                result["witnesses"][label] = seen
                if witness is not None and seen != witness:
                    problem = f"witness {seen}, expected {witness}"
            if problem is not None:
                result["failures"].append(f"{label}: {' '.join(argv)}: {problem}")
                raise StepFailed
            return report
        return step

    chains = workloads.block(spec["workload"], spec["seed"])[:spec.get("limit")]
    reference = []
    t0 = time.perf_counter()
    for label, chain in chains:
        reference.append(reference_loop())
        try:
            chain(step_for(label), lambda suffix, label=label: str(work / f"{label}.{suffix}"))
        except StepFailed:
            continue
        result["certified"] += 1
    result["wall_s"] = time.perf_counter() - t0 - sum(reference)
    result["reference_s"] = statistics.median(reference)
    # the program must not slow the reference loop along with itself
    result["interpreter"] = [what for what, changed in (
        ("a trace hook is set", sys.gettrace() is not None),
        ("a profile hook is set", sys.getprofile() is not None),
        ("threads were started", threading.active_count() > 1)) if changed]
    result["samples"] = samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["unhooked"] = tracer.missing(spec["workload"])
        result["outside_spans"] = tracer.outside
        # the pass's own timings of its invocations minus all self times
        # recorded: the cost of the timing code around each root span
        result["accounting_gap_s"] = (sum(t for kind in samples.values() for t in kind.values())
                                      - sum(tracer.self_s.values()))
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_pass(spec)))


if __name__ == "__main__":
    main()
