"""Benchmark of the csslab CLI: gen -> build -> verify on three workloads.

    python3 bench/run.py --workload gnp-random --seed 1 --seconds 36 --trace 0

It benchmarks the checkout it lies in, which must hold ``src/csslab``.  It
runs passes of the workload, each in a fresh interpreter (``worker.py``), one
CLI invocation at a time, pinned to one CPU, and before each pass times
``import csslab.cli`` in fresh interpreters pinned to the same CPU
(``setup_s``).  Every pass repeats the same block of inputs, the passes
take turns on the CPUs, they continue while the next one should end within
``--seconds``, and there are at least two.  A pass's
times are scaled to a reference CPU by a fixed loop timed before each chain,
and an invocation's time is its fastest pass; both filter out the slow
phases of a shared machine.  Medians and tails are taken over invocations.
Every invocation's exit code, artifact and witness is checked.  With ``--trace 1``
untraced and traced passes alternate: the traced ones give the per-layer
metrics, the difference between the two gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

DEADLINE_S = 170          # every run must end within 180 s
SETUP_SPAWNS = 3          # fresh imports before each pass; setup_s is the
                          # median over passes of the fastest of them
GAP_PER_INVOCATION_S = 1e-3  # timing code allowed around each traced root span
REFERENCE_S = 0.7e-3      # the reference loop's time on the CPU times are scaled to
MIN_SAMPLES = 40          # build and verify invocations per pass, so .tail is above p50
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = sorted(os.sched_getaffinity(0))

UNITS = {"setup_s": "s", "build_s.p50": "s", "build_s.tail": "s", "verify_s.p50": "s",
         "verify_s.tail": "s", "reject_s.p50": "s", "certified_per_s": "1/s",
         "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    name = name.removeprefix("trace_overhead.")
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "bytes" if "bytes_" in name else "count"


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    q = 1 - 10 / len(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)], 100 * q


def child_env() -> dict[str, str]:
    """A pass runs on one CPU, so BLAS gets one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def import_times(env, cpu: int, spawns: int) -> list[float]:
    """Import time of csslab.cli in fresh interpreters pinned to ``cpu``."""
    code = ("import os, sys, time; os.sched_setaffinity(0, {int(sys.argv[1])}); "
            "t = time.perf_counter(); import csslab.cli; print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code, str(cpu)], env=env, cwd=ROOT,
                                 capture_output=True, text=True, timeout=60,
                                 check=True).stdout)
            for _ in range(spawns)]


def run_worker(spec: dict, env, timeout: float) -> dict:
    """One pass in a fresh interpreter; its result is the last output line."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{spec['workload']} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(args, env, work, deadline) -> tuple[list[dict], list[float]]:
    """Closed loop over passes, untraced and traced in turn when tracing.
    A pass starts only if it should end within --seconds, except that a run
    makes at least two, the last one traced when tracing.  Also returns the
    fastest import time measured before each pass."""
    passes: list[dict] = []
    setup: list[float] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        # the machine's CPUs slow down independently, so passes take turns
        # on each; a traced pass runs on the CPU of the untraced one before
        cpu = CPUS[len(passes) // (1 + args.trace) % len(CPUS)]
        spec = {"workload": args.workload, "seed": args.seed, "trace": traced,
                "cpu": cpu, "workdir": str(work / f"p{len(passes)}"),
                "src": str(ROOT / "src")}
        t0 = time.perf_counter()
        setup.append(min(import_times(env, cpu, SETUP_SPAWNS)))
        result = run_worker(spec, env, max(1.0, deadline - time.perf_counter()))
        result["traced"] = traced
        passes.append(result)
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        done = len(passes) >= 2 and not (args.trace and len(passes) % 2)
        if done and elapsed + longest > args.seconds:
            return passes, setup


def slowness(p: dict, scaled: bool) -> float:
    """How many times slower than the reference CPU the pass ran (1 unscaled)."""
    return p["reference_s"] / REFERENCE_S if scaled else 1.0


def end_to_end(passes: list[dict], setup: list[float],
               scaled: bool = True) -> tuple[dict, list[str]]:
    metrics = {"setup_s": statistics.median(setup)}
    notes = [f"setup_s: median over {len(setup)} passes of the fastest of "
             f"{SETUP_SPAWNS} fresh imports"]
    for kind in ("build", "verify", "reject"):
        fastest = {}
        for p in passes:
            for key, t in p["samples"][kind].items():
                t /= slowness(p, scaled)
                fastest[key] = min(t, fastest.get(key, t))
        values = list(fastest.values())
        metrics[f"{kind}_s.p50"] = statistics.median(values)
        notes.append(f"{kind}_s: {len(values)} invocations, fastest of {len(passes)} passes")
        if kind != "reject":
            value, pct = tail(values)
            metrics[f"{kind}_s.tail"] = value
            notes.append(f"{kind}_s.tail is p{pct:.1f} with "
                         f"{sum(1 for t in values if t > value)} invocations beyond it")
    metrics["certified_per_s"] = max(p["certified"] * slowness(p, scaled) / p["wall_s"]
                                     for p in passes)
    metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
    return {k: metrics[k] for k in UNITS}, notes


def check(args, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed invocations, and every problem found."""
    attempted = sum(p["attempted"] for p in passes)
    problems = [f for p in passes for f in p["failures"]]
    failed = len(problems)
    pinned = None
    if args.seed == workloads.DEFAULT_SEED:
        pinned = json.loads((BENCH / "pinned.json").read_text())[args.workload]
    for i, p in enumerate(passes):
        for kind in ("build", "verify"):
            if len(p["samples"][kind]) < MIN_SAMPLES:
                problems.append(f"pass {i}: only {len(p['samples'][kind])} {kind} samples")
        problems += [f"pass {i}: {what}" for what in p["interpreter"]]
        for field in ("digests", "witnesses"):
            want = pinned[field] if pinned else passes[0][field]
            bad = sorted(k for k in want.keys() | p[field].keys()
                         if want.get(k) != p[field].get(k))
            if bad:
                failed += len(bad)
                source = "pinned" if pinned else "pass 0"
                problems.append(f"pass {i}: {field} differ from {source} at {', '.join(bad)}")
        if p["traced"]:
            if p["unhooked"]:
                problems.append(f"pass {i}: never called: {', '.join(p['unhooked'])}")
            if p["outside_spans"]:
                problems.append(f"pass {i}: {p['outside_spans']} wrapped calls ran "
                                "outside any invocation")
            gap, limit = p["accounting_gap_s"], GAP_PER_INVOCATION_S * p["attempted"]
            if not -1e-6 <= gap <= limit:
                problems.append(f"pass {i}: layer self times miss the invocations' wall "
                                f"time by {gap:.3g} s, allowed 0 to {limit:.3g} s")
    traced = [p for p in passes if p["traced"]]
    counts = [{k: v for k, v in p["layers"].items() if not k.endswith("_s")} for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    return attempted, failed, problems


def per_layer(passes: list[dict], setup: list[float]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    with_trace, _ = end_to_end(traced, setup)
    without, _ = end_to_end(plain, setup)
    for name in UNITS:
        if name != "setup_s":
            metrics[f"trace_overhead.{name}"] = with_trace[name] - without[name]
    return metrics


def environment(args, passes) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env = child_env()
    return {"git_commit": commit, "src_sha256": src.hexdigest(), "workload": args.workload,
            "seed": args.seed, "python": platform.python_version(), "numpy": passes[0]["numpy"],
            "nproc": len(CPUS), "pass_cpus": CPUS, "cpu": cpu,
            "blas_threads": {var: env[var] for var in BLAS_VARS},
            "note": "shared machine; the benchmark changes no cgroup and no CPU "
                    "frequency setting"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "csslab" / "cli.py").is_file():
        print(f"no csslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    work = ROOT / ".bench_work" / f"run{os.getpid()}"
    try:
        import_times(env, CPUS[0], 1)  # compiles bytecode, which users pay once
        passes, setup = run_passes(args, env, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted, failed, problems = check(args, passes)
    plain = [p for p in passes if not p["traced"]]
    metrics, notes = end_to_end(plain, setup)
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    print(f"metric ops_failed {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for note in notes:
        print(f"note {note}")
    unscaled, _ = end_to_end(plain, setup, scaled=False)
    print("note unscaled wall times: " + ", ".join(
        f"{name} {value:.6g}" for name, value in unscaled.items() if name.endswith("_s.p50")))
    print("note reference loop of each pass: " + ", ".join(
        f"{p['reference_s'] * 1e3:.3f} ms" for p in plain))
    if args.trace:
        metrics = per_layer(passes, setup)
        for name, value in metrics.items():
            print(f"layer {name} {value:.6g} {unit_of(name)}")
    for problem in problems:
        print(f"problem {problem}")
    print("env " + json.dumps(environment(args, passes)))
    print("artifacts " + json.dumps(dict(sorted(plain[0]["digests"].items()))))
    print("witnesses " + json.dumps(plain[0]["witnesses"]))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
