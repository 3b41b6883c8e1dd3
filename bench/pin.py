"""Rewrite pinned.json: artifact digests and reject witnesses of one pass of
every workload at the default seed.

    python3 bench/pin.py

Run it only on the commit whose outputs are the reference; the benchmark
then fails any later commit whose outputs differ at the default seed.
"""

import contextlib
import json
import shutil

import workloads
from run import BENCH, ROOT, child_env, run_worker


def main() -> None:
    pinned = {}
    work = ROOT / ".bench_work" / "pin"
    for workload in workloads.WORKLOADS:
        spec = {"workload": workload, "seed": workloads.DEFAULT_SEED, "trace": False,
                "workdir": str(work), "src": str(ROOT / "src")}
        result = run_worker(spec, child_env(), 600)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
        if result["failures"]:
            raise SystemExit("\n".join(result["failures"]))
        pinned[workload] = {"digests": result["digests"], "witnesses": result["witnesses"]}
    (BENCH / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
