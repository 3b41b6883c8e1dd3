"""The benchmark's tracer (bench/tracer.py) wraps library functions by name
and requires each to be called on given workloads.  One traced pass per
workload checks that every name it requires is still called, so a change
that stops calling one fails here and not only under
``bench/run.py --trace 1``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload,limit", [(workloads.GNP, 3), (workloads.POSET, 3),
                                            (workloads.EQUIV, None)])
def test_traced_pass_calls_every_pinned_name(workload, limit, tmp_path):
    spec = {"workload": workload, "seed": workloads.DEFAULT_SEED, "trace": True,
            "workdir": str(tmp_path), "src": str(run.ROOT / "src"), "limit": limit}
    result = run.run_worker(spec, run.child_env(), 170)
    assert result["unhooked"] == []
    assert result["failures"] == []
