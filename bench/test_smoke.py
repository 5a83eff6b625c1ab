"""Smoke test of the benchmark itself: tiny cells, every workload, both modes.

    python3 -m pytest bench/test_smoke.py

Checks that each run prints every metric named in BENCHMARK.json with its
unit and that no CLI call failed the benchmark's output checks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-2])["failed_frac"] == 0
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_named_and_no_failures(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:  # every workload verifies through the CLI's own binding
        assert result["metrics"]["verifier.calls"]["value"] >= 1


def test_tracer_restores_every_patch():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import kwise
    from kwise import cli, construction, familyio, search, setcore, verifier
    from tracer import Tracer

    modules = (kwise, cli, construction, familyio, search, setcore, verifier,
               setcore.CoverSearcher, setcore.CoverTable)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install()
    assert cli.main is not before[1]["main"]
    assert verifier.build_cover_table is not before[6]["build_cover_table"]
    assert setcore.CoverSearcher.find is not before[7]["find"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
