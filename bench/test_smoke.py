"""Smoke test of the benchmark at tiny sizes.

Run with ``python -m pytest bench/test_smoke.py`` from the repository
root (it takes about half a minute).  It checks that every workload emits
every metric named in ``BENCHMARK.json`` with its unit, that the gates
are evaluated, that the traced run writes spans with parent links, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 4242


def run_all(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seed", str(SEED), "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def saved(workload: str, trace: int) -> dict:
    path = HERE / "out" / f"{workload}-seed{SEED}-trace{trace}-smoke.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_emits_every_metric_with_its_unit(trace, section):
    result = run_all(trace)
    assert result["attempted"] > 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC[section]}
    assert set(result["metrics"]) == expected
    for w in WORKLOADS:
        for m in SPEC[section]:
            got = result["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"], (w, m["name"])
            assert isinstance(got["value"], (int, float)), (w, m["name"])
        out = saved(w, trace)
        # Gates ran: every repetition reports its named checks.
        assert out["result"]["attempted"] > 0, w
        assert out["record"]["checks_per_rep"], w
        assert len(out["record"]["digest_sha256"]) == 64, w
        if trace:
            spans = out["spans"]
            assert spans, w
            by_id = {s["id"]: s for s in spans}
            roots = [s for s in spans if s["parent"] is None]
            assert [r["name"] for r in roots] == ["worker"], w
            assert {s["run"] for s in spans} == {roots[0]["run"]}, w
            for s in spans:
                assert s["start"] <= s["end"], s
                if s["parent"] is not None:
                    parent = by_id[s["parent"]]
                    assert parent["start"] <= s["start"] <= s["end"] <= parent["end"], s
            names = {s["name"] for s in spans}
            assert {"setup", "rep"} <= names and len(names) > 3, (w, names)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
