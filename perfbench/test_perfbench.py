"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The counter test runs each workload's traced pass in two separate processes
on the default seed, so it takes about a minute and a half.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return _result(proc.stdout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_across_processes(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["correct"] and second["correct"]
    exact = [name for name, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert len(exact) == len(tracer.LAYERS) + len(tracer.COUNTER_NAMES)
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}


def test_digest_mismatch_fails(tmp_path, monkeypatch, capsys):
    table = json.loads(run.DIGESTS.read_text())
    table["sites"][3] = "0" * 64
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(table))
    monkeypatch.setattr(run, "DIGESTS", tampered)
    assert run.main(["--workload", "sites", "--seconds", "0"]) == 1
    out = _result(capsys.readouterr().out)
    assert out["correct"] is False
    assert out["failed"] == 1


def test_recorded_digests_pass(capsys):
    assert run.main(["--workload", "sites", "--seconds", "0"]) == 0
    out = _result(capsys.readouterr().out)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 540


def test_zero_checks_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "generate", lambda *a: [])
    assert run.main(["--workload", "sites", "--seed", "5", "--seconds", "0"]) == 1
    assert capsys.readouterr().out == ""


def test_missing_target_is_reported(monkeypatch):
    run.load_library()
    monkeypatch.setitem(tracer.TARGETS, "snf", tracer.TARGETS["snf"] + ("no_such_kernel",))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["snf.no_such_kernel"]


def test_wrappers_reach_every_namespace():
    lib = run.load_library()
    snf = sys.modules["fibsite.snf"]
    original = snf.sparse_invariant_factors
    t = tracer.Tracer()
    t.install()
    try:
        # cohom and sset bound their own copies with `from .snf import ...`
        assert lib.cohom.sparse_invariant_factors is snf.sparse_invariant_factors
        assert lib.sset.sparse_invariant_factors is not original
        lib.sset.homology(lib.sset.standard_simplex(2, 3), 1)
    finally:
        t.uninstall()
    assert lib.sset.sparse_invariant_factors is original
    assert t.counters["snf.sparse.calls"] == 2
    assert t.calls["sset"] >= 1 and t.calls["snf"] >= 2


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
