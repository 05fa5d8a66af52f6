"""The benchmark's own tests.

    python3 -m pytest -q bench/tests

They check that a wrong answer from the program makes an operation count
as failed, that every workload reports every metric BENCHMARK.json names,
and that the benchmark refuses to run outside a descmat checkout.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _only(ops, name, corrupt):
    """The op called ``name``, with its output passed through ``corrupt``."""
    (op,) = [op for op in ops if op.name == name]
    run = op.run
    if op.self_timed:
        return replace(op, run=lambda: (lambda t, out: (t, corrupt(out)))(*run()))
    return replace(op, run=lambda: corrupt(run()))


def _failed(result):
    return [(f["op"], f["known_fault"]) for f in result.failures]


def test_tau_off_by_one_fails():
    ops = workloads.tau_deep_ops(1, "tiny", workloads.load_golden())

    def off_by_one(values):
        return [values[0] + 1] + values[1:]

    result = workloads.run_ops([ops[0], _only(ops, "tau.d25", off_by_one)])
    assert _failed(result) == [("tau.d25", None)]


def test_basis_count_off_by_one_fails():
    ops = workloads.matroid_enum_ops(1, "tiny")
    build = [op for op in ops if op.name == "w10.build"]
    result = workloads.run_ops(build + [_only(ops, "w10.count", lambda n: n + 1)])
    assert _failed(result) == [("w10.count", None)]


def test_one_changed_cli_byte_fails(tmp_path):
    _, ops = workloads.cli_session_ops(1, "tiny", workloads.load_golden(), tmp_path, False)

    def change_byte(out):
        return replace(out, stdout=out.stdout[:3] + b"7" + out.stdout[4:])

    plain = [op for op in ops if op.name == "evaluate.published"]
    assert _failed(workloads.run_ops(plain)) == []
    result = workloads.run_ops([_only(ops, "evaluate.published", change_byte)])
    assert _failed(result) == [("evaluate.published", None)]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=300
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert result["correct"] is True
    # Only the two damaged-cache commands of each cli-session round fail.
    rounds = 2 if trace == "1" else 1
    per_round = result["attempted"] // rounds
    assert result["failed"] == (2 * rounds if workload == "cli-session" else 0)
    assert per_round * rounds == result["attempted"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "matroid-enum", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
