"""descmat benchmark: three workloads, checked outputs, calibrated time.

Run from the repository root:

    python3 bench/run.py --workload matroid-enum --seed 1 --seconds 36 --trace 0

Without ``--workload`` the three workloads run one after another, each in
its own process.  A run repeats whole rounds of its workload, each round
in a fresh worker process, and starts another round only while it is
expected to end within ``--seconds``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
rounds alternate untraced and traced, and the metrics are the per-layer
ones.  See bench/README.md for the workloads, metrics and seeds.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("matroid-enum", "tau-deep", "cli-session")
SETUP_PROBES = 3  # set-up-only workers before each round and after the last
WORKER_TIMEOUT_S = 170
REQUIRED = ("src/descmat/__init__.py", "src/descmat/cli.py", "tests/golden_delta_tables.py")


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, size, trace, out_dir, setup_only=False) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), size]
    argv += ["1" if trace else "0", str(out_dir)] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = perf_counter() - start
    return result


def measure(workload, seed, seconds, trace, size) -> tuple[dict, dict]:
    out_dir = OUT_DIR / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setups: list[float] = []

    def probe():
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(workload, seed, size, False, out_dir, setup_only=True)["setup_s"])

    rounds = []
    start = perf_counter()
    step = 2 if trace else 1
    while True:
        probe()
        batch = []
        for i in range(step):
            round_dir = out_dir / f"r{len(rounds) + i}"
            round_dir.mkdir()
            batch.append(run_worker(workload, seed, size, trace and i == 1, round_dir))
            batch[-1]["traced"] = trace and i == 1
        rounds += batch
        elapsed = perf_counter() - start
        if elapsed + sum(r["wall_s"] for r in batch) > seconds:
            break
    probe()
    setups += [r["setup_s"] for r in rounds]
    return summarize(workload, seed, rounds, setups, trace)


def summarize(workload, seed, rounds, setups, trace) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    timed = [sum(r["op_seconds"]) for r in plain]
    timed_ref = [sum(r["op_ref"]) for r in plain]
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(len(r["op_names"]) for r in rounds)
    unexpected = [f for f in failures if f["known_fault"] is None]
    if trace:
        from tracer import merge, per_layer_metrics

        layers = {}
        for r in traced:
            merge(layers, r["layers"])
        layers = {key: value / len(traced) for key, value in layers.items()}
        # Traced minus untraced time, both in kernel units, converted to
        # seconds at the traced rounds' speed.
        traced_ref = statistics.mean(sum(r["op_ref"]) for r in traced)
        traced_s = statistics.mean(sum(r["op_seconds"]) for r in traced)
        overhead = (traced_ref - statistics.mean(timed_ref)) * traced_s / traced_ref
        metrics = per_layer_metrics(layers, overhead)
    else:
        metrics = {
            "wall_ref": {"value": statistics.mean(timed_ref), "unit": "ref"},
            "peak_rss_mb": {"value": max(r["peak_rss_kb"] for r in plain) / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    op_seconds: dict[str, list[float]] = {}
    for r in plain:
        for name, s in zip(r["op_names"], r["op_seconds"]):
            op_seconds.setdefault(name, []).append(s)
    detail = {
        "workload": workload,
        "seed": seed,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "timed_s_per_round": timed,
        "wall_ref_per_round": timed_ref,
        "setup_s_samples": setups,
        "failures": failures,
        "op_seconds_median": {k: statistics.median(v) for k, v in op_seconds.items()},
    }
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None, help="default: all three")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the benchmark's own tests")
    args = parser.parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"not a descmat checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload is None:
        code = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
            code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
        return code
    try:
        detail, result = measure(args.workload, args.seed, args.seconds, args.trace == 1, args.size)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for failure in detail["failures"]:
        kind = f"known fault {failure['known_fault']}" if failure["known_fault"] else "UNEXPECTED"
        print(f"# failed {failure['op']} ({kind}): {failure['error']}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
