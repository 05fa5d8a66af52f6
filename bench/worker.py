"""One round of one workload, in a fresh process (started by run.py).

    python3 bench/worker.py WORKLOAD SEED SIZE TRACE OUT_DIR [--setup-only]

Prints one JSON line: the set-up time (import of descmat and input
generation, up to the first timed operation), the time of each operation,
its time in calibration-kernel units, failures, peak RSS and, when TRACE is 1,
the per-layer totals.  A fresh process per round means every round starts
with empty memo tables, like a new user session.
"""

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed, size, trace, out_dir, *rest = sys.argv[1:]
    seed, trace, out_dir = int(seed), trace == "1", Path(out_dir)
    setup_only = rest == ["--setup-only"]

    # Set-up time counts the import of descmat in this fresh interpreter and
    # the generation of the inputs, but not the benchmark's own imports.
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    if workload == "cli-session":
        import descmat.cli as descmat_entry
    else:
        import descmat as descmat_entry
    import_s = perf_counter() - start

    import json
    import resource

    import workloads

    source = Path(descmat_entry.__file__).resolve()
    if not source.is_relative_to((ROOT / "src").resolve()):
        print(f"descmat was imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    start = perf_counter()
    session = None
    if workload == "matroid-enum":
        ops = workloads.matroid_enum_ops(seed, size)
    elif workload == "tau-deep":
        ops = workloads.tau_deep_ops(seed, size, golden)
    else:
        session, ops = workloads.cli_session_ops(seed, size, golden, out_dir, trace)
    setup_s = import_s + perf_counter() - start
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if trace and session is None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = workloads.run_ops(ops)
    if session is not None:
        peak_kb = session.max_rss_kb
        layers = session.layers if trace else None
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        layers = tracer.summary() if tracer else None
    if tracer is not None:
        tracer.write_spans(out_dir / "spans.tsv.gz")
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "op_names": result.op_names,
                "op_seconds": result.op_seconds,
                "op_ref": result.op_ref,
                "failures": result.failures,
                "peak_rss_kb": peak_kb,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
