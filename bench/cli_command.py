"""Run one descmat command in this fresh interpreter, as a user runs it.

    python3 bench/cli_command.py RESULT_JSON TRACE CACHE_DIR -- ARG...

The command's stdout and stderr are the CLI's own.  The time written to
RESULT_JSON runs from before ``import descmat.cli`` to the return of
``cli.main``: interpreter start is left out, the import that every call
pays is kept.  It is timed against the calibration kernel in this
interpreter (see speedometer.py).  With TRACE=1 the layer tracer is installed after the import
and its per-layer totals and spans are written next to RESULT_JSON.
"""

import os
import sys
import time

from speedometer import Speedometer


def main() -> None:
    result_path, trace, cache_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_command.py RESULT_JSON TRACE CACHE_DIR -- ARG...")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    meter = Speedometer()
    meter.sample()
    meter.start()
    start = time.perf_counter()
    import descmat.cli as cli

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cache_dir=cache_dir)
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    end = time.perf_counter()
    meter.sample()
    meter.stop()
    busy_s, ref = meter.measure(start, end, before=1)

    import json
    import resource

    result = {
        "rc": rc,
        "busy_s": busy_s,
        "ref": ref,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "descmat_file": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(result_path + ".spans.tsv.gz")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    sys.exit(rc)


if __name__ == "__main__":
    main()
