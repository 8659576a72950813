"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC holds the configs to validate, the gcsf CLI argument lists to run
in order, where to write the result, and (for a traced pass) where to put
the span files.  The worker prints ``ready`` once gcsf is imported and
every config validated, which is where set-up ends; then it runs each
call through ``gcsf.cli.main`` and writes per-call exit codes and wall
times, the wall time of the whole pass, and its peak resident set.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    import gcsf.cli as cli

    for config in spec["validate"]:
        cli.config_from_dict(config)
    print("ready", flush=True)

    # The CLI's own reports are not needed; keep them out of the pipe.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)

    tracing = contextlib.nullcontext()
    if spec["trace_dir"] is not None:
        from tracer import Tracer

        tracing = Tracer(spec["trace_dir"])

    codes = []
    walls = []
    with tracing:
        started = time.perf_counter()
        for argv in spec["calls"]:
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            walls.append(time.perf_counter() - t0)
            codes.append(code)
        wall = time.perf_counter() - started
    sys.stdout.flush()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "codes": codes,
        "call_wall_s": walls,
        "wall_s": wall,
        # Linux reports ru_maxrss in KiB.  Pool workers run side by side, so
        # each is charged at the largest one's peak.
        "peak_rss_mb": (own + spec["pool_workers"] * largest_child) / 1024.0,
    }
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
