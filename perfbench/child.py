"""One workload pass in a fresh interpreter.

Imports juntalab and parses the spec (set-up), then runs the grid once the
way users do, ``juntalab.cli.main(["run", SPEC, "--threads", N, "--out",
RECORDS])``, and writes a JSON result: the monotonic time set-up finished,
the grid wall time, the hypervisor steal counter at both ends, the exit code,
peak RSS and, with ``--trace``, the span summary. Only the standard library
is imported before set-up is timed.

    python3 perfbench/child.py SPEC RECORDS RESULT --threads N [--trace]
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def stolen_seconds() -> float:
    """CPU time the hypervisor has taken from this machine, summed over its CPUs.

    On a shared virtual machine this is time the program was ready to run
    but no CPU ran it; it reads 0 where the kernel does not count it.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except FileNotFoundError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("records")
    parser.add_argument("result")
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import juntalab.cli as cli

    cli.ExperimentSpec.from_dict(json.loads(Path(args.spec).read_text()))
    ready = time.monotonic()
    steal_ready = stolen_seconds()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    steal_start = stolen_seconds()
    start = time.perf_counter()
    code = cli.main(["run", args.spec, "--threads", str(args.threads), "--out", args.records])
    wall = time.perf_counter() - start
    steal_end = stolen_seconds()

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 only prints its configuration
        blas = {"name": "unknown", "version": ""}
    result = {
        "ready": ready,
        "steal_ready": steal_ready,
        "wall_s": wall,
        "steal_s": steal_end - steal_start,
        "exit": code,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
