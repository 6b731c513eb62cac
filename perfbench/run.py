"""Benchmark for rspcert: seeded workloads run through the real CLI in-process.

Run from the repository root:

    python3 perfbench/run.py --workload orderk_enum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` replays a fixed prefix of the workload with the layers wrapped
from outside (see layers.py) and reports the per-layer metrics.  ``all`` runs
every workload, each in its own interpreter, and prints a summary.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is loaded from ``src/`` next to this directory and sees only the
input files a workload writes; BLAS runs single-threaded.  Exit status is 0
when every output checks, 1 when a check failed (the result line is still
printed), and 2 when the benchmark could not run at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def workload_names() -> tuple[str, ...]:
    """The workloads BENCHMARK.json declares.

    Read from the JSON file, not from workloads.py, because importing that
    module loads numpy, which must wait until BLAS is pinned.
    """
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return tuple(w["name"] for w in json.load(handle)["workloads"])


def run_all(names: tuple[str, ...], seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own interpreter and print one summary."""
    results, status = {}, 0
    for name in names:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=4 * seconds + 60)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"{name}: benchmark exited {proc.returncode}")
            status = 2
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        status = max(status, proc.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    names = workload_names()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rspcert" / "cli.py").is_file():
        print(f"error: no rspcert sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, args.trace)
    # Pin BLAS before numpy loads; setup probes inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    try:
        return harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
