"""Runs one workload through ``rspcert.cli.main`` and computes its metrics.

Imported by run.py after it has pinned BLAS to one thread and put ``src/``
first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import rspcert.cli as cli
from checks import FAILURE_EXITS, Outcome, check, digest, parse_report, supports
from layers import Tracer, layer_metrics
from workloads import WORKLOADS, Command, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_ROUNDS = 12   # probe/reference spawn pairs per run, spread evenly through it
MAX_SECONDS = 3     # a run stops short of a whole pass after this many --seconds
P90_TAIL = 10       # samples that must lie above the p90 before it is reported
# The spawn time of SETUP_REFERENCE on the host the benchmark was defined on
# (2-vCPU shared Xeon, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31).
SETUP_REF_S = 0.115

# Child interpreter for setup_s: the parent times the spawn up to the line
# printed after the import; the child splits that into numpy and rspcert.
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import rspcert.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, rspcert.cli.__file__, flush=True)\n"
)
# The reference child imports numpy and the standard modules rspcert uses,
# but not rspcert: what a spawn costs on this host at this moment.
SETUP_REFERENCE = ("import argparse, dataclasses, enum, itertools, json, math, typing\n"
                   "import numpy\n"
                   "print(0, flush=True)\n")


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def _time_spawn(code: str) -> tuple[float, str]:
    """Seconds from spawning ``python -c code`` until its first line; that line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
    if proc.returncode != 0 or not line:
        raise BenchmarkError(f"setup probe exited {proc.returncode}")
    return elapsed, line


class SetupProbe:
    """Times fresh interpreters from spawn until ``rspcert.cli`` is imported,
    and gauges the host's speed.

    A shared host's speed drifts by up to half within seconds, far more than
    the bounds allow.  So each round spawns the probe and a reference
    interpreter back to back, in alternating order; the two slow down
    together when the host does.  ``setup_s`` is ``SETUP_REF_S`` times the
    median ratio of their times: the set-up time at the speed at which the
    reference takes ``SETUP_REF_S``.  The rounds are spread evenly across
    the run, so the reference's median also gauges the host's speed over
    the run, and ``host_scale`` carries command times to that same speed.
    """

    def __init__(self, seconds: float, rounds: int = SETUP_ROUNDS):
        self._due = [seconds * j / rounds for j in range(rounds)]
        self.samples: dict[str, list[float]] = {
            "setup_raw_s": [], "reference_s": [], "setup_ratio": [],
            "setup.numpy_import_s": [], "setup.rspcert_import_s": []}

    def poll(self, elapsed: float) -> None:
        """Take every round due by ``elapsed`` seconds into the run."""
        while self._due and elapsed >= self._due[0]:
            self._due.pop(0)
            reference_first = len(self.samples["setup_ratio"]) % 2 == 1
            if reference_first:
                reference, _ = _time_spawn(SETUP_REFERENCE)
            probe, line = _time_spawn(SETUP_PROBE)
            if not reference_first:
                reference, _ = _time_spawn(SETUP_REFERENCE)
            fields = line.split()
            if len(fields) != 3:
                raise BenchmarkError(f"setup probe printed {line!r}")
            if not Path(fields[2]).resolve().is_relative_to(SRC):
                raise BenchmarkError(f"setup probe imported rspcert from {fields[2]}")
            self.samples["setup_raw_s"].append(probe)
            self.samples["reference_s"].append(reference)
            self.samples["setup_ratio"].append(probe / reference)
            self.samples["setup.numpy_import_s"].append(float(fields[0]))
            self.samples["setup.rspcert_import_s"].append(float(fields[1]))

    def setup_s(self) -> float:
        return SETUP_REF_S * statistics.median(self.samples["setup_ratio"])

    def host_scale(self) -> float:
        """Factor that carries this run's times to reference host speed."""
        return SETUP_REF_S / statistics.median(self.samples["reference_s"])


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def run_command(cmd: Command) -> tuple[float, Outcome]:
    """Run one command in-process; return its wall seconds and its Outcome."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(cmd.argv)
        except Exception:   # a crash is a result to record, not a reason to stop
            rc = None
            traceback.print_exc()
        elapsed = perf_counter() - t0
    text = None
    path = Path(cmd.report)
    if path.exists():
        text = path.read_text(encoding="utf-8")
        path.unlink()
    return elapsed, Outcome(rc, out.getvalue(), err.getvalue(), text,
                            parse_report(cmd.kind, text))


@dataclass
class Record:
    key: str
    seconds: float
    digest: str
    supports: int
    report_bytes: int


@dataclass
class Ledger:
    """Every command run, plus the first output of each distinct command."""

    records: list[Record] = field(default_factory=list)
    first: dict[str, tuple[Command, Outcome, str]] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)

    def run(self, cmd: Command) -> Record:
        elapsed, out = run_command(cmd)
        d = digest(out)
        size = len(out.report_text.encode()) if out.report_text else 0
        record = Record(cmd.key, elapsed, d, supports(out), size)
        self.records.append(record)
        # Keep the report as text until the checks: parsed reports would
        # swell the peak memory this process reports.
        self.first.setdefault(cmd.key, (cmd, replace(out, report=None), d))
        return record

    def evaluate(self) -> None:
        """Check each distinct output once and every repeat against it."""
        for key, (cmd, out, _) in self.first.items():
            found = check(cmd, replace(out, report=parse_report(cmd.kind, out.report_text)))
            if found:
                self.problems[key] = found
        for r in self.records:
            if r.digest != self.first[r.key][2]:
                self.problems.setdefault(r.key, []).append(
                    "output differs from an earlier run of the same command")

    def failed(self, key: str) -> bool:
        """Whether a command failed; its repeats must match its first run."""
        return self.first[key][1].rc in FAILURE_EXITS or key in self.problems

    def attempted_failed(self) -> tuple[int, int]:
        """Distinct commands run, and how many of them failed.

        Repeats are left out: how many a run fits depends on the host's
        speed, while the distinct commands of a whole pass depend only on
        the seed.  A repeat that differs from its first run is a problem
        of that command.
        """
        return len(self.first), sum(self.failed(k) for k in self.first)

    def verdict_digest(self) -> str:
        joined = "".join(f"{k}={self.first[k][2]};" for k in sorted(self.first))
        return hashlib.sha256(joined.encode()).hexdigest()

    def print_failures(self) -> None:
        for key, (cmd, out, _) in sorted(self.first.items()):
            if out.rc in FAILURE_EXITS:
                message = (out.stderr.strip().splitlines() or ["(no message)"])[-1]
                print(f"failed {key} ({' '.join(cmd.argv[:2])}): exit {out.rc}: {message}")
        for key, found in sorted(self.problems.items()):
            for problem in found:
                print(f"PROBLEM {key}: {problem}")


Metrics = dict[str, tuple[float, int]]     # name -> (value, sample count)


def run_untraced(workload: Workload, seed: int, seconds: float, ledger: Ledger,
                 probe: SetupProbe) -> tuple[Metrics, Metrics]:
    """Cycle through the workload's commands for ``seconds``.

    Every command of the pool runs at least once, so each run times the same
    commands whatever the program's speed; extra time adds repeats.  A
    command's latency is the fastest of its runs, since other load on the
    host only ever adds time, carried to reference host speed by the
    probe's ``host_scale``.  Returns the end-to-end metrics and the figures
    that are printed but not gated (failed_frac, and cmd_ms.p90 when enough
    samples lie above it).
    """
    commands = workload.commands(seed)
    start = perf_counter()
    i = 0
    while True:
        probe.poll(perf_counter() - start)
        ledger.run(commands[i % len(commands)])
        i += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds and i >= len(commands):
            break
        if elapsed >= MAX_SECONDS * seconds:
            print(f"stopped after {i} of the pool's {len(commands)} commands")
            break
    probe.poll(float("inf"))
    # Read before the checks import scipy.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.evaluate()
    scale = probe.host_scale()
    fastest: dict[str, float] = {}
    for r in ledger.records:
        fastest[r.key] = min(r.seconds, fastest.get(r.key, float("inf")))
    supports_of = {r.key: r.supports for r in ledger.records}
    ok = [k for k in fastest if not ledger.failed(k)]
    # With no success the latency falls back to every command, so the
    # result still prints; failed == attempted says what happened.
    ms = [1e3 * scale * fastest[k] for k in ok or fastest]
    attempted, failed = ledger.attempted_failed()
    metrics = {
        # Failed commands spend wall time but complete no supports.
        "cmd_ms.p50": (statistics.median(ms), len(ms)),
        "supports_per_s": (sum(supports_of[k] for k in ok) / (scale * sum(fastest.values())),
                           len(fastest)),
        "peak_rss_mb": (rss_mb, 1),
    }
    extra = {"failed_frac": (failed / attempted, attempted)}
    print(f"host speed: reference spawn median "
          f"{statistics.median(probe.samples['reference_s']):.4f} s; command times "
          f"scaled by {scale:.4f}; unscaled cmd_ms.p50 {statistics.median(ms) / scale:.6g} ms, "
          f"supports_per_s {metrics['supports_per_s'][0] * scale:.6g} 1/s")
    if len(ms) >= 2:
        p90 = statistics.quantiles(ms, n=10)[-1]
        above = sum(v > p90 for v in ms)
        if above >= P90_TAIL:
            extra["cmd_ms.p90"] = (p90, len(ms))
        else:
            print(f"cmd_ms.p90 not reported: {above} samples above it, {P90_TAIL} needed")
    return metrics, extra


def run_traced(workload: Workload, seed: int, seconds: float, ledger: Ledger,
               probe: SetupProbe) -> tuple[Metrics, Metrics]:
    """Replay a fixed command prefix, running each command untraced and traced.

    Pairing the two runs of a command back to back keeps the tracing
    overhead estimate clear of the host's drifting speed, and alternating
    which goes first cancels the advantage of running second.  Replays at
    least two passes and then stops once ``seconds`` have passed.  Every
    exact count must repeat from one traced pass to the next, and every
    output must match the untraced run's.
    """
    prefix = workload.commands(seed)[:workload.pass_commands]
    tracer = Tracer()
    plain_wall = traced_wall = 0.0
    traced_bytes = 0
    passes = []
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        for j, cmd in enumerate(prefix):
            probe.poll(perf_counter() - start)
            traced_first = (len(passes) + j) % 2 == 1
            if not traced_first:
                plain_wall += ledger.run(cmd).seconds
            tracer.install()
            try:
                record = ledger.run(cmd)
            finally:
                tracer.uninstall()
            traced_wall += record.seconds
            traced_bytes += record.report_bytes
            if traced_first:
                plain_wall += ledger.run(cmd).seconds
        passes.append(tracer.take())
    probe.poll(float("inf"))
    ledger.evaluate()
    counts = [p.counts() for p in passes]
    if any(c != counts[0] for c in counts):
        ledger.problems.setdefault("trace", []).append(
            "solve, pivot or support counts differ between traced passes of one seed")
    metrics = layer_metrics(passes, len(prefix) * len(passes), traced_bytes)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0,
                                      len(prefix) * len(passes))
    first = passes[0]
    print(f"traced {len(passes)} passes of {len(prefix)} commands; each pass: "
          f"solves {dict(first.solves)}, pivots {dict(first.pivots)}, "
          f"supports {dict(first.work)}")
    if tracer.absent:
        print(f"absent bindings: {', '.join(sorted(set(tracer.absent)))}")
    return metrics, {}


def _print_metrics(metrics: Metrics, units: dict[str, str]) -> None:
    for name, (value, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]} (n={n})")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload and print its result; the exit status for run.py."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"rspcert imported from {cli.__file__}, not {SRC}")
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    probe = SetupProbe(seconds)
    print(f"env {json.dumps(environment())}")
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        os.chdir(work)
        run = run_traced if trace else run_untraced
        metrics, extra = run(WORKLOADS[name], seed, seconds, ledger, probe)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass    # another run still uses it
    rounds = len(probe.samples["setup_ratio"])
    print(f"setup: unscaled median {statistics.median(probe.samples['setup_raw_s']):.4f} s, "
          f"median ratio to the reference spawn "
          f"{statistics.median(probe.samples['setup_ratio']):.4f} over {rounds} rounds")
    metrics["setup_s"] = (probe.setup_s(), rounds)
    for key in ("setup.numpy_import_s", "setup.rspcert_import_s"):
        metrics[key] = (statistics.median(probe.samples[key]), rounds)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    attempted, failed = ledger.attempted_failed()
    print(f"workload {name} seed {seed}: {len(ledger.records)} commands run, "
          f"{attempted} distinct, {failed} of them failed, "
          f"verdict digest {ledger.verdict_digest()}")
    ledger.print_failures()
    _print_metrics({k: metrics[k] for k in units}, units)
    _print_metrics(extra, {"failed_frac": "ratio", "cmd_ms.p90": "ms"})
    correct = not ledger.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1
