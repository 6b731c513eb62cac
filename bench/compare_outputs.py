"""Check that two rspcert source trees give the same outputs on the benchmark's commands.

Runs one pass of every workload of ``perfbench/workloads.py`` for each seed
through ``rspcert.cli.main``, once with this tree's ``src`` and once with
the parent tree's, and compares each command's exit code, stdout, stderr
and ``--json`` report, leaving out ``timing_ms`` (also in the summary line
of ``random-batch``):

    python3 bench/compare_outputs.py --parent ../parent --seeds 1 2

Each tree runs in its own interpreter, with ``PYTHONPATH=<tree>/src`` and
BLAS on one thread; the commands and inputs of both come from this tree's
``perfbench/workloads.py``.  Prints, per workload, how many commands differ
in exit code, stdout, stderr and report; for the first differing commands
the fields that differ and, for a report, its JSON key paths that differ
(list indices folded to ``[]``) with the largest absolute difference where
both sides are numbers; and the key paths over all differing reports.
Exits 1 on any difference and 2 when a tree could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("orderk_enum", "sparsest_search", "oneshot_small")
FIELDS = ("code", "stdout", "stderr", "report")
_TIMING = re.compile(r'("timing_ms":\s*)[^,}\n]+')
_INDEX = re.compile(r"\[\d+\]")
_MISSING = object()


def _untimed(text: str) -> str:
    return _TIMING.sub(r"\1null", text)


def _parsed(report: str | None):
    # A report is one JSON document, or one per line (random-batch).
    if report is None:
        return None
    try:
        return json.loads(report)
    except json.JSONDecodeError:
        return [json.loads(line) for line in report.splitlines() if line.strip()]


def _differing(a, b, path: str = ""):
    """(key path, |a - b| or None) for each place where JSON values a and b differ.

    The difference is a number where both sides are numbers, else None.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _differing(a.get(key, _MISSING), b.get(key, _MISSING),
                                  f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differing(x, y, f"{path}[{i}]")
    elif a != b:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        yield path, abs(a - b) if numbers else None


def _folded(change: str | None, parent: str | None) -> dict[str, float | None]:
    """The key paths where two reports differ, list indices folded, and the largest |difference|.

    None where some difference at the path is not between two numbers.
    """
    paths: dict[str, float | None] = {}
    for path, delta in _differing(_parsed(change), _parsed(parent)):
        path = _INDEX.sub("[]", path) or "(whole report)"
        known = paths.get(path, 0.0)
        paths[path] = None if delta is None or known is None else max(known, delta)
    return paths


def _delta(value: float | None) -> str:
    return "not numbers" if value is None else f"max |diff| {value:.3g}"


def run_tree(tree: Path, seeds: list[int], out: Path) -> None:
    """Run every command of one pass per workload and seed; write the outputs to ``out``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from rspcert import cli
    if not Path(cli.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"rspcert loaded from {cli.__file__}, not from {tree / 'src'}")
    records = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for seed in seeds:
            for name in WORKLOADS:
                for command in workloads.WORKLOADS[name].commands(seed):
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main(command.argv)
                    report = Path(command.report)
                    records.append({
                        "workload": name, "seed": seed, "argv": command.argv, "code": code,
                        "stdout": _untimed(stdout.getvalue()), "stderr": stderr.getvalue(),
                        "report": _untimed(report.read_text()) if report.exists() else None})
                    if report.exists():
                        report.unlink()
    out.write_text(json.dumps(records))


def _outputs(tree: Path, seeds: list[int], out: Path) -> list[dict] | None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, __file__, "--tree", str(tree), "--out", str(out),
                           "--seeds", *map(str, seeds)], env=env)
    if proc.returncode != 0:
        print(f"{tree}: exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="source tree to compare with (holds src/rspcert)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tree is not None:
        # One tree's run, in the interpreter the comparison started for it.
        run_tree(args.tree.resolve(), args.seeds, args.out)
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory() as scratch:
        change = _outputs(ROOT, args.seeds, Path(scratch) / "change.json")
        parent = _outputs(args.parent.resolve(), args.seeds, Path(scratch) / "parent.json")
    if change is None or parent is None:
        return 2
    status = 0
    for name in WORKLOADS:
        pairs = [(c, p) for c, p in zip(change, parent) if c["workload"] == name]
        differ = [(c, p) for c, p in pairs if c != p]
        counts = ", ".join(f"{field} {sum(c[field] != p[field] for c, p in differ)}"
                           for field in FIELDS)
        print(f"{name}: {len(pairs)} commands, {len(differ)} differences ({counts})")
        for c, p in differ[:5]:
            fields = [k for k in c if c[k] != p[k]]
            print(f"  seed {c['seed']} {' '.join(c['argv'])}: {', '.join(fields)} differ")
            if c["report"] != p["report"]:
                for path, delta in _folded(c["report"], p["report"]).items():
                    print(f"    {path}: {_delta(delta)}")
        reports = [_folded(c["report"], p["report"]) for c, p in differ
                   if c["report"] != p["report"]]
        if reports:
            print(f"  key paths over all {len(reports)} differing reports:")
            for path in sorted({path for paths in reports for path in paths}):
                deltas = [paths[path] for paths in reports if path in paths]
                worst = None if None in deltas else max(deltas)
                print(f"    {path}: {len(deltas)} reports, {_delta(worst)}")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
