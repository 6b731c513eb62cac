"""Command-line surface for the certification library.

Exit codes are fixed so shell pipelines can branch on verdicts:

  0  yes (property certified / analysis succeeded)
  1  usage or parse error
  2  problem infeasible, unbounded, or the candidate is not a solution
  3  no
  4  marginal (within the tolerance band; not decided)
  5  certifier and recovery oracle disagree (a bug signal)
  6  enumeration budget exceeded

All indices printed or emitted in JSON are 0-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import report as rep
from .errors import (BudgetExceeded, Infeasible, NonpositiveWeight, NotASolution,
                     NotNonnegative, ParseError, RspcertError, Unbounded)
from .io import load_matrix, load_vector
from .linalg import DEFAULT_SUBSET_BUDGET, DEFAULT_TOLERANCES, ToleranceConfig
from .oracle import classify_system, equivalence_verdict
from .orderk import (DEFAULT_CHECK_BUDGET, QUANTIFIERS, certify_order_k,
                     uniform_recovery_oracle)
from .rsp import (Verdict, certify_uniqueness, lp_sparsest_pipeline,
                  solve_and_certify)

EXIT_YES = 0
EXIT_USAGE = 1
EXIT_PROBLEM = 2
EXIT_NO = 3
EXIT_MARGINAL = 4
EXIT_MISMATCH = 5
EXIT_BUDGET = 6

BUDGET_ENV = "RSPCERT_BUDGET"

_VERDICT_EXIT = {Verdict.YES: EXIT_YES, Verdict.NO: EXIT_NO,
                 Verdict.MARGINAL: EXIT_MARGINAL}


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    # Each tolerance flag stores under its ToleranceConfig field name.
    parser.add_argument("--tol-feas", dest="feas_tol", type=float, default=None,
                        help="LP feasibility residual tolerance (default 1e-8)")
    parser.add_argument("--tol-rank", dest="rank_tol", type=float, default=None,
                        help="relative rank pivot threshold (default 1e-8)")
    parser.add_argument("--rsp-margin", type=float, default=None,
                        help="strictness gap below 1 for a firm yes (default 1e-7)")
    parser.add_argument("--gap-tol", type=float, default=None,
                        help="duality gap tolerance (default 1e-7)")
    parser.add_argument("--zero-tol", type=float, default=None,
                        help="support detection threshold (default 1e-9)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full machine-readable report to PATH")


def _add_budget(parser: argparse.ArgumentParser) -> None:
    # Only the commands that enumerate supports take a budget.
    parser.add_argument("--budget", type=_at_least(0), default=None,
                        help=f"subset enumeration budget (env {BUDGET_ENV} overrides the default)")


def _tolerances(args) -> ToleranceConfig:
    given = {f.name: getattr(args, f.name) for f in fields(ToleranceConfig)
             if getattr(args, f.name) is not None}
    return replace(DEFAULT_TOLERANCES, **given)


def _budget(args, fallback: int) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if env is None:
        return fallback
    try:
        budget = int(env)
    except ValueError:
        raise RspcertError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    if budget < 0:
        raise RspcertError(f"{BUDGET_ENV} must be at least 0, got {budget}")
    return budget


def _fmt_vec(v) -> str:
    return "[" + ", ".join(f"{float(t):.10g}" for t in np.asarray(v).reshape(-1)) + "]"


def _write_report(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path`` unless it is None or ``-`` (stdout).

    Called before any verdict line is printed: an unwritable path leaves stdout empty.
    """
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _uniqueness_lines(verdict) -> list[str]:
    cert = verdict.rsp
    t = "n/a" if cert.t_star is None else f"{cert.t_star:.10g}"
    lines = [f"support: {list(cert.support)}",
             f"range space property: {cert.holds.value} (t* = {t}, lp {cert.lp_status})",
             f"rank of support columns: {verdict.rank_found} of {len(cert.support)}"
             f" ({'full' if verdict.full_column_rank else 'deficient'})"]
    if verdict.rank_marginal:
        lines.append("note: a rank pivot fell near the threshold; rank verdict is marginal")
    lines.append(f"unique least-l1 nonnegative solution: {verdict.unique.value}"
                 f" (reason: {verdict.reason.value})")
    return lines


def cmd_solve_l1(args, A, tol, rhs):
    x, verdict = solve_and_certify(A, rhs, tol)
    lines = [f"x = {_fmt_vec(x)}", f"objective (l1 norm) = {float(x.sum()):.12g}",
             *_uniqueness_lines(verdict)]
    verdicts = {"x": x, "objective": float(x.sum()), "uniqueness": verdict}
    return lines, verdicts, _VERDICT_EXIT[verdict.unique]


def cmd_certify(args, A, tol, rhs, candidate, weights=None):
    verdict = certify_uniqueness(A, rhs, candidate, tol, weights=weights)
    return _uniqueness_lines(verdict), {"uniqueness": verdict}, _VERDICT_EXIT[verdict.unique]


def cmd_order_k(args, A, tol):
    report = certify_order_k(A, args.k, tol, args.budget, property=args.property)
    lines = [f"property {args.property} of order {args.k}: {report.holds.value}"]
    if report.counterexample is not None:
        lines.append(f"counterexample support: {list(report.counterexample)}")
    if report.no_full_rank_subset:
        lines.append(f"no full-column-rank support of size {args.k} exists")
    lines.append(f"subsets checked: {report.subsets_checked}")
    verdicts = {"recovery": report}
    if not args.oracle:
        return lines, verdicts, _VERDICT_EXIT[report.holds]
    oracle = uniform_recovery_oracle(
        A, args.k, trials_per_support=args.trials, tol=tol, seed=args.seed,
        budget=args.budget, property=args.property)
    verdicts["oracle"] = oracle
    lines.append(f"oracle recovers: {oracle.recovers}"
                 + (f" (fails at {list(oracle.failing_support)})" if oracle.failing_support else ""))
    agree = report.agrees_with(oracle)
    if agree is not None:
        verdicts["agreement"] = agree
        lines.append(f"certifier/oracle agreement: {agree}")
    return lines, verdicts, EXIT_MISMATCH if agree is False else _VERDICT_EXIT[report.holds]


def cmd_classify(args, A, tol, rhs):
    cls = classify_system(A, rhs, tol, args.budget)
    equiv = equivalence_verdict(A, rhs, tol, args.budget, system=cls)
    lines = [f"class: {cls.label.value}",
             f"least-l1 solution unique: {cls.l1_unique}",
             f"sparsest size k* = {cls.sparsest.k_star}, "
             f"{cls.sparsest_count} support(s): {[list(S) for S in cls.sparsest.supports]}",
             f"l0/l1 equivalence: {equiv.status.value}"
             + (f" (certified support {list(equiv.passing_support)})"
                if equiv.passing_support is not None else "")]
    return lines, {"system_class": cls, "equivalence": equiv}, EXIT_YES


def cmd_lp_sparse(args, A, tol, rhs, objective):
    result = lp_sparsest_pipeline(A, rhs, objective, tol)
    lines = [f"optimal LP value d* = {result.d_star:.12g}", f"x = {_fmt_vec(result.x)}",
             *_uniqueness_lines(result.verdict)]
    return lines, {"lp_sparsest": result}, _VERDICT_EXIT[result.verdict.unique]


class _Command(NamedTuple):
    """A file-based command. ``run(args, A, tol, **vectors)`` returns the stdout
    lines, the verdicts (library results, written out by ``rep.to_json``) and
    the exit code; ``_run`` loads, times, prints and reports around it."""

    run: Callable
    help: str
    vectors: tuple[str, ...] = ()   # positional vector files after the matrix
    options: tuple = ()             # (flag, add_argument keywords), in --help order
    files: tuple[str, ...] = ()     # options that name an optional vector file
    budget: int | None = None       # default enumeration budget; None: takes no budget
    inputs: tuple[str, ...] = ()    # further arguments recorded in the report's inputs


_COMMANDS = {
    "solve-l1": _Command(
        cmd_solve_l1, "minimize the l1 norm and certify uniqueness", vectors=("rhs",)),
    "certify": _Command(
        cmd_certify, "certify a candidate solution (optionally weighted)",
        vectors=("rhs", "candidate"), files=("weights",),
        options=(("--weights", {"default": None, "help": "positive weight vector file"}),)),
    "order-k": _Command(
        cmd_order_k, "certify an order-K recovery property",
        budget=DEFAULT_CHECK_BUDGET, inputs=("k", "property", "budget"), options=(
            ("--k", {"type": int, "required": True}),
            ("--property", {"choices": sorted(QUANTIFIERS), "default": "rsp"}),
            ("--oracle", {"action": "store_true",
                          "help": "also run the brute-force recovery oracle and compare"}),
            ("--trials", {"type": _at_least(1), "default": 1,
                          "help": "oracle trials per support"}),
            ("--seed", {"type": _at_least(0), "default": 0}),
        )),
    "classify": _Command(
        cmd_classify, "G1/G2/G3 class, sparsest supports, equivalence",
        vectors=("rhs",), budget=DEFAULT_SUBSET_BUDGET, inputs=("budget",)),
    "lp-sparse": _Command(
        cmd_lp_sparse, "certify the sparsest optimal solution of an LP",
        vectors=("rhs", "objective")),
}


def _run(args) -> int:
    """Load a file-based command's inputs, run it, print its lines and emit its report."""
    command = _COMMANDS[args.command]
    tol = _tolerances(args)
    if command.budget is not None:
        args.budget = _budget(args, command.budget)
    t0 = time.perf_counter()
    A = load_matrix(args.matrix)
    paths = {name: getattr(args, name) for name in command.vectors}
    # An optional file given as an empty path counts as not given.
    paths |= {name: getattr(args, name) for name in command.files if getattr(args, name)}
    vectors = {name: load_vector(path) for name, path in paths.items()}
    lines, verdicts, code = command.run(args, A, tol, **vectors)
    timing = (time.perf_counter() - t0) * 1000.0
    text = None
    if args.json:
        # The report is built only when asked for.
        inputs = {"matrix": args.matrix, **paths, "m": A.shape[0], "n": A.shape[1],
                  **{name: getattr(args, name) for name in command.inputs}, "tolerances": tol}
        report = {"schema_version": rep.SCHEMA_VERSION, "command": args.command,
                  "inputs": rep.to_json(inputs), "verdicts": rep.to_json(verdicts),
                  "timing_ms": timing}
        if "oracle" in verdicts:
            report["seed"] = verdicts["oracle"].seed
        text = json.dumps(report, indent=2)
        _write_report(args.json, text)
    print("\n".join(lines))
    if args.json == "-":
        print(text)
    return code


def cmd_random_batch(args) -> int:
    tol = _tolerances(args)
    budget = _budget(args, DEFAULT_CHECK_BUDGET)
    t0 = time.perf_counter()
    hard = 0
    agreed = 0
    marginal_indices = []
    lines = []
    for index in range(args.count):
        rng = np.random.default_rng([args.seed, index])
        A = rng.standard_normal((args.m, args.n))
        report = certify_order_k(A, args.k, tol, budget)
        oracle = uniform_recovery_oracle(A, args.k, trials_per_support=args.trials,
                                         tol=tol, seed=args.seed + index, budget=budget)
        record = {
            "schema_version": rep.SCHEMA_VERSION,
            "command": "random-batch",
            "index": index,
            "m": args.m,
            "n": args.n,
            "k": args.k,
            "verdict": report.holds.value,
            "counterexample": rep.to_json(report.counterexample),
            "oracle_recovers": oracle.recovers,
            "oracle_failing_support": rep.to_json(oracle.failing_support),
        }
        ok = report.agrees_with(oracle)
        record["agree"] = ok
        if ok is None:
            marginal_indices.append(index)
        else:
            hard += 1
            agreed += ok
        lines.append(json.dumps(record, separators=(",", ":")))
    rate = 1.0 if hard == 0 else agreed / hard
    summary = {
        "schema_version": rep.SCHEMA_VERSION,
        "command": "random-batch",
        "summary": True,
        "count": args.count,
        "hard_cases": hard,
        "agreement_rate": rate,
        "marginal_indices": marginal_indices,
        "seed": args.seed,
        "timing_ms": (time.perf_counter() - t0) * 1000.0,
    }
    lines.append(json.dumps(summary, separators=(",", ":")))
    text = "\n".join(lines)
    _write_report(args.json, text)
    print(text)
    return EXIT_YES if agreed == hard else EXIT_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="rspcert",
        description="Certify uniqueness, l0/l1 equivalence, and order-K recovery "
                    "for nonnegative solutions of underdetermined linear systems. "
                    "All reported indices are 0-based.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for positional in ("matrix", *command.vectors):
            p.add_argument(positional)
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
        _add_common(p)
        if command.budget is not None:
            _add_budget(p)
        p.set_defaults(func=_run)

    p = sub.add_parser("random-batch",
                       help="seeded random matrices: certifier vs oracle, JSON lines")
    p.add_argument("--m", type=_at_least(1), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--k", type=_at_least(1), required=True)
    p.add_argument("--count", type=_at_least(0), required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--trials", type=_at_least(1), default=1)
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=cmd_random_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "random-batch" and args.k > args.n:
            parser.error(f"argument --k: must be at most --n ({args.n}), got {args.k}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (Infeasible, Unbounded, NotASolution, NotNonnegative, NonpositiveWeight) as exc:
        print(f"problem rejected: {exc}", file=sys.stderr)
        return EXIT_PROBLEM
    except (RspcertError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
