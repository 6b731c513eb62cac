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
import json
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import report as rep
from .errors import (BudgetExceeded, CertificateUnavailable, Infeasible,
                     IterationLimit, NonpositiveWeight, NotASolution,
                     NotNonnegative, ParseError, RspcertError, Unbounded)
from .io import load_matrix, load_vector
from .linalg import DEFAULT_SUBSET_BUDGET, DEFAULT_TOLERANCES, ToleranceConfig
from .oracle import classify_system, equivalence_verdict
from .orderk import (DEFAULT_CHECK_BUDGET, prsp_order_k, pwrsp_order_k,
                     rsp_order_k, uniform_recovery_oracle, wrsp_order_k)
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

_PROPERTIES = {"rsp": rsp_order_k, "wrsp": wrsp_order_k,
               "prsp": prsp_order_k, "pwrsp": pwrsp_order_k}


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
    parser.add_argument("--budget", type=int, default=None,
                        help=f"subset enumeration budget (env {BUDGET_ENV} overrides the default)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full machine-readable report to PATH")


def _tolerances(args) -> ToleranceConfig:
    given = {f.name: getattr(args, f.name) for f in fields(ToleranceConfig)
             if getattr(args, f.name) is not None}
    return replace(DEFAULT_TOLERANCES, **given)


def _budget(args, fallback: int) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise RspcertError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    return fallback


def _fmt_vec(v) -> str:
    return "[" + ", ".join(f"{float(t):.10g}" for t in np.asarray(v).reshape(-1)) + "]"


def _emit(args, report: dict) -> None:
    if args.json:
        if args.json == "-":
            print(json.dumps(report, indent=2))
        else:
            rep.dump_report(report, args.json)


def _print_uniqueness(verdict) -> None:
    cert = verdict.rsp
    print(f"support: {list(cert.support)}")
    t = "n/a" if cert.t_star is None else f"{cert.t_star:.10g}"
    print(f"range space property: {cert.holds.value} (t* = {t}, lp {cert.lp_status})")
    print(f"rank of support columns: {verdict.rank_found} of {len(cert.support)}"
          f" ({'full' if verdict.full_column_rank else 'deficient'})")
    if verdict.rank_marginal:
        print("note: a rank pivot fell near the threshold; rank verdict is marginal")
    print(f"unique least-l1 nonnegative solution: {verdict.unique.value}"
          f" (reason: {verdict.reason.value})")


def cmd_solve_l1(args) -> int:
    tol = _tolerances(args)
    t0 = time.perf_counter()
    A = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    x, verdict = solve_and_certify(A, b, tol)
    timing = (time.perf_counter() - t0) * 1000.0
    print(f"x = {_fmt_vec(x)}")
    print(f"objective (l1 norm) = {float(x.sum()):.12g}")
    _print_uniqueness(verdict)
    _emit(args, rep.build_report(
        "solve-l1",
        {"matrix": args.matrix, "rhs": args.rhs,
         "m": A.shape[0], "n": A.shape[1], "tolerances": rep.tolerance_dict(tol)},
        {"x": rep._vec(x), "objective": float(x.sum()),
         "uniqueness": rep.uniqueness_dict(verdict)},
        timing))
    return _VERDICT_EXIT[verdict.unique]


def cmd_certify(args) -> int:
    tol = _tolerances(args)
    t0 = time.perf_counter()
    A = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    x = load_vector(args.candidate)
    w = load_vector(args.weights) if args.weights else None
    verdict = certify_uniqueness(A, b, x, tol, weights=w)
    timing = (time.perf_counter() - t0) * 1000.0
    _print_uniqueness(verdict)
    inputs = {"matrix": args.matrix, "rhs": args.rhs, "candidate": args.candidate,
              "m": A.shape[0], "n": A.shape[1], "tolerances": rep.tolerance_dict(tol)}
    if args.weights:
        inputs["weights"] = args.weights
    _emit(args, rep.build_report(
        "certify", inputs, {"uniqueness": rep.uniqueness_dict(verdict)}, timing))
    return _VERDICT_EXIT[verdict.unique]


def cmd_order_k(args) -> int:
    tol = _tolerances(args)
    budget = _budget(args, DEFAULT_CHECK_BUDGET)
    t0 = time.perf_counter()
    A = load_matrix(args.matrix)
    report = _PROPERTIES[args.property](A, args.k, tol, budget)
    verdicts = {"recovery": rep.recovery_dict(report)}
    agree = None
    oracle = None
    if args.oracle:
        oracle = uniform_recovery_oracle(
            A, args.k, trials_per_support=args.trials, tol=tol, seed=args.seed,
            budget=budget, property=args.property)
        verdicts["oracle"] = rep.oracle_dict(oracle)
        agree = report.agrees_with(oracle)
        if agree is not None:
            verdicts["agreement"] = agree
    timing = (time.perf_counter() - t0) * 1000.0
    print(f"property {args.property} of order {args.k}: {report.holds.value}")
    if report.counterexample is not None:
        print(f"counterexample support: {list(report.counterexample)}")
    if report.no_full_rank_subset:
        print(f"no full-column-rank support of size {args.k} exists")
    print(f"subsets checked: {report.subsets_checked}")
    if oracle is not None:
        print(f"oracle recovers: {oracle.recovers}"
              + (f" (fails at {list(oracle.failing_support)})" if oracle.failing_support else ""))
        if agree is not None:
            print(f"certifier/oracle agreement: {agree}")
    _emit(args, rep.build_report(
        "order-k",
        {"matrix": args.matrix, "m": A.shape[0], "n": A.shape[1],
         "k": args.k, "property": args.property, "budget": budget,
         "tolerances": rep.tolerance_dict(tol)},
        verdicts, timing, seed=args.seed if args.oracle else None))
    if agree is False:
        return EXIT_MISMATCH
    return _VERDICT_EXIT[report.holds]


def cmd_classify(args) -> int:
    tol = _tolerances(args)
    budget = _budget(args, DEFAULT_SUBSET_BUDGET)
    t0 = time.perf_counter()
    A = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    cls = classify_system(A, b, tol, budget)
    equiv = equivalence_verdict(A, b, tol, budget, sparsest=cls.sparsest)
    timing = (time.perf_counter() - t0) * 1000.0
    print(f"class: {cls.label.value}")
    print(f"least-l1 solution unique: {cls.l1_unique}")
    print(f"sparsest size k* = {cls.sparsest.k_star}, "
          f"{cls.sparsest_count} support(s): {[list(S) for S in cls.sparsest.supports]}")
    print(f"l0/l1 equivalence: {equiv.status.value}"
          + (f" (certified support {list(equiv.passing_support)})"
             if equiv.passing_support is not None else ""))
    _emit(args, rep.build_report(
        "classify",
        {"matrix": args.matrix, "rhs": args.rhs, "m": A.shape[0], "n": A.shape[1],
         "budget": budget, "tolerances": rep.tolerance_dict(tol)},
        {"system_class": rep.system_class_dict(cls),
         "equivalence": rep.equivalence_dict(equiv)},
        timing))
    return EXIT_YES


def cmd_lp_sparse(args) -> int:
    tol = _tolerances(args)
    t0 = time.perf_counter()
    A = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    c = load_vector(args.objective)
    result = lp_sparsest_pipeline(A, b, c, tol)
    timing = (time.perf_counter() - t0) * 1000.0
    print(f"optimal LP value d* = {result.d_star:.12g}")
    print(f"x = {_fmt_vec(result.x)}")
    _print_uniqueness(result.verdict)
    _emit(args, rep.build_report(
        "lp-sparse",
        {"matrix": args.matrix, "rhs": args.rhs, "objective": args.objective,
         "m": A.shape[0], "n": A.shape[1], "tolerances": rep.tolerance_dict(tol)},
        {"lp_sparsest": rep.lp_sparsest_dict(result)}, timing))
    return _VERDICT_EXIT[result.verdict.unique]


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
        report = rsp_order_k(A, args.k, tol, budget)
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
            "counterexample": rep._idx(report.counterexample),
            "oracle_recovers": oracle.recovers,
            "oracle_failing_support": rep._idx(oracle.failing_support),
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
    print(text)
    if args.json and args.json != "-":
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return EXIT_YES if agreed == hard else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rspcert",
        description="Certify uniqueness, l0/l1 equivalence, and order-K recovery "
                    "for nonnegative solutions of underdetermined linear systems. "
                    "All reported indices are 0-based.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-l1", help="minimize the l1 norm and certify uniqueness")
    p.add_argument("matrix")
    p.add_argument("rhs")
    _add_common(p)
    p.set_defaults(func=cmd_solve_l1)

    p = sub.add_parser("certify", help="certify a candidate solution (optionally weighted)")
    p.add_argument("matrix")
    p.add_argument("rhs")
    p.add_argument("candidate")
    p.add_argument("--weights", default=None, help="positive weight vector file")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("order-k", help="certify an order-K recovery property")
    p.add_argument("matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--property", choices=sorted(_PROPERTIES), default="rsp")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force recovery oracle and compare")
    p.add_argument("--trials", type=int, default=1, help="oracle trials per support")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_order_k)

    p = sub.add_parser("classify", help="G1/G2/G3 class, sparsest supports, equivalence")
    p.add_argument("matrix")
    p.add_argument("rhs")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("lp-sparse", help="certify the sparsest optimal solution of an LP")
    p.add_argument("matrix")
    p.add_argument("rhs")
    p.add_argument("objective")
    _add_common(p)
    p.set_defaults(func=cmd_lp_sparse)

    p = sub.add_parser("random-batch",
                       help="seeded random matrices: certifier vs oracle, JSON lines")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_random_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (CertificateUnavailable, IterationLimit, RspcertError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
