"""Output checks, failure accounting and verdict digests for CLI commands.

Everything here runs outside the timed region.  A command *fails* when it
exits 1 or 5, or when a check below finds a problem.  A problem makes the
run incorrect: the printed verdict disagrees with the exit code or the
report, a witness does not re-verify, a sparsest support or its
representative does not check against the system, an order-K
counterexample does not re-solve to t* >= 1 - feas_tol under
``scipy.optimize.linprog`` (an LP solver that shares no code with the
program), the certifier and the oracle disagree (exit 5), or the command
exits 1 for any reason other than a known numerical failure of the LP core.
Known numerical failures are counted as failed but leave the run correct.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace

import numpy as np

import rspcert

from workloads import Command

FAILURE_EXITS = (1, 5)
# Exit-1 messages of the LP core's known numerical failures on well-posed
# input; any other exit 1 (usage, parse, I/O, ...) is a problem.
KNOWN_NUMERICAL_FAILURES = ("phase 1 reported an unbounded direction",
                            "optimal solve failed its certificate re-check")
_EXIT_FOR = {"yes": 0, "no": 3, "marginal": 4}
_ORDERK_LINE = re.compile(r"^property (\w+) of order (\d+): (\w+)$", re.M)


@dataclass
class Outcome:
    """What one command left behind: exit code, captured streams, report."""

    rc: int | None              # None when cli.main raised
    stdout: str
    stderr: str
    report_text: str | None     # what --json wrote, if anything
    report: dict | list | None  # report_text parsed (a list of lines for random-batch)


def parse_report(kind: str, text: str | None) -> dict | list | None:
    """The parsed --json output; None when it is missing or malformed."""
    if text is None:
        return None
    try:
        if kind == "random-batch":
            return [json.loads(line) for line in text.splitlines() if line.strip()]
        return json.loads(text)
    except ValueError:
        return None


def _untimed(value):
    if isinstance(value, dict):
        return {k: v for k, v in value.items() if k != "timing_ms"}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _untimed_lines(text: str) -> list:
    lines = []
    for line in text.splitlines():
        if line.startswith("{"):
            line = json.dumps(_untimed(json.loads(line)), sort_keys=True)
        lines.append(line)
    return lines


def digest(out: Outcome) -> str:
    """Hash of everything a command decided, with wall times left out."""
    payload = [out.rc, _untimed_lines(out.stdout), out.stderr, _untimed(out.report)]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def supports(out: Outcome) -> int:
    """Supports enumerated by the command, as its report counts them."""
    if not isinstance(out.report, dict):
        return 0
    verdicts = out.report.get("verdicts", {})
    total = verdicts.get("recovery", {}).get("subsets_checked", 0)
    total += verdicts.get("oracle", {}).get("supports_checked", 0)
    total += verdicts.get("system_class", {}).get("sparsest", {}).get("subsets_checked", 0)
    return int(total)


def margin_t_star(A: np.ndarray, support) -> float:
    """Optimal margin of the range-space LP at ``support``; +inf if infeasible.

    min t  s.t.  A_S^T y = 1,  A_j^T y <= t (j not in S),  t >= -1,  y free.
    """
    from scipy.optimize import linprog

    m, n = A.shape
    S = list(support)
    Sc = [j for j in range(n) if j not in set(S)]
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    A_eq = np.hstack([A[:, S].T, np.zeros((len(S), 1))])
    A_ub = np.hstack([A[:, Sc].T, -np.ones((len(Sc), 1))]) if Sc else None
    res = linprog(cost, A_ub=A_ub, b_ub=np.zeros(len(Sc)) if Sc else None,
                  A_eq=A_eq, b_eq=np.ones(len(S)),
                  bounds=[(None, None)] * m + [(-1.0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return float("inf")
    if res.status != 0:
        raise RuntimeError(f"linprog status {res.status}: {res.message}")
    return float(res.fun)


def _tolerances(report: dict) -> rspcert.ToleranceConfig:
    return rspcert.ToleranceConfig(**report["inputs"]["tolerances"])


def _witness_problems(M: np.ndarray, cert: dict, tol, where: str) -> list[str]:
    holds, eta, y = cert["holds"], cert["witness_eta"], cert["witness_y"]
    if holds == "no":
        return []
    if eta is None or y is None:
        return [f"{where}: {holds} verdict without a witness"]
    if holds == "marginal":
        # A marginal witness sits in the band above 1 - rsp_margin by
        # definition; re-check it against the weaker bound 1 - feas_tol.
        tol = replace(tol, rsp_margin=float(np.nextafter(tol.feas_tol, 1.0)))
    if not rspcert.verify_rsp_witness(M, cert["support"], eta, y, tol):
        return [f"{where}: witness does not re-verify"]
    return []


def _line(stdout: str, prefix: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _check_uniqueness(cmd: Command, out: Outcome) -> list[str]:
    text = _line(out.stdout, "unique least-l1 nonnegative solution: ")
    if text is None:
        return ["no uniqueness line on stdout"]
    verdict = text.split()[0]
    problems = []
    if out.rc != _EXIT_FOR.get(verdict):
        problems.append(f"exit {out.rc} for printed verdict {verdict}")
    v = out.report["verdicts"]
    u = v["lp_sparsest"]["verdict"] if cmd.kind == "lp-sparse" else v["uniqueness"]
    if u["unique"] != verdict:
        problems.append(f"report says {u['unique']}, stdout says {verdict}")
    M = cmd.A
    if cmd.kind == "certify-w":
        M = cmd.A / cmd.arrays["w"]
    elif cmd.kind == "lp-sparse":
        M = np.vstack([cmd.A, cmd.arrays["c"][None, :]])
    return problems + _witness_problems(M, u["rsp"], _tolerances(out.report), "rsp")


def _sparsest_problems(cmd: Command, sparsest: dict, tol, where: str) -> list[str]:
    """Each listed support has size k* and a representative that solves the
    system, is nonnegative and has exactly that support; k* is no larger
    than the support planted in b."""
    b = cmd.arrays["b"]
    k_star, listed = sparsest["k_star"], sparsest["supports"]
    reps = sparsest["representatives"]
    problems = []
    if not listed or len(listed) != len(reps):
        problems.append(f"{where}: {len(listed)} supports, {len(reps)} representatives")
    planted = int(np.count_nonzero(cmd.arrays["x"]))
    if k_star > planted:
        problems.append(f"{where}: k* = {k_star} exceeds the planted support size {planted}")
    scale = tol.feas_tol * max(1.0, float(np.abs(b).max()))
    for S, rep in zip(listed, reps):
        z = np.asarray(rep, dtype=float)
        if len(S) != k_star:
            problems.append(f"{where}: support {S} has size {len(S)}, k* = {k_star}")
        if z.min() < -tol.zero_tol:
            problems.append(f"{where}: representative of {S} has an entry {z.min()!r}")
        if np.abs(cmd.A @ z - b).max() > scale:
            problems.append(f"{where}: representative of {S} does not solve A z = b")
        if np.flatnonzero(z > tol.zero_tol).tolist() != list(S):
            problems.append(f"{where}: representative of {S} has another support")
    return problems


def _check_classify(cmd: Command, out: Outcome) -> list[str]:
    problems = [] if out.rc == 0 else [f"classify exited {out.rc}"]
    v = out.report["verdicts"]
    label = _line(out.stdout, "class: ")
    if label != v["system_class"]["class"]:
        problems.append(f"stdout class {label}, report {v['system_class']['class']}")
    tol = _tolerances(out.report)
    problems += _witness_problems(cmd.A, v["system_class"]["l1_verdict"]["rsp"], tol, "l1")
    for i, cert in enumerate(v["equivalence"]["certificates"]):
        problems += _witness_problems(cmd.A, cert, tol, f"sparsest support {i}")
    sparsest = v["system_class"]["sparsest"]
    problems += _sparsest_problems(cmd, sparsest, tol, "sparsest")
    for cert in v["equivalence"]["certificates"]:
        if cert["support"] not in sparsest["supports"]:
            problems.append(f"equivalence certifies {cert['support']}, not a sparsest support")
    return problems


def _check_order_k(cmd: Command, out: Outcome) -> list[str]:
    found = _ORDERK_LINE.search(out.stdout)
    if found is None:
        return ["no order-k verdict line on stdout"]
    verdict = found.group(3)
    expected = _EXIT_FOR.get(verdict)
    problems = [] if out.rc == expected else [f"exit {out.rc}, expected {expected}"]
    if "certifier/oracle agreement: False" in out.stdout:
        problems.append("certifier and oracle disagree")
    v = out.report["verdicts"]
    rec = v["recovery"]
    if rec["holds"] != verdict:
        problems.append(f"report says {rec['holds']}, stdout says {verdict}")
    if "oracle" in v and not v["oracle"]["recovers"] and v["oracle"]["failing_support"] is None:
        problems.append("oracle fails without a failing support")
    if verdict == "no":
        S = rec["counterexample"]
        if S is None:
            if not rec["no_full_rank_subset"]:
                problems.append("no verdict without a counterexample")
        else:
            feas_tol = _tolerances(out.report).feas_tol
            t_star = margin_t_star(cmd.A, S)
            if not t_star >= 1.0 - feas_tol:
                problems.append(f"counterexample {S} re-solves to t* = {t_star!r}")
    return problems


def _check_random_batch(cmd: Command, out: Outcome) -> list[str]:
    lines = out.report
    summary = lines[-1]
    problems = [] if out.rc == 0 else [f"exit {out.rc}, expected 0"]
    if summary["agreement_rate"] != 1.0:
        problems.append(f"agreement rate {summary['agreement_rate']}")
    if len(lines) - 1 != summary["count"]:
        problems.append(f"{len(lines) - 1} records for count {summary['count']}")
    if [json.loads(line) for line in out.stdout.splitlines()] != lines:
        problems.append("stdout and --json file differ")
    return problems


_CHECKS = {"solve-l1": _check_uniqueness, "certify": _check_uniqueness,
           "certify-w": _check_uniqueness, "lp-sparse": _check_uniqueness,
           "classify": _check_classify, "order-k": _check_order_k,
           "random-batch": _check_random_batch}


def known_failure(out: Outcome) -> bool:
    """Exit 1 from one of the LP core's known numerical failures."""
    return out.rc == 1 and any(msg in out.stderr for msg in KNOWN_NUMERICAL_FAILURES)


def check(cmd: Command, out: Outcome) -> list[str]:
    """Problems with a command's output; empty when everything re-checks.

    A known numerical failure is counted as failed by the caller but is not
    wrong output.  Any other exit 1, and every exit 5 (the certifier and its
    oracle disagree), is a problem.
    """
    if known_failure(out):
        return []
    if out.rc == 1:
        message = (out.stderr.strip().splitlines() or ["(no message)"])[-1]
        return [f"exit 1 that is not a known numerical failure: {message}"]
    if out.rc == 5:
        return ["exit 5: the certifier and its oracle disagree"]
    if out.rc is None:
        return ["cli.main raised instead of returning an exit code"]
    if out.report is None:
        return [f"exit {out.rc} without a readable --json report"]
    try:
        return _CHECKS[cmd.kind](cmd, out)
    except (KeyError, IndexError, TypeError, ValueError, RuntimeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
