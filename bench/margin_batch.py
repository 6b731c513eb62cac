"""Layer benchmark of the LP core and the recovery oracle.

Measures margin LPs, feasibility LPs, rank probes and the recovery oracle of
one rspcert source tree and merges the figures into a JSON file under
``layers.<label>``; run it once per tree to compare two builds:

    python3 bench/margin_batch.py --tree . --label change --out BENCH_11.json
    python3 bench/margin_batch.py --tree ../parent --label parent --out BENCH_11.json

``--sweep KIB,...`` instead measures the tree once per stack byte cap
(``linalg._STACK_BYTES``, which sets the LPs per lockstep chunk), each in its
own interpreter so that each cap gets its own peak RSS, and stores the
figures under ``cap_sweep.<label>.<cap>``.

``--e2e LABEL WORKLOAD RESULT...`` instead stores the median and quartiles of
each metric over perfbench result files (the last JSON line of
``perfbench/run.py``), and every run's value, under
``end_to_end.<workload>.<label>``.

Inputs are seeded: four Gaussian 8x16 matrices for the margin LPs (every
support of size 1, 2 and 3, through ``check_rsp_batch``, which solves one
margin LP per support, with the pivots of each), the same matrices for the
order-K certifier at K=3 under each of the four properties, and the
matrices and properties of the benchmark's ``orderk_enum`` commands for
seed 1 (µs per support, the margin LPs, ``solve_batch`` calls, lockstep
steps and blocks of the certifier alone, and by support size the share of
supports settled by a least-squares witness without a margin LP, split into
the first witness and the reweighted ones), one Gaussian 4x8 and one 6x12
matrix for ``check_rsp_at`` called one support at a time (every support of
size 2), a rank-deficient 6x12 matrix for the same (every support of size 2
and 3; the benchmark's commands reach no rank-deficient support, so this is
the one measure of that path), two planted k*=4 10x20 systems for the
feasibility LPs (through ``sparsest_supports``: µs per support checked,
the feasibility LPs it actually solves, which are fewer once supports
are screened before any LP runs, and the supports its screen rules out),
the size-3 supports of the 8x16 matrices for the order-K layer's
full-column-rank gate (µs per support, with the one row
reduction of A it takes) and for the rank probes, and the recovery oracle at K=3 on the 8x16 matrices under each
of the four properties and on the matrices and properties of the
benchmark's ``orderk_enum`` commands for seed 1, and under each property on
four degenerate 6x12 matrices (``_degenerate``), whose l1 duals leave
trials open or whose dependent columns fail the gate, each split into the
runs of the weak properties (wrsp, pwrsp) and of the strong ones (rsp,
prsp) (with its l1 pivots per LP, its margin LPs and rank probes per
checked support, and the trials its l1 LPs' duals decide and the trials it
sends to margin LPs).
``solve_and_certify``, called once per right-hand side, gets a digest of
its outputs on planted right-hand sides of the 8x16 matrices, and its l1
pivots per LP, so that two trees can be shown to agree on it.  The lockstep figures count the
steps of the stacked engine on the size-3 margin LPs and on one pass of the
benchmark's ``orderk_enum`` commands for seed 1 (``perfbench/workloads.py``,
run in-process through ``rspcert.cli.main``).  The started LPs that the LP
core solved two-phase (a start that does not serve, or a started solve
that came back ``CertificateUnavailable``) are counted on that pass and on
the near-dependent 5x10 matrix of CHANGES.md line 47.  Times are the
fastest of ``--repeat`` runs, on one thread.

Every count is read from the library's own run statistics: each measured
call runs inside ``rspcert.stats.collect()``, and the figures are its
counters (``simplex.*``, ``margin.*``, ``l1.*``, ``feasibility.*``,
``linalg.ranked``, ``oracle.*``).  The tool sets no library name but
``linalg._STACK_BYTES`` for ``--sweep``, and the tree must have
``rspcert.stats``.

BENCH files up to ``BENCH_16.json`` carry ``feasibility_us_per_lp`` and
``feasibility_lps`` instead: the same time and support count, from when
every checked support was one feasibility LP.  Up to ``BENCH_19.json``,
``margin_us_per_lp``, ``margin_pivots_per_lp`` and the ``margin_k3``
lockstep figures were taken through the prsp certifier, which then solved
one margin LP per support as ``check_rsp_batch`` does.  Up to
``BENCH_26.json``, ``fallbacks`` and ``fallbacks_near_dependent`` were split
by LP kind (``margin``, ``l1``); the LP core, which counts them, does not
know an LP's kind, so they are one total now.  Up to ``BENCH_28.json``,
``rank_probe_us_in_filter`` timed ``SupportEnumeration``'s full-rank
filter, one stacked SVD probe per block; the order-K layer now decides
full column rank by the R-diagonal gate that ``full_rank_gate_us`` times.
Up to ``BENCH_28.json``, ``oracle`` and ``oracle_orderk_enum_seed1`` were
one set of figures over all four properties; they are now split into the
weak properties' runs and the strong ones'.  ``oracle_degenerate`` is new
in ``BENCH_31.json``: on the Gaussian 8x16 matrices every support passes
the gate and no trial is left open, so the weak and strong runs there do
the same work.  Up to ``BENCH_31.json``, the ``solve_and_certify`` digest
was taken over one batch call per matrix of a batched variant that the
library no longer has, and stored under that variant's name; the digest
and the pivots per LP are the same.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def _best(fn, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(tree: Path, repeat: int, cap_kib: int | None = None) -> dict:
    sys.path.insert(0, str(tree / "src"))
    import numpy as np
    import rspcert as rc
    from rspcert import linalg, rsp, stats

    if cap_kib is not None:
        linalg._STACK_BYTES = cap_kib * 1024
    mats = [np.random.default_rng([4, i]).standard_normal((8, 16)) for i in range(4)]
    out: dict = {"margin_us_per_lp": {}, "margin_pivots_per_lp": {}}
    for k in (1, 2, 3):
        supports = list(combinations(range(16), k))
        count = len(supports) * len(mats)
        t = _best(lambda: [list(rsp.check_rsp_batch(A, supports)) for A in mats], repeat)
        out["margin_us_per_lp"][str(k)] = 1e6 * t / count
        with stats.collect() as counts:
            [list(rsp.check_rsp_batch(A, supports)) for A in mats]
        assert counts["margin.lps"] == counts["simplex.lps"] == count
        out["margin_pivots_per_lp"][str(k)] = counts["simplex.pivots"] / count
    props = ("rsp", "wrsp", "prsp", "pwrsp")
    if cap_kib is None:
        out["certifier"] = _certifier(rc, [(A, prop) for A in mats for prop in props], repeat)
        out["certifier_orderk_enum_seed1"] = _certifier(rc, _orderk_runs(np), repeat)
    out["check_rsp_at_us"] = _batch_of_one(rc, np, repeat)

    systems = []
    for i in range(2):
        rng = np.random.default_rng([4, 10 + i])
        A = rng.standard_normal((10, 20))
        x = np.zeros(20)
        x[rng.choice(20, size=4, replace=False)] = rng.uniform(0.1, 1.0, size=4)
        systems.append((A, A @ x))
    with stats.collect() as counts:
        checked = sum(rc.sparsest_supports(A, b).subsets_checked for A, b in systems)
    t = _best(lambda: [rc.sparsest_supports(A, b) for A, b in systems], repeat)
    out["feasibility_us_per_support"] = 1e6 * t / checked
    out["feasibility_supports"] = checked
    out["feasibility_lps_solved"] = counts["feasibility.lps"]
    # None on a tree that does not count the screen's outcomes.
    out["feasibility_ruled_out"] = counts.get("feasibility.ruled_out")

    supports = list(combinations(range(16), 3))
    block = np.array(supports)

    def gate(A):
        # rsp holds both names in either tree: it defines them, or imports them.
        rows = rsp._row_reduction(A, rc.DEFAULT_TOLERANCES)
        return rsp._full_column_rank(rows.At, block, rows.floor)[0]
    t = _best(lambda: [gate(A) for A in mats], repeat)
    out["full_rank_gate_us"] = 1e6 * t / (len(supports) * len(mats))
    t = _best(lambda: [rc.rank_details(mats[0], S) for S in supports], repeat)
    out["rank_probe_us_alone"] = 1e6 * t / len(supports)

    out["lockstep"] = _lockstep(rc, mats, repeat)
    if cap_kib is None:
        out["oracle"] = _oracle(rc, [(A, prop) for A in mats for prop in props], repeat)
        out["oracle_orderk_enum_seed1"] = _oracle(rc, _orderk_runs(np), repeat)
        out["oracle_degenerate"] = _oracle(rc, [(A, prop) for A in _degenerate(np)
                                                for prop in props], repeat)
        out["solve_and_certify"] = _solve_and_certify_digest(rc, np, mats)
        with stats.collect() as counts:
            _near_dependent_work(rc, np)
        out["fallbacks_near_dependent"] = counts["simplex.two_phase"]
    return out


def _batch_of_one(rc, np, repeat: int) -> dict:
    """µs per ``check_rsp_at`` call, one support at a time.

    Every size-2 support of a Gaussian 4x8 and 6x12 matrix, and, under
    ``deficient``, every size-2 and size-3 support of a 6x12 matrix whose
    columns 6-8 repeat columns 0-2 and 9-11 negate columns 3-5, with the
    count of those supports whose columns are dependent.
    """
    out = {}
    for m, n in ((4, 8), (6, 12)):
        A = np.random.default_rng([4, 20 + m]).standard_normal((m, n))
        supports = list(combinations(range(n), 2))
        t = _best(lambda: [rc.check_rsp_at(A, S) for S in supports], repeat)
        out[f"{m}x{n}"] = 1e6 * t / len(supports)
    A = np.random.default_rng([4, 30]).standard_normal((6, 12))
    A[:, 6:9] = A[:, 0:3]
    A[:, 9:] = -A[:, 3:6]
    out["deficient"] = {}
    for k in (2, 3):
        supports = list(combinations(range(12), k))
        t = _best(lambda: [rc.check_rsp_at(A, S) for S in supports], repeat)
        out["deficient"][str(k)] = {
            "us": 1e6 * t / len(supports), "supports": len(supports),
            "dependent": sum(len({j % 6 for j in S}) < k for S in supports)}
    return out


def _certifier(rc, runs, repeat: int) -> dict:
    """``certify_order_k`` at K=3 over ``runs``, pairs of a matrix and a property.

    µs per support it checks; the margin LPs it solves, its ``solve_batch``
    calls, the lockstep steps of those solves and the blocks it certifies
    (calls of ``rsp._margin_solves``); and by support size the supports it
    reaches and the share of them settled by a least-squares witness, with
    no margin LP, split into the first witness's share and the reweighted
    witnesses'.
    """
    from rspcert import stats

    def certify():
        return [rc.certify_order_k(A, 3, property=prop) for A, prop in runs]
    with stats.collect() as counts:
        checked = sum(r.subsets_checked for r in certify())
    t = _best(certify, repeat)
    sizes = sorted(int(name.rsplit(".", 1)[1]) for name in counts
                   if name.startswith("margin.supports."))
    supports = {k: counts[f"margin.supports.{k}"] for k in sizes}
    first = {k: counts[f"margin.settled_first.{k}"] for k in sizes}
    reweighted = {k: counts[f"margin.settled_reweighted.{k}"] for k in sizes}
    return {"supports_checked": checked, "us_per_support": 1e6 * t / checked,
            "lps": counts["simplex.lps"], "solve_batch_calls": counts["simplex.batches"],
            "steps": counts["simplex.steps"], "blocks": counts["margin.blocks"],
            "settled_frac": (sum(first.values()) + sum(reweighted.values())) / checked,
            "first_witness_frac": sum(first.values()) / checked,
            "by_size": {str(k): {"supports": supports[k],
                                 "settled_frac": (first[k] + reweighted[k]) / supports[k],
                                 "first_witness_frac": first[k] / supports[k],
                                 "reweighted_frac": reweighted[k] / supports[k]}
                        for k in sizes}}


def _oracle(rc, runs, repeat: int) -> dict:
    """The recovery oracle at K=3 over ``runs``, pairs of a matrix and a property.

    The figures of ``_oracle_runs`` twice: under ``weak`` for the runs of
    wrsp and pwrsp, whose windows keep only the supports that pass the
    full-column-rank gate, and under ``strong`` for those of rsp and prsp.
    """
    from rspcert.orderk import QUANTIFIERS

    return {strength: _oracle_runs(rc, [(A, prop) for A, prop in runs if
                                        QUANTIFIERS[prop].full_rank_only == (strength == "weak")],
                                   repeat)
            for strength in ("weak", "strong")}


def _oracle_runs(rc, runs, repeat: int) -> dict:
    """µs per support the oracle checks over ``runs``, and its work.

    Its LPs, ``solve_batch`` calls and lockstep steps; its l1 LPs per stack
    (a window's stack) and per checked support, and the pivots of each l1
    LP; the margin LPs and margin-LP stacks it solves, and the matrices its
    rank probes take, per checked support; and the trials whose uniqueness
    the l1 LP's own dual decides and the trials it sends to the margin-LP
    certification.
    """
    from rspcert import stats

    def oracle():
        return [rc.uniform_recovery_oracle(A, 3, property=prop) for A, prop in runs]
    with stats.collect() as counts:
        checked = sum(r.supports_checked for r in oracle())
    t = _best(oracle, repeat)
    l1, margin = counts["l1.lps"], counts["margin.lps"]
    return {"supports_checked": checked, "us_per_support": 1e6 * t / checked,
            "lps": counts["simplex.lps"], "solve_batch_calls": counts["simplex.batches"],
            "steps": counts["simplex.steps"],
            "l1_lps_per_window": l1 / counts["l1.batches"],
            "l1_lps_per_support": l1 / checked,
            "l1_pivots_per_lp": counts["l1.pivots"] / l1,
            "margin_lps": margin, "margin_stacks": counts["simplex.batches"] - counts["l1.batches"],
            "margin_lps_per_support": margin / checked,
            "trials_dual_decided": counts["oracle.trials_decided"],
            "trials_to_margin_lps": counts["oracle.trials_to_margin"],
            "rank_probes": counts["linalg.ranked"],
            "rank_probes_per_support": counts["linalg.ranked"] / checked}


def _near_dependent_work(rc, np) -> None:
    """Run work on the near-dependent 5x10 matrix of CHANGES.md line 47.

    Column 0 is zero and column 9 is column 1 - column 2 up to 1e-9.  The
    work is ``check_rsp_batch`` at every support of size 1 to 3, and the
    certifier and the recovery oracle at K = 1 to 3 under each property,
    the oracle with 1 and 3 trials and seeds 0 to 2 (72 runs).
    """
    from rspcert import rsp
    rng = np.random.default_rng([2026, 61])
    A = rng.standard_normal((5, 10))
    A[:, 0] = 0.0
    A[:, 9] = A[:, 1] - A[:, 2] + 1e-9 * rng.standard_normal(5)

    for k in (1, 2, 3):
        list(rsp.check_rsp_batch(A, list(combinations(range(10), k))))
        for prop in ("rsp", "wrsp", "prsp", "pwrsp"):
            rc.certify_order_k(A, k, property=prop)
            for trials in (1, 3):
                for seed in (0, 1, 2):
                    rc.uniform_recovery_oracle(A, k, trials_per_support=trials,
                                               property=prop, seed=seed)


def _degenerate(np) -> list:
    """Four 6x12 matrices with dependent columns, three of them as in tests/test_orderk.py.

    A Gaussian whose column 9 repeats column 4 and one whose column 10
    repeats column 3 and whose column 11 is the midpoint of columns 0 and 5
    leave l1 trials open under every property; a 0/1 matrix of density 0.4
    with a zero column leaves trials open and has the weak properties skip
    that column; and a Gaussian whose column 11 is minus column 0 has them
    skip the pairs with both, so that wrsp walks 69 supports where rsp
    fails at its 23rd.
    """
    duplicated = np.random.default_rng([2027, 41]).standard_normal((6, 12))
    duplicated[:, 9] = duplicated[:, 4]
    midpoint = np.random.default_rng([0, 10]).standard_normal((6, 12))
    midpoint[:, 10] = midpoint[:, 3]
    midpoint[:, 11] = 0.5 * (midpoint[:, 0] + midpoint[:, 5])
    zero_one = (np.random.default_rng([2, 9]).random((6, 12)) < 0.4).astype(float)
    negated = np.random.default_rng([2, 13]).standard_normal((6, 12))
    negated[:, 11] = -negated[:, 0]
    return [duplicated, midpoint, zero_one, negated]


def _orderk_runs(np) -> list:
    """(A, property) of each orderk_enum command of seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            commands = workloads.WORKLOADS["orderk_enum"].commands(1)
        finally:
            os.chdir(here)
    return [(command.A, command.argv[command.argv.index("--property") + 1])
            for command in commands]


def _solve_and_certify_digest(rc, np, mats) -> dict:
    """A digest of ``solve_and_certify`` outputs, and its l1 pivots per LP.

    Forty right-hand sides planted on random supports of sizes 1 to 4 of each
    8x16 matrix; the digest covers x, the verdicts, t* and the witnesses.
    """
    import hashlib
    from rspcert import stats
    digest = hashlib.sha256()
    results = []
    with stats.collect() as counts:
        for i, A in enumerate(mats):
            rng = np.random.default_rng([4, 40 + i])
            planted = np.zeros((40, 16))
            for row in planted:
                S = rng.choice(16, size=int(rng.integers(1, 5)), replace=False)
                row[S] = rng.uniform(0.1, 1.0, size=S.size)
            results += [rc.solve_and_certify(A, A @ p) for p in planted]
    for x, verdict in results:
        cert = verdict.rsp
        digest.update(x.tobytes())
        digest.update(repr((verdict.unique, verdict.reason, verdict.rank_found,
                            verdict.augmented_full_column_rank, verdict.rank_marginal,
                            cert.holds, cert.support, cert.t_star)).encode())
        for witness in (cert.witness_eta, cert.witness_y):
            if witness is not None:
                digest.update(witness.tobytes())
    return {"sha256": digest.hexdigest(), "l1_pivots_per_lp": counts["l1.pivots"] / counts["l1.lps"]}


def _steps(counts) -> dict:
    """Lockstep steps of the stacked engine, and their occupancy, from a ``stats`` scope.

    A step is one stacked pivot of the LPs still pivoting in a chunk; the
    occupancy is their share of the chunk's tableaux, over all steps.
    """
    return {"steps": counts["simplex.steps"],
            "occupancy": counts["simplex.step_lps"] / max(1, counts["simplex.step_slots"])}


def _orderk_pass(work: Path):
    """One pass of the orderk_enum commands of seed 1 with inputs in ``work``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from rspcert import cli
    here = os.getcwd()
    os.chdir(work)
    try:
        commands = workloads.WORKLOADS["orderk_enum"].commands(1)
    finally:
        os.chdir(here)

    def one_pass():
        os.chdir(work)
        try:
            for command in commands:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(command.argv)
        finally:
            os.chdir(here)
    return one_pass


def _lockstep(rc, mats, repeat: int) -> dict:
    """Steps, occupancy and time of the stacked engine on the size-3 margin LPs and on a pass.

    The pass also gives its LPs and the started LPs that the LP core
    re-solved two-phase (``fallbacks``).
    """
    from rspcert import rsp, stats
    supports = list(combinations(range(16), 3))
    with stats.collect() as margin:
        [list(rsp.check_rsp_batch(A, supports)) for A in mats]
    count = len(supports) * len(mats)
    with tempfile.TemporaryDirectory() as work:
        one_pass = _orderk_pass(Path(work))
        with stats.collect() as orderk:
            one_pass()
        pass_s = _best(one_pass, repeat)
    lps = orderk["simplex.lps"]
    return {"margin_k3": {**_steps(margin), "lps": count,
                          "steps_per_lp": margin["simplex.steps"] / count},
            "orderk_enum_pass": {**_steps(orderk), "lps": lps,
                                 "steps_per_lp": orderk["simplex.steps"] / lps,
                                 "pass_s": pass_s, "fallbacks": orderk["simplex.two_phase"]}}


def sweep(tree: Path, caps: list[int], repeat: int) -> dict:
    """``measure`` at each stack byte cap, each in a fresh interpreter, with its peak RSS."""
    out = {}
    for cap in caps:
        proc = subprocess.run([sys.executable, __file__, "--tree", str(tree), "--cap", str(cap),
                               "--repeat", str(repeat)],
                              capture_output=True, text=True, check=True)
        out[str(cap)] = json.loads(proc.stdout)
    return out


def _host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to merge the figures into")
    parser.add_argument("--tree", type=Path, help="source tree to measure (holds src/rspcert)")
    parser.add_argument("--label", help="name of the measured tree in the JSON file")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--sweep", help="KIB,...: measure the tree at each stack byte cap")
    parser.add_argument("--cap", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--e2e", nargs="+", metavar="ARG",
                        help="LABEL WORKLOAD RESULT...: store perfbench medians instead")
    args = parser.parse_args()
    if args.cap is not None:
        # One cap of a sweep: print its figures for the parent process.
        out = measure(args.tree.resolve(), args.repeat, args.cap)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(out))
        return 0
    if args.out is None:
        parser.error("--out is required")
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    if args.e2e:
        label, workload, *files = args.e2e
        runs = [json.loads(Path(f).read_text().strip().splitlines()[-1]) for f in files]
        values = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
        doc.setdefault("end_to_end", {}).setdefault(workload, {})[label] = {
            "runs": len(runs), "values": values,
            "median": {name: statistics.median(v) for name, v in values.items()},
            "spread": {name: _spread(v) for name, v in values.items() if len(v) > 1},
            "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs]}
    elif args.sweep:
        caps = [int(c) for c in args.sweep.split(",")]
        doc.setdefault("cap_sweep", {})[args.label] = sweep(args.tree.resolve(), caps, args.repeat)
    else:
        import numpy as np
        doc.setdefault("layers", {})[args.label] = measure(args.tree.resolve(), args.repeat)
        doc["host"] = _host() | {"numpy": np.__version__}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
