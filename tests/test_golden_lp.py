"""Golden digests of individual LP solves, and cross-checks of the started margin LPs.

Every certificate rests on the LP core: the margin LP behind each
range-space check and the feasibility LP behind each sparsest-support probe.
Each LP is reduced to its status, its pivot count and its solution (floats at
12 significant digits), and a sha256 over those rows is compared with a
digest recorded from an earlier build.  A digest that changes means some LP
took another pivot path or reached another point.  The certifier solves the
margin LP of a full-rank support in null-space coordinates, mostly started
in phase 2, so its optima are also checked against the two-phase solve of
the full LP, exact rationals and scipy, including on order-K runs that broke
down while those LPs ran phase 1.
"""

import hashlib
import json
from itertools import combinations

import numpy as np
import pytest

from rspcert import (OPTIMAL, StandardLp, check_rsp_at, complement, linalg, simplex, solve,
                     verify_rsp_witness)
from rspcert.cli import main
from rspcert.rsp import check_rsp_batch
from rspcert.simplex import LpSolution, solve_batch

from conftest import planted_system, write_csv_matrix
from rational_lp import rational_feasible


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _r12(v):
    return [float(f"{t:.12g}") for t in np.asarray(v, dtype=float).reshape(-1)]


def _margin_matrices(first=0, stop=2):
    return [np.random.default_rng([2026, i]).standard_normal((8, 16)) for i in range(first, stop)]


def margin_lp(A, S) -> StandardLp:
    """The margin LP of ``check_rsp_at``, written out independently.

    min t + 1 s.t. A_S^T y = 1, A_j^T y - (t + 1) + s_j = -1 off S, with the
    free y split as y+ - y-: variables [y+, t + 1, s, y-], all nonnegative.
    """
    m, n = A.shape
    Sc = complement(S, n)
    k, kc = len(S), len(Sc)
    B = np.zeros((n, 2 * m + 1 + kc))
    B[:k, :m] = A[:, list(S)].T
    B[k:, :m] = A[:, list(Sc)].T
    B[k:, m] = -1.0
    B[k:, m + 1:-m] = np.eye(kc)
    B[:, -m:] = -B[:, :m]
    cost = np.zeros(2 * m + 1 + kc)
    cost[m] = 1.0
    return StandardLp(cost, B, np.concatenate([np.ones(k), -np.ones(kc)]))


def _lp_row(sol, n_y=None):
    # With ``n_y``, the solution of a margin LP: its x is reported as the
    # folded y = y+ - y-.
    row = {"status": sol.status, "pivots": sol.pivots}
    if sol.status == OPTIMAL:
        row["objective"] = _r12(sol.objective_value)
        row["x"] = _r12(sol.x if n_y is None else sol.x[:n_y] - sol.x[-n_y:])
    return row


def margin_rows(solver, certifier):
    """One row per margin LP, sizes 1-3, of two seeded 8x16 matrices.

    ``solver`` maps a list of LPs of one shape to their solutions, and
    ``certifier`` a matrix and a list of supports of one size to their
    range-space certificates.
    """
    rows = []
    for i, A in enumerate(_margin_matrices()):
        for k in (1, 2, 3):
            supports = list(combinations(range(16), k))
            sols = solver([margin_lp(A, S) for S in supports])
            for S, sol, cert in zip(supports, sols, certifier(A, supports)):
                rows.append({"matrix": i, "support": S, **_lp_row(sol, n_y=8),
                             "holds": cert.holds.value,
                             "t_star": None if cert.t_star is None else _r12(cert.t_star),
                             "y": None if cert.witness_y is None else _r12(cert.witness_y)})
    return rows


def feasibility_rows(solver):
    """One row per feasibility LP A_S z = b, z >= 0, sizes 1-4, of a planted 10x20 system."""
    A, b, _ = planted_system(np.random.default_rng([2026, 7]), 10, 20, 4)
    rows = []
    for k in (1, 2, 3, 4):
        supports = list(combinations(range(20), k))
        sols = solver([StandardLp(np.zeros(k), A[:, list(S)], b) for S in supports])
        rows += [{"support": S, **_lp_row(sol)} for S, sol in zip(supports, sols)]
    return rows


def _one_by_one(lps):
    return [solve(lp) for lp in lps]


def _certify_one_by_one(A, supports):
    return [check_rsp_at(A, S) for S in supports]


def _certify_batched(A, supports):
    return list(check_rsp_batch(A, supports))


# "alone" solves each LP on its own; "batched" solves each size's LPs as one
# stack, chunk by chunk, and certifies each size's supports as one batch.
PATHS = {"alone": (_one_by_one, _certify_one_by_one),
         "batched": (solve_batch, _certify_batched)}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_margin_lps_are_pinned(path):
    rows = margin_rows(*PATHS[path])
    assert len(rows) == 2 * (16 + 120 + 560)
    assert _digest(rows) == MARGIN_DIGEST


@pytest.mark.parametrize("path", sorted(PATHS))
def test_feasibility_lps_are_pinned(path):
    rows = feasibility_rows(PATHS[path][0])
    assert len(rows) == 20 + 190 + 1140 + 4845
    assert _digest(rows) == FEASIBILITY_DIGEST


def _same(a: LpSolution, b: LpSolution) -> bool:
    fields = ("x", "y", "reduced_costs", "ray")
    return (a.status == b.status and a.pivots == b.pivots
            and a.objective_value == b.objective_value
            and all((getattr(a, f) is None and getattr(b, f) is None)
                    or np.array_equal(getattr(a, f), getattr(b, f)) for f in fields))


def _chunk_len(lp: StandardLp) -> int:
    """LPs of this shape that ``solve_batch`` pivots as one stacked chunk."""
    m, n = lp.constraints.shape
    return linalg._STACK_BYTES // simplex.tableau_bytes(m, n)


def test_a_result_does_not_depend_on_its_batch():
    # Two and a half chunks' worth of margin LPs of size 3: LP 10 sits
    # mid-chunk, LPs ``chunk - 1`` and ``chunk`` on either side of a
    # boundary, and the last LP in a part-filled chunk.  Each must come out
    # bit for bit as when solved alone, and in any order.
    A = _margin_matrices()[1]
    supports = list(combinations(range(16), 3))
    chunk = _chunk_len(margin_lp(A, supports[0]))
    count = 2 * chunk + chunk // 2
    assert chunk >= 20 and count <= len(supports)
    lps = [margin_lp(A, S) for S in supports[:count]]
    alone = [solve(lp) for lp in lps]
    assert {sol.status for sol in alone} == {"optimal"}
    forward = solve_batch(lps)
    backward = solve_batch(lps[::-1])[::-1]
    for i in (0, 10, chunk - 1, chunk, count - 1):
        assert _same(forward[i], alone[i]) and _same(backward[i], alone[i]), i
    assert all(_same(f, a) and _same(b, a) for f, a, b in zip(forward, alone, backward))


def test_a_mixed_batch_keeps_each_result():
    # Feasible and infeasible, few and many pivots, stacked together.
    A, b, _ = planted_system(np.random.default_rng([2026, 7]), 10, 20, 4)
    lps = [StandardLp(np.zeros(4), A[:, list(S)], b)
           for S in list(combinations(range(20), 4))[:300]]
    lps.insert(150, StandardLp(np.zeros(4), A[:, [0, 1, 2, 3]], A[:, [0, 1, 2, 3]] @ np.ones(4)))
    batched = solve_batch(lps)
    assert {sol.status for sol in batched} == {"optimal", "infeasible"}
    assert all(_same(s, solve(lp)) for s, lp in zip(batched, lps))


def test_a_batch_reports_a_pivot_limit_for_its_lp_only():
    A = _margin_matrices()[0]
    lps = [margin_lp(A, S) for S in [(0, 1), (2, 3), (4, 5)]]
    alone = [solve(lp) for lp in lps]
    limit = sorted(sol.pivots for sol in alone)[1]
    assert any(sol.pivots > limit for sol in alone)
    results = solve_batch(lps, max_pivots=limit)
    for sol, result in zip(alone, results):
        if sol.pivots > limit:
            assert str(result) == f"pivot limit {limit} reached"
        else:
            assert _same(result, sol)
    # More LPs than one chunk holds: LPs of both chunks reach the limit.
    supports = list(combinations(range(16), 3))
    chunk = _chunk_len(margin_lp(A, supports[0]))
    lps = [margin_lp(A, S) for S in supports[:chunk + chunk // 2]]
    assert len(lps) > chunk
    alone = [solve(lp) for lp in lps]
    limit = sorted(sol.pivots for sol in alone)[len(lps) // 2]
    assert sum(sol.pivots > limit for sol in alone[:chunk]) >= 2
    assert sum(sol.pivots > limit for sol in alone[chunk:]) >= 2
    results = solve_batch(lps, max_pivots=limit)
    for sol, result in zip(alone, results):
        if sol.pivots > limit:
            assert str(result) == f"pivot limit {limit} reached"
        else:
            assert _same(result, sol)


def test_started_margin_lps_match_the_two_phase_solve():
    # The certifier solves each full-rank margin LP in null-space
    # coordinates, from a constructed feasible basis in phase 2 alone.  Its
    # t* must match the two-phase solve of the full LP, every pinned LP must
    # reach the same status, and
    # every witness, which may be another point of a degenerate optimal face,
    # must re-verify.
    started = 0
    for A in _margin_matrices():
        for k in (1, 2, 3):
            supports = list(combinations(range(16), k))
            two_phase = solve_batch([margin_lp(A, S) for S in supports])
            for S, sol, cert in zip(supports, two_phase, check_rsp_batch(A, supports)):
                assert cert.lp_status == sol.status == OPTIMAL
                assert abs(cert.t_star - (sol.objective_value - 1.0)) <= 1e-9, S
                if cert.witness_y is not None:
                    assert verify_rsp_witness(A, S, cert.witness_eta, cert.witness_y)
                started += 1
    assert started == 2 * (16 + 120 + 560)


def _shifted_optimum_is(lp: StandardLp, column: int, value: float, delta: float = 1e-6) -> bool:
    """Whether min x[column] over the LP lies within ``delta`` of ``value``, decided exactly.

    Adds the row x[column] + u = bound with a slack u >= 0: the LP must stay
    feasible at bound = value + delta and become infeasible at value - delta.
    """
    rows, cols = lp.constraints.shape
    cap = np.zeros(cols + 1)
    cap[[column, cols]] = 1.0
    B = np.vstack([np.hstack([lp.constraints, np.zeros((rows, 1))]), cap]).tolist()
    return (rational_feasible(B, [*lp.rhs.tolist(), value + delta])
            and not rational_feasible(B, [*lp.rhs.tolist(), value - delta]))


def test_started_margin_lps_match_exact_rationals():
    # Small integer matrices, some with a column that repeats a multiple of
    # another: t* of every feasible margin LP is pinned to within 1e-6 by the
    # exact rational oracle, and an infeasible one must be infeasible there.
    rng = np.random.default_rng([2026, 40])
    statuses = set()
    for _ in range(6):
        A = rng.integers(-3, 4, size=(3, 6)).astype(float)
        A[:, 5] = rng.choice([-1.0, 2.0]) * A[:, 0]
        for S in [(), (1,), (0, 5), (1, 3), (0, 2, 4), (1, 2, 3)]:
            lp = margin_lp(A, S)
            cert = check_rsp_at(A, S)
            statuses.add(cert.lp_status)
            if cert.lp_status == OPTIMAL:
                assert _shifted_optimum_is(lp, A.shape[0], cert.t_star + 1.0), (A, S)
            else:
                assert not rational_feasible(lp.constraints.tolist(), lp.rhs.tolist())
    assert statuses == {OPTIMAL, "infeasible"}


def _scipy_t_star(A, S) -> float | None:
    """t* of the margin LP at S by scipy's HiGHS, which shares no code with rspcert.

    None when the LP is infeasible (A_S^T y = 1 is inconsistent).
    """
    from scipy.optimize import linprog

    m, n = A.shape
    Sc = complement(S, n)
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    res = linprog(cost, A_ub=np.hstack([A[:, list(Sc)].T, -np.ones((len(Sc), 1))]),
                  b_ub=np.zeros(len(Sc)), A_eq=np.hstack([A[:, list(S)].T, np.zeros((len(S), 1))]),
                  b_eq=np.ones(len(S)), bounds=[(None, None)] * m + [(-1.0, None)],
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.status in (0, 2)
    return float(res.fun) if res.status == 0 else None


def _differential_cases():
    """(name, matrix, supports) of the margin LPs' differential test."""
    rng = np.random.default_rng([2026, 60])
    gaussian = rng.standard_normal((8, 16))
    dependent = rng.standard_normal((8, 16))
    dependent[7] = dependent[0]
    deficient = rng.standard_normal((6, 12))
    deficient[:, 10] = -2.0 * deficient[:, 5]
    deficient[:, 11] = deficient[:, 3] + deficient[:, 4]
    deficient[:, 9] = deficient[:, 2]
    deficient[:, 8] = 0.5 * (deficient[:, 6] + deficient[:, 7])
    square = rng.standard_normal((4, 8))
    low_rank = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 9))
    degenerate = rng.standard_normal((5, 10))
    degenerate[:, 0] = 0.0
    degenerate[:, 9] = degenerate[:, 1] - degenerate[:, 2] + 1e-14 * rng.standard_normal(5)

    def every(n, k, step=1):
        return list(combinations(range(n), k))[::step]
    # Sizes above the rank of A and supports with dependent columns take
    # their null-space LP from an SVD of A_S; their equalities may be
    # inconsistent, and then a checked witness makes them infeasible.
    return [("gaussian", gaussian, every(16, 1) + every(16, 2, 2) + every(16, 3, 8)),
            ("dependent rows", dependent, every(16, 1) + every(16, 2, 4) + every(16, 3, 16)),
            ("rank deficient", deficient, [(3, 4, 11), (5, 10), (0, 5, 10), (2, 9), (0, 2, 9),
                                           (6, 7, 8), (3, 11), (1, 4, 11)] + every(12, 2, 3)),
            ("k = rank", square, every(8, 4, 2)),
            ("k = rank < m", low_rank, every(9, 3, 3) + every(9, 4, 6)),
            ("zero and nearly dependent columns", degenerate,
             every(10, 1) + every(10, 2) + every(10, 3, 2) + every(10, 4, 4) + every(10, 5, 4)
             + every(10, 6, 3))]


_INFEASIBLE_SOME = ("rank deficient", "k = rank < m", "zero and nearly dependent columns")


@pytest.mark.parametrize("case", range(6))
def test_margin_t_star_matches_scipy(case):
    # t* of every support, batched as the enumerations batch them, against
    # HiGHS on the margin LP as the paper states it, to 1e-9; "infeasible"
    # must be infeasible there.  Every yes witness re-verifies on the raw A,
    # and each certificate is bit for bit the one its support gets alone.
    name, A, supports = _differential_cases()[case]
    yes, statuses = 0, set()
    for k in sorted({len(S) for S in supports}):
        block = [S for S in supports if len(S) == k]
        for S, cert in zip(block, check_rsp_batch(A, block)):
            alone = check_rsp_at(A, S)
            assert alone.t_star == cert.t_star and alone.holds is cert.holds, (name, S)
            for field in ("witness_y", "witness_eta"):
                a, c = getattr(alone, field), getattr(cert, field)
                assert a is c is None or np.array_equal(a, c), (name, S, field)
            want = _scipy_t_star(A, S)
            statuses.add(cert.lp_status)
            if want is None:
                assert cert.lp_status == "infeasible", (name, S)
                continue
            assert abs(cert.t_star - want) <= 1e-9, (name, S, cert.t_star, want)
            if cert.holds.value == "yes":
                assert verify_rsp_witness(A, S, cert.witness_eta, cert.witness_y), (name, S)
                yes += 1
            elif cert.holds.value == "marginal":
                assert cert.witness_eta.max() <= 1.0
    assert yes > 0
    assert statuses == ({OPTIMAL, "infeasible"} if name in _INFEASIBLE_SOME else {OPTIMAL})


# Order-K runs that stopped with exit 1 while margin LPs ran phase 1 (a
# failed re-check for [6, 1, 11], an unbounded phase-1 report for
# [7, 1, 4] under rsp), with the verdict each gives now.
FORMERLY_FAILING = [([6, 1, 11], "wrsp", [5, 14]), ([6, 1, 11], "pwrsp", [0, 1, 7]),
                    ([7, 1, 4], "rsp", [0, 1, 8]), ([7, 1, 4], "pwrsp", [0, 1, 8])]


def test_formerly_failing_commands_give_verdicts(tmp_path, capsys):
    path, report = tmp_path / "A.csv", tmp_path / "report.json"
    for seed, prop, counterexample in FORMERLY_FAILING:
        A = np.random.default_rng(seed).standard_normal((8, 16))
        write_csv_matrix(path, A)
        code = main(["order-k", str(path), "--k", "3", "--property", prop, "--oracle",
                     "--json", str(report)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (3, ""), (seed, prop)
        verdicts = json.loads(report.read_text())["verdicts"]
        assert verdicts["recovery"]["counterexample"] == counterexample
        assert verdicts["oracle"]["failing_support"] == counterexample
        t_star = check_rsp_at(A, counterexample).t_star
        assert t_star >= 1.0 - linalg.DEFAULT_TOLERANCES.feas_tol
        assert abs(_scipy_t_star(A, counterexample) - t_star) <= 1e-8


# Recorded from the build whose certifier solves the margin LP of every
# full-rank support in null-space coordinates.  Against the build that
# started the full margin LP at a constructed feasible basis no verdict moved:
# 231 witnesses moved to other points of degenerate optimal faces, and the
# 12th digit of 3 t* and of 24 other witnesses moved.  The solver rows,
# solved two-phase, are those of the build that solved every LP on its own
# scalar tableau.
MARGIN_DIGEST = "27c7e9a07c18efed6cf98e0ab10929374d02f32163ef1537f4cffacc711f5de7"
# Recorded from the build that solved every LP on its own scalar tableau.
FEASIBILITY_DIGEST = "03bc16a1315a1aa1d52445f9532d277600ed2d7c8eff195cc6c759c5c315fe63"
