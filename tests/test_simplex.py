from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from rspcert import (INFEASIBLE, OPTIMAL, UNBOUNDED, CertificateUnavailable,
                     IterationLimit, LpSolution, StandardLp, check_rsp_at, linalg, rsp,
                     simplex, solve, verify_certificate)
from rspcert.linalg import DEFAULT_TOLERANCES
from rspcert.simplex import LpStack, solve_batch

from conftest import UNIQUE_A, UNIQUE_B
from rational_lp import rational_feasible
from test_golden_lp import _margin_matrices, _same, margin_lp


def test_forced_single_variable():
    sol = solve(StandardLp([1.0], [[1.0]], [1.0]))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0])
    assert sol.objective_value == pytest.approx(1.0)


def test_l1_objective_on_unique_system():
    sol = solve(StandardLp(np.ones(4), UNIQUE_A, UNIQUE_B))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-10)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-10)
    assert verify_certificate(StandardLp(np.ones(4), UNIQUE_A, UNIQUE_B), sol)


def test_sign_contradiction_is_infeasible():
    sol = solve(StandardLp([0.0], [[1.0]], [-1.0]))
    assert sol.status == INFEASIBLE


def test_unbounded_carries_a_ray():
    lp = StandardLp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    sol = solve(lp)
    assert sol.status == UNBOUNDED
    ray = sol.ray
    assert ray is not None
    # The ray keeps feasibility and improves the objective.
    assert np.abs(lp.constraints @ ray).max() < 1e-9
    assert ray.min() >= -1e-9
    assert lp.objective @ ray < 0


def test_verify_rejects_perturbed_primal():
    lp = StandardLp(np.ones(4), UNIQUE_A, UNIQUE_B)
    sol = solve(lp)
    bad = LpSolution(status=OPTIMAL, x=sol.x + 1e-3, y=sol.y,
                     reduced_costs=sol.reduced_costs,
                     objective_value=sol.objective_value)
    assert verify_certificate(lp, sol)
    assert not verify_certificate(lp, bad)


def test_verify_requires_optimal_status():
    assert not verify_certificate(StandardLp([0.0], [[1.0]], [-1.0]),
                                  LpSolution(status=INFEASIBLE))


def test_verify_accepts_hand_built_optimal_pair():
    # Analytic primal/dual pair for the l1 objective on the unique system.
    lp = StandardLp(np.ones(4), UNIQUE_A, UNIQUE_B)
    x = np.array([0.5, 0.5, 0.0, 0.0])
    y = np.array([1.0, -1.0, 0.0])
    pair = LpSolution(status=OPTIMAL, x=x, y=y,
                      reduced_costs=lp.objective - lp.constraints.T @ y,
                      objective_value=1.0)
    assert verify_certificate(lp, pair)


def test_free_variable_reports_net_value():
    # min |shift| style problem: a free y split as y+ - y- over the variables
    # [y+, shift, y-], as the margin LP splits its y; the equality pins y to
    # a negative value, which y- carries.
    lp = StandardLp([0.0, 1.0, 0.0], [[1.0, 0.0, -1.0]], [-2.5])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x[0] - sol.x[2] == pytest.approx(-2.5, abs=1e-10)
    assert sol.x == pytest.approx([0.0, 0.0, 2.5], abs=1e-10)
    assert verify_certificate(lp, sol)


def test_iteration_limit_raises():
    lp = StandardLp(np.ones(4), UNIQUE_A, UNIQUE_B)
    with pytest.raises(IterationLimit, match="^pivot limit 1 reached$") as info:
        solve(lp, max_pivots=1)
    assert isinstance(info.value, CertificateUnavailable)


def test_an_optimum_that_fails_its_re_check_is_not_handed_out(monkeypatch):
    # l1 LPs; LP 0 is infeasible (its first row has positive entries and a
    # negative right-hand side), so the optimal LPs are a proper subset of
    # the stack.  A patched dual solve corrupts the duals of LP 2, which is
    # row 1 of the stacked dual solve and row 0 when LP 2 is solved alone.
    rng = np.random.default_rng([2026, 13])
    A = rng.standard_normal((6, 12))
    lps = [StandardLp(np.ones(12), A, A @ rng.uniform(0.0, 1.0, 12)) for _ in range(5)]
    B = A.copy()
    B[0] = np.abs(B[0])
    lps[0] = StandardLp(np.ones(12), B, np.append(-1.0, lps[0].rhs[1:]))
    clean = solve_batch(lps)
    assert [sol.status for sol in clean] == [INFEASIBLE] + [OPTIMAL] * 4
    real, row = np.linalg.solve, [1]

    def corrupted(M, b):
        y = real(M, b)
        y[row[0]] += 1e-3
        return y
    monkeypatch.setattr(np.linalg, "solve", corrupted)
    results = solve_batch(lps)
    assert type(results[2]) is CertificateUnavailable
    assert str(results[2]) == "optimal solve failed its certificate re-check"
    assert all(_same(a, b) for i, (a, b) in enumerate(zip(results, clean)) if i != 2)
    row[0] = 0
    with pytest.raises(CertificateUnavailable, match="^optimal solve failed its certificate re-check$"):
        solve(lps[2])


@pytest.mark.parametrize("target", [0, 1, 2])
def test_a_phase_1_unbounded_report_is_a_breakdown_of_its_lp_only(monkeypatch, target):
    # Phase 1's objective is bounded below by zero, so only a numerical
    # breakdown reports an unbounded direction there.  One is injected into
    # LP ``target`` of a stack whose LPs 0, 1 and 2 are optimal, infeasible
    # and unbounded: before phase 1 runs, column 0 of its tableau gets no
    # positive entry and the most negative reduced cost.
    rng = np.random.default_rng([2026, 14])
    c = np.append(np.ones(5), -2.0)
    lps = []
    for i in range(9):
        B = rng.standard_normal((3, 6))
        if i % 3 == 2:
            B[:, 5] = -B[:, 0]          # e_0 + e_5 is an improving ray
        p = B @ rng.uniform(0.0, 1.0, 6)
        if i % 4 == 1:
            B[0], p[0] = np.abs(B[0]), -1.0
        lps.append(StandardLp(c, B, p))
    clean = solve_batch(lps)
    assert [sol.status for sol in clean[:3]] == [OPTIMAL, INFEASIBLE, UNBOUNDED]
    run, slot = simplex._Tableaux.run, [target]

    def broken(self, active, allowed, max_pivots):
        if not hasattr(self, "phase_1_ran"):    # a two-phase solve's first run
            self.phase_1_ran = True
            self.T[slot[0], :-1, 0] = -1.0
            self.T[slot[0], -1, 0] = -1e3
        return run(self, active, allowed, max_pivots)
    monkeypatch.setattr(simplex._Tableaux, "run", broken)
    results = solve_batch(lps)
    assert type(results[target]) is IterationLimit
    assert str(results[target]) == "phase 1 reported an unbounded direction"
    assert all(_same(a, b) for i, (a, b) in enumerate(zip(results, clean)) if i != target)
    slot[0] = 0
    with pytest.raises(IterationLimit, match="^phase 1 reported an unbounded direction$"):
        solve(lps[target])


def test_determinism_bitwise():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((4, 9))
    x0 = np.abs(rng.standard_normal(9))
    lp = StandardLp(rng.standard_normal(9), B, B @ x0)
    first = solve(lp)
    second = solve(lp)
    assert first.status == second.status
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.y, second.y)
    assert first.pivots == second.pivots


def test_redundant_rows_get_zero_duals():
    # Duplicated constraint row: the dual weight pinned to the redundant row
    # must vanish so the certificate still verifies.
    B = np.array([[1.0, 1.0], [1.0, 1.0]])
    lp = StandardLp([1.0, 2.0], B, [1.0, 1.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert verify_certificate(lp, sol)


def _random_lp(rng, force_feasible):
    m = int(rng.integers(1, 7))
    n = int(rng.integers(2, 13))
    B = rng.integers(-5, 6, size=(m, n)).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    if force_feasible:
        x0 = rng.integers(0, 5, size=n).astype(float)
        p = B @ x0
    else:
        p = rng.integers(-5, 6, size=m).astype(float)
    return StandardLp(c, B, p)


def test_random_feasible_lps_all_certify():
    rng = np.random.default_rng(12)
    optimal = 0
    for _ in range(200):
        lp = _random_lp(rng, force_feasible=True)
        sol = solve(lp)
        assert sol.status in (OPTIMAL, UNBOUNDED)
        if sol.status == OPTIMAL:
            optimal += 1
            assert verify_certificate(lp, sol)
    assert optimal > 100  # most draws are bounded


def test_feasibility_matches_exact_rational_oracle():
    rng = np.random.default_rng(13)
    for _ in range(120):
        m, n = 3, 6
        B = rng.integers(-5, 6, size=(m, n)).astype(float)
        p = rng.integers(-5, 6, size=m).astype(float)
        sol = solve(StandardLp(np.zeros(n), B, p))
        exact = rational_feasible(B.tolist(), p.tolist())
        assert (sol.status != INFEASIBLE) == exact
    # Split margin LPs of small integer matrices whose last column is a
    # multiple of the first: supports holding both, or more columns than
    # rows, are dependent, and A_S^T y = 1 may have no solution.  An
    # infeasible margin LP is the "no" of the range-space check.
    statuses = set()
    for _ in range(20):
        A = rng.integers(-3, 4, size=(3, 6)).astype(float)
        A[:, 5] = rng.choice([-1.0, 1.0, 2.0]) * A[:, 0]
        for S in [(0, 5), (0, 2, 5), (1, 2, 3, 4), (0, 1, 2, 3, 5)]:
            lp = margin_lp(A, S)
            sol = solve(lp)
            exact = rational_feasible(lp.constraints.tolist(), lp.rhs.tolist())
            assert (sol.status != INFEASIBLE) == exact
            assert (check_rsp_at(A, S).lp_status != INFEASIBLE) == exact
            statuses.add(sol.status)
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_statuses_and_objectives_match_scipy():
    rng = np.random.default_rng(14)
    for _ in range(60):
        lp = _random_lp(rng, force_feasible=bool(rng.integers(0, 2)))
        sol = solve(lp)
        ref = linprog(lp.objective, A_eq=lp.constraints, b_eq=lp.rhs,
                      bounds=[(0, None)] * lp.objective.size, method="highs")
        if sol.status == OPTIMAL:
            assert ref.status == 0
            assert sol.objective_value == pytest.approx(ref.fun, abs=1e-7)
        elif sol.status == INFEASIBLE:
            assert ref.status == 2
        else:
            assert ref.status == 3


def test_degenerate_lp_terminates():
    # Heavily degenerate vertex (many tied basic feasible solutions at 0).
    B = np.array([
        [1.0, 1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 1.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 1.0, 1.0],
    ])
    lp = StandardLp([-1.0, 0.0, 0.0, 0.0, -2.0], B, [0.0, 0.0, 0.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-10)
    assert verify_certificate(lp, sol)


def test_lp_stack_takes_one_objective_and_shape():
    lp = StandardLp([1.0, 1.0], [[1.0, 2.0]], [1.0])
    stack = LpStack.of([lp, StandardLp([1.0, 1.0], [[3.0, 1.0]], [2.0])])
    assert stack.objective.shape == (2,)
    assert stack.constraints.shape == (2, 1, 2)
    for other in (StandardLp([1.0, 2.0], [[1.0, 2.0]], [1.0]),
                  StandardLp([1.0, 1.0], [[1.0, 2.0], [0.0, 1.0]], [1.0, 0.0])):
        with pytest.raises(ValueError, match="one objective"):
            LpStack.of([lp, other])


def test_dual_solve_falls_back_lp_by_lp_then_to_least_squares(monkeypatch):
    # No final basis here is singular, so a patched solve raises to reach
    # each fallback.  Column 11 repeats column 0: the margin LP at
    # (0, 1, 2, 3, 11) has a redundant row, whose artificial stays basic and
    # pins that row's dual to zero.  Each LP's duals differ from the others'.
    A = np.random.default_rng([2026, 12]).standard_normal((6, 12))
    A[:, 11] = A[:, 0]
    lps = [margin_lp(A, S) for S in [(0, 1, 2, 3, 11), (1, 2, 3, 4, 5), (5, 6, 7, 8, 9),
                                     (2, 4, 6, 8, 10)]]
    stacked = solve_batch(lps)
    assert all(sol.status == OPTIMAL for sol in stacked)
    assert stacked[0].y[4] == 0.0 and len({sol.y.tobytes() for sol in stacked}) == 4
    real, calls = np.linalg.solve, []

    def stack_singular(M, b):
        calls.append(len(M))
        if len(M) > 1:
            raise np.linalg.LinAlgError("singular matrix")
        return real(M, b)
    monkeypatch.setattr(np.linalg, "solve", stack_singular)
    retried = solve_batch(lps)
    assert calls == [4, 1, 1, 1, 1]
    for a, b in zip(stacked, retried):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def singular(M, b):
        raise np.linalg.LinAlgError("singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    least_squares = solve_batch(lps)
    assert all(np.array_equal(a.x, b.x) for a, b in zip(stacked, least_squares))
    assert all(verify_certificate(lp, sol) for lp, sol in zip(lps, least_squares))


def _verified_alone(B, p, c, sol, tol=DEFAULT_TOLERANCES) -> bool:
    """The per-LP certificate re-check, condition by condition, as reference."""
    if not isinstance(sol, LpSolution) or sol.status != OPTIMAL or sol.x is None or sol.y is None:
        return False
    x, y = sol.x, sol.y
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return False
    if np.abs(B @ x - p).max() > tol.feas_tol * max(1.0, float(np.abs(p).max())):
        return False
    if x.min() < -tol.feas_tol:
        return False
    s = c - B.T @ y
    if s.min() < -tol.feas_tol:
        return False
    if np.abs(x * s).max(initial=0.0) > tol.gap_tol:
        return False
    obj = float(c @ x)
    return not abs(obj - float(p @ y)) > tol.gap_tol * max(1.0, abs(obj))


def _altered(sol, x=None, y=None):
    return LpSolution(status=OPTIMAL, x=sol.x if x is None else x, y=sol.y if y is None else y,
                      objective_value=sol.objective_value, pivots=sol.pivots)


def _variants(rng, sol):
    """An optimal solution, then versions of it just inside and just past each check."""
    variants = [sol]
    n, m = sol.x.size, sol.y.size
    i, k = rng.integers(n), rng.integers(m)
    for scale in (0.3, 3.0):
        step = scale * DEFAULT_TOLERANCES.feas_tol
        variants.append(_altered(sol, x=sol.x + step * np.eye(n)[i]))     # residual
        variants.append(_altered(sol, y=sol.y + step * np.eye(m)[k]))     # dual
        variants.append(_altered(sol, y=sol.y - step * np.eye(m)[k]))
        x = sol.x.copy()
        x[i] = -step                                                       # sign
        variants.append(_altered(sol, x=x))
    variants.append(_altered(sol, x=np.where(np.arange(n) == i, np.nan, sol.x)))
    variants.append(_altered(sol, y=sol.y + 1e-3))
    return variants


@pytest.mark.parametrize("kind", ["margin", "l1", "free", "slack", "gap"])
def test_stacked_verify_agrees_with_the_per_lp_reference(kind):
    rng = np.random.default_rng([2026, 11])
    A = rng.standard_normal((6, 12))
    if kind == "margin":
        lps = [margin_lp(A, S) for S in [(0, 1), (2, 3), (4, 5), (6, 11), (7, 9)]]
    elif kind == "l1":
        lps = [StandardLp(np.ones(12), A, A @ rng.uniform(0.0, 1.0, 12)) for _ in range(5)]
    elif kind == "free":
        # A free y split as y+ - y- over [y+, t, y-]: a dual step moves the
        # reduced costs of the pair by opposite amounts, so the sign test
        # of one of the pair, |s| <= feas_tol on the free y, rejects it.
        lps = [StandardLp([0.0, 1.0, 0.0], [[1.0, 0.0, -1.0]], [b])
               for b in (-2.5, -0.5, 0.0, 0.7, 3.0)]
    elif kind == "slack":
        # x2 has no constraint and reduced cost 1: raising it breaks only
        # complementarity, the duality gap staying inside its relative bound.
        lps = [StandardLp([1.0, 1.0], [[1.0, 0.0]], [b]) for b in (40.0, 77.0, 100.0, 250.0, 1e3)]
        shift = [0.0, 2e-7]
    else:
        # Large duals of opposite signs and a zero objective: a residual
        # inside feas_tol breaks only the duality gap.
        lps = [StandardLp([1e3, -1e3], np.eye(2), [b, b]) for b in (0.5, 1.0, 1.5, 2.0, 3.0)]
        shift = [0.5e-8, 0.0]
    per_lp = [_variants(rng, solve(lp)) for lp in lps]
    if kind in ("slack", "gap"):
        for entries in per_lp:
            entries.append(_altered(entries[0], x=entries[0].x + shift))
    # Entries that never verify, on the last LP: not optimal, or a breakdown.
    per_lp[-1] += [LpSolution(status=INFEASIBLE, pivots=3),
                   LpSolution(status=UNBOUNDED, ray=np.ones(lps[0].objective.size)),
                   IterationLimit("pivot limit 1 reached")]
    stack = LpStack.of([lp for lp, entries in zip(lps, per_lp) for _ in entries])
    entries = [entry for entries in per_lp for entry in entries]
    want = [_verified_alone(B, p, stack.objective, sol)
            for B, p, sol in zip(stack.constraints, stack.rhs, entries)]
    # The optimal entries through the array check ``solve_batch`` runs on a
    # chunk's optima; every entry through the one-LP ``verify_certificate``.
    optimal = [i for i, sol in enumerate(entries) if isinstance(sol, LpSolution)
               and sol.status == OPTIMAL]
    got, _ = simplex._certified(stack.constraints[optimal], stack.rhs[optimal], stack.objective,
                                np.array([entries[i].x for i in optimal]),
                                np.array([entries[i].y for i in optimal]), DEFAULT_TOLERANCES)
    assert got.tolist() == [want[i] for i in optimal]
    assert len(optimal) < len(entries)
    assert True in want and False in want
    alone = [verify_certificate(StandardLp(stack.objective, B, p), sol)
             for B, p, sol in zip(stack.constraints, stack.rhs, entries)]
    assert alone == want


def _margin_stack(matrices, k):
    """The null-space margin LPs of every size-k support of each matrix, and their starts.

    The stacks of the matrices, all 8x16 and of full row rank, are concatenated.
    """
    stacks = []
    for A in matrices:
        block = np.array(list(combinations(range(A.shape[1]), k)), dtype=np.intp)
        (space,), refuted = rsp._margin_stacks(A, block, DEFAULT_TOLERANCES)
        assert space.at.size == len(block) and not refuted.size
        stacks.append(rsp._null_space_lps(space.G, space.eta0, DEFAULT_TOLERANCES.rank_tol))
    lps = LpStack(stacks[0][0].objective, np.concatenate([s.constraints for s, _ in stacks]),
                  np.concatenate([s.rhs for s, _ in stacks]))
    return lps, np.concatenate([basis for _, basis in stacks])


def _started_chunk_len(lps) -> int:
    _, m, n = lps.constraints.shape
    return linalg._STACK_BYTES // simplex.tableau_bytes(m, n, phase1=False)


def test_started_and_unstarted_lps_keep_each_result_in_one_stack(monkeypatch):
    # Two and a half chunks' worth of started margin LPs of size 3, with
    # every fourth LP given no start, one start that is not feasible (LP 1:
    # v+ in place of v-, at -1), one whose basis matrix is singular (LP 2: a
    # column twice), one whose started solve the re-check refuses (LP 3) and
    # one whose started solve breaks down (LP 5); the last two are injected
    # into the started chunks' results.  Each LP must come out bit for bit as
    # when solved alone with its own row of the bases, and in any order; LPs
    # 1, 2, 3 and 5 and the unstarted ones come out as the two-phase solve
    # gives them.
    lps, basis = _margin_stack(_margin_matrices() + _margin_matrices(2, 3), 3)
    chunk = _started_chunk_len(lps)
    count = 2 * chunk + chunk // 2 + (2 * chunk + chunk // 2) // 3
    assert chunk >= 100 and count <= len(basis)
    lps, basis = lps[:count], basis[:count].copy()
    basis[::4] = -1
    basis[1, -1] -= 1                                # v- to v+
    basis[2, 1] = basis[2, 0]
    assert not simplex._started_tableaux(lps[1:3], basis[1:3])[1].any()
    started = basis[:, 0] >= 0
    assert started.sum() > 2 * chunk and started[[3, 5]].all()
    two_phase = solve_batch(lps)
    refused, broken = lps.constraints[3], lps.constraints[5]
    real = simplex._solve_chunk
    failed = []

    def solve_chunk(chunk, tab, *args):
        results = real(chunk, tab, *args)
        if tab.T.shape[2] == chunk.constraints.shape[2] + 1:     # started, no artificials
            for i, B in enumerate(chunk.constraints):
                if np.array_equal(B, refused):
                    results[i] = CertificateUnavailable("injected refusal")
                elif np.array_equal(B, broken):
                    results[i] = IterationLimit("injected breakdown")
                else:
                    continue
                failed.append(i)
        return results
    monkeypatch.setattr(simplex, "_solve_chunk", solve_chunk)
    alone = [solve_batch(lps[i:i + 1], basis=basis[i:i + 1])[0] for i in range(count)]
    assert len(failed) == 2
    for i in (1, 2, 3, 5, *np.flatnonzero(~started)):
        assert _same(alone[i], two_phase[i]), i
    assert {sol.status for sol in alone} == {OPTIMAL}
    assert (np.mean([alone[i].pivots for i in np.flatnonzero(started)[4:]])
            < np.mean([sol.pivots for sol in two_phase]) / 2)
    forward = solve_batch(lps, basis=basis)
    backward = solve_batch(lps[::-1], basis=basis[::-1])[::-1]
    assert len(failed) == 6
    assert all(_same(f, a) and _same(b, a) for f, a, b in zip(forward, alone, backward))


def test_a_started_batch_reports_a_pivot_limit_for_its_lp_only():
    # More started LPs than one chunk holds: LPs of both chunks reach the limit.
    lps, basis = _margin_stack(_margin_matrices(), 3)
    chunk = _started_chunk_len(lps)
    count = chunk + chunk // 2
    lps, basis = lps[:count], basis[:count]
    assert (basis[:, 0] >= 0).all()
    alone = [solve_batch(lps[i:i + 1], basis=basis[i:i + 1])[0] for i in range(count)]
    limit = sorted(sol.pivots for sol in alone)[count // 2]
    assert sum(sol.pivots > limit for sol in alone[:chunk]) >= 2
    assert sum(sol.pivots > limit for sol in alone[chunk:]) >= 2
    for sol, result in zip(alone, solve_batch(lps, max_pivots=limit, basis=basis)):
        if sol.pivots > limit:
            assert str(result) == f"pivot limit {limit} reached"
        else:
            assert _same(result, sol)


def _negated_rows(lps, rng, started=False):
    """The stack with a random set of each LP's rows of nonzero right-hand side negated.

    With ``started`` (LPs that start at a basis) any row may be negated, and
    each LP has at least one negated row.
    """
    flip = rng.random(lps.rhs.shape) < 0.5
    if started:
        flip[np.arange(len(flip)), rng.integers(flip.shape[1], size=len(flip))] = True
    else:
        flip &= lps.rhs != 0.0
    signs = np.where(flip, -1.0, 1.0)
    return LpStack(lps.objective, lps.constraints * signs[:, :, None], lps.rhs * signs), flip


def _same_up_to_row_signs(a, b, flip) -> bool:
    """Whether b, the solution after negating the rows ``flip``, is a with those duals negated.

    The duals are compared by value: a dual that is exactly zero may change
    the sign of its zero.
    """
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if (a.status, a.pivots, a.objective_value) != (b.status, b.pivots, b.objective_value):
        return False
    if a.status != OPTIMAL:
        return a.ray is None and b.ray is None or np.array_equal(a.ray, b.ray)
    return (np.array_equal(a.x, b.x) and np.all(b.y == np.where(flip, -a.y, a.y))
            and np.all(a.reduced_costs == b.reduced_costs))


def test_negating_rows_negates_only_their_duals():
    # Phase 1 negates each row of negative right-hand side, so negating a row
    # of nonzero right-hand side leaves its tableau, and with it the status,
    # pivots and x, bit for bit; the duals, solved on the raw rows, negate on
    # exactly the negated rows.  The same holds for a started LP, whose
    # tableau M^-1 [B | p] does not see the signs of any of its rows.  Some
    # stacks repeat their first row negated: it is redundant, so its
    # artificial stays basic and pins its dual to zero.
    rng = np.random.default_rng([2026, 50])
    statuses, pinned, compared = set(), 0, 0
    for m, n, redundant in ((3, 7, False), (5, 10, False), (4, 9, True), (2, 6, True)):
        for _ in range(3):
            B = rng.standard_normal((30, m, n))
            x0 = rng.uniform(0.0, 1.0, (30, n)) * (rng.random((30, n)) < 0.5)
            p = np.einsum("bij,bj->bi", B, x0)
            p[::5] = rng.standard_normal((6, m))
            if redundant:
                B = np.concatenate([B, -B[:, :1]], axis=1)
                p = np.concatenate([p, -p[:, :1]], axis=1)
            lps = LpStack(rng.standard_normal(n), B, p)
            flipped, flip = _negated_rows(lps, rng)
            for a, b, f in zip(solve_batch(lps), solve_batch(flipped), flip):
                assert _same_up_to_row_signs(a, b, f)
                statuses.add(getattr(a, "status", None))
                pinned += redundant and a.status == OPTIMAL and a.y[-1] == 0.0
                compared += f.any()
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert pinned > 0 and compared > 300
    lps, basis = _margin_stack(_margin_matrices()[:1], 2)
    flipped, flip = _negated_rows(lps, rng, started=True)
    assert flip.any(axis=1).all() and (basis[:, 0] >= 0).all()
    for a, b, f in zip(solve_batch(lps, basis=basis), solve_batch(flipped, basis=basis), flip):
        assert _same_up_to_row_signs(a, b, f)


def test_a_started_lp_can_be_unbounded_optimal_at_its_start_or_stop_at_the_limit():
    # min -x0 over one row: x0 - x1 = 1 from x0 is unbounded along (1, 1);
    # x0 + x1 = 1 is optimal at x0 with no pivot, and from x1 needs one pivot.
    lps = LpStack(np.array([-1.0, 0.0]), np.array([[[1.0, -1.0]], [[1.0, 1.0]], [[1.0, 1.0]]]),
                  np.ones((3, 1)))
    basis = np.array([[0], [0], [1]])
    for max_pivots in (None, 0):
        results = solve_batch(lps, max_pivots=max_pivots, basis=basis)
        for i, result in enumerate(results):
            alone = solve_batch(lps[i:i + 1], max_pivots=max_pivots, basis=basis[i:i + 1])[0]
            if isinstance(alone, IterationLimit):
                assert type(result) is IterationLimit and str(result) == str(alone)
            else:
                assert _same(result, alone)
        unbounded, at_start, last = results
        assert (unbounded.status, unbounded.pivots) == (UNBOUNDED, 0)
        ray = unbounded.ray
        assert ray.tolist() == [1.0, 1.0]
        assert lps.constraints[0] @ ray == [0.0] and ray.min() >= 0.0
        assert lps.objective @ ray < 0.0
        assert (at_start.status, at_start.pivots, at_start.x.tolist()) == (OPTIMAL, 0, [1.0, 0.0])
        if max_pivots is None:
            assert (last.status, last.pivots, last.x.tolist()) == (OPTIMAL, 1, [1.0, 0.0])
        else:
            assert type(last) is IterationLimit and str(last) == "pivot limit 0 reached"
