from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from rspcert import (DEFAULT_TOLERANCES, INFEASIBLE, OPTIMAL, CertificateUnavailable,
                     FailureReason, Infeasible, NonpositiveWeight, NotASolution,
                     NotNonnegative, ToleranceConfig,
                     Unbounded, Verdict, augmented_rank, certify_uniqueness, check_rsp_at,
                     lp_sparsest_pipeline, rank, rsp, simplex,
                     solve_and_certify, solve_l1, stats, support_of,
                     verify_rsp_witness)

from conftest import (DENSE_A, DENSE_B, DENSE_X, TIED_A, TIED_B, TIED_X_FULL,
                      TIED_X_SPARSE, TRIPLE_A, TRIPLE_B, TRIPLE_WITNESS_ETA,
                      TRIPLE_WITNESS_Y, TRIPLE_X3, UNIQUE_A, UNIQUE_B,
                      UNIQUE_WITNESS_ETA, UNIQUE_WITNESS_Y, UNIQUE_X,
                      planted_system)
from test_golden_lp import margin_lp


# ---------------------------------------------------------------- support_of

def test_support_of_basic():
    assert support_of(UNIQUE_X) == (0, 1)


def test_support_of_zero_vector():
    assert support_of(np.zeros(5)) == ()


def test_support_of_drops_subthreshold_entries():
    assert support_of(np.array([1e-12, 1.0, 0.0])) == (1,)


def test_support_of_rejects_negative_entries():
    with pytest.raises(NotNonnegative):
        support_of(np.array([1.0, -1e-6]))


# -------------------------------------------------------------- check_rsp_at

def test_certifying_support_yields_valid_witness():
    cert = check_rsp_at(UNIQUE_A, (0, 1))
    assert cert.holds is Verdict.YES
    assert cert.t_star <= 1.0 - 1e-7
    assert verify_rsp_witness(UNIQUE_A, (0, 1), cert.witness_eta, cert.witness_y)


def test_analytic_witness_passes_the_witness_check():
    # Hand-computed witness for the certifying support of the unique system.
    assert verify_rsp_witness(UNIQUE_A, (0, 1), UNIQUE_WITNESS_ETA, UNIQUE_WITNESS_Y)
    # eta 1e-6 off A^T y: one column off S moved down, which the bound on
    # eta off S does not see.
    eta = UNIQUE_WITNESS_ETA.copy()
    eta[2] -= 1e-6
    assert not verify_rsp_witness(UNIQUE_A, (0, 1), eta, UNIQUE_WITNESS_Y)
    # eta_S 1e-6 off 1 with eta = A^T y still: the witness scaled by 1 + 1e-6,
    # which keeps eta off S far below 1.
    y = (1.0 + 1e-6) * UNIQUE_WITNESS_Y
    assert not verify_rsp_witness(UNIQUE_A, (0, 1), UNIQUE_A.T @ y, y)


def test_failing_support_of_multi_sparsest_system():
    cert = check_rsp_at(TRIPLE_A, (1, 4))
    assert cert.holds is Verdict.NO
    assert cert.t_star == pytest.approx(2.2, abs=1e-9)
    assert cert.witness_eta is None


def test_passing_support_reproduces_analytic_margin():
    cert = check_rsp_at(TRIPLE_A, (0, 4))
    assert cert.holds is Verdict.YES
    assert cert.t_star == pytest.approx(1.0 / 3.0, abs=1e-9)
    # The witness is pinned by the constraints up to row symmetry.
    assert cert.witness_eta == pytest.approx(TRIPLE_WITNESS_ETA, abs=1e-9)
    assert verify_rsp_witness(TRIPLE_A, (0, 4), TRIPLE_WITNESS_ETA, TRIPLE_WITNESS_Y)


def test_empty_support_holds_vacuously():
    # The margin LP at S = () has no equalities; t* is its optimum, and the
    # witness eta must stay at or below t* everywhere.
    cert = check_rsp_at(UNIQUE_A, ())
    assert cert.holds is Verdict.YES
    assert cert.t_star == 0.0
    assert np.array_equal(cert.witness_eta, np.zeros(4))
    assert np.array_equal(cert.witness_y, np.zeros(3))
    for A, t_star in ((UNIQUE_A, 0.0), ([[1.0, 1.0, -1.0]], 0.0), ([[1.0, 1.0, 1.0]], -1.0)):
        cert = check_rsp_at(A, ())
        assert cert.holds is Verdict.YES
        assert cert.t_star == pytest.approx(t_star, abs=1e-12)
        assert cert.witness_eta.max() <= cert.t_star + 1e-12
        assert verify_rsp_witness(A, (), cert.witness_eta, cert.witness_y)
    assert np.allclose(cert.witness_eta, -np.ones(3))


def _start(A, S):
    """The certifier's null-space margin LP at S and its starting basis."""
    block = np.array([S], dtype=np.intp).reshape(1, len(S))
    (space,), refuted = rsp._margin_stacks(A, block, DEFAULT_TOLERANCES)
    assert not refuted.size
    lps, basis = rsp._null_space_lps(space.G, space.eta0, DEFAULT_TOLERANCES.rank_tol)
    return basis, lps


def test_empty_support_starts_at_y0_zero_with_mu_at_one():
    # No equalities: y0 = 0 and G is A itself in the coordinates of its
    # range.  The start has z_J basic at 0 for three columns J, mu = 1 and
    # v- = 1, that is eta = 0 clamped at t = -1.  Variables [z (4), mu, v+, v-].
    A = np.array(UNIQUE_A)
    basis, lps = _start(A, ())
    assert lps.constraints.shape == (1, 5, 7)
    assert basis[0, 3:].tolist() == [4, 6] and len(set(basis[0, :3].tolist())) == 3
    T, serves = simplex._started_tableaux(lps, basis)
    assert serves.all()
    x = np.zeros(7)
    x[basis[0]] = T[0, :-1, -1]
    assert x.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0]
    cert = check_rsp_at(A, ())
    assert cert.holds is Verdict.YES and cert.t_star == 0.0


def test_dependent_rows_leave_no_zero_row_in_the_null_space_lp():
    # Rows 0 and 2 of TRIPLE_A are equal, so A has rank 2 and A_S at (0, 4)
    # leaves no null-space direction that moves eta: G has no rows, and the
    # LP keeps only its sum and objective rows.  Had the dependent row stayed,
    # G would hold a row of rounding error, and a start that pivots on it
    # reaches a wrong optimum that the reduced LP's own re-check accepts.
    basis, lps = _start(np.array(TRIPLE_A), (0, 4))
    assert lps.constraints.shape == (1, 2, 7) and basis.tolist() == [[4, 6]]
    cert = check_rsp_at(TRIPLE_A, (0, 4))
    assert cert.t_star == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert cert.witness_eta[[0, 4]] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_a_null_space_optimum_that_fails_on_the_raw_matrix_is_not_a_verdict(monkeypatch):
    # Corrupt y0 after G and eta0 are built: each LP still solves and passes
    # the LP core's re-check, but eta = A^T y misses 1 on S, so the re-check
    # on the raw A must refuse every verdict.
    margin_stacks = rsp._margin_stacks

    def corrupted(*args):
        stacks, refuted = margin_stacks(*args)
        return [space._replace(y0=space.y0 + 1e-3) for space in stacks], refuted

    monkeypatch.setattr(rsp, "_margin_stacks", corrupted)
    A = np.random.default_rng([2026, 61]).standard_normal((6, 12))
    message = "^optimal solve failed its certificate re-check$"
    with pytest.raises(CertificateUnavailable, match=message):
        next(rsp.check_rsp_batch(A, [(0, 1), (2, 3)]))
    with pytest.raises(CertificateUnavailable, match=message):
        check_rsp_at(TRIPLE_A, (0, 4))
    A, b, _ = planted_system(np.random.default_rng([2026, 62]), 4, 8, 2)
    with pytest.raises(CertificateUnavailable, match=message):
        solve_and_certify(A, b)
    # A support without full column rank takes its y0 from an SVD of A_S,
    # and the same re-check refuses it.
    with pytest.raises(CertificateUnavailable, match=message):
        check_rsp_at(np.hstack([A, A[:, :1]]), (0, 8))


@pytest.mark.parametrize("breakdown", [CertificateUnavailable("injected breakdown"),
                                       simplex.LpSolution(simplex.UNBOUNDED)],
                         ids=["unavailable", "unbounded"])
def test_a_margin_lp_breakdown_raises_at_its_support_and_not_before(monkeypatch, breakdown):
    # solve_batch may hand back a CertificateUnavailable or a solution that
    # is not optimal.  The margin LP is feasible and bounded, so either is a
    # breakdown, which check_rsp_batch and certify_order_k raise on reaching
    # its support.  Each block of this Gaussian is one stack, so its i-th
    # LP is its i-th support that no witness settles.
    import rspcert.orderk as orderk

    message = "^injected breakdown$" if isinstance(breakdown, Exception) \
        else "^margin LP returned unbounded$"
    A = np.random.default_rng([2026, 63]).standard_normal((6, 12))
    supports = list(combinations(range(12), 2))
    want = [(c.holds, c.t_star) for c in rsp.check_rsp_batch(A, supports)]
    solve_batch, solved_before, broken = rsp.solve_batch, [], []

    def breaking(lps, tol, basis=None):
        solved = solve_batch(lps, tol, basis=basis)
        if not broken and len(solved) > 5:
            broken.append(sum(solved_before) + 5)
            solved[5] = breakdown
        solved_before.append(len(solved))
        return solved
    monkeypatch.setattr(rsp, "solve_batch", breaking)
    certs = rsp.check_rsp_batch(A, supports)
    assert [(c.holds, c.t_star) for c in (next(certs) for _ in range(5))] == want[:5]
    with pytest.raises(CertificateUnavailable, match=message):
        next(certs)
    reached, raised = [], orderk._raised
    monkeypatch.setattr(orderk, "_raised", lambda entry: reached.append(entry) or raised(entry))
    solved_before[:], broken[:] = [], []
    with pytest.raises(CertificateUnavailable, match=message):
        orderk.certify_order_k(A, 3)
    assert broken and len(reached) == broken[0] + 1
    assert all(isinstance(c, rsp.RspCertificate) for c in reached[:-1])


def test_a_witness_stack_singular_to_the_solver_settles_nothing(monkeypatch):
    # Should LAPACK call a stack of witness systems singular, every witness
    # of it is NaN, and the screen settles none of its supports, which then
    # go to their margin LPs.
    A = np.random.default_rng([2028, 1]).standard_normal((6, 12))
    rows = rsp._row_reduction(A, DEFAULT_TOLERANCES)
    block = np.array(list(combinations(range(12), 2)))
    off = rsp._off_support(block, 12)
    full = np.ones(len(block), dtype=bool)
    assert rsp._settled(A, block, rows, DEFAULT_TOLERANCES, full)[0].any()

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    weights = np.full(off.shape, 0.5)
    for w, basis in ((None, None), (weights, rsp._reweighting_basis(rows.V))):
        assert np.isnan(rsp._least_squares_witness(rows, block, off, w, basis)).all()
    settled, y, eta = rsp._settled(A, block, rows, DEFAULT_TOLERANCES, full)
    assert not settled.any() and np.isnan(y).all() and np.isnan(eta).all()


def test_null_space_margins_do_not_see_the_scale_of_a():
    # The null-space LP scales each row of G to unit norm, and eta0 is
    # invariant under A -> s A, so t* stays put over 18 orders of magnitude.
    # The R-diagonal test that picks a support's QR has an absolute floor,
    # rank_tol * max(1, max|A_S|), which these columns fall below at 1e-8;
    # there each support takes its LP from an SVD of A_S instead, whose rank
    # threshold is relative to the largest singular value of A.
    A = np.random.default_rng([2026, 70]).standard_normal((6, 12))
    for k in (0, 1, 2, 3):
        supports = list(combinations(range(12), k))
        want = [cert.t_star for cert in rsp.check_rsp_batch(A, supports)]
        for scale in (1e-10, 1e-8, 1e-6, 1e-3, 1e3, 1e6, 1e8):
            got = [cert.t_star for cert in rsp.check_rsp_batch(scale * A, supports)]
            assert np.abs(np.subtract(got, want)).max() <= 1e-12, (k, scale)


def _duplicated_and_negated():
    A = np.random.default_rng([2026, 41]).standard_normal((4, 8))
    A[:, 6] = A[:, 1]
    A[:, 7] = -A[:, 2]
    return A


def test_rank_deficient_supports_match_the_full_margin_lp():
    # A duplicate column and a negated one: A_S is singular, so the support
    # takes its null-space LP from an SVD of A_S, with one G row per
    # direction of the range of A that A_S does not span.  Consistent
    # equalities give an optimum, and inconsistent ones (a column and its
    # negation) a checked witness and "infeasible", as the full margin LP of
    # tests/test_golden_lp.py, solved two-phase, decides them.  Consistent
    # equalities stay consistent at any scale: no witness may refute them.
    A = _duplicated_and_negated()
    for S, status in (((1, 6), OPTIMAL), ((0, 1, 6), OPTIMAL), ((1, 3, 6), OPTIMAL),
                      ((2, 7), INFEASIBLE), ((2, 5, 7), INFEASIBLE)):
        cert = check_rsp_at(A, S)
        sol = simplex.solve(margin_lp(A, S))
        assert cert.lp_status == sol.status == status
        if status == OPTIMAL:
            assert abs(cert.t_star - (sol.objective_value - 1.0)) <= 1e-9
            assert _start(A, S)[1].constraints.shape[1:] == (4 - (len(S) - 1) + 2, 8 - len(S) + 3)
            for scale in (1e-8, 1e8):
                scaled = check_rsp_at(scale * A, S)
                assert scaled.lp_status == OPTIMAL, (S, scale)
                assert abs(scaled.t_star - cert.t_star) <= 1e-12, (S, scale)
        else:
            assert cert.holds is Verdict.NO and cert.t_star is None
    # Full-rank supports of the same matrix do start.
    assert _start(A, (1, 2))[0][0, 0] >= 0 and _start(A, (0, 3, 5))[0][0, 0] >= 0


@pytest.mark.parametrize("corrupt", [
    lambda d: np.stack([-d[:, 1], d[:, 0], *d[:, 2:].T], axis=1),
    lambda d: d * np.arange(1, d.shape[1] + 1),
    np.negative], ids=["rotated", "scaled", "negated"])
def test_an_inconsistency_witness_that_fails_its_recheck_is_not_a_verdict(monkeypatch, corrupt):
    # A witness d rotated or scaled on its way into the re-check no longer has
    # A_S d ~ 0 and 1.d > 0, so the re-check must reject it.  The support then
    # runs its LP, whose y0 misses the equalities, and the re-check of the
    # optimum refuses it: no "infeasible" comes without a witness.
    inconsistent = rsp._inconsistent
    monkeypatch.setattr(rsp, "_inconsistent", lambda columns, d, tol: inconsistent(
        columns, corrupt(d), tol))
    A = _duplicated_and_negated()
    for S in ((2, 7), (2, 5, 7)):
        with pytest.raises(CertificateUnavailable, match="certificate re-check"):
            check_rsp_at(A, S)


def test_exact_unit_margin_is_a_hard_no():
    # The sparse tied candidate pins its margin at exactly one; the strict
    # inequality cannot be met, so the verdict must not soften to marginal.
    cert = check_rsp_at(TIED_A, (0, 1))
    assert cert.holds is Verdict.NO
    assert cert.t_star == pytest.approx(1.0, abs=1e-9)


def test_marginal_band_between_yes_and_no():
    tol = ToleranceConfig(rsp_margin=1e-2)
    # Margin LP optimum lands at t* = 1 - 5e-3, inside (1 - 1e-2, 1 - 1e-8).
    A = np.array([[1.0, 1.0 - 5e-3]])
    cert = check_rsp_at(A, (0,), tol)
    assert cert.t_star == pytest.approx(1.0 - 5e-3, abs=1e-9)
    assert cert.holds is Verdict.MARGINAL


def test_marginal_witness_is_bounded_by_t_star_and_only_a_yes_witness_reverifies():
    # A marginal witness stays at or below t* off the support, and t* lies
    # above 1 - rsp_margin, so verify_rsp_witness refuses it; the same 1x2
    # system one margin further from 1 certifies yes with a witness it accepts.
    feas = DEFAULT_TOLERANCES.feas_tol
    A = np.array([[1.0, 1.0 - 5e-8]])
    cert = check_rsp_at(A, (0,))
    assert cert.holds is Verdict.MARGINAL
    assert cert.t_star == pytest.approx(1.0 - 5e-8, abs=1e-12)
    eta, y = cert.witness_eta, cert.witness_y
    np.testing.assert_array_equal(eta, A.T @ y)
    assert abs(eta[0] - 1.0) <= feas
    assert eta[1] <= cert.t_star + feas
    assert eta[1] > 1.0 - DEFAULT_TOLERANCES.rsp_margin
    assert not verify_rsp_witness(A, (0,), eta, y)
    A = np.array([[1.0, 1.0 - 5e-7]])
    cert = check_rsp_at(A, (0,))
    assert cert.holds is Verdict.YES
    assert verify_rsp_witness(A, (0,), cert.witness_eta, cert.witness_y)


def test_verdict_depends_only_on_the_support():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((3, 7))
    base = check_rsp_at(A, (1, 5))
    again = check_rsp_at(A, (1, 5))
    assert base.holds is again.holds
    assert base.t_star == again.t_star


def test_certification_ignores_positive_magnitudes():
    # Two solutions sharing a support get identical support certificates.
    small = certify_uniqueness(UNIQUE_A, UNIQUE_A @ UNIQUE_X, UNIQUE_X)
    scaled = 100.0 * UNIQUE_X
    large = certify_uniqueness(UNIQUE_A, UNIQUE_A @ scaled, scaled)
    assert small.unique is large.unique
    assert small.rsp.t_star == large.rsp.t_star


# ------------------------------------------------ least-squares witnesses

def _kkt_eta(A, S, weights):
    """eta = A^T y of min |W^1/2 (A_off^T y - target)| s.t. A_S^T y = 1.

    Solved with lstsq on the KKT system [A_off W A_off^T, A_S; A_S^T, 0],
    which shares nothing with the null-space form of the screen.  y is not
    unique where A has dependent rows; eta is.
    """
    m, n = A.shape
    k = len(S)
    AS, Aoff = A[:, list(S)], np.delete(A, list(S), axis=1)
    kkt = np.block([[(Aoff * weights) @ Aoff.T, AS], [AS.T, np.zeros((k, k))]])
    rhs = np.concatenate([(Aoff * weights) @ np.full(n - k, rsp._LS_TARGET), np.ones(k)])
    return A.T @ np.linalg.lstsq(kkt, rhs, rcond=None)[0][:m]


def _dependent_row():
    A = np.random.default_rng([2028, 3]).standard_normal((6, 12))
    A[5] = A[0] - 2.0 * A[1]
    return A


@pytest.mark.parametrize("A, in_range", [
    pytest.param(np.random.default_rng([2028, 1]).standard_normal((6, 12)), False,
                 id="gaussian 6x12"),
    pytest.param(np.random.default_rng([2028, 2]).standard_normal((8, 16)), False,
                 id="gaussian 8x16"),
    pytest.param(_dependent_row(), True, id="rank 5 6x12"),
    pytest.param(np.random.default_rng([2028, 4]).standard_normal((4, 20)), True,
                 id="gaussian 4x20")])
def test_least_squares_witnesses_match_their_kkt_solution(A, in_range):
    # The screen's eta, with every weight 1 (the first witness) and with
    # positive weights (a reweighted one), is the weighted least-squares
    # eta nearest the target off S with eta_S = 1, at every support of
    # size 1 to 3.  A reweighted witness is solved in a basis of null(A)
    # where n - r <= r and in the range of A^T on a wider A; the cases
    # cover both.
    n = A.shape[1]
    rows = rsp._row_reduction(A, DEFAULT_TOLERANCES)
    basis = rsp._reweighting_basis(rows.V)
    assert (basis[0] is rows.V) == in_range
    rng = np.random.default_rng([2028, 0])
    for k in (1, 2, 3):
        block = np.array(list(combinations(range(n), k)))
        off = rsp._off_support(block, n)
        weights = rng.uniform(1e-3, 1.0, off.shape)
        for w in (None, weights):
            eta = rsp._least_squares_witness(rows, block, off, w, basis) @ A
            for i, S in enumerate(block.tolist()):
                want = _kkt_eta(A, S, np.ones(n - k) if w is None else w[i])
                assert np.abs(eta[i] - want).max() <= 1e-9 * max(1.0, np.abs(want).max()), S


# -------------------------------------------------------- certify_uniqueness

def test_unique_system_certifies_yes():
    verdict = certify_uniqueness(UNIQUE_A, UNIQUE_B, UNIQUE_X)
    assert verdict.unique is Verdict.YES
    assert verdict.reason is FailureReason.NONE
    assert verdict.full_column_rank and verdict.augmented_full_column_rank


def test_tied_full_support_candidate_fails_on_rank():
    verdict = certify_uniqueness(TIED_A, TIED_B, TIED_X_FULL)
    assert verdict.unique is Verdict.NO
    assert verdict.reason is FailureReason.RANK_DEFICIENT
    assert verdict.rsp.holds is Verdict.YES
    assert verdict.rank_found == 3


def test_tied_sparse_candidate_fails_on_rsp():
    verdict = certify_uniqueness(TIED_A, TIED_B, TIED_X_SPARSE)
    assert verdict.unique is Verdict.NO
    assert verdict.reason is FailureReason.RSP_FAILED
    assert verdict.full_column_rank


def test_dense_optimum_certifies_yes():
    verdict = certify_uniqueness(DENSE_A, DENSE_B, DENSE_X)
    assert verdict.unique is Verdict.YES


def test_candidate_must_solve_the_system():
    with pytest.raises(NotASolution):
        certify_uniqueness(UNIQUE_A, UNIQUE_B, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NotNonnegative):
        certify_uniqueness(UNIQUE_A, UNIQUE_A @ np.array([1.0, -1.0, 0.0, 0.0]),
                           np.array([1.0, -1.0, 0.0, 0.0]))
    # Negative and off the system: nonnegativity is checked first.
    with pytest.raises(NotNonnegative):
        certify_uniqueness(UNIQUE_A, UNIQUE_B, np.array([1.0, -1.0, 0.0, 0.0]))


def test_zero_rhs_certifies_the_zero_solution():
    verdict = certify_uniqueness(UNIQUE_A, np.zeros(3), np.zeros(4))
    assert verdict.unique is Verdict.YES
    assert verdict.rsp.support == ()


# ------------------------------------------------------------------ solve_l1

def test_l1_solution_of_multi_sparsest_system():
    x = solve_l1(TRIPLE_A, TRIPLE_B)
    assert x == pytest.approx(TRIPLE_X3, abs=1e-8)
    assert x.sum() == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_l1_solution_zero_rhs():
    x = solve_l1(UNIQUE_A, np.zeros(3))
    assert np.array_equal(x, np.zeros(4))


def test_l1_objective_of_tied_system():
    x = solve_l1(TIED_A, TIED_B)
    assert x.sum() == pytest.approx(10.5, abs=1e-9)


def test_l1_infeasible_system_raises():
    with pytest.raises(Infeasible):
        solve_l1(np.array([[1.0, 2.0]]), np.array([-1.0]))


def test_solve_and_certify_across_fixtures():
    x, verdict = solve_and_certify(UNIQUE_A, UNIQUE_B)
    assert x == pytest.approx(UNIQUE_X, abs=1e-9) and verdict.unique is Verdict.YES
    _, verdict = solve_and_certify(TIED_A, TIED_B)
    assert verdict.unique is Verdict.NO
    x, verdict = solve_and_certify(TRIPLE_A, TRIPLE_B)
    assert x == pytest.approx(TRIPLE_X3, abs=1e-8) and verdict.unique is Verdict.YES



def _same_verdict(a, b) -> bool:
    arrays = ("witness_eta", "witness_y")
    return (replace(a, rsp=None) == replace(b, rsp=None)
            and replace(a.rsp, witness_eta=None, witness_y=None)
            == replace(b.rsp, witness_eta=None, witness_y=None)
            and all((getattr(a.rsp, f) is None and getattr(b.rsp, f) is None)
                    or np.array_equal(getattr(a.rsp, f), getattr(b.rsp, f)) for f in arrays))


def test_solve_and_certify_is_solve_l1_then_certify_uniqueness():
    # Planted supports of sizes 0 to 7 on one 8x16 matrix, some repeated.
    # Columns 14 and 15 are equal, so an l1 optimum using one of them is not
    # unique: verdicts yes and no.  Each call is one l1 LP, one margin LP
    # and the two rank probes of ``certify_uniqueness``.
    rng = np.random.default_rng([2026, 30])
    A = rng.standard_normal((8, 16))
    A[:, 15] = A[:, 14]
    planted = np.zeros((40, 16))
    for row in planted:
        S = rng.choice(16, size=int(rng.integers(0, 8)), replace=False)
        row[S] = rng.uniform(0.1, 1.0, size=S.size)
    planted[20:30] = planted[:10]
    verdicts = []
    for p in planted:
        b = A @ p
        with stats.collect() as counts:
            x, verdict = solve_and_certify(A, b)
        assert [counts[name] for name in ("l1.lps", "margin.lps", "margin.blocks",
                                          "linalg.ranked")] == [1, 1, 1, 2]
        scalar_x = solve_l1(A, b)
        assert np.array_equal(x, scalar_x)
        assert _same_verdict(verdict, certify_uniqueness(A, b, scalar_x))
        verdicts.append(verdict)
    assert {verdict.unique for verdict in verdicts} == {Verdict.YES, Verdict.NO}
    assert len({len(verdict.rsp.support) for verdict in verdicts}) >= 4


def test_solve_and_certify_keeps_a_certified_tiny_negative_entry(monkeypatch):
    # The LP core accepts entries of x down to -feas_tol.  Its l1 optimum is
    # returned with one zero entry off the support set to -5e-9, within
    # that tolerance.  ``solve_and_certify`` returns x as the LP gave it
    # and leaves the entry out of the support; ``certify_uniqueness`` takes
    # x as a candidate and refuses it.
    A, b, planted = planted_system(np.random.default_rng([2027, 32]), 4, 8, 2)
    off = np.flatnonzero(planted == 0.0)
    j = int(off[np.abs(A[:, off]).max(axis=0).argmin()])
    real = rsp.solve_batch

    def nudged(lps, tol=DEFAULT_TOLERANCES, max_pivots=None, basis=None):
        solved = real(lps, tol, max_pivots, basis)
        if lps.constraints.shape[1:] == A.shape and np.array_equal(lps.constraints[0], A):
            x = solved[0].x.copy()
            assert x[j] == 0.0
            x[j] = -5e-9
            solved[0] = replace(solved[0], x=x)
        return solved

    monkeypatch.setattr(rsp, "solve_batch", nudged)
    x, verdict = solve_and_certify(A, b)
    assert x[j] == -5e-9
    assert verdict.rsp.support == tuple(np.flatnonzero(planted).tolist())
    assert j not in verdict.rsp.support and verdict.unique is Verdict.YES
    with pytest.raises(NotNonnegative):
        certify_uniqueness(A, b, x)
    clipped = np.maximum(x, 0.0)
    assert _same_verdict(verdict, certify_uniqueness(A, b, clipped))


def test_l1_start_is_the_planted_vertex():
    # The start holds S, and its basic solution for b = A x is x itself.
    # Columns 10 and 11 are equal, so a support holding both gets no start;
    # neither does any support once k > m or A loses a row's rank.  The
    # mask is the order-K gate's, and neither it nor a start sees the scale
    # of A.
    from rspcert.linalg import _full_column_rank, _row_reduction
    from rspcert.rsp import _l1_starts

    tol = DEFAULT_TOLERANCES
    rng = np.random.default_rng([2027, 41])
    A = rng.standard_normal((6, 12))
    A[:, 11] = A[:, 10]
    block = np.array(list(combinations(range(12), 3)))
    rows = _row_reduction(A, tol)
    full, basis = _l1_starts(rows, block)
    dependent = np.isin(block, (10, 11)).sum(axis=1) == 2
    assert np.array_equal(full, _full_column_rank(rows.At, block, rows.floor)[0])
    assert np.array_equal(full, ~dependent)
    assert (basis[dependent] == -1).all() and (basis[~dependent] >= 0).all()
    for S, row in zip(block[~dependent], basis[~dependent]):
        assert list(row[:3]) == list(S) and len(set(row)) == 6
        x = np.zeros(12)
        x[S] = rng.uniform(0.1, 1.0, size=3)
        z = np.linalg.solve(A[:, row], A @ x)
        assert np.abs(z - x[row]).max() <= 1e-12
    for s in (1e-10, 1e-8, 1e8, 1e12):
        scaled, starts = _l1_starts(_row_reduction(s * A, tol), block)
        assert np.array_equal(scaled, full) and np.array_equal(starts, basis), s
    full, basis = _l1_starts(_row_reduction(A[:2], tol), block)
    assert not full.any() and (basis == -1).all()
    A[5] = A[4]
    full, basis = _l1_starts(_row_reduction(A, tol), block)
    assert np.array_equal(full, ~dependent) and (basis == -1).all()


# ---------------------------------------------------------- weighted variant

def test_unit_weights_reduce_to_plain_check():
    plain = check_rsp_at(UNIQUE_A, (0, 1))
    weighted = check_rsp_at(UNIQUE_A, (0, 1), weights=np.ones(4))
    assert weighted.holds is plain.holds
    assert weighted.t_star == pytest.approx(plain.t_star, abs=1e-12)


def test_weighted_check_equals_check_on_scaled_matrix():
    w = np.array([2.0, 2.0, 1.0, 1.0])
    weighted = check_rsp_at(UNIQUE_A, (0, 1), weights=w)
    scaled = check_rsp_at(UNIQUE_A / w, (0, 1))
    assert weighted.holds is scaled.holds
    assert weighted.t_star == pytest.approx(scaled.t_star, abs=1e-12)


def test_tied_system_passes_weighted_check_but_not_uniqueness():
    cert = check_rsp_at(TIED_A, (0, 1, 2, 3), weights=np.ones(4))
    assert cert.holds is Verdict.YES
    verdict = certify_uniqueness(TIED_A, TIED_B, TIED_X_FULL, weights=np.ones(4))
    assert verdict.unique is Verdict.NO
    assert verdict.reason is FailureReason.RANK_DEFICIENT


def test_uniform_weight_scaling_preserves_the_verdict():
    base = certify_uniqueness(UNIQUE_A, UNIQUE_B, UNIQUE_X, weights=np.ones(4))
    tripled = certify_uniqueness(UNIQUE_A, UNIQUE_B, UNIQUE_X, weights=3.0 * np.ones(4))
    assert base.unique is tripled.unique is Verdict.YES


def test_weights_must_be_positive():
    with pytest.raises(NonpositiveWeight):
        check_rsp_at(UNIQUE_A, (0, 1), weights=np.array([1.0, 0.0, 1.0, 1.0]))
    # The weights are rejected before the candidate is checked at all.
    for x in (np.ones(4), np.array([1.0, -1.0, 0.0, 0.0])):
        with pytest.raises(NonpositiveWeight):
            certify_uniqueness(UNIQUE_A, UNIQUE_B, x, weights=-np.ones(4))


def test_weighted_verdict_matches_rescaled_problem():
    rng = np.random.default_rng(22)
    matches = 0
    for _ in range(20):
        A, b, x = planted_system(rng, 3, 7, int(rng.integers(1, 3)))
        w = rng.uniform(0.5, 3.0, size=7)
        left = certify_uniqueness(A, b, x, weights=w)
        right = certify_uniqueness(A / w, b, w * x)
        assert left.unique is right.unique
        matches += 1
    assert matches == 20


# ------------------------------------------------------- lp sparsest optimum

def test_lp_sparsest_zero_objective_reduces_to_l1_pipeline():
    result = lp_sparsest_pipeline(UNIQUE_A, UNIQUE_B, np.zeros(4))
    x, verdict = solve_and_certify(UNIQUE_A, UNIQUE_B)
    assert result.d_star == 0.0
    assert result.x == pytest.approx(x, abs=1e-9)
    assert result.verdict.unique is verdict.unique


def test_lp_sparsest_with_l1_objective():
    result = lp_sparsest_pipeline(UNIQUE_A, UNIQUE_B, np.ones(4))
    assert result.d_star == pytest.approx(1.0, abs=1e-9)
    assert result.verdict.unique is Verdict.YES
    assert result.augmented_matrix.shape == (4, 4)


def test_lp_sparsest_on_the_unit_segment():
    # min x2 over the segment x1 + x2 = 1: brute force over the segment says
    # the optimal face is the single point (1, 0), which is also sparsest.
    grid = np.linspace(0.0, 1.0, 1001)
    objective = grid  # value of x2 = s at (1-s, s)... objective c=(0,1) -> s
    assert grid[np.argmin(objective)] == 0.0
    result = lp_sparsest_pipeline(np.array([[1.0, 1.0]]), [1.0], [0.0, 1.0])
    assert result.d_star == pytest.approx(0.0, abs=1e-12)
    assert result.x == pytest.approx([1.0, 0.0], abs=1e-9)
    assert result.verdict.unique is Verdict.YES


def test_lp_sparsest_rejects_unbounded_and_infeasible():
    with pytest.raises(Unbounded):
        lp_sparsest_pipeline(np.array([[1.0, -1.0]]), [0.0], [-1.0, 0.0])
    with pytest.raises(Infeasible):
        lp_sparsest_pipeline(np.array([[1.0, 1.0]]), [-1.0], [0.0, 1.0])


# ------------------------------------------------------ statistical behavior

def test_m_sparsity_of_certified_solutions():
    rng = np.random.default_rng(23)
    found = 0
    attempts = 0
    while found < 100 and attempts < 400:
        attempts += 1
        A, b, _ = planted_system(rng, 4, 8, int(rng.integers(1, 4)))
        x, verdict = solve_and_certify(A, b)
        if verdict.unique is Verdict.YES:
            found += 1
            assert len(support_of(x)) <= 4
    assert found == 100


def _perturbation_screen(rng, A, b, x, trials=20):
    """True iff every perturbed objective re-solve lands on the same point."""
    from rspcert import OPTIMAL, StandardLp, solve

    n = A.shape[1]
    for _ in range(trials):
        c = np.ones(n) + rng.uniform(-1e-6, 1e-6, size=n)
        sol = solve(StandardLp(c, A, b))
        if sol.status != OPTIMAL or np.abs(sol.x - x).max() > 1e-6:
            return False
    return True


def test_perturbation_unique_optima_always_certify():
    # Necessity: a optimum stable under 20 tiny objective perturbations is
    # unique for practical purposes and the certificate must say yes.
    rng = np.random.default_rng(24)
    accepted = 0
    attempts = 0
    while accepted < 100 and attempts < 400:
        attempts += 1
        A, b, _ = planted_system(rng, 4, 8, int(rng.integers(1, 4)))
        x = solve_l1(A, b)
        if not _perturbation_screen(rng, A, b, x):
            continue
        accepted += 1
        verdict = certify_uniqueness(A, b, x)
        assert verdict.unique is Verdict.YES
    assert accepted == 100


def test_certified_optima_survive_perturbation_search():
    # Sufficiency: when the certificate says yes, no perturbed objective can
    # reveal a different optimum.
    rng = np.random.default_rng(25)
    checked = 0
    attempts = 0
    while checked < 40 and attempts < 200:
        attempts += 1
        A, b, _ = planted_system(rng, 4, 8, int(rng.integers(1, 4)))
        x, verdict = solve_and_certify(A, b)
        if verdict.unique is not Verdict.YES:
            continue
        checked += 1
        assert _perturbation_screen(rng, A, b, x)
    assert checked == 40


def test_a_dependent_support_that_fails_the_range_space_check_fails_for_both_reasons():
    # Column 1 is -column 0: no eta = A^T y is 1 at both, so the equalities
    # are inconsistent, and A_S is singular as well.
    A = np.random.default_rng([2027, 92]).standard_normal((4, 8))
    A[:, 1] = -A[:, 0]
    x = np.zeros(8)
    x[[0, 1]] = (0.7, 0.3)
    verdict = certify_uniqueness(A, A @ x, x)
    assert verdict.rsp.holds is Verdict.NO and verdict.rsp.lp_status == INFEASIBLE
    assert not verdict.full_column_rank and verdict.rank_found == 1
    assert verdict.unique is Verdict.NO and verdict.reason is FailureReason.BOTH


def test_a_margin_in_the_tolerance_band_is_a_marginal_uniqueness_verdict():
    # With rsp_margin = 0.9 a yes needs t* <= 0.1; this planted support has
    # full column rank and t* near 0.43, so uniqueness is marginal, with no
    # reason to fail.
    tol = ToleranceConfig(rsp_margin=0.9)
    A, b, x = planted_system(np.random.default_rng([2027, 91, 1]), 6, 12, 2)
    for verdict in (certify_uniqueness(A, b, x, tol), solve_and_certify(A, b, tol)[1]):
        assert verdict.rsp.holds is Verdict.MARGINAL
        assert 1.0 - tol.rsp_margin < verdict.rsp.t_star < 1.0 - tol.feas_tol
        assert verdict.full_column_rank and verdict.rank_found == 2
        assert verdict.unique is Verdict.MARGINAL and verdict.reason is FailureReason.NONE


def test_rank_tests_agree_whenever_rsp_holds():
    rng = np.random.default_rng(26)
    cases = [(UNIQUE_A, (0, 1)), (TIED_A, (0, 1, 2, 3)), (TRIPLE_A, (0, 4))]
    for _ in range(30):
        A = rng.standard_normal((3, 7))
        S = tuple(sorted(rng.choice(7, size=int(rng.integers(1, 4)), replace=False)))
        cases.append((A, S))
    for A, S in cases:
        cert = check_rsp_at(A, S)
        if cert.holds is Verdict.YES:
            assert (rank(A, S) == len(S)) == (augmented_rank(A, S) == len(S))
