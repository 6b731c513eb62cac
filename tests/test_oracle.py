from itertools import combinations

import numpy as np
import pytest

from rspcert import (DEFAULT_TOLERANCES, INFEASIBLE, BudgetExceeded,
                     CertificateUnavailable, EquivalenceStatus, Infeasible,
                     LpSolution, NoSolutionWithin, SparsestReport, StandardLp,
                     SystemLabel, ToleranceConfig, Verdict, augmented_rank, check_rsp_at,
                     classify_system, equivalence_verdict, rank,
                     solve_and_certify, sparsest_supports, support_of)
from rspcert.simplex import solve_batch

from conftest import (ALL_SYSTEMS, COHERENT_A, COHERENT_B, COHERENT_X, DENSE_A, DENSE_B,
                      DENSE_SPARSEST, TIED_A, TIED_B, TRIPLE_A, TRIPLE_B,
                      TRIPLE_X1, TRIPLE_X2, TRIPLE_X3, UNIQUE_A, UNIQUE_B,
                      planted_system)


# --------------------------------------------------------- sparsest_supports

def test_multi_sparsest_system_has_three_supports():
    report = sparsest_supports(TRIPLE_A, TRIPLE_B)
    assert report.k_star == 2
    assert report.supports == [(0, 4), (1, 4), (3, 4)]
    by_support = dict(zip(report.supports, report.representatives))
    assert by_support[(0, 4)] == pytest.approx(TRIPLE_X3, abs=1e-9)
    assert by_support[(1, 4)] == pytest.approx(TRIPLE_X1, abs=1e-9)
    assert by_support[(3, 4)] == pytest.approx(TRIPLE_X2, abs=1e-9)
    assert report.unique_within_support == [True, True, True]


def test_dense_system_has_single_one_sparse_support():
    report = sparsest_supports(DENSE_A, DENSE_B)
    assert report.k_star == 1
    assert report.supports == [(3,)]
    assert report.representatives[0] == pytest.approx(DENSE_SPARSEST, abs=1e-9)


def test_zero_rhs_gives_empty_support():
    report = sparsest_supports(UNIQUE_A, np.zeros(3))
    assert report.k_star == 0
    assert report.supports == [()]
    assert np.array_equal(report.representatives[0], np.zeros(4))


def test_representatives_actually_solve_the_system():
    report = sparsest_supports(TRIPLE_A, TRIPLE_B)
    for S, x in zip(report.supports, report.representatives):
        assert np.abs(TRIPLE_A @ x - TRIPLE_B).max() < 1e-8
        assert x.min() >= 0.0
        assert set(support_of(x)) <= set(S)


def test_termination_is_monotone_in_max_k():
    for max_k in (2, 4, 6):
        assert sparsest_supports(TRIPLE_A, TRIPLE_B, max_k=max_k).k_star == 2


def test_no_solution_within_max_k():
    with pytest.raises(NoSolutionWithin):
        sparsest_supports(TRIPLE_A, TRIPLE_B, max_k=1)


def test_budget_guard():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((3, 12))
    b = rng.standard_normal(3) * 0  # zero solves trivially, force budget first
    b = A @ np.abs(rng.standard_normal(12))
    with pytest.raises(BudgetExceeded):
        sparsest_supports(A, b, budget=5)


def test_budget_is_checked_lazily_per_size():
    # k* = 1: the search stops after the n singletons, so a budget of n is
    # enough; the pairs it never reaches are not charged.
    A = np.random.default_rng(33).standard_normal((3, 12))
    report = sparsest_supports(A, 2.0 * A[:, 5], budget=12)
    assert report.k_star == 1 and report.supports == [(5,)]
    assert report.subsets_checked == 12



def test_a_broken_feasibility_solve_is_raised(monkeypatch):
    # A feasibility LP that breaks down stops the search at that support.
    # The screen rules out every singleton but (5,), so the one LP solved is
    # the one that breaks down.
    import rspcert.oracle as oracle
    from rspcert import CertificateUnavailable, IterationLimit

    real = oracle.solve_batch

    def solve_batch(lps, *args, **kwargs):
        results = real(lps, *args, **kwargs)
        results[0] = IterationLimit("injected breakdown")
        return results
    monkeypatch.setattr(oracle, "solve_batch", solve_batch)
    A = np.random.default_rng(33).standard_normal((3, 12))
    with pytest.raises(CertificateUnavailable, match="injected breakdown"):
        sparsest_supports(A, 2.0 * A[:, 5])


# ------------------------------------------- the screen against LPs alone

def lp_only_search(A, b, max_k=None):
    """The sparsest search with no screen, and every enumerated support's LP outcome.

    Solves the feasibility LP A_S z = b, z >= 0 of every support, size by
    size, through ``solve_batch``, and stops after the first size with a
    feasible one, as ``sparsest_supports`` does.  In place of the report
    comes what the search raises: the first broken LP in enumeration order,
    or ``NoSolutionWithin``.
    """
    n = A.shape[1]
    max_k = n if max_k is None else max_k
    if np.abs(b).max() <= DEFAULT_TOLERANCES.feas_tol:
        return SparsestReport(0, [()], [np.zeros(n)], [True], 0), {}
    found, outcomes, checked = {}, {}, 0
    for k in range(1, max_k + 1):
        supports = list(combinations(range(n), k))
        sols = solve_batch([StandardLp(np.zeros(k), A[:, list(S)], b) for S in supports])
        outcomes.update(zip(supports, sols))
        checked += len(supports)
        for S, sol in zip(supports, sols):
            if isinstance(sol, Exception):
                return sol, outcomes
            if sol.status != INFEASIBLE:
                z = np.zeros(n)
                z[list(S)] = np.maximum(sol.x, 0.0)
                found.setdefault(support_of(z), z)
        if found:
            break
    if not found:
        return NoSolutionWithin(max_k), outcomes
    k_star = min(map(len, found))
    keep = sorted(S for S in found if len(S) == k_star)
    report = SparsestReport(k_star, keep, [found[S] for S in keep],
                            [rank(A, S) == len(S) for S in keep], checked)
    return report, outcomes


def assert_same_report(report, expected):
    """Equal reports, representatives bit for bit, or equal exceptions."""
    if isinstance(expected, Exception):
        assert (type(report), str(report)) == (type(expected), str(expected))
        return
    assert report.k_star == expected.k_star
    assert report.supports == expected.supports
    assert all(np.array_equal(x, y) for x, y in
               zip(report.representatives, expected.representatives, strict=True))
    assert report.unique_within_support == expected.unique_within_support
    assert report.subsets_checked == expected.subsets_checked


def screened_search(monkeypatch, A, b, max_k=None):
    """``sparsest_supports`` (or what it raises), and the supports its screen ruled out."""
    import rspcert.oracle as oracle

    masks = []
    real = oracle._outside_range

    def recording(gram, idx, *args):
        masks.append(real(gram, idx, *args))
        return masks[-1]
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_outside_range", recording)
        try:
            report = sparsest_supports(A, b, max_k=max_k)
        except (CertificateUnavailable, NoSolutionWithin) as exc:
            report = exc
    n = A.shape[1]
    order = (S for k in range(1, n + 1) for S in combinations(range(n), k))
    mask = np.concatenate(masks) if masks else []
    return report, [S for S, out in zip(order, mask) if out]


def _differential_systems():
    """(A, b, max_k): fixtures, planted systems and the awkward cases of the screen."""
    systems = [(A, b, None) for A, b in ALL_SYSTEMS]
    rng = np.random.default_rng(35)
    for i in range(40):
        m, k = 3 + (i // 2) % 8, 1 + (i // 4) % 3
        n = min(2 * m + 1, 20)
        if i % 2:
            A = rng.uniform(0.0, 1.0, (m, n))
            x = np.zeros(n)
            x[rng.choice(n, size=k, replace=False)] = rng.uniform(0.1, 1.0, size=k)
            b = A @ x
        else:
            A, b, _ = planted_system(rng, m, n, k)
        systems.append((A, b, None))
    # Repeated integer columns: rank-deficient supports at every size above 1.
    A = rng.integers(-3, 4, (4, 9)).astype(float)
    A[:, 6], A[:, 7], A[:, 8] = A[:, 1], A[:, 2], A[:, 1]
    systems.append((A, A @ np.array([0, 1, 0, 2, 0, 0, 1, 0, 0.0]), None))
    # Row 7 copies row 0: b lies in a 7-dimensional subspace.
    A, _, x = planted_system(rng, 8, 16, 3)
    A[7] = A[0]
    systems.append((A, A @ x, None))
    # b nudged off range(A_S) by less than the LP's tolerance: the planted
    # support is feasible to the LP core, and the screen must not rule it
    # out.
    A, b, _ = planted_system(rng, 6, 12, 2, low=1e-3, high=2e-3)
    nudge = rng.standard_normal(6)
    systems.append((A, b + 3e-9 * nudge / np.linalg.norm(nudge), None))
    # max_k past m: a feasible search that may go there, and an infeasible
    # one that enumerates supports of sizes 4 and 5 on 3 rows.
    A, b, _ = planted_system(rng, 3, 7, 2)
    systems.append((A, b, 7))
    systems.append((np.abs(rng.standard_normal((3, 6))), -np.ones(3), 5))
    # Where the screen's G_S = A_S^T A_S is singular or nearly so: a zero
    # column; near-dependent columns a_5 = a_2 + eps a_7, planted on with
    # a_2 and a third column; a column equal to a_1 - a_2 plus noise.
    A, _, x = planted_system(rng, 5, 10, 2)
    A[:, 4] = 0.0
    systems.append((A, A @ x, None))
    for eps in (3e-8, 1e-6, 1e-4):
        A = rng.standard_normal((6, 12))
        A[:, 5] = A[:, 2] + eps * A[:, 7]
        x = np.zeros(12)
        x[[2, 5, 10]] = rng.uniform(0.1, 1.0, size=3)
        systems.append((A, A @ x, None))
    A = rng.standard_normal((6, 12))
    A[:, 9] = A[:, 1] - A[:, 2] + 1e-6 * rng.standard_normal(6)
    x = np.zeros(12)
    x[[1, 9]] = rng.uniform(0.1, 1.0, size=2)
    systems.append((A, A @ x, None))
    return systems


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_the_screen_rules_out_only_supports_the_lp_finds_infeasible(monkeypatch, scale):
    # Each ruled-out support's LP, solved anyway, says infeasible, and the
    # report equals the LP-only search's, representatives bit for bit.
    ruled_out = 0
    for A, b, max_k in _differential_systems():
        A, b = scale * A, scale * b
        expected, outcomes = lp_only_search(A, b, max_k)
        report, skipped = screened_search(monkeypatch, A, b, max_k)
        ruled_out += len(skipped)
        for S in skipped:
            sol = outcomes[S]
            assert isinstance(sol, LpSolution) and sol.status == INFEASIBLE, S
        assert_same_report(report, expected)
    if scale >= 1.0:
        assert ruled_out > 0


def test_a_support_that_needs_a_negative_coefficient_reaches_the_lp(monkeypatch):
    # b = e0 - e1 lies in the range of every pair of these columns, and
    # every pair solves it only with a negative coefficient.  The screen
    # rules out the singletons alone; each pair, and the triple, gets its LP
    # and comes back infeasible.
    import rspcert.oracle as oracle

    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, -1.0])
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert not oracle._outside_range(oracle._gram(A, b), np.array(pairs),
                                     DEFAULT_TOLERANCES).any()
    report, skipped = screened_search(monkeypatch, A, b)
    assert isinstance(report, NoSolutionWithin)
    assert skipped == [(0,), (1,), (2,)]
    _, outcomes = lp_only_search(A, b)
    assert all(outcomes[S].status == INFEASIBLE for S in pairs + [(0, 1, 2)])


@pytest.mark.parametrize("clearance, ruled_out", [(500.0, False), (2000.0, True)])
def test_b_must_clear_the_lp_tolerance_by_the_screen_factor(clearance, ruled_out):
    # b lies off range(A_S) = span(e0, e1) by clearance * beta along e2, with
    # beta = sqrt(m) feas_tol (|b|_inf < 1), the largest residual the LP
    # core accepts.  The witness y = e2 is exact up to rounding; the screen
    # rules the support out only past 1e3 beta.
    import rspcert.oracle as oracle

    tol = DEFAULT_TOLERANCES
    A = np.zeros((4, 2))
    A[0, 0] = A[1, 1] = 0.5
    b = np.array([0.5, 0.5, clearance * 2.0 * tol.feas_tol, 0.0])
    mask = oracle._outside_range(oracle._gram(A, b), np.array([[0, 1]]), tol)
    assert mask.tolist() == [ruled_out]


@pytest.mark.parametrize("spoil", ["scaled", "rotated"])
def test_a_corrupted_witness_fails_the_recheck(monkeypatch, spoil):
    # With the screen's G divided by 1.1, which scales every z by 1.1, or
    # its c = A^T b reflected, r = b - A_S z is no longer orthogonal to
    # range(A_S).  Every witness must fail the re-check on the raw A_S, so
    # every support reaches its LP and the report stays as it was.
    import rspcert.oracle as oracle

    A, b, _ = planted_system(np.random.default_rng(36), 5, 10, 2)
    expected, ruled_out = screened_search(monkeypatch, A, b)
    assert ruled_out
    u = np.full(10, 1.0 / np.sqrt(10.0))
    real = oracle._gram

    def spoiled(A, b):
        gram = real(A, b)
        if spoil == "scaled":
            return gram._replace(G=gram.G / 1.1)
        return gram._replace(c=gram.c - 2.0 * u * (u @ gram.c))
    monkeypatch.setattr(oracle, "_gram", spoiled)
    report, skipped = screened_search(monkeypatch, A, b)
    assert skipped == []
    assert_same_report(report, expected)


def test_an_all_zero_matrix_has_no_solution_and_raises_nothing_else():
    # Every G_S is zero: the ridge alone keeps the screen's solves
    # nonsingular, and every LP comes back infeasible.
    with pytest.raises(NoSolutionWithin):
        sparsest_supports(np.zeros((3, 5)), np.ones(3))


def test_all_sparsest_supports_pass_the_augmented_rank_test():
    # Every minimal support stacks to full column rank with the ones row.
    fixtures = [(TRIPLE_A, TRIPLE_B), (DENSE_A, DENSE_B), (UNIQUE_A, UNIQUE_B),
                (TIED_A, TIED_B), (COHERENT_A, COHERENT_B)]
    rng = np.random.default_rng(32)
    for _ in range(50):
        A, b, _ = planted_system(rng, 3, 7, int(rng.integers(1, 4)))
        fixtures.append((A, b))
    for A, b in fixtures:
        report = sparsest_supports(A, b)
        for S in report.supports:
            assert augmented_rank(A, S) == len(S)


def test_at_most_one_sparsest_support_certifies():
    fixtures = [(TRIPLE_A, TRIPLE_B), (DENSE_A, DENSE_B), (UNIQUE_A, UNIQUE_B),
                (TIED_A, TIED_B), (COHERENT_A, COHERENT_B)]
    rng = np.random.default_rng(33)
    for _ in range(30):
        A, b, _ = planted_system(rng, 3, 7, int(rng.integers(1, 4)))
        fixtures.append((A, b))
    for A, b in fixtures:
        report = sparsest_supports(A, b)
        passing = [S for S in report.supports
                   if check_rsp_at(A, S).holds is Verdict.YES]
        assert len(passing) <= 1


# ------------------------------------------------------------ classification

def test_multi_sparsest_system_is_g2():
    cls = classify_system(TRIPLE_A, TRIPLE_B)
    assert cls.label is SystemLabel.G2
    assert cls.l1_unique is True
    assert cls.sparsest_count == 3


def test_tied_system_is_g3():
    cls = classify_system(TIED_A, TIED_B)
    assert cls.label is SystemLabel.G3
    assert cls.l1_unique is False


def test_unique_system_is_g1():
    cls = classify_system(UNIQUE_A, UNIQUE_B)
    assert cls.label is SystemLabel.G1
    assert cls.sparsest_count == 1


def test_zero_rhs_is_g1():
    cls = classify_system(UNIQUE_A, np.zeros(3))
    assert cls.label is SystemLabel.G1
    assert cls.sparsest.k_star == 0


def test_classify_rejects_infeasible_systems():
    with pytest.raises(Infeasible):
        classify_system(np.array([[1.0, 2.0]]), np.array([-1.0]))


# -------------------------------------------------------- equivalence oracle

def test_multi_sparsest_system_is_equivalent_but_not_strongly():
    verdict = equivalence_verdict(TRIPLE_A, TRIPLE_B)
    assert verdict.status is EquivalenceStatus.EQUIVALENT
    assert verdict.equivalent and not verdict.strongly_equivalent
    assert verdict.passing_support == (0, 4)


def test_coherent_system_is_strongly_equivalent():
    verdict = equivalence_verdict(COHERENT_A, COHERENT_B)
    assert verdict.status is EquivalenceStatus.STRONGLY_EQUIVALENT
    assert verdict.equivalent
    assert verdict.passing_support == (0, 2)
    assert verdict.sparsest.supports == [(0, 2)]
    assert verdict.sparsest.representatives[0] == pytest.approx(COHERENT_X, abs=1e-9)


def test_dense_system_is_not_equivalent():
    verdict = equivalence_verdict(DENSE_A, DENSE_B)
    assert verdict.status is EquivalenceStatus.NOT_EQUIVALENT
    assert verdict.passing_support is None


def test_tied_system_is_not_equivalent():
    verdict = equivalence_verdict(TIED_A, TIED_B)
    assert verdict.status is EquivalenceStatus.NOT_EQUIVALENT


def test_classify_runs_check_rsp_at_once_at_the_l1_support(tmp_path, monkeypatch):
    # The l1 optimum's support (0, 2) is also the sparsest one: classify
    # certifies it while checking the l1 optimum, and the equivalence check
    # reuses that certificate instead of solving the margin LP again.
    import rspcert.rsp as rsp
    from rspcert.cli import main

    from conftest import write_csv_matrix, write_csv_vector

    built = []
    margin_stacks = rsp._margin_stacks

    def recording(A, block, *args):
        built.extend(tuple(S) for S in block.tolist())
        return margin_stacks(A, block, *args)

    monkeypatch.setattr(rsp, "_margin_stacks", recording)
    a_path, b_path, report = tmp_path / "A.csv", tmp_path / "b.csv", tmp_path / "r.json"
    write_csv_matrix(a_path, COHERENT_A)
    write_csv_vector(b_path, COHERENT_B)
    assert main(["classify", str(a_path), str(b_path), "--json", str(report)]) == 0
    assert built.count((0, 2)) == 1

    system = classify_system(COHERENT_A, COHERENT_B)
    verdict = equivalence_verdict(COHERENT_A, COHERENT_B, system=system)
    assert verdict.certificates == [system.l1_verdict.rsp]
    assert verdict.status is EquivalenceStatus.STRONGLY_EQUIVALENT


def test_a_marginal_l1_verdict_leaves_class_and_equivalence_indeterminate():
    # With rsp_margin = 0.9 the l1 optimum's support, which is also the one
    # sparsest support, has t* inside the band: neither the class nor the
    # equivalence is guessed.
    tol = ToleranceConfig(rsp_margin=0.9)
    A, b, _ = planted_system(np.random.default_rng([2027, 91, 1]), 6, 12, 2)
    system = classify_system(A, b, tol)
    assert system.l1_verdict.unique is Verdict.MARGINAL
    assert system.label is SystemLabel.INDETERMINATE and system.l1_unique is None
    for verdict in (equivalence_verdict(A, b, tol), equivalence_verdict(A, b, tol, system=system)):
        assert verdict.status is EquivalenceStatus.INDETERMINATE
        assert verdict.passing_support is None and not verdict.equivalent
        assert [c.holds for c in verdict.certificates] == [Verdict.MARGINAL]


def test_equivalence_with_a_system_matches_a_fresh_search():
    for A, b in [(TRIPLE_A, TRIPLE_B), (DENSE_A, DENSE_B), (TIED_A, TIED_B),
                 (COHERENT_A, COHERENT_B), (UNIQUE_A, UNIQUE_B)]:
        fresh = equivalence_verdict(A, b)
        reused = equivalence_verdict(A, b, system=classify_system(A, b))
        assert reused.status is fresh.status
        assert reused.passing_support == fresh.passing_support
        for a, c in zip(reused.certificates, fresh.certificates):
            assert (a.support, a.holds, a.t_star) == (c.support, c.holds, c.t_star)
            assert np.array_equal(a.witness_y, c.witness_y)


def test_equivalence_agrees_with_the_l1_certifier():
    # Equivalence holds exactly when the certified l1 optimum has a sparsest
    # support; check both directions on fixtures and random systems.
    fixtures = [(TRIPLE_A, TRIPLE_B), (DENSE_A, DENSE_B), (UNIQUE_A, UNIQUE_B),
                (TIED_A, TIED_B), (COHERENT_A, COHERENT_B)]
    rng = np.random.default_rng(34)
    for _ in range(25):
        A, b, _ = planted_system(rng, 3, 7, int(rng.integers(1, 4)))
        fixtures.append((A, b))
    for A, b in fixtures:
        verdict = equivalence_verdict(A, b)
        x, unique = solve_and_certify(A, b)
        if unique.unique is Verdict.MARGINAL or verdict.status is EquivalenceStatus.INDETERMINATE:
            continue
        certified_sparse = (unique.unique is Verdict.YES
                            and support_of(x) in verdict.sparsest.supports)
        assert verdict.equivalent == certified_sparse
