import numpy as np
import pytest

from rspcert import (BudgetExceeded, EquivalenceStatus, Infeasible,
                     NoSolutionWithin, SystemLabel, Verdict, augmented_rank,
                     check_rsp_at, classify_system, equivalence_verdict,
                     solve_and_certify, sparsest_supports, support_of)

from conftest import (COHERENT_A, COHERENT_B, COHERENT_X, DENSE_A, DENSE_B,
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
    import rspcert.oracle as oracle
    from rspcert import CertificateUnavailable, IterationLimit

    real = oracle.solve_batch

    def solve_batch(lps, *args, **kwargs):
        results = real(lps, *args, **kwargs)
        results[1] = IterationLimit("injected breakdown")
        return results
    monkeypatch.setattr(oracle, "solve_batch", solve_batch)
    A = np.random.default_rng(33).standard_normal((3, 12))
    with pytest.raises(CertificateUnavailable, match="injected breakdown"):
        sparsest_supports(A, 2.0 * A[:, 5])


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

    def recording(A, block, rank_tol):
        built.extend(tuple(S) for S in block.tolist())
        return margin_stacks(A, block, rank_tol)

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
