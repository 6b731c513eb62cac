from itertools import combinations

import numpy as np
import pytest

from rspcert import (BudgetExceeded, CertificateUnavailable, IterationLimit,
                     Verdict, certify_order_k, check_rsp_at, spark,
                     sparsest_supports, uniform_recovery_oracle)
from rspcert.orderk import QUANTIFIERS

from conftest import COHERENT_A


def _gaussian(i, shape=(4, 8)):
    return np.random.default_rng([77, i]).standard_normal(shape)


def spark_consistency(A, K):
    """A yes at order K forces K < spark(A); vacuously true otherwise."""
    if certify_order_k(A, K).holds is not Verdict.YES:
        return True
    return K < spark(A)


def unique_sparsest_consequence(A, K, seed=0):
    """The downstream sparsity claim of a yes verdict at order K.

    When the order-K property holds, any vector planted on a support of size
    at most K must come back from the brute-force enumeration as the single
    sparsest support.  Vacuously true when the property does not hold.
    """
    if certify_order_k(A, K).holds is not Verdict.YES:
        return True
    n = A.shape[1]
    rng = np.random.default_rng(seed)
    for k in range(1, K + 1):
        for S in combinations(range(n), k):
            planted = np.zeros(n)
            planted[list(S)] = rng.uniform(0.1, 1.0, size=k)
            found = sparsest_supports(A, A @ planted)
            if found.k_star != k or found.supports != [S]:
                return False
    return True


# ---------------------------------------------------------- certify_order_k

def test_identity_has_order_two_property():
    report = certify_order_k(np.eye(2), 2)
    assert report.holds is Verdict.YES
    assert report.counterexample is None
    assert report.subsets_checked == 3


def test_coherent_matrix_fails_at_order_two():
    report = certify_order_k(COHERENT_A, 2)
    assert report.holds is Verdict.NO
    # First failing subset in enumeration order: {0, 1}.  The equalities pin
    # y = (-1, t, -1), forcing the correlation with column 5 to sqrt(2) > 1.
    assert report.counterexample == (0, 1)
    # The counterexample re-checks with a single support certificate.
    assert check_rsp_at(COHERENT_A, report.counterexample).holds is Verdict.NO
    # The antiparallel pair {4, 5} fails as well: eta there would need
    # +1 and -1 from the same inner product.  Its equality system has a
    # strictly positive least-squares residual, so it is outright infeasible.
    AS = COHERENT_A[:, [4, 5]]
    y, *_ = np.linalg.lstsq(AS.T, np.ones(2), rcond=None)
    assert np.abs(AS.T @ y - 1.0).max() > 0.5
    assert check_rsp_at(COHERENT_A, (4, 5)).holds is Verdict.NO
    assert report.failures_per_size == {2: 3}


def test_all_singletons_of_coherent_matrix_pass():
    report = certify_order_k(COHERENT_A, 1)
    assert report.holds is Verdict.YES


def test_rank_one_row_of_ones_fails_at_order_one():
    # The range of the transpose is spanned by the ones vector, so eta = 1 on
    # one index forces eta = 1 everywhere.
    A = np.ones((1, 4))
    report = certify_order_k(A, 1)
    assert report.holds is Verdict.NO
    assert report.counterexample == (0,)


def test_order_k_monotone_in_k():
    for i in range(8):
        A = _gaussian(i)
        verdicts = [certify_order_k(A, K).holds for K in (1, 2, 3)]
        for smaller, larger in zip(verdicts, verdicts[1:]):
            if larger is Verdict.YES:
                assert smaller is Verdict.YES


def test_order_k_budget_guard():
    rng = np.random.default_rng(40)
    A = rng.standard_normal((4, 30))
    with pytest.raises(BudgetExceeded):
        certify_order_k(A, 8)


@pytest.mark.parametrize("run", [
    lambda A, prop: certify_order_k(A, 8, property=prop),
    lambda A, prop: certify_order_k(A[:2], 8, property=prop),  # rank 2 < K: wrsp's early no too
    lambda A, prop: uniform_recovery_oracle(A, 8, property=prop),
    lambda A, prop: uniform_recovery_oracle(A[:2], 8, property=prop),
])
def test_order_k_budget_refuses_before_any_solve(monkeypatch, run):
    import rspcert.orderk as orderk
    import rspcert.rsp as rsp

    # The certifier and the oracle reach the LP core through these names;
    # every LP solve of either goes through rsp.solve_batch.
    calls = []
    monkeypatch.setattr(orderk, "check_rsp_batch", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(orderk, "solve_and_certify_batch", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(rsp, "solve_batch", lambda *a, **k: calls.append(a))
    A = np.random.default_rng(40).standard_normal((4, 30))
    for prop in QUANTIFIERS:
        with pytest.raises(BudgetExceeded):
            run(A, prop)
    assert calls == []


@pytest.mark.parametrize("run", [
    lambda A: certify_order_k(A, 2, property="RSP"),
    lambda A: uniform_recovery_oracle(A, 2, property="RSP"),
])
def test_unknown_property_is_refused_before_any_solve(monkeypatch, run):
    import rspcert.linalg as linalg
    import rspcert.orderk as orderk
    import rspcert.rsp as rsp

    calls = []
    monkeypatch.setattr(rsp, "solve_batch", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(orderk, "rank", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(linalg, "_pivoted_rank", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="unknown property 'RSP'") as info:
        run(np.random.default_rng(40).standard_normal((4, 8)))
    assert all(prop in str(info.value) for prop in QUANTIFIERS)
    assert calls == []



def _break_first_l1_stack(monkeypatch, at):
    """Make the first stack of l1 LPs return a breakdown for its LP ``at``."""
    import rspcert.rsp as rsp

    real = rsp.solve_batch
    stacks = []

    def solve_batch(lps, *args, **kwargs):
        results = real(lps, *args, **kwargs)
        if np.all(lps.objective == 1.0):     # the l1 LPs
            stacks.append(len(results))
            if len(stacks) == 1:
                results[at] = IterationLimit("injected breakdown")
        return results
    monkeypatch.setattr(rsp, "solve_batch", solve_batch)
    return stacks


def test_oracle_breakdown_after_the_first_failure_is_not_raised(monkeypatch):
    # Three trials per support: the first window holds supports 0-7, 24 l1
    # LPs, and support 6 fails recovery.  A breakdown at support 7's last
    # trial comes after it and is never reached.
    A = np.random.default_rng([2027, 0]).standard_normal((5, 10))
    stacks = _break_first_l1_stack(monkeypatch, 23)
    report = uniform_recovery_oracle(A, 2, trials_per_support=3, property="prsp")
    assert stacks == [24]
    assert (report.recovers, report.failing_support, report.supports_checked) == (False, (0, 7), 7)


def test_oracle_breakdown_before_the_first_failure_is_raised(monkeypatch):
    A = np.random.default_rng([2027, 0]).standard_normal((5, 10))
    _break_first_l1_stack(monkeypatch, 4)
    with pytest.raises(CertificateUnavailable, match="injected breakdown"):
        uniform_recovery_oracle(A, 2, trials_per_support=3, property="prsp")



def test_oracle_draws_follow_the_one_by_one_stream(monkeypatch):
    # Every trial's measurements, across all windows, are those of one
    # planted draw per trial, support after support, from the seed's stream.
    import rspcert.orderk as orderk

    A = np.random.default_rng([2027, 25]).standard_normal((5, 10))
    seen = []
    real = orderk.solve_and_certify_batch

    def recording(A, rhs, tol):
        seen.append(rhs)
        return real(A, rhs, tol)
    monkeypatch.setattr(orderk, "solve_and_certify_batch", recording)
    report = uniform_recovery_oracle(A, 2, trials_per_support=3, seed=5)
    assert report.recovers and report.supports_checked == 55
    assert [len(rhs) for rhs in seen] == [24, 6, 24, 48, 63]   # 8, 2 | 8, 16, 21 supports
    rng = np.random.default_rng(5)
    expected = []
    for k in (1, 2):
        for S in combinations(range(10), k):
            for _ in range(3):
                planted = np.zeros(10)
                planted[list(S)] = rng.uniform(0.1, 1.0, size=k)
                expected.append(A @ planted)
    assert np.array_equal(np.concatenate(seen), np.array(expected))


# ------------------------------------------------- weak / partial properties

def test_identity_satisfies_all_weakened_properties():
    for prop in QUANTIFIERS:
        assert certify_order_k(np.eye(2), 2, property=prop).holds is Verdict.YES


def test_prsp_fails_on_coherent_matrix():
    report = certify_order_k(COHERENT_A, 2, property="prsp")
    assert report.holds is Verdict.NO
    assert report.counterexample == (0, 1)
    assert check_rsp_at(COHERENT_A, report.counterexample).holds is Verdict.NO


def test_wrsp_requires_a_full_rank_subset():
    A = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    report = certify_order_k(A, 2, property="wrsp")
    assert report.holds is Verdict.NO
    assert report.no_full_rank_subset is True
    assert report.counterexample is None


def test_pwrsp_vacuous_when_no_full_rank_subset():
    A = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    report = certify_order_k(A, 2, property="pwrsp")
    assert report.holds is Verdict.YES
    assert report.no_full_rank_subset is True


def test_wrsp_skips_the_dependent_pair():
    full = certify_order_k(COHERENT_A, 2)
    weak = certify_order_k(COHERENT_A, 2, property="wrsp")
    # The dependent pair is excluded from the weak quantifier, so the weak
    # check runs over one fewer subset than the plain one.
    assert weak.subsets_checked == full.subsets_checked - 1
    # Both still fail: the first counterexample has full column rank.
    assert weak.holds is Verdict.NO
    assert weak.counterexample == (0, 1)


def test_verdicts_ignore_row_rotation_and_column_order():
    # R((QA)^T) = R(A^T) for an orthogonal Q, so every support's margin LP and
    # rank test pose the same question; a column permutation relabels the
    # supports, so only the counts are comparable.
    same = ("holds", "counterexample", "subsets_checked", "failures_per_size",
            "marginal_subsets", "no_full_rank_subset")
    verdicts = []
    for seed in range(8):
        rng = np.random.default_rng([2029, seed])
        A = rng.standard_normal((5, 10))
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        perm = rng.permutation(10)
        for prop in QUANTIFIERS:
            for K in (1, 2, 3):
                base = certify_order_k(A, K, property=prop)
                rotated = certify_order_k(Q @ A, K, property=prop)
                permuted = certify_order_k(A[:, perm], K, property=prop)
                assert ([getattr(rotated, f) for f in same]
                        == [getattr(base, f) for f in same]), (seed, prop, K)
                counts = [(r.holds, r.subsets_checked, r.failures_per_size,
                           len(r.marginal_subsets)) for r in (base, permuted)]
                assert counts[0] == counts[1], (seed, prop, K)
                verdicts.append(base.holds)
    assert {Verdict.YES, Verdict.NO} <= set(verdicts)


def test_implication_chain_on_random_matrices():
    for i in range(8):
        A = _gaussian(i)
        for K in (1, 2, 3):
            holds = {prop: certify_order_k(A, K, property=prop).holds for prop in QUANTIFIERS}
            if holds["rsp"] is Verdict.YES:
                assert holds["prsp"] is Verdict.YES
                assert holds["wrsp"] is Verdict.YES
            if holds["wrsp"] is Verdict.YES:
                assert holds["pwrsp"] is Verdict.YES


def test_weak_properties_bound_the_order_by_m():
    for i in range(5):
        A = _gaussian(i, shape=(3, 6))
        for K in (1, 2, 3):
            if certify_order_k(A, K, property="wrsp").holds is Verdict.YES:
                assert K <= 3
            report = certify_order_k(A, K, property="pwrsp")
            if report.holds is Verdict.YES and not report.no_full_rank_subset:
                assert K <= 3


def test_partial_property_bounds_the_order_by_spark():
    for i in range(5):
        A = _gaussian(i)
        for K in (1, 2, 3):
            if certify_order_k(A, K, property="prsp").holds is Verdict.YES:
                assert K < spark(A)


# ------------------------------------------------------------ oracle duality

def test_oracle_recovers_identity():
    report = uniform_recovery_oracle(np.eye(2), 2)
    assert report.recovers is True
    assert report.failing_support is None


def test_oracle_fails_on_coherent_matrix():
    report = uniform_recovery_oracle(COHERENT_A, 2)
    assert report.recovers is False
    assert report.failing_support == (0, 1)


@pytest.mark.parametrize("trials", [0, -3])
def test_oracle_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials_per_support"):
        uniform_recovery_oracle(np.eye(2), 2, trials_per_support=trials)


def test_oracle_is_replayable_from_its_seed():
    first = uniform_recovery_oracle(COHERENT_A, 2, seed=5)
    second = uniform_recovery_oracle(COHERENT_A, 2, seed=5)
    assert first == second


def test_certifier_and_oracle_agree_on_random_matrices():
    # Independent procedures: subset margin LPs versus actual l1 recovery of
    # planted vectors.  Five seeded matrices here; the acceptance suite runs
    # the full twenty.
    for i in range(5):
        A = _gaussian(i)
        for K in (1, 2, 3):
            report = certify_order_k(A, K)
            oracle = uniform_recovery_oracle(A, K, seed=i)
            if report.holds is Verdict.MARGINAL:
                continue
            assert (report.holds is Verdict.YES) == oracle.recovers


def test_restricted_oracles_agree_with_weak_and_partial_properties():
    for i in range(4):
        A = _gaussian(i)
        for K in (1, 2):
            for prop in QUANTIFIERS:
                report = certify_order_k(A, K, property=prop)
                if report.holds is not Verdict.MARGINAL and not report.no_full_rank_subset:
                    oracle = uniform_recovery_oracle(A, K, seed=i, property=prop)
                    assert (report.holds is Verdict.YES) == oracle.recovers


# ------------------------------------------------------------- consequences

def test_spark_consistency_identity():
    assert spark_consistency(np.eye(2), 2) is True


def test_spark_consistency_vacuous_on_failing_matrix():
    assert spark_consistency(COHERENT_A, 2) is True


def test_spark_consistency_on_random_matrices():
    for i in range(10):
        assert spark_consistency(_gaussian(i), int(np.random.default_rng(i).integers(1, 4))) is True


def test_unique_sparsest_consequence_identity():
    assert unique_sparsest_consequence(np.eye(2), 2) is True


def test_unique_sparsest_consequence_vacuous_on_failing_matrix():
    assert unique_sparsest_consequence(COHERENT_A, 2) is True


def test_unique_sparsest_consequence_random():
    for i in range(4):
        assert unique_sparsest_consequence(_gaussian(i), 1, seed=i) is True


def test_order_k_rejects_bad_orders():
    with pytest.raises(ValueError):
        certify_order_k(np.eye(2), 0)
    with pytest.raises(ValueError):
        certify_order_k(np.eye(2), 3)
