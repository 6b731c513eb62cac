import math

import numpy as np
import pytest

from rspcert import (BudgetExceeded, ToleranceConfig, ZeroColumn, as_matrix,
                     augmented_rank, check_rsp_at, coherence_bound_holds, mutual_coherence,
                     normalize_support, rank, rank_details, spark,
                     sparsity_bound, submatrix)

from conftest import COHERENT_A, COHERENT_X, TIED_A, UNIQUE_A


def test_rank_full_on_certifying_support():
    assert rank(UNIQUE_A, (0, 1)) == 2


def test_rank_deficient_on_full_support():
    assert rank(TIED_A, (0, 1, 2, 3)) == 3


def test_rank_empty_support_is_zero_and_full():
    S = ()
    assert rank(UNIQUE_A, S) == 0 == len(S)


def test_rank_monotone_under_growing_support():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 9))
    order = list(rng.permutation(9))
    previous = 0
    for size in range(10):
        r = rank(A, sorted(order[:size]))
        assert previous <= r <= min(size, 4)
        previous = r


def test_augmented_rank_separates_ones_row():
    # The ones row can repair a deficient pair of columns.
    A = np.array([[-1.0, 1.0], [0.0, 0.0]])
    assert rank(A, (0, 1)) == 1
    assert augmented_rank(A, (0, 1)) == 2
    assert augmented_rank(A, ()) == 0


def test_augmented_rank_within_one_of_plain_rank():
    rng = np.random.default_rng(4)
    for _ in range(30):
        A = rng.standard_normal((3, 7))
        S = sorted(rng.choice(7, size=rng.integers(1, 5), replace=False))
        r = rank(A, S)
        aug = augmented_rank(A, S)
        assert r <= aug <= r + 1


def test_mutual_coherence_of_coherent_pair():
    assert mutual_coherence(COHERENT_A) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_mutual_coherence_orthonormal_columns():
    assert mutual_coherence(np.eye(2)) == 0.0


def test_mutual_coherence_parallel_columns():
    a = np.array([[1.0], [2.0], [-1.0]])
    A = np.hstack([a, 2.0 * a])
    assert mutual_coherence(A) == pytest.approx(1.0, abs=1e-12)


def test_mutual_coherence_rejects_zero_column():
    with pytest.raises(ZeroColumn):
        mutual_coherence(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_mutual_coherence_invariant_under_scaling_and_permutation():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 6))
    mu = mutual_coherence(A)
    scales = rng.uniform(0.2, 5.0, size=6)
    perm = rng.permutation(6)
    assert mutual_coherence((A * scales)[:, perm]) == pytest.approx(mu, abs=1e-12)
    # A column is zero only relative to the largest one, at any global scale.
    B = np.random.default_rng([0, 7]).standard_normal((6, 12))
    for s in (1e-9, 1e9):
        assert mutual_coherence(s * A) == pytest.approx(mu, abs=1e-12)
        assert mutual_coherence(s * B) == pytest.approx(mutual_coherence(B), abs=1e-12)
    assert mutual_coherence(B) == pytest.approx(0.851, abs=1e-3)


def test_coherence_bound_fails_for_coherent_pair():
    # Support size 2 sits above the bound (1 + 1/mu)/2 = (sqrt2 + sqrt3)/(2 sqrt2).
    expected = (math.sqrt(2) + math.sqrt(3)) / (2.0 * math.sqrt(2))
    assert sparsity_bound(COHERENT_A) == pytest.approx(expected, abs=1e-12)
    assert coherence_bound_holds(COHERENT_A, COHERENT_X) is False


def test_coherence_bound_holds_for_zero_vector():
    assert coherence_bound_holds(COHERENT_A, np.zeros(6)) is True


def test_coherence_bound_infinite_for_orthogonal_columns():
    assert sparsity_bound(np.eye(2)) == math.inf
    assert coherence_bound_holds(np.eye(2), [1.0, 1.0]) is True


def test_spark_of_dependent_pair():
    assert spark(COHERENT_A) == 2


def test_spark_sentinel_for_identity():
    assert spark(np.eye(3)) == 4


def test_spark_with_zero_column():
    assert spark(np.array([[1.0, 0.0], [2.0, 0.0]])) == 1


def test_spark_budget_guard():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 12))
    with pytest.raises(BudgetExceeded):
        spark(A, budget=10)


def test_spark_budget_is_checked_lazily_per_size():
    # Two equal columns: spark 2 is found among the pairs, and the larger
    # sizes, which would exceed the budget, are never reached.
    A = np.random.default_rng(7).standard_normal((3, 12))
    A[:, 11] = A[:, 4]
    assert spark(A, budget=12 + math.comb(12, 2)) == 2


def test_spark_random_gaussian_hits_m_plus_one():
    # Generic 4x8 matrices have every 4-column subset independent.
    for i in range(20):
        A = np.random.default_rng(100 + i).standard_normal((4, 8))
        assert spark(A) == 5


def test_spark_at_most_rank_plus_one_when_wide():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.standard_normal((3, 6))
        assert spark(A) <= rank(A) + 1


def test_spark_at_least_two_without_zero_columns():
    for A in (UNIQUE_A, TIED_A, COHERENT_A):
        assert spark(A) >= 2


def test_submatrix_orders_columns_ascending():
    got = submatrix(UNIQUE_A, (3, 0))
    assert np.array_equal(got, UNIQUE_A[:, [0, 3]])


def test_normalize_support_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        normalize_support((1, 1), 4)
    with pytest.raises(ValueError):
        normalize_support((4,), 4)
    # Non-integral indices are refused, not truncated; integers of either kind pass.
    for bad in (0.9, 2.2, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="not an integer"):
            normalize_support((bad,), 4)
    with pytest.raises(ValueError, match="index 0.9 is not an integer"):
        check_rsp_at(np.eye(3), [0.9])
    with pytest.raises(ValueError, match="index 2.2 is not an integer"):
        rank(np.eye(3), [2.2])
    assert normalize_support((np.int64(3), 0, np.int32(2)), 4) == (0, 2, 3)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, math.nan]])
    with pytest.raises(ValueError):
        as_matrix([[1.0, math.inf]])


def test_tolerances_validated():
    with pytest.raises(ValueError):
        ToleranceConfig(feas_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(rsp_margin=1e-9, feas_tol=1e-8)
    # Infinite or NaN thresholds would switch their checks off.
    for name in ("feas_tol", "rank_tol", "rsp_margin", "gap_tol", "zero_tol"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
                ToleranceConfig(**{name: value})


def test_rank_marginal_flag_near_threshold():
    # One singular direction sits just above the accept threshold.
    tol = ToleranceConfig(rank_tol=1e-6)
    A = np.array([[1.0, 1.0], [0.0, 3e-6]])
    details = rank_details(A, (0, 1), tol)
    assert details.rank == 2
    assert details.marginal is True


@pytest.mark.parametrize("largest", [0.5, 4.0], ids=["floor", "largest entry"])
def test_rank_threshold_and_marginal_band(largest):
    # M = diag(B, sigma) has the singular values of B and sigma.  A singular
    # value counts iff it exceeds rank_tol * max(1, max|M|): rank_tol under
    # the floor (max|B| = 0.5), 4 rank_tol above it.  Both differ from
    # rank_tol * sigma_max(M) = sqrt(2) rank_tol max|B|.  A rank is marginal
    # iff a singular value lies within 10x of the threshold, either side.
    from rspcert.linalg import _block_ranks

    tol = ToleranceConfig()
    threshold = tol.rank_tol * max(1.0, largest)
    for factor, found, marginal in [(0.09, 2, False), (0.11, 2, True), (0.9, 2, True),
                                    (1.1, 3, True), (9.0, 3, True), (11.0, 3, False)]:
        M = np.zeros((3, 3))
        M[:2, :2] = largest * np.array([[1.0, 1.0], [1.0, -1.0]])
        M[2, 2] = factor * threshold
        details = rank_details(M, None, tol)
        assert (details.rank, details.marginal) == (found, marginal), factor
        assert rank(M, None, tol) == found
        ranks, near = _block_ranks(M, [(0, 1, 2)], tol.rank_tol)
        assert (ranks.tolist(), near.tolist()) == ([found], [marginal]), factor


def test_stacked_rank_probe_matches_each_probe_alone(monkeypatch):
    # One stacked probe per block must give every support the rank and
    # marginal flag of its probe alone, at any position in the stack and at
    # any scale of the data.  The weak properties range instead over the
    # supports that pass the full-column-rank gate, rank_tol * sigma_max(A)
    # on the R-diagonal of A's row reduction, at every scale: the nearly
    # dependent pair (4, 9), whose sigma_min lies above the probe's
    # threshold at scale 1 and above and below the gate's at every scale,
    # is out.
    from itertools import combinations, compress
    from types import SimpleNamespace

    import rspcert.orderk as orderk
    from rspcert import Verdict, certify_order_k
    from rspcert.linalg import _block_ranks, _full_column_rank, _row_reduction

    rng = np.random.default_rng(71)
    A = rng.standard_normal((6, 12))
    A[:, 11] = A[:, 0] + A[:, 1]             # a dependent triple
    A[:, 10] = 2.0 * A[:, 3]                  # a dependent pair
    A[:, 9] = A[:, 4] + 3e-8 * A[:, 5]        # a nearly dependent pair (marginal)
    tol = ToleranceConfig(rank_tol=1e-8)
    # A quantifier's count does not depend on the margin LPs, so each
    # answers yes here (the LP core refuses the one at (4,)).
    monkeypatch.setattr(orderk, "_margin_solves", lambda A, block, tol, rows, settled:
                        [SimpleNamespace(holds=Verdict.YES)] * int((~settled).sum()))
    for scale in (1e-4, 1.0, 1e4, 1e8):
        sA = scale * A
        rows = _row_reduction(sA, tol)
        gated = {}
        for k in (1, 2, 3, 4):
            block = list(combinations(range(12), k))
            ranks, marginal = _block_ranks(sA, block, tol.rank_tol)
            for S, found, near in zip(block, ranks.tolist(), marginal.tolist()):
                alone = rank_details(sA, S, tol)
                assert (found, near) == (alone.rank, alone.marginal), (scale, S)
                if not near:
                    assert found == np.linalg.matrix_rank(sA[:, list(S)], tol=1e-6 * scale), \
                        (scale, S)
            if scale == 1.0:
                assert marginal.any() == (k >= 2)
            full = _full_column_rank(rows.At, np.array(block), rows.floor)[0]
            gated[k] = list(compress(block, full))
            # Away from the gate's threshold it is sigma_min(A_S) > rank_tol * sigma_max(A).
            least = np.linalg.svd(sA[:, block].transpose(1, 0, 2), compute_uv=False)[:, -1]
            clear = (least < 0.1 * rows.floor) | (least > 10.0 * rows.floor)
            assert (full == (least > rows.floor))[clear].all(), scale
        for K in (2, 3):
            assert (certify_order_k(sA, K, tol, property="pwrsp").subsets_checked
                    == len(gated[K])), (scale, K)
            assert (certify_order_k(sA, K, tol, property="wrsp").subsets_checked
                    == sum(len(gated[k]) for k in range(1, K + 1))), (scale, K)
        assert (4, 9) not in gated[2]
        if scale >= 1.0:
            assert rank(sA, (4, 9), tol) == 2, scale
        assert (0, 1, 11) not in gated[3] and (3, 5, 10) not in gated[3]


def test_support_enumeration_yields_blocks_in_order():
    from itertools import combinations

    from rspcert.linalg import SupportEnumeration

    A = np.random.default_rng(72).standard_normal((3, 14))
    supports = SupportEnumeration(A, [1, 2, 7], 10**6)
    flat = [(k, S) for k, block in supports for S in block]
    assert flat == [(k, S) for k in (1, 2, 7) for S in combinations(range(14), k)]
    assert supports.count == len(flat) == 14 + 91 + 3432
