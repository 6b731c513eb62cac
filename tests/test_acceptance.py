"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Each criterion is one test; the helper prints its verdict
line even when an assertion trips.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from rspcert import (OPTIMAL, EquivalenceStatus, FailureReason, StandardLp,
                     SystemLabel, Verdict, augmented_rank, certify_uniqueness,
                     check_rsp_at,
                     equivalence_verdict, mutual_coherence,
                     coherence_bound_holds, classify_system, certify_order_k,
                     solve, solve_and_certify, solve_l1, spark,
                     sparsest_supports, support_of, uniform_recovery_oracle,
                     verify_certificate)
from rspcert.cli import main
from rspcert.orderk import QUANTIFIERS

from conftest import (COHERENT_A, COHERENT_B, COHERENT_X, DENSE_A, DENSE_B,
                      DENSE_SPARSEST, DENSE_X, TIED_A, TIED_B, TIED_X_FULL,
                      TIED_X_SPARSE, TRIPLE_A, TRIPLE_B, TRIPLE_X3, UNIQUE_A,
                      UNIQUE_B, UNIQUE_X, planted_system, write_csv_matrix,
                      write_csv_vector)
from rational_lp import rational_feasible


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


FIXTURES = [(UNIQUE_A, UNIQUE_B), (TIED_A, TIED_B), (COHERENT_A, COHERENT_B),
            (TRIPLE_A, TRIPLE_B), (DENSE_A, DENSE_B)]


@pytest.fixture(scope="module")
def gaussian_suite():
    """Twenty seeded 4x8 Gaussian matrices with all order-K reports cached."""
    suite = []
    for i in range(20):
        A = np.random.default_rng([77, i]).standard_normal((4, 8))
        per_k = {}
        for K in (1, 2, 3):
            per_k[K] = {prop: certify_order_k(A, K, property=prop) for prop in QUANTIFIERS}
            per_k[K]["oracle"] = uniform_recovery_oracle(A, K, seed=i)
        suite.append((A, per_k))
    return suite


def test_a01_unique_solution_certificate_and_witness(tmp_path):
    with criterion("A01 unique-solution certificate emits a valid witness"):
        a, b, x = tmp_path / "A.csv", tmp_path / "b.csv", tmp_path / "x.csv"
        write_csv_matrix(a, UNIQUE_A)
        write_csv_vector(b, UNIQUE_B)
        write_csv_vector(x, UNIQUE_X)
        out = tmp_path / "report.json"
        assert main(["certify", str(a), str(b), str(x), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        cert = report["verdicts"]["uniqueness"]
        assert cert["unique"] == "yes"
        eta = np.array(cert["rsp"]["witness_eta"])
        assert abs(eta[0] - 1.0) <= 1e-8 and abs(eta[1] - 1.0) <= 1e-8
        assert eta[2] <= 1.0 - 1e-7 and eta[3] <= 1.0 - 1e-7


def test_a02_tied_optima_fail_for_complementary_reasons(tmp_path):
    with criterion("A02 tied optima fail on rank and margin respectively; class G3"):
        full = certify_uniqueness(TIED_A, TIED_B, TIED_X_FULL)
        assert full.unique is Verdict.NO
        assert full.reason is FailureReason.RANK_DEFICIENT
        sparse = certify_uniqueness(TIED_A, TIED_B, TIED_X_SPARSE)
        assert sparse.unique is Verdict.NO
        assert sparse.reason is FailureReason.RSP_FAILED
        assert abs(np.abs(TIED_X_FULL).sum() - 10.5) <= 1e-9
        assert abs(np.abs(TIED_X_SPARSE).sum() - 10.5) <= 1e-9
        a, b = tmp_path / "A.csv", tmp_path / "b.csv"
        write_csv_matrix(a, TIED_A)
        write_csv_vector(b, TIED_B)
        out = tmp_path / "report.json"
        assert main(["classify", str(a), str(b), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdicts"]["system_class"]["class"] == "G3"


def test_a03_coherent_pair_metrics_and_certification():
    with criterion("A03 coherence, bound, support certificate, equivalence, spark"):
        assert abs(mutual_coherence(COHERENT_A) - math.sqrt(2.0 / 3.0)) <= 1e-12
        assert coherence_bound_holds(COHERENT_A, COHERENT_X) is False
        assert check_rsp_at(COHERENT_A, (0, 2)).holds is Verdict.YES
        assert equivalence_verdict(COHERENT_A, COHERENT_B).equivalent is True
        assert spark(COHERENT_A) == 2


def test_a04_multi_sparsest_system_certifies_one_support():
    with criterion("A04 three sparsest supports, single certified support, class G2"):
        report = sparsest_supports(TRIPLE_A, TRIPLE_B)
        assert report.k_star == 2 and len(report.supports) == 3
        passing = [S for S in report.supports
                   if check_rsp_at(TRIPLE_A, S).holds is Verdict.YES]
        assert passing == [(0, 4)]
        x = solve_l1(TRIPLE_A, TRIPLE_B)
        assert np.abs(x - TRIPLE_X3).max() <= 1e-8
        assert abs(x.sum() - 1.0 / 3.0) <= 1e-9
        assert classify_system(TRIPLE_A, TRIPLE_B).label is SystemLabel.G2
        assert equivalence_verdict(TRIPLE_A, TRIPLE_B).status is EquivalenceStatus.EQUIVALENT


def test_a05_dense_optimum_beats_sparsest_on_l1():
    with criterion("A05 unique l1 optimum denser than the sparsest solution"):
        x, verdict = solve_and_certify(DENSE_A, DENSE_B)
        assert np.abs(x - DENSE_X).max() <= 1e-8
        assert verdict.unique is Verdict.YES
        report = sparsest_supports(DENSE_A, DENSE_B)
        assert report.supports == [(3,)]
        assert equivalence_verdict(DENSE_A, DENSE_B).status is EquivalenceStatus.NOT_EQUIVALENT
        l1_opt = np.abs(x).sum()
        assert abs(l1_opt - 5.0 / 6.0) <= 1e-9
        assert l1_opt < np.abs(DENSE_SPARSEST).sum()


def test_a06_certifier_matches_recovery_oracle(gaussian_suite):
    with criterion("A06 order-K certifier equals recovery oracle on 60 seeded cases"):
        hard = 0
        agreed = 0
        marginal = 0
        for _, per_k in gaussian_suite:
            for K in (1, 2, 3):
                report = per_k[K]["rsp"]
                oracle = per_k[K]["oracle"]
                if report.holds is Verdict.MARGINAL:
                    marginal += 1
                    continue
                hard += 1
                agreed += (report.holds is Verdict.YES) == oracle.recovers
        print(f"  hard cases {hard}, agreed {agreed}, marginal excluded {marginal}")
        assert hard == 60 - marginal
        assert agreed == hard  # zero hard disagreements


def test_a07_monotonicity_and_implications(gaussian_suite):
    with criterion("A07 monotonicity, implication chain, spark bound: zero violations"):
        for A, per_k in gaussian_suite:
            spark_value = None
            for K in (1, 2, 3):
                holds = per_k[K]["rsp"].holds
                if holds is Verdict.YES and K > 1:
                    assert per_k[K - 1]["rsp"].holds is Verdict.YES
                if holds is Verdict.YES:
                    assert per_k[K]["prsp"].holds is Verdict.YES
                    if spark_value is None:
                        spark_value = spark(A)
                    assert K < spark_value
                if per_k[K]["wrsp"].holds is Verdict.YES:
                    assert per_k[K]["pwrsp"].holds is Verdict.YES


def test_a08_certified_solutions_are_m_sparse():
    with criterion("A08 every certified-unique solution is m-sparse"):
        for A, b in FIXTURES:
            x, verdict = solve_and_certify(A, b)
            if verdict.unique is Verdict.YES:
                assert len(support_of(x)) <= A.shape[0]
        rng = np.random.default_rng(80)
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


def test_a09_sparsest_supports_pass_augmented_rank():
    with criterion("A09 sparsest supports stack to full rank with the ones row"):
        rng = np.random.default_rng(81)
        for _ in range(50):
            A, b, _ = planted_system(rng, 3, 7, int(rng.integers(1, 4)))
            report = sparsest_supports(A, b)
            for S in report.supports:
                assert augmented_rank(A, S) == len(S)


def test_a10_lp_core_sound_against_exact_oracle():
    with criterion("A10 LP core: certificates verify, feasibility matches exact oracle"):
        rng = np.random.default_rng(82)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(2, 13))
            B = rng.integers(-5, 6, size=(m, n)).astype(float)
            x0 = rng.integers(0, 5, size=n).astype(float)
            lp = StandardLp(rng.integers(-5, 6, size=n).astype(float), B, B @ x0)
            sol = solve(lp)
            if sol.status == OPTIMAL:
                assert verify_certificate(lp, sol)
            assert rational_feasible(B.tolist(), (B @ x0).tolist())
        # Mixed feasible/infeasible classification against the exact oracle.
        for _ in range(120):
            B = rng.integers(-5, 6, size=(3, 6)).astype(float)
            p = rng.integers(-5, 6, size=3).astype(float)
            sol = solve(StandardLp(np.zeros(6), B, p))
            assert (sol.status != "infeasible") == rational_feasible(B.tolist(), p.tolist())


def test_a11_weighted_certificate_matches_rescaled_problem():
    with criterion("A11 weighted verdicts equal plain verdicts on rescaled data"):
        rng = np.random.default_rng(83)
        for _ in range(20):
            A, b, x = planted_system(rng, 3, 7, int(rng.integers(1, 3)))
            w = rng.uniform(0.5, 3.0, size=7)
            weighted = certify_uniqueness(A, b, x, weights=w)
            rescaled = certify_uniqueness(A / w, b, w * x)
            assert weighted.unique is rescaled.unique


def test_a12_random_batch_replays_byte_identical(capsys):
    with criterion("A12 seeded batch replay is byte-identical (timing excluded)"):
        argv = ["random-batch", "--m", "4", "--n", "8", "--k", "2",
                "--count", "5", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        first_lines = first.strip().splitlines()
        second_lines = second.strip().splitlines()
        # Record lines carry no timing and must match byte for byte.
        assert first_lines[:-1] == second_lines[:-1]
        summary_first = json.loads(first_lines[-1])
        summary_second = json.loads(second_lines[-1])
        summary_first.pop("timing_ms")
        summary_second.pop("timing_ms")
        assert summary_first == summary_second
        assert summary_first["agreement_rate"] == 1.0
