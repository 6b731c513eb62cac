"""Differentials against the face-lattice ground truth of ``face_lattice``.

The range space property at S is a face of conv{0, a_1, ..., a_n} that
holds no other point, and Qhull finds those faces with no LP and no rank
rule of the library's.  So the margin LPs of ``check_rsp_batch``, the
order-K certifier, with its gate, least-squares witnesses and margin LPs,
and the recovery oracle, which decides uniqueness from its l1 LPs, the
order-K gate and margin LPs, are checked against a procedure that shares
nothing with them.
"""

from itertools import combinations

import numpy as np

from rspcert import Verdict, certify_order_k, uniform_recovery_oracle
from rspcert.orderk import QUANTIFIERS
from rspcert.rsp import check_rsp_batch

from face_lattice import expected_oracle, expected_report, facets, rsp_holds, support_table
from test_orderk import _duplicated_and_midpoint, _duplicated_gaussian, _zero_one


def _matrices():
    """The 8x16 Gaussians 0-3 of the benchmark's orderk_enum commands for
    seed 1, and ten 6x12 matrices of each of three families: 0/1, Gaussian
    with a duplicated and a midpoint column, and Gaussian."""
    return [*(np.random.default_rng([1, 1, i]).standard_normal((8, 16)) for i in range(4)),
            *map(_zero_one, range(10)), *map(_duplicated_and_midpoint, range(10)),
            *(np.random.default_rng([i, 12]).standard_normal((6, 12)) for i in range(10))]


def test_the_face_lattice_agrees_with_check_rsp_batch():
    # Every support of sizes 1-3.  No support of these matrices is marginal,
    # so each margin LP's yes or no is compared with the face test.
    mismatches, verdicts, count = [], set(), 0
    for i, A in enumerate(_matrices()):
        lattice = facets(A)
        for k in (1, 2, 3):
            supports = list(combinations(range(A.shape[1]), k))
            for S, cert in zip(supports, check_rsp_batch(A, supports)):
                verdicts.add(cert.holds)
                count += 1
                if (cert.holds is Verdict.YES) != rsp_holds(lattice, S):
                    mismatches.append((i, S, cert.holds))
    assert count == 4 * 696 + 30 * 298
    assert verdicts == {Verdict.YES, Verdict.NO}
    assert mismatches == []


def test_the_recovery_oracle_agrees_with_the_face_lattice():
    # The four properties at K = 1-3, one trial per support.  The oracle's
    # report must be the first support in order that is not a face or not
    # of full column rank, and the certifier's report the supports in range
    # that are not faces, with no marginal subset.  The degenerate
    # matrices, whose l1 duals leave trials open, are also run at four
    # scales: the face lattice does not see the scale of A, and the rank
    # rules must not either.
    degenerate = [_duplicated_gaussian(), *map(_zero_one, range(4)),
                  *map(_duplicated_and_midpoint, range(4))]
    cases = [*((A, (1.0,)) for A in _matrices()),
             *((A, (1e-10, 1e-8, 1e8, 1e12)) for A in degenerate)]
    mismatches, outcomes, holds, runs = [], set(), set(), 0
    for i, (A, scales) in enumerate(cases):
        table = support_table(A, 3)
        for K in (1, 2, 3):
            for prop in QUANTIFIERS:
                expected = expected_oracle(table, K, prop)
                expected_certified = expected_report(table, K, prop)
                outcomes.add(expected[0])
                holds.add(expected_certified[0])
                for scale in scales:
                    report = uniform_recovery_oracle(scale * A, K, property=prop)
                    certified = certify_order_k(scale * A, K, property=prop)
                    runs += 1
                    got = (report.recovers, report.failing_support, report.supports_checked)
                    if got != expected:
                        mismatches.append(("oracle", i, K, prop, scale, got, expected))
                    got = (certified.holds is Verdict.YES, certified.counterexample,
                           certified.failures_per_size, certified.subsets_checked,
                           certified.no_full_rank_subset)
                    if got != expected_certified or certified.marginal_subsets:
                        mismatches.append(("certifier", i, K, prop, scale, got,
                                           expected_certified, certified.marginal_subsets))
    assert runs == 34 * 12 + 9 * 12 * 4
    assert outcomes == {True, False} and holds == {True, False}
    assert mismatches == []
