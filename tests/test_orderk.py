from itertools import combinations, compress

import numpy as np
import pytest

from rspcert import (DEFAULT_TOLERANCES, BudgetExceeded, CertificateUnavailable,
                     IterationLimit, RspcertError, ToleranceConfig, Verdict, certify_order_k,
                     check_rsp_at, rank, solve_and_certify, spark, sparsest_supports,
                     stats, uniform_recovery_oracle, verify_rsp_witness)
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
    monkeypatch.setattr(orderk, "_margin_solves", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(orderk, "_l1_points", lambda *a, **k: calls.append(a))
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
    monkeypatch.setattr(orderk, "_row_reduction", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(linalg, "_stacked_ranks", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="unknown property 'RSP'") as info:
        run(np.random.default_rng(40).standard_normal((4, 8)))
    assert all(prop in str(info.value) for prop in QUANTIFIERS)
    assert calls == []


def test_supports_in_the_tolerance_band_make_the_order_k_verdict_marginal():
    # With rsp_margin = 0.9 a yes needs t* <= 0.1.  No column of this
    # Gaussian fails, and those with t* in the band are the report's
    # marginal supports, in order; the oracle cannot test a marginal verdict.
    tol = ToleranceConfig(rsp_margin=0.9)
    A = np.random.default_rng([2027, 90, 0]).standard_normal((6, 12))
    report = certify_order_k(A, 1, tol)
    certs = [check_rsp_at(A, (j,), tol) for j in range(12)]
    assert report.holds is Verdict.MARGINAL and report.counterexample is None
    assert report.failures_per_size == {}
    assert report.marginal_subsets == [c.support for c in certs if c.holds is Verdict.MARGINAL]
    assert report.marginal_subsets
    assert report.agrees_with(uniform_recovery_oracle(A, 1, tol=tol)) is None


def _certified(A, K, prop):
    """certify_order_k's report, or the type and message of the error it raises."""
    try:
        return certify_order_k(A, K, property=prop)
    except RspcertError as error:
        return type(error), str(error)


def _unscreened(monkeypatch, A, K, prop, corrupt=None):
    """_certified with every least-squares witness NaN, or put through ``corrupt``.

    ``rsp._least_squares_witness`` makes the y of the first witness and of
    every reweighted one.  A NaN witness fails its re-check, so the screen
    settles nothing: every support the run checks is built into the margin
    LP's coordinates and then either solves its LP or is refuted there.
    """
    import rspcert.rsp as rsp

    witness, margin_stacks = rsp._least_squares_witness, rsp._margin_stacks
    if corrupt is None:
        def corrupt(y):
            return np.full_like(y, np.nan)
    built, refuted = [], []

    def counting(A, block, *args):
        stacks, out = margin_stacks(A, block, *args)
        built.append(len(block))
        refuted.append(len(out))
        return stacks, out
    with monkeypatch.context() as patch, stats.collect() as counts:
        patch.setattr(rsp, "_least_squares_witness", lambda *args: corrupt(witness(*args)))
        patch.setattr(rsp, "_margin_stacks", counting)
        report = _certified(A, K, prop)
    if not isinstance(report, tuple):
        assert sum(built) == report.subsets_checked, (K, prop)
        assert counts["margin.lps"] == report.subsets_checked - sum(refuted), (K, prop)
    return report


def _screen_cases():
    rng = np.random.default_rng([2027, 50])
    duplicated = rng.standard_normal((4, 8))
    duplicated[:, 5] = duplicated[:, 1]
    duplicated[:, 7] = 2.0 * duplicated[:, 3]
    return [pytest.param(rng.standard_normal((8, 16)), id="gaussian 8x16"),
            pytest.param(rng.standard_normal((5, 10)), id="gaussian 5x10"),
            pytest.param(rng.integers(-2, 3, size=(6, 12)).astype(float), id="small integer 6x12"),
            pytest.param(duplicated, id="duplicated columns 4x8")]


def _recording_screen(monkeypatch, settled):
    """Record in ``settled`` each support the certifier's screen settles, with
    the max eta_off of its witness, once that witness passes
    verify_rsp_witness on the raw A."""
    import rspcert.orderk as orderk

    real = orderk._settled

    def recording(A, block, *args):
        passed, y, eta = real(A, block, *args)
        for i in np.flatnonzero(passed):
            S = tuple(block[i].tolist())
            assert verify_rsp_witness(A, S, eta[i], y[i]), S
            settled[S] = np.delete(eta[i], block[i]).max(initial=-np.inf)
        return passed, y, eta
    monkeypatch.setattr(orderk, "_settled", recording)


@pytest.mark.parametrize("A", _screen_cases())
def test_the_least_squares_screen_changes_no_report(monkeypatch, A):
    # certify_order_k settles a full-rank support as yes, without its margin
    # LP, where a least-squares witness passes verify_rsp_witness's
    # conditions on the raw A.  Its reports are those of the same call with
    # the screen settling nothing, at every scale, and the witness of every
    # support the screen settles passes verify_rsp_witness on the raw A.
    settled = {}
    _recording_screen(monkeypatch, settled)
    for scale in (1e-8, 1.0, 1e8):
        settled.clear()
        for K in (1, 2, 3):
            for prop in QUANTIFIERS:
                screened = _certified(scale * A, K, prop)
                assert screened == _unscreened(monkeypatch, scale * A, K, prop), (scale, K, prop)
        assert settled, scale


def _scale_cases():
    rng = np.random.default_rng([2027, 51])
    return [*(pytest.param(case.values[0], (1, 2, 3), id=case.id) for case in _screen_cases()),
            pytest.param(rng.standard_normal((5, 4)), (4,), id="5x4 at K=4"),
            pytest.param(rng.standard_normal((6, 6)), (1, 2, 3), id="6x6"),
            pytest.param(rng.standard_normal((4, 16)), (1, 2, 3), id="wide 4x16"),
            pytest.param(np.random.default_rng([0, 7]).standard_normal((6, 12)), (1, 2, 3),
                         id="gaussian 6x12")]


@pytest.mark.parametrize("A, orders", _scale_cases())
def test_the_screen_settles_the_same_supports_at_every_scale(A, orders):
    # The order-K layer's full-column-rank gate has one threshold, rank_tol
    # times the largest singular value of A; the orthonormal bases the
    # screen's witnesses are solved in do not see the scale of A, and its
    # re-check of eta = A^T y does not either.  So every property ranges
    # over the same supports, settles the same number of each size and
    # gives the same report at every scale.  The 5x4 and the 6x6 have an
    # empty null space (n = r); the wide 4x16 solves its reweighted
    # witnesses in the range of A^T rather than in a basis of null(A).  On
    # the Gaussian 6x12 at scale 1e-8, the smaller singular value of
    # A_(3,7), 0.74e-8, lies under an absolute rank floor of 1e-8.
    def run(scale):
        out = []
        for K in orders:
            for prop in QUANTIFIERS:
                with stats.collect() as counts:
                    report = _certified(scale * A, K, prop)
                out.append((K, prop, report, {name: n for name, n in counts.items()
                                             if name.startswith("margin.settled") and n}))
        return out
    at_one = run(1.0)
    assert any(settled for *_, settled in at_one)
    for scale in (1e-10, 1e-8, 1e8, 1e12):
        assert run(scale) == at_one, scale


def test_the_oracle_gives_the_same_reports_at_every_scale():
    # The recovery oracle fills the weak properties' windows, pins its
    # trials and decides the trials its l1 duals leave open by the same
    # gate, so its reports do not depend on the scale of A either.  The
    # duplicated Gaussian leaves trials open (nine under rsp at K = 3),
    # which then take no rank probe.  Not the 5x4 at K = 4: with n < m its
    # l1 LPs have no start, and their two-phase solves fail at other scales.
    with stats.collect() as counts:
        uniform_recovery_oracle(_duplicated_gaussian(), 3)
    assert counts["oracle.trials_to_margin"] == 9 and counts["linalg.ranked"] == 0
    cases = [(case.id, *case.values) for case in _scale_cases() if case.id != "5x4 at K=4"]
    for name, A, orders in [*cases, ("duplicated gaussian", _duplicated_gaussian(), (1, 2, 3))]:
        for K in orders:
            for prop in QUANTIFIERS:
                at_one = _oracle_outcome(A, K, prop, 1, seed=0)
                assert not isinstance(at_one, tuple), (name, K, prop, at_one)
                for scale in (1e-10, 1e-8, 1e8, 1e12):
                    assert _oracle_outcome(scale * A, K, prop, 1, seed=0) == at_one, \
                        (name, K, prop, scale)


def test_weak_properties_range_over_a_full_rank_support_below_the_rank_tolerance():
    # At scale 1e-8 the smaller singular value of A_(3,7), 0.74e-8, lies
    # below an absolute floor of rank_tol = 1e-8, yet A_(3,7) has full
    # column rank at every scale, and (3, 7) is where wrsp and pwrsp fail.
    A = np.random.default_rng([0, 7]).standard_normal((6, 12))
    for scale in (1e-10, 1e-8, 1.0, 1e8, 1e12):
        for prop, checked in (("wrsp", 78), ("pwrsp", 66)):
            report = certify_order_k(scale * A, 2, property=prop)
            assert (report.holds, report.counterexample, report.subsets_checked) \
                == (Verdict.NO, (3, 7), checked), (scale, prop)
            oracle = uniform_recovery_oracle(scale * A, 2, property=prop)
            assert (oracle.recovers, oracle.failing_support) == (False, (3, 7)), (scale, prop)
            assert report.agrees_with(oracle) is True


def _near_dependent():
    """The 5x10 matrix of CHANGES.md line 47: column 0 is zero and column 9
    is column 1 - column 2 up to 1e-9.

    Off S = (1,), G's columns 2 and 9 are opposite to about 1e-9, and the
    started margin LPs of supports such as (1,) end at an optimum that the
    LP core's re-check refuses; the core then solves them two-phase.
    """
    rng = np.random.default_rng([2026, 61])
    A = rng.standard_normal((5, 10))
    A[:, 0] = 0.0
    A[:, 9] = A[:, 1] - A[:, 2] + 1e-9 * rng.standard_normal(5)
    return A


def test_margin_lps_whose_started_solve_is_refused_answer_as_highs_does():
    # The supports whose started margin LP the core refuses: each now
    # answers yes, with HiGHS's t*.
    from test_golden_lp import _scipy_t_star

    A = _near_dependent()
    for S in [(1,), (1, 3), (1, 5), (1, 8), (1, 3, 7), (1, 5, 8)]:
        cert = check_rsp_at(A, S)
        assert cert.holds is Verdict.YES, S
        assert abs(cert.t_star - _scipy_t_star(A, S)) <= 1e-9, S


def _quantified(A, K, prop, tol=DEFAULT_TOLERANCES):
    """(k, block) of each size ``prop`` ranges over, in enumeration order.

    For the weak properties a block holds only the supports that pass the
    full-column-rank gate under A's row reduction.
    """
    import rspcert.orderk as orderk
    from rspcert.linalg import _full_column_rank, _row_reduction

    rows = _row_reduction(A, tol)
    for k, block in orderk._supports(A, K, prop, 10**6):
        if QUANTIFIERS[prop].full_rank_only:
            block = list(compress(block, _full_column_rank(rows.At, np.array(block),
                                                           rows.floor)[0]))
        yield k, block


def test_the_screen_answers_only_where_highs_agrees_on_nearly_dependent_columns(monkeypatch):
    # On the near-dependent matrix every case answers with and without the
    # least-squares screen, the two reports are equal, and each is the
    # report that HiGHS's t* gives at every support.
    from test_golden_lp import _scipy_t_star

    A = _near_dependent()
    tol = DEFAULT_TOLERANCES
    for K in (1, 2, 3):
        for prop in QUANTIFIERS:
            screened, unscreened = _certified(A, K, prop), _unscreened(monkeypatch, A, K, prop)
            assert not isinstance(screened, tuple), (K, prop, screened)
            assert screened == unscreened, (K, prop)
            supports = list(_quantified(A, K, prop, tol))
            failures, marginal = {}, []
            for k, block in supports:
                for S in block:
                    t_star = _scipy_t_star(A, S)
                    if t_star is None or t_star >= 1.0 - tol.feas_tol:
                        failures.setdefault(k, []).append(S)
                    elif t_star > 1.0 - tol.rsp_margin:
                        marginal.append(S)
            first = min((S for block in failures.values() for S in block[:1]),
                        key=lambda S: (len(S), S), default=None)
            assert screened.counterexample == first, (K, prop)
            assert screened.failures_per_size == {k: len(v) for k, v in failures.items()}
            assert screened.marginal_subsets == marginal
            assert screened.subsets_checked == sum(len(block) for _, block in supports)


def test_certify_order_k_reduces_the_rows_of_a_once(monkeypatch):
    # Every block of one call shares A's row reduction: the SVD of A is
    # computed once, not once per block.  rsp at K=3 on 8x16 is 3 blocks,
    # one per size, so each size's margin LPs are one lockstep stack.  The
    # oracle's call shares it too, with the margin LPs of the trials its l1
    # duals leave open: nine under rsp at K=3 on the duplicated Gaussian.
    svd = np.linalg.svd
    shapes = []

    def recording(M, *args, **kwargs):
        shapes.append(M.shape)
        return svd(M, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recording)
    A = _gaussian(5, (8, 16))
    with stats.collect() as counts:
        certify_order_k(A, 3)
    assert counts["margin.blocks"] == 3 and shapes.count(A.shape) == 1
    assert [counts[f"margin.supports.{k}"] for k in (1, 2, 3)] == [16, 120, 560]
    A, shapes[:] = _duplicated_gaussian(), []
    with stats.collect() as counts:
        uniform_recovery_oracle(A, 3)
    assert counts["oracle.trials_to_margin"] == 9 and counts["margin.lps"] > 0
    assert shapes.count(A.shape) == 1


def test_every_support_a_least_squares_witness_settles_is_a_yes_of_highs(monkeypatch):
    # A support settled by the first witness or by a reweighted one must be
    # a yes by HiGHS's t*, which the witness bounds from above: its y is a
    # feasible point of the margin LP.  The 4x16 matrices solve their
    # reweighted witnesses in the range of A^T, the others in a basis of
    # null(A).
    from test_golden_lp import _scipy_t_star

    import rspcert.rsp as rsp

    settled = {}
    _recording_screen(monkeypatch, settled)
    rng = np.random.default_rng([2027, 80])
    tol = DEFAULT_TOLERANCES
    first = reweighted = 0
    for shape in [(6, 12)] * 3 + [(8, 16)] * 3 + [(4, 16)] * 2:
        A = rng.standard_normal(shape)
        settled.clear()
        with monkeypatch.context() as patch:
            patch.setattr(rsp, "_REWEIGHTS", 0)
            certify_order_k(A, 3)
        once = set(settled)
        settled.clear()
        certify_order_k(A, 3)
        assert once <= set(settled)
        first += len(once)
        reweighted += len(settled) - len(once)
        for S, worst in settled.items():
            t_star = _scipy_t_star(A, S)
            assert t_star is not None and t_star <= worst + 1e-9, (S, t_star, worst)
            assert t_star <= 1.0 - tol.rsp_margin, (S, t_star)
    assert first and reweighted, (first, reweighted)


@pytest.mark.parametrize("corrupt", [
    lambda y: np.stack([-y[:, 1], y[:, 0], *y[:, 2:].T], axis=1),
    lambda y: y * np.arange(1, y.shape[1] + 1),
    lambda y: y + 1e-3], ids=["rotated", "scaled", "shifted"])
def test_a_least_squares_witness_that_fails_its_recheck_settles_nothing(monkeypatch, corrupt):
    # A witness y rotated, scaled per entry or shifted on its way into the
    # re-check no longer gives eta = 1 on S: no support may be settled, so
    # each reaches its margin LP, and the report is the unscreened one.
    for A in (_gaussian(3, (8, 16)), _gaussian(4, (5, 10))):
        for prop in QUANTIFIERS:
            with stats.collect() as counts:
                screened = certify_order_k(A, 3, property=prop)
            assert counts["margin.lps"] < screened.subsets_checked
            with stats.collect() as counts:
                corrupted = _unscreened(monkeypatch, A, 3, prop, corrupt)
            assert counts["margin.lps"] == corrupted.subsets_checked
            assert corrupted == screened == _unscreened(monkeypatch, A, 3, prop), prop



def _break_first_l1_stack(monkeypatch, at):
    """Make LP ``at`` of the first chunk of l1 LPs break down, each time the core solves it.

    The breakdown is injected where the LP core solves a chunk, so the core
    solves the broken started LP once more, two-phase, and that solve of the
    same right-hand side breaks down as well.  Returns the sizes of the l1
    chunks the core solves.
    """
    import rspcert.simplex as simplex

    real = simplex._solve_chunk
    chunks = []
    broken = []

    def solve_chunk(lps, *args):
        results = real(lps, *args)
        if np.all(lps.objective == 1.0):     # the l1 LPs
            chunks.append(len(results))
            if len(chunks) == 1:
                broken.append(lps.rhs[at].copy())
            for i, rhs in enumerate(lps.rhs):
                if np.array_equal(rhs, broken[0]):
                    results[i] = IterationLimit("injected breakdown")
        return results
    monkeypatch.setattr(simplex, "_solve_chunk", solve_chunk)
    return chunks


def test_oracle_breakdown_after_the_first_failure_is_not_raised(monkeypatch):
    # Three trials per support: the first window holds supports 0-7, 24 l1
    # LPs, and support 6 fails recovery.  A breakdown at support 7's last
    # trial comes after it; the core's two-phase re-solve of it (the chunk
    # of 1) breaks down too, and neither is reached.
    A = np.random.default_rng([2027, 0]).standard_normal((5, 10))
    chunks = _break_first_l1_stack(monkeypatch, 23)
    report = uniform_recovery_oracle(A, 2, trials_per_support=3, property="prsp")
    assert chunks == [24, 1]
    assert (report.recovers, report.failing_support, report.supports_checked) == (False, (0, 7), 7)


def test_oracle_breakdown_before_the_first_failure_is_raised(monkeypatch):
    A = np.random.default_rng([2027, 0]).standard_normal((5, 10))
    chunks = _break_first_l1_stack(monkeypatch, 4)
    with pytest.raises(CertificateUnavailable, match="injected breakdown"):
        uniform_recovery_oracle(A, 2, trials_per_support=3, property="prsp")
    assert chunks == [24, 1]



def test_oracle_draws_follow_the_one_by_one_stream(monkeypatch):
    # Every trial's measurements, across all windows, are those of one
    # planted draw per trial, support after support, from the seed's stream.
    import rspcert.orderk as orderk

    A = np.random.default_rng([2027, 25]).standard_normal((5, 10))
    seen, starts = [], []
    real = orderk._l1_points

    def recording(A, rhs, tol, basis):
        seen.append(rhs)
        starts.extend(basis.tolist())
        return real(A, rhs, tol, basis)
    monkeypatch.setattr(orderk, "_l1_points", recording)
    report = uniform_recovery_oracle(A, 2, trials_per_support=3, seed=5)
    assert report.recovers and report.supports_checked == 55
    assert [len(rhs) for rhs in seen] == [24, 6, 24, 48, 63]   # 8, 2 | 8, 16, 21 supports
    # Each trial starts at a basis that holds its planted support first.
    planted_on = [S for k in (1, 2) for S in combinations(range(10), k) for _ in range(3)]
    assert [tuple(row[:len(S)]) for row, S in zip(starts, planted_on)] == planted_on
    assert len(starts) == len(planted_on)
    rng = np.random.default_rng(5)
    expected = []
    for k in (1, 2):
        for S in combinations(range(10), k):
            for _ in range(3):
                planted = np.zeros(10)
                planted[list(S)] = rng.uniform(0.1, 1.0, size=k)
                expected.append(A @ planted)
    assert np.array_equal(np.concatenate(seen), np.array(expected))


def _oracle_outcome(A, K, prop, trials, seed=3):
    """The oracle's report, or the type and message of the error it raises."""
    try:
        return uniform_recovery_oracle(A, K, trials_per_support=trials, property=prop, seed=seed)
    except RspcertError as error:
        return type(error), str(error)


def _oracle_with_and_without_starts(monkeypatch, A, K, prop, trials, seed=3):
    """The oracle's outcome with every l1 LP solved two-phase, then with planted starts.

    The two-phase run keeps each window's full-column-rank gate and drops
    only its starts.
    """
    import rspcert.orderk as orderk

    real, windows = orderk._l1_starts, []

    def unstarted_starts(rows, block):
        full, basis = real(rows, block)
        windows.append(len(block))
        return full, np.full_like(basis, -1)
    with monkeypatch.context() as patch:
        patch.setattr(orderk, "_l1_starts", unstarted_starts)
        unstarted = _oracle_outcome(A, K, prop, trials, seed)
    assert windows, "the oracle reached no l1 start"
    return unstarted, _oracle_outcome(A, K, prop, trials, seed)


def _start_cases():
    rng = np.random.default_rng([2027, 40])
    cases = []
    for shape, K in (((7, 10), 2), ((5, 10), 3)):
        duplicated = rng.standard_normal(shape)
        duplicated[:, 7] = duplicated[:, 2]
        duplicated[:, 9] = 2.0 * duplicated[:, 4]
        cases += [pytest.param(rng.standard_normal(shape), K, id=f"gaussian {shape}"),
                  pytest.param(rng.integers(-2, 3, size=shape).astype(float), K,
                               id=f"small integer {shape}"),
                  pytest.param(duplicated, K, id=f"duplicated columns {shape}")]
    return cases + [pytest.param(rng.standard_normal((3, 6)), 4, id="3x6, K > m"),
                    pytest.param(rng.standard_normal((5, 4)), 4, id="5x4, K = n < m")]


@pytest.mark.parametrize("A, K", _start_cases())
def test_oracle_reports_do_not_depend_on_the_l1_start(monkeypatch, A, K):
    # Starting each l1 LP at its planted vertex changes no report: phase 2
    # decides optimality and every optimum is re-checked.
    for prop in QUANTIFIERS:
        for trials in (1, 3):
            unstarted, started = _oracle_with_and_without_starts(monkeypatch, A, K, prop, trials)
            assert started == unstarted, (prop, trials)


def _planted_vectors(A, K, prop, trials, seed):
    """(S, planted x of each trial) of every support, in the oracle's order and draws."""
    rng = np.random.default_rng(seed)
    for k, block in _quantified(A, K, prop):
        for S in block:
            planted = np.zeros((trials, A.shape[1]))
            planted[:, list(S)] = rng.uniform(0.1, 1.0, size=(trials, k))
            yield S, planted


def _highs_unique(A, S, x) -> bool:
    """Whether scipy's HiGHS, which shares no code with rspcert, finds x the unique l1 optimum.

    It is not when HiGHS finds a smaller l1 norm, or a point of the optimal
    face with mass off S.
    """
    from scipy.optimize import linprog

    n = A.shape[1]
    off = np.ones(n)
    off[list(S)] = 0.0
    b = A @ x
    best = linprog(np.ones(n), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert best.status == 0
    face = linprog(-off, A_ub=np.ones((1, n)), b_ub=[x.sum() + 1e-9], A_eq=A, b_eq=b,
                   bounds=(0, None), method="highs")
    return not (best.fun < x.sum() - 1e-9 or (face.status == 0 and -face.fun > 1e-7))


def _highs_confirms(A, report, K, prop):
    """Whether HiGHS confirms an oracle report, on the report's own planted vectors.

    A failing report: some trial of the failing support is not the unique
    l1 optimum.  A recovering one: every trial of every support is.
    """
    for S, planted in _planted_vectors(A, K, prop, report.trials_per_support, report.seed):
        if report.recovers:
            if not all(_highs_unique(A, S, x) for x in planted):
                return False
        elif S == report.failing_support:
            return not all(_highs_unique(A, S, x) for x in planted)
    return report.recovers


def test_oracle_start_answers_agree_on_nearly_dependent_columns(monkeypatch):
    # On the near-dependent matrix the started and the two-phase oracle give
    # the same report and neither refuses.  Every report agrees with the
    # certifier, and HiGHS confirms every failure and every recovery.
    A = _near_dependent()
    outcomes = {True: 0, False: 0}
    for K in (1, 2, 3):
        for prop in QUANTIFIERS:
            cert = certify_order_k(A, K, property=prop)
            for trials in (1, 3):
                unstarted, started = _oracle_with_and_without_starts(
                    monkeypatch, A, K, prop, trials, seed=0)
                assert not isinstance(started, tuple), (K, prop, trials, started)
                assert started == unstarted, (K, prop, trials)
                assert cert.agrees_with(started) is True, (K, prop, trials)
                assert _highs_confirms(A, started, K, prop), (K, prop, trials)
                outcomes[started.recovers] += 1
    assert outcomes == {True: 4, False: 20}, outcomes


def test_the_oracle_answers_on_nearly_dependent_columns():
    # K 1-3, the four properties, 1 and 3 trials and seeds 0-2: no run
    # refuses, and each agrees with the certifier.
    A = _near_dependent()
    for K in (1, 2, 3):
        for prop in QUANTIFIERS:
            cert = certify_order_k(A, K, property=prop)
            for trials in (1, 3):
                for seed in (0, 1, 2):
                    report = _oracle_outcome(A, K, prop, trials, seed)
                    assert not isinstance(report, tuple), (K, prop, trials, seed, report)
                    assert cert.agrees_with(report) is True, (K, prop, trials, seed)


def _duplicated_gaussian():
    """A 6x12 Gaussian whose column 9 repeats column 4."""
    A = np.random.default_rng([2027, 41]).standard_normal((6, 12))
    A[:, 9] = A[:, 4]
    return A


def _left_open(A, x, S, s, tol=DEFAULT_TOLERANCES):
    """Whether the l1 LP's own dual leaves the optimum x open.

    It does not where the columns of zero reduced cost, Z, hold the support
    S and have full column rank: every optimum then vanishes off Z, and A_Z
    pins it to x.
    """
    Z = np.flatnonzero(s <= tol.rsp_margin)
    return not (set(S) <= set(Z.tolist()) and Z.size <= A.shape[0]
                and rank(A, Z, tol) == Z.size)


@pytest.mark.parametrize("A, K, prop, checked, any_margin_lp", [
    (np.random.default_rng([2027, 0]).standard_normal((5, 10)), 2, "prsp", 7, False),
    (np.random.default_rng([2027, 40]).standard_normal((7, 10)), 2, "rsp", 55, False),
    (COHERENT_A, 2, "rsp", 7, False),
    (_duplicated_gaussian(), 2, "rsp", 5, True),
])
def test_oracle_solves_margin_lps_only_for_the_trials_its_l1_dual_leaves_open(
        monkeypatch, A, K, prop, checked, any_margin_lp):
    # One trial per support.  The walk reaches every trial up to the first
    # that misses its planted vector.  Of those, a trial whose l1 LP's dual
    # proves its optimum unique solves no margin LP, and each one left open
    # solves one at its support; the trial that missed solves none.
    import rspcert.orderk as orderk

    real_points = orderk._l1_points
    points = []

    def l1_points(*args):
        found = real_points(*args)
        points.extend(found)
        return found
    monkeypatch.setattr(orderk, "_l1_points", l1_points)
    with stats.collect() as counts:
        report = uniform_recovery_oracle(A, K, property=prop)
    assert report.supports_checked == checked
    open_supports, recovered = [], 0
    for point, (S, planted) in zip(points, _planted_vectors(A, K, prop, 1, 0)):
        if isinstance(point, Exception) or np.abs(point[0] - planted[0]).max() > 1e-6:
            break
        recovered += 1
        if _left_open(A, *point):
            open_supports.append(point[1])
    assert counts["margin.lps"] == len(set(open_supports))
    assert counts["oracle.trials_to_margin"] == len(open_supports)
    assert counts["oracle.trials_decided"] == recovered - len(open_supports)
    assert (counts["margin.lps"] > 0) is any_margin_lp


def test_the_oracle_does_not_certify_a_trial_that_missed_its_plant(monkeypatch):
    # Under prsp at K = 2 the near-dependent matrix's first trial, planted
    # on (0, 1), comes back as x_1 e_1 (column 0 is zero), so it has failed
    # already.  A refused margin LP at its recovered support (1,) makes its
    # own solve_and_certify raise, and leaves the oracle's report as it is.
    import rspcert.rsp as rsp

    real = rsp._margin_solves

    def refusing(A, supports, *args, **kwargs):
        return [CertificateUnavailable("injected refusal") if S == (1,) else cert
                for S, cert in zip(supports, real(A, supports, *args, **kwargs))]
    A = _near_dependent()
    (S, planted), = list(_planted_vectors(A, 2, "prsp", 1, 0))[:1]
    monkeypatch.setattr(rsp, "_margin_solves", refusing)
    with pytest.raises(CertificateUnavailable, match="injected refusal"):
        solve_and_certify(A, A @ planted[0])
    report = uniform_recovery_oracle(A, 2, property="prsp")
    assert (report.recovers, report.failing_support, report.supports_checked) == (False, S, 1)
    assert S == (0, 1)


def _zero_one(seed):
    """A 0/1 6x12 matrix of density 0.4."""
    return (np.random.default_rng([seed, 9]).random((6, 12)) < 0.4).astype(float)


def _duplicated_and_midpoint(seed):
    """A 6x12 Gaussian whose column 10 repeats column 3 and whose column 11
    is the midpoint of columns 0 and 5."""
    A = np.random.default_rng([seed, 10]).standard_normal((6, 12))
    A[:, 10] = A[:, 3]
    A[:, 11] = 0.5 * (A[:, 0] + A[:, 5])
    return A


@pytest.mark.parametrize("family", [_zero_one, _duplicated_and_midpoint])
def test_the_l1_dual_changes_no_oracle_report(monkeypatch, family):
    # Each report equals the one given when every trial that recovers its
    # planted vector is decided by the gate and the margin LP at its
    # support; and in each family some trials are left open to that
    # decision.
    import rspcert.orderk as orderk

    real = orderk._first_not_unique
    sent = []

    def decided(A, points, open_, tol, rows):
        sent.append(int(open_.sum()))
        return real(A, points, open_, tol, rows)
    monkeypatch.setattr(orderk, "_first_not_unique", decided)
    left_open = 0
    for seed in range(4):
        A = family(seed)
        for K in (1, 2, 3):
            for prop in QUANTIFIERS:
                for trials in (1, 3):
                    read = _oracle_outcome(A, K, prop, trials, seed)
                    left_open += sum(sent)
                    with monkeypatch.context() as patch:
                        patch.setattr(orderk, "_pinned",
                                      lambda A, points, tol: np.zeros(len(points), dtype=bool))
                        every = _oracle_outcome(A, K, prop, trials, seed)
                    sent.clear()
                    assert read == every, (seed, K, prop, trials)
    assert left_open > 0


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


def _neighborly(rng, m):
    # 2m points on the trigonometric moment curve (cos t, sin t, cos 2t, ...)
    # span a floor(m/2)-neighborly polytope; where it holds the origin inside,
    # every support of that size or less has the range space property.  An
    # odd m gets one Gaussian row, and a random rotation mixes the rows.
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 2 * m))
    rows = [f(j * t) for j in range(1, m // 2 + 1) for f in (np.cos, np.sin)]
    if m % 2:
        rows.append(rng.standard_normal(2 * m))
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return Q @ np.array(rows)


def test_weak_and_plain_properties_follow_from_the_partial_ones():
    # In exact arithmetic wrsp_K <=> pwrsp_K and rank(A) >= K, and
    # rsp_K <=> prsp_K and spark(A) > K.  The matrices: a neighborly one
    # (yes up to K = floor(m/2)), a Gaussian one with a dependent pair, a
    # neighborly one with a column at the midpoint of two others (a dependent
    # triple) and one of rank 2 (pwrsp vacuously yes for K = 3, wrsp no).
    matrices = []
    for m in (4, 5, 6):
        rng = np.random.default_rng([79, m])
        matrices.append(_neighborly(rng, m))
        A = rng.standard_normal((m, 2 * m))
        A[:, -1] = -1.5 * A[:, 1]
        matrices.append(A)
        A = _neighborly(rng, m)
        A[:, -1] = 0.5 * (A[:, 0] + A[:, 3])
        matrices.append(A)
        matrices.append(rng.standard_normal((m, 2)) @ _neighborly(rng, m)[:2])
    seen = []
    for A in matrices:
        r, s = rank(A), spark(A)
        for K in (1, 2, 3):
            verdicts = {prop: certify_order_k(A, K, property=prop).holds for prop in QUANTIFIERS}
            if Verdict.MARGINAL in verdicts.values():
                continue
            holds = {prop: verdict is Verdict.YES for prop, verdict in verdicts.items()}
            assert holds["wrsp"] == (holds["pwrsp"] and r >= K), (A.shape, K)
            assert holds["rsp"] == (holds["prsp"] and s > K), (A.shape, K)
            seen.append((K, holds["rsp"], holds["pwrsp"] and r < K))
    assert any(K >= 2 and rsp for K, rsp, _ in seen)
    assert any(vacuous for _, _, vacuous in seen)


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
