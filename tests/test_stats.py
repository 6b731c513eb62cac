from itertools import combinations
from math import comb

import numpy as np

from rspcert import (DEFAULT_TOLERANCES, check_rsp_at, certify_order_k, rank_details, rsp,
                     sparsest_supports, stats)
from rspcert.simplex import solve_batch

from test_orderk import _near_dependent
from test_simplex import _margin_stack


def _gaussian(shape, seed=0):
    return np.random.default_rng([4, seed]).standard_normal(shape)


def test_check_rsp_batch_counts_its_margin_lps_and_their_pivots():
    # Every size-2 support of a 4x8 Gaussian is one margin LP of one stack,
    # and the pivots counted are those of the solutions solve_batch returns
    # for the same stack.
    A = _gaussian((4, 8))
    supports = list(combinations(range(8), 2))
    with stats.collect() as counts:
        list(rsp.check_rsp_batch(A, supports))
    lps, basis = _margin_stack([A], 2)
    solved = solve_batch(lps, basis=basis)
    assert counts["margin.lps"] == counts["simplex.lps"] == comb(8, 2)
    assert counts["simplex.pivots"] == sum(r.pivots for r in solved) > 0
    assert counts["margin.blocks"] == counts["simplex.batches"] == 1
    assert counts["margin.supports.2"] == comb(8, 2)
    assert counts["simplex.steps"] > 0 and counts["simplex.two_phase"] == 0
    assert 0 < counts["simplex.step_lps"] <= counts["simplex.step_slots"]
    # check_rsp_batch runs no least-squares screen.
    assert "margin.settled_first.2" not in counts


def test_certify_order_k_counts_its_settled_certificates(monkeypatch):
    # The certifier settles exactly the supports of the screen's mask, the
    # first witness's share is what a run with no reweighted witnesses
    # settles, every other support is a margin LP, and the settled supports
    # still count with their blocks.
    A = _gaussian((6, 12), 1)
    tol = DEFAULT_TOLERANCES

    def settled(k):
        block = np.array(list(combinations(range(12), k)))
        rows = rsp._row_reduction(A, tol)
        full = rsp._full_column_rank(rows.At, block, rows.floor)[0]
        return int(rsp._settled(A, block, rows, tol, full)[0].sum())
    with stats.collect() as counts:
        report = certify_order_k(A, 3)
    with monkeypatch.context() as patch:
        patch.setattr(rsp, "_REWEIGHTS", 0)
        first = [settled(k) for k in (1, 2, 3)]
    total = 0
    for k in (1, 2, 3):
        assert counts[f"margin.supports.{k}"] == comb(12, k)
        assert counts[f"margin.settled_first.{k}"] == first[k - 1]
        assert (counts[f"margin.settled_first.{k}"]
                + counts[f"margin.settled_reweighted.{k}"]) == settled(k)
        total += settled(k)
    assert counts["margin.blocks"] == 3
    assert counts["margin.lps"] == counts["simplex.lps"] == report.subsets_checked - total
    assert 0 < sum(first) < total < report.subsets_checked


def test_sparsest_supports_counts_the_supports_its_screen_rules_out():
    # On a planted k* = 4 10x20 system the range screen rules out every
    # support but the planted one, whose feasibility LP is the one solved;
    # the two counts together are the supports checked.
    rng = np.random.default_rng([4, 10])
    A = rng.standard_normal((10, 20))
    x = np.zeros(20)
    x[rng.choice(20, size=4, replace=False)] = rng.uniform(0.1, 1.0, size=4)
    with stats.collect() as counts:
        report = sparsest_supports(A, A @ x)
    assert report.supports == [tuple(np.flatnonzero(x))]
    assert counts["feasibility.lps"] == counts["simplex.lps"] == 1
    assert counts["feasibility.ruled_out"] == 6194
    assert (counts["feasibility.ruled_out"] + counts["feasibility.lps"]
            == report.subsets_checked == comb(20, 1) + comb(20, 2) + comb(20, 3) + comb(20, 4))


def test_refused_started_margin_lps_count_as_two_phase_resolves():
    # The six supports of the near-dependent matrix whose started margin LP
    # the LP core's re-check refuses are each re-solved two-phase; nothing on
    # a Gaussian is.
    near = _near_dependent()
    refused = [(1,), (1, 3), (1, 5), (1, 8), (1, 3, 7), (1, 5, 8)]
    with stats.collect() as counts:
        for S in refused:
            check_rsp_at(near, S)
    assert counts["simplex.two_phase"] == 6 and counts["margin.lps"] == 6
    with stats.collect() as counts:
        list(rsp.check_rsp_batch(_gaussian((4, 8)), list(combinations(range(8), 2))))
    assert counts["simplex.two_phase"] == 0


def test_counts_need_an_open_scope_and_reach_the_enclosing_one():
    A = _gaussian((4, 8))

    def work():
        check_rsp_at(A, (0, 1))
        rank_details(A, (0, 1))
    with stats.collect() as closed:
        pass
    assert stats.current() is None
    work()
    stats.add("margin.lps")
    assert not closed
    with stats.collect() as outer:
        work()
        with stats.collect() as inner:
            work()
            assert stats.current() is inner
        assert stats.current() is outer
    assert stats.current() is None
    assert inner["margin.lps"] == inner["linalg.ranked"] == 1 and inner["simplex.lps"] == 1
    assert outer == inner + inner
