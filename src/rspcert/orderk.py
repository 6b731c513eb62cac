"""Order-K recovery certification by exhaustive subset enumeration.

Four graded matrix properties decide which sparse nonnegative vectors a
sensing matrix recovers through l1 minimization.  They are the keys of
``QUANTIFIERS``, and differ only in the supports they range over:

* rsp_k    - range-space certificate passes at every support of size <= K
             (uniform recovery of all K-sparse nonnegative vectors);
* wrsp_k   - passes at every full-column-rank support of size <= K, and some
             size-K support has full column rank;
* prsp_k   - passes at every support of size exactly K;
* pwrsp_k  - passes at every full-column-rank support of size exactly K.

``certify_order_k`` certifies any of them; its "yes" at a support may rest on
a checked least-squares witness instead of a margin LP, and so carry no t*.
Every verdict is cross-checkable against a brute-force recovery oracle that
actually plants a random positive vector on each support and re-solves.
The oracle reads each trial's uniqueness off its own l1 LP: every optimum
vanishes off the columns Z of zero reduced cost, so x is unique when Z
holds its support and A_Z has full column rank.  A trial that this
leaves open is decided at its support S by the paper's two conditions:
A_S passes the same full-column-rank gate and the margin LP says yes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import stats
from .linalg import (DEFAULT_TOLERANCES, IndexSet, SupportEnumeration, ToleranceConfig,
                     _full_column_rank, _row_reduction, _Rows, as_matrix)
from .rsp import Verdict, _l1_points, _l1_starts, _margin_solves, _raised, _settled

# Enumeration cap for LP-backed subset certification.  A subset costs the
# oracle an l1 LP per trial, and the certifier a gate, a least-squares witness
# and, for the ~9% no witness settles on a Gaussian 8x16 at K=3, a margin LP:
# more than a spark rank probe, so the default sits below spark's budget.
DEFAULT_CHECK_BUDGET = 1_000_000

# Supports in the first window of each block the recovery oracle solves as
# one batch; each further window of the block is twice as long.
_FIRST_WINDOW = 8

# The largest |x - planted x| at which the recovery oracle counts a planted
# vector as recovered.
_RECOVERY_TOL = 1e-6


class Quantifier(NamedTuple):
    """The supports an order-K property ranges over."""

    exact_size: bool           # size exactly K, else every size 1 through K
    full_rank_only: bool       # skip supports that fail ``_full_column_rank``
    needs_full_rank_k: bool    # also require a full-column-rank size-K support


QUANTIFIERS = {
    "rsp": Quantifier(exact_size=False, full_rank_only=False, needs_full_rank_k=False),
    "wrsp": Quantifier(exact_size=False, full_rank_only=True, needs_full_rank_k=True),
    "prsp": Quantifier(exact_size=True, full_rank_only=False, needs_full_rank_k=False),
    "pwrsp": Quantifier(exact_size=True, full_rank_only=True, needs_full_rank_k=False),
}


@dataclass
class RecoveryReport:
    """Aggregated verdict of one order-K property.

    ``counterexample`` is the first failing subset in enumeration order
    (sizes ascending, lexicographic within a size) and can be re-checked with
    a single ``check_rsp_at`` call.  A marginal subset downgrades the verdict
    to marginal unless a hard failure exists.  ``no_full_rank_subset`` marks
    the rank-restricted properties with no size-K support of full column
    rank (wrsp also fails outright in that case, since it requires a
    witnessable size-K support to exist).
    """

    property: str
    order: int
    holds: Verdict
    counterexample: IndexSet | None
    subsets_checked: int
    marginal_subsets: list[IndexSet] = field(default_factory=list)
    failures_per_size: dict[int, int] = field(default_factory=dict)
    no_full_rank_subset: bool = False

    def agrees_with(self, oracle: "RecoveryOracleReport") -> bool | None:
        """Whether the oracle confirms the verdict; None if it cannot test it.

        It cannot test a marginal verdict, nor a no for want of a
        full-column-rank size-K support: it probes only supports that exist.
        """
        if self.holds is Verdict.MARGINAL or (
                self.holds is Verdict.NO and self.no_full_rank_subset):
            return None
        return (self.holds is Verdict.YES) == oracle.recovers


@dataclass
class RecoveryOracleReport:
    """Ground-truth recovery probe, replayable from its seed."""

    recovers: bool
    failing_support: IndexSet | None
    supports_checked: int
    trials_per_support: int
    seed: int


def _supports(A: np.ndarray, K: int, prop: str, budget: int) -> SupportEnumeration:
    # The supports of the sizes ``prop`` ranges over; a caller applies the
    # full-rank gate of the weak properties itself.
    if prop not in QUANTIFIERS:
        raise ValueError(f"unknown property {prop!r}; expected one of {sorted(QUANTIFIERS)}")
    if not 1 <= K <= A.shape[1]:
        raise ValueError(f"order K={K} must lie in [1, {A.shape[1]}]")
    sizes = [K] if QUANTIFIERS[prop].exact_size else range(1, K + 1)
    return SupportEnumeration(A, sizes, budget)


def certify_order_k(A, K: int, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                    budget: int = DEFAULT_CHECK_BUDGET,
                    property: str = "rsp") -> RecoveryReport:
    """Certify the order-K ``property`` (a key of ``QUANTIFIERS``) of A.

    Every support the property ranges over is checked, and per-size failure
    counts are kept as evidence: success at size k does not imply success at
    smaller sizes.  One full-column-rank gate per support decides which
    supports the weak properties range over and the screen tries.  wrsp
    also requires a size-K support that passes it, so K above r fails at
    once and a size K with none at the end, with ``no_full_rank_subset``
    set.  When no size-K support passes, pwrsp's quantifier is empty and
    the property holds vacuously; the report flags that case too.

    A full-rank support is a yes without its margin LP where a least-squares
    witness y, the first or a reweighted one, passes ``verify_rsp_witness``'s
    conditions on A (about 91% of the supports of a Gaussian 8x16 matrix at
    K=3, 64% by the first witness).  Such a y is a yes certificate by
    itself and a feasible point of the margin LP whose max eta_off is at
    most 1 - rsp_margin, so the LP would say yes too; it just gives no t*,
    which ``check_rsp_at`` still computes exactly.  The witnesses come from
    an orthonormal basis of the range of A^T, and the margin LPs from A's
    row reduction, both from one thin SVD of A per call; a settled support
    gets no certificate object and no null-space coordinates.
    Every other support's verdict comes from its margin LP.  Each size of
    the enumeration is one block, up to ``linalg._BLOCK_LEN`` supports, so
    its remaining margin LPs pivot as one lockstep stack.
    """
    A = as_matrix(A)
    supports = _supports(A, K, property, budget)
    q = QUANTIFIERS[property]
    rows = _row_reduction(A, tol)
    if q.needs_full_rank_k and len(rows.At) < K:
        return RecoveryReport(property=property, order=K, holds=Verdict.NO,
                              counterexample=None, subsets_checked=0,
                              no_full_rank_subset=True)
    counterexample: IndexSet | None = None
    marginal: list[IndexSet] = []
    failures: dict[int, int] = {}
    checked = full_at_k = 0
    for k, block in supports:
        index = np.array(block, dtype=np.intp).reshape(-1, k)
        full = _full_column_rank(rows.At, index, rows.floor)[0]
        if q.full_rank_only:
            block, index, full = list(compress(block, full)), index[full], full[full]
            full_at_k += len(block) if k == K else 0
        checked += len(block)
        settled = _settled(A, index, rows, tol, full)[0]
        # A block's first support in order whose LP breaks down or fails its
        # re-check raises, as in ``check_rsp_batch``.
        for S, cert in zip(compress(block, ~settled),
                           map(_raised, _margin_solves(A, block, tol, rows, settled))):
            if cert.holds is Verdict.NO:
                failures[k] = failures.get(k, 0) + 1
                if counterexample is None:
                    counterexample = S
            elif cert.holds is Verdict.MARGINAL:
                marginal.append(S)
    no_full_rank_subset = q.full_rank_only and full_at_k == 0
    if counterexample is not None or (q.needs_full_rank_k and no_full_rank_subset):
        holds = Verdict.NO
    elif marginal:
        holds = Verdict.MARGINAL
    else:
        holds = Verdict.YES
    return RecoveryReport(property=property, order=K, holds=holds,
                          counterexample=counterexample,
                          subsets_checked=checked,
                          marginal_subsets=marginal, failures_per_size=failures,
                          no_full_rank_subset=no_full_rank_subset)


def _l1_walk(A: np.ndarray, block: list[IndexSet], trials: int, rng: np.random.Generator,
             tol: ToleranceConfig, rows: _Rows,
             gated: bool) -> tuple[list[IndexSet], list, bool]:
    # The supports a block's walk reaches and the l1 points of their trials,
    # window by window, up to and including the first trial whose l1 step
    # fails or misses its planted vector, and whether one did; no window is
    # drawn after it.  A window is the next W enumerated supports, and
    # ``_l1_starts`` gives each its start under A's row reduction ``rows``;
    # where ``gated``, the window keeps only the supports its gate passes.
    walked: list[IndexSet] = []
    points: list = []
    start, width = 0, _FIRST_WINDOW
    while start < len(block):
        window = block[start:start + width]
        start, width = start + width, 2 * width
        index = np.array(window, dtype=np.intp)
        full, basis = _l1_starts(rows, index)
        if gated:
            window, index, basis = list(compress(window, full)), index[full], basis[full]
        if not window:
            continue
        walked += window
        columns = np.repeat(index, trials, axis=0)
        planted = np.zeros((len(columns), A.shape[1]))
        np.put_along_axis(planted, columns, rng.uniform(0.1, 1.0, size=columns.shape), axis=1)
        # One product per trial, as each trial's own call computed it.
        rhs = np.array([A @ p for p in planted])
        for p, point in zip(planted, _l1_points(A, rhs, tol, np.repeat(basis, trials, axis=0))):
            points.append(point)
            if isinstance(point, Exception) or np.abs(point[0] - p).max() > _RECOVERY_TOL:
                return walked, points, True
    return walked, points, False


def _pinned(rows: _Rows, points: list, tol: ToleranceConfig) -> np.ndarray:
    # Which l1 optima (x, S, s) of ``_l1_points`` their own LP proves
    # unique.  For every feasible x', 1.x' = b.y + s.x', with s >= 0 the
    # reduced costs checked on the raw A, so every optimum vanishes off
    # Z = {j : s_j <= rsp_margin}; x is the only one where S lies in Z and
    # A_Z passes ``_full_column_rank`` under A's row reduction ``rows`` (so
    # |Z| <= r).  A_S then passes too: each |R_ii|, a column's distance from
    # the span of those before it, is no smaller in A~_S than in A~_Z.
    pinned = np.zeros(len(points), dtype=bool)
    if not points:
        return pinned
    Z = np.array([s for _, _, s in points]) <= tol.rsp_margin
    trial = np.repeat(np.arange(len(points)), [len(S) for _, S, _ in points])
    off = trial[~Z[trial, [j for _, S, _ in points for j in S]]]
    held = np.bincount(off, minlength=len(points)) == 0
    sizes = Z.sum(axis=1)
    # One gate per distinct Z, stacked by size.  Each row of Z is one n-byte
    # key to np.unique, which sorts those far faster than rows (axis=0).
    for size in np.unique(sizes[held]).tolist():
        at = np.flatnonzero(held & (sizes == size))
        keys = Z[at].view(np.dtype((np.void, Z.shape[1])))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        faces = np.nonzero(Z[at[first]])[1].reshape(-1, size)
        pinned[at] = _full_column_rank(rows.At, faces, rows.floor)[0][inverse]
    return pinned


def _first_not_unique(A: np.ndarray, points: list, open_: np.ndarray, tol: ToleranceConfig,
                      rows: _Rows) -> int | None:
    # The index of the first l1 optimum (x, S, s) of ``points`` marked in
    # ``open_`` that is not unique by the paper's two conditions at its
    # support S: A_S passes ``_full_column_rank`` under A's row reduction
    # ``rows``, and the margin LP at S says yes.  Each distinct S gets one
    # gate and one margin LP, stacked by size; a margin LP that breaks down
    # raises on reaching its point, as ``solve_and_certify`` raises for it.
    reached = [(i, points[i][1]) for i in np.flatnonzero(open_).tolist()]
    decided = {}
    for k in dict.fromkeys(len(S) for _, S in reached):
        group = list(dict.fromkeys(S for _, S in reached if len(S) == k))
        full = _full_column_rank(rows.At, np.array(group, dtype=np.intp), rows.floor)[0]
        decided |= zip(group, zip(full.tolist(), _margin_solves(A, group, tol, rows)))
    for i, S in reached:
        full, cert = decided[S]
        if _raised(cert).holds is not Verdict.YES or not full:
            return i
    return None


def uniform_recovery_oracle(A, K: int, trials_per_support: int = 1,
                            tol: ToleranceConfig = DEFAULT_TOLERANCES,
                            seed: int = 0, budget: int = DEFAULT_CHECK_BUDGET,
                            property: str = "rsp") -> RecoveryOracleReport:
    """Ground-truth recovery probe, independent of the subset certifiers.

    For each support S that the named order-K ``property`` ranges over
    (sizes up to K, or exactly K for the partial properties; only
    full-column-rank supports for the weak ones) draw vectors positive on S,
    take their measurements, and re-solve: recovery holds iff the l1 LP
    returns the planted vector to 1e-6 and that vector is its unique
    optimum.  One trial per support decides, because uniqueness depends
    only on the support; extra trials guard against tolerance noise.  Each
    trial gets its own l1 solve and its own uniqueness proof; nothing is
    taken from the certifiers.

    Uniqueness is read off the trial's own l1 LP where it can be.  With s
    the reduced costs 1 - A^T y that the LP core checked on the raw A and
    Z = {j : s_j <= rsp_margin}, every optimum vanishes off Z, since
    1.x' = b.y + s.x' for every feasible x'; so x is the unique optimum
    when its support lies in Z and A_Z has full column rank (the
    certifier's full-column-rank gate, under one row reduction of A per
    call, stacked over the distinct Z of a block).  Z is usually the m
    columns of the LP's optimal basis, the support and m - k at zero.  A
    trial that this leaves open, where Z is larger than r or A_Z fails the
    gate, is unique iff A_S passes the same gate and the margin LP at its
    support S says yes, the paper's two conditions: one gate call and one
    margin-LP stack over the block's distinct open supports.

    Supports are visited in enumeration order, and the first that fails is
    reported; an exception is raised only on reaching the trial that raises
    it, so the report is what a one-by-one walk reports.  Each block is
    walked in windows of its next 8, 16, 32, ... supports, with one QR per
    support, the gate's: a weak property's window keeps the supports that
    pass it, and each l1 LP starts at its planted vertex, S and m - k
    columns that this QR makes a nonsingular basis, where there are such.
    One window's l1 LPs are one stack.  Phase 2 still decides optimality by
    reduced costs and every optimum is re-checked on the raw data; the LP
    core solves two-phase, in the same call, any LP with no start or whose
    started solve fails.  The walk stops at the first trial whose l1 step
    fails or misses the planted vector.  That trial has failed already and
    is not certified, and no window is drawn after it.  A window's planted
    values are one draw of W * trials rows of k values, the same stream as
    W * trials draws of k values each, so the values planted on a support
    do not depend on the windows.
    """
    if trials_per_support < 1:
        raise ValueError(f"trials_per_support={trials_per_support} must be at least 1")
    A = as_matrix(A)
    supports = _supports(A, K, property, budget)
    rows = _row_reduction(A, tol)
    gated = QUANTIFIERS[property].full_rank_only
    rng = np.random.default_rng(seed)
    checked = 0
    for _, block in supports:
        walked, points, missed = _l1_walk(A, block, trials_per_support, rng, tol, rows, gated)
        recovered = points[:-1] if missed else points
        open_ = ~_pinned(rows, recovered, tol)
        counts = stats.current()
        if counts is not None:
            counts["oracle.trials_decided"] += int(np.count_nonzero(~open_))
            counts["oracle.trials_to_margin"] += int(np.count_nonzero(open_))
        failed = _first_not_unique(A, recovered, open_, tol, rows)
        if failed is None and missed:
            if isinstance(points[-1], Exception):
                raise points[-1]
            failed = len(recovered)
        if failed is not None:
            trial = failed // trials_per_support
            return RecoveryOracleReport(False, walked[trial], checked + 1 + trial,
                                        trials_per_support, seed)
        checked += len(walked)
    return RecoveryOracleReport(True, None, checked, trials_per_support, seed)
