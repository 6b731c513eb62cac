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
actually plants a random positive vector on each support and re-solves,
with margin LPs of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import (DEFAULT_TOLERANCES, IndexSet, SupportEnumeration,
                     ToleranceConfig, as_matrix, rank)
from .rsp import (Verdict, _certified_points, _l1_points, _margin_solves, _raised,
                  _row_reduction)

# Enumeration cap for LP-backed subset certification.  Each subset costs one
# LP solve, far more than the rank probes behind the spark search, so the
# default sits below the plain subset-count budget used there.
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
    full_rank_only: bool       # skip supports with rank-deficient columns
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
    the rank-restricted properties whose quantifier ranged over nothing
    (wrsp also fails outright in that case, since it requires a witnessable
    size-K support to exist).
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


def _supports(A: np.ndarray, K: int, prop: str, tol: ToleranceConfig,
              budget: int) -> SupportEnumeration:
    if prop not in QUANTIFIERS:
        raise ValueError(f"unknown property {prop!r}; expected one of {sorted(QUANTIFIERS)}")
    if not 1 <= K <= A.shape[1]:
        raise ValueError(f"order K={K} must lie in [1, {A.shape[1]}]")
    q = QUANTIFIERS[prop]
    sizes = [K] if q.exact_size else range(1, K + 1)
    return SupportEnumeration(A, sizes, budget, tol, full_rank_only=q.full_rank_only)


def certify_order_k(A, K: int, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                    budget: int = DEFAULT_CHECK_BUDGET,
                    property: str = "rsp") -> RecoveryReport:
    """Certify the order-K ``property`` (a key of ``QUANTIFIERS``) of A.

    Every support the property ranges over is checked, and per-size failure
    counts are kept as evidence: success at size k does not imply success at
    smaller sizes.  wrsp also requires some size-K support with full column
    rank, so K above rank(A) fails with ``no_full_rank_subset`` set.  When
    no size-K support has full column rank, pwrsp's quantifier is empty and
    the property holds vacuously; the report flags that case too.

    A full-rank support is a yes without its margin LP where a least-squares
    witness y, the first or a reweighted one, passes ``verify_rsp_witness``'s
    conditions on A (about 91% of the supports of a Gaussian 8x16 matrix at
    K=3, 64% by the first witness).  Such a y is a yes
    certificate by itself and a feasible point of the margin LP whose
    max eta_off is at most 1 - rsp_margin, so the LP would say yes too; it
    just gives no t*, which ``check_rsp_at`` still computes exactly.  Every
    other support's verdict comes from its margin LP, and A's row reduction
    is computed once per call for all of them.  Each size of the
    enumeration is one block, up to ``linalg._BLOCK_LEN`` supports, so its
    remaining margin LPs pivot as one lockstep stack.
    """
    A = as_matrix(A)
    supports = _supports(A, K, property, tol, budget)
    q = QUANTIFIERS[property]
    if q.needs_full_rank_k and rank(A, None, tol) < K:
        return RecoveryReport(property=property, order=K, holds=Verdict.NO,
                              counterexample=None, subsets_checked=0,
                              no_full_rank_subset=True)
    counterexample: IndexSet | None = None
    marginal: list[IndexSet] = []
    failures: dict[int, int] = {}
    rows = _row_reduction(A, tol)
    for k, block in supports:
        # A block's first support in order whose LP breaks down or fails its
        # re-check raises, as in ``check_rsp_batch``.
        for S, cert in zip(block, map(_raised, _margin_solves(A, block, tol, rows, screen=True))):
            if cert.holds is Verdict.NO:
                failures[k] = failures.get(k, 0) + 1
                if counterexample is None:
                    counterexample = S
            elif cert.holds is Verdict.MARGINAL:
                marginal.append(S)
    if counterexample is not None:
        holds = Verdict.NO
    elif marginal:
        holds = Verdict.MARGINAL
    else:
        holds = Verdict.YES
    return RecoveryReport(property=property, order=K, holds=holds,
                          counterexample=counterexample,
                          subsets_checked=supports.count,
                          marginal_subsets=marginal, failures_per_size=failures,
                          no_full_rank_subset=q.full_rank_only and supports.count == 0)


def _l1_walk(A: np.ndarray, block: list[IndexSet], k: int, trials: int,
             rng: np.random.Generator, tol: ToleranceConfig) -> tuple[list, list]:
    # The planted vectors and l1 points of a block's trials, window by
    # window, up to and including the first trial whose l1 step fails or
    # misses its planted vector; no window is drawn after it.
    n = A.shape[1]
    plants: list[np.ndarray] = []
    points: list = []
    start, width = 0, _FIRST_WINDOW
    while start < len(block):
        window = block[start:start + width]
        start, width = start + len(window), 2 * width
        rows = len(window) * trials
        planted = np.zeros((rows, n))
        columns = np.repeat(np.array(window, dtype=np.intp), trials, axis=0)
        planted[np.arange(rows)[:, None], columns] = rng.uniform(0.1, 1.0, size=(rows, k))
        # One product per trial, as each trial's own call computed it.
        rhs = np.array([A @ p for p in planted])
        for p, point in zip(planted, _l1_points(A, rhs, tol, columns)):
            plants.append(p)
            points.append(point)
            if isinstance(point, Exception) or np.abs(point[0] - p).max() > _RECOVERY_TOL:
                return plants, points
    return plants, points


def uniform_recovery_oracle(A, K: int, trials_per_support: int = 1,
                            tol: ToleranceConfig = DEFAULT_TOLERANCES,
                            seed: int = 0, budget: int = DEFAULT_CHECK_BUDGET,
                            property: str = "rsp") -> RecoveryOracleReport:
    """Ground-truth recovery probe, independent of the subset certifiers.

    For each support S that the named order-K ``property`` ranges over
    (sizes up to K, or exactly K for the partial properties; only
    full-column-rank supports for the weak ones) draw vectors positive on S,
    take their measurements, and re-solve: recovery holds iff the solve
    certifies unique and reproduces the planted vector to 1e-6.  One trial
    per support decides, because the certificate conditions depend only on
    the support; extra trials guard against tolerance noise.  Each trial
    gets its own l1 solve and its own uniqueness certificate; nothing is
    taken from the certifiers.

    Supports are visited in enumeration order, and the first that fails is
    reported.  Each trial gets what a ``solve_and_certify`` call of its own
    gives, and an exception is raised only on reaching the trial that
    raises it, so the report is what a one-by-one walk reports.  Each block
    of the enumeration is walked in windows of 8, 16, 32, ... supports; one
    window's l1 LPs are one stack, each started at its planted vertex (S
    and m - k columns that make the basis nonsingular, or two-phase where
    none is found).  Phase 2 still decides optimality by reduced costs and
    every optimum is re-checked on the raw data; the LP core solves
    two-phase, in the same call, any started LP whose solve fails.  The
    walk stops at the first trial whose l1 step fails or misses the planted
    vector; the block's trials up to and including it are then certified
    in one call, so no margin LP is solved past the first failure.  A
    window's planted values are one draw of W * trials rows of k values,
    the same stream as W * trials draws of k values each, so the values
    planted on a support do not depend on the windows.
    """
    if trials_per_support < 1:
        raise ValueError(f"trials_per_support={trials_per_support} must be at least 1")
    A = as_matrix(A)
    supports = _supports(A, K, property, tol, budget)
    rng = np.random.default_rng(seed)
    checked = 0
    for k, block in supports:
        plants, points = _l1_walk(A, block, k, trials_per_support, rng, tol)
        for i, (recovered, verdict) in enumerate(_certified_points(A, points, tol)):
            if not (verdict.unique is Verdict.YES
                    and np.abs(recovered - plants[i]).max() <= _RECOVERY_TOL):
                return RecoveryOracleReport(False, block[i // trials_per_support],
                                            checked + 1 + i // trials_per_support,
                                            trials_per_support, seed)
        checked += len(block)
    return RecoveryOracleReport(True, None, checked, trials_per_support, seed)
