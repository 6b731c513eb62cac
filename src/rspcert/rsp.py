"""Range space property certificates and uniqueness verdicts.

A nonnegative solution x of A x = b is the unique least-l1-norm nonnegative
solution iff (a) some eta in the range of A^T equals 1 on the support of x and
stays strictly below 1 elsewhere, and (b) the support columns of A are
linearly independent.  Condition (a) reduces to one small LP per support; this
module certifies both conditions with re-checkable witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (CertificateUnavailable, Infeasible, NonpositiveWeight,
                     NotASolution, NotNonnegative, RspcertError, Unbounded)
from .linalg import (DEFAULT_TOLERANCES, IndexSet, ToleranceConfig, _block_ranks,
                     as_matrix, as_vector, augmented_rank_details,
                     complement, normalize_support, rank_details)
from .simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpSolution, LpStack, StandardLp,
                      solve, solve_batch)


class Verdict(str, Enum):
    YES = "yes"
    NO = "no"
    MARGINAL = "marginal"


class FailureReason(str, Enum):
    NONE = "none"
    RSP_FAILED = "rsp_failed"
    RANK_DEFICIENT = "rank_deficient"
    BOTH = "both"


@dataclass
class RspCertificate:
    """Outcome of the margin LP at one support.

    t_star is the optimal margin: the smallest ceiling t such that some
    eta = A^T y equals 1 on the support and stays at or below t off it
    (t clamped below at -1 to keep the LP bounded).  The property holds
    strictly iff t_star < 1; verdicts leave a tolerance band around 1.
    Witnesses are present for yes/marginal verdicts and satisfy eta = A^T y,
    eta = 1 on the support and eta <= t_star off it, the last two up to the
    LP's feasibility tolerance.  Only a yes witness, whose t_star is at most
    1 - rsp_margin, passes ``verify_rsp_witness``; a marginal one does not.
    """

    holds: Verdict
    support: IndexSet
    witness_eta: np.ndarray | None
    witness_y: np.ndarray | None
    t_star: float | None
    lp_status: str


@dataclass
class UniquenessVerdict:
    """Combined range-space and rank verdict for one candidate solution."""

    unique: Verdict
    rsp: RspCertificate
    full_column_rank: bool
    rank_found: int
    augmented_full_column_rank: bool
    rank_marginal: bool
    reason: FailureReason


@dataclass
class LpSparsestResult:
    """Outcome of the sparsest-LP-optimum pipeline."""

    d_star: float
    augmented_matrix: np.ndarray = field(metadata={"json": None})
    augmented_rhs: np.ndarray = field(metadata={"json": None})
    x: np.ndarray
    verdict: UniquenessVerdict

    @property
    def augmented_rows(self) -> int:
        return self.augmented_matrix.shape[0]


def support_of(x, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> IndexSet:
    """Indices with x_i > zero_tol; raises if any entry is meaningfully negative."""
    x = as_vector(x)
    if x.size and x.min() < -tol.zero_tol:
        i = int(np.argmin(x))
        raise NotNonnegative(f"entry {i} is {x[i]:.3g} < -zero_tol")
    return tuple(int(i) for i in np.flatnonzero(x > tol.zero_tol))


def _raised(entry):
    """``entry``, or raise it if it is an exception."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def _scaled_by_weights(A: np.ndarray, w) -> np.ndarray:
    w = as_vector(w, A.shape[1])
    if w.size and w.min() <= 0.0:
        i = int(np.argmin(w))
        raise NonpositiveWeight(f"weight {i} is {w[i]:.3g}, must be positive")
    return A / w


def _margin_lps(A: np.ndarray, block: np.ndarray, rank_tol: float) -> tuple[LpStack, np.ndarray]:
    # One margin LP per row of ``block`` (sorted supports of one size k), and
    # a feasible basis of each (a row of n column indices), or a row of -1
    # where the support has no start.  The LP has nonnegative variables y+,
    # the shifted margin t + 1, one slack per column off the support and y-,
    # where the free y is y+ - y- (the y- columns are the y+ columns negated);
    # rows A_S^T y = 1, then A_j^T y - (t + 1) + s_j = -1 for each j off S,
    # ascending.
    # The start: a partial-pivot elimination on A_S picks k rows I with
    # A_{I,S} nonsingular; a support whose pivot falls to
    # rank_tol * max(1, largest |entry| of A_S) or below gets no start, and
    # phase 1 decides it (its equalities may be inconsistent).  Then
    # y_I = A_{I,S}^-T 1, y = 0 elsewhere, and each y_i is basic as y+ or y-
    # by its sign; t + 1 = max(0, 1 + max_{j off S} A_j^T y) is basic in the
    # row of the first arg-max unless it is 0, and every other off-support row
    # keeps its slack basic.  All these values are nonnegative, so the basis
    # is feasible.
    m, n = A.shape
    count, k = block.shape
    kc = n - k
    every = np.arange(count)
    outside = np.ones((count, n), dtype=bool)
    outside[every[:, None], block] = False
    off = np.nonzero(outside)[1].reshape(count, kc)
    nv = 2 * m + 1 + kc
    Bm = np.zeros((count, n, nv))
    Bm[:, :k, :m] = A.T[block]
    Bm[:, k:, :m] = A.T[off]
    Bm[:, k:, m] = -1.0
    Bm[:, k:, m + 1:-m] = np.eye(kc)
    np.negative(Bm[:, :, :m], out=Bm[:, :, -m:])
    rhs = np.concatenate([np.ones(k), -np.ones(kc)])
    cost = np.zeros(nv)
    cost[m] = 1.0
    lps = LpStack(cost, Bm, np.broadcast_to(rhs, (count, n)))

    R = A.T[block].transpose(0, 2, 1)       # A_S of each support, (count, m, k)
    threshold = rank_tol * np.maximum(1.0, np.abs(R).max(axis=(1, 2), initial=0.0))
    rows = np.empty((count, k), dtype=np.intp)
    taken = np.zeros((count, m), dtype=bool)
    ok = np.ones(count, dtype=bool)
    for c in range(k):
        r = np.where(taken, -1.0, np.abs(R[:, :, c])).argmax(axis=1)
        pivot = R[every, r, c]
        ok &= np.abs(pivot) > threshold
        rows[:, c] = r
        taken[every, r] = True
        if c + 1 < k:
            factor = R[:, :, c] / np.where(ok, pivot, 1.0)[:, None]
            R[:, :, c + 1:] -= factor[:, :, None] * R[every, r, c + 1:][:, None, :]
    y = np.zeros((count, m))
    if k:
        AIS = A[rows[:, :, None], block[:, None, :]]
        AIS[~ok] = np.eye(k)
        y[every[:, None], rows] = np.linalg.solve(AIS.transpose(0, 2, 1),
                                                  np.ones((count, k, 1)))[:, :, 0]
    basis = np.empty((count, n), dtype=np.intp)
    basis[:, :k] = np.where(y[every[:, None], rows] >= 0.0, rows, nv - m + rows)
    basis[:, k:] = m + 1 + np.arange(kc)
    if kc:
        # Row k + i holds off-support column off[:, i].
        eta = np.take_along_axis(np.matmul(y[:, None, :], A)[:, 0], off, axis=1)
        i = eta.argmax(axis=1)
        lifted = np.flatnonzero(eta[every, i] > -1.0)
        basis[lifted, k + i[lifted]] = m
    basis[~ok] = -1
    return lps, basis


def _margin_certificate(A: np.ndarray, S: IndexSet, sol: LpSolution,
                        tol: ToleranceConfig) -> RspCertificate:
    if sol.status == INFEASIBLE:
        return RspCertificate(Verdict.NO, S, None, None, None, INFEASIBLE)
    if sol.status != OPTIMAL:
        # The shifted margin is bounded below by zero, so this cannot happen
        # unless the solve broke down numerically.
        raise CertificateUnavailable(f"margin LP returned {sol.status}")
    t_star = float(sol.objective_value) - 1.0
    if t_star <= 1.0 - tol.rsp_margin:
        holds = Verdict.YES
    elif t_star >= 1.0 - tol.feas_tol:
        holds = Verdict.NO
    else:
        holds = Verdict.MARGINAL
    if holds is Verdict.NO:
        return RspCertificate(holds, S, None, None, t_star, sol.status)
    m = A.shape[0]
    y = sol.x[:m] - sol.x[-m:]
    return RspCertificate(holds, S, A.T @ y, y, t_star, sol.status)


def _margin_solves(A: np.ndarray, supports: list[IndexSet],
                   tol: ToleranceConfig) -> list[LpSolution | CertificateUnavailable]:
    # The margin LPs of sorted supports of one size, in order, solved as one
    # stack, each full-rank support's from its constructed start.
    if not supports:
        return []
    lps, basis = _margin_lps(A, np.array(supports, dtype=np.intp), tol.rank_tol)
    return solve_batch(lps, tol, basis=basis)


def check_rsp_batch(A, supports: Sequence[Iterable[int]],
                    tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Iterator[RspCertificate]:
    """``check_rsp_at`` for several supports of one size, as stacked margin LPs.

    Yields one certificate per support, in order; each equals the one
    ``check_rsp_at`` gives for its support.  The margin LPs are built as one
    stack and solved in lockstep; ``solve_batch`` bounds the tableau memory,
    and the caller bounds the stack (the enumerations pass blocks of at most
    256 supports).  A solve that breaks down or fails its re-check raises
    its ``CertificateUnavailable`` at the first such support in the given order.
    """
    A = as_matrix(A)
    supports = [normalize_support(S, A.shape[1]) for S in supports]
    if len({len(S) for S in supports}) > 1:
        raise ValueError("a margin LP batch takes supports of one size")
    for S, sol in zip(supports, _margin_solves(A, supports, tol)):
        yield _margin_certificate(A, S, _raised(sol), tol)


def check_rsp_at(A, support, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                 weights=None) -> RspCertificate:
    """Certify the range space property at a support via the margin LP.

    Solves min t s.t. A_S^T y = 1 on S, A_j^T y <= t off S, t >= -1, with y
    free, which the LP is given as y = y+ - y- with y+, y- >= 0.  Yes iff
    t* <= 1 - rsp_margin; no iff the equalities are inconsistent or t* is
    within feas_tol of 1 or above; marginal in the band between.  The empty
    support is solved by the same LP: it has no equalities, so t* lies in
    [-1, 0] (eta = 0 is feasible) and it holds.

    With positive ``weights`` w the certificate is the weighted one, eta = w
    on S and eta < w off S.  A weighted l1 objective is a plain l1 objective
    for the column-rescaled matrix A W^-1, so the certificate is computed for
    that scaled matrix and its witness lives in the scaled coordinates.
    """
    if weights is not None:
        A = _scaled_by_weights(as_matrix(A), weights)
    return next(check_rsp_batch(A, [support], tol))


def verify_rsp_witness(A, support, eta, y,
                       tol: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Re-check a range-space witness without solving anything."""
    A = as_matrix(A)
    n = A.shape[1]
    S = normalize_support(support, n)
    eta = as_vector(eta, n)
    y = as_vector(y, A.shape[0])
    if np.abs(eta - A.T @ y).max(initial=0.0) > tol.feas_tol:
        return False
    if S and np.abs(eta[list(S)] - 1.0).max() > tol.feas_tol:
        return False
    Sc = complement(S, n)
    if Sc and eta[list(Sc)].max() > 1.0 - tol.rsp_margin:
        return False
    return True


def _combine(rsp_cert: RspCertificate, rank_res, aug_res, k: int) -> UniquenessVerdict:
    full = rank_res.rank == k
    aug_full = aug_res.rank == k
    rsp_no = rsp_cert.holds is Verdict.NO
    if rsp_no and not full:
        reason = FailureReason.BOTH
    elif rsp_no:
        reason = FailureReason.RSP_FAILED
    elif not full:
        reason = FailureReason.RANK_DEFICIENT
    else:
        reason = FailureReason.NONE
    if rsp_cert.holds is Verdict.YES and full:
        unique = Verdict.YES
    elif rsp_cert.holds is Verdict.MARGINAL and full:
        unique = Verdict.MARGINAL
    else:
        unique = Verdict.NO
    return UniquenessVerdict(unique=unique, rsp=rsp_cert,
                             full_column_rank=full, rank_found=rank_res.rank,
                             augmented_full_column_rank=aug_full,
                             rank_marginal=rank_res.marginal or aug_res.marginal,
                             reason=reason)


def certify_uniqueness(A, b, x, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                       weights=None) -> UniquenessVerdict:
    """Decide whether x is the unique least-l1-norm nonnegative solution.

    Validates that x actually solves A x = b nonnegatively, then combines the
    range-space certificate at the support of x with the full-column-rank
    test of the support columns.  The ones-row-augmented rank is reported as
    well; the two rank tests agree whenever the range-space property holds.

    With positive ``weights`` the objective is the weighted l1 norm and the
    range-space certificate is the weighted one (see ``check_rsp_at``).
    Column rescaling does not change rank, so the rank tests run on A itself.
    """
    A = as_matrix(A)
    b = as_vector(b, A.shape[0])
    x = as_vector(x, A.shape[1])
    scaled = A if weights is None else _scaled_by_weights(A, weights)
    S = _solution_support(A, b, x, tol)
    cert = check_rsp_at(scaled, S, tol)
    return _combine(cert, rank_details(A, S, tol),
                    augmented_rank_details(A, S, tol), len(S))


def _solution_support(A: np.ndarray, b: np.ndarray, x: np.ndarray,
                      tol: ToleranceConfig) -> IndexSet:
    # The support of a candidate x, or a raise unless it solves A x = b, x >= 0.
    S = support_of(x, tol)
    residual = np.abs(A @ x - b).max(initial=0.0)
    if residual > tol.feas_tol * max(1.0, float(np.abs(b).max(initial=0.0))):
        raise NotASolution(f"candidate violates the system by {residual:.3g}")
    return S


def solve_l1(A, b, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """An optimal point of min sum(x) s.t. A x = b, x >= 0.

    For nonnegative x the l1 norm is the plain coordinate sum, so this is one
    standard-form LP.  Raises ``Infeasible`` when no nonnegative solution
    exists.  When the optimum is not unique any optimal vertex may be
    returned.
    """
    A = as_matrix(A)
    b = as_vector(b, A.shape[0])
    return _l1_point(solve(StandardLp(np.ones(A.shape[1]), A, b), tol))


def _l1_point(sol: LpSolution) -> np.ndarray:
    if sol.status == INFEASIBLE:
        raise Infeasible("no nonnegative solution to the system")
    if sol.status != OPTIMAL:
        # The coordinate sum is bounded below by zero on the feasible set.
        raise CertificateUnavailable(f"l1 LP returned {sol.status}")
    return sol.x


def solve_and_certify_batch(A, rhs, tol: ToleranceConfig = DEFAULT_TOLERANCES
                            ) -> Iterator[tuple[np.ndarray, UniquenessVerdict]]:
    """``solve_and_certify`` for several right-hand sides of one matrix, as stacked LPs.

    Yields one ``(x, verdict)`` per right-hand side, in order, each what
    ``solve_and_certify`` gives for it, bit for bit.  The l1 LPs are solved
    as one stack, the margin LPs at the supports they reach as one stack per
    support size (each distinct support once: the LP depends only on A and
    the support), and the two rank tests as stacked probes; every optimal
    solve is re-checked.  The checks run in the order ``certify_uniqueness``
    runs them.  Where ``solve_and_certify`` would raise for a right-hand
    side, the generator raises that exception on reaching it, and not
    before: a consumer that stops at an earlier one never sees it.
    """
    A = as_matrix(A)
    m, n = A.shape
    rhs = np.array([as_vector(b, m) for b in rhs]).reshape(-1, m)
    lps = LpStack(np.ones(n), np.broadcast_to(A, (len(rhs), m, n)), rhs)
    points: list[tuple[np.ndarray, IndexSet] | RspcertError] = []
    for b, sol in zip(rhs, solve_batch(lps, tol)):
        try:
            x = _l1_point(_raised(sol))
            points.append((x, _solution_support(A, b, x, tol)))
        except RspcertError as error:
            points.append(error)
    by_size: dict[int, list[IndexSet]] = {}
    for S in dict.fromkeys(p[1] for p in points if not isinstance(p, Exception)):
        by_size.setdefault(len(S), []).append(S)
    with_ones = np.vstack([A, np.ones(n)])
    margin, ranks, augmented = {}, {}, {}
    for group in by_size.values():
        margin |= zip(group, _margin_solves(A, group, tol))
        ranks |= zip(group, _block_ranks(A, group, tol.rank_tol))
        augmented |= zip(group, _block_ranks(with_ones, group, tol.rank_tol))
    for point in points:
        x, S = _raised(point)
        cert = _margin_certificate(A, S, _raised(margin[S]), tol)
        yield x, _combine(cert, ranks[S], augmented[S], len(S))


def solve_and_certify(A, b, tol: ToleranceConfig = DEFAULT_TOLERANCES):
    """Minimize the l1 norm, then certify uniqueness at the returned point."""
    return next(solve_and_certify_batch(A, [b], tol))


def lp_sparsest_pipeline(A, b, c, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> LpSparsestResult:
    """Certify the sparsest optimal solution of min c.x s.t. A x = b, x >= 0.

    First solves the LP for its optimal value d*, then pins the objective by
    appending the row c^T x = d* and runs the l1 solve-and-certify on the
    augmented system.  The augmented range-space check asks for eta in the
    range of [A^T, c].
    """
    A = as_matrix(A)
    b = as_vector(b, A.shape[0])
    c = as_vector(c, A.shape[1])
    sol = solve(StandardLp(c, A, b), tol)
    if sol.status == INFEASIBLE:
        raise Infeasible("the LP has no nonnegative feasible point")
    if sol.status == UNBOUNDED:
        raise Unbounded("the LP objective is unbounded below")
    d_star = float(sol.objective_value)
    A_aug = np.vstack([A, c[None, :]])
    b_aug = np.append(b, d_star)
    x, verdict = solve_and_certify(A_aug, b_aug, tol)
    return LpSparsestResult(d_star=d_star, augmented_matrix=A_aug,
                            augmented_rhs=b_aug, x=x, verdict=verdict)
