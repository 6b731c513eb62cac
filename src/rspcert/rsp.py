"""Range space property certificates and uniqueness verdicts.

A nonnegative solution x of A x = b is the unique least-l1-norm nonnegative
solution iff (a) some eta in the range of A^T equals 1 on the support of x and
stays strictly below 1 elsewhere, and (b) the support columns of A are
linearly independent.  Condition (a) reduces to one small LP per support; this
module certifies both conditions with re-checkable witnesses.

``check_rsp_at`` and ``check_rsp_batch`` solve every margin LP and report
its exact t*; ``certify_uniqueness`` and ``solve_and_certify`` reach their
verdict through ``check_rsp_at``.  A margin LP or an l1 LP whose start
fails is solved two-phase by the LP core, not here.  The order-K
certifier, which needs only the verdict, first tries a least-squares
witness at each support with full column rank (``_settled``).  The witness
is eta = V c, V an orthonormal basis of the range of A^T from the one thin
SVD of A per call, and y = U Sigma^-1 c; the eta that is 1 on S and
nearest the target off S is one k x k solve.  Where eta = A^T y passes
``verify_rsp_witness``'s conditions on the raw A, the support is a yes with
no LP, no t* and no certificate object, and that yes is the LP's too, since
the witness is a feasible point of the margin LP with
max eta_off <= 1 - rsp_margin.  The first witness has all weights 1; where
it fails its re-check, a few reweighted least-squares solves follow,
one-sided in the manner of Lawson's minimax iteration: an off-support
column whose eta is already below the target gets a small weight, and one
above it a weight that grows with its excess, so that the next witness
pushes down the largest eta_off.  Each is one stacked solve in the smaller
of two bases: one of null(A) that completes V where n - r <= r, and V
itself on a wider A.  Every iterate passes the same re-check on the raw A.
Only the supports that no witness settles get null-space coordinates and a
margin LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import stats
from .errors import (CertificateUnavailable, Infeasible, NonpositiveWeight,
                     NotASolution, NotNonnegative, RspcertError, Unbounded)
from .linalg import (DEFAULT_TOLERANCES, IndexSet, ToleranceConfig, _full_column_rank,
                     _row_reduction, _Rows, as_matrix, as_vector, augmented_rank_details,
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
    """Outcome of the range space check at one support.

    t_star is the optimal margin of the margin LP: the smallest ceiling t
    such that some eta = A^T y equals 1 on the support and stays at or below
    t off it (t clamped below at -1 to keep the LP bounded).  The property
    holds strictly iff t_star < 1; verdicts leave a tolerance band around 1.
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


def _off_support(block: np.ndarray, n: int) -> np.ndarray:
    # The columns off each support of ``block``, ascending.
    count, k = block.shape
    outside = np.ones((count, n), dtype=bool)
    outside[np.arange(count)[:, None], block] = False
    return np.nonzero(outside)[1].reshape(count, n - k)


class _NullSpace(NamedTuple):
    """The null-space coordinates of the supports of a block that share k'.

    k' is the number of singular values of A_S that count (k' = k where A_S
    has full column rank).  With y0 the least-norm solution of A_S^T y = 1 in
    the k' directions they span and the columns of N a basis of the rest of
    the range of A, every y with A_S^T y = 1 is y0 + N w up to a part outside
    that range, which moves no eta.  Off S, eta is eta0 + G^T w, with
    eta0 = A_off^T y0 and G = N^T A_off.  Where k' < k, y0 meets the
    equalities only if they are consistent; the raw re-check of each
    optimum shows when not.  The order-K certifier builds these coordinates
    only for the supports that no least-squares witness settles
    (``_settled``, which needs none of them).
    """

    rank: int            # k'
    at: np.ndarray       # positions in the block
    off: np.ndarray      # the columns off each support, ascending
    G: np.ndarray        # (count, r - k', n - k)
    eta0: np.ndarray     # (count, n - k)
    y0: np.ndarray       # (count, m)
    N: np.ndarray        # (count, m, r - k')


# Where ``_least_squares_witness`` aims eta off the support.  The re-check
# of ``_settled`` makes any target sound; of the targets from 0 to -2 that
# were tried, -1/2 settled the most supports of Gaussian 6x12 and 8x16
# matrices at K = 3 (BENCH_20.json, ``ls_target_sweep``).
_LS_TARGET = -0.5

# Reweighted solves that ``_settled`` tries after the first witness fails
# its re-check, and the weight it gives an off-support column whose eta is
# already below _LS_TARGET.  Six solves settled 2,680 of the 3,601
# orderk_enum seed-1 supports that the first witness leaves to an LP
# (BENCH_21.json).
_REWEIGHTS = 6
_WEIGHT_FLOOR = 1e-3


def _margin_stacks(A: np.ndarray, block: np.ndarray, tol: ToleranceConfig,
                   rows: _Rows | None = None) -> tuple[list[_NullSpace], np.ndarray]:
    # The null-space coordinates of the sorted supports of one size in
    # ``block``, one stack per k', and the positions of the supports whose
    # equalities a checked witness shows to be inconsistent.  A is first
    # reduced to r independent rows (``_row_reduction``, or ``rows`` where
    # the caller has it already), so that no row of G is zero up to
    # rounding.  Where a support has full column rank
    # (``_full_column_rank``, from the QR A~_S = Q R), k' = k and
    # u = R^-T 1.  Every other support takes an SVD A~_S = W Sigma V^T,
    # whose k' singular values above the row reduction's threshold give
    # Q = W and u = Sigma_1^-1 V_1^T 1, and the witness
    # d = V_2 V_2^T 1 = 1 - A~_S^T W_1 u of ``_inconsistent``.  Either way
    # y0 = Q_1 u and N = Q_2, both mapped back by U.
    count, k = block.shape
    U, At, floor = (_row_reduction(A, tol) if rows is None else rows)[:3]
    full, factors = _full_column_rank(At, block, floor, "complete")

    stacks = []
    at, rest = np.flatnonzero(full), np.flatnonzero(~full)
    if at.size:
        Q, R = factors
        if rest.size:
            Q, R = Q[at], R[at]
        u = np.linalg.solve(R[:, :k].transpose(0, 2, 1), np.ones((at.size, k, 1)))
        stacks.append(_null_space(At, U, block, at, Q, u))
    if not rest.size:
        return stacks, rest
    W, s, Vt = np.linalg.svd(At.T[block[rest]].transpose(0, 2, 1))
    kept = (s > floor).sum(axis=1)
    vt1 = Vt.sum(axis=2)                              # V^T 1
    d = np.matmul((vt1 * (np.arange(k) >= kept[:, None]))[:, None], Vt)[:, 0]
    refuted = _inconsistent(A.T[block[rest]], d, tol)
    for size in np.unique(kept[~refuted]):
        pick = ~refuted & (kept == size)
        stacks.append(_null_space(At, U, block, rest[pick], W[pick],
                                  (vt1[pick, :size] / s[pick, :size])[:, :, None]))
    return stacks, rest[refuted]


def _inconsistent(columns: np.ndarray, d: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Which supports have a checked witness that no y solves A_S^T y = 1.

    ``columns`` stacks each A_S^T, (count, k, m), and ``d`` each witness,
    (count, k), with A_S d ~ 0 and 1.d > 0.  A support counts only when
    d^ = d / |d|_1 passes a re-check on the raw A_S:
    |A_S d^|_inf <= feas_tol * max|A_S| and 1.d^ > feas_tol.
    Both bounds are relative to A_S, so the test does not see the scale of A.

    Why a support so refuted has no margin optimum that the certifier would
    accept: the raw re-check of an optimum (``_null_space_margins``) accepts
    a y only with |A_S^T y - 1|_inf <= feas_tol.  For such a y,
    1.d^ - feas_tol <= (A_S^T y).d^ = y.(A_S d^) <= |y|_1 feas_tol max|A_S|,
    so |y|_1 max|A_S| >= 1.d^ / feas_tol - 1, where a y that solves the
    equalities needs only |y|_1 max|A_S| >= 1.  Over the inconsistent
    supports of the differential test in tests/test_golden_lp.py, 1.d^ is at
    least 0.016 and |A_S d^|_inf at most 2e-8 of its bound, so only a y over
    a million times larger than a solution needs could escape.  Such a y
    exists only because the k - k' singular values of A_S that the
    threshold drops are not exactly zero.  The support's own y0 could not
    pass either: A_S^T y0 = 1 - d and 1.d^ = |d|_2^2 / |d|_1 <= |d|_inf, so
    its LP would only have been refused.  Where k' = k, d is zero and
    refutes nothing.
    """
    norm = np.abs(d).sum(axis=1)
    d = d / np.where(norm > 0.0, norm, 1.0)[:, None]
    residual = np.abs(np.matmul(d[:, None, :], columns)[:, 0]).max(axis=1)
    scale = np.abs(columns).max(axis=(1, 2))
    return (residual <= tol.feas_tol * scale) & (d.sum(axis=1) > tol.feas_tol)


def _null_space(At: np.ndarray, U: np.ndarray, block: np.ndarray, at: np.ndarray,
                Q: np.ndarray, u: np.ndarray) -> _NullSpace:
    # The null-space coordinates of the supports at positions ``at`` of
    # ``block``, with k' = len(u) equalities that count, from an orthogonal
    # Q whose first k' columns span A~_S and u with y0 = U Q_1 u.
    k = u.shape[1]
    off = _off_support(block[at], At.shape[1])
    P = np.matmul(Q.transpose(0, 2, 1), At[:, off].transpose(1, 0, 2))   # Q^T A~_off
    UQ = np.matmul(U, Q)
    # Each row of G is scaled to unit norm, and its column of N with it:
    # G z = 0 does not see the scale of a row, and so the LP does not see
    # the scale of A (eta0 does not either).  No row is zero: A~ has full
    # row rank, its singular values are above the row reduction's
    # threshold, and those of N^T A~_S are zero, or below it where k' < k.
    norms = np.sqrt((P[:, k:] * P[:, k:]).sum(axis=2))
    G = P[:, k:] / norms[:, :, None]
    eta0 = np.matmul(u.transpose(0, 2, 1), P[:, :k])[:, 0]
    return _NullSpace(k, at, off, G, eta0, np.matmul(UQ[:, :, :k], u)[:, :, 0],
                      UQ[:, :, k:] / norms[:, None, :])


def _null_space_lps(G: np.ndarray, eta0: np.ndarray, rank_tol: float) -> tuple[LpStack, np.ndarray]:
    # The margin LPs of ``_null_space``'s G and eta0, and the start of each.
    # The margin LP is the dual of max eta0.z - mu s.t. G z = 0,
    # 1.z + mu = 1, z, mu >= 0; each LP states that over [z, mu, v+, v-],
    # with the objective in the last row, eta0.z - mu - (v+ - v-) = 0, and
    # cost v- - v+.  So t* = -objective, and w is the dual of the G rows.
    # The start is z_J for r - k' columns J with G_J nonsingular, picked by
    # a partial-pivot elimination on G (pivots above rank_tol), then mu and
    # v-.  Its z_J = 0, mu = 1 and v- = 1 are feasible; an LP whose
    # elimination falls to the threshold or below gets a row of -1, no start.
    count, rows, kc = G.shape
    B = np.zeros((count, rows + 2, kc + 3))
    B[:, :rows, :kc] = G
    B[:, rows, :kc + 1] = 1.0
    B[:, rows + 1, :kc] = eta0
    B[:, rows + 1, kc:] = (-1.0, -1.0, 1.0)
    rhs = np.zeros(rows + 2)
    rhs[rows] = 1.0
    cost = np.zeros(kc + 3)
    cost[kc + 1:] = (-1.0, 1.0)
    lps = LpStack(cost, B, np.broadcast_to(rhs, (count, rows + 2)))

    basis = np.empty((count, rows + 2), dtype=np.intp)
    basis[:, :rows] = _pivot_columns(G, rank_tol)
    basis[:, rows:] = (kc, kc + 2)
    return lps, basis


def _pivot_columns(E: np.ndarray, rank_tol: float) -> np.ndarray:
    # One column per row of each matrix of the stack E (count, rows, cols),
    # such that those columns of E are nonsingular, or a row of -1.  Row c
    # picks its column of largest |entry| once the rows above are
    # eliminated; the pivot stays in row c.  A picked column is left at
    # rounding level in the rows below, so a pick repeats only at a pivot
    # below the threshold.  A matrix with a pivot at rank_tol or below gets
    # the row of -1.
    count, rows, _ = E.shape
    E = E.copy()
    every = np.arange(count)
    picks = np.empty((count, rows), dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        # A zero pivot fills the rest of its matrix with inf and nan, and
        # the matrix gets no columns.
        for c in range(rows - 1):
            picks[:, c] = j = np.abs(E[:, c]).argmax(axis=1)
            factor = E[every, c + 1:, j] / E[every, c, j][:, None]
            E[:, c + 1:] -= factor[:, :, None] * E[:, c, None, :]
    if rows:
        picks[:, rows - 1] = np.abs(E[:, rows - 1]).argmax(axis=1)
    pivots = E[every[:, None], np.arange(rows), picks]
    picks[~(np.abs(pivots) > rank_tol).all(axis=1)] = -1
    return picks


def _reweighting_basis(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The basis that ``_least_squares_witness`` solves the reweighted
    # witnesses in, and the outer products of its rows, (n, q^2): where
    # n - r <= r, Z, an orthonormal basis of null(A) that completes V (its
    # columns are orthogonal to the range of A^T), so that each solve is
    # (n - r) x (n - r); on a wider A, V itself, so that it is r x r.
    n, r = V.shape
    basis = np.linalg.qr(V, mode="complete")[0][:, r:] if n - r <= r else V
    return basis, (basis[:, :, None] * basis[:, None, :]).reshape(n, -1)


def _least_squares_witness(rows: _Rows, block: np.ndarray, off: np.ndarray,
                           weights: np.ndarray | None = None,
                           basis: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    # The y of each support whose eta = A^T y is 1 on S and nearest
    # _LS_TARGET off S in the 2-norm, weighted per off-support column by
    # ``weights`` (count, n - k), all 1 where None.  Such an eta is V c,
    # and y = Y c (``_Rows``).  Let Omega be the weights off S and 1 on S,
    # whose term on S is 0 at every c with V_S c = 1, and t the target off
    # S and 1 on S.  Then c = M^-1 (b - V_S^T u) with M = V^T Omega V,
    # b = V^T Omega t and (V_S M^-1 V_S^T) u = V_S M^-1 b - 1.  With every
    # weight 1, M = I, and that is one k x k solve.  A reweighted witness
    # takes ``basis`` (``_reweighting_basis``).  With V it is the r x r
    # solve, with k + 1 right-hand sides, and the k x k one.  With Z, eta
    # is in the range of A^T iff Z^T eta = 0, so
    # eta_off = _LS_TARGET - D Z_off l, D = weights^-1, where
    # (Z_off^T D Z_off) l = Z^T t: one (n - r) x (n - r) solve, and
    # c = V^T eta.  Either way the square matrices are one product of the
    # weights with the basis's outer products.  They are nonsingular where
    # A_S has full column rank; should a stack still be singular to the
    # solver, its witnesses are NaN and settle nothing.
    V = rows.V
    count, k = block.shape
    n, r = V.shape
    every = np.arange(count)[:, None]
    VS = V[block]
    try:
        if weights is None:
            b = _LS_TARGET * V.sum(axis=0) + (1.0 - _LS_TARGET) * VS.sum(axis=1)
            X = np.concatenate([b[:, :, None], VS.transpose(0, 2, 1)], axis=2)
        elif basis[0] is V:
            omega = np.ones((count, n))
            omega[every, off] = weights
            M = np.matmul(omega, basis[1]).reshape(count, r, r)
            omega[every, off] *= _LS_TARGET
            X = np.linalg.solve(M, np.concatenate(
                [np.matmul(omega, V)[:, :, None], VS.transpose(0, 2, 1)], axis=2))
        else:
            Z = basis[0]
            p = Z.shape[1]
            h = _LS_TARGET * Z.sum(axis=0) + (1.0 - _LS_TARGET) * Z[block].sum(axis=1)
            D = np.zeros((count, n))
            D[every, off] = 1.0 / weights
            l = np.linalg.solve(np.matmul(D, basis[1]).reshape(count, p, p), h[:, :, None])
            eta = _LS_TARGET - D * np.matmul(l[:, :, 0], Z.T)
            eta[every, block] = 1.0
            return np.matmul(np.matmul(eta, V), rows.Y.T)
        E = np.matmul(VS, X)
        E[:, :, 0] -= 1.0
        u = np.linalg.solve(E[:, :, 1:], E[:, :, :1])
    except np.linalg.LinAlgError:
        return np.full((count, len(rows.Y)), np.nan)
    return np.matmul(X[:, :, 0] - np.matmul(X[:, :, 1:], u)[:, :, 0], rows.Y.T)


def _settled(A: np.ndarray, block: np.ndarray, rows: _Rows, tol: ToleranceConfig,
             full: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which supports a least-squares witness settles as yes, with each witness y and eta.

    Only the supports marked in ``full``, the caller's ``_full_column_rank``
    mask of ``block``, are tried.  A witness y of
    ``_least_squares_witness`` settles S once eta = A^T y passes
    ``verify_rsp_witness``'s conditions on the raw A:
    |eta_S - 1|_inf <= feas_tol and max eta_off <= 1 - rsp_margin.  That is
    a complete yes certificate of the range space property by itself, and
    tighter than the margin LP's own yes, whose witness needs only
    eta_off <= t* + feas_tol.  Its verdict is the LP's too: y solves
    A_S^T y = 1 to feas_tol, so it is a feasible point of the margin LP and
    t* <= max eta_off <= 1 - rsp_margin.

    The first witness has every weight 1.  A support whose witness misses
    either bound gets up to _REWEIGHTS more, each from the eta_off of the
    last: a column with eta_j below _LS_TARGET gets weight _WEIGHT_FLOOR,
    every other column's weight is multiplied by (1 + eta_j - _LS_TARGET)^2,
    and the weights are divided by their largest.  Each iterate passes the
    same re-check; a support none settles runs its LP.  The y and eta of a
    support that no witness was tried at are NaN.  The supports settled by
    the first witness and by a reweighted one are counted into ``stats``.
    """
    count, k = block.shape
    m, n = A.shape
    y, eta = np.full((count, m), np.nan), np.full((count, n), np.nan)
    passed = np.zeros(count, dtype=bool)
    first = passed
    todo = np.flatnonzero(full)
    off = _off_support(block, n)
    weights = np.ones(off.shape)
    basis = None
    for step in range(_REWEIGHTS + 1):
        if not todo.size:
            break
        if step:
            over = eta[todo[:, None], off[todo]] - _LS_TARGET
            grown = np.where(over < 0.0, _WEIGHT_FLOOR, weights[todo] * (1.0 + over) ** 2)
            weights[todo] = grown / grown.max(axis=1, keepdims=True)
            if basis is None:
                basis = _reweighting_basis(rows.V)
        y[todo] = _least_squares_witness(rows, block[todo], off[todo],
                                         weights[todo] if step else None, basis)
        eta[todo], on, worst = _raw_eta(A, block[todo], off[todo], y[todo])
        ok = (on <= tol.feas_tol) & (worst <= 1.0 - tol.rsp_margin)
        passed[todo] = ok
        if not step:
            first = passed.copy()
        # A witness of a singular stack is NaN, and one with no column off S
        # has max eta_off = -inf; weights change neither.
        todo = todo[~ok & np.isfinite(worst)]
    counts = stats.current()
    if counts is not None:
        counts[f"margin.settled_first.{k}"] += int(np.count_nonzero(first))
        counts[f"margin.settled_reweighted.{k}"] += int(np.count_nonzero(passed & ~first))
    return passed, y, eta


def _raw_eta(A: np.ndarray, block: np.ndarray, off: np.ndarray, y: np.ndarray):
    # eta = A^T y of each support's witness y on the raw A, with
    # |eta_S - 1|_inf and max eta_off.
    eta = np.matmul(y[:, None, :], A)[:, 0]
    every = np.arange(len(y))[:, None]
    return (eta, np.abs(eta[every, block] - 1.0).max(axis=1, initial=0.0),
            eta[every, off].max(axis=1, initial=-np.inf))


def _margin_certificate(S: IndexSet, t_star: float, y: np.ndarray, eta: np.ndarray,
                        tol: ToleranceConfig) -> RspCertificate:
    # The certificate of a margin LP's checked optimum t* with witness y, eta.
    if t_star <= 1.0 - tol.rsp_margin:
        return RspCertificate(Verdict.YES, S, eta, y, t_star, OPTIMAL)
    if t_star >= 1.0 - tol.feas_tol:
        return RspCertificate(Verdict.NO, S, None, None, t_star, OPTIMAL)
    return RspCertificate(Verdict.MARGINAL, S, eta, y, t_star, OPTIMAL)


def _null_space_margins(A: np.ndarray, supports: list[IndexSet], block: np.ndarray,
                        space: _NullSpace, solved: list,
                        tol: ToleranceConfig) -> list[RspCertificate | CertificateUnavailable]:
    # The certificates of the null-space LPs ``solved`` at the supports of
    # ``space``.  Each optimum is re-checked on the raw A as well, not only
    # on the reduced LP: eta = A^T y must be 1 on S and at most t* off S,
    # each to feas_tol, so that an error in U, Q or R shows.  The LP is
    # feasible and bounded, so any other status is a breakdown.
    rows = space.N.shape[2]
    optimal = np.array([isinstance(sol, LpSolution) and sol.status == OPTIMAL for sol in solved])
    w = np.zeros((len(solved), rows))
    t_star = np.zeros(len(solved))
    for i in np.flatnonzero(optimal):
        w[i] = solved[i].y[:rows]
        t_star[i] = 0.0 - solved[i].objective_value
    y = space.y0 + np.matmul(space.N, w[:, :, None])[:, :, 0]
    eta, on, off = _raw_eta(A, block[space.at], space.off, y)
    passed = (on <= tol.feas_tol) & (off <= t_star + tol.feas_tol)
    margins: list = []
    for i, (at, sol) in enumerate(zip(space.at.tolist(), solved)):
        if isinstance(sol, CertificateUnavailable):
            margins.append(sol)
        elif not optimal[i]:
            margins.append(CertificateUnavailable(f"margin LP returned {sol.status}"))
        elif not passed[i]:
            margins.append(CertificateUnavailable("optimal solve failed its certificate re-check"))
        else:
            margins.append(_margin_certificate(supports[at], float(t_star[i]), y[i], eta[i], tol))
    return margins


def _margin_solves(A: np.ndarray, supports: list[IndexSet], tol: ToleranceConfig,
                   rows: _Rows | None = None, settled: np.ndarray | None = None
                   ) -> list[RspCertificate | CertificateUnavailable]:
    # The certificate of each sorted support of one size, in order, or the
    # CertificateUnavailable of its solve: a no with lp_status INFEASIBLE
    # where a checked witness refutes the equalities, and otherwise its
    # null-space LP's, solved in lockstep with the others of its k' and
    # started where it has a start.  The supports marked in ``settled``
    # (``_settled``'s mask) count with the block but get no LP and no
    # entry.  ``rows`` is A's ``_row_reduction`` where the caller shares one
    # over several calls.
    if not supports:
        return []
    block = np.array(supports, dtype=np.intp)
    counts = stats.current()
    if counts is not None:
        counts["margin.blocks"] += 1
        counts[f"margin.supports.{block.shape[1]}"] += len(supports)
    if settled is not None:
        supports, block = list(compress(supports, ~settled)), block[~settled]
        if not supports:
            return []
    stacks, refuted = _margin_stacks(A, block, tol, rows)
    results: list = [None] * len(supports)
    for i in refuted.tolist():
        results[i] = RspCertificate(Verdict.NO, supports[i], None, None, None, INFEASIBLE)
    for space in stacks:
        lps, basis = _null_space_lps(space.G, space.eta0, tol.rank_tol)
        solved = solve_batch(lps, tol, basis=basis)
        stats.add("margin.lps", len(solved))
        for i, cert in zip(space.at.tolist(),
                           _null_space_margins(A, supports, block, space, solved, tol)):
            results[i] = cert
    return results


def check_rsp_batch(A, supports: Sequence[Iterable[int]],
                    tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Iterator[RspCertificate]:
    """``check_rsp_at`` for several supports of one size, as stacked margin LPs.

    Yields one certificate per support, in order; each equals the one
    ``check_rsp_at`` gives for its support.  The null-space margin LPs are
    built as one stack per number of independent equalities, each solved in
    lockstep; ``solve_batch`` bounds the tableau memory, and the caller
    bounds the stack (the enumerations pass blocks of at most 1,024 supports).
    A solve that breaks down or fails its re-check raises its
    ``CertificateUnavailable`` at the first such support in the given order.
    """
    A = as_matrix(A)
    supports = [normalize_support(S, A.shape[1]) for S in supports]
    if len({len(S) for S in supports}) > 1:
        raise ValueError("a margin LP batch takes supports of one size")
    yield from map(_raised, _margin_solves(A, supports, tol))


def check_rsp_at(A, support, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                 weights=None) -> RspCertificate:
    """Certify the range space property at a support via the margin LP.

    The margin LP is min t s.t. A_S^T y = 1 on S, A_j^T y <= t off S,
    t >= -1, with y free.  It is solved in null-space coordinates:
    y = y0 + N w with y0 the least-norm solution of the equalities and N a
    basis of null(A_S^T) in the range of A, through the dual LP
    max eta0.z - mu s.t. (N^T A_off) z = 0, 1.z + mu = 1, z, mu >= 0
    (eta0 = A_off^T y0), whose optimum is t*; its optimum is re-checked on
    A itself.  Where A_S lacks full column rank, y0 and N come from an SVD
    of A_S, and the equalities may be inconsistent: the LP is then
    infeasible, and that is reported only on a witness d with A_S d ~ 0 and
    1.d > 0 that passed a re-check on A_S.  Yes iff t* <= 1 - rsp_margin; no
    iff the equalities are inconsistent or t* is within feas_tol of 1 or
    above; marginal in the band between.  The empty support is solved the
    same way: it has no equalities, so t* lies in [-1, 0] (eta = 0 is
    feasible) and it holds.

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


def _uniqueness_at(A: np.ndarray, scaled: np.ndarray, S: IndexSet,
                   tol: ToleranceConfig) -> UniquenessVerdict:
    # The verdict at the support S of a candidate: the margin LP on
    # ``scaled`` (A itself, or A W^-1 under weights) and both rank tests on A.
    rsp_cert = check_rsp_at(scaled, S, tol)
    ranks, augmented = rank_details(A, S, tol), augmented_rank_details(A, S, tol)
    full = ranks.rank == len(S)
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
                             full_column_rank=full, rank_found=ranks.rank,
                             augmented_full_column_rank=augmented.rank == len(S),
                             rank_marginal=ranks.marginal or augmented.marginal,
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
    return _uniqueness_at(A, scaled, _solution_support(A, b, x, tol), tol)


def _solution_support(A: np.ndarray, b: np.ndarray, x: np.ndarray,
                      tol: ToleranceConfig) -> IndexSet:
    # The support of a candidate x, or a raise unless it solves A x = b, x >= 0.
    return _raised(_solution_supports(A, b[None], x[None], tol)[0])


def _solution_supports(A: np.ndarray, rhs: np.ndarray, X: np.ndarray,
                       tol: ToleranceConfig) -> list[IndexSet | RspcertError]:
    # ``support_of`` each row x of X, or the error it raises, and then
    # NotASolution unless x solves A x = b for its row b of ``rhs``, as
    # array operations over the rows.
    low = X.min(axis=1)
    residual = np.abs(np.matmul(X, A.T) - rhs).max(axis=1, initial=0.0)
    bound = tol.feas_tol * np.maximum(1.0, np.abs(rhs).max(axis=1, initial=0.0))
    rows, columns = np.nonzero(X > tol.zero_tol)
    ends = np.cumsum(np.bincount(rows, minlength=len(X))).tolist()
    columns = columns.tolist()
    supports: list = []
    for i, start in enumerate([0] + ends[:-1]):
        if low[i] < -tol.zero_tol:
            j = int(np.argmin(X[i]))
            supports.append(NotNonnegative(f"entry {j} is {X[i, j]:.3g} < -zero_tol"))
        elif residual[i] > bound[i]:
            supports.append(NotASolution(f"candidate violates the system by {residual[i]:.3g}"))
        else:
            supports.append(tuple(columns[start:ends[i]]))
    return supports


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


def _l1_starts(rows: _Rows, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Which sorted supports in ``block`` (count, k) pass ``_full_column_rank``
    # under A's row reduction ``rows``, and, from that same QR A~_S = Q R, a
    # starting basis of the l1 LP of each right-hand side A x with x planted
    # on the support: S and m - k columns J off S with [A_S A_J] nonsingular,
    # so that the basic solution is x itself.  J is picked by
    # ``_pivot_columns`` on Q_2^T A~_off against the row reduction's floor.
    # A support gets a row of -1 where r < m (no m columns make a basis),
    # where it fails the gate, or where a pivot is at the floor.
    count, k = block.shape
    m, (r, n) = len(rows.U), rows.At.shape
    full, factors = _full_column_rank(rows.At, block, rows.floor, "complete")
    basis = np.full((count, m), -1, dtype=np.intp)
    if r < m or factors is None:
        return full, basis
    off = _off_support(block, n)
    picks = _pivot_columns(np.matmul(factors[0][:, :, k:].transpose(0, 2, 1),
                                     rows.At.T[off].transpose(0, 2, 1)), rows.floor)
    ok = full & (picks >= 0).all(axis=1)
    basis[ok, :k] = block[ok]
    basis[ok, k:] = np.take_along_axis(off[ok], picks[ok], axis=1)
    return full, basis


def _l1_points(A: np.ndarray, rhs: np.ndarray, tol: ToleranceConfig,
               basis: np.ndarray | None = None
               ) -> list[tuple[np.ndarray, IndexSet, np.ndarray] | RspcertError]:
    # The l1 step of ``solve_and_certify`` for each right-hand side: the
    # optimal x, its support and the reduced costs s = 1 - A^T y that the
    # LP core's re-check computed on the raw A, or the error raised for it.
    # The LPs are one stack, solved two-phase.  With ``basis`` (one row of
    # ``_l1_starts`` per right-hand side A x, x planted on its support), each
    # LP starts at its planted vertex where that row has one, and phase 2
    # still decides optimality by reduced costs.  The core's re-check accepts
    # entries of x down to -feas_tol; the support test takes them as 0, and
    # x is returned as the LP gave it.
    m, n = A.shape
    lps = LpStack(np.ones(n), np.broadcast_to(A, (len(rhs), m, n)), rhs)
    solved = solve_batch(lps, tol, basis=basis)
    counts = stats.current()
    if counts is not None:
        counts["l1.batches"] += 1
        counts["l1.lps"] += len(solved)
        counts["l1.pivots"] += sum(r.pivots for r in solved if isinstance(r, LpSolution))
    points: list = []
    for sol in solved:
        try:
            points.append(_l1_point(_raised(sol)))
        except RspcertError as error:
            points.append(error)
    at = [i for i, point in enumerate(points) if not isinstance(point, Exception)]
    if at:
        X = np.array([points[i] for i in at])
        X[(X < 0.0) & (X >= -tol.feas_tol)] = 0.0
        for i, S in zip(at, _solution_supports(A, rhs[at], X, tol)):
            points[i] = S if isinstance(S, Exception) else (points[i], S, solved[i].reduced_costs)
    return points


def solve_and_certify(A, b, tol: ToleranceConfig = DEFAULT_TOLERANCES):
    """Minimize the l1 norm, then certify uniqueness at the returned point.

    The check is ``certify_uniqueness``'s, at the support of the optimal x.
    The LP core accepts entries of x down to -feas_tol and the support takes
    them as 0, so x, returned as the LP gave it, may hold an entry that
    ``certify_uniqueness`` refuses as a candidate (below -zero_tol).
    """
    A = as_matrix(A)
    b = as_vector(b, A.shape[0])
    x, S, _ = _raised(_l1_points(A, b[None], tol)[0])
    return x, _uniqueness_at(A, A, S, tol)


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
