"""Dense matrix utilities: validated ingestion, toleranced rank, spark, coherence.

All routines are pure functions of immutable inputs and may run concurrently
on shared read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, ZeroColumn

# Enumeration cap for rank-based subset searches (spark).
DEFAULT_SUBSET_BUDGET = 10_000_000

IndexSet = tuple[int, ...]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by every certification routine.

    ``rsp_margin`` must exceed ``feas_tol``: margins in the half-open band
    between the two are reported as marginal instead of being forced to a
    yes/no verdict.
    """

    feas_tol: float = 1e-8    # LP feasibility residual
    rank_tol: float = 1e-8    # relative pivot threshold for numerical rank
    rsp_margin: float = 1e-7  # strictness gap required below 1 for a firm yes
    gap_tol: float = 1e-7     # duality gap and complementary slackness
    zero_tol: float = 1e-9    # support detection threshold

    def __post_init__(self):
        for name in ("feas_tol", "rank_tol", "rsp_margin", "gap_tol", "zero_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.rsp_margin > self.feas_tol:
            raise ValueError("rsp_margin must exceed feas_tol")


DEFAULT_TOLERANCES = ToleranceConfig()


def as_matrix(data) -> np.ndarray:
    """Coerce to a validated dense float64 matrix (finite, at least 1x1)."""
    A = np.array(data, dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError("matrix must have at least one row and one column")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def as_vector(data, length: int | None = None) -> np.ndarray:
    """Coerce to a validated dense float64 vector."""
    v = np.array(data, dtype=float).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if length is not None and v.size != length:
        raise ValueError(f"vector has length {v.size}, expected {length}")
    return v


def normalize_support(indices: Iterable[int], n: int) -> IndexSet:
    """Sorted tuple of distinct 0-based column indices, all below ``n``."""
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate indices in support")
    for i in idx:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for {n} columns")
    return tuple(sorted(idx))


def complement(support: Sequence[int], n: int) -> IndexSet:
    """Indices of ``range(n)`` not in ``support``, ascending."""
    inside = set(support)
    return tuple(i for i in range(n) if i not in inside)


def submatrix(A: np.ndarray, support: Iterable[int]) -> np.ndarray:
    """Columns of ``A`` selected by ``support``, in ascending index order."""
    A = as_matrix(A)
    S = normalize_support(support, A.shape[1])
    return A[:, list(S)]


@dataclass(frozen=True)
class RankResult:
    rank: int
    marginal: bool          # some pivot fell within 10x of the accept threshold
    pivots: tuple[float, ...]


def _pivoted_rank(M: np.ndarray, rank_tol: float) -> RankResult:
    # Householder QR with greedy column pivoting.  The pivot magnitude at step
    # k is the residual norm of the selected column; a pivot counts toward the
    # rank iff it exceeds rank_tol * max(1, largest absolute entry).
    m, n = M.shape
    if m == 0 or n == 0:
        return RankResult(0, False, ())
    R = M.astype(float).copy()
    threshold = rank_tol * max(1.0, float(np.abs(M).max()))
    pivots: list[float] = []
    rank = 0
    for k in range(min(m, n)):
        norms = np.linalg.norm(R[k:, k:], axis=0)
        j = int(np.argmax(norms))  # first maximum: deterministic
        piv = float(norms[j])
        pivots.append(piv)
        if piv <= threshold:
            break  # column pivoting: the remaining pivots are no larger
        rank += 1
        jj = k + j
        if jj != k:
            R[:, [k, jj]] = R[:, [jj, k]]
        x = R[k:, k].copy()
        alpha = -math.copysign(np.linalg.norm(x), x[0] if x[0] != 0.0 else 1.0)
        x[0] -= alpha
        vn = np.linalg.norm(x)
        if vn > 0.0:
            x /= vn
            R[k:, k:] -= 2.0 * np.outer(x, x @ R[k:, k:])
        R[k, k] = alpha
    marginal = any(0.1 * threshold <= p <= 10.0 * threshold for p in pivots)
    return RankResult(rank, marginal, tuple(pivots))


def rank_details(A: np.ndarray, support: Iterable[int] | None = None,
                 tol: ToleranceConfig = DEFAULT_TOLERANCES) -> RankResult:
    """Numerical rank of the column submatrix, with a marginal-pivot flag."""
    A = as_matrix(A)
    if support is None:
        return _pivoted_rank(A, tol.rank_tol)
    S = normalize_support(support, A.shape[1])
    if not S:
        return RankResult(0, False, ())
    return _pivoted_rank(A[:, list(S)], tol.rank_tol)


def rank(A: np.ndarray, support: Iterable[int] | None = None,
         tol: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Numerical rank of ``A`` restricted to ``support`` (all columns if None)."""
    return rank_details(A, support, tol).rank


def augmented_rank_details(A: np.ndarray, support: Iterable[int],
                           tol: ToleranceConfig = DEFAULT_TOLERANCES) -> RankResult:
    """Rank details of the selected columns with an all-ones row appended."""
    A = as_matrix(A)
    S = normalize_support(support, A.shape[1])
    if not S:
        return RankResult(0, False, ())
    stacked = np.vstack([A[:, list(S)], np.ones((1, len(S)))])
    return _pivoted_rank(stacked, tol.rank_tol)


def augmented_rank(A: np.ndarray, support: Iterable[int],
                   tol: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Rank of the selected columns stacked over an all-ones row."""
    return augmented_rank_details(A, support, tol).rank


def mutual_coherence(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Peak pairwise column correlation, floored at zero.

    Maximum over distinct columns i != j of a_i . a_j / (|a_i| |a_j|).  The
    correlation is signed, not absolute: under nonnegativity only positively
    aligned column pairs weaken recovery, so antiparallel pairs do not count.
    """
    A = as_matrix(A)
    if A.shape[1] < 2:
        raise ValueError("mutual coherence needs at least two columns")
    norms = np.linalg.norm(A, axis=0)
    small = np.flatnonzero(norms <= tol.rank_tol)
    if small.size:
        raise ZeroColumn(f"column {int(small[0])} has numerically zero norm")
    G = (A / norms).T @ (A / norms)
    np.fill_diagonal(G, -np.inf)
    return max(float(G.max()), 0.0)


def sparsity_bound(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """The coherence sparsity bound (1 + 1/mu)/2; +inf when mu is zero."""
    mu = mutual_coherence(A, tol)
    if mu <= 0.0:
        return math.inf
    return 0.5 * (1.0 + 1.0 / mu)


def coherence_bound_holds(A: np.ndarray, x, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True iff the support size of ``x`` is below the coherence bound."""
    x = as_vector(x)
    k = int(np.count_nonzero(x > tol.zero_tol))
    return k < sparsity_bound(A, tol)


@dataclass
class SupportEnumeration:
    """The one support loop of every exhaustive search.

    Iterating yields ``(k, S)`` for each size in ``sizes``, ``S`` in
    lexicographic order within a size; ``count`` is the number yielded.
    ``full_rank_only`` skips, uncounted, supports with rank-deficient columns.
    The budget caps the supports visited.  It is checked over all sizes here,
    before the caller does any work, or with ``lazy`` (for searches that
    usually stop early) only on reaching a size whose running total exceeds it.
    """

    A: np.ndarray
    sizes: Sequence[int]
    budget: int
    tol: ToleranceConfig = DEFAULT_TOLERANCES
    full_rank_only: bool = False
    lazy: bool = False
    count: int = field(default=0, init=False)

    def __post_init__(self):
        if not self.lazy:
            self._check(sum(math.comb(self.A.shape[1], k) for k in self.sizes))

    def _check(self, planned: int) -> None:
        if planned > self.budget:
            raise BudgetExceeded(
                f"support enumeration needs {planned} subsets, budget is {self.budget}")

    def __iter__(self) -> Iterator[tuple[int, IndexSet]]:
        n = self.A.shape[1]
        planned = 0
        for k in self.sizes:
            planned += math.comb(n, k)
            self._check(planned)
            for S in combinations(range(n), k):
                if self.full_rank_only and rank(self.A, S, self.tol) < k:
                    continue
                self.count += 1
                yield k, S


def spark(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES,
          budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Smallest number of linearly dependent columns; ``n + 1`` if none.

    Exhaustive search over subsets of increasing size.  Raises
    ``BudgetExceeded`` before enumerating more than ``budget`` subsets.
    """
    A = as_matrix(A)
    n = A.shape[1]
    for k, S in SupportEnumeration(A, range(1, n + 1), budget, lazy=True):
        if rank(A, S, tol) < k:
            return k
    return n + 1
