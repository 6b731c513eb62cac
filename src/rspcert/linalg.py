"""Dense matrix utilities: validated ingestion, toleranced rank, spark, coherence.

All routines are pure functions of immutable inputs and may run concurrently
on shared read-only arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import stats
from .errors import BudgetExceeded, ZeroColumn

# Enumeration cap for rank-based subset searches (spark).
DEFAULT_SUBSET_BUDGET = 10_000_000

# Size cap of one stacked array of same-shape problems (simplex tableaux, rank
# probes): batches of more problems are split into consecutive chunks.  The
# cap sets how many tableaux pivot in one lockstep step (481 null-space
# margin LPs at 8x16, K=3, started in phase 2, or 341 two-phase); see
# bench/margin_batch.py --sweep.
_STACK_BYTES = 512 * 1024

# Supports per block of an enumeration; bounds the memory a size of many
# supports takes at once.  C(16, 3) = 560 fits, so each size of an order-K
# run at 8x16, K=3 is one block and its remaining margin LPs pivot as one
# lockstep stack.  Raising it from 256 cost 0.9 MB of peak RSS (+2.2%,
# medians of 10 perfbench runs) on the orderk_enum and sparsest_search
# workloads and nothing on oneshot_small (BENCH_21.json).
_BLOCK_LEN = 1024

IndexSet = tuple[int, ...]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by every certification routine.

    ``rsp_margin`` must exceed ``feas_tol``: margins in the half-open band
    between the two are reported as marginal instead of being forced to a
    yes/no verdict.
    """

    feas_tol: float = 1e-8    # LP feasibility residual
    rank_tol: float = 1e-8    # rank threshold, times max(1, max|entry|) for a reported
                              # rank, times sigma_max(A) for the row reduction and gate
    rsp_margin: float = 1e-7  # strictness gap required below 1 for a firm yes
    gap_tol: float = 1e-7     # duality gap and complementary slackness
    zero_tol: float = 1e-9    # support detection threshold

    def __post_init__(self):
        for name in ("feas_tol", "rank_tol", "rsp_margin", "gap_tol", "zero_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
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
    """Sorted tuple of distinct 0-based column indices, all below ``n``.

    Each index must be an integer, Python or NumPy; any other value, such as
    a float, raises ValueError rather than being truncated.
    """
    idx = []
    for i in indices:
        try:
            idx.append(operator.index(i))
        except TypeError:
            raise ValueError(f"index {i!r} is not an integer") from None
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
    marginal: bool             # a pivot (singular value) fell within 10x of the rank threshold
    pivots: tuple[float, ...]  # singular values, descending, through the first one rejected


def stack_chunks(count: int, item_bytes: int) -> Iterator[slice]:
    """Consecutive slices of ``range(count)``, each a stack of at most _STACK_BYTES."""
    step = max(1, _STACK_BYTES // item_bytes)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _stacked_ranks(M: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Numerical rank, marginal flag and singular values (descending) of each
    # matrix of a stack of same-shape matrices, from one stacked LAPACK
    # call.  A singular value counts toward the rank iff it exceeds
    # rank_tol * max(1, largest absolute entry of that matrix); a rank is
    # marginal when a singular value lies within 10x of that threshold,
    # either side.
    stats.add("linalg.ranked", len(M))
    sigma = np.linalg.svd(M, compute_uv=False)
    threshold = rank_tol * np.maximum(1.0, np.abs(M).max(axis=(1, 2), initial=0.0))[:, None]
    near = (0.1 * threshold <= sigma) & (sigma <= 10.0 * threshold)
    return (sigma > threshold).sum(axis=1), near.any(axis=1), sigma


def _block_ranks(A: np.ndarray, block: list[IndexSet],
                 rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    # The rank and marginal flag of each sorted support of one size, stacked
    # chunk by chunk.
    ranks, marginal = np.zeros(len(block), dtype=np.intp), np.zeros(len(block), dtype=bool)
    if block and block[0]:
        index = np.array(block, dtype=np.intp)
        for part in stack_chunks(len(block), 8 * A.shape[0] * index.shape[1]):
            M = A[:, index[part]].transpose(1, 0, 2)
            ranks[part], marginal[part], _ = _stacked_ranks(M, rank_tol)
    return ranks, marginal


class _Rows(NamedTuple):
    """A's row reduction and the range of A^T, from one thin SVD A = W Sigma V^T.

    r counts the singular values above ``floor``, rank_tol times the
    largest; U, Sigma_r and V_r keep the r singular triplets that count.
    The rows of A~ and the columns of V_r span the range of A^T, and
    y = Y c has A^T y = V_r c for every c in R^r.
    """

    U: np.ndarray        # (m, r) the columns of W with singular values above floor
    At: np.ndarray       # (r, n) A~ = U^T A, A reduced to r independent rows
    floor: float
    V: np.ndarray        # (n, r) V_r, an orthonormal basis of the range of A^T
    Y: np.ndarray        # (m, r) U Sigma_r^-1


def _row_reduction(A: np.ndarray, tol: ToleranceConfig) -> _Rows:
    W, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    floor = tol.rank_tol * sigma[0]
    kept = sigma > floor
    U = W[:, kept]
    # V is copied to row order, since the witnesses gather its rows.
    return _Rows(U, U.T @ A, floor, Vt[kept].T.copy(), U / sigma[kept])


def _full_column_rank(At: np.ndarray, block: np.ndarray, floor: float,
                      mode: str = "r") -> tuple[np.ndarray, object]:
    # Which sorted supports in ``block`` have full column rank, and the
    # stacked QR A~_S = Q R behind that rule (np.linalg.qr's ``mode``), or
    # None where k > r: k <= r and every diagonal entry of R exceeds the
    # row reduction's threshold ``floor``, rank_tol * sigma_max(A).  The
    # order-K layer's one full-rank rule: the certifier, its margin LPs'
    # coordinates and the recovery oracle decide rank here; the reported
    # ranks keep the rule of ``_stacked_ranks``.
    count, k = block.shape
    if k > len(At):
        return np.zeros(count, dtype=bool), None
    factors = np.linalg.qr(At.T[block].transpose(0, 2, 1), mode=mode)
    R = factors if mode == "r" else factors[1]
    return (np.abs(np.diagonal(R, axis1=1, axis2=2)) > floor).all(axis=1), factors


def rank_details(A: np.ndarray, support: Iterable[int] | None = None,
                 tol: ToleranceConfig = DEFAULT_TOLERANCES) -> RankResult:
    """Numerical rank of the column submatrix, with its singular values and a marginal flag."""
    A = as_matrix(A)
    if support is not None:
        A = A[:, list(normalize_support(support, A.shape[1]))]
    (found,), (marginal,), (sigma,) = _stacked_ranks(A[None], tol.rank_tol)
    return RankResult(int(found), bool(marginal), tuple(sigma[:found + 1].tolist()))


def rank(A: np.ndarray, support: Iterable[int] | None = None,
         tol: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Numerical rank of ``A`` restricted to ``support`` (all columns if None)."""
    return rank_details(A, support, tol).rank


def augmented_rank_details(A: np.ndarray, support: Iterable[int],
                           tol: ToleranceConfig = DEFAULT_TOLERANCES) -> RankResult:
    """Rank details of the selected columns with an all-ones row appended."""
    A = as_matrix(A)
    return rank_details(np.vstack([A, np.ones(A.shape[1])]), support, tol)


def augmented_rank(A: np.ndarray, support: Iterable[int],
                   tol: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Rank of the selected columns stacked over an all-ones row."""
    return augmented_rank_details(A, support, tol).rank


def mutual_coherence(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Peak pairwise column correlation, floored at zero.

    Maximum over distinct columns i != j of a_i . a_j / (|a_i| |a_j|).  The
    correlation is signed, not absolute: under nonnegativity only positively
    aligned column pairs weaken recovery, so antiparallel pairs do not count.
    A column whose norm is at most ``rank_tol`` times the largest column norm
    raises ``ZeroColumn``.
    """
    A = as_matrix(A)
    if A.shape[1] < 2:
        raise ValueError("mutual coherence needs at least two columns")
    norms = np.linalg.norm(A, axis=0)
    small = np.flatnonzero(norms <= tol.rank_tol * norms.max())
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

    Iterating yields ``(k, block)`` for each size in ``sizes``: ``block``
    lists supports of size ``k`` in lexicographic order, and the blocks of a
    size, at most _BLOCK_LEN supports each, follow one another in that order.
    ``count`` is the number of supports yielded so far.  The budget caps the
    supports visited.  It is checked over all sizes here, before the caller
    does any work, or with ``lazy`` (for searches that usually stop early)
    only on reaching a size whose running total exceeds it.
    """

    A: np.ndarray
    sizes: Sequence[int]
    budget: int
    lazy: bool = False
    count: int = field(default=0, init=False)

    def __post_init__(self):
        if not self.lazy:
            self._check(sum(math.comb(self.A.shape[1], k) for k in self.sizes))

    def _check(self, planned: int) -> None:
        if planned > self.budget:
            raise BudgetExceeded(
                f"support enumeration needs {planned} subsets, budget is {self.budget}")

    def __iter__(self) -> Iterator[tuple[int, list[IndexSet]]]:
        n = self.A.shape[1]
        planned = 0
        for k in self.sizes:
            planned += math.comb(n, k)
            self._check(planned)
            supports = combinations(range(n), k)
            while block := list(islice(supports, _BLOCK_LEN)):
                self.count += len(block)
                yield k, block


def spark(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES,
          budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Smallest number of linearly dependent columns; ``n + 1`` if none.

    Exhaustive search over subsets of increasing size.  Raises
    ``BudgetExceeded`` before enumerating more than ``budget`` subsets.
    """
    A = as_matrix(A)
    n = A.shape[1]
    for k, block in SupportEnumeration(A, range(1, n + 1), budget, lazy=True):
        if (_block_ranks(A, block, tol.rank_tol)[0] < k).any():
            return k
    return n + 1
