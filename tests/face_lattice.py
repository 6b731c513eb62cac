"""A face-lattice ground truth for the range space property, from Qhull.

Let Q = conv{0, a_1, ..., a_n}.  RSP holds at S iff conv{a_j : j in S} is a
face of Q that holds no other a_j and not 0.  A y whose eta = A^T y is 1 on
S and below 1 off S exposes that face at level 1.  Conversely every face of
a polytope is exposed, and 0 in Q off the face makes the exposing level
positive, so it can be scaled to 1.  Every proper face is the intersection
of the facets that contain it, so S passes iff the facets that hold all of
a_S share no other point.  Order-K rsp is thus outward K-neighborliness of
Q (D. L. Donoho, J. Tanner, PNAS 102(27), 2005).

The hull is Qhull's (``scipy.spatial.ConvexHull``), which shares nothing
with the LP core, the least-squares screen or the rank gate.  The points
are first projected onto the span of the columns of A, so that the hull is
full-dimensional for an A of any rank.  A facet is the set of points within
1e-9 max|P| of its hyperplane, so a point that lies on a facet but is not
one of Qhull's vertices of it still counts.  The facet count grows steeply
with the dimension, so this serves the tests' small shapes only.
"""

from collections import Counter
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull

# The distance from a facet's hyperplane, relative to max|P|, within which a
# point lies on the facet.
_ON_FACET = 1e-9


def facets(A: np.ndarray) -> np.ndarray:
    """The distinct facets of conv{0, a_1, ..., a_n}, as rows of a (facets, n + 1) mask.

    Column 0 is the origin, column j + 1 the column a_j of A.
    """
    A = np.asarray(A, dtype=float)
    W, sigma, _ = np.linalg.svd(A, full_matrices=False)
    r = int(np.count_nonzero(sigma > sigma[0] * max(A.shape) * np.finfo(float).eps))
    P = np.vstack([np.zeros(r), A.T @ W[:, :r]])
    hull = ConvexHull(P)
    distance = P @ hull.equations[:, :-1].T + hull.equations[:, -1]
    return np.unique(np.abs(distance.T) <= _ON_FACET * np.abs(P).max(), axis=0)


def rsp_holds(lattice: np.ndarray, S) -> bool:
    """Whether RSP holds at the support S, by the intersection of the facets holding a_S."""
    points = np.asarray(S, dtype=np.intp) + 1
    shared = lattice[lattice[:, points].all(axis=1)].all(axis=0)
    return int(np.count_nonzero(shared)) == len(points)


def support_table(A: np.ndarray, K: int) -> dict:
    """Each support of sizes 1 through K, in enumeration order, as (S, full, face).

    ``full`` is whether A_S has full column rank, taken here by
    ``np.linalg.matrix_rank``, and ``face`` whether RSP holds at S
    (``rsp_holds``).  The expectations below share one table per matrix.
    """
    lattice = facets(A)
    return {k: [(S, np.linalg.matrix_rank(A[:, S]) == k, rsp_holds(lattice, S))
                for S in combinations(range(A.shape[1]), k)] for k in range(1, K + 1)}


def _ranged(table: dict, K: int, prop: str):
    # The (S, full, face) of each support the property ranges over, in
    # order: rsp and wrsp range over sizes 1 through K, prsp and pwrsp over
    # size K; wrsp and pwrsp only over the supports of full column rank.
    sizes = [K] if prop in ("prsp", "pwrsp") else range(1, K + 1)
    weak = prop in ("wrsp", "pwrsp")
    return [row for k in sizes for row in table[k] if row[1] or not weak]


def expected_oracle(table: dict, K: int, prop: str):
    """The recovery oracle's (recovers, failing_support, supports_checked) by the face lattice.

    x planted on S is the unique least-l1 solution iff RSP holds at S and A_S
    has full column rank.  The report fails at the first support in
    enumeration order that the property ranges over and where either
    condition fails.
    """
    ranged = _ranged(table, K, prop)
    for checked, (S, full, face) in enumerate(ranged, 1):
        if not (full and face):
            return False, S, checked
    return True, None, len(ranged)


def expected_report(table: dict, K: int, prop: str):
    """The order-K certifier's (holds, counterexample, failures_per_size,
    subsets_checked, no_full_rank_subset) by the face lattice.

    Every support the property ranges over is checked, and fails where RSP
    does not hold at it; rank decides only which supports the weak
    properties range over.  wrsp with no size-K support of full column rank
    (then A has rank below K) checks nothing and does not hold; pwrsp holds
    vacuously there.  The verdict is yes unless some support fails.
    """
    weak = prop in ("wrsp", "pwrsp")
    none_full_at_k = weak and not any(full for _, full, _ in table[K])
    if prop == "wrsp" and none_full_at_k:
        return False, None, {}, 0, True
    ranged = _ranged(table, K, prop)
    failing = [S for S, _, face in ranged if not face]
    return (not failing, failing[0] if failing else None, dict(Counter(map(len, failing))),
            len(ranged), none_full_at_k)
