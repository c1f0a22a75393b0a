"""Shared tolerances and dense linear-algebra helpers.

The constants below are the package's numerical tolerances, and no rank,
kernel or projector helper takes another.  All rank and
kernel decisions go through this module: singular values are
compared against REL_TOL times a reference scale of the matrix under
inspection.  The scale is the largest Euclidean row norm of the matrix that
is decomposed (`rank_threshold`).  Every matrix has one thin SVD
(`Spectrum`), which every rank read of that matrix shares.  A feature
map's representative rows, one per family, are decomposed: their span rank
decides the SLP rank check and their factors give the rank of their Gram
matrix (`Spectrum.gram_rank`).  The whole map is decomposed only when it is
not an exact signed copy of those rows; when it is, its factors are derived
from theirs and handed to `Spectrum` (see `featspace.FeatureMap.spectrum`).
A map's kernel is the null space of the transposed map, so its rank is
decided at the largest column norm; see `Spectrum` for the two thresholds.
Projector identities, the family kernel check's cross-family projector
entries among them, are checked to PROJECTOR_TOL.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9          # relative rank / null-space threshold
PROJECTOR_TOL = 1e-8    # idempotence / annihilation / completeness checks


def row_scale(matrix: np.ndarray) -> float:
    """Largest Euclidean row norm, the reference scale for rank decisions."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(m, axis=1)))


def rank_threshold(matrix: np.ndarray) -> float:
    return scaled_threshold(row_scale(matrix))


def scaled_threshold(scale: float) -> float:
    """The rank threshold of a matrix whose largest row norm is `scale`."""
    return REL_TOL * max(scale, 1e-300)


def rank_margin(sv: np.ndarray, threshold: float) -> dict:
    """The singular values on either side of a rank decision at `threshold`.

    `sv` is in descending order.  A side with no singular value reads 0.0.
    """
    r = int(np.sum(sv > threshold))
    return {"threshold": threshold,
            "smallest_kept_sv": float(sv[r - 1]) if r > 0 else 0.0,
            "largest_rejected_sv": float(sv[r]) if r < len(sv) else 0.0}


class Spectrum:
    """One thin SVD m = u @ diag(sv) @ vt, read by every spectral consumer.

    The factors come from a single np.linalg.svd(m, full_matrices=False), so
    u has min(m.shape) columns, unless the caller passes `factors`, a thin
    SVD (u, sv, vt) of m that it derived exactly, with sv in descending
    order; u may then have fewer columns, as long as the singular values
    it leaves out are zero.  Every reader takes a leading slice of u.
    Two thresholds, both read off m itself, decide the rank, the same two
    that the per-caller SVDs used:

    - `kernel_threshold` is rank_threshold(m.T), REL_TOL times the largest
      column norm of m.  It decides `kernel_rank`; the null space of m.T is
      the orthogonal complement of u[:, :kernel_rank].
    - `span_threshold` is rank_threshold(m), REL_TOL times the largest row
      norm of m.  It decides `span_rank`, and with it the row-space basis
      vt[:span_rank] and the span coordinates u[:, :span_rank] that renaming
      lifts act on.

    The matrix is not copied, so it must not be written to afterwards.  The
    factors are read-only, so no basis or lift handed out can write into
    them.
    """

    def __init__(self, matrix: np.ndarray,
                 factors: tuple[np.ndarray, ...] | None = None) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        if factors is None:
            factors = np.linalg.svd(self.matrix, full_matrices=False)
        self.u, self.sv, self.vt = factors
        for factor in (self.u, self.sv, self.vt):
            factor.flags.writeable = False
        self.kernel_threshold = rank_threshold(self.matrix.T)
        self.span_threshold = rank_threshold(self.matrix)
        self.kernel_rank = int(np.sum(self.sv > self.kernel_threshold))
        self.span_rank = int(np.sum(self.sv > self.span_threshold))

    def span_margin(self) -> dict:
        return rank_margin(self.sv, self.span_threshold)

    def kernel_margin(self) -> dict:
        return rank_margin(self.sv, self.kernel_threshold)

    def gram_rank(self) -> int:
        """`rank(m @ m.T)`, without forming the Gram matrix.

        With m = U S V^T the Gram is U S^2 U^T, so its singular values are
        S^2 and, U having orthonormal columns, its row norms are those of
        U S^2.
        """
        gram_sv = self.sv * self.sv
        return int(np.sum(
            gram_sv > scaled_threshold(row_scale(self.u * gram_sv))))


def projector_trace_dim(matrix: np.ndarray) -> int:
    """Image dimension of an (approximate) projector: its rounded trace.

    A self-scaled rank threshold misreads a numerically-zero projector as
    full rank, so projector dimensions go through the trace, which equals the
    rank exactly for true projectors.  The trace must sit within
    PROJECTOR_TOL of an integer.
    """
    tr = float(np.trace(np.asarray(matrix, dtype=float)))
    dim = round(tr)
    if abs(tr - dim) > PROJECTOR_TOL:
        raise ValueError(f"trace {tr} is not near an integer; not a projector")
    return int(dim)


def minnorm_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of a @ x = b."""
    x, _, _, _ = np.linalg.lstsq(np.asarray(a, dtype=float),
                                 np.asarray(b, dtype=float), rcond=None)
    return x


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity.

    The denominator is sqrt(<a,a> * <b,b>); with b bitwise equal to a or to -a
    the result is exactly +1.0 or -1.0 in IEEE double (sqrt of a correctly
    rounded square returns the square root's argument's root exactly).
    Returns NaN when either vector is zero.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    num = float(np.dot(a, b))
    na = float(np.dot(a, a))
    nb = float(np.dot(b, b))
    if na == 0.0 or nb == 0.0:
        return math.nan
    return num / math.sqrt(na * nb)
