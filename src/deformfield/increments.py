"""Polynomial-annihilating contrast matrices.

Rows of a contrast matrix are orthonormal vectors u with
sum_i u_i * x_i^r1 * y_i^r2 = 0 for every monomial with r1 + r2 <= degree.
Applied to field values they remove the even-polynomial part of the
covariance, leaving the fractional term that carries alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative singular-value cutoff for the numerical rank of the monomial basis
RANK_TOL = 1e-10


@dataclass(frozen=True)
class ContrastMatrix:
    rows: np.ndarray  # (m', m), orthonormal rows
    degree: int
    locations: np.ndarray  # complex (m,)

    @property
    def n_contrasts(self) -> int:
        return self.rows.shape[0]


def monomial_basis(locations, degree: int) -> np.ndarray:
    """Matrix of bivariate monomials x^r1 y^r2 with r1 + r2 <= degree.

    Columns are ordered by total degree, then by descending r1, so
    degree 1 gives [1, x, y].  Each column is scaled by its max-abs
    entry to keep the decomposition well conditioned.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    pts = np.asarray(locations, dtype=np.complex128).ravel()
    x = pts.real
    y = pts.imag
    cols = []
    for total in range(degree + 1):
        for r1 in range(total, -1, -1):
            col = x**r1 * y ** (total - r1)
            peak = np.max(np.abs(col))
            cols.append(col / peak if peak > 0 else col)
    return np.column_stack(cols)


def increment_matrix(locations, degree: int) -> ContrastMatrix:
    """Orthonormal basis of the null space of the monomial matrix transpose.

    The row count is m - rank(monomials); degenerate configurations
    (collinear points, repeated points) simply raise the rank deficiency
    and therefore gain contrast rows.
    """
    pts = np.asarray(locations, dtype=np.complex128).ravel()
    m = pts.size
    if m == 0:
        raise ValueError("no locations given")
    basis = monomial_basis(pts, degree)
    u, s, _ = np.linalg.svd(basis, full_matrices=True)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size else 0
    if rank >= m:
        raise ValueError(
            f"neighborhood smaller than polynomial space: {m} points, "
            f"rank {rank} monomial basis of degree <= {degree}"
        )
    rows = u[:, rank:].T.copy()
    return ContrastMatrix(rows=rows, degree=degree, locations=pts)
