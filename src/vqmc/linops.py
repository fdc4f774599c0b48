"""Dense complex-Hermitian linear algebra and subspace machinery.

All operations act on plain complex numpy arrays interpreted as Hermitian
operators. Inputs are symmetrized as (H + H')/2 before eigendecomposition
when the asymmetry is within ``HERMITIAN_ATOL``; larger asymmetry is an
error rather than something to silently absorb.

Kernels and supports are extracted with a relative eigenvalue threshold
``rel_tol * max(lambda_max, tiny)``. Every state handled by this package
has spectral gaps of order 1/4 or larger, so any threshold in
[1e-12, 1e-4] yields identical verdicts (exercised in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-8
ORTHONORMAL_ATOL = 1e-10
DEFAULT_REL_TOL = 1e-10
_TINY = 1e-300


class NonHermitianError(ValueError):
    """Raised when a matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a supposedly PSD matrix has an eigenvalue below the floor."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        super().__init__(f"matrix is not PSD: smallest eigenvalue {self.eigenvalue:.6e}")


class SubspaceMismatchError(ValueError):
    """Raised when two subspaces live in different ambient dimensions."""


def hermitian_part(matrix: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Return (H + H')/2, rejecting non-finite entries and asymmetry above ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    asym = float(np.abs(matrix - matrix.conj().T).max()) if matrix.size else 0.0
    if not np.isfinite(asym):
        # any NaN or inf entry makes its own asymmetry NaN or inf
        raise ValueError("matrix has non-finite entries (NaN or inf)")
    if asym > atol:
        raise NonHermitianError(f"matrix is not Hermitian: max asymmetry {asym:.6e} > {atol:.1e}")
    return (matrix + matrix.conj().T) / 2


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal column frame spanning a kernel or support subspace.

    ``vectors`` has shape (ambient_dim, dim); columns are orthonormal within
    ``ORTHONORMAL_ATOL`` (checked on construction). ``tol`` records the
    eigenvalue threshold used to extract the subspace.
    """

    vectors: np.ndarray
    tol: float = 0.0

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=complex)
        if vectors.ndim != 2:
            raise ValueError(f"basis vectors must form a 2-d column array, got ndim {vectors.ndim}")
        ambient, k = vectors.shape
        if k > ambient:
            raise ValueError(f"{k} columns cannot be independent in dimension {ambient}")
        if k:
            gram = vectors.conj().T @ vectors
            err = float(np.abs(gram - np.eye(k)).max())
            if err > ORTHONORMAL_ATOL:
                raise ValueError(f"basis columns are not orthonormal: Gram deviation {err:.6e}")
        object.__setattr__(self, "vectors", _readonly(vectors))

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the spanned subspace."""
        return self.vectors @ self.vectors.conj().T

    @classmethod
    def from_columns(cls, columns, tol: float = 0.0) -> "SubspaceBasis":
        """Orthonormalize a set of spanning columns (QR) and wrap them."""
        cols = np.asarray(columns, dtype=complex)
        if cols.ndim == 1:
            cols = cols[:, None]
        if cols.shape[1] == 0:
            return cls(vectors=cols, tol=tol)
        q, r = np.linalg.qr(cols)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.abs(r).max()))
        return cls(vectors=q[:, keep], tol=tol)


def eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the columns of a unitary frame, so that
    ``V @ diag(w) @ V' == H`` up to 1e-10.
    """
    h = hermitian_part(matrix)
    w, v = np.linalg.eigh(h)
    return w, v


def kernel_basis(matrix: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> SubspaceBasis:
    """Orthonormal basis of the kernel of a PSD matrix.

    Eigenvectors with eigenvalue <= ``rel_tol * max(lambda_max, tiny)`` are
    assigned to the kernel. Raises ``NotPositiveSemidefiniteError`` if the
    smallest eigenvalue is below ``PSD_EIG_FLOOR``.
    """
    w, v = eigh(matrix)
    if w.size and w[0] < PSD_EIG_FLOOR:
        raise NotPositiveSemidefiniteError(w[0])
    threshold = rel_tol * max(float(w[-1]) if w.size else 0.0, _TINY)
    return SubspaceBasis(vectors=v[:, w <= threshold], tol=threshold)


def support_basis(matrix: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> SubspaceBasis:
    """Orthonormal basis of the support (range) of a PSD matrix.

    The support is the orthogonal complement of the kernel; together the two
    frames resolve the identity.
    """
    w, v = eigh(matrix)
    if w.size and w[0] < PSD_EIG_FLOOR:
        raise NotPositiveSemidefiniteError(w[0])
    threshold = rel_tol * max(float(w[-1]) if w.size else 0.0, _TINY)
    return SubspaceBasis(vectors=v[:, w > threshold], tol=threshold)


def subspace_contained(
    inner: SubspaceBasis, outer: SubspaceBasis, tol: float = 1e-8
) -> tuple[bool, float]:
    """Decide span(inner) <= span(outer) up to leak tolerance.

    Returns ``(contained, max_leak)`` where ``max_leak`` is the largest norm
    of ``(I - P_outer) a`` over columns ``a`` of ``inner``. An empty inner
    basis is trivially contained with zero leak.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise SubspaceMismatchError(
            f"ambient dimensions differ: {inner.ambient_dim} vs {outer.ambient_dim}"
        )
    if inner.dim == 0:
        return True, 0.0
    max_leak = float(column_leaks(inner, outer).max())
    return max_leak <= tol, max_leak


def column_leaks(inner: SubspaceBasis, outer: SubspaceBasis) -> np.ndarray:
    """Norm of ``(I - P_outer) a`` for each column ``a`` of ``inner``."""
    residual = inner.vectors - outer.projector() @ inner.vectors
    return np.sqrt((np.abs(residual) ** 2).sum(axis=0))


def rank_of(matrix: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Numerical rank of a PSD matrix: ambient dimension minus kernel dimension."""
    kernel = kernel_basis(matrix, rel_tol=rel_tol)
    return kernel.ambient_dim - kernel.dim
