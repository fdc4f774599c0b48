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


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Return (H + H')/2, rejecting non-finite entries and asymmetry above ``HERMITIAN_ATOL``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return _hermitian_stack(matrix)


def _hermitian_stack(stack: np.ndarray) -> np.ndarray:
    """:func:`hermitian_part` of each square matrix of a stack (..., n, n);
    the first matrix that fails a check raises."""
    adjoint = np.swapaxes(stack, -1, -2).conj()
    n = stack.shape[-1]
    # finiteness first: inf - inf in the asymmetry would be a NaN and a warning
    if n and not (np.isfinite(stack).all() and np.abs(stack - adjoint).max() <= HERMITIAN_ATOL):
        for matrix in stack.reshape(-1, n, n):
            if not np.isfinite(matrix).all():
                raise ValueError("matrix has non-finite entries (NaN or inf)")
            asym = float(np.abs(matrix - matrix.conj().T).max())
            if asym > HERMITIAN_ATOL:
                raise NonHermitianError(
                    f"matrix is not Hermitian: max asymmetry {asym:.6e} > {HERMITIAN_ATOL:.1e}")
    return (stack + adjoint) / 2


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
            _check_orthonormal(vectors)
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


def _eigen_split(hermitian: np.ndarray, rel_tol: float):
    """The kernel rule, once for a Hermitian matrix or a stack (..., n, n) of them.

    Returns ``(w, v, threshold)`` from one eigendecomposition: eigenvalues
    ascending, eigenvectors as columns, and the cut-off
    ``rel_tol * max(lambda_max, tiny)`` of each matrix; eigenvalues at or
    below it belong to the kernel, the rest to the support. The first matrix
    with an eigenvalue below ``PSD_EIG_FLOOR`` raises
    ``NotPositiveSemidefiniteError``.
    """
    w, v = np.linalg.eigh(hermitian)
    if not w.shape[-1]:
        return w, v, rel_tol * np.full(w.shape[:-1], _TINY)
    smallest = np.ravel(w[..., 0])
    if smallest.min() < PSD_EIG_FLOOR:
        raise NotPositiveSemidefiniteError(smallest[np.argmax(smallest < PSD_EIG_FLOOR)])
    return w, v, rel_tol * np.maximum(w[..., -1], _TINY)


def kernel_basis(matrix: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> SubspaceBasis:
    """Orthonormal basis of the kernel of a PSD matrix.

    Eigenvectors with eigenvalue <= ``rel_tol * max(lambda_max, tiny)`` are
    assigned to the kernel. Raises ``NotPositiveSemidefiniteError`` if the
    smallest eigenvalue is below ``PSD_EIG_FLOOR``.
    """
    w, v, threshold = _eigen_split(hermitian_part(matrix), rel_tol)
    return SubspaceBasis(vectors=v[:, w <= threshold], tol=float(threshold))


def kernel_frames(stack: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> list[np.ndarray]:
    """Kernels of a stack (m, n, n) of PSD matrices, by :func:`kernel_basis`'s rule.

    One eigendecomposition serves the whole stack. Returns one read-only
    (n, dim) array of orthonormal kernel columns per matrix, the columns
    :func:`kernel_basis` would give, checked as :class:`SubspaceBasis`
    checks them.
    """
    w, v, threshold = _eigen_split(_hermitian_stack(np.asarray(stack, dtype=complex)), rel_tol)
    kernel = w <= threshold[:, None]
    _check_orthonormal(v, kernel)
    frames = [frame[:, keep] for frame, keep in zip(v, kernel)]
    for frame in frames:
        frame.setflags(write=False)
    return frames


def _check_orthonormal(vectors: np.ndarray, columns: np.ndarray | None = None) -> None:
    """Raise unless the columns of ``vectors`` (..., n, k) are orthonormal
    within ``ORTHONORMAL_ATOL``; a boolean ``columns`` (..., k) restricts the
    check to the columns it marks. The first frame that fails raises."""
    gram = np.swapaxes(vectors, -1, -2).conj() @ vectors - np.eye(vectors.shape[-1])
    if np.abs(gram).max() <= ORTHONORMAL_ATOL:
        return  # every selection of columns passes too
    if columns is not None:
        gram = np.where(columns[..., :, None] & columns[..., None, :], gram, 0.0)
    err = np.abs(gram).reshape(-1, gram.shape[-1] ** 2).max(axis=1)
    bad = err > ORTHONORMAL_ATOL
    if bad.any():
        raise ValueError(f"basis columns are not orthonormal: Gram deviation "
                         f"{float(err[bad.argmax()]):.6e}")


def support_basis(matrix: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> SubspaceBasis:
    """Orthonormal basis of the support (range) of a PSD matrix.

    The support is the orthogonal complement of the kernel; together the two
    frames resolve the identity.
    """
    w, v, threshold = _eigen_split(hermitian_part(matrix), rel_tol)
    return SubspaceBasis(vectors=v[:, w > threshold], tol=float(threshold))


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
    max_leak = float(frame_leaks(inner.vectors, outer.vectors).max())
    return max_leak <= tol, max_leak


def frame_leaks(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Norm of ``(I - P_outer) a`` for each column ``a`` of the orthonormal frame
    ``inner`` (n, k_inner), with ``outer`` (n, k_outer) an orthonormal frame."""
    residual = inner - (outer @ outer.conj().T) @ inner
    return np.sqrt((np.abs(residual) ** 2).sum(axis=0))


def rank_of(matrix: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Numerical rank of a PSD matrix: ambient dimension minus kernel dimension."""
    kernel = kernel_basis(matrix, rel_tol=rel_tol)
    return kernel.ambient_dim - kernel.dim
