"""Tolerance-aware dense complex linear algebra.

Supports and kernels of Hermitian operators, subspace arithmetic through
orthonormal column bases, orthogonal projectors, operator square roots,
Moore-Penrose inverses and Jordan (canonical) bases of subspace pairs.
All functions are pure; arrays are never mutated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPSD
from .tolerances import DEFAULT_TOL, ToleranceContext

__all__ = [
    "Subspace", "dag", "hermitian_part", "is_hermitian", "assert_hermitian",
    "frobenius", "is_psd", "rank", "support", "kernel", "spectral_split",
    "intersect", "subspace_sum", "pseudo_inverse", "sqrt_psd", "jordan_bases",
]


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2, of each matrix of a stack (..., n, n) too."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def is_hermitian(a: np.ndarray, tol: ToleranceContext = DEFAULT_TOL) -> bool:
    scale = max(1.0, np.abs(a).max(initial=0.0))
    return bool(np.abs(a - dag(a)).max(initial=0.0) <= tol.hermitian * scale)


def assert_hermitian(a: np.ndarray, tol: ToleranceContext = DEFAULT_TOL,
                     what: str = "operator") -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")
    if not is_hermitian(a, tol):
        raise NotHermitian(f"{what} deviates from its adjoint beyond tolerance")
    return hermitian_part(a)


def frobenius(a: np.ndarray):
    """Frobenius norm, per matrix of a stack (..., m, n)."""
    if a.ndim == 2:
        return np.linalg.norm(a)
    # np.linalg.norm(a, axis=(-2, -1)), without its argument handling
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))


def is_psd(a: np.ndarray, tol: ToleranceContext = DEFAULT_TOL) -> bool:
    """PSD test admitting eigenvalues down to -psd_floor (norm-scaled above 1)."""
    if a.shape[0] == 0:
        return True
    w = np.linalg.eigvalsh(hermitian_part(a))
    floor = tol.psd_floor * max(1.0, float(np.abs(w).max()))
    return bool(w.min() >= -floor)


def _rank_threshold(values: np.ndarray, tol: ToleranceContext) -> float:
    top = float(values.max(initial=0.0))
    return max(tol.rank_cutoff * top, tol.rank_atol)


def rank(a: np.ndarray, tol: ToleranceContext = DEFAULT_TOL) -> int:
    """Numerical rank: the singular values above the shared cutoff."""
    if a.size == 0:
        return 0
    values = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(values > _rank_threshold(values, tol)))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of C^dim given by a column-orthonormal basis."""

    dim: int
    basis: np.ndarray  # shape (dim, k)

    def __post_init__(self):
        if self.basis.ndim != 2 or self.basis.shape[0] != self.dim:
            raise DimensionMismatch(
                f"basis shape {self.basis.shape} does not match dim {self.dim}")

    @property
    def size(self) -> int:
        """Dimension of the subspace itself."""
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ dag(self.basis)

    @staticmethod
    def zero(dim: int) -> "Subspace":
        return Subspace(dim, np.zeros((dim, 0), dtype=complex))

    @staticmethod
    def full(dim: int) -> "Subspace":
        return Subspace(dim, np.eye(dim, dtype=complex))

    @staticmethod
    def from_columns(columns: np.ndarray,
                     tol: ToleranceContext = DEFAULT_TOL) -> "Subspace":
        """Column space of an arbitrary matrix, orthonormalized by SVD."""
        if columns.shape[1] == 0:
            return Subspace.zero(columns.shape[0])
        u, s, _ = np.linalg.svd(columns, full_matrices=False)
        k = int(np.sum(s > _rank_threshold(s, tol)))
        return Subspace(columns.shape[0], u[:, :k].astype(complex))


def spectral_split(a: np.ndarray, tol: ToleranceContext = DEFAULT_TOL,
                   ) -> tuple[Subspace, Subspace]:
    """Support and kernel from one eigendecomposition: the eigenvectors
    with eigenvalue above the rank cutoff span the support, the rest the
    kernel."""
    return _split_spectrum(np.linalg.eigh(assert_hermitian(a, tol)), tol)


def _split_spectrum(spectrum, tol: ToleranceContext):
    """`spectral_split` of the operator whose `eigh` is `spectrum`."""
    w, u = spectrum
    keep = w > _rank_threshold(w, tol)
    return (Subspace(u.shape[0], u[:, keep].astype(complex)),
            Subspace(u.shape[0], u[:, ~keep].astype(complex)))


def support(a: np.ndarray, tol: ToleranceContext = DEFAULT_TOL) -> Subspace:
    """Span of eigenvectors with eigenvalue above the rank cutoff."""
    return spectral_split(a, tol)[0]


def kernel(a: np.ndarray, tol: ToleranceContext = DEFAULT_TOL) -> Subspace:
    """Orthocomplement of the support."""
    return spectral_split(a, tol)[1]


def _check_same_dim(a: Subspace, b: Subspace):
    if a.dim != b.dim:
        raise DimensionMismatch(f"ambient dimensions differ: {a.dim} vs {b.dim}")


def intersect(a: Subspace, b: Subspace,
              tol: ToleranceContext = DEFAULT_TOL) -> Subspace:
    """Intersection via principal angles: keep directions with cosine ~ 1."""
    _check_same_dim(a, b)
    if a.size == 0 or b.size == 0:
        return Subspace.zero(a.dim)
    overlap = dag(a.basis) @ b.basis
    x, s, _ = np.linalg.svd(overlap)
    k = int(np.sum(s > 1.0 - tol.equality))
    return Subspace(a.dim, (a.basis @ x[:, :k]).astype(complex))


def subspace_sum(a: Subspace, b: Subspace,
                 tol: ToleranceContext = DEFAULT_TOL) -> Subspace:
    """Column space of the concatenated bases."""
    _check_same_dim(a, b)
    return Subspace.from_columns(np.hstack([a.basis, b.basis]), tol)


def pseudo_inverse(a: np.ndarray, tol: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse with the shared rank cutoff."""
    return np.linalg.pinv(a, rcond=tol.rank_cutoff)


def sqrt_psd(a: np.ndarray, tol: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """PSD square root with rank truncation.

    Eigenvalues below the rank cutoff are zeroed before the root: keeping
    them would amplify O(eps) noise to O(sqrt(eps)) in nearly rank-deficient
    arguments.  Eigenvalues below -psd_floor (norm-scaled) raise NotPSD.
    """
    w, u = np.linalg.eigh(assert_hermitian(a, tol))
    floor = tol.psd_floor * max(1.0, float(np.abs(w).max(initial=0.0)))
    if w.min(initial=0.0) < -floor:
        raise NotPSD(f"eigenvalue {w.min():.3e} below admissible floor {-floor:.3e}")
    w = np.where(w > _rank_threshold(w, tol), w, 0.0)
    return (u * np.sqrt(w)) @ dag(u)


def jordan_bases(a: Subspace, b: Subspace,
                 tol: ToleranceContext = DEFAULT_TOL,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jordan bases of two subspaces via the SVD of the basis overlap.

    Returns (basis_a, basis_b, cosines) with <a_i|b_j> = 0 for i != j and
    <a_k|b_k> = cosines[k] >= 0, sorted descending.  The library calls it
    once per pair, on the supports (`WeightedDensityPair.jordan`).
    """
    _check_same_dim(a, b)
    overlap = dag(a.basis) @ b.basis
    if a.size == 0 or b.size == 0:
        return (a.basis.copy(), b.basis.copy(),
                np.zeros(min(a.size, b.size)))
    x, s, yh = np.linalg.svd(overlap)
    return a.basis @ x, b.basis @ dag(yh), np.clip(s, 0.0, 1.0)
