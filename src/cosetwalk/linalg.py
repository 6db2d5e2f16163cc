"""Dense complex matrix helpers: eigenphases of small unitaries, norms,
and circular phase-multiset comparison, batched over leading axes.

Matrices are plain numpy arrays (complex128).  Eigenvalues of a unitary U
are written e^{-i omega} with omega in (-pi, pi]; every eigenpair returned
is verified against the residual bound ||U v - e^{-i omega} v|| <= tol ||v||.
"""

from __future__ import annotations

import numpy as np

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

EIGENSOLVE_MAX_DIM = 64
DEFAULT_UNITARY_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-10


class NonUnitaryError(ValueError):
    """Input matrix is farther from unitary than the allowed tolerance."""


class EigensolveError(RuntimeError):
    """The eigensolver failed to converge or to meet the residual bound."""


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value; 0 for an empty matrix."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def unitarity_defect(m: np.ndarray) -> float:
    """Operator norm of U^dag U - I."""
    m = np.asarray(m, dtype=complex)
    return operator_norm(adjoint(m) @ m - np.eye(m.shape[-1]))


def wrap_phase(x):
    """Map angles to the principal interval (-pi, pi]."""
    w = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w)


def circular_distance(a, b):
    """Pointwise distance on the circle, in [0, pi]."""
    d = np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.abs(d)


def eigenpairs(
    u: np.ndarray,
    *,
    unitary_tol: float = DEFAULT_UNITARY_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Phases and eigenvectors of a unitary matrix.

    Returns (phases, vectors) with phases ascending in (-pi, pi] and
    vectors[:, i] the eigenvector paired with phases[i]; the eigenvalue is
    e^{-i phases[i]}.  Raises NonUnitaryError when the input fails the
    unitarity precondition and EigensolveError when LAPACK does not converge
    or an eigenpair misses the residual bound.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    if u.shape[0] > EIGENSOLVE_MAX_DIM:
        raise ValueError(f"matrix dimension {u.shape[0]} exceeds {EIGENSOLVE_MAX_DIM}")
    defect = unitarity_defect(u)
    if defect > unitary_tol:
        raise NonUnitaryError(f"unitarity defect {defect:.3e} exceeds {unitary_tol:.1e}")
    try:
        values, vectors = np.linalg.eig(u)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigensolver did not converge: {exc}") from exc
    phases = wrap_phase(-np.angle(values))
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = vectors[:, order]
    residuals = np.linalg.norm(
        u @ vectors - vectors * np.exp(-1j * phases)[None, :], axis=0
    ) / np.linalg.norm(vectors, axis=0)
    worst = float(residuals.max())
    if worst > residual_tol:
        raise EigensolveError(f"eigenpair residual {worst:.3e} exceeds {residual_tol:.1e}")
    return phases, vectors


def eigenphases(u: np.ndarray, **kwargs) -> np.ndarray:
    """Sorted eigenphases of a unitary matrix (see ``eigenpairs``)."""
    return eigenpairs(u, **kwargs)[0]


def phase_multiset_distance(a, b):
    """Smallest max circular mismatch over order-preserving matchings.

    The last axis holds the multisets; leading axes are a batch, so two
    (nk, n) arrays give nk distances, and two 1-D inputs give a float.
    Each multiset is sorted on the circle; the optimal min-max matching of
    two equal-size circular multisets is order preserving, so it suffices to
    scan the n cyclic offsets.  An offset whose mismatch is NaN never wins.
    """
    a = np.sort(np.atleast_1d(wrap_phase(a)), axis=-1)
    b = np.sort(np.atleast_1d(wrap_phase(b)), axis=-1)
    if a.shape != b.shape:
        raise ValueError(f"multiset shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[-1]
    best = np.full(a.shape[:-1], 0.0 if n == 0 else np.inf)
    for shift in range(n):
        best = np.fmin(best, circular_distance(a, np.roll(b, shift, axis=-1)).max(axis=-1))
    return float(best) if best.ndim == 0 else best
