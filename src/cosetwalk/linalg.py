"""Dense complex matrix helpers: the eigen kernel for stacks of small
unitaries, norms, and circular phase-multiset comparison, batched over
leading axes.

Matrices are plain numpy arrays (complex128).  ``eigenpairs`` is the one
eigensolver: it takes a stack (..., n, n) and solves every matrix in one
``np.linalg.eig`` call.  Eigenvalues of a unitary U are written
e^{-i omega} with omega in (-pi, pi]; every input must pass the unitarity
bound ||U^dag U - I||_2 <= 1e-8 and every eigenpair returned is verified
against the residual bound ||U v - e^{-i omega} v|| <= 1e-10 ||v||; an
eigenvalue modulus off 1 by more than 1e-10 fails that certificate and is
reported as a non-unitary input.
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
    """Conjugate transpose of the last two axes."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def operator_norm(m: np.ndarray):
    """Largest singular value; 0 for an empty matrix, NaN for a non-finite one.

    A stack (..., r, c) gives an array with one norm per matrix.  Matrices
    holding inf or NaN never reach the SVD, which may fail to converge on them.
    1 x 1 matrices take their modulus instead of an SVD.
    """
    m = np.asarray(m)
    finite = np.isfinite(m).all(axis=(-2, -1))
    norms = np.where(finite, 0.0, np.nan)
    if m.shape[-2:] == (1, 1):
        norms[finite] = np.abs(m[finite][:, 0, 0])
    elif m.size:
        norms[finite] = np.linalg.norm(m[finite], 2, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def unitarity_defect(m: np.ndarray):
    """Operator norm of U^dag U - I, one per matrix for a stack (..., n, n)."""
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


def _check_bound(
    values: np.ndarray, tol: float, batch: tuple[int, ...], error, what: str, offset: int = 0
) -> None:
    """Raise ``error`` at the first stack entry whose value exceeds tol; NaN fails.

    ``offset`` is added to the first axis of the reported index, so a chunk
    of a larger stack names the index in the whole stack.
    """
    failing = np.flatnonzero(~(values <= tol))
    if failing.size:
        i = int(failing[0])
        where = ""
        if batch:
            index = [int(x) for x in np.unravel_index(i, batch)]
            index[0] += offset
            where = f" at stack index {tuple(index)}"
        raise error(f"{what} {values[i]:.3e} exceeds {tol:.1e}{where}")


def _check_unitary(flat: np.ndarray, batch: tuple[int, ...], offset: int) -> None:
    """Raise NonUnitaryError at the first matrix with ||U^dag U - I||_2 above tol.

    ||M||_2 <= ||M||_F, so the Frobenius norm screens the stack and only the
    matrices it flags get an SVD.  Running apart from the solve frees
    U^dag U - I before ``np.linalg.eig`` allocates its outputs.
    """
    n = flat.shape[-1]
    gram = adjoint(flat) @ flat
    gram -= np.eye(n)
    entries = gram.view(np.float64).reshape(len(flat), 2 * n * n)
    defect = np.sqrt(np.einsum("ki,ki->k", entries, entries))
    suspect = np.isfinite(defect) & (defect > DEFAULT_UNITARY_TOL)
    if suspect.any():
        defect[suspect] = operator_norm(gram[suspect])
    _check_bound(defect, DEFAULT_UNITARY_TOL, batch, NonUnitaryError, "unitarity defect", offset)


def eigenpairs(u: np.ndarray, *, _offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Phases and eigenvectors of a unitary matrix or a stack of them.

    ``u`` has shape (..., n, n).  Returns phases (..., n), ascending in
    (-pi, pi] along the last axis, and vectors (..., n, n) with
    vectors[..., :, i] the eigenvector paired with phases[..., i]; the
    eigenvalue is e^{-i phases[..., i]}.  A stack is solved in one
    ``np.linalg.eig`` call, which gives the same bits as solving each
    matrix alone.

    Raises NonUnitaryError when a matrix has ||U^dag U - I||_2 above
    DEFAULT_UNITARY_TOL, and EigensolveError when LAPACK does not converge
    or an eigenpair misses DEFAULT_RESIDUAL_TOL; both name the first
    failing stack index.  This operator-norm check is tighter than the
    entrywise L1 bound (1e-8 * n) that dispersion grids used to apply.

    The residual certificate measures U v against e^{-i omega} v, which has
    modulus 1, so a matrix with an eigenvalue modulus off 1 by more than
    DEFAULT_RESIDUAL_TOL fails it: the effective unitarity bound is about
    1e-10 in eigenvalue modulus, not 1e-8.  Such a failure raises
    NonUnitaryError ("eigenvalue modulus defect") naming the stack index;
    a residual miss with every eigenvalue on the circle stays an
    EigensolveError.

    ``_offset`` is for callers that solve one stack in chunks: it is added
    to the first axis of the stack index an error names.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {u.shape}")
    n = u.shape[-1]
    if n > EIGENSOLVE_MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds {EIGENSOLVE_MAX_DIM}")
    batch = u.shape[:-2]
    flat = u.reshape((int(np.prod(batch)), n, n))
    _check_unitary(flat, batch, _offset)
    try:
        values, vectors = np.linalg.eig(flat)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigensolver did not converge: {exc}") from exc
    phases = wrap_phase(-np.angle(values))
    order = np.argsort(phases, axis=-1, kind="stable")
    phases = np.take_along_axis(phases, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    residuals = np.linalg.norm(
        flat @ vectors - vectors * np.exp(-1j * phases)[:, None, :], axis=-2
    ) / np.linalg.norm(vectors, axis=-2)
    worst = residuals.max(axis=-1, initial=0.0)
    if not (worst <= DEFAULT_RESIDUAL_TOL).all():
        # the certificate rebuilds each eigenvalue on the unit circle, so an
        # eigenvalue off it by more than the bound is the input's fault
        modulus = np.abs(np.abs(values) - 1.0).max(axis=-1, initial=0.0)
        _check_bound(
            np.where(modulus > DEFAULT_RESIDUAL_TOL, modulus, 0.0), DEFAULT_RESIDUAL_TOL,
            batch, NonUnitaryError, "eigenvalue modulus defect", _offset,
        )
        _check_bound(
            worst, DEFAULT_RESIDUAL_TOL, batch, EigensolveError, "eigenpair residual", _offset
        )
    return phases.reshape(batch + (n,)), vectors.reshape(batch + (n, n))


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
