"""Dense complex matrix helpers: the eigen kernel for stacks of small
unitaries, norms, and circular phase-multiset comparison, batched over
leading axes.

Matrices are plain numpy arrays (complex128).  ``eigenpairs`` is the one
eigensolver: it takes a stack (k, n, n), solves every matrix through one
``np.linalg.eigh`` call on its Hermitian part zU + (zU)^dag, and re-solves
with ``np.linalg.eig`` only the matrices that call leaves uncertified.
Eigenvalues of a unitary U are written e^{-i omega} with omega in
(-pi, pi + 1e-8]; every eigenpair returned is verified against the
residual bound ||U v - e^{-i omega} v|| <= 1e-10 ||v||, and every input must
pass the unitarity bound ||U^dag U - I||_2 <= 1e-8, which ``unitarity_defect``
checks only on the matrices that certificate rejects: it implies the bound
for the rest (see ``eigenpairs``).  An eigenvalue modulus off 1 by more than
1e-10 fails the certificate and is reported as a non-unitary input.
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
HERMITIAN_ROTATION = (np.sqrt(5.0) - 1.0) / 2.0  # theta of eigenpairs, the golden ratio 0.618...


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
    """Map angles to the principal interval (-pi, pi].  ``np.mod`` runs only where
    x + pi is outside [0, 2 pi), as it returns the rest unchanged: same bits."""
    w = np.array(x, dtype=float)
    w += np.pi
    np.mod(w, 2.0 * np.pi, out=w, where=(w < 0.0) | (w >= 2.0 * np.pi))
    w -= np.pi
    return np.where(w == -np.pi, np.pi, w)


def circular_distance(a, b):
    """Pointwise distance on the circle, in [0, pi]."""
    return np.abs(wrap_phase(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def _check_bound(values: np.ndarray, tol: float, error, what: str, offset: int) -> None:
    """Raise ``error`` at the first stack entry whose value exceeds tol; NaN fails.

    ``offset`` is added to the reported index, so a chunk of a larger stack
    names the index in the whole stack.
    """
    failing = np.flatnonzero(~(values <= tol))
    if failing.size:
        i = int(failing[0])
        raise error(f"{what} {values[i]:.3e} exceeds {tol:.1e} at stack index ({i + offset},)")


def _check_unitary(u: np.ndarray, rows: np.ndarray | slice, offset: int) -> None:
    """Raise NonUnitaryError at the first of ``u[rows]`` with ||U^dag U - I||_2 above tol."""
    defect = np.zeros(len(u))
    defect[rows] = unitarity_defect(u[rows])
    _check_bound(defect, DEFAULT_UNITARY_TOL, NonUnitaryError, "unitarity defect", offset)


def _phases_and_worst(values: np.ndarray, vectors: np.ndarray, image: np.ndarray):
    """Wrapped phases of ``values``, those within DEFAULT_UNITARY_TOL of -pi
    counted as +pi, and each matrix's worst ||U v - e^{-i omega} v|| / ||v||.
    ``image`` is U @ vectors, and is overwritten."""
    phases = wrap_phase(-np.angle(values))
    phases = np.where(phases <= DEFAULT_UNITARY_TOL - np.pi, phases + 2.0 * np.pi, phases)
    image -= vectors * np.exp(-1j * phases)[:, None, :]
    residuals = np.linalg.norm(image, axis=-2) / np.linalg.norm(vectors, axis=-2)
    return phases, residuals.max(axis=-1, initial=0.0)


def eigenpairs(u: np.ndarray, *, _offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Phases and eigenvectors of a stack of unitary matrices.

    ``u`` has shape (k, n, n).  Returns phases (k, n), ascending in
    (-pi, pi + 1e-8] along the last axis, and vectors (k, n, n) with
    vectors[j, :, i] the eigenvector paired with phases[j, i]; the
    eigenvalue is e^{-i phases[j, i]}.  A phase within DEFAULT_UNITARY_TOL
    of -pi is counted as +pi (lifted by 2 pi, not clamped), so rounding
    cannot split an eigenspace at pi across both ends of the sort.

    A unitary U is normal, so the Hermitian zU + (zU)^dag, z = e^{i theta}
    with theta = HERMITIAN_ROTATION, has U's eigenvectors; the eigenvalues
    are the Rayleigh quotients v^dag U v.  Two eigenphases summing to
    2 theta (mod 2 pi) share an eigenvalue of zU + (zU)^dag, which may mix
    their vectors, so a matrix whose residual is above DEFAULT_RESIDUAL_TOL / 4
    is solved again by ``np.linalg.eig``.  Each matrix is solved alone, so a
    stack gives the same bits as solving each matrix alone.

    Raises NonUnitaryError when a matrix has ||U^dag U - I||_2 above
    DEFAULT_UNITARY_TOL, and EigensolveError when LAPACK does not converge
    or an eigenpair misses DEFAULT_RESIDUAL_TOL; both name the first
    failing stack index.  The unitarity bound is checked on the matrices
    sent to ``eig``, and on the whole stack before an ``eigh`` failure is
    raised.  That is exact: any other matrix has orthonormal ``eigh``
    vectors V and U V = V D + R with |d_i| = 1 and, from the residual test,
    ||R||_2 <= sqrt(n) 2.5e-11 <= 2e-10 for n <= 64, so ||U^dag U - I||_2 is
    at most about 4e-10.

    The residual certificate measures U v against e^{-i omega} v, which has
    modulus 1, so a matrix with an eigenvalue modulus off 1 by more than
    DEFAULT_RESIDUAL_TOL fails it: the effective unitarity bound is about
    1e-10 in eigenvalue modulus, not 1e-8.  Such a failure raises
    NonUnitaryError ("eigenvalue modulus defect") naming the stack index;
    a residual miss with every eigenvalue on the circle stays an
    EigensolveError.

    ``_offset`` is for callers that solve one stack in chunks: it is added
    to the stack index an error names.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 3 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {u.shape}")
    n = u.shape[-1]
    if n > EIGENSOLVE_MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds {EIGENSOLVE_MAX_DIM}")
    # a non-unitary input may warn only in the unitarity check
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = np.exp(1j * HERMITIAN_ROTATION) * u
        hermitian += adjoint(hermitian)
    try:
        vectors = np.linalg.eigh(hermitian)[1]
    except np.linalg.LinAlgError as exc:
        _check_unitary(u, slice(None), _offset)
        raise EigensolveError(f"eigensolver did not converge: {exc}") from exc
    del hermitian
    with np.errstate(over="ignore", invalid="ignore"):
        image = u @ vectors
        values = np.einsum("kij,kij->kj", vectors.conj(), image)
        phases, worst = _phases_and_worst(values, vectors, image)
    del image
    redo = np.flatnonzero(~(worst <= DEFAULT_RESIDUAL_TOL / 4))
    if redo.size:
        _check_unitary(u, redo, _offset)
        try:
            values[redo], vectors[redo] = np.linalg.eig(u[redo])
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(f"eigensolver did not converge: {exc}") from exc
        phases[redo], worst[redo] = _phases_and_worst(values[redo], vectors[redo], u[redo] @ vectors[redo])
    if not (worst <= DEFAULT_RESIDUAL_TOL).all():
        # the certificate rebuilds each eigenvalue on the unit circle, so an
        # eigenvalue off it by more than the bound is the input's fault
        modulus = np.abs(np.abs(values) - 1.0).max(axis=-1, initial=0.0)
        _check_bound(
            np.where(modulus > DEFAULT_RESIDUAL_TOL, modulus, 0.0), DEFAULT_RESIDUAL_TOL,
            NonUnitaryError, "eigenvalue modulus defect", _offset,
        )
        _check_bound(
            worst, DEFAULT_RESIDUAL_TOL, EigensolveError, "eigenpair residual", _offset
        )
    order = np.argsort(phases, axis=-1, kind="stable")
    phases = np.take_along_axis(phases, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    return phases, vectors


def phase_multiset_distance(a, b):
    """Smallest max circular mismatch over order-preserving matchings.

    The last axis holds the multisets; leading axes are a batch, so two
    (nk, n) arrays give nk distances, and two 1-D inputs give a float.
    Each multiset is sorted on the circle; the optimal min-max matching of
    two equal-size circular multisets is order preserving, so it suffices to
    scan the n cyclic offsets.  An offset whose mismatch is NaN never wins.
    Offset s > 0 is scored only on rows where its mismatch at a_0, a lower
    bound, is not >= the best so far; elsewhere fmin would keep the best.
    """
    a = np.sort(np.atleast_1d(wrap_phase(a)), axis=-1)
    b = np.sort(np.atleast_1d(wrap_phase(b)), axis=-1)
    if a.shape != b.shape:
        raise ValueError(f"multiset shapes differ: {a.shape} vs {b.shape}")
    best = np.full(a.shape[:-1], np.inf)
    np.fmin(best, circular_distance(a, b).max(axis=-1, initial=0.0), out=best)
    bounds = circular_distance(a[..., :1], b)
    for shift in range(1, a.shape[-1]):
        rows = ~(bounds[..., -shift] >= best)
        best[rows] = np.fmin(best[rows], circular_distance(a[rows], np.roll(b[rows], shift, axis=-1)).max(axis=-1))
    return float(best) if best.ndim == 0 else best

