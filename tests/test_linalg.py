import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cosetwalk.linalg import (
    EigensolveError,
    IDENTITY2,
    NonUnitaryError,
    PAULI_X,
    adjoint,
    circular_distance,
    eigenpairs,
    operator_norm,
    phase_multiset_distance,
    unitarity_defect,
    wrap_phase,
)

complex_matrices = arrays(
    np.complex128,
    st.tuples(st.shared(st.integers(1, 6), key="n"), st.shared(st.integers(1, 6), key="n")),
    elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


@given(complex_matrices)
def test_adjoint_is_involution(m):
    assert_allclose(adjoint(adjoint(m)), m)


def test_pauli_x_squares_to_identity():
    assert_allclose(PAULI_X @ PAULI_X, IDENTITY2)


def test_phase_factor_modulus():
    zeta = (1 + 1j) / 2
    assert zeta * np.conj(zeta) == pytest.approx(0.5)


def test_operator_norm_values():
    assert operator_norm(np.eye(4)) == pytest.approx(1.0)
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(2.0 * PAULI_X) == pytest.approx(2.0)


def test_operator_norm_of_1x1_stacks_is_the_modulus_without_an_svd(monkeypatch):
    gen = np.random.default_rng(3)
    m = gen.normal(size=(500, 1, 1)) + 1j * gen.normal(size=(500, 1, 1))
    m *= 10.0 ** gen.integers(-8, 8, m.shape)
    svd = np.linalg.svd(m, compute_uv=False)[:, 0]
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: pytest.fail("ran an SVD"))
    norms = operator_norm(m)
    assert_allclose(norms, svd, rtol=1e-15, atol=0.0)
    m[[4, 9], 0, 0] = [np.inf, complex(0.0, np.nan)]
    norms = operator_norm(m)
    assert np.isnan(norms[[4, 9]]).all() and np.isfinite(np.delete(norms, [4, 9])).all()
    assert np.isnan(operator_norm(np.array([[np.inf]])))
    assert operator_norm(np.array([[3.0 - 4.0j]])) == 5.0


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_eigenphases_identity():
    assert_allclose(eigenpairs(np.eye(4))[0], np.zeros(4))


def test_eigenphases_diagonal_case():
    # eigenvalues are read as e^{-i omega}: e^{-i pi/4} -> pi/4, e^{i pi/2} -> -pi/2
    u = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 2)])
    assert_allclose(eigenpairs(u)[0], [-np.pi / 2, np.pi / 4], atol=1e-14)


def test_eigenphases_sorted_and_in_interval(rng):
    for n in (2, 3, 8):
        phases = eigenpairs(_random_unitary(rng, n))[0]
        assert np.all(np.diff(phases) >= 0)
        assert np.all(phases > -np.pi) and np.all(phases <= np.pi)


def test_eigenpair_residuals_meet_contract(rng):
    for _ in range(10):
        u = _random_unitary(rng, 6)
        phases, vectors = eigenpairs(u)
        residual = np.linalg.norm(
            u @ vectors - vectors * np.exp(-1j * phases)[None, :], axis=0
        )
        assert residual.max() <= 1e-10


def test_unitary_spectrum_has_unit_moduli(rng):
    u = _random_unitary(rng, 8)
    values = np.linalg.eigvals(u)
    assert np.abs(np.abs(values) - 1.0).max() < 1e-10


def test_determinant_matches_phase_product(rng):
    for _ in range(5):
        u = _random_unitary(rng, 5)
        phases = eigenpairs(u)[0]
        det = np.linalg.det(u)
        assert abs(np.exp(-1j * phases.sum()) - det) < 1e-8


def test_non_unitary_input_is_rejected():
    with pytest.raises(NonUnitaryError):
        eigenpairs(np.diag([1.0, 2.0]))


def test_error_types_are_distinct():
    assert not issubclass(NonUnitaryError, EigensolveError)
    assert not issubclass(EigensolveError, NonUnitaryError)


def test_oversized_matrix_is_rejected():
    with pytest.raises(ValueError):
        eigenpairs(np.eye(65))


def test_unitarity_defect_scale():
    assert unitarity_defect(np.eye(3)) == 0.0
    assert unitarity_defect(1.1 * np.eye(2)) == pytest.approx(0.21)


def _assert_stack_equals_singles(stack):
    phases, vectors = eigenpairs(stack)
    assert phases.shape == stack.shape[:-1] and vectors.shape == stack.shape
    for idx in np.ndindex(stack.shape[:-2]):
        single_phases, single_vectors = eigenpairs(stack[idx])
        assert phases[idx].tobytes() == single_phases.tobytes()
        assert vectors[idx].tobytes() == single_vectors.tobytes()


def test_stacked_kernel_is_bitwise_the_per_matrix_kernel(rng, g1_massive, g2_one):
    from cosetwalk.coarse import kspace_operators

    _assert_stack_equals_singles(np.stack([_random_unitary(rng, 6) for _ in range(20)]))
    kpoints = rng.uniform(-np.pi, np.pi, (25, 2))
    for walk in (g1_massive, g2_one):
        _assert_stack_equals_singles(kspace_operators(walk, kpoints))
    grid = np.stack([np.stack([_random_unitary(rng, 5) for _ in range(3)]) for _ in range(2)])
    _assert_stack_equals_singles(grid)


def test_frobenius_screen_defers_to_the_two_norm():
    # a sheared diagonal unitary: ||U^dag U - I||_2 = 9e-9 is inside the
    # bound, while the Frobenius norm (~1.27e-8) that screens the stack is not
    u = np.array([[np.exp(0.3j), 9e-9], [0, np.exp(-1.1j)]])
    assert unitarity_defect(u) < 1e-8 < np.linalg.norm(adjoint(u) @ u - np.eye(2))
    assert_allclose(eigenpairs(np.stack([u, u]))[0], [[-0.3, 1.1]] * 2, atol=1e-14)


def test_bad_matrices_in_a_stack_name_the_first_index(rng):
    stack = np.stack([np.stack([_random_unitary(rng, 4) for _ in range(3)]) for _ in range(2)])
    good = stack.copy()
    stack[1, 1] *= 2.0
    stack[0, 2] *= 1.5
    with pytest.raises(NonUnitaryError, match=r"stack index \(0, 2\)"):
        eigenpairs(stack)
    stack = good
    stack[1, 2] = np.nan
    with pytest.raises(NonUnitaryError, match=r"stack index \(1, 2\)"):
        eigenpairs(stack)



def test_eigenvalue_off_the_circle_blames_the_input(rng):
    # 2-norm defect ~1e-9 passes the 1e-8 unitarity screen, but the
    # eigenvalue moduli move by more than the 1e-10 residual bound
    q = _random_unitary(rng, 4)
    u = q.copy()
    u[0, 0] += 1e-9
    assert 1e-10 < unitarity_defect(u) < 1e-8
    with pytest.raises(NonUnitaryError, match=r"eigenvalue modulus defect .* at stack index \(2,\)"):
        eigenpairs(np.stack([q, q, u]))
    with pytest.raises(NonUnitaryError, match="eigenvalue modulus defect"):
        eigenpairs(u)


def test_residual_miss_on_the_circle_stays_a_solver_error(rng, monkeypatch):
    solve = np.linalg.eig

    def sloppy(a):
        values, vectors = solve(a)
        return values, vectors + 1e-6

    monkeypatch.setattr(np.linalg, "eig", sloppy)
    with pytest.raises(EigensolveError, match=r"eigenpair residual .* at stack index \(1,\)"):
        eigenpairs(np.stack([np.eye(3), _random_unitary(rng, 3)]))

# --- phase wrapping and multiset comparison --------------------------------


@given(st.floats(-50.0, 50.0))
def test_wrap_phase_lands_in_principal_interval(x):
    w = float(wrap_phase(x))
    assert -np.pi < w <= np.pi
    assert abs((np.exp(1j * w) - np.exp(1j * x)).real) < 1e-9
    assert abs((np.exp(1j * w) - np.exp(1j * x)).imag) < 1e-9


def test_wrap_phase_boundary_maps_to_positive_pi():
    assert float(wrap_phase(-np.pi)) == np.pi
    assert float(wrap_phase(np.pi)) == np.pi


def test_multiset_distance_handles_wraparound():
    eps = 1e-6
    a = [np.pi - eps, 0.1]
    b = [-np.pi + eps, 0.1]
    assert phase_multiset_distance(a, b) == pytest.approx(2 * eps, rel=1e-6)


def test_multiset_distance_rejects_size_mismatch():
    with pytest.raises(ValueError):
        phase_multiset_distance([0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        phase_multiset_distance(np.zeros((3, 4)), np.zeros((2, 4)))


@given(
    phases=st.lists(st.floats(-3.1, 3.1), min_size=1, max_size=8),
    shift=st.floats(-10.0, 10.0),
)
def test_multiset_distance_detects_common_rotation(phases, shift):
    a = np.asarray(phases)
    d = phase_multiset_distance(a, wrap_phase(a + shift))
    expected = float(circular_distance(shift, 0.0))
    assert d <= expected + 1e-9


def test_multiset_distance_zero_on_permutations(rng):
    a = rng.uniform(-np.pi, np.pi, 8)
    assert phase_multiset_distance(a, rng.permutation(a)) == 0.0


def _loop_multiset_distance(a, b):
    """The per-offset Python loop the batched distance replaced."""
    a = np.sort(wrap_phase(np.ravel(a)))
    b = np.sort(wrap_phase(np.ravel(b)))
    best = np.inf
    for shift in range(a.size):
        d = circular_distance(a, np.roll(b, shift)).max()
        if d < best:
            best = float(d)
    return best


def test_batched_multiset_distance_rows_equal_scalar_calls(rng):
    # values drawn from a small pool give exact ties inside and across rows,
    # with entries at +-pi and -0.0; the rest are uniform on the circle
    pool = np.array([np.pi, -np.pi, 0.0, -0.0, np.pi - 1e-12, 0.5, -2.5])
    rows, n = 400, 8
    a = np.where(rng.random((rows, n)) < 0.5, rng.choice(pool, (rows, n)),
                 rng.uniform(-np.pi, np.pi, (rows, n)))
    b = np.where(rng.random((rows, n)) < 0.5, rng.choice(pool, (rows, n)),
                 rng.uniform(-np.pi, np.pi, (rows, n)))
    b[::4] = rng.permuted(a[::4], axis=1)
    batched = phase_multiset_distance(a, b)
    assert batched.shape == (rows,)
    for i in range(rows):
        single = phase_multiset_distance(a[i], b[i])
        assert isinstance(single, float)
        assert batched[i] == single == _loop_multiset_distance(a[i], b[i])
    assert np.all(batched[::4] == 0.0)


def test_multiset_distance_with_nan_is_infinite():
    # a NaN phase must never compare as a match, so it cannot pass a tolerance
    assert phase_multiset_distance([np.nan, 0.0], [0.0, 0.0]) == np.inf
    batched = phase_multiset_distance([[np.nan, 0.0], [0.5, 1.0]], [[0.0, 0.0], [1.0, 0.5]])
    assert batched.tolist() == [np.inf, 0.0]
