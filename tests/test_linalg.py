import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cosetwalk import examples as ex
from cosetwalk.linalg import (
    DEFAULT_RESIDUAL_TOL,
    DEFAULT_UNITARY_TOL,
    EigensolveError,
    HERMITIAN_ROTATION,
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
from cosetwalk.spectral import dispersion_grid

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
    assert_allclose(eigenpairs(np.eye(4)[None])[0][0], np.zeros(4))


def test_eigenphases_diagonal_case():
    # eigenvalues are read as e^{-i omega}: e^{-i pi/4} -> pi/4, e^{i pi/2} -> -pi/2
    u = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 2)])
    assert_allclose(eigenpairs(u[None])[0][0], [-np.pi / 2, np.pi / 4], atol=1e-14)


def test_eigenphases_sorted_and_in_interval(rng):
    for n in (2, 3, 8):
        phases = eigenpairs(_random_unitary(rng, n)[None])[0][0]
        assert np.all(np.diff(phases) >= 0)
        assert np.all(phases > -np.pi) and np.all(phases <= np.pi)


def test_eigenpair_residuals_meet_contract(rng):
    for _ in range(10):
        u = _random_unitary(rng, 6)
        phases, vectors = (x[0] for x in eigenpairs(u[None]))
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
        phases = eigenpairs(u[None])[0][0]
        det = np.linalg.det(u)
        assert abs(np.exp(-1j * phases.sum()) - det) < 1e-8


def test_non_unitary_input_is_rejected():
    with pytest.raises(NonUnitaryError):
        eigenpairs(np.diag([1.0, 2.0])[None])


def test_error_types_are_distinct():
    assert not issubclass(NonUnitaryError, EigensolveError)
    assert not issubclass(EigensolveError, NonUnitaryError)


def test_oversized_matrix_is_rejected():
    with pytest.raises(ValueError):
        eigenpairs(np.eye(65)[None])


def test_unitarity_defect_scale():
    assert unitarity_defect(np.eye(3)) == 0.0
    assert unitarity_defect(1.1 * np.eye(2)) == pytest.approx(0.21)


def _assert_stack_equals_singles(stack):
    phases, vectors = eigenpairs(stack)
    assert phases.shape == stack.shape[:-1] and vectors.shape == stack.shape
    for i in range(len(stack)):
        single_phases, single_vectors = eigenpairs(stack[i:i + 1])
        assert phases[i:i + 1].tobytes() == single_phases.tobytes()
        assert vectors[i:i + 1].tobytes() == single_vectors.tobytes()


def test_stacked_kernel_is_bitwise_the_per_matrix_kernel(rng, g1_massive, g2_one):
    from cosetwalk.coarse import kspace_operators

    _assert_stack_equals_singles(np.stack([_random_unitary(rng, 6) for _ in range(20)]))
    kpoints = rng.uniform(-np.pi, np.pi, (25, 2))
    for walk in (g1_massive, g2_one):
        _assert_stack_equals_singles(kspace_operators(walk, kpoints))
    _assert_stack_equals_singles(np.stack([_random_unitary(rng, 5) for _ in range(6)]))


def test_frobenius_screen_defers_to_the_two_norm():
    # a sheared diagonal unitary: ||U^dag U - I||_2 = 9e-9 is inside the
    # bound, while its Frobenius norm (~1.27e-8) is not; the bound is on the 2-norm
    u = np.array([[np.exp(0.3j), 9e-9], [0, np.exp(-1.1j)]])
    assert unitarity_defect(u) < 1e-8 < np.linalg.norm(adjoint(u) @ u - np.eye(2))
    assert_allclose(eigenpairs(np.stack([u, u]))[0], [[-0.3, 1.1]] * 2, atol=1e-14)


def test_bad_matrices_in_a_stack_name_the_first_index(rng):
    stack = np.stack([_random_unitary(rng, 4) for _ in range(6)])
    good = stack.copy()
    stack[4] *= 2.0
    stack[2] *= 1.5
    with pytest.raises(NonUnitaryError, match=r"stack index \(2,\)"):
        eigenpairs(stack)
    stack = good
    stack[5] = np.nan
    with pytest.raises(NonUnitaryError, match=r"stack index \(5,\)"):
        eigenpairs(stack)


_INF_STACK = np.stack([np.eye(3)] * 2)
_INF_STACK[1, 0, 1] = np.inf
_SHEARED = np.array([[np.exp(0.3j), 1e-7], [0, np.exp(-1.1j)]])


@pytest.mark.parametrize(
    "u, message, warned",
    [
        (np.diag([1.0, 2.0])[None], "unitarity defect 3.000e+00 exceeds 1.0e-08 at stack index (0,)", set()),
        (np.stack([np.eye(3), 1.1 * np.eye(3)]), "unitarity defect 2.100e-01 exceeds 1.0e-08 at stack index (1,)", set()),
        (
            np.stack([1e200 * np.eye(3)] * 2),
            "unitarity defect nan exceeds 1.0e-08 at stack index (0,)",
            {"overflow encountered in matmul", "invalid value encountered in matmul"},
        ),
        (_INF_STACK, "unitarity defect nan exceeds 1.0e-08 at stack index (1,)", {"invalid value encountered in matmul"}),
        (np.zeros((2, 3, 3)), "unitarity defect 1.000e+00 exceeds 1.0e-08 at stack index (0,)", set()),
        (np.stack([np.eye(2), _SHEARED]), "unitarity defect 1.000e-07 exceeds 1.0e-08 at stack index (1,)", set()),
        (np.array([[1, 1e-7], [0, 1]])[None], "unitarity defect 1.000e-07 exceeds 1.0e-08 at stack index (0,)", set()),
        (
            (1 + 5e-10) * np.diag([np.exp(0.3j), np.exp(-1.1j)])[None],
            "eigenvalue modulus defect 5.000e-10 exceeds 1.0e-10 at stack index (0,)",
            set(),
        ),
    ],
)
def test_non_unitary_inputs_give_exact_messages_and_warnings(u, message, warned):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonUnitaryError) as info:
            eigenpairs(u)
    assert str(info.value) == message
    assert {str(w.message) for w in caught} == warned
    assert all(w.category is RuntimeWarning for w in caught)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 16),
    st.lists(st.tuples(st.integers(0, 5), st.floats(-12.0, -6.0), st.booleans()), max_size=4),
)
def test_every_defect_above_the_bound_is_reported_at_its_first_index(seed, count, n, perturbations):
    # general or strictly upper-triangular (non-normal) perturbations of
    # Haar unitaries, with 2-norm 10^-12 .. 10^-6, on either side of the bound
    rng = np.random.default_rng(seed)
    stack = np.stack([_random_unitary(rng, n) for _ in range(count)])
    for member, exponent, upper in perturbations:
        e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if upper:
            e = np.triu(e, 1)
        if e.any():
            stack[member % count] += 10.0**exponent * e / operator_norm(e)
    defects = unitarity_defect(stack)
    failing = np.flatnonzero(defects > DEFAULT_UNITARY_TOL)
    try:
        eigenpairs(stack)
        message = ""
    except (NonUnitaryError, EigensolveError) as exc:
        message = str(exc)
    if failing.size:
        i = int(failing[0])
        assert message == f"unitarity defect {defects[i]:.3e} exceeds 1.0e-08 at stack index ({i},)"
    else:
        assert not message.startswith("unitarity defect")


def test_eigenvalue_off_the_circle_blames_the_input(rng):
    # 2-norm defect ~1e-9 passes the 1e-8 unitarity screen, but the
    # eigenvalue moduli move by more than the 1e-10 residual bound
    q = _random_unitary(rng, 4)
    u = q.copy()
    u[0, 0] += 1e-9
    assert 1e-10 < unitarity_defect(u) < 1e-8
    with pytest.raises(NonUnitaryError, match=r"eigenvalue modulus defect .* at stack index \(2,\)"):
        eigenpairs(np.stack([q, q, u]))
    with pytest.raises(NonUnitaryError, match=r"eigenvalue modulus defect .* at stack index \(0,\)"):
        eigenpairs(u[None])


def test_residual_miss_on_the_circle_stays_a_solver_error(rng, monkeypatch):
    # both solvers mix the first two vectors by a 1e-6 rotation, so the
    # Hermitian solve and the eig fallback both miss the bound while every
    # eigenvalue (and Rayleigh quotient) stays on the circle to 1e-12
    turn = np.eye(3)
    turn[:2, :2] = [[np.cos(1e-6), -np.sin(1e-6)], [np.sin(1e-6), np.cos(1e-6)]]

    def sloppy(solve):
        def turned(a):
            values, vectors = solve(a)
            return values, vectors @ turn

        return turned

    for name in ("eigh", "eig"):
        monkeypatch.setattr(np.linalg, name, sloppy(getattr(np.linalg, name)))
    with pytest.raises(EigensolveError, match=r"eigenpair residual .* at stack index \(1,\)"):
        eigenpairs(np.stack([np.eye(3), _random_unitary(rng, 3)]))


def _unitary_with_phases(rng, phases):
    """Q diag(e^{-i phases}) Q^dag for a Haar-random Q."""
    q = _random_unitary(rng, len(phases))
    return (q * np.exp(-1j * np.asarray(phases))) @ adjoint(q)


def _assert_certified(u, phases, vectors):
    residual = np.linalg.norm(u @ vectors - vectors * np.exp(-1j * phases)[..., None, :], axis=-2)
    assert residual.max() <= DEFAULT_RESIDUAL_TOL


def test_phase_at_minus_pi_is_counted_as_plus_pi(rng):
    u = _unitary_with_phases(rng, [-np.pi + 1e-12, 0.3, -1.0, 2.0])
    phases, vectors = eigenpairs(np.stack([u, np.eye(4)]))
    assert phases[0, -1] == pytest.approx(np.pi, abs=1e-10)
    assert_allclose(phases[0, :3], [-1.0, 0.3, 2.0], atol=1e-12)
    _assert_certified(u, phases[0], vectors[0])


def test_accidental_degeneracy_takes_the_eig_fallback(rng, monkeypatch):
    # phases theta -+ 0.5 sum to 2 theta, so zU + (zU)^dag has a double
    # eigenvalue 2 cos 0.5 whose eigenspace mixes the two eigenvectors
    u = _unitary_with_phases(rng, [HERMITIAN_ROTATION - 0.5, HERMITIAN_ROTATION + 0.5, -2.0])
    stack = np.stack([_random_unitary(rng, 3), u])
    solved = []
    solve = np.linalg.eig

    def recording(a):
        solved.append(len(a))
        return solve(a)

    monkeypatch.setattr(np.linalg, "eig", recording)
    phases, vectors = eigenpairs(stack)
    assert solved == [1]
    _assert_certified(stack, phases, vectors)
    assert_allclose(phases[1], [-2.0, HERMITIAN_ROTATION - 0.5, HERMITIAN_ROTATION + 0.5], atol=1e-12)


def _not_converging(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_an_eigh_failure_is_a_solver_error_after_the_unitarity_check(rng, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _not_converging)
    with pytest.raises(EigensolveError, match="^eigensolver did not converge: Eigenvalues did not converge$"):
        eigenpairs(np.stack([_random_unitary(rng, 3), np.eye(3)]))
    # the whole stack is checked before the failure is blamed on the solver
    with pytest.raises(NonUnitaryError, match=r"^unitarity defect 3\.000e\+00 exceeds 1\.0e-08 at stack index \(1,\)$"):
        eigenpairs(np.stack([np.eye(3), 2.0 * np.eye(3)]))


def test_an_eig_failure_is_a_solver_error_after_the_unitarity_check(rng, monkeypatch):
    monkeypatch.setattr(np.linalg, "eig", _not_converging)
    u = _unitary_with_phases(rng, [HERMITIAN_ROTATION - 0.5, HERMITIAN_ROTATION + 0.5, -2.0])
    with pytest.raises(EigensolveError, match="^eigensolver did not converge: Eigenvalues did not converge$"):
        eigenpairs(np.stack([np.eye(3), u]))
    # a matrix sent to eig is checked before eig runs
    with pytest.raises(NonUnitaryError, match=r"^unitarity defect 3\.000e\+00 exceeds 1\.0e-08 at stack index \(1,\)$"):
        eigenpairs(np.stack([np.eye(3), 2.0 * np.eye(3)]))


@pytest.mark.parametrize("n", [8, 16])
def test_haar_random_stacks_are_certified_and_agree_with_eig(rng, n):
    gauss = rng.normal(size=(2048, n, n)) + 1j * rng.normal(size=(2048, n, n))
    q, r = np.linalg.qr(gauss)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    stack = q * (diagonal / np.abs(diagonal))[:, None, :]
    phases, vectors = eigenpairs(stack)
    _assert_certified(stack, phases, vectors)
    reference = wrap_phase(-np.angle(np.linalg.eigvals(stack)))
    assert phase_multiset_distance(phases, reference).max() <= 1e-12


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


def test_circular_distance_equals_the_inline_wrap_bit_for_bit(rng):
    def inline(a, b):
        return np.abs(np.mod(a - b + np.pi, 2.0 * np.pi) - np.pi)

    a = rng.uniform(-20.0, 20.0, (64, 8))
    b = rng.uniform(-20.0, 20.0, (64, 8))
    assert np.array_equal(circular_distance(a, b), inline(a, b))
    base = rng.uniform(-np.pi, np.pi, 40)
    for offset in (np.pi, -np.pi, 0.0, 2.0 * np.pi, -2.0 * np.pi):
        assert np.array_equal(circular_distance(base + offset, base), inline(base + offset, base))
        edge = np.array([offset, 0.0])
        assert np.array_equal(circular_distance(edge, 0.0), inline(edge, 0.0))


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [(w.category, str(w.message)) for w in caught]


def test_wrap_phase_equals_the_inline_wrap_bit_for_bit(rng):
    def inline(x):
        w = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
        return np.where(w == -np.pi, np.pi, w)

    specials = [2.0 * np.pi, -2.0 * np.pi, 3.0 * np.pi, -3.0 * np.pi, 1e300, -1e300, np.nan, np.inf, -np.inf]
    inputs = [rng.uniform(-50.0, 50.0, (64, 8)), rng.uniform(-np.pi, np.pi, 1000), EDGE_PHASES,
              -EDGE_PHASES, np.array(specials), np.array([np.nan, 1.0]), [1, -7, 30]]
    inputs += specials + [float(v) for v in EDGE_PHASES] + [np.array(v) for v in specials] + [-np.pi, 0, 4]
    for x in inputs:
        (wrapped, warned), (reference, expected) = _recorded(lambda: wrap_phase(x)), _recorded(lambda: inline(x))
        assert type(wrapped) is type(reference) and wrapped.shape == reference.shape
        assert np.array_equal(wrapped, reference, equal_nan=True)
        assert np.array_equal(np.signbit(wrapped), np.signbit(reference))
        assert warned == expected
    assert _recorded(lambda: wrap_phase(np.inf))[1] == [(RuntimeWarning, "invalid value encountered in remainder")]


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


def _offset_loop_distance(a, b):
    """The distance before offsets were pruned: every offset on every row."""
    a = np.sort(np.atleast_1d(wrap_phase(a)), axis=-1)
    b = np.sort(np.atleast_1d(wrap_phase(b)), axis=-1)
    if a.shape != b.shape:
        raise ValueError(f"multiset shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[-1]
    best = np.full(a.shape[:-1], 0.0 if n == 0 else np.inf)
    for shift in range(n):
        best = np.fmin(best, circular_distance(a, np.roll(b, shift, axis=-1)).max(axis=-1))
    return float(best) if best.ndim == 0 else best


# the edges of (-pi, pi] and of the window [0, 2 pi) outside which wrap_phase runs np.mod
EDGE_PHASES = np.array([np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0), 0.0, -0.0,
                        np.pi / 2, -np.pi / 2, 1e-300, -1e-300, 5e-324, 1.0, -1.0])


def _assert_same_bits(a, b):
    pruned, reference = phase_multiset_distance(a, b), _offset_loop_distance(a, b)
    assert type(pruned) is type(reference)
    assert np.array_equal(pruned, reference)
    assert np.array_equal(np.signbit(pruned), np.signbit(reference))
    return pruned


@pytest.mark.parametrize("n", range(10))
def test_pruned_distance_is_the_offset_loop_on_random_rows(rng, n):
    # a quarter of the rows are a near-copy, a quarter a near-rotation, so
    # offset 0 and the others each win somewhere; edges and ties come from a pool
    rows = 400
    a = np.where(rng.random((rows, n)) < 0.3, rng.choice(EDGE_PHASES, (rows, n)),
                 rng.uniform(-4.0, 4.0, (rows, n)))
    b = rng.uniform(-np.pi, np.pi, (rows, n))
    b[::4] = a[::4] + rng.normal(0.0, 1e-9, a[::4].shape)
    b[1::4] = a[1::4] + rng.uniform(-np.pi, np.pi, (len(a[1::4]), 1))
    assert _assert_same_bits(a, b).shape == (rows,)


def test_pruned_distance_is_the_offset_loop_on_a_batch_and_on_vectors(rng):
    for n in (0, 1, 3, 8):
        a, b = rng.uniform(-np.pi, np.pi, (2, 2, 3, n))
        assert _assert_same_bits(a, b).shape == (2, 3)
        assert isinstance(_assert_same_bits(a[0, 0], b[1, 2]), float)
    assert _assert_same_bits(0.5, -2.0) == 2.5


def test_pruned_distance_is_the_offset_loop_on_degenerate_and_wrapping_multisets(rng):
    # degenerate multisets: repeated phases, pairs at +-pi, and one phase n times
    cases = [([0.3, 0.3, -1.0, -1.0], [-1.0, 0.3, -1.0, 0.3]),
             ([np.pi, -np.pi, np.pi, 0.0], [np.pi, np.pi, 0.0, 0.0]),
             ([1.0] * 8, [1.0 + 1e-12] * 8), ([2.0] * 5, [-2.0] * 5),
             ([np.pi - 1e-9, 0.1], [-np.pi + 1e-9, 0.1]),
             ([np.nextafter(-np.pi, 0.0), 3.0, -3.0], [np.pi, -3.0, 3.0])]
    for a, b in cases:
        _assert_same_bits(a, b)
        _assert_same_bits(b, a)
    a = rng.choice(EDGE_PHASES, (500, 6))
    b = rng.choice(EDGE_PHASES, (500, 6))
    _assert_same_bits(a, b)
    _assert_same_bits(a, wrap_phase(a + np.pi))


def test_pruned_distance_never_lets_nan_win():
    a = [[np.nan, 0.0, 1.0], [np.nan, np.nan, np.nan], [0.5, 1.0, 2.0], [1.0, 2.0, 3.0]]
    b = [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [np.nan, 1.0, 2.0], [2.0, 3.0, 1.0]]
    assert _assert_same_bits(a, b).tolist() == [np.inf, np.inf, np.inf, 0.0]
    assert _assert_same_bits([np.nan, np.nan], [0.0, 1.0]) == np.inf


@pytest.mark.parametrize("name, params", [
    ("g1", "class=I"), ("g1", "n=0.6,m=0.8,class=II"), ("g2", "class=I"), ("g2", "class=II"),
])
def test_pruned_distance_is_the_offset_loop_on_the_oracle_grids(name, params):
    walk, closed_form = ex.builtin_walk(name, params)
    grid = dispersion_grid(walk, 129)
    exact = closed_form(grid.kpoints)
    assert ex.grid_oracle_deviation(grid, closed_form) == _offset_loop_distance(grid.phases, exact).max()
    _assert_same_bits(grid.phases, exact)
