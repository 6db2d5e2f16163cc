import numpy as np
import pytest
from numpy.testing import assert_allclose

from cosetwalk import examples as ex
from cosetwalk.coarse import RetileError, kspace_operators, retile
from cosetwalk.groups import (
    GroupPresentation,
    TilingData,
    TilingRule,
    generator_pair,
    validate_tiling,
)
from cosetwalk.linalg import (
    PAULI_Z,
    eigenpairs,
    phase_multiset_distance,
    unitarity_defect,
)
from cosetwalk.spectral import band_phases
from cosetwalk.walks import TransitionFamily, WalkSpec

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")


def test_fiber_operators_are_unitary_for_builtin_walks(g1_massive, g2_one, rng):
    for walk in (g1_massive, g2_one):
        for _ in range(10):
            k = rng.uniform(-np.pi, np.pi, 2)
            assert unitarity_defect(kspace_operators(walk, [k])[0]) < 1e-12


def test_g2_fiber_operator_is_block_off_diagonal(g2_one, rng):
    for _ in range(5):
        m = kspace_operators(g2_one, [rng.uniform(-np.pi, np.pi, 2)])[0]
        assert np.all(m[:2, :2] == 0)
        assert np.all(m[2:, 2:] == 0)


def test_g1_flat_point_spectrum(g1_flat):
    # class I at (1, 0): the fiber spectrum is {0 x4, pi x4} at every k
    phases = band_phases(g1_flat, (0.0, 0.0))
    expected = np.sort([0.0, 0.0, 0.0, 0.0, np.pi, np.pi, np.pi, np.pi])
    assert phase_multiset_distance(phases, expected) < 1e-12
    phases = band_phases(g1_flat, (1.2, -0.7))
    assert phase_multiset_distance(phases, expected) < 1e-12


def shift_walk_1d():
    t, t_inv = generator_pair("t")
    presentation = GroupPresentation((t,), ())
    tiling = TilingData(
        dimension=1,
        index=1,
        rep_words=((),),
        rules=(TilingRule(t, 0, 0, (1,)), TilingRule(t_inv, 0, 0, (-1,))),
    )
    matrices = {t: np.array([[1.0]], dtype=complex), t_inv: np.array([[0.0]], dtype=complex)}
    return WalkSpec(presentation, tiling, TransitionFamily(1, matrices))


def test_one_generator_shift_reduces_to_scalar_phase():
    walk = shift_walk_1d()
    for k in (0.0, 0.7, -2.2, np.pi):
        m = kspace_operators(walk, [(k,)])[0]
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(np.exp(-1j * k))


def test_formal_scalar_check_sums_coset_permutations(g1_flat):
    ones = {g: np.array([[1.0]], dtype=complex) for g in g1_flat.presentation.alphabet}
    formal = WalkSpec(g1_flat.presentation, g1_flat.tiling, TransitionFamily(1, ones))
    m = kspace_operators(formal, [(0.0, 0.0)])[0]
    # a and b step cosets downward, their inverses upward: 2 per neighbor
    expected = np.zeros((4, 4))
    for j in range(4):
        expected[(j - 1) % 4, j] += 2
        expected[(j + 1) % 4, j] += 2
    assert_allclose(m, expected)


def test_batched_operators_match_single_builds(g1_massive, rng):
    # independent build: one block (target, coset) per table rule, summed
    # with its phase e^{-i k.h} at one wave-vector at a time
    kpoints = rng.uniform(-np.pi, np.pi, (7, 2))
    batch = kspace_operators(g1_massive, kpoints)
    for k, m in zip(kpoints, batch):
        single = np.zeros((8, 8), dtype=complex)
        for rule in g1_massive.tiling.rules:
            block = g1_massive.transitions.matrix(rule.generator)
            phase = np.exp(-1j * np.dot(k, rule.shift))
            single[2 * rule.target:2 * rule.target + 2, 2 * rule.coset:2 * rule.coset + 2] += phase * block
        assert_allclose(m, single, atol=1e-15)


def test_g2_factorized_form_has_equal_spectrum(g2_one, rng):
    # independent construction: sigma_z tensor (B_k sigma_z) with
    # B_k = e^{-i kx/2} A_a + e^{-i ky/2} A_b + e^{i ky/2} A_a^-1 + e^{i kx/2} A_b^-1
    mats = g2_one.transitions
    for _ in range(20):
        k = rng.uniform(-np.pi, np.pi, 2)
        kx, ky = ex.g2_wave_numbers(k)
        bk = (
            np.exp(-1j * kx / 2) * mats.matrix(A)
            + np.exp(-1j * ky / 2) * mats.matrix(B)
            + np.exp(1j * ky / 2) * mats.matrix(A_INV)
            + np.exp(1j * kx / 2) * mats.matrix(B_INV)
        )
        independent = np.kron(PAULI_Z, bk @ PAULI_Z)
        assert phase_multiset_distance(band_phases(g2_one, k), eigenpairs(independent)[0]) < 1e-12


# --- retiling ---------------------------------------------------------------


def test_retile_with_identical_reps_is_identity(g1_massive):
    same = retile(g1_massive, g1_massive.tiling.rep_words)
    assert same.tiling == g1_massive.tiling


def test_retile_g1_translated_rep_preserves_spectra(g1_massive, rng):
    # second representative translated by h_x: a -> (a^-1 b) a
    new_reps = ((), (A_INV, B, A), (A, A), (A, A, A))
    moved = retile(g1_massive, new_reps)
    assert validate_tiling(moved.tiling, moved.presentation).ok
    for _ in range(20):
        k = rng.uniform(-np.pi, np.pi, 2)
        d = phase_multiset_distance(
            band_phases(g1_massive, k),
            band_phases(moved, k),
        )
        assert d < 1e-9


def test_retile_g2_rep_a_preserves_spectra(g2_one, rng):
    # h_2 a^-1 = a, so (a) is the coset-1 representative translated by h_2
    moved = retile(g2_one, ((), (A,)))
    assert validate_tiling(moved.tiling, moved.presentation).ok
    for _ in range(20):
        k = rng.uniform(-np.pi, np.pi, 2)
        d = phase_multiset_distance(
            band_phases(g2_one, k),
            band_phases(moved, k),
        )
        assert d < 1e-9


def test_retile_rejects_non_transversal_words(g2_one):
    with pytest.raises(RetileError):
        retile(g2_one, ((), (A, A)))  # a^2 sits in coset 0


def test_retile_rejects_moving_the_identity_rep(g2_one):
    with pytest.raises(RetileError):
        retile(g2_one, ((A, A), (A_INV,)))


def test_retile_rejects_wrong_word_count(g2_one):
    with pytest.raises(RetileError):
        retile(g2_one, ((),))
