import gc
import itertools
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cosetwalk import coarse
from cosetwalk import examples as ex
from cosetwalk.coarse import kspace_operators, lattice, shift_blocks
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
from cosetwalk.spectral import band_phases, grid_axis
from cosetwalk.walks import WalkSpec

from walk_helpers import RetileError, retile

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 5])
def test_lattice_is_the_row_major_product_of_its_axis(d, size):
    for axis in (grid_axis(size), np.arange(size)):
        points = lattice(axis, d)
        expected = np.array(list(itertools.product(axis, repeat=d)))
        assert points.shape == expected.shape == (size**d, d) and points.dtype == expected.dtype
        assert points.tobytes() == expected.tobytes()


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
    return WalkSpec(presentation, tiling, matrices)


def test_one_generator_shift_reduces_to_scalar_phase():
    walk = shift_walk_1d()
    for k in (0.0, 0.7, -2.2, np.pi):
        m = kspace_operators(walk, [(k,)])[0]
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(np.exp(-1j * k))


def test_formal_scalar_check_sums_coset_permutations(g1_flat):
    ones = {g: np.array([[1.0]], dtype=complex) for g in g1_flat.presentation.alphabet}
    formal = WalkSpec(g1_flat.presentation, g1_flat.tiling, ones)
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
            block = g1_massive.matrices[rule.generator]
            phase = np.exp(-1j * np.dot(k, rule.shift))
            single[2 * rule.target:2 * rule.target + 2, 2 * rule.coset:2 * rule.coset + 2] += phase * block
        assert_allclose(m, single, atol=1e-15)


def test_g2_factorized_form_has_equal_spectrum(g2_one, rng):
    # independent construction: sigma_z tensor (B_k sigma_z) with
    # B_k = e^{-i kx/2} A_a + e^{-i ky/2} A_b + e^{i ky/2} A_a^-1 + e^{i kx/2} A_b^-1
    mats = g2_one.matrices
    for _ in range(20):
        k = rng.uniform(-np.pi, np.pi, 2)
        kx, ky = ex.g2_wave_numbers(k)
        bk = (
            np.exp(-1j * kx / 2) * mats[A]
            + np.exp(-1j * ky / 2) * mats[B]
            + np.exp(1j * ky / 2) * mats[A_INV]
            + np.exp(1j * kx / 2) * mats[B_INV]
        )
        independent = np.kron(PAULI_Z, bk @ PAULI_Z)
        assert phase_multiset_distance(band_phases(g2_one, k), eigenpairs(independent[None])[0][0]) < 1e-12


# --- retiling ---------------------------------------------------------------


def test_shift_blocks_are_built_once_per_walk_and_read_only(g1_massive):
    shifts, blocks = shift_blocks(g1_massive)
    again = shift_blocks(g1_massive)
    assert again[0] is shifts and again[1] is blocks
    with pytest.raises(ValueError):
        blocks[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        blocks[...] = 0.0


def test_walks_on_one_tiling_never_share_blocks(rng):
    massive, flat = ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)), ex.g1_walk(ex.G1Params("II", 0.0, 1.0, 1))
    assert massive.tiling is flat.tiling
    for walk in (massive, flat):  # each walk's blocks are its own rules' sums
        shifts, blocks = shift_blocks(walk)
        expected = np.zeros_like(blocks)
        s = walk.coin_dim
        for rule in walk.tiling.rules:
            expected[shifts.index(rule.shift), s * rule.target:s * rule.target + s,
                     s * rule.coset:s * rule.coset + s] += walk.matrices[rule.generator]
        assert np.array_equal(blocks, expected)
    assert not np.shares_memory(shift_blocks(massive)[1], shift_blocks(flat)[1])
    assert not np.array_equal(shift_blocks(massive)[1], shift_blocks(flat)[1])
    k = rng.uniform(-np.pi, np.pi, (4, 2))
    assert not np.allclose(kspace_operators(massive, k), kspace_operators(flat, k))


def test_shift_block_memo_keeps_no_dropped_walk():
    gc.collect()
    held = len(coarse._BLOCKS)
    for _ in range(1000):
        shift_blocks(ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)))
    gc.collect()
    assert len(coarse._BLOCKS) == held


def test_threads_racing_on_a_new_walk_share_one_build():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            walk = ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1))
            start, seen = threading.Barrier(8), []

            def race():
                start.wait(timeout=10)
                seen.append(shift_blocks(walk)[1])

            threads = [threading.Thread(target=race) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 8 and all(blocks is shift_blocks(walk)[1] for blocks in seen)
    finally:
        sys.setswitchinterval(interval)


def test_retile_with_identical_reps_is_identity(g1_massive):
    same = retile(g1_massive, g1_massive.tiling.rep_words)
    assert same.tiling == g1_massive.tiling


def test_retile_g1_translated_rep_preserves_spectra(g1_massive, rng):
    # second representative translated by h_x: a -> (a^-1 b) a
    new_reps = ((), (A_INV, B, A), (A, A), (A, A, A))
    moved = retile(g1_massive, new_reps)
    assert not validate_tiling(moved.tiling, moved.presentation)
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
    assert not validate_tiling(moved.tiling, moved.presentation)
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
