import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from cosetwalk import examples as ex
from cosetwalk.groups import GroupElement, generator_pair
from cosetwalk.linalg import IDENTITY2, adjoint, operator_norm
from cosetwalk.walks import (
    IsotropySpec,
    WalkSpec,
    check_isotropy,
    isotropy_deviations,
    unitarity_residual,
)

from walk_helpers import isotropy_normalization_residual

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")


def scalar_walk(template, amplitudes):
    matrices = {g: np.array([[z]], dtype=complex) for g, z in amplitudes.items()}
    return WalkSpec(template.presentation, template.tiling, matrices)


ALL_BUILTINS = [
    ex.g1_walk(ex.G1Params(cls, n, m, sign))
    for (n, m) in [(1.0, 0.0), (0.6, 0.8), (1 / np.sqrt(2), 1 / np.sqrt(2)), (0.0, 1.0)]
    for cls in ("I", "II")
    for sign in (1, -1)
] + [ex.g2_walk("I"), ex.g2_walk("II")]


@pytest.mark.parametrize("walk", ALL_BUILTINS)
def test_builtin_walks_are_unitary(walk):
    residual, report = unitarity_residual(walk)
    assert residual < 1e-12
    identity = GroupElement.identity(walk.tiling.dimension)
    assert identity in report


def test_identity_bucket_checks_against_identity(g2_one):
    # halving one matrix leaves the f != e buckets it sits in alone only if
    # the identity bucket picks up the defect
    mats = dict(g2_one.matrices)
    mats = {g: m.copy() for g, m in mats.items()}
    for g in mats:
        mats[g] = 0.5 * mats[g]
    walk = WalkSpec(g2_one.presentation, g2_one.tiling, mats)
    residual, report = unitarity_residual(walk)
    identity = GroupElement.identity(2)
    assert report[identity] == pytest.approx(0.75)
    assert residual == pytest.approx(0.75)


def test_scalar_modulus_half_walk_has_quarter_residual(g1_flat):
    amplitudes = {g: 0.5 for g in g1_flat.presentation.alphabet}
    residual, report = unitarity_residual(scalar_walk(g1_flat, amplitudes))
    assert residual >= 0.25
    # the bucket at a b^-1 (a pure translation) holds exactly A_a A_b^dag
    assert report[GroupElement((0, -1), 0)] == pytest.approx(0.25)


def test_pure_shift_walk_is_unitary(g1_flat):
    amplitudes = {A: 1.0, B: 0.0, A_INV: 0.0, B_INV: 0.0}
    residual, _ = unitarity_residual(scalar_walk(g1_flat, amplitudes))
    assert residual == 0.0


def test_single_entry_perturbations_are_detected(g1_massive, g2_one):
    for walk in (g1_massive, g2_one):
        for g in walk.presentation.alphabet:
            for p in range(2):
                for q in range(2):
                    mats = {k: v.copy() for k, v in walk.matrices.items()}
                    mats[g][p, q] += 1e-3
                    perturbed = WalkSpec(walk.presentation, walk.tiling, mats)
                    residual, _ = unitarity_residual(perturbed)
                    assert residual >= 5e-4


# --- isotropy ---------------------------------------------------------------


@pytest.mark.parametrize("walk", ALL_BUILTINS[:16])
def test_g1_swap_covariance_with_sigma_x(walk):
    assert check_isotropy(walk, ex.swap_isotropy("sigma_x")) < 1e-12


def test_g2_swap_covariance(g2_one, g2_two):
    assert check_isotropy(g2_one, ex.g2_isotropy("I")) < 1e-12
    assert check_isotropy(g2_two, ex.g2_isotropy("II")) < 1e-12
    # the coin representing the swap differs between the two variants
    assert check_isotropy(g2_two, ex.g2_isotropy("I")) > 0.1


def test_identity_automorphism_is_always_covariant(g1_massive):
    labels = g1_massive.presentation.alphabet
    iso = IsotropySpec({g: g for g in labels}, np.eye(2))
    assert check_isotropy(g1_massive, iso) == 0.0


def test_isotropy_spec_validation():
    labels = (A, A_INV, B, B_INV)
    with pytest.raises(ValueError):  # not a bijection
        IsotropySpec({A: B, B: B, A_INV: B_INV, B_INV: B_INV}, np.eye(2))
    with pytest.raises(ValueError):  # breaks inversion
        IsotropySpec({A: B, B: A, A_INV: A_INV, B_INV: B_INV}, np.eye(2))
    with pytest.raises(ValueError):  # not unitary
        IsotropySpec({g: g for g in labels}, np.diag([1.0, 2.0]))


def test_coin_dimension_mismatch_is_rejected(g1_massive):
    iso = IsotropySpec({g: g for g in g1_massive.presentation.alphabet}, np.eye(3))
    with pytest.raises(ValueError):
        check_isotropy(g1_massive, iso)


def test_permutation_must_act_on_every_letter(g1_massive):
    iso = IsotropySpec({A: A_INV, A_INV: A}, IDENTITY2)
    with pytest.raises(ValueError, match="permutation does not act on b"):
        check_isotropy(g1_massive, iso)


def _letter_loop_isotropy(walk, iso):
    """The former per-letter covariance loop."""
    u = iso.coin_unitary
    mats = walk.matrices
    worst = 0.0
    for g in walk.presentation.alphabet:
        worst = max(worst, operator_norm(mats[iso.permutation[g]] - u @ mats[g] @ adjoint(u)))
    return worst


@pytest.mark.parametrize("seed", [0, 7, 20240811])
def test_isotropy_deviations_equal_the_per_family_loop_bitwise(seed, g1_massive):
    alphabet = g1_massive.presentation.alphabet
    gen = np.random.default_rng(seed)
    stack = gen.normal(size=(9, len(alphabet), 2, 2)) + 1j * gen.normal(size=(9, len(alphabet), 2, 2))
    walks = [
        WalkSpec(g1_massive.presentation, g1_massive.tiling, dict(zip(alphabet, m)))
        for m in stack
    ]
    isos = [ex.swap_isotropy("sigma_x"), ex.g2_isotropy("I"), IsotropySpec({g: g for g in alphabet}, IDENTITY2)]
    for iso in isos:
        deviations = isotropy_deviations(alphabet, stack, iso)
        assert deviations.shape == (9,)
        expected = np.array([check_isotropy(walk, iso) for walk in walks])
        assert deviations.tobytes() == expected.tobytes()
        assert expected.tobytes() == np.array([_letter_loop_isotropy(w, iso) for w in walks]).tobytes()
    per_family = isotropy_deviations(alphabet, stack[:3], isos)
    assert per_family.tobytes() == np.array(
        [check_isotropy(walk, iso) for walk, iso in zip(walks, isos)]
    ).tobytes()


@pytest.mark.filterwarnings("error")
def test_isotropy_deviations_score_a_non_finite_family_nan(g1_massive):
    alphabet = g1_massive.presentation.alphabet
    good = g1_massive.matrix_stack()
    bad = good.copy()
    bad[3, 1, 0] = np.inf
    deviations = isotropy_deviations(alphabet, np.stack([good, bad, good]), ex.swap_isotropy("sigma_x"))
    assert np.isnan(deviations[1])
    assert deviations[0] == deviations[2] == check_isotropy(g1_massive, ex.swap_isotropy("sigma_x"))
    with pytest.raises(ValueError, match="expected"):
        isotropy_deviations(alphabet, good, ex.swap_isotropy("sigma_x"))


# --- normalization ----------------------------------------------------------


@pytest.mark.parametrize("sign", [1, -1])
def test_normalization_of_base_families(sign):
    for cls in ("I", "II"):
        walk = ex.g1_walk(ex.G1Params(cls, 1.0, 0.0, sign))
        assert isotropy_normalization_residual(walk) < 1e-14
    assert isotropy_normalization_residual(ex.g2_walk("I")) < 1e-14
    assert isotropy_normalization_residual(ex.g2_walk("II")) < 1e-14


def test_normalization_residual_equals_mixing_distance():
    walk = ex.g1_walk(ex.G1Params("I", 0.6, 0.8, 1))
    # sum of the base matrices is I, so the residual is ||Z - I|| = sqrt(2 - 2n)
    assert isotropy_normalization_residual(walk) == pytest.approx(np.sqrt(0.8))


# --- construction validation ------------------------------------------------


def test_walkspec_rejects_mismatched_alphabets(g1_flat):
    matrices = {A: IDENTITY2, A_INV: IDENTITY2}
    with pytest.raises(ValueError):
        WalkSpec(g1_flat.presentation, g1_flat.tiling, matrices)


@pytest.mark.parametrize("bad, name", [
    ({B: np.eye(3)}, "b"),
    ({A: np.ones((2, 3))}, "a"),
    ({g: np.zeros((0, 0)) for g in (A, A_INV, B, B_INV)}, "a"),
    ({B_INV: np.ones(2)}, "b^-1"),
], ids=["one-3x3-among-2x2", "2x3", "0x0-everywhere", "1-d"])
def test_walk_spec_rejects_bad_matrix_shapes(g1_flat, bad, name):
    matrices = {**g1_flat.matrices, **bad}
    with pytest.raises(ValueError, match=rf"^matrix for {re.escape(name)} has shape"):
        WalkSpec(g1_flat.presentation, g1_flat.tiling, matrices)


def test_transition_matrices_are_frozen(g1_flat):
    m = g1_flat.matrices[A]
    with pytest.raises(ValueError):
        m[0, 0] = 7.0
    # the walk keeps a copy: a later change to the caller's array does not reach it
    matrices = {g: m.copy() for g, m in g1_flat.matrices.items()}
    walk = WalkSpec(g1_flat.presentation, g1_flat.tiling, matrices)
    matrices[A][0, 0] += 1.0
    assert_array_equal(walk.matrices[A], g1_flat.matrices[A])


def test_unitarity_transfer_to_fiber_operators(g1_massive, g2_one, rng):
    from cosetwalk.coarse import kspace_operators
    from cosetwalk.linalg import unitarity_defect

    for walk in (g1_massive, g2_one):
        mats = {k: v.copy() for k, v in walk.matrices.items()}
        mats[A][0, 0] += 2e-4
        perturbed = WalkSpec(walk.presentation, walk.tiling, mats)
        residual, _ = unitarity_residual(perturbed)
        bound = len(walk.presentation.alphabet) * residual
        for _ in range(10):
            k = rng.uniform(-np.pi, np.pi, 2)
            assert unitarity_defect(kspace_operators(perturbed, [k])[0]) < bound
