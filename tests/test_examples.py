from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cosetwalk import examples as ex
from cosetwalk import walks
from cosetwalk.groups import generator_pair, validate_tiling
from cosetwalk.io import dumps_walk, loads_walk
from cosetwalk.linalg import PAULI_X, PAULI_Z, adjoint, phase_multiset_distance, wrap_phase
from cosetwalk.spectral import band_phases, dispersion_grid, grid_axis
from cosetwalk.walks import WalkSpec

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")


def test_g1_params_validation():
    with pytest.raises(ValueError):
        ex.G1Params("III", 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        ex.G1Params("I", 0.6, 0.7, 1)
    with pytest.raises(ValueError):
        ex.G1Params("I", -0.6, 0.8, 1)
    with pytest.raises(ValueError):
        ex.G1Params("I", 1.0, 0.0, 2)


def test_g1_base_matrix_values():
    walk = ex.g1_walk(ex.G1Params("I", 1.0, 0.0, 1))
    assert_allclose(
        walk.matrices[A], (1 + 1j) / 2 * np.diag([1.0, 0.0])
    )
    assert_allclose(
        walk.matrices[B_INV], (1 - 1j) / 2 * np.diag([0.0, 1.0])
    )


def test_g1_class_two_crosses_inverse_assignments():
    base_one = ex.g1_base_matrices("I", 1)
    base_two = ex.g1_base_matrices("II", 1)
    assert_allclose(base_two[A_INV], adjoint(base_one[B]))
    assert_allclose(base_two[B_INV], adjoint(base_one[A]))
    assert_allclose(base_two[A], base_one[A])


def test_g1_walk_left_multiplies_the_mixing_unitary():
    params = ex.G1Params("I", 0.6, 0.8, -1)
    walk = ex.g1_walk(params)
    z = 0.6 * np.eye(2) - 0.8j * PAULI_X  # Z = n I + i sign m sigma_x
    base = ex.g1_base_matrices("I", -1)
    for g in walk.presentation.alphabet:
        assert_allclose(walk.matrices[g], z @ base[g])


def test_builtin_tilings_are_clean():
    for walk in (ex.g1_walk(), ex.g2_walk("I"), ex.g2_walk("II")):
        assert not validate_tiling(walk.tiling, walk.presentation)


@pytest.mark.parametrize("walk", [
    ex.g1_walk(), ex.g1_walk(ex.G1Params("II", 0.6, 0.8, -1)), ex.g2_walk("I"), ex.g2_walk("II"),
], ids=["g1", "g1-II-minus", "g2", "g2-II"])
def test_every_rule_label_is_a_matrix_key(walk):
    # the very key object, not an equal copy: a lookup by a copy runs the
    # dataclass __eq__ instead of the identity shortcut
    keys = list(walk.matrices)
    for rule in walk.tiling.rules:
        assert any(rule.generator is key for key in keys), rule


def test_builtin_walks_share_one_presentation_and_tiling_per_group():
    members = [
        ex.g1_walk(ex.G1Params(walk_class, n, float(np.sqrt(1.0 - n * n)), sign))
        for walk_class in ("I", "II") for sign in (1, -1) for n in (0.0, 0.3, 0.6, 0.8, 1.0)
    ] + [ex.g1_walk(), ex.builtin_walk("g1", "n=0.6,m=0.8,class=II,sign=-")[0]]
    assert all(walk.presentation is members[0].presentation for walk in members)
    assert all(walk.tiling is members[0].tiling for walk in members)
    g2 = [ex.g2_walk("I"), ex.g2_walk("II"), ex.builtin_walk("g2", "class=II")[0]]
    assert all(walk.presentation is g2[0].presentation and walk.tiling is g2[0].tiling for walk in g2)
    assert g2[0].tiling is not members[0].tiling and g2[0].presentation is not members[0].presentation
    # each walk still owns its matrices, and the shared objects export as before
    assert len({id(walk.matrices) for walk in members + g2}) == len(members + g2)
    golden = Path(__file__).parent / "golden"
    assert dumps_walk(ex.g1_walk()).encode("utf-8") == (golden / "g1.json").read_bytes()
    assert dumps_walk(ex.g2_walk()).encode("utf-8") == (golden / "g2.json").read_bytes()


def _assert_same_buckets(left, right):
    assert left.products == right.products
    for field in ("pairs", "columns", "identity_rows"):
        assert np.array_equal(getattr(left, field), getattr(right, field)), field


@pytest.mark.parametrize("make", [ex.g1_walk, lambda: ex.g2_walk("II")], ids=["g1", "g2-II"])
def test_a_file_round_trip_gives_a_distinct_equal_tiling_with_equal_buckets(make):
    walk = make()
    loaded = loads_walk(dumps_walk(walk))
    shared, copy = walk.tiling, loaded.tiling
    assert copy is not shared
    # the built-in rows are listed by (letter, coset), as the file lists them
    assert copy == shared
    assert loaded.presentation == walk.presentation
    alphabet = walk.presentation.alphabet
    fresh = walks._pair_buckets.__wrapped__(shared, alphabet)
    _assert_same_buckets(walks._pair_buckets(shared, alphabet), fresh)
    # the equal table finds the built-in's cache entry instead of building its own
    assert walks._pair_buckets(copy, loaded.presentation.alphabet) is walks._pair_buckets(shared, alphabet)


def test_round_tripped_builtins_equal_their_tables_and_share_two_cache_entries():
    corners = [(cls, n, sign) for cls in ("I", "II") for n in (0.0, 0.6, 1.0) for sign in (1, -1)]
    builtins = [ex.g1_walk(ex.G1Params(cls, n, float(np.sqrt(1.0 - n * n)), sign)) for cls, n, sign in corners]
    builtins += [ex.g2_walk("I"), ex.g2_walk("II")]
    walks._pair_buckets.cache_clear()
    for walk in builtins:
        loaded = loads_walk(dumps_walk(walk))
        assert loaded.tiling == walk.tiling and hash(loaded.tiling) == hash(walk.tiling)
        assert walks.unitarity_residual(loaded) == walks.unitarity_residual(walk)
    # one entry per built-in group: a loaded table is a key equal to its built-in one
    assert walks._pair_buckets.cache_info().currsize == 2


def test_g2_variant_two_is_antiunitary_image(g2_one, g2_two):
    y = ex.ANTIUNITARY_Y
    for g in g2_one.presentation.alphabet:
        assert_allclose(
            g2_two.matrices[g],
            y @ g2_one.matrices[g].T @ adjoint(y),
            atol=1e-15,
        )
    # the map lands back on the same four matrices, permuted among letters
    assert_allclose(g2_two.matrices[A], g2_one.matrices[B], atol=1e-15)
    assert_allclose(g2_two.matrices[A_INV], g2_one.matrices[A], atol=1e-15)


def test_transition_sums_are_identity_for_normalized_solutions(g2_one, g2_two):
    for walk in (g2_one, g2_two, ex.g1_walk(ex.G1Params("I", 1.0, 0.0, -1))):
        total = sum(walk.matrices[g] for g in walk.presentation.alphabet)
        assert_allclose(total, np.eye(2), atol=1e-15)


# --- closed forms ------------------------------------------------------------


def test_g1_closed_form_flat_branch():
    expected = np.sort(wrap_phase([0.0] * 4 + [np.pi] * 4))
    assert_allclose(ex.g1_closed_form((0.0, 0.0), 0.0, "I"), expected)
    assert_allclose(ex.g1_closed_form((2.1, -0.4), 0.0, "I"), expected)


def test_g1_closed_form_class_two_values():
    c = 0.9272952180016122  # arccos(0.6)
    phases = ex.g1_closed_form((0.0, 0.0), 0.6, "II")
    expected = np.sort(np.repeat([-np.pi + c, -c, c, np.pi - c], 2))
    assert_allclose(phases, expected, atol=1e-15)


def test_g1_closed_form_full_weight_values():
    # nu = 1 at k = 0: alpha = 1, the bands collapse onto {0 x4, pi x4}
    expected = np.sort(wrap_phase([0.0] * 4 + [np.pi] * 4))
    assert phase_multiset_distance(ex.g1_closed_form((0.0, 0.0), 1.0, "II"), expected) < 1e-15
    # alpha vanishes at (pi, pi) for every weight: same set as nu = 0
    assert_allclose(
        ex.g1_closed_form((np.pi, np.pi), 1.0, "II"),
        ex.g1_closed_form((0.0, 0.0), 0.0, "II"),
        atol=1e-15,
    )


def test_g1_closed_form_rejects_bad_weight():
    with pytest.raises(ValueError):
        ex.g1_closed_form((0.0, 0.0), 1.0001, "I")


def _grid_kpoints(resolution):
    axis = grid_axis(resolution)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("closed_form", [
    lambda k: ex.g1_closed_form(k, 0.8, "I"),
    lambda k: ex.g1_closed_form(k, 0.6, "II"),
    lambda k: ex.g1_closed_form(k, 1.0, "II"),
    ex.g2_closed_form,
], ids=["g1-I", "g1-II", "g1-II-full", "g2"])
def test_batched_closed_forms_equal_stacked_single_k(closed_form):
    kpoints = _grid_kpoints(33)
    batched = closed_form(kpoints)
    stacked = np.stack([closed_form(k) for k in kpoints])
    assert batched.shape == stacked.shape == (33 * 33, stacked.shape[1])
    assert batched.tobytes() == stacked.tobytes()


def test_batched_closed_form_guards_raise(monkeypatch):
    kpoints = np.array([[np.pi, np.pi], [0.0, 0.0], [np.pi, 0.0]])
    for nu in (-0.1, 1.0001):
        with pytest.raises(ValueError, match="effective weight"):
            ex.g1_closed_form(kpoints, nu, "II")
    with pytest.raises(ValueError, match="shape"):
        ex.g1_closed_form(np.zeros((2, 3)), 0.5)
    # alpha <= nu <= 1 in exact arithmetic, so push one row past the
    # arccos domain by inflating the square root
    sqrt = np.sqrt
    monkeypatch.setattr(np, "sqrt", lambda x: 1.01 * sqrt(x))
    with pytest.raises(ValueError, match="arccos domain"):
        ex.g1_closed_form(kpoints, 0.995, "I")


def test_grid_oracle_deviation_is_worst_single_k_distance(g1_massive):
    grid = dispersion_grid(g1_massive, 9)

    def closed_form(k):
        return ex.g1_closed_form(k, 0.6, "II")

    per_k = [
        phase_multiset_distance(phases, closed_form(k))
        for k, phases in zip(grid.kpoints, grid.phases)
    ]
    assert ex.grid_oracle_deviation(grid, closed_form) == max(per_k)


def test_g1_effective_weight():
    assert ex.g1_effective_weight(ex.G1Params("I", 0.6, 0.8, 1)) == 0.8
    assert ex.g1_effective_weight(ex.G1Params("II", 0.6, 0.8, 1)) == 0.6


def test_g2_wave_numbers():
    kx, ky = ex.g2_wave_numbers((0.3, -0.1))
    assert kx == pytest.approx(0.2)
    assert ky == pytest.approx(0.4)


def test_g2_closed_form_values():
    third = np.pi / 3
    assert_allclose(
        ex.g2_closed_form((np.pi / 2, np.pi / 2)),
        np.sort([np.pi / 2 - third, np.pi / 2 + third, -np.pi / 2 - third, -np.pi / 2 + third]),
        atol=1e-15,
    )
    assert_allclose(
        ex.g2_closed_form((np.pi, 0.0)),
        [-np.pi / 2, -np.pi / 2, np.pi / 2, np.pi / 2],
        atol=1e-15,
    )
    assert_allclose(ex.g2_closed_form((0.0, 0.0)), [0.0, 0.0, np.pi, np.pi], atol=1e-15)


@pytest.mark.parametrize("params", [
    ex.G1Params("I", 0.6, 0.8, 1),
    ex.G1Params("I", 1.0, 0.0, -1),
    ex.G1Params("II", 0.6, 0.8, -1),
    ex.G1Params("II", 0.0, 1.0, 1),
])
def test_g1_numeric_spectra_match_closed_form(params, rng):
    walk = ex.g1_walk(params)
    nu = ex.g1_effective_weight(params)
    for _ in range(8):
        k = rng.uniform(-np.pi, np.pi, 2)
        numeric = band_phases(walk, k)
        assert phase_multiset_distance(numeric, ex.g1_closed_form(k, nu, params.walk_class)) < 1e-9


@pytest.mark.parametrize("variant", ["I", "II"])
def test_g2_numeric_spectra_match_closed_form(variant, rng):
    walk = ex.g2_walk(variant)
    for _ in range(8):
        k = rng.uniform(-np.pi, np.pi, 2)
        numeric = band_phases(walk, k)
        assert phase_multiset_distance(numeric, ex.g2_closed_form(k)) < 1e-9


def test_g2_fiber_phases_at_half_pi_point(g2_one):
    # k_2 = k_3 = pi/2 gives alpha = 1/2: phases pi/2 +- pi/3 and their
    # pi-shifted partners
    numeric = band_phases(g2_one, (np.pi / 2, np.pi / 2))
    expected = [np.pi / 2 - np.pi / 3, np.pi / 2 + np.pi / 3,
                -np.pi / 2 - np.pi / 3, -np.pi / 2 + np.pi / 3]
    assert phase_multiset_distance(numeric, expected) < 1e-12


def test_flat_members_have_flat_grids():
    for params in (ex.G1Params("I", 1.0, 0.0, 1), ex.G1Params("II", 0.0, 1.0, -1)):
        grid = dispersion_grid(ex.g1_walk(params), 9)
        reference = grid.phases[0]
        assert max(phase_multiset_distance(r, reference) for r in grid.phases) < 1e-12


def test_g2_variants_are_parity_time_partners(g2_one, g2_two, rng):
    for _ in range(10):
        k = rng.uniform(-np.pi, np.pi, 2)
        two = band_phases(g2_two, k)
        one = band_phases(g2_one, -k)
        assert phase_multiset_distance(two, wrap_phase(-one)) < 1e-12


# --- verification suite -------------------------------------------------------


def test_verification_suite_passes_on_defaults():
    items = ex.verification_suite(seed=3, scalar_samples=120)
    assert all(item.passed for item in items), "\n".join(map(str, items))
    assert {item.name for item in items} == {
        "g1_family_constraints",
        "g1_left_multiplication_closure",
        "g2_solutions",
        "scalar_walks_rejected",
        "g1_class_distinction",
    }


def test_verification_suite_detects_corrupted_solution(g2_one, monkeypatch):
    mats = {g: m.copy() for g, m in g2_one.matrices.items()}
    mats[A][0, 0] += 0.05
    corrupted = WalkSpec(g2_one.presentation, g2_one.tiling, mats)
    g2_walk = ex.g2_walk
    monkeypatch.setattr(ex, "g2_walk", lambda variant="I": corrupted if variant == "I" else g2_walk(variant))
    items = ex.verification_suite(seed=3, scalar_samples=20)
    failed = {item.name for item in items if not item.passed}
    assert "g2_solutions" in failed


@pytest.mark.filterwarnings("error")
def test_verification_suite_fails_an_infinite_g2_entry_without_warning(g2_one, monkeypatch):
    mats = {g: m.copy() for g, m in g2_one.matrices.items()}
    mats[A][0, 0] = np.inf
    corrupted = WalkSpec(g2_one.presentation, g2_one.tiling, mats)
    g2_walk = ex.g2_walk
    monkeypatch.setattr(ex, "g2_walk", lambda variant="I": corrupted if variant == "I" else g2_walk(variant))
    items = ex.verification_suite(seed=3, scalar_samples=20)
    failed = {item.name: item.detail for item in items if not item.passed}
    assert set(failed) == {"g2_solutions"}
    assert "worst constraint residual nan" in failed["g2_solutions"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("corruption, broken", [
    (lambda m: m * 1.01, "worst unitarity 2.01e-02"),
    # a unitary left factor keeps the constraints but not sigma_x covariance
    (lambda m: np.diag([1.0, 1j]) @ m, "worst swap/sigma_x covariance 1.00e+00"),
    (lambda m: m * np.nan, "worst unitarity nan"),
    # the closure families multiply this member too: inf * 0 must not warn
    (lambda m: np.where([[True, False], [False, False]], np.inf, m), "worst unitarity nan"),
], ids=["scaled", "rotated", "nan", "inf"])
def test_verification_suite_detects_a_corrupted_g1_member(corruption, broken, monkeypatch):
    # (II, n=0.8, sign -1) is member 15, also among the closure samples
    g1_walk = ex.g1_walk

    def corrupted(params=ex.G1Params()):
        walk = g1_walk(params)
        if (params.walk_class, params.n, params.sign) != ("II", 0.8, -1):
            return walk
        mats = {g: corruption(m) for g, m in walk.matrices.items()}
        return WalkSpec(walk.presentation, walk.tiling, mats)

    monkeypatch.setattr(ex, "g1_walk", corrupted)
    items = ex.verification_suite(seed=3, scalar_samples=20)
    failed = {item.name: item.detail for item in items if not item.passed}
    assert set(failed) == {"g1_family_constraints", "g1_left_multiplication_closure"}
    assert broken in failed["g1_family_constraints"]


def test_scalar_rejection_is_total(g1_flat, g2_one, rng):
    for template in (g1_flat, g2_one):
        rejected, min_residual = ex.scalar_rejection_rate(template, 200, rng)
        assert rejected == 200
        assert min_residual >= 1e-3


def test_builtin_lookup():
    walk, closed_form = ex.builtin_walk("g1", "class=I,n=0.6,m=0.8,sign=-")
    assert walk.coin_dim == 2
    k = np.array([[0.3, -1.1]])
    assert_allclose(closed_form(k), ex.g1_closed_form(k, 0.8, "I"))
    walk, closed_form = ex.builtin_walk("g2", "class=II")
    assert walk.coin_dim == 2 and closed_form is ex.g2_closed_form
    with pytest.raises(ValueError):
        ex.builtin_walk("g3")


@pytest.mark.parametrize("name, params, walk", [
    ("g1", None, ex.g1_walk()),
    ("g1", "", ex.g1_walk()),
    ("g1", "n=0.6,m=0.8", ex.g1_walk(ex.G1Params("I", 0.6, 0.8, 1))),
    ("g1", " m = 0.8 , n=0.6 ,sign=-1", ex.g1_walk(ex.G1Params("I", 0.6, 0.8, -1))),
    ("g1", "class=II,sign=+1,n=0.8,m=0.6", ex.g1_walk(ex.G1Params("II", 0.8, 0.6, 1))),
    ("g1", "sign=-", ex.g1_walk(ex.G1Params("I", 1.0, 0.0, -1))),
    ("g2", None, ex.g2_walk("I")),
    ("g2", "class=II", ex.g2_walk("II")),
])
def test_builtin_walk_reads_params_with_defaults(name, params, walk):
    built, _ = ex.builtin_walk(name, params)
    assert np.array_equal(built.matrix_stack(), walk.matrix_stack())
    assert built.tiling == walk.tiling and built.presentation == walk.presentation


def test_swap_isotropy_names_the_coin():
    for coin, unitary in (("sigma_x", PAULI_X), ("sigma_z", PAULI_Z)):
        iso = ex.swap_isotropy(coin)
        assert iso.permutation == ex.SWAP_AB and np.array_equal(iso.coin_unitary, unitary)
    assert np.array_equal(ex.g2_isotropy("I").coin_unitary, PAULI_Z)
    assert np.array_equal(ex.g2_isotropy("II").coin_unitary, PAULI_X)
    with pytest.raises(ValueError):
        ex.g2_isotropy("III")
