"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line on success (run with -s to see them);
tolerances are pinned here, not configurable.
"""

import time

import numpy as np

from cosetwalk import examples as ex
from cosetwalk.coarse import retile
from cosetwalk.evolve import evolve, evolve_fourier, make_delta
from cosetwalk.groups import GroupElement, evaluate_word, generator_pair, validate_tiling
from cosetwalk.linalg import phase_multiset_distance, wrap_phase
from cosetwalk.spectral import band_curvature, band_phases, dispersion_grid
from cosetwalk.walks import (
    TransitionFamily,
    WalkSpec,
    check_isotropy,
    isotropy_normalization_residual,
    unitarity_residual,
)

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")

G1_PARAM_GRID = [
    ex.G1Params(cls, n, m, sign)
    for (n, m) in [(1.0, 0.0), (0.6, 0.8), (1 / np.sqrt(2), 1 / np.sqrt(2))]
    for cls in ("I", "II")
    for sign in (1, -1)
]


def test_criterion_1_g1_dispersion_reproduction():
    """33x33 grid eigenphases match the exact band formula, both classes,
    both phase branches, at 1e-9 with multiplicity two, in under 10 s."""
    started = time.monotonic()
    worst = 0.0
    for params in G1_PARAM_GRID:
        walk = ex.g1_walk(params)
        grid = dispersion_grid(walk, 33)
        nu = ex.g1_effective_weight(params)
        for k, phases in zip(grid.kpoints, grid.phases):
            deviation = phase_multiset_distance(
                phases, ex.g1_closed_form(k, nu, params.walk_class)
            )
            worst = max(worst, deviation)
            assert deviation < 1e-9, (params, k, deviation)
    # multiplicity two: the closed form repeats each branch twice, and any
    # multiset within 1e-9 of it inherits the pairing; spot-check directly
    # (circularly, since a degenerate pair at +-pi straddles the branch cut)
    from cosetwalk.linalg import circular_distance

    for params in G1_PARAM_GRID[:4]:
        phases = band_phases(ex.g1_walk(params), (0.37, -1.21))
        paired = np.sort(circular_distance(phases[0::2], phases[1::2]))
        assert np.all(paired < 1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(
        f"PASS criterion 1: g1 dispersion, {len(G1_PARAM_GRID)} configs x 33x33, "
        f"worst deviation {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_g2_dispersion_reproduction():
    worst = 0.0
    for variant in ("I", "II"):
        grid = dispersion_grid(ex.g2_walk(variant), 33)
        deviation = ex.grid_oracle_deviation(grid, ex.g2_closed_form)
        worst = max(worst, deviation)
        assert deviation < 1e-9
    print(f"PASS criterion 2: g2 dispersion both solutions, worst deviation {worst:.2e}")


def test_criterion_3_mass_and_flat_band():
    worst = 0.0
    for nu in (0.3, 0.6, 0.9):
        walk = ex.g1_walk(ex.G1Params("II", nu, float(np.sqrt(1 - nu * nu)), 1))
        phases = band_phases(walk, (0.0, 0.0))
        band = int(np.argmin(np.abs(phases - np.arccos(nu))))
        curvature = band_curvature(walk, (0.0, 0.0), band)
        expected = nu / (8.0 * np.sqrt(1.0 - nu * nu))
        error = float(np.abs(curvature - expected).max())
        worst = max(worst, error)
        assert error < 1e-4, (nu, curvature, expected)
    # zero effective weight makes every band exactly flat; measure the
    # spread circularly since half the phases sit on the +-pi branch cut
    flat_grid = dispersion_grid(ex.g1_walk(ex.G1Params("I", 1.0, 0.0, 1)), 33)
    reference = flat_grid.phases[0]
    spread = max(
        phase_multiset_distance(row, reference) for row in flat_grid.phases
    )
    assert spread < 1e-12
    print(
        f"PASS criterion 3: curvature matches weight/(8 sqrt(1-weight^2)) "
        f"(worst {worst:.2e}), flat-branch spread {spread:.2e}"
    )


def test_criterion_4_g2_massless_slope():
    delta = 1e-3
    walk = ex.g2_walk("I")
    # (k_x, k_y) = (pi, pi) is (k_2, k_3) = (pi, 0); the diagonal direction
    # (1, 1)/sqrt(2) in (k_x, k_y) moves only k_2, by delta/sqrt(2)
    base = band_phases(walk, (np.pi, 0.0))[3]
    moved = band_phases(walk, (np.pi + delta / np.sqrt(2.0), 0.0))[3]
    slope = (moved - base) / delta
    target = 1.0 / (2.0 * np.sqrt(2.0))
    assert abs(slope - target) < 1e-3
    print(f"PASS criterion 4: radial slope {slope:.6f} vs 1/(2 sqrt 2) = {target:.6f}")


def test_criterion_5_g2_parity_time_symmetry():
    rng = np.random.default_rng(1905)
    one = ex.g2_walk("I")
    two = ex.g2_walk("II")
    worst = 0.0
    for _ in range(20):
        k = rng.uniform(-np.pi, np.pi, 2)
        phases_two = band_phases(two, k)
        negated_one = wrap_phase(-band_phases(one, -k))
        deviation = phase_multiset_distance(phases_two, negated_one)
        worst = max(worst, deviation)
        assert deviation < 1e-9
    print(f"PASS criterion 5: parity-time pairing on 20 random k, worst {worst:.2e}")


def test_criterion_6_tiling_invariance():
    rng = np.random.default_rng(1906)
    pairs = [
        (
            ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)),
            ((), (A_INV, B, A), (A, A, B, A_INV), (A, A, A)),
        ),
        (ex.g2_walk("I"), ((), (A,))),
    ]
    worst = 0.0
    for walk, new_reps in pairs:
        moved = retile(walk, new_reps)
        assert validate_tiling(moved.tiling, moved.presentation).ok
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi, 2)
            deviation = phase_multiset_distance(
                band_phases(walk, k),
                band_phases(moved, k),
            )
            worst = max(worst, deviation)
            assert deviation < 1e-9
    print(f"PASS criterion 6: retiled spectra agree on 20 random k, worst {worst:.2e}")


def test_criterion_7_unitarity_isotropy_suite():
    walks = [(p, ex.g1_walk(p)) for p in G1_PARAM_GRID]
    worst_unitarity = 0.0
    for _, walk in walks:
        residual, _ = unitarity_residual(walk)
        worst_unitarity = max(worst_unitarity, residual)
        assert residual < 1e-12
        assert check_isotropy(walk, ex.g1_isotropy()) < 1e-12
    for variant in ("I", "II"):
        walk = ex.g2_walk(variant)
        residual, _ = unitarity_residual(walk)
        worst_unitarity = max(worst_unitarity, residual)
        assert residual < 1e-12
        # the swap coin is sigma_z for solution I; the anti-unitary image
        # carries the conjugated coin (sigma_x)
        assert check_isotropy(walk, ex.g2_isotropy(variant)) < 1e-12
    for walk in (
        ex.g1_walk(ex.G1Params("I", 1.0, 0.0, 1)),
        ex.g1_walk(ex.G1Params("I", 1.0, 0.0, -1)),
        ex.g1_walk(ex.G1Params("II", 1.0, 0.0, 1)),
        ex.g2_walk("I"),
        ex.g2_walk("II"),
    ):
        assert isotropy_normalization_residual(walk) < 1e-12

    weakest = np.inf
    for walk in (ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)), ex.g2_walk("I")):
        for g in walk.presentation.alphabet:
            for p in range(2):
                for q in range(2):
                    mats = {x: m.copy() for x, m in walk.transitions.matrices.items()}
                    mats[g][p, q] += 1e-3
                    perturbed = WalkSpec(
                        walk.presentation, walk.tiling, TransitionFamily(2, mats)
                    )
                    residual, _ = unitarity_residual(perturbed)
                    weakest = min(weakest, residual)
                    assert residual >= 5e-4
    print(
        f"PASS criterion 7: unitarity worst {worst_unitarity:.2e}, isotropy and "
        f"normalization hold, weakest perturbation response {weakest:.2e} >= 5e-4"
    )


def test_criterion_8_scalar_infeasibility():
    rng = np.random.default_rng(1908)
    smallest = np.inf
    for template in (ex.g1_walk(), ex.g2_walk("I")):
        rejected, min_residual = ex.scalar_rejection_rate(template, 1000, rng)
        smallest = min(smallest, min_residual)
        assert rejected == 1000
        assert min_residual >= 1e-3
    print(
        f"PASS criterion 8: 1000/1000 scalar families rejected per graph, "
        f"smallest residual {smallest:.3e}"
    )


def test_criterion_9_position_fourier_equivalence():
    worst_drift = 0.0
    worst_diff = 0.0
    for walk in (ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)), ex.g2_walk("I")):
        state = make_delta(walk, 16, coin=0)
        stepped = evolve(walk, state, 10)
        drift = abs(stepped.norm - state.norm)
        worst_drift = max(worst_drift, drift)
        assert drift < 1e-12
        transformed = evolve_fourier(walk, state, 10)
        diff = float(np.abs(stepped.amplitudes - transformed.amplitudes).max())
        worst_diff = max(worst_diff, diff)
        assert diff < 1e-10
    print(
        f"PASS criterion 9: norm drift {worst_drift:.2e}, "
        f"stepping vs momentum evolution {worst_diff:.2e}"
    )


def test_criterion_10_group_theory_exactness():
    g1 = ex.g1_walk()
    for relator in ((A,) * 4, (B,) * 4, (A, B, A, B)):
        assert evaluate_word(relator, g1.tiling) == GroupElement((0, 0), 0)
    g2 = ex.g2_walk("I")
    assert evaluate_word((A, A, B_INV, B_INV), g2.tiling) == GroupElement((0, 0), 0)
    # the redundant translation b a equals h_2 - h_3 exactly
    assert evaluate_word((B, A), g2.tiling) == GroupElement((1, -1), 0)
    assert evaluate_word((A, A), g2.tiling) == GroupElement((1, 0), 0)
    assert evaluate_word((A_INV, B), g2.tiling) == GroupElement((0, 1), 0)
    assert validate_tiling(g1.tiling, g1.presentation).ok
    assert validate_tiling(g2.tiling, g2.presentation).ok
    print("PASS criterion 10: relator closure and translation identities hold exactly")
