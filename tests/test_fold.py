"""The fold over 2Z^d as an oracle: folding a g1 or g2 walk over the
sublattice 2Z^2 gives a valid walk whose spectrum and dynamics are fixed by
the original's (``walk_helpers.fold_walk``)."""

import itertools
from pathlib import Path

import numpy as np
import pytest

import walk_helpers
from cosetwalk import coarse
from cosetwalk import examples as ex
from cosetwalk.cli import ORACLE_TOLERANCE, main
from cosetwalk.coarse import kspace_operators
from cosetwalk.evolve import LatticeState, evolve
from cosetwalk.groups import validate_tiling
from cosetwalk.io import dumps_walk, load_walk, loads_walk, save_dispersion_csv, save_walk
from cosetwalk.linalg import eigenpairs, phase_multiset_distance
from cosetwalk.spectral import dispersion_grid
from cosetwalk.walks import unitarity_residual
from walk_helpers import fold_walk

M = 2

WALKS = {
    "g1-I": lambda: ex.g1_walk(ex.G1Params("I", 0.6, 0.8, 1)),
    "g1-II": lambda: ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)),
    "g2-I": lambda: ex.g2_walk("I"),
    "g2-II": lambda: ex.g2_walk("II"),
}
FIBERS = {"g1-I": 32, "g1-II": 32, "g2-I": 16, "g2-II": 16}
CLOSED_FORMS = {
    "g1-I": lambda k: ex.g1_closed_form(k, ex.g1_effective_weight(ex.G1Params("I", 0.6, 0.8, 1)), "I"),
    "g1-II": lambda k: ex.g1_closed_form(k, ex.g1_effective_weight(ex.G1Params("II", 0.6, 0.8, 1)), "II"),
    "g2-I": ex.g2_closed_form,
    "g2-II": ex.g2_closed_form,
}
FIXTURES = Path(__file__).parent / "fixtures"


def fold_state(amplitudes, m):
    """Amplitudes (v, j, c) on torus N as (w, (j, r), c) on torus N / m, v = m w + r."""
    d = amplitudes.ndim - 2
    n, (l, s) = amplitudes.shape[0], amplitudes.shape[-2:]
    split = amplitudes.reshape((n // m, m) * d + (l, s))
    order = [*range(0, 2 * d, 2), 2 * d, *range(1, 2 * d, 2), 2 * d + 1]
    return split.transpose(order).reshape((n // m,) * d + (l * m**d, s))


def position_distance(walk, folded, rng, size=12, steps=9):
    """Largest gap between evolving the folded walk on torus ``size`` and folding
    the original's evolution on torus m * size, from one normalized random state."""
    shape = (M * size,) * walk.tiling.dimension + (walk.tiling.index, walk.coin_dim)
    amplitudes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    state = LatticeState(amplitudes / np.linalg.norm(amplitudes))
    original = fold_state(evolve(walk, state, steps).amplitudes, M)
    folded_state = LatticeState(fold_state(state.amplitudes, M))
    return np.max(np.abs(evolve(folded, folded_state, steps).amplitudes - original))


@pytest.fixture(scope="module", params=list(WALKS))
def pair(request):
    walk = WALKS[request.param]()
    return request.param, walk, fold_walk(walk, M)


def test_folded_walk_is_a_valid_walk_file(pair):
    name, walk, folded = pair
    assert folded.block_dim == FIBERS[name] == M**2 * walk.block_dim
    assert validate_tiling(folded.tiling, folded.presentation) == ()
    assert unitarity_residual(folded)[0] <= 1e-12
    text = dumps_walk(folded)
    assert dumps_walk(loads_walk(text)) == text


def test_folded_phases_are_the_original_phases_at_the_unfolded_wave_vectors(pair, rng):
    _, walk, folded = pair
    k = rng.uniform(-np.pi, np.pi, size=(300, 2))
    phases = eigenpairs(kspace_operators(folded, k))[0]
    unfolded = np.concatenate([
        eigenpairs(kspace_operators(walk, (k + 2 * np.pi * np.array(mu)) / M))[0]
        for mu in itertools.product(range(M), repeat=2)
    ], axis=1)
    assert np.max(phase_multiset_distance(phases, unfolded)) <= 1e-12


def test_folded_grid_rows_are_the_closed_forms_at_the_unfolded_wave_vectors(pair):
    name, _, folded = pair
    grid = dispersion_grid(folded, 9)
    exact = np.concatenate([
        CLOSED_FORMS[name]((grid.kpoints + 2 * np.pi * np.array(mu)) / M)
        for mu in itertools.product(range(M), repeat=2)
    ], axis=1)
    assert np.max(phase_multiset_distance(grid.phases, exact)) < ORACLE_TOLERANCE


@pytest.mark.parametrize("name, fixture", [("g1-II", "g1_folded.json"), ("g2-I", "g2_folded.json")])
def test_the_folded_fixtures_are_the_folds_of_the_builtin_walks(name, fixture):
    assert (FIXTURES / fixture).read_text(encoding="utf-8") == dumps_walk(fold_walk(WALKS[name](), M))


def test_evolve_commutes_with_the_fold(pair, rng):
    _, walk, folded = pair
    assert position_distance(walk, folded, rng) <= 1e-12


def test_a_fold_with_the_wrong_sign_fails_the_position_check(pair, rng, monkeypatch):
    _, walk, _ = pair
    fold_row = walk_helpers.fold_row
    monkeypatch.setattr(walk_helpers, "fold_row", lambda r, h, m: fold_row(r, tuple(-x for x in h), m))
    assert position_distance(walk, fold_walk(walk, M), rng) > 1e-3


def test_folded_g1_dispersion_is_the_same_bits_on_one_and_two_cores(tmp_path, monkeypatch, capsys, cores, pools):
    # fiber 32 in chunks of 256 points: 24^2 grid points are three chunks
    path = tmp_path / "g1-folded.json"
    save_walk(fold_walk(WALKS["g1-II"](), M), path)
    expected = tmp_path / "expected.csv"
    save_dispersion_csv([dispersion_grid(load_walk(path), 24)], expected)
    monkeypatch.setattr(coarse, "KSPACE_CHUNK", 256)
    for workers in (1, 2):
        cores(workers)
        pools.clear()
        out = tmp_path / f"{workers}.csv"
        assert main(["dispersion", str(path), "--grid", "24", "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote 576 rows to {out}\n", "")
        assert pools == ([] if workers == 1 else [2])
        assert out.read_bytes() == expected.read_bytes()
