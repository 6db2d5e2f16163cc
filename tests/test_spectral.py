import concurrent.futures
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cosetwalk import coarse
from cosetwalk import examples as ex
from cosetwalk.coarse import kspace_operators
from cosetwalk.linalg import (
    NonUnitaryError,
    adjoint,
    eigenpairs,
    operator_norm,
    phase_multiset_distance,
    wrap_phase,
)
from cosetwalk.spectral import (
    CURVATURE_STEP,
    GRADIENT_TOLERANCE,
    VELOCITY_STEP,
    BandCrossingError,
    ExtremumError,
    band_curvature,
    band_phases,
    dispersion_chunks,
    dispersion_grid,
    grid_axis,
    group_velocity,
)
from cosetwalk.walks import WalkSpec


def test_grid_axis_covers_principal_interval():
    axis = grid_axis(8)
    assert axis[-1] == pytest.approx(np.pi)
    assert np.all(axis > -np.pi)
    assert len(axis) == 8


def test_grid_shape_and_order(g2_one):
    grid = dispersion_grid(g2_one, 5)
    assert grid.kpoints.shape == (25, 2)
    assert grid.phases.shape == (25, 4)
    assert np.all(np.diff(grid.phases, axis=1) >= 0)
    assert np.all(grid.phases > -np.pi) and np.all(grid.phases <= np.pi)
    # row-major order over the axes
    axis = grid_axis(5)
    assert_allclose(grid.kpoints[0], [axis[0], axis[0]])
    assert_allclose(grid.kpoints[1], [axis[0], axis[1]])


def test_grid_requires_two_points():
    with pytest.raises(ValueError):
        dispersion_grid(ex.g2_walk("I"), 1)


def test_g1_massive_point_values(g1_massive):
    # class II with n = 0.6: bands +-arccos(0.6) and the pi-shifted pair at k=0
    c = float(np.arccos(0.6))
    expected = np.sort(wrap_phase(np.repeat([c, -c, c - np.pi, np.pi - c], 2)))
    assert phase_multiset_distance(band_phases(g1_massive, (0.0, 0.0)), expected) < 1e-12


def test_g1_every_phase_has_multiplicity_two(g1_massive, rng):
    from cosetwalk.linalg import circular_distance

    for _ in range(10):
        phases = band_phases(g1_massive, rng.uniform(-np.pi, np.pi, 2))
        assert np.all(circular_distance(phases[0::2], phases[1::2]) < 1e-10)


def test_flat_g1_grid_labels_every_pi_phase_last(g1_flat):
    # phases are exactly 0 and pi (four each); a pi rounded to -pi + eps
    # must still sort last, or every band index of its row shifts by one
    phases = dispersion_grid(g1_flat, 129).phases
    assert phases.min() > -np.pi + 1e-8
    assert np.abs(phases[:, 4:] - np.pi).max() <= 1e-12


def test_g2_degenerate_band_touching(g2_one):
    # k2 = pi, k3 = 0 puts both band pairs at +-pi/2
    phases = band_phases(g2_one, (np.pi, 0.0))
    expected = [-np.pi / 2, -np.pi / 2, np.pi / 2, np.pi / 2]
    assert phase_multiset_distance(phases, expected) < 1e-12


def test_grid_rejects_two_norm_defect_the_entrywise_bound_allowed(g1_massive):
    # scaling coin column 0 of every transition matrix by (1 + delta) turns
    # each fiber operator U into U D, so U^dag U - I becomes D^2 - I: four
    # diagonal entries 2 delta + delta^2 in the 8 x 8 fiber of g1
    delta = 0.95e-8
    mats = {g: m * np.array([1.0 + delta, 1.0]) for g, m in g1_massive.matrices.items()}
    walk = WalkSpec(g1_massive.presentation, g1_massive.tiling, mats)
    axis = grid_axis(5)
    ops = kspace_operators(walk, np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2))
    gram = adjoint(ops) @ ops - np.eye(8)
    # under the old grid check, entrywise L1 <= 1e-8 * dim, every operator passes
    assert np.abs(gram).sum(axis=(-2, -1)).max() < 8e-8
    assert operator_norm(gram).min() > 1.8e-8
    with pytest.raises(NonUnitaryError):
        dispersion_grid(walk, 5)


def test_grid_matches_closed_forms(g1_massive, g2_one):
    grid = dispersion_grid(g1_massive, 17)
    assert ex.grid_oracle_deviation(grid, lambda k: ex.g1_closed_form(k, 0.6, "II")) < 1e-9
    grid = dispersion_grid(g2_one, 17)
    assert ex.grid_oracle_deviation(grid, ex.g2_closed_form) < 1e-9


# --- group velocity ---------------------------------------------------------


def test_flat_walk_has_zero_velocity_everywhere(g1_flat, rng):
    for _ in range(5):
        k = rng.uniform(-3.0, 3.0, 2)
        for band in (0, 3, 7):
            assert_allclose(group_velocity(g1_flat, k, band), 0.0, atol=1e-9)


def test_g1_velocity_vanishes_at_symmetric_point(g1_massive):
    for band in range(8):
        assert np.abs(group_velocity(g1_massive, (0.0, 0.0), band)).max() < 1e-9


def test_g2_radial_slope_near_band_minimum(g2_one):
    # move along k2 only: (dkx, dky) = (delta, delta)/sqrt(2) from kx = ky = pi
    delta = 1e-3
    base = band_phases(g2_one, (np.pi, 0.0))[3]
    moved = band_phases(g2_one, (np.pi + delta / np.sqrt(2.0), 0.0))[3]
    slope = (moved - base) / delta
    assert slope == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-3)


def test_band_crossing_is_reported_not_averaged(g2_one):
    # alpha vanishes on the k2 = 0 line; the sorted bands kink there
    with pytest.raises(BandCrossingError):
        group_velocity(g2_one, (0.0, 1.0), 1)


def test_velocity_matches_closed_form_derivative(g1_massive):
    # band 4 at k=0 carries +arccos(alpha(0.6, k)); exact d/dkx at (0.8, 0.3)
    k = (0.8, 0.3)
    nu = 0.6
    kx, ky = k
    alpha = nu * np.sqrt(0.5 * (np.cos(kx / 2) ** 2 + np.cos(ky / 2) ** 2))
    dalpha = -nu * np.sin(kx / 2) * np.cos(kx / 2) / (
        2.0 * np.sqrt(2.0) * np.sqrt(np.cos(kx / 2) ** 2 + np.cos(ky / 2) ** 2)
    )
    exact = -dalpha / np.sqrt(1.0 - alpha * alpha)
    phases = band_phases(g1_massive, k)
    target = np.arccos(alpha)
    band = int(np.argmin(np.abs(phases - target)))
    velocity = group_velocity(g1_massive, k, band)
    assert velocity[0] == pytest.approx(exact, abs=1e-6)


# --- curvature --------------------------------------------------------------


@pytest.mark.parametrize("nu", [0.3, 0.6, 0.9])
def test_curvature_matches_mass_relation(nu):
    walk = ex.g1_walk(ex.G1Params("II", nu, float(np.sqrt(1 - nu * nu)), 1))
    phases = band_phases(walk, (0.0, 0.0))
    band = int(np.argmin(np.abs(phases - np.arccos(nu))))
    curvature = band_curvature(walk, (0.0, 0.0), band)
    expected = nu / (8.0 * np.sqrt(1.0 - nu * nu))
    assert curvature[0] == pytest.approx(expected, abs=1e-4)
    assert curvature[1] == pytest.approx(expected, abs=1e-4)


def test_flat_walk_curvature_is_zero(g1_flat):
    assert_allclose(band_curvature(g1_flat, (0.0, 0.0), 0), 0.0, atol=1e-8)


def test_curvature_requires_extremum(g2_one):
    with pytest.raises(ExtremumError):
        band_curvature(g2_one, (0.5, 0.3), 3)


def test_curvature_is_symmetric_between_axes(g1_massive):
    phases = band_phases(g1_massive, (0.0, 0.0))
    band = int(np.argmin(np.abs(phases - np.arccos(0.6))))
    curvature = band_curvature(g1_massive, (0.0, 0.0), band)
    assert curvature[0] == pytest.approx(curvature[1], abs=1e-8)


# --- continuity -------------------------------------------------------------


@pytest.mark.parametrize("maker", [lambda: ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)), lambda: ex.g2_walk("I")], ids=["g1", "g2"])
def test_phase_continuity_along_grid_lines(maker):
    walk = maker()
    resolution = 64
    grid = dispersion_grid(walk, resolution)
    phases = grid.phases.reshape(resolution, resolution, -1)
    # straight-line bands can attain the bound exactly, hence the epsilon
    bound = np.pi / resolution + 1e-9
    n = phases.shape[-1]
    for axis in (0, 1):
        rolled = np.moveaxis(phases, axis, 0)
        distances = phase_multiset_distance(rolled[:-1].reshape(-1, n), rolled[1:].reshape(-1, n))
        at = int(np.argmax(distances))  # NaN counts as the worst row
        line, point = divmod(at, resolution)
        assert distances[at] <= bound, (axis, line, point, distances[at])


# --- stencils against the per-point loop ------------------------------------


def _loop_group_velocity(walk, k, band, step=VELOCITY_STEP):
    """The one-solve-per-point loop the batched stencil replaced."""
    comps = np.asarray(k, dtype=float)
    d = comps.size
    center = band_phases(walk, comps)[band]
    out = np.empty(d)
    for axis in range(d):
        offset = np.zeros(d)
        offset[axis] = step
        upper = band_phases(walk, comps + offset)[band]
        lower = band_phases(walk, comps - offset)[band]
        forward = float(wrap_phase(upper - center))
        backward = float(wrap_phase(center - lower))
        if abs(forward - backward) > 50.0 * step * step:
            raise BandCrossingError(f"axis {axis}")
        out[axis] = (forward + backward) / (2.0 * step)
    return out


def _loop_band_curvature(walk, k, band, step=CURVATURE_STEP):
    comps = np.asarray(k, dtype=float)
    gradient = _loop_group_velocity(walk, comps, band)
    if float(np.abs(gradient).max()) > GRADIENT_TOLERANCE:
        raise ExtremumError("not an extremum")
    d = comps.size
    center = band_phases(walk, comps)[band]

    def second_difference(axis, h):
        offset = np.zeros(d)
        offset[axis] = h
        upper = band_phases(walk, comps + offset)[band]
        lower = band_phases(walk, comps - offset)[band]
        return (float(wrap_phase(upper - center)) + float(wrap_phase(lower - center))) / (h * h)

    out = np.empty(d)
    for axis in range(d):
        coarse = second_difference(axis, step)
        fine = second_difference(axis, step / 2.0)
        out[axis] = (4.0 * fine - coarse) / 3.0
    return out


def _outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except (BandCrossingError, ExtremumError) as exc:
        return type(exc)


@pytest.mark.parametrize("maker", [
    lambda: ex.g1_walk(ex.G1Params("I", 0.6, 0.8, 1)),
    lambda: ex.g1_walk(ex.G1Params("II", 0.8, 0.6, -1)),
    lambda: ex.g2_walk("I"),
], ids=["g1-I", "g1-II", "g2"])
def test_stencils_bitwise_equal_per_point_loop(maker, rng):
    walk = maker()
    cases = [((0.0, 0.0), band) for band in range(walk.block_dim)]
    cases += [(tuple(rng.uniform(-np.pi, np.pi, 2)), int(rng.integers(walk.block_dim))) for _ in range(6)]
    # g2: a kink of the sorted bands on k2 = 0, and a point that is no extremum
    cases += [((0.0, 1.0), 1), ((0.5, 0.3), 3)]
    outcomes = set()
    for k, band in cases:
        velocity = _outcome(group_velocity, walk, k, band)
        assert velocity == _outcome(_loop_group_velocity, walk, k, band)
        curvature = _outcome(band_curvature, walk, k, band)
        assert curvature == _outcome(_loop_band_curvature, walk, k, band)
        outcomes.update({velocity, curvature})
    assert bytes in {type(o) for o in outcomes}
    if walk.block_dim == 4:
        assert {BandCrossingError, ExtremumError} <= outcomes


# --- chunked grid solve -------------------------------------------------------


# 45^2 = 2025 points fit one chunk, 46^2 = 2116 need two, 91^2 = 8281 five
@pytest.mark.parametrize("resolution", [45, 46, 91])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("maker", [lambda: ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)), lambda: ex.g2_walk("I")], ids=["g1", "g2"])
def test_chunked_grid_is_bitwise_one_call(maker, workers, resolution, cores, pools):
    assert coarse.KSPACE_CHUNK == 2048
    walk = maker()
    cores(workers)
    grid = dispersion_grid(walk, resolution)
    assert np.array_equal(grid.phases, eigenpairs(kspace_operators(walk, grid.kpoints))[0])
    assert pools == ([] if workers == 1 or resolution == 45 else [2])


def _corrupt_grid_points(monkeypatch, resolution, indices):
    """Scale the fiber operators at the given global grid indices by 1.1."""
    axis = grid_axis(resolution)
    kpoints = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    targets = kpoints[list(indices)]
    build = coarse.kspace_operators

    def corrupted(walk, chunk):
        ops = build(walk, chunk)
        ops[(chunk[:, None, :] == targets).all(axis=-1).any(axis=1)] *= 1.1
        return ops

    monkeypatch.setattr(coarse, "kspace_operators", corrupted)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("indices, named", [((5000,), 5000), ((3000, 5000), 3000), ((5000, 3000, 7000), 3000)])
def test_chunked_grid_errors_name_the_global_index(g1_massive, monkeypatch, cores, workers, indices, named):
    cores(workers)
    _corrupt_grid_points(monkeypatch, 91, indices)
    with pytest.raises(NonUnitaryError, match=rf"stack index \({named},\)$"):
        dispersion_grid(g1_massive, 91)


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_stream_yields_the_grid_rows_in_order(g1_massive, cores, workers):
    cores(workers)
    grid = dispersion_grid(g1_massive, 91)
    chunks = list(dispersion_chunks(g1_massive, 91))
    assert [len(c.kpoints) for c in chunks] == [2048] * 4 + [8281 - 4 * 2048]
    for index, chunk in enumerate(chunks):
        rows = slice(index * 2048, (index + 1) * 2048)
        assert np.array_equal(chunk.kpoints, grid.kpoints[rows])
        assert np.array_equal(chunk.phases, grid.phases[rows])


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_stream_yields_the_chunks_before_a_failing_one(g1_massive, monkeypatch, cores, workers):
    cores(workers)
    _corrupt_grid_points(monkeypatch, 91, (5000,))
    threads = threading.active_count()
    seen = []
    with pytest.raises(NonUnitaryError, match=r"stack index \(5000,\)$"):
        for chunk in dispersion_chunks(g1_massive, 91):
            seen.append(len(chunk.kpoints))
    assert seen == [2048, 2048]
    assert threading.active_count() == threads  # the pool shut down


def test_closing_the_chunk_stream_early_joins_its_pool(g1_massive, cores, pools):
    cores(2)
    first = dispersion_grid(g1_massive, 91).phases[:2048]
    threads = threading.active_count()
    chunks = dispersion_chunks(g1_massive, 91)
    assert np.array_equal(next(chunks).phases, first)
    assert threading.active_count() > threads
    chunks.close()
    assert threading.active_count() == threads
    assert pools == [2, 2]


def test_one_chunk_or_one_core_starts_no_pool(g1_massive, monkeypatch, cores):
    def no_pool(workers):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    cores(2)
    band = int(np.argmin(np.abs(band_phases(g1_massive, (0.0, 0.0)) - np.arccos(0.6))))
    assert np.all(np.isfinite(band_curvature(g1_massive, (0.0, 0.0), band)))
    assert dispersion_grid(g1_massive, 45).phases.shape == (2025, 8)
    cores(1)
    assert dispersion_grid(g1_massive, 91).phases.shape == (8281, 8)
    # without an affinity call the core count comes from os.cpu_count
    monkeypatch.delattr(coarse.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(coarse.os, "cpu_count", lambda: 1)
    assert dispersion_grid(g1_massive, 91).phases.shape == (8281, 8)
