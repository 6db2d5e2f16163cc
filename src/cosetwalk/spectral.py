"""Dispersion sweeps over the wave-vector domain, group velocity, and band
curvature by finite differences.

Every k-space solve stacks the fiber operators of its wave-vectors and
hands them to ``linalg.eigenpairs``, so grids and stencils share one
unitarity check, eigensolve, sort and residual certificate.  A stencil
(5-9 points) is one call; a grid is solved in chunks of GRID_CHUNK points
on one thread per available core (numpy's linalg gufuncs and ``matmul``
release the GIL), each chunk keeping only its phases.  Every matrix is
solved alone either way, so the phases are the same bits as one call, and
peak memory is bounded by the worker count times one chunk.

Bands are indexed by sorted phase at each k independently; crossing points
show up as kinks of the sorted bands and are detected (never silently
differentiated across).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .coarse import kspace_operators
from .linalg import eigenpairs, wrap_phase
from .walks import WalkSpec

VELOCITY_STEP = 1e-5
CURVATURE_STEP = 1e-3
GRADIENT_TOLERANCE = 1e-6
GRID_CHUNK = 2048


class BandCrossingError(RuntimeError):
    """A band crossing sits inside the finite-difference stencil."""


class ExtremumError(RuntimeError):
    """Curvature was requested away from a band extremum."""


@dataclass(frozen=True, eq=False)
class DispersionGrid:
    """Sorted eigenphases on an N^d lattice over (-pi, pi]^d.

    ``kpoints`` has shape (N^d, d) in row-major axis order and ``phases``
    shape (N^d, s*l) with each row ascending.
    """

    walk: WalkSpec
    resolution: int
    axis_values: np.ndarray
    kpoints: np.ndarray
    phases: np.ndarray

    @property
    def band_count(self) -> int:
        return self.phases.shape[1]


def grid_axis(resolution: int) -> np.ndarray:
    """N uniformly spaced values in (-pi, pi], right endpoint included."""
    steps = np.arange(1, resolution + 1, dtype=float)
    return -np.pi + 2.0 * np.pi * steps / resolution


def _worker_count(chunks: int) -> int:
    """One worker per core this process may run on, at most one per chunk."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(cores, chunks)


def dispersion_grid(walk: WalkSpec, resolution: int) -> DispersionGrid:
    """Eigenphase sweep on the N^d wave-vector lattice (N = resolution >= 2).

    An error names the first failing k-point of the earliest failing chunk,
    indexed over the whole grid.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    d = walk.tiling.dimension
    axis = grid_axis(resolution)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    kpoints = np.stack([m.ravel() for m in mesh], axis=1)
    starts = range(0, len(kpoints), GRID_CHUNK)

    def solve(start: int) -> np.ndarray:
        chunk = kspace_operators(walk, kpoints[start:start + GRID_CHUNK])
        return eigenpairs(chunk, _offset=start)[0]

    # the workers share the walk and kpoints read-only; kspace_operators
    # reads only plain fields of the walk, no lazily cached ones
    workers = _worker_count(len(starts))
    if workers == 1:
        parts = [solve(start) for start in starts]
    else:
        # imported here: concurrent.futures pulls in logging, about 9 ms and
        # 0.6 MB of start-up that every command would pay otherwise
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            # in order, so the earliest failing chunk raises
            parts = list(pool.map(solve, starts))
    return DispersionGrid(walk, resolution, axis, kpoints, np.concatenate(parts))


def _components(k, dimension: int) -> np.ndarray:
    comps = np.asarray(k, dtype=float)
    if comps.shape != (dimension,):
        raise ValueError(f"wave-vector has shape {comps.shape}, expected ({dimension},)")
    return comps


def band_phases(walk: WalkSpec, k) -> np.ndarray:
    """Sorted eigenphases of the fiber operator at one wave-vector."""
    comps = _components(k, walk.tiling.dimension)
    return eigenpairs(kspace_operators(walk, comps[None, :]))[0][0]


def _stencil_phases(walk: WalkSpec, comps: np.ndarray, band: int, steps) -> tuple:
    """One band's phase at k and at k +- h e_axis for each h in ``steps``.

    All 1 + 2 * len(steps) * d points are solved in one kernel call.
    Returns (center, upper, lower), with upper[i, axis] the phase at
    k + steps[i] e_axis and lower[i, axis] the phase at k - steps[i] e_axis.
    """
    d = comps.size
    shifts = [h * np.eye(d) for h in steps]
    points = np.concatenate([comps[None, :]] + [comps + s for s in shifts] + [comps - s for s in shifts])
    phases = eigenpairs(kspace_operators(walk, points))[0][:, band]
    upper, lower = phases[1:].reshape(2, len(steps), d)
    return phases[0], upper, lower


def group_velocity(walk: WalkSpec, k, band: int) -> np.ndarray:
    """Central-difference gradient of the sorted band at k, step VELOCITY_STEP.

    Raises BandCrossingError when the second difference betrays a kink of
    the sorted band inside the stencil (a crossing), rather than returning a
    silent average slope.
    """
    comps = _components(k, walk.tiling.dimension)
    center, upper, lower = _stencil_phases(walk, comps, band, (VELOCITY_STEP,))
    forward = wrap_phase(upper[0] - center)
    backward = wrap_phase(center - lower[0])
    kinked = np.flatnonzero(np.abs(forward - backward) > 50.0 * VELOCITY_STEP * VELOCITY_STEP)
    if kinked.size:
        raise BandCrossingError(
            f"band {band} kinks within the stencil at k={comps} along axis {kinked[0]}"
        )
    return (forward + backward) / (2.0 * VELOCITY_STEP)


def band_curvature(walk: WalkSpec, k, band: int) -> np.ndarray:
    """Pure second partials of the sorted band at an extremum.

    Second-order central differences at steps CURVATURE_STEP and half of it
    with one Richardson extrapolation; requires the gradient at k to vanish
    to GRADIENT_TOLERANCE.
    """
    comps = _components(k, walk.tiling.dimension)
    gradient = group_velocity(walk, comps, band)
    worst = float(np.abs(gradient).max())
    if worst > GRADIENT_TOLERANCE:
        raise ExtremumError(
            f"gradient component {worst:.3e} exceeds {GRADIENT_TOLERANCE:.1e}; "
            "curvature is defined at extrema only"
        )
    steps = np.array([CURVATURE_STEP, CURVATURE_STEP / 2.0])
    center, upper, lower = _stencil_phases(walk, comps, band, steps)
    coarse, fine = (wrap_phase(upper - center) + wrap_phase(lower - center)) / (steps * steps)[:, None]
    return (4.0 * fine - coarse) / 3.0
