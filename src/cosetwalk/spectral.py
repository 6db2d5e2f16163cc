"""Dispersion sweeps over the wave-vector domain, group velocity, and band
curvature by finite differences.

Every k-space solve stacks the fiber operators of its wave-vectors and
hands them to ``linalg.eigenpairs``, so grids and stencils share one
unitarity check, eigensolve, sort and residual certificate.  A stencil
(5-13 points) is one call; a grid keeps only the phases of each
``coarse.map_kchunks`` chunk.  ``dispersion_chunks`` is the grid as that
in-order stream of certified row chunks, so a consumer can write or score
each chunk while later ones are solved; ``dispersion_grid`` joins it.

Bands are indexed by sorted phase at each k independently; crossing points
show up as kinks of the sorted bands and are detected (never silently
differentiated across).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .coarse import kspace_operators, lattice, map_kchunks
from .linalg import eigenpairs, wrap_phase
from .walks import WalkSpec

VELOCITY_STEP = 1e-5
CURVATURE_STEP = 1e-3
GRADIENT_TOLERANCE = 1e-6


class BandCrossingError(RuntimeError):
    """A band crossing sits inside the finite-difference stencil."""


class ExtremumError(RuntimeError):
    """Curvature was requested away from a band extremum."""


@dataclass(frozen=True, eq=False)
class DispersionGrid:
    """Sorted eigenphases on an N^d lattice over (-pi, pi]^d.

    ``kpoints`` has shape (N^d, d) in row-major axis order and ``phases``
    shape (N^d, s*l) with each row ascending in (-pi, pi + 1e-8], a phase
    within 1e-8 of -pi counted as +pi (``eigenpairs``).  A chunk of
    ``dispersion_chunks`` holds a run of consecutive rows of one.
    """

    kpoints: np.ndarray
    phases: np.ndarray


def grid_axis(resolution: int) -> np.ndarray:
    """N uniformly spaced values in (-pi, pi], right endpoint included."""
    steps = np.arange(1, resolution + 1, dtype=float)
    return -np.pi + 2.0 * np.pi * steps / resolution


def dispersion_chunks(walk: WalkSpec, resolution: int) -> Iterator[DispersionGrid]:
    """Eigenphase sweep on the N^d wave-vector lattice (N = resolution >= 2)
    as the in-order stream of ``coarse.map_kchunks``: each item holds the
    next KSPACE_CHUNK grid rows (fewer in the last), already certified.

    An error names the first failing k-point of the earliest failing chunk,
    indexed over the whole grid; the chunks before it were yielded.
    """
    if not is_integer(resolution) or resolution < 2:
        raise ValueError(f"grid resolution must be an integer of at least 2, got {resolution!r}")
    kpoints = lattice(grid_axis(resolution), walk.tiling.dimension)
    yield from map_kchunks(walk, kpoints, lambda start, ops: DispersionGrid(
        kpoints[start:start + len(ops)], eigenpairs(ops, _offset=start)[0]
    ))


def dispersion_grid(walk: WalkSpec, resolution: int) -> DispersionGrid:
    """The whole grid of ``dispersion_chunks``, its chunks joined in order."""
    chunks = list(dispersion_chunks(walk, resolution))
    return DispersionGrid(np.concatenate([c.kpoints for c in chunks]), np.concatenate([c.phases for c in chunks]))


def _components(k, dimension: int) -> np.ndarray:
    comps = np.asarray(k, dtype=float)
    if comps.shape != (dimension,):
        raise ValueError(f"wave-vector has shape {comps.shape}, expected ({dimension},)")
    if not np.isfinite(comps).all():
        raise ValueError(f"wave-vector {tuple(comps.tolist())} is not finite")
    return comps


def is_integer(value) -> bool:  # an int or a numpy integer, not a bool, which Python counts as an int
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_band(walk: WalkSpec, band) -> None:
    """Raise ValueError unless ``band`` names one of the walk's sorted bands:
    an integer in 0 .. block_dim - 1 (numpy would count a negative one from the end)."""
    if not is_integer(band) or not 0 <= band < walk.block_dim:
        raise ValueError(f"band must be an integer in 0..{walk.block_dim - 1}, got {band!r}")


def band_phases(walk: WalkSpec, k) -> np.ndarray:
    """Sorted eigenphases of the fiber operator at one finite wave-vector."""
    comps = _components(k, walk.tiling.dimension)
    return eigenpairs(kspace_operators(walk, comps[None, :]))[0][0]


def _stencil_phases(walk: WalkSpec, comps: np.ndarray, band: int, steps=()) -> tuple:
    """One band's gradient at k, and its phase at k and at k +- h e_axis for
    each h in ``steps``, all 3 + 2 * len(steps) * d points in one kernel call.

    The gradient is the central difference at step VELOCITY_STEP; a kink of
    the sorted band inside its stencil (a crossing) raises BandCrossingError
    rather than giving a silent average slope.  Returns (gradient, center,
    upper, lower), with upper[i, axis] the phase at k + steps[i] e_axis and
    lower[i, axis] the phase at k - steps[i] e_axis.
    """
    check_band(walk, band)
    d = comps.size
    steps = (VELOCITY_STEP, *steps)
    offsets = (np.array(steps)[:, None, None] * np.eye(d)).reshape(-1, d)  # row i d + a: steps[i] e_a
    points = np.concatenate([comps[None, :], comps + offsets, comps - offsets])
    phases = eigenpairs(kspace_operators(walk, points))[0][:, band]
    upper, lower = phases[1:].reshape(2, len(steps), d)
    forward, backward = wrap_phase(np.stack([upper[0] - phases[0], phases[0] - lower[0]]))
    kinked = np.flatnonzero(np.abs(forward - backward) > 50.0 * VELOCITY_STEP * VELOCITY_STEP)
    if kinked.size:
        raise BandCrossingError(
            f"band {band} kinks within the stencil at k={comps} along axis {kinked[0]}"
        )
    return (forward + backward) / (2.0 * VELOCITY_STEP), phases[0], upper[1:], lower[1:]


def group_velocity(walk: WalkSpec, k, band: int) -> np.ndarray:
    """Central-difference gradient of the sorted band at k, step VELOCITY_STEP;
    raises BandCrossingError at a kink of the sorted band inside the stencil.
    ``band`` is an integer in 0 .. block_dim - 1, and k is finite."""
    return _stencil_phases(walk, _components(k, walk.tiling.dimension), band)[0]


def band_curvature(walk: WalkSpec, k, band: int) -> np.ndarray:
    """Pure second partials of the sorted band at an extremum.

    Second-order central differences at steps CURVATURE_STEP and half of it
    with one Richardson extrapolation; requires the gradient at k to vanish
    to GRADIENT_TOLERANCE.  ``band`` is an integer in 0 .. block_dim - 1,
    and k is finite.
    """
    comps = _components(k, walk.tiling.dimension)
    steps = np.array([CURVATURE_STEP, CURVATURE_STEP / 2.0])
    gradient, center, upper, lower = _stencil_phases(walk, comps, band, steps)
    worst = float(np.abs(gradient).max())
    if worst > GRADIENT_TOLERANCE:
        raise ExtremumError(
            f"gradient component {worst:.3e} exceeds {GRADIENT_TOLERANCE:.1e}; "
            "curvature is defined at extrema only"
        )
    above, below = wrap_phase(np.stack([upper, lower]) - center)
    coarse, fine = (above + below) / (steps * steps)[:, None]
    return (4.0 * fine - coarse) / 3.0
