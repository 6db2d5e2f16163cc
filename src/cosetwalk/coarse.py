"""The paper's reduction: the coset-tiled walk as a walk on Z^d.

Grouping the table rules by displacement gives the coarse-grained walk
W = sum_h T_h (x) B_h with an (l s)-dimensional coin: T_h translates by h,
and block (target, coset) of B_h sums the A_g of the rules with shift h
that map coset to target.  ``shift_blocks`` is the one place that builds
the B_h, once per walk, kept read-only in a memo keyed weakly on the walk
(whose tiling and matrices are read-only): an entry goes when its walk does.
The fiber operator at wave-vector k is U(k) = sum_h e^{-i k.h} B_h.
Wave-vector components are the pairings of k with the tiling's H-basis
vectors, and the principal domain is (-pi, pi] per component.

``map_kchunks`` is the one loop over many wave-vectors: an in-order stream
of per-chunk results, U(k) in chunks of KSPACE_CHUNK points on one thread per
available core (numpy's linalg gufuncs and ``matmul`` release the GIL).  The
calling thread builds the walk's B_h first, so the workers only read the
memo; it gets each chunk's result while the pool solves later chunks, so it
can write or score one chunk during the solve of the next.  Each matrix is
handled alone, so the concatenated stream is the same bits as one call,
with peak memory of one chunk per worker.
``available_workers`` (the available cores, at most one per task) sets the
thread count here and for the target cosets of ``evolve.evolve``.
``lattice`` is the one row-major point order, shared by dispersion grid
rows, torus sites and Fourier momenta.
"""

from __future__ import annotations

import os
import weakref
from typing import Callable, Iterator

import numpy as np

from .walks import WalkSpec

KSPACE_CHUNK = 2048
_BLOCKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # walk -> shift_blocks(walk)


def shift_blocks(walk: WalkSpec) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Distinct displacements h and their fiber blocks B_h.

    Returns the shifts, zero shift first (with a zero block when no rule
    stays put), and a read-only array (len(shifts), l s, l s) whose entry i
    is B_h for h = shifts[i], the same arrays on every call for one walk.
    Rules sharing (shift, coset, target) add into one block.
    """
    built = _BLOCKS.get(walk)
    if built is None:  # threads racing on a new walk all get the build stored first
        built = _BLOCKS.setdefault(walk, _build_shift_blocks(walk))
    return built


def _build_shift_blocks(walk: WalkSpec) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    s = walk.coin_dim
    zero = (0,) * walk.tiling.dimension
    shifts = [zero] + sorted({rule.shift for rule in walk.tiling.rules} - {zero})
    position = {h: i for i, h in enumerate(shifts)}
    blocks = np.zeros((len(shifts), walk.block_dim, walk.block_dim), dtype=complex)
    for rule in walk.tiling.rules:
        rows = slice(s * rule.target, s * rule.target + s)
        cols = slice(s * rule.coset, s * rule.coset + s)
        blocks[position[rule.shift], rows, cols] += walk.matrices[rule.generator]
    blocks.setflags(write=False)
    return tuple(shifts), blocks


def lattice(axis: np.ndarray, d: int) -> np.ndarray:
    """The (N^d, d) points of axis x ... x axis (d factors) in row-major order."""
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def kspace_operators(walk: WalkSpec, kpoints: np.ndarray) -> np.ndarray:
    """Fiber operators U(k) = sum_h e^{-i k.h} B_h for a batch of
    wave-vectors, shape (nk, s*l, s*l)."""
    kpoints = np.asarray(kpoints, dtype=float)
    if kpoints.ndim != 2 or kpoints.shape[1] != walk.tiling.dimension:
        raise ValueError(f"kpoints must have shape (nk, {walk.tiling.dimension})")
    shifts, blocks = shift_blocks(walk)
    phases = np.exp(-1j * (kpoints @ np.asarray(shifts, dtype=float).T))
    dim = walk.block_dim
    return (phases @ blocks.reshape(len(shifts), dim * dim)).reshape(-1, dim, dim)


def available_workers(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: one per core available, at most ``tasks``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cores, tasks)


def map_kchunks(walk: WalkSpec, kpoints: np.ndarray, solve: Callable) -> Iterator[np.ndarray]:
    """Yield ``solve(start, U)`` for each chunk, in order: U holds the fiber
    operators of kpoints[start:start + KSPACE_CHUNK].  The earliest failing
    chunk raises, after the chunks before it were yielded.  Closing the
    stream early cancels the chunks not started and joins the pool."""
    starts = range(0, len(kpoints), KSPACE_CHUNK)
    shift_blocks(walk)  # built before any pool starts, so the workers only read the memo

    def run(start: int) -> np.ndarray:
        return solve(start, kspace_operators(walk, kpoints[start:start + KSPACE_CHUNK]))

    workers = available_workers(len(starts))
    if workers == 1:
        yield from map(run, starts)
        return
    # imported here: concurrent.futures costs every command 9 ms and 0.6 MB
    from concurrent.futures import ThreadPoolExecutor

    # the workers share the walk, kpoints, its B_h and what ``solve`` reads, read-only
    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(run, starts)
