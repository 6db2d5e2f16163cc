"""Position-space evolution on a finite torus and the Fourier cross-check.

The state holds one amplitude per (site, coset, coin) cell.  A step sends
the (v, j) component through every alphabet letter g: the amplitude block
A_g psi(v, j) accumulates at site v - h_{j,g} (mod N) in coset target(g, j).
Grouping the table rules by displacement gives the coarse-grained walk on
Z^d with an (l s)-dimensional coin, W = sum_h T_h (x) B_h: T_h translates by
h and block (target, coset) of B_h sums the A_g of the rules with shift h
that map coset to target, the same layout as ``coarse.kspace_operators``
(U(k) = sum_h e^{-i k.h} B_h).  ``step`` applies W as one fiber matmul and
one wrapped shift-add per distinct displacement.  The torus must be wide
enough that no displacement wraps onto itself within a single step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .coarse import kspace_operators
from .linalg import eigenpairs, wrap_phase
from .walks import WalkSpec


class TorusSizeError(ValueError):
    """Torus too small for the walk's displacement set."""


@dataclass(frozen=True, eq=False)
class LatticeState:
    """Amplitudes on a periodic lattice, shaped sizes + (cosets, coin)."""

    sizes: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape[: len(self.sizes)] != self.sizes or amps.ndim != len(self.sizes) + 2:
            raise ValueError(
                f"amplitude array shape {amps.shape} does not match sizes {self.sizes}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes.ravel()))


def minimum_torus_size(walk: WalkSpec) -> int:
    """Smallest per-axis size that keeps one step wrap-free."""
    return 2 * walk.tiling.max_shift + 1


def _check_torus(walk: WalkSpec, sizes: tuple[int, ...]) -> None:
    smallest = min(sizes)
    needed = minimum_torus_size(walk)
    if smallest < needed:
        raise TorusSizeError(
            f"torus size {smallest} too small; displacements up to "
            f"{walk.tiling.max_shift} need at least {needed}"
        )


def make_delta(walk: WalkSpec, size: int, *, coin: int | None = None) -> LatticeState:
    """Unit-norm state concentrated on the origin site's first coset.

    ``coin=None`` places the uniform coin superposition (1, ..., 1)/sqrt(s);
    an integer selects a single coin basis vector.
    """
    d = walk.tiling.dimension
    sizes = (size,) * d
    _check_torus(walk, sizes)
    cell = (0,) * (d + 1)  # origin site, coset 0
    amps = np.zeros(sizes + (walk.tiling.index, walk.coin_dim), dtype=complex)
    if coin is None:
        amps[cell] = np.full(walk.coin_dim, 1.0 / np.sqrt(walk.coin_dim))
    else:
        amps[cell + (coin,)] = 1.0
    return LatticeState(sizes, amps)


def make_plane_wave(
    walk: WalkSpec, size: int, momentum: tuple[int, ...], band: int = 0
) -> LatticeState:
    """Unit-norm momentum eigenstate: e^{-i k.v} times a fiber eigenvector.

    ``momentum`` is the integer index m of the allowed wave-vector
    k = 2 pi m / N (componentwise); the fiber vector is the sorted-band
    eigenvector of the k-space operator, so a step multiplies the state by
    a phase and every probability marginal is time invariant.
    """
    d = walk.tiling.dimension
    sizes = (size,) * d
    _check_torus(walk, sizes)
    if len(momentum) != d:
        raise ValueError(f"momentum index needs {d} components")
    k = wrap_phase(2.0 * np.pi * np.asarray(momentum, dtype=float) / size)
    fiber = eigenpairs(kspace_operators(walk, k[None, :]))[1][0, :, band]
    fiber = fiber / np.linalg.norm(fiber)
    grids = np.meshgrid(*[np.arange(size) for _ in range(d)], indexing="ij")
    phase = np.zeros(sizes, dtype=float)
    for axis in range(d):
        phase += k[axis] * grids[axis]
    wave = np.exp(-1j * phase) / np.sqrt(size**d)
    amps = wave[..., None, None] * fiber.reshape((walk.tiling.index, walk.coin_dim))
    return LatticeState(sizes, amps)


def shift_blocks(walk: WalkSpec) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Distinct displacements h and their fiber blocks B_h, transposed.

    Returns the shifts, zero shift first (with a zero block when no rule
    stays put), and an array (len(shifts), l s, l s) whose entry i is B_h^T
    for h = shifts[i], so that ``fiber @ blocks[i]`` applies B_h to a row of
    fiber vectors.  Rows sharing (shift, coset, target) add into one block.
    """
    s = walk.coin_dim
    zero = (0,) * walk.tiling.dimension
    shifts = [zero] + sorted({rule.shift for rule in walk.tiling.rules} - {zero})
    position = {h: i for i, h in enumerate(shifts)}
    blocks = np.zeros((len(shifts), walk.block_dim, walk.block_dim), dtype=complex)
    for rule in walk.tiling.rules:
        rows = slice(s * rule.coset, s * rule.coset + s)
        cols = slice(s * rule.target, s * rule.target + s)
        blocks[position[rule.shift], rows, cols] += walk.transitions.matrix(rule.generator).T
    return tuple(shifts), blocks


def _wrapped_pieces(sizes: tuple[int, ...], shift: tuple[int, ...]):
    """(destination, source) slice pairs with out[v] += term[(v + shift) mod sizes]."""
    per_axis = []
    for n, h in zip(sizes, shift):
        h %= n
        if h == 0:
            per_axis.append([(slice(None), slice(None))])
        else:
            per_axis.append([(slice(0, n - h), slice(h, n)), (slice(n - h, n), slice(0, h))])
    for combo in itertools.product(*per_axis):
        yield tuple(dst for dst, _ in combo), tuple(src for _, src in combo)


def step(walk: WalkSpec, state: LatticeState) -> LatticeState:
    """One application of the walk operator; norm preserved for unitary walks.

    psi'(v) = sum_h B_h psi(v + h): one (sites, l s) @ (l s, l s) product
    per distinct shift, added into the output through wrapped slices.
    """
    _check_torus(walk, state.sizes)
    shifts, blocks = shift_blocks(walk)
    fiber = state.amplitudes.reshape(-1, walk.block_dim)
    out = fiber @ blocks[0]
    # products land in one reused buffer and are added through slices:
    # np.roll would allocate a fresh state-sized array per shift
    term = np.empty_like(out)
    out_sites = out.reshape(state.sizes + (walk.block_dim,))
    term_sites = term.reshape(out_sites.shape)
    for shift, block in zip(shifts[1:], blocks[1:]):
        np.matmul(fiber, block, out=term)
        for dst, src in _wrapped_pieces(state.sizes, shift):
            out_sites[dst] += term_sites[src]
    return LatticeState(state.sizes, out.reshape(state.amplitudes.shape))


def evolve(walk: WalkSpec, state: LatticeState, steps: int) -> LatticeState:
    """``steps`` repeated applications of ``step``."""
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    for _ in range(steps):
        state = step(walk, state)
    return state


def evolve_fourier(walk: WalkSpec, state: LatticeState, steps: int) -> LatticeState:
    """Evolve by diagonalizing over the allowed torus momenta.

    Transforms site axes with the e^{+i k.v} kernel, applies the matrix
    power of the fiber operator at every k = 2 pi m / N, and transforms
    back; agrees with repeated stepping to tight tolerance.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    _check_torus(walk, state.sizes)
    d = walk.tiling.dimension
    size = state.sizes[0]
    if any(n != size for n in state.sizes):
        raise ValueError("fourier evolution expects a square torus")
    site_axes = tuple(range(d))
    volume = float(size**d)
    # hat psi(m) = sum_v e^{+2 pi i m.v / N} psi(v)
    hat = np.fft.ifftn(state.amplitudes, axes=site_axes) * volume
    fiber = hat.reshape(state.sizes + (walk.block_dim,))

    momenta = np.meshgrid(*[np.arange(size) for _ in range(d)], indexing="ij")
    kpoints = np.stack([wrap_phase(2.0 * np.pi * m.ravel() / size) for m in momenta], axis=1)
    operators = kspace_operators(walk, kpoints)
    powered = np.linalg.matrix_power(operators, steps)
    flat = fiber.reshape(-1, walk.block_dim)
    evolved = np.einsum("kij,kj->ki", powered, flat)
    hat_out = evolved.reshape(state.sizes + (walk.tiling.index, walk.coin_dim))
    out = np.fft.fftn(hat_out, axes=site_axes) / volume
    return LatticeState(state.sizes, out)


def probability_map(state: LatticeState) -> np.ndarray:
    """Per-(site, coset) probabilities: coin-summed squared magnitudes."""
    return np.sum(np.abs(state.amplitudes) ** 2, axis=-1)
