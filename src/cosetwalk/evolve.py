"""Position-space evolution on a finite torus and the Fourier cross-check.

The state holds one amplitude per (site, coset, coin) cell.  A step sends
the (v, j) component through every alphabet letter g: the amplitude block
A_g psi(v, j) accumulates at site v - h_{j,g} (mod N) in coset target(g, j).
``evolve`` applies the coarse-grained walk W = sum_h T_h (x) B_h of
``coarse.shift_blocks`` in coset-major layout (l, s, sites), with one product
per (shift, target coset) pair that table rules connect instead of a dense
B_h product, over only the axis-0 rows that the state can have reached, with
the target cosets split between one thread per available core and the bits
of full-torus steps (zero signs aside) at any core count; ``step`` takes one.
``evolve_fourier`` applies U(k) at every torus momentum.  The torus must be
wide enough that no displacement wraps onto itself within a single step.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

from .coarse import available_workers, kspace_operators, lattice, map_kchunks, shift_blocks
from .linalg import DEFAULT_UNITARY_TOL, circular_distance, eigenpairs, wrap_phase
from .spectral import check_band, is_integer
from .walks import WalkSpec


class TorusSizeError(ValueError):
    """Torus too small for the walk's displacement set."""


@dataclass(frozen=True, eq=False)
class LatticeState:
    """Amplitudes on a periodic lattice, shaped sizes + (cosets, coin)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim < 3:
            raise ValueError(f"amplitude array shape {amps.shape} needs site axes and (cosets, coin)")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.amplitudes.shape[:-2]

    @property
    def norm(self) -> float:
        """2-norm summed by einsum, not BLAS, so it has the same bits at any BLAS thread count."""
        flat = self.amplitudes.ravel().view(np.float64)
        return float(np.sqrt(np.einsum("i,i->", flat, flat)))


def minimum_torus_size(walk: WalkSpec) -> int:
    """Smallest per-axis size that keeps one step wrap-free: 2 h + 1 for the
    largest shift entry h in the table (0 for a trivial table)."""
    return 2 * max((abs(h) for rule in walk.tiling.rules for h in rule.shift), default=0) + 1


def _check_torus(walk: WalkSpec, shape: tuple[int, ...]) -> None:
    """Raise unless ``shape`` is a state shape of ``walk`` whose torus one step cannot wrap."""
    d, fiber = walk.tiling.dimension, (walk.tiling.index, walk.coin_dim)
    if len(shape) != d + 2 or shape[d:] != fiber:
        raise ValueError(f"state shape {shape} does not fit the walk's {d} site axes and (cosets, coin) {fiber}")
    smallest = min(shape[:d])
    needed = minimum_torus_size(walk)
    if smallest < needed:
        raise TorusSizeError(
            f"torus size {smallest} too small; displacements up to "
            f"{(needed - 1) // 2} need at least {needed}"
        )


def make_delta(walk: WalkSpec, size: int) -> LatticeState:
    """Unit-norm state on the origin site's first coset: the uniform coin
    superposition (1, ..., 1)/sqrt(s)."""
    d = walk.tiling.dimension
    shape = (size,) * d + (walk.tiling.index, walk.coin_dim)
    _check_torus(walk, shape)
    amps = np.zeros(shape, dtype=complex)
    amps[(0,) * (d + 1)] = np.full(walk.coin_dim, 1.0 / np.sqrt(walk.coin_dim))  # origin site, coset 0
    return LatticeState(amps)


def make_plane_wave(
    walk: WalkSpec, size: int, momentum: tuple[int, ...], band: int = 0
) -> LatticeState:
    """Unit-norm momentum eigenstate: e^{-i k.v} times a fiber eigenvector.

    ``momentum`` is the integer index m of the allowed wave-vector
    k = 2 pi m / N (componentwise).  ``band`` is an integer in
    0 .. block_dim - 1.  Bands are the phases in the order
    ``eigenpairs`` sorts them, which counts a phase within DEFAULT_UNITARY_TOL
    (1e-8) of -pi as +pi, so rounding cannot move an eigenspace at pi to
    band 0.  Bands whose phases
    agree to that tolerance span one eigenspace and name the same state:
    every g1 band is doubly degenerate, and at the torus momenta for N = 3 to
    129, 512 and 1024 distinct bands are at least 2.6e-3 apart for g1 at
    (n, m) = (0.6, 0.8) or (0.8, 0.6) and 1.9e-5 apart for g2.  The fiber
    vector is P e_c, with P the projector onto that eigenspace and e_c the
    first coin basis vector of largest projection, so it does not depend on
    the basis the solver picks, and its entry P_cc > 0 fixes the global phase.
    A step multiplies the state by a phase, and every probability marginal
    is time invariant.
    """
    d = walk.tiling.dimension
    sizes = (size,) * d
    shape = sizes + (walk.tiling.index, walk.coin_dim)
    _check_torus(walk, shape)
    if len(momentum) != d:
        raise ValueError(f"momentum index needs {d} components")
    if not all(is_integer(m) for m in momentum):
        raise ValueError(f"momentum index must be integers, got {momentum!r}")
    check_band(walk, band)
    k = wrap_phase(2.0 * np.pi * np.asarray(momentum, dtype=float) / size)
    phases, vectors = eigenpairs(kspace_operators(walk, k[None, :]))
    cluster = circular_distance(phases[0], phases[0][band]) <= DEFAULT_UNITARY_TOL
    basis = np.linalg.qr(vectors[0][:, cluster])[0]
    weights = np.sum(np.abs(basis) ** 2, axis=1)  # ||P e_c||^2
    coin = int(np.flatnonzero(weights >= weights.max() - DEFAULT_UNITARY_TOL)[0])
    fiber = basis @ basis[coin].conj()
    fiber = fiber / np.linalg.norm(fiber)
    sites = lattice(np.arange(size), d)
    # summed in axis order from zero, not by a BLAS product, which may round differently
    phase = sum(k[a] * sites[:, a] for a in range(d)).reshape(sizes)
    wave = np.exp(-1j * phase) / np.sqrt(size**d)
    amps = wave[..., None, None] * fiber.reshape(shape[d:])
    return LatticeState(amps)


def _wrapped_pieces(sizes: tuple[int, ...], shift: tuple[int, ...], band: tuple[int, int]) -> list:
    """(destination, source) index pairs: out[:, v] += term[:, (v + shift) mod sizes], v + shift in the band."""
    per_axis = []
    for n, h, (first, count) in zip(sizes, shift, (band,) + tuple((0, n) for n in sizes[1:])):
        pieces, row = [], first
        while row < first + count:  # a piece ends where its source or its destination wraps
            src, dst = row % n, (row - h) % n
            length = min(first + count - row, n - src, n - dst)
            pieces.append((slice(dst, dst + length), slice(src, src + length)))
            row += length
        per_axis.append(pieces)
    return [
        ((slice(None),) + tuple(dst for dst, _ in combo), (slice(None),) + tuple(src for _, src in combo))
        for combo in itertools.product(*per_axis)
    ]


def _support_band(amplitudes: np.ndarray) -> tuple[int, int]:
    """(first, count): the fewest cyclically consecutive axis-0 rows first, ..., first + count - 1 (mod N)
    that hold every amplitude != 0, or (0, N) when no gap between them is wider than one row or there are none."""
    n = amplitudes.shape[0]
    rows = np.flatnonzero(np.any(amplitudes.reshape(n, -1) != 0, axis=1))
    gaps = np.diff(rows, append=rows[:1] + n)  # the band starts after the widest gap
    i = int(np.argmax(gaps)) if rows.size else 0
    return (int(rows[(i + 1) % rows.size]), n + 1 - int(gaps[i])) if gaps.max(initial=1) > 1 else (0, n)


# OpenBLAS computes a product's column by its place in a group of at most 16 columns, and numpy sends a
# one-column product to another kernel.  A window that starts at a multiple of _ALIGN, ends at one or at the
# last site and is not the last site alone gives each column the bits of the full-torus product.
_ALIGN = 16


def step(walk: WalkSpec, state: LatticeState) -> LatticeState:
    """One application of the walk operator; norm preserved for unitary walks."""
    return evolve(walk, state, 1)


def evolve(walk: WalkSpec, state: LatticeState, steps: int) -> LatticeState:
    """``steps`` applications of psi'(v) = sum_h B_h psi(v + h).

    The amplitudes are copied once into a coset-major (l, s, sites) array,
    and the steps alternate between two such buffers.  For each shift h and
    target coset t that table rules connect, one product applies the rows of
    B_h for t, over the columns of their source cosets from the lowest to the
    highest, and adds the result into out[t] through wrapped slices.  One
    product per (h, t) rather than per tile keeps each entry's sum in the
    order of a dense B_h product.  Thread w (one per available core, at most
    l) runs the products of the targets t = w (mod threads), the caller runs
    w = 0, and each out[t] gets the same sums in the same order at any core count.

    A step touches only a band of axis-0 rows that holds every amplitude != 0:
    those of ``state``, widened each step by the largest and smallest axis-0
    shift until it is the torus.  Products run on ``_ALIGN``-aligned column
    windows (two if it wraps past row 0) and add only its rows into zeroed
    buffers, so with finite coins every amplitude has full-torus bits up to the
    sign of a zero.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    _check_torus(walk, state.amplitudes.shape)
    if steps == 0:
        return state
    l, s = walk.tiling.index, walk.coin_dim
    sites = state.amplitudes.size // walk.block_dim
    n, per_row = state.sizes[0], sites // state.sizes[0]
    shifts, blocks = shift_blocks(walk)
    low, high = min(h[0] for h in shifts), max(h[0] for h in shifts)
    sources: dict[tuple[int, int], set[int]] = {}  # (shift index, target) -> cosets
    for rule in walk.tiling.rules:
        sources.setdefault((shifts.index(rule.shift), rule.target), set()).add(rule.coset)
    workers = available_workers(l)
    plan = [[] for _ in range(workers)]  # thread t % workers: (row strip of B_h, span of sources, t, shift index)
    for (i, t), cosets in sorted(sources.items()):
        lo, hi = min(cosets), max(cosets) + 1
        strip = np.ascontiguousarray(blocks[i, s * t : s * t + s, s * lo : s * hi])
        plan[t % workers].append((strip, slice(lo, hi), t, i))
    unwritten = [t for t in range(l) if (0, t) not in sources]
    terms = [np.empty((s,) + state.sizes, dtype=complex) for _ in range(workers)]  # one per thread

    def reach(band: tuple[int, int]) -> tuple[list, list]:  # the band's column windows, each shift's adds of its rows
        first, count = band[0] * per_row, band[1] * per_row  # in columns
        spans = ((first, min(first + count, sites)), (0, first + count - sites))  # the part past the last row wraps
        windows = [slice(min(a, max(sites - 2, 0)) // _ALIGN * _ALIGN, min(-(-b // _ALIGN) * _ALIGN, sites))
                   for a, b in spans if a < b]
        return windows, [[]] + [_wrapped_pieces(state.sizes, h, band) for h in shifts[1:]]

    def advance(products: list, term_sites: np.ndarray, psi: np.ndarray, out: np.ndarray, windows, pieces) -> None:
        term = term_sites.reshape(s, sites)
        for strip, span, t, i in products:
            source = psi[span].reshape(-1, sites)
            for w in windows:  # the zero shift writes out[t] itself
                np.matmul(strip, source[:, w], out=(term if i else out[t])[:, w])
            out_sites = out[t].reshape(term_sites.shape)
            for dst, src in pieces[i]:
                out_sites[dst] += term_sites[src]

    band = _support_band(state.amplitudes)
    windows, pieces = reach(band)
    psi = np.empty((l, s, sites), dtype=complex)
    # an explicit copy: a reshape or transpose may be a view of the caller's state
    psi.reshape(l * s, sites)[...] = state.amplitudes.reshape(sites, l * s).T
    out = np.zeros_like(psi)
    if workers > 1:  # imported here, as in coarse.map_kchunks
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers - 1) if workers > 1 else contextlib.nullcontext() as pool:
        for _ in range(steps):
            for t, w in itertools.product(unwritten, windows):  # the rows out held two steps ago, before any add
                out[t][:, w] = 0.0
            futures = [pool.submit(advance, plan[w], terms[w], psi, out, windows, pieces) for w in range(1, workers)]
            advance(plan[0], terms[0], psi, out, windows, pieces)
            for future in futures:  # re-raises a worker's error
                future.result()
            psi, out = out, psi
            if band[1] < n:  # out[v] sums psi[v + h]: the band's rows moved by -high to -low
                first, count = (band[0] - high) % n, band[1] + high - low
                band = (first, count) if count < n else (0, n)
                windows, pieces = reach(band)
    amplitudes = out.reshape(sites, l * s)  # the spare buffer takes the result back
    amplitudes[...] = psi.reshape(l * s, sites).T
    return LatticeState(amplitudes.reshape(state.amplitudes.shape))


def evolve_fourier(walk: WalkSpec, state: LatticeState, steps: int) -> LatticeState:
    """Evolve by diagonalizing over the allowed torus momenta.

    Transforms site axes with the e^{+i k.v} kernel, applies the matrix
    power of the fiber operator at every k = 2 pi m / N (``map_kchunks``),
    and transforms back; agrees with repeated stepping to tight tolerance.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    _check_torus(walk, state.amplitudes.shape)
    d = walk.tiling.dimension
    size = state.sizes[0]
    if any(n != size for n in state.sizes):
        raise ValueError("fourier evolution expects a square torus")
    site_axes = tuple(range(d))
    volume = float(size**d)
    # hat psi(m) = sum_v e^{+2 pi i m.v / N} psi(v)
    hat = np.fft.ifftn(state.amplitudes, axes=site_axes) * volume

    kpoints = lattice(wrap_phase(2.0 * np.pi * np.arange(size) / size), d)
    flat = hat.reshape(-1, walk.block_dim)
    evolved = np.concatenate(list(map_kchunks(walk, kpoints, lambda start, ops: np.einsum(
        "kij,kj->ki", np.linalg.matrix_power(ops, steps), flat[start:start + len(ops)]
    ))))
    hat_out = evolved.reshape(state.sizes + (walk.tiling.index, walk.coin_dim))
    out = np.fft.fftn(hat_out, axes=site_axes) / volume
    return LatticeState(out)


def probability_map(state: LatticeState) -> np.ndarray:
    """Per-(site, coset) probabilities: coin-summed squared magnitudes."""
    return np.sum(np.abs(state.amplitudes) ** 2, axis=-1)
