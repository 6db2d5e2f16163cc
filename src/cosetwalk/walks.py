"""Quantum-walk definitions on tiled Cayley graphs and the unitarity /
isotropy constraint validators.

The walk operator is sum_g T_g (x) A_g with one s x s transition matrix per
alphabet letter.  Unitarity requires, for every group element f, that the
pair sums  sum_{g g'^-1 = f} A_g A_{g'}^dag  and  sum_{g^-1 g' = f}
A_g^dag A_{g'}  vanish for f != e and equal the identity for f = e; the
validator buckets all ordered generator pairs by the exact canonical form
of f and reports the worst operator-norm deviation.

The buckets of a tiling are cached as index arrays into the stack of all
pair products, so ``unitarity_residuals`` scores a whole stack of families
(B, L, s, s) with one matmul per side, one gathered add per pair slot and
one batched operator-norm call.  Covariance A_{f(g)} = U A_g U^dag under an
isotropy is scored the same way by ``isotropy_deviations``: one gather of
the image letters, one U A U^dag over the stack, one operator-norm call.
``unitarity_residual`` and ``check_isotropy`` are those kernels on a stack
of one walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .groups import (
    GeneratorLabel,
    GroupElement,
    GroupPresentation,
    TilingData,
    right_multiply,
)
from .linalg import adjoint, operator_norm, unitarity_defect


@dataclass(frozen=True, eq=False)
class TransitionFamily:
    """One complex s x s transition matrix per alphabet letter."""

    coin_dim: int
    matrices: Mapping[GeneratorLabel, np.ndarray]

    def __post_init__(self) -> None:
        if self.coin_dim < 1:
            raise ValueError("coin dimension must be positive")
        frozen: dict[GeneratorLabel, np.ndarray] = {}
        for g, m in self.matrices.items():
            m = np.array(m, dtype=complex)
            if m.shape != (self.coin_dim, self.coin_dim):
                raise ValueError(
                    f"matrix for {g.name} has shape {m.shape}, expected "
                    f"({self.coin_dim}, {self.coin_dim})"
                )
            m.setflags(write=False)
            frozen[g] = m
        object.__setattr__(self, "matrices", frozen)

    def matrix(self, g: GeneratorLabel) -> np.ndarray:
        return self.matrices[g]


@dataclass(frozen=True, eq=False)
class WalkSpec:
    """A walk on a tiled Cayley graph: presentation + tiling + transitions."""

    presentation: GroupPresentation
    tiling: TilingData
    transitions: TransitionFamily

    def __post_init__(self) -> None:
        alphabet = set(self.presentation.alphabet)
        if set(self.transitions.matrices) != alphabet:
            raise ValueError("transition matrices do not cover the alphabet exactly")
        if set(self.tiling.generators) != alphabet:
            raise ValueError("tiling table rows do not cover the alphabet exactly")

    @property
    def coin_dim(self) -> int:
        return self.transitions.coin_dim

    @property
    def block_dim(self) -> int:
        """Dimension s*l of the coarse-grained coin (k-space operator size)."""
        return self.coin_dim * self.tiling.index

    def matrix_stack(self) -> np.ndarray:
        """The (L, s, s) transition matrices in alphabet order."""
        mats = self.transitions.matrices
        return np.stack([mats[g] for g in self.presentation.alphabet])


@dataclass(frozen=True, eq=False)
class IsotropySpec:
    """A graph automorphism acting on the alphabet plus its coin unitary."""

    permutation: Mapping[GeneratorLabel, GeneratorLabel]
    coin_unitary: np.ndarray

    def __post_init__(self) -> None:
        perm = dict(self.permutation)
        if set(perm.values()) != set(perm):
            raise ValueError("permutation is not a bijection of the alphabet")
        for g, image in perm.items():
            if perm[g.inverse()] != image.inverse():
                raise ValueError(
                    f"permutation does not commute with inversion at {g.name}"
                )
        u = np.array(self.coin_unitary, dtype=complex)
        defect = unitarity_defect(u)
        if defect > 1e-10:
            raise ValueError(f"coin matrix is not unitary (defect {defect:.3e})")
        u.setflags(write=False)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "coin_unitary", u)


class _PairBuckets(NamedTuple):
    """Bucket index arrays for one tiling and alphabet (see ``_pair_buckets``)."""

    products: tuple[GroupElement, ...]
    pairs: np.ndarray
    columns: np.ndarray
    identity_rows: np.ndarray


@lru_cache(maxsize=None)
def _pair_buckets(tiling: TilingData, alphabet: tuple[GeneratorLabel, ...]) -> _PairBuckets:
    """Ordered letter pairs grouped by the exact canonical product f.

    Bucket rows are the left buckets, f = g g'^-1 (sums A_g A_{g'}^dag), then
    the right buckets, f = g^-1 g' (sums A_g^dag A_{g'}), each side in
    order of first appearance over (g, g') in alphabet order.  ``pairs[r]``
    lists the positions of bucket r's pairs in the product stack of
    ``unitarity_residuals``: i L + j for the left pair (alphabet[i],
    alphabet[j]), L^2 + i L + j for the right one, and 2 L^2 (a zero
    product) as padding.  ``products`` holds the report keys (the left
    products, then the right products not among them), ``columns[r]`` the
    report column of row r, and ``identity_rows`` the identity bucket row
    of each side.
    """
    identity = GroupElement.identity(tiling.dimension)
    size = len(alphabet)
    sides: tuple[dict[GroupElement, list[int]], dict[GroupElement, list[int]]] = ({}, {})
    for i, g in enumerate(alphabet):
        for j, gp in enumerate(alphabet):
            f_left = right_multiply(right_multiply(identity, g, tiling), gp.inverse(), tiling)
            f_right = right_multiply(right_multiply(identity, g.inverse(), tiling), gp, tiling)
            sides[0].setdefault(f_left, []).append(i * size + j)
            sides[1].setdefault(f_right, []).append(size * size + i * size + j)
    rows = [(f, positions) for side in sides for f, positions in side.items()]
    products = tuple(dict.fromkeys(f for f, _ in rows))
    column = {f: c for c, f in enumerate(products)}
    width = max(len(positions) for _, positions in rows)
    pad = 2 * size * size
    pairs = np.array([positions + [pad] * (width - len(positions)) for _, positions in rows])
    identity_rows = [r for r, (f, _) in enumerate(rows) if f == identity]
    return _PairBuckets(
        products, pairs, np.array([column[f] for f, _ in rows]), np.array(identity_rows)
    )


def _family_stack(alphabet: tuple[GeneratorLabel, ...], matrices: np.ndarray) -> np.ndarray:
    """``matrices`` as a complex (B, L, s, s) array, L = len(alphabet)."""
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim != 4 or mats.shape[1] != len(alphabet) or mats.shape[2] != mats.shape[3]:
        raise ValueError(f"matrices have shape {mats.shape}, expected (B, {len(alphabet)}, s, s)")
    return mats


def unitarity_residuals(
    tiling: TilingData, alphabet: tuple[GeneratorLabel, ...], matrices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Constraint residuals of a stack of transition families in one pass.

    ``matrices`` has shape (B, L, s, s): B families, each with one s x s
    matrix per letter of ``alphabet`` (L letters, in that order).  Returns
    the worst deviation of each family, shape (B,), and the per-product
    deviations, shape (B, P), with column p for the product
    ``_pair_buckets(tiling, alphabet).products[p]``.  All L^2 products of a
    side are formed with one matmul, each bucket sums its pairs in table
    order starting from zero, and every bucket norm comes from one
    ``operator_norm`` call; every family is scored, unitary or not, and one
    whose products overflow scores NaN.
    """
    buckets = _pair_buckets(tiling, alphabet)
    mats = _family_stack(alphabet, matrices)
    size = len(alphabet)
    batch, s = mats.shape[0], mats.shape[-1]
    adj = adjoint(mats)
    # huge entries overflow to inf or NaN, which score as a NaN residual
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.concatenate(
            [
                (mats[:, :, None] @ adj[:, None]).reshape(batch, size * size, s, s),
                (adj[:, :, None] @ mats[:, None]).reshape(batch, size * size, s, s),
                np.zeros((batch, 1, s, s), dtype=complex),
            ],
            axis=1,
        )
        sums = np.zeros((batch, len(buckets.pairs), s, s), dtype=complex)
        for slot in buckets.pairs.T:
            sums += stack[:, slot]
        sums[:, buckets.identity_rows] -= np.eye(s)
    deviations = np.zeros((batch, len(buckets.products)))
    np.maximum.at(deviations.T, buckets.columns, operator_norm(sums).T)
    return deviations.max(axis=1, initial=0.0), deviations


def unitarity_residual(walk: WalkSpec) -> tuple[float, dict[GroupElement, float]]:
    """Worst constraint deviation and the per-product bucket report.

    For each canonical product f the report carries the larger of the two
    deviations ||sum A_g A_{g'}^dag - target|| and ||sum A_g^dag A_{g'} -
    target|| with target I for f = e and 0 otherwise.  A residual of zero is
    equivalent to a unitary walk operator.  The walk is scored as a stack
    of one by ``unitarity_residuals``.
    """
    alphabet = walk.presentation.alphabet
    residuals, deviations = unitarity_residuals(walk.tiling, alphabet, walk.matrix_stack()[None])
    products = _pair_buckets(walk.tiling, alphabet).products
    return float(residuals[0]), dict(zip(products, deviations[0].tolist()))


def isotropy_deviations(
    alphabet: tuple[GeneratorLabel, ...],
    matrices: np.ndarray,
    iso: IsotropySpec | Sequence[IsotropySpec],
) -> np.ndarray:
    """Worst covariance deviation max_g ||A_{f(g)} - U A_g U^dag|| of a stack.

    ``matrices`` has shape (B, L, s, s) as in ``unitarity_residuals``;
    ``iso`` is one isotropy for every family or a sequence of B, one per
    family.  Returns shape (B,).  The image letters are gathered in one
    take, U A U^dag is one matmul chain over the stack and every letter's
    deviation comes from one ``operator_norm`` call; a family whose
    entries are not finite or overflow scores NaN.
    """
    specs = (iso,) if isinstance(iso, IsotropySpec) else tuple(iso)
    mats = _family_stack(alphabet, matrices)
    u = np.stack([spec.coin_unitary for spec in specs])[:, None]
    if u.shape[-2:] != mats.shape[-2:]:
        raise ValueError(
            f"coin unitary has shape {u.shape[-2:]}, walk coin dimension is {mats.shape[-1]}"
        )
    missing = [g.name for spec in specs for g in alphabet if g not in spec.permutation]
    if missing:
        raise ValueError(f"permutation does not act on {missing[0]}")
    images = np.array(
        [[alphabet.index(spec.permutation[g]) for g in alphabet] for spec in specs], dtype=int
    )
    gathered = np.take_along_axis(mats, images[:, :, None, None], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        covariance = gathered - u @ mats @ adjoint(u)
    return operator_norm(covariance).max(axis=1, initial=0.0)


def check_isotropy(walk: WalkSpec, iso: IsotropySpec) -> float:
    """Worst covariance deviation max_g ||A_{f(g)} - U A_g U^dag||, the walk
    scored as a stack of one by ``isotropy_deviations``."""
    return float(isotropy_deviations(walk.presentation.alphabet, walk.matrix_stack()[None], iso)[0])


def isotropy_normalization_residual(walk: WalkSpec) -> float:
    """||sum_g A_g - I||, zero exactly for the normalized solution families."""
    total = sum(walk.transitions.matrices.values())
    return operator_norm(total - np.eye(walk.coin_dim))
