"""Coset coarse-graining in wave-vector space.

At wave-vector k the walk acts on an (s*l)-dimensional fiber; block (i, j)
of the operator is  sum over g with target(g, j) = i of A_g e^{-i k.h_{j,g}}.
Wave-vector components are the pairings of k with the tiling's H-basis
vectors, and the principal domain is (-pi, pi] per component.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .groups import TilingData, TilingRule, Word, evaluate_word
from .walks import WalkSpec


class RetileError(ValueError):
    """Proposed representative words do not give a translated transversal."""


def kspace_operators(walk: WalkSpec, kpoints: np.ndarray) -> np.ndarray:
    """Fiber operators for a batch of wave-vectors, shape (nk, s*l, s*l)."""
    kpoints = np.asarray(kpoints, dtype=float)
    if kpoints.ndim != 2 or kpoints.shape[1] != walk.tiling.dimension:
        raise ValueError(f"kpoints must have shape (nk, {walk.tiling.dimension})")
    s = walk.coin_dim
    dim = walk.block_dim
    out = np.zeros((kpoints.shape[0], dim, dim), dtype=complex)
    for rule in walk.tiling.rules:
        block = walk.transitions.matrix(rule.generator)
        phase = np.exp(-1j * (kpoints @ np.asarray(rule.shift, dtype=float)))
        rows = slice(s * rule.target, s * rule.target + s)
        cols = slice(s * rule.coset, s * rule.coset + s)
        out[:, rows, cols] += phase[:, None, None] * block
    return out


def retile(walk: WalkSpec, new_rep_words: Sequence[Word]) -> WalkSpec:
    """Rebuild the walk over representatives translated within their cosets.

    Each proposed word must evaluate (in the old tiling) to t_j * c_j for
    its own coset j, with the coset-0 representative staying the identity.
    The table targets are unchanged and the displacements become
    h'_{j,g} = h_{j,g} + t_{target} - t_j, so the new fiber operators are
    diagonal-phase conjugates of the old ones: eigenphases agree at every k.
    """
    tiling = walk.tiling
    words = tuple(new_rep_words)
    if len(words) != tiling.index:
        raise RetileError(f"need {tiling.index} representative words, got {len(words)}")
    translations: list[tuple[int, ...]] = []
    for j, w in enumerate(words):
        value = evaluate_word(w, tiling)
        if value.coset != j:
            raise RetileError(
                f"proposed representative {j} lands in coset {value.coset}; "
                "not a translated transversal"
            )
        translations.append(value.vector)
    if any(translations[0]):
        raise RetileError("coset-0 representative must stay the identity")

    new_rules = tuple(
        TilingRule(
            rule.generator,
            rule.coset,
            rule.target,
            tuple(
                h + t_target - t_source
                for h, t_target, t_source in zip(
                    rule.shift, translations[rule.target], translations[rule.coset]
                )
            ),
        )
        for rule in tiling.rules
    )
    new_tiling = TilingData(tiling.dimension, tiling.index, words, new_rules)
    return WalkSpec(walk.presentation, new_tiling, walk.transitions)
