"""Walk helpers that only the tests use.

``retile`` rebuilds a walk over representatives translated within their
cosets, so the tests can check that the spectrum does not depend on the
choice of transversal.  ``isotropy_normalization_residual`` scores the
normalization sum_g A_g = I of the built-in solution families.  Neither is
part of the reduction itself, so they live here and not in the package.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cosetwalk.groups import TilingData, TilingRule, Word, evaluate_word
from cosetwalk.linalg import operator_norm
from cosetwalk.walks import WalkSpec


class RetileError(ValueError):
    """Proposed representative words do not give a translated transversal."""


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
    return WalkSpec(walk.presentation, new_tiling, walk.matrices)


def isotropy_normalization_residual(walk: WalkSpec) -> float:
    """||sum_g A_g - I||, zero exactly for the normalized solution families."""
    total = sum(walk.matrices.values())
    return operator_norm(total - np.eye(walk.coin_dim))
