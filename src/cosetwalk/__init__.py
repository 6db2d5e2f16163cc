"""Quantum walks on Cayley graphs of virtually Abelian groups.

Walks are specified by a presentation, a coset tiling of a finite-index
free-Abelian subgroup, and one transition matrix per generator; the package
validates the unitarity/isotropy constraint systems, coarse-grains the walk
to an enlarged-coin fiber operator in wave-vector space, solves dispersion
relations exactly on grids, and cross-checks against position-space
evolution on a torus.
"""

from .groups import (
    GeneratorLabel,
    GroupElement,
    GroupPresentation,
    TilingData,
    TilingRule,
    ValidationReport,
    Word,
    evaluate_word,
    generator,
    generator_pair,
    invert_element,
    right_multiply,
    validate_tiling,
    word_inverse,
)
from .walks import (
    IsotropySpec,
    TransitionFamily,
    WalkSpec,
    check_isotropy,
    isotropy_normalization_residual,
    unitarity_residual,
    unitarity_residuals,
)
from .coarse import WaveVector, build_kspace_operator, retile
from .linalg import eigenphases, operator_norm, phase_multiset_distance
from .spectral import (
    BandAnalysis,
    DispersionGrid,
    analyze_band,
    band_curvature,
    dispersion_grid,
    group_velocity,
)
from .evolve import (
    LatticeState,
    evolve,
    evolve_fourier,
    make_delta,
    make_plane_wave,
    probability_map,
    step,
)
from . import examples, io

__all__ = [
    "GeneratorLabel",
    "GroupElement",
    "GroupPresentation",
    "TilingData",
    "TilingRule",
    "ValidationReport",
    "Word",
    "evaluate_word",
    "generator",
    "generator_pair",
    "invert_element",
    "right_multiply",
    "validate_tiling",
    "word_inverse",
    "IsotropySpec",
    "TransitionFamily",
    "WalkSpec",
    "check_isotropy",
    "isotropy_normalization_residual",
    "unitarity_residual",
    "unitarity_residuals",
    "WaveVector",
    "build_kspace_operator",
    "retile",
    "eigenphases",
    "operator_norm",
    "phase_multiset_distance",
    "BandAnalysis",
    "DispersionGrid",
    "analyze_band",
    "band_curvature",
    "dispersion_grid",
    "group_velocity",
    "LatticeState",
    "evolve",
    "evolve_fourier",
    "make_delta",
    "make_plane_wave",
    "probability_map",
    "step",
    "examples",
    "io",
]
