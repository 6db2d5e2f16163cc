"""Quantum walks on Cayley graphs of virtually Abelian groups.

Walks are specified by a presentation, a coset tiling of a finite-index
free-Abelian subgroup, and one transition matrix per generator; the package
validates the unitarity/isotropy constraint systems, coarse-grains the walk
to an enlarged-coin fiber operator in wave-vector space, solves dispersion
relations exactly on grids, and cross-checks against position-space
evolution on a torus.
"""

from . import examples, io
