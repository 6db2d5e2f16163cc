"""Reject paths of the Python API that no command reaches: each call raises
(or, for ``validate_tiling``, reports) one named problem."""

import re

import numpy as np
import pytest

from cosetwalk import examples as ex
from cosetwalk.coarse import kspace_operators
from cosetwalk.evolve import LatticeState, evolve, evolve_fourier, make_delta, make_plane_wave
from cosetwalk.groups import GeneratorLabel, GroupPresentation, TilingData, TilingRule, generator_pair, validate_tiling
from cosetwalk.io import WalkFileError, loads_walk
from cosetwalk.linalg import EIGENSOLVE_MAX_DIM, eigenpairs
from cosetwalk.spectral import _components
from cosetwalk.walks import IsotropySpec, WalkSpec

A, A_INV = generator_pair("a")
B, C = GeneratorLabel("b"), GeneratorLabel("c")


def _line_tiling(*extra_rules, rep_words=((),)):
    """The unit shift on Z in the letter a, index len(rep_words), plus ``extra_rules``."""
    index = len(rep_words)
    rules = [TilingRule(g, j, j, (step,)) for g, step in ((A, 1), (A_INV, -1)) for j in range(index)]
    return TilingData(1, index, rep_words, tuple(rules) + extra_rules)


def _validation_messages(tiling):
    return [str(problem) for problem in validate_tiling(tiling, GroupPresentation((A,), ()))]


@pytest.mark.parametrize("call, error, message", [
    (lambda: GroupPresentation((A, A), ()), ValueError, "duplicate generator names: ['a', 'a']"),
    (lambda: GroupPresentation((A_INV,), ()), ValueError, "S+ must contain base letters only, got a^-1"),
    (lambda: GroupPresentation((A,), ((A, B),)), ValueError, "relator uses unknown letter 'b'"),
    (lambda: kspace_operators(ex.g2_walk("I"), np.zeros((3, 3))), ValueError, "kpoints must have shape (nk, 2)"),
    (lambda: kspace_operators(ex.g2_walk("I"), np.zeros(2)), ValueError, "kpoints must have shape (nk, 2)"),
    (lambda: eigenpairs(np.eye(3)[None, :2]), ValueError, "expected a stack of square matrices, got shape (1, 2, 3)"),
    (lambda: eigenpairs(np.ones(4)), ValueError, "expected a stack of square matrices, got shape (4,)"),
    (lambda: eigenpairs(np.eye(3)), ValueError, "expected a stack of square matrices, got shape (3, 3)"),
    (lambda: eigenpairs(np.eye(3)[None, None]), ValueError, "expected a stack of square matrices, got shape (1, 1, 3, 3)"),
    (lambda: eigenpairs(np.eye(EIGENSOLVE_MAX_DIM + 1)[None]), ValueError,
     f"matrix dimension {EIGENSOLVE_MAX_DIM + 1} exceeds {EIGENSOLVE_MAX_DIM}"),
    (lambda: _components([0.1, 0.2, 0.3], 2), ValueError, "wave-vector has shape (3,), expected (2,)"),
    (lambda: _components([[0.1, 0.2]], 2), ValueError, "wave-vector has shape (1, 2), expected (2,)"),
    (lambda: evolve_fourier(ex.g2_walk("I"), make_delta(ex.g2_walk("I"), 5), -1), ValueError,
     "step count must be nonnegative"),
    (lambda: evolve(ex.g2_walk("I"), make_delta(ex.g2_walk("I"), 5), -1), ValueError,
     "step count must be nonnegative"),
    (lambda: evolve_fourier(ex.g2_walk("I"), LatticeState(np.zeros((5, 6, 2, 2))), 1), ValueError,
     "fourier evolution expects a square torus"),
    (lambda: make_plane_wave(ex.g2_walk("I"), 5, (1,)), ValueError, "momentum index needs 2 components"),
    (lambda: make_plane_wave(ex.g2_walk("I"), 5, (1, 0, 0)), ValueError, "momentum index needs 2 components"),
    (lambda: loads_walk("[]"), WalkFileError, "document root must be an object, got list"),
    (lambda: WalkSpec(ex.g2_walk("I").presentation, ex.g2_walk("I").tiling,
                      {**ex.g2_walk("I").matrices, B: [[1, 2], [3]]}),
     ValueError, "matrix for b is not an array of numbers"),
    (lambda: IsotropySpec(ex.SWAP_AB, [[1, 0], [0]]), ValueError, "coin matrix is not an array of numbers"),
    (lambda: IsotropySpec(ex.SWAP_AB, "x"), ValueError, "coin matrix is not an array of numbers"),
    (lambda: IsotropySpec(ex.SWAP_AB, [1]), ValueError, "coin matrix has shape (1,), expected (1, 1)"),
    (lambda: IsotropySpec(ex.SWAP_AB, np.eye(3)[:2]), ValueError, "coin matrix has shape (2, 3), expected (2, 2)"),
    (lambda: IsotropySpec(ex.SWAP_AB, [[np.nan, 0], [0, 1]]), ValueError, "coin matrix is not unitary (defect nan)"),
    (lambda: IsotropySpec({A: A}, np.eye(2)), ValueError, "permutation does not commute with inversion at a"),
    (lambda: _validation_messages(_line_tiling(TilingRule(C, 0, 0, (0,)))),
     None, ["[table] table row for unknown generator c"]),
    (lambda: _validation_messages(_line_tiling(TilingRule(C, 0, 0, (0,)), TilingRule(C.inverse(), 0, 0, (0,)))),
     None, ["[table] table row for unknown generator c", "[table] table row for unknown generator c^-1"]),
    (lambda: _validation_messages(_line_tiling(TilingRule(C.inverse(), 0, 0, (0,)), TilingRule(C, 0, 0, (0,)))),
     None, ["[table] table row for unknown generator c^-1", "[table] table row for unknown generator c"]),
    (lambda: _validation_messages(_line_tiling(rep_words=((), (C,)))),
     None, ["[representative] word c failed: table has no row for (c^-1, j=0)"]),
], ids=[
    "presentation-duplicate-names", "presentation-inverse-in-s-plus", "presentation-unknown-relator-letter",
    "kspace-operators-wrong-width", "kspace-operators-one-axis", "eigenpairs-not-square", "eigenpairs-one-axis",
    "eigenpairs-one-matrix", "eigenpairs-two-stack-axes", "eigenpairs-too-wide", "components-too-long", "components-two-axes", "fourier-negative-steps",
    "evolve-negative-steps", "fourier-non-square-torus", "plane-wave-momentum-short", "plane-wave-momentum-long",
    "walk-file-root-not-an-object", "walk-spec-ragged-matrix", "isotropy-ragged-coin", "isotropy-text-coin",
    "isotropy-one-axis-coin", "isotropy-non-square-coin", "isotropy-nan-coin", "isotropy-missing-inverse-letter",
    "validate-unknown-letter-row", "validate-two-unknown-letters-in-table-order",
    "validate-two-unknown-letters-in-reversed-table-order", "validate-unknown-letter-representative",
])
def test_api_rejects_name_the_problem(call, error, message):
    if error is None:
        assert call() == message
    else:
        with pytest.raises(error, match=re.escape(message) + "$"):
            call()
