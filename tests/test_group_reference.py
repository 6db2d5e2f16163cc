"""The built-in tables and the reduction, checked against the groups themselves.

G1 and G2 are written as integer affine maps of the plane in
``walk_helpers.AFFINE_GROUPS``.  Every table row, the derived inverse rows
included, must hold in that group, and ``evolve`` must equal the walk stepped
directly on group elements, at every built-in parameter corner: the 20 g1
members of the verification suite and both g2 variants.
"""

import numpy as np
import pytest

from cosetwalk import examples as ex
from cosetwalk.evolve import LatticeState, evolve
from walk_helpers import AFFINE_GROUPS, affine_table_mismatches, affine_word, reference_walk

_CORNERS = [
    ("g1", f"{cls}-n{n:.3g}-{'+' if sign > 0 else '-'}",
     lambda cls=cls, n=n, sign=sign: ex.g1_walk(ex.G1Params(cls, n, float(np.sqrt(max(0.0, 1.0 - n * n))), sign)))
    for n in ex._G1_SWEEP_WEIGHTS
    for cls in ("I", "II")
    for sign in (1, -1)
] + [("g2", variant, lambda variant=variant: ex.g2_walk(variant)) for variant in ("I", "II")]
every_corner = pytest.mark.parametrize("name, make", [(name, make) for name, _, make in _CORNERS],
                                       ids=[f"{name}-{corner}" for name, corner, _ in _CORNERS])


@pytest.mark.parametrize("name", sorted(AFFINE_GROUPS))
def test_affine_maps_satisfy_the_relators(name):
    walk = ex.builtin_walk(name)[0]
    for relator in walk.presentation.relators:
        assert np.array_equal(affine_word(name, relator), np.eye(3)), relator


@every_corner
def test_every_table_row_holds_in_the_group(name, make):
    walk = make()
    assert len(walk.tiling.rules) == len(walk.presentation.alphabet) * walk.tiling.index
    assert affine_table_mismatches(walk, name) == []


@every_corner
def test_evolve_equals_the_walk_on_group_elements(name, make):
    walk = make()
    rng = np.random.default_rng(5)
    coins = rng.normal(size=(walk.tiling.index, walk.coin_dim, 2)) @ (1.0, 1j)
    amplitudes = np.zeros((24, 24, walk.tiling.index, walk.coin_dim), dtype=complex)
    amplitudes[0, 0] = coins
    got = evolve(walk, LatticeState(amplitudes), 8).amplitudes
    assert np.abs(got - reference_walk(walk, name, coins, 8, 24)).max() <= 1e-12
