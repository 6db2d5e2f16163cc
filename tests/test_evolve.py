import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose

import cosetwalk.evolve as evolve_module
from cosetwalk import examples as ex
from cosetwalk.coarse import kspace_operators, shift_blocks
from cosetwalk.evolve import (
    LatticeState,
    TorusSizeError,
    evolve,
    evolve_fourier,
    make_delta,
    make_plane_wave,
    minimum_torus_size,
    probability_map,
    step,
)
from cosetwalk.groups import GroupPresentation, TilingData, TilingRule, generator_pair
from cosetwalk.linalg import eigenpairs, wrap_phase
from cosetwalk.walks import WalkSpec

from test_coarse import shift_walk_1d
from walk_helpers import retile

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")


def test_minimum_torus_size(g1_massive):
    assert minimum_torus_size(g1_massive) == 3
    with pytest.raises(TorusSizeError):
        make_delta(g1_massive, 2)


def test_delta_state_is_normalized(g1_massive):
    state = make_delta(g1_massive, 8)
    assert state.norm == pytest.approx(1.0)
    probabilities = probability_map(state)
    assert probabilities.sum() == pytest.approx(1.0)
    assert probabilities[0, 0, 0] == pytest.approx(1.0)


def test_probability_map_of_uniform_state(g2_one):
    sizes = (4, 4)
    amplitudes = np.full(sizes + (2, 2), 0.125, dtype=complex)
    state = LatticeState(amplitudes)
    probabilities = probability_map(state)
    assert_allclose(probabilities, np.full(sizes + (2,), 2 * 0.125**2))


def test_shift_walk_translates_delta_exactly():
    walk = shift_walk_1d()
    state = make_delta(walk, 8)
    moved = step(walk, state)
    assert moved.norm == pytest.approx(1.0)
    # the only rule with a matrix moves amplitude from v to v - h with h = +1
    expected = np.zeros((8, 1, 1), dtype=complex)
    expected[7, 0, 0] = 1.0
    assert_allclose(moved.amplitudes, expected)


@pytest.mark.parametrize("maker", [
    lambda: ex.g1_walk(ex.G1Params("I", 1.0, 0.0, 1)),
    lambda: ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)),
    lambda: ex.g2_walk("I"),
    lambda: ex.g2_walk("II"),
], ids=["g1-flat", "g1-massive", "g2-I", "g2-II"])
def test_norm_is_conserved_over_ten_steps(maker):
    walk = maker()
    state = make_delta(walk, 16, coin=0)
    final = evolve(walk, state, 10)
    assert abs(final.norm - 1.0) < 1e-12


def test_g2_single_step_support_from_coin_basis_delta(g2_one):
    # with coin e_1 only the a and b branches carry amplitude: two cells of 1/2
    state = make_delta(g2_one, 8, coin=0)
    probabilities = probability_map(step(g2_one, state))
    nonzero = {
        cell: float(probabilities[cell])
        for cell in zip(*np.nonzero(probabilities > 1e-15))
    }
    assert nonzero == {
        (0, 0, 1): pytest.approx(0.5),   # a branch: site -h_{0,a} = (0,0), coset 1
        (0, 7, 1): pytest.approx(0.5),   # b branch: site -h_{0,b} = (0,-1), coset 1
    }


def test_g2_single_step_support_from_uniform_delta(g2_one):
    # uniform coin activates all four branches with probability 1/4 each
    state = make_delta(g2_one, 8)
    probabilities = probability_map(step(g2_one, state))
    nonzero = {
        cell: float(probabilities[cell])
        for cell in zip(*np.nonzero(probabilities > 1e-15))
    }
    assert nonzero == {
        (0, 0, 1): pytest.approx(0.25),   # a:    -h = (0, 0)
        (0, 7, 1): pytest.approx(0.25),   # b:    -h = (0, -1)
        (1, 0, 1): pytest.approx(0.25),   # a^-1: -h = (1, 0)
        (1, 7, 1): pytest.approx(0.25),   # b^-1: -h = (1, -1)
    }


def test_locality_cone(g1_massive):
    state = make_delta(g1_massive, 16)
    steps = 4
    final = evolve(g1_massive, state, steps)
    probabilities = probability_map(final).sum(axis=-1)
    vx, vy = np.nonzero(probabilities > 1e-15)
    # signed distance on the torus
    def radius(values):
        signed = np.where(values > 8, values - 16, values)
        return np.abs(signed).max()
    assert radius(vx) <= steps
    assert radius(vy) <= steps


def test_fourier_with_zero_steps_is_identity(g1_massive):
    state = make_delta(g1_massive, 8)
    out = evolve_fourier(g1_massive, state, 0)
    assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("maker", [
    lambda: ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)),
    lambda: ex.g2_walk("I"),
], ids=["g1", "g2"])
def test_fourier_agrees_with_stepping(maker):
    walk = maker()
    state = make_delta(walk, 16, coin=0)
    stepped = evolve(walk, state, 10)
    transformed = evolve_fourier(walk, state, 10)
    assert np.abs(stepped.amplitudes - transformed.amplitudes).max() < 1e-10


def test_plane_wave_is_stationary(g2_one):
    state = make_plane_wave(g2_one, 8, (1, 2), band=1)
    assert state.norm == pytest.approx(1.0)
    before = probability_map(state)
    after = probability_map(evolve(g2_one, state, 7))
    assert_allclose(after, before, atol=1e-12)


def test_state_shape_validation():
    with pytest.raises(ValueError, match="needs site axes and"):
        LatticeState(np.zeros((4, 2)))


@pytest.mark.parametrize("shape", [
    (16, 16, 2, 4),  # g1 has (l, s) = (4, 2): axes swapped
    (16, 4, 2),  # one site axis for a planar walk
    (16, 16, 16, 4, 2),  # three site axes
], ids=["swapped-fiber", "rank-1", "rank-3"])
@pytest.mark.parametrize("run", [evolve, evolve_fourier])
def test_evolution_rejects_a_state_of_another_walk(shape, run, g1_massive):
    state = LatticeState(np.zeros(shape, dtype=complex))
    for steps in (0, 3):
        with pytest.raises(ValueError) as error:
            run(g1_massive, state, steps)
        assert f"state shape {shape} " in str(error.value) and "(4, 2)" in str(error.value)


# --- the per-shift step against the per-rule step ---------------------------


def per_rule_step(walk, state):
    """Reference step: one roll, one coin matmul and one add per table rule."""
    d = walk.tiling.dimension
    amps = state.amplitudes
    out = np.zeros_like(amps)
    for rule in walk.tiling.rules:
        block = walk.matrices[rule.generator]
        shifted = np.roll(amps[..., rule.coset, :], tuple(-s for s in rule.shift), axis=tuple(range(d)))
        out[..., rule.target, :] += shifted @ block.T
    return LatticeState(out)


def per_rule_evolve(walk, state, steps):
    for _ in range(steps):
        state = per_rule_step(walk, state)
    return state


def random_state(rng, walk, sizes):
    shape = tuple(sizes) + (walk.tiling.index, walk.coin_dim)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return LatticeState(amps / np.linalg.norm(amps))


def shared_slot_walk(rng):
    """Index-1 walk on Z where t and u both move coset 0 to 0 by +1 (and
    their inverses by -1), so two rules add into each nonzero shift block."""
    t, t_inv = generator_pair("t")
    u, u_inv = generator_pair("u")
    tiling = TilingData(
        dimension=1,
        index=1,
        rep_words=((),),
        rules=(
            TilingRule(t, 0, 0, (1,)),
            TilingRule(t_inv, 0, 0, (-1,)),
            TilingRule(u, 0, 0, (1,)),
            TilingRule(u_inv, 0, 0, (-1,)),
        ),
    )
    matrices = {
        g: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for g in (t, t_inv, u, u_inv)
    }
    return WalkSpec(GroupPresentation((t, u), ()), tiling, matrices)


G1_VARIANTS = [
    ex.G1Params("I", 0.6, 0.8, 1),
    ex.G1Params("I", 0.6, 0.8, -1),
    ex.G1Params("II", 0.6, 0.8, 1),
    ex.G1Params("II", 0.8, 0.6, -1),
]
ALL_WALKS = [ex.g1_walk(p) for p in G1_VARIANTS] + [ex.g2_walk("I"), ex.g2_walk("II")]
WALK_IDS = ["g1-I+", "g1-I-", "g1-II+", "g1-II-", "g2-I", "g2-II"]


@pytest.mark.parametrize("walk", ALL_WALKS, ids=WALK_IDS)
@pytest.mark.parametrize("steps", [1, 20])
def test_step_matches_the_per_rule_step(walk, steps):
    for state in (make_delta(walk, 32), make_plane_wave(walk, 16, (1, 2), band=1)):
        stepped = evolve(walk, state, steps).amplitudes
        reference = per_rule_evolve(walk, state, steps).amplitudes
        assert np.abs(stepped - reference).max() <= 1e-15


@pytest.mark.parametrize("steps", [1, 20])
def test_step_matches_the_per_rule_step_on_a_line_and_a_rectangle(rng, g1_massive, g2_two, steps):
    line = shift_walk_1d()
    cases = [(line, make_delta(line, 8)), (line, random_state(rng, line, (9,)))]
    cases += [(walk, random_state(rng, walk, (8, 12))) for walk in (g1_massive, g2_two)]
    for walk, state in cases:
        stepped = evolve(walk, state, steps).amplitudes
        reference = per_rule_evolve(walk, state, steps).amplitudes
        assert stepped.shape == state.amplitudes.shape
        assert np.abs(stepped - reference).max() <= 1e-15


@settings(max_examples=30, deadline=None)
@given(
    which=st.sampled_from(["g1", "g2"]),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(3, 7), st.integers(3, 7)),
)
def test_step_matches_the_per_rule_step_for_any_coin_matrices(which, seed, sizes):
    # the blocks are summed from the table, not from a unitary walk: random
    # complex matrices (not unitary) must give the per-rule result too
    rng = np.random.default_rng(seed)
    base = ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)) if which == "g1" else ex.g2_walk("I")
    s = base.coin_dim
    matrices = {
        g: rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        for g in base.presentation.alphabet
    }
    walk = WalkSpec(base.presentation, base.tiling, matrices)
    state = random_state(rng, walk, sizes)
    stepped = evolve(walk, state, 2).amplitudes
    reference = per_rule_evolve(walk, state, 2).amplitudes
    # reordered sums of O(10) terms per entry: a few ulps of the largest entry
    assert np.abs(stepped - reference).max() <= 1e-14 * max(1.0, np.abs(reference).max())


def test_rules_sharing_a_slot_add_into_one_block(rng):
    walk = shared_slot_walk(rng)
    (t, t_inv), (u, u_inv) = generator_pair("t"), generator_pair("u")
    shifts, blocks = shift_blocks(walk)
    assert shifts == ((0,), (-1,), (1,))
    assert not blocks[0].any()  # no rule stays put
    m = walk.matrices
    assert_allclose(blocks[2], m[t] + m[u], rtol=0, atol=1e-15)
    assert_allclose(blocks[1], m[t_inv] + m[u_inv], rtol=0, atol=1e-15)
    state = random_state(rng, walk, (7,))
    for steps in (1, 5):
        stepped = evolve(walk, state, steps).amplitudes
        reference = per_rule_evolve(walk, state, steps).amplitudes
        assert np.abs(stepped - reference).max() <= 1e-14 * max(1.0, np.abs(reference).max())


def test_evolve_leaves_the_input_amplitudes_unchanged(rng):
    # for l = s = 1 a reshape or transpose of the state is a view of it
    walks = [shift_walk_1d(), shared_slot_walk(rng)] + ALL_WALKS
    for walk in walks:
        sizes = (9,) * walk.tiling.dimension
        state = random_state(rng, walk, sizes)
        before = state.amplitudes.copy()
        for steps in (1, 2, 5):
            evolve(walk, state, steps)
            assert np.array_equal(state.amplitudes, before)
        step(walk, state)
        assert np.array_equal(state.amplitudes, before)


def one_target_walk(rng):
    """Index-2 walk on Z whose rules all land in coset 0: coset 1 is never
    written, so a reused buffer must still read exactly 0 there."""
    t, t_inv = generator_pair("t")
    tiling = TilingData(
        dimension=1,
        index=2,
        rep_words=((), (t,)),
        rules=(
            TilingRule(t, 0, 0, (1,)),
            TilingRule(t, 1, 0, (0,)),
            TilingRule(t_inv, 0, 0, (-1,)),
            TilingRule(t_inv, 1, 0, (2,)),
        ),
    )
    matrices = {g: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for g in (t, t_inv)}
    return WalkSpec(GroupPresentation((t,), ()), tiling, matrices)


def test_a_coset_no_rule_targets_reads_zero_after_every_step(rng):
    walk = one_target_walk(rng)
    state = random_state(rng, walk, (7,))
    for steps in (1, 2, 5):
        stepped = evolve(walk, state, steps).amplitudes
        assert not stepped[:, 1, :].any()
        reference = per_rule_evolve(walk, state, steps).amplitudes
        assert np.abs(stepped - reference).max() <= 1e-14 * max(1.0, np.abs(reference).max())
    assert np.array_equal(step(walk, state).amplitudes, evolve(walk, state, 1).amplitudes)


def per_rule_kspace_operators(walk, kpoints):
    """Reference build: each table rule's A_g e^{-i k.h} added into block (target, coset)."""
    kpoints = np.asarray(kpoints, dtype=float)
    s, dim = walk.coin_dim, walk.block_dim
    out = np.zeros((kpoints.shape[0], dim, dim), dtype=complex)
    for rule in walk.tiling.rules:
        phase = np.exp(-1j * (kpoints @ np.asarray(rule.shift, dtype=float)))
        rows = slice(s * rule.target, s * rule.target + s)
        cols = slice(s * rule.coset, s * rule.coset + s)
        out[:, rows, cols] += phase[:, None, None] * walk.matrices[rule.generator]
    return out


# coset 1 represented by (a^-1 b) a, a translate of a, so the shifts change
RETILED_G1 = retile(ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)), ((), (A_INV, B, A), (A, A), (A, A, A)))


@pytest.mark.parametrize(
    "walk", ALL_WALKS + [shift_walk_1d(), RETILED_G1], ids=WALK_IDS + ["line", "g1-retiled"]
)
def test_shift_blocks_sum_to_the_kspace_operator(walk, rng):
    # U(k) = sum_h e^{-i k.h} B_h agrees with the rule-by-rule build
    shifts, _ = shift_blocks(walk)
    assert shifts[0] == (0,) * walk.tiling.dimension and len(set(shifts)) == len(shifts)
    d = walk.tiling.dimension
    axis = np.linspace(-np.pi, np.pi, 129)
    grid = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
    for kpoints in (rng.uniform(-np.pi, np.pi, (200, d)), grid):
        reference = per_rule_kspace_operators(walk, kpoints)
        assert np.abs(kspace_operators(walk, kpoints) - reference).max() <= 1e-15


def test_zero_steps_return_the_input_and_small_tori_still_fail(g1_massive):
    state = make_delta(g1_massive, 8)
    assert evolve(g1_massive, state, 0).amplitudes.tobytes() == state.amplitudes.tobytes()
    with pytest.raises(TorusSizeError):
        step(g1_massive, LatticeState(np.zeros((2, 8, 4, 2), dtype=complex)))


# --- target cosets stepped on one thread per core ----------------------------

CORE_COUNTS = (1, 2, 3, 4, 8)


def evolve_at_each_core_count(walk, state, cores, steps=7):
    """``evolve`` amplitudes with 1, 2, 3, 4 and 8 cores available."""
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that a shared write would show
    try:
        for count in CORE_COUNTS:
            cores(count)
            results.append(evolve(walk, state, steps).amplitudes)
    finally:
        sys.setswitchinterval(interval)
    return results


@pytest.mark.parametrize("init", ["delta", "planewave"])
@pytest.mark.parametrize("walk", ALL_WALKS, ids=WALK_IDS)
def test_evolve_is_the_same_bits_at_any_core_count(walk, init, cores):
    state = make_delta(walk, 16) if init == "delta" else make_plane_wave(walk, 16, (1, 2), band=1)
    one, *more = evolve_at_each_core_count(walk, state, cores)
    assert all(np.array_equal(one, amplitudes) for amplitudes in more)


def test_one_coset_and_unwritten_coset_walks_are_the_same_bits_at_any_core_count(rng, cores):
    line, target = shift_walk_1d(), one_target_walk(rng)
    for walk, state in [(line, make_delta(line, 8)), (target, random_state(rng, target, (7,)))]:
        one, *more = evolve_at_each_core_count(walk, state, cores)
        assert all(np.array_equal(one, amplitudes) for amplitudes in more)


def test_one_core_or_one_coset_starts_no_pool_and_more_cores_one_per_call(g1_massive, cores, pools):
    state = make_delta(g1_massive, 16)
    cores(1)
    evolve(g1_massive, state, 10)
    line = shift_walk_1d()
    cores(4)
    evolve(line, make_delta(line, 8), 10)
    assert pools == []
    cores(2)  # the caller steps one target group, a pool of one thread the other
    evolve(g1_massive, state, 10)
    assert pools == [1]
    cores(8)  # four target cosets: at most four threads, the caller among them
    evolve(g1_massive, state, 10)
    assert pools == [1, 3]


class _NumpyFailingOffThread:
    """numpy, except that ``matmul`` raises in any thread but ``caller``."""

    caller = None

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        if threading.get_ident() != self.caller:
            raise RuntimeError("product failed in a step thread")
        return np.matmul(*args, **kwargs)


def test_an_error_in_a_step_thread_reaches_the_caller(g1_massive, cores, monkeypatch):
    cores(2)
    state = make_delta(g1_massive, 16)
    failing = _NumpyFailingOffThread()
    monkeypatch.setattr(evolve_module, "np", failing)
    errors = []

    def run():
        failing.caller = threading.get_ident()
        try:
            evolve(g1_massive, state, 5)
        except RuntimeError as error:
            errors.append(str(error))

    threads_before = threading.active_count()
    runner = threading.Thread(target=run)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert errors == ["product failed in a step thread"]
    assert threading.active_count() == threads_before  # the pool shut down


# --- the row band against the full-torus step --------------------------------


def full_torus_wrapped_pieces(sizes, shift):
    """(destination, source) slice pairs with out[v] += term[(v + shift) mod sizes] over the whole torus."""
    per_axis = []
    for n, h in zip(sizes, shift):
        h %= n
        if h == 0:
            per_axis.append([(slice(None), slice(None))])
        else:
            per_axis.append([(slice(0, n - h), slice(h, n)), (slice(n - h, n), slice(0, h))])
    for combo in itertools.product(*per_axis):
        yield tuple(dst for dst, _ in combo), tuple(src for _, src in combo)


def full_torus_evolve(walk, state, steps):
    """Bit reference: ``evolve`` as it was before the row band, multiplying and adding
    every site on every step.  It runs every target coset on one thread; ``evolve``
    gives each target coset the same sums in the same order at any thread count."""
    l, s = walk.tiling.index, walk.coin_dim
    sites = state.amplitudes.size // walk.block_dim
    shifts, blocks = shift_blocks(walk)
    position = {h: i for i, h in enumerate(shifts)}
    sources = {}
    for rule in walk.tiling.rules:
        sources.setdefault((position[rule.shift], rule.target), set()).add(rule.coset)
    term_sites = np.empty((s,) + state.sizes, dtype=complex)
    term = term_sites.reshape(s, sites)
    psi = np.empty((l, s, sites), dtype=complex)
    psi.reshape(l * s, sites)[...] = state.amplitudes.reshape(sites, l * s).T
    out = np.empty_like(psi)
    for _ in range(steps):
        for t in range(l):
            if (0, t) not in sources:
                out[t] = 0.0
        for (i, t), cosets in sorted(sources.items()):
            lo, hi = min(cosets), max(cosets) + 1
            strip = np.ascontiguousarray(blocks[i, s * t : s * t + s, s * lo : s * hi])
            source = psi[lo:hi].reshape(-1, sites)
            if i == 0:
                np.matmul(strip, source, out=out[t])
                continue
            np.matmul(strip, source, out=term)
            out_sites = out[t].reshape(term_sites.shape)
            for dst, src in full_torus_wrapped_pieces(state.sizes, shifts[i]):
                out_sites[(slice(None),) + dst] += term_sites[(slice(None),) + src]
        psi, out = out, psi
    return np.ascontiguousarray(psi.reshape(l * s, sites).T).reshape(state.amplitudes.shape)


BAND_WALKS = ALL_WALKS + [shift_walk_1d(), shared_slot_walk(np.random.default_rng(7))]
BAND_WALK_IDS = WALK_IDS + ["line", "shared-slot"]


def steps_to_cover(walk, size, rows):
    """Steps after which a band of ``rows`` rows covers ``size`` rows of axis 0."""
    spread = np.ptp([h[0] for h in shift_blocks(walk)[0]])
    return -(-(size - rows) // spread)


def assert_band_bits(walk, state, steps, cores):
    """``evolve`` has the reference's bits on one core and on three, up to the sign of a zero:
    a sum that is -0.0 in the band stays -0.0 where the full-torus step added a +0.0 from a
    row outside it (+ 0.0 maps -0.0 to 0.0 and keeps every other value's bits)."""
    reference = (full_torus_evolve(walk, state, steps) + 0.0).tobytes()
    for count in (1, 3):
        cores(count)
        assert (evolve(walk, state, steps).amplitudes + 0.0).tobytes() == reference


def localized_state(rng, walk, sizes, rows, density=1.0):
    """Random complex amplitudes on a ``density`` share of the cells of the axis-0 ``rows``, zero elsewhere."""
    amplitudes = np.zeros(tuple(sizes) + (walk.tiling.index, walk.coin_dim), dtype=complex)
    for row in rows:
        cells = amplitudes[row % sizes[0]]
        values = rng.normal(size=cells.shape) + 1j * rng.normal(size=cells.shape)
        cells[...] = np.where(rng.random(cells.shape) < density, values, 0)
    return LatticeState(amplitudes)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_band_steps_have_the_bits_of_full_torus_steps(data, cores):
    walk = data.draw(st.sampled_from(BAND_WALKS), label="walk")
    sizes = data.draw(st.tuples(*[st.integers(3, 40)] * walk.tiling.dimension), label="sizes")
    n = sizes[0]
    rows = data.draw(st.integers(1, min(4, n)), label="rows")
    first = data.draw(st.sampled_from([0, n - 1, n - rows]) | st.integers(0, n - 1), label="first row")
    cover = steps_to_cover(walk, n, rows)
    steps = max(1, cover + data.draw(st.integers(-4, 4), label="steps past coverage"))
    density = data.draw(st.sampled_from([1.0, 0.5]), label="share of nonzero cells")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    assert_band_bits(walk, localized_state(rng, walk, sizes, range(first, first + rows), density), steps, cores)


@pytest.mark.parametrize(
    "walk, sizes, rows",
    [
        (shift_walk_1d(), (17,), [16]),  # a window of the last site alone would take numpy's matrix-vector path
        (BAND_WALKS[-1], (33,), [32]),
        (BAND_WALKS[-1], (17,), [16, 17]),
        (ALL_WALKS[1], (33, 33), [32, 33]),
        (ALL_WALKS[3], (128, 128), [0]),
        (ALL_WALKS[5], (24, 9), [23]),
        (ALL_WALKS[4], (101, 7), [50]),
    ],
    ids=["line-17", "shared-slot-33", "shared-slot-17-wrapped", "g1-33", "g1-128", "g2-II-rectangle", "g2-101"],
)
def test_band_steps_before_at_and_after_coverage_have_the_full_torus_bits(walk, sizes, rows, cores):
    cover = steps_to_cover(walk, sizes[0], len(rows))
    state = localized_state(np.random.default_rng(sizes[0]), walk, sizes, rows)
    for steps in (1, cover - 1, cover, cover + 1):
        assert_band_bits(walk, state, steps, cores)


@pytest.mark.parametrize("walk", BAND_WALKS, ids=BAND_WALK_IDS)
def test_all_zero_and_full_support_states_have_the_full_torus_bits(walk, rng, cores):
    sizes = (9, 7)[: walk.tiling.dimension]
    zero = LatticeState(np.zeros(sizes + (walk.tiling.index, walk.coin_dim), dtype=complex))
    for state in (zero, random_state(rng, walk, sizes)):
        for steps in (1, 4):
            assert_band_bits(walk, state, steps, cores)


def test_the_band_is_the_fewest_cyclic_rows_that_hold_the_support():
    def band(rows, n=10):
        amplitudes = np.zeros((n, 3, 2, 1), dtype=complex)
        amplitudes[rows, 1, 1] = 1.0
        amplitudes[7, 2] = -0.0  # a negative zero is no amplitude
        return evolve_module._support_band(amplitudes)

    assert band([4]) == (4, 1)
    assert band([0, 9]) == (9, 2)
    assert band([2, 5, 9]) == (9, 7)
    assert band(list(range(9))) == (0, 9)
    assert band([0, 2, 4, 6, 8, 9]) == (2, 9)  # the first of two widest gaps
    assert band([]) == band(list(range(10))) == (0, 10)
    nan = np.zeros((5, 2, 1, 1), dtype=complex)
    nan[3] = np.nan
    assert evolve_module._support_band(nan) == (3, 1)


class _NumpyRecordingWindows:
    """numpy, except that ``matmul`` records the column count of each product's right operand."""

    def __init__(self):
        self.columns = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.columns.append(b.shape[1])
        return np.matmul(a, b, **kwargs)


def test_a_localized_state_multiplies_only_the_columns_its_band_reaches(g1_massive, cores, monkeypatch):
    cores(1)
    recording = _NumpyRecordingWindows()
    monkeypatch.setattr(evolve_module, "np", recording)
    delta = make_delta(g1_massive, 128)
    evolve(g1_massive, delta, 2)  # row 0, then rows 127, 0 and 1 in two windows
    per_step = len(recording.columns) // 3
    assert recording.columns == [128] * per_step + [128, 256] * per_step
    recording.columns.clear()
    evolve(g1_massive, make_plane_wave(g1_massive, 128, (1, 2)), 1)
    assert recording.columns == [128 * 128] * per_step


# --- the Fourier check in k-space chunks --------------------------------------


def whole_stack_evolve_fourier(walk, state, steps):
    """Reference: one matrix_power over the whole torus operator stack."""
    d = walk.tiling.dimension
    size = state.sizes[0]
    site_axes = tuple(range(d))
    volume = float(size**d)
    hat = np.fft.ifftn(state.amplitudes, axes=site_axes) * volume
    momenta = np.meshgrid(*[np.arange(size) for _ in range(d)], indexing="ij")
    kpoints = np.stack([wrap_phase(2.0 * np.pi * m.ravel() / size) for m in momenta], axis=1)
    powered = np.linalg.matrix_power(kspace_operators(walk, kpoints), steps)
    evolved = np.einsum("kij,kj->ki", powered, hat.reshape(-1, walk.block_dim))
    hat_out = evolved.reshape(state.amplitudes.shape)
    return np.fft.fftn(hat_out, axes=site_axes) / volume


# 45^2 = 2025 momenta fit one chunk, 46^2 = 2116 need two, 128^2 = 16384 eight
@pytest.mark.parametrize("size", [45, 46, 128])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("walk", [ALL_WALKS[2], ALL_WALKS[4]], ids=["g1", "g2"])
def test_chunked_fourier_is_bitwise_the_whole_stack(walk, workers, size, cores, pools, rng):
    cores(workers)
    state = random_state(rng, walk, (size, size))
    for steps in (0, 1, 100):
        out = evolve_fourier(walk, state, steps).amplitudes
        assert np.array_equal(out, whole_stack_evolve_fourier(walk, state, steps))
    assert pools == ([] if workers == 1 or size == 45 else [2] * 3)


# --- canonical plane waves ----------------------------------------------------

PLANE_WAVE_CASES = [(16, (1, 2)), (16, (0, 0)), (12, (-5, 3)), (9, (4, -8))]


def _perturbed_operators(rng, eps=1e-16):
    """kspace_operators times exp(i eps H) for a random Hermitian H."""

    def perturbed(walk, kpoints):
        ops = kspace_operators(walk, kpoints)
        n = ops.shape[-1]
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        values, vectors = np.linalg.eigh(h + h.conj().T)
        return (vectors * np.exp(1j * eps * values)) @ vectors.conj().T @ ops

    return perturbed


@pytest.mark.parametrize("walk", ALL_WALKS, ids=WALK_IDS)
def test_plane_wave_ignores_a_tiny_unitary_perturbation(walk, rng, monkeypatch):
    # every g1 band is doubly degenerate: inside that eigenspace, the vector
    # eig returns moves by O(1) under such a perturbation
    cases = [(size, m, band) for size, m in PLANE_WAVE_CASES for band in range(walk.block_dim)]
    exact = [make_plane_wave(walk, *case) for case in cases]
    monkeypatch.setattr(evolve_module, "kspace_operators", _perturbed_operators(rng))
    for case, reference in zip(cases, exact):
        moved = make_plane_wave(walk, *case)
        assert np.abs(probability_map(moved) - probability_map(reference)).max() <= 1e-12
        assert np.abs(moved.amplitudes - reference.amplitudes).max() <= 1e-12


def test_plane_wave_band_at_phase_pi_survives_rounding(rng, monkeypatch):
    # g1 class I at (n, m) = (1, 0) has phases exactly 0 and pi (four each);
    # rounding may put a pi phase at -pi + eps, which still counts as band 4
    walk = ex.g1_walk(ex.G1Params("I", 1.0, 0.0, 1))
    cases = [(16, (mx, my), band) for mx in range(-5, 6) for my in range(-5, 6) for band in (0, 4)]
    exact = [make_plane_wave(walk, *case) for case in cases]
    for (_, _, band), state in zip(cases, exact):
        expected = np.exp(-1j * np.pi * band / 4) * state.amplitudes
        assert np.abs(step(walk, state).amplitudes - expected).max() <= 1e-12
    for _ in range(3):
        monkeypatch.setattr(evolve_module, "kspace_operators", _perturbed_operators(rng))
        for case, reference in zip(cases, exact):
            assert np.abs(make_plane_wave(walk, *case).amplitudes - reference.amplitudes).max() <= 1e-12


@pytest.mark.parametrize("walk", ALL_WALKS, ids=WALK_IDS)
def test_plane_wave_step_multiplies_the_state_by_one_phase(walk):
    for size, momentum in PLANE_WAVE_CASES:
        k = wrap_phase(2.0 * np.pi * np.asarray(momentum, dtype=float) / size)
        phases = eigenpairs(kspace_operators(walk, k[None, :]))[0][0]
        for band in range(walk.block_dim):
            state = make_plane_wave(walk, size, momentum, band)
            assert state.norm == pytest.approx(1.0)
            expected = np.exp(-1j * phases[band]) * state.amplitudes
            assert np.abs(step(walk, state).amplitudes - expected).max() <= 1e-12


def test_retiled_plane_wave_has_the_same_marginals():
    original = ALL_WALKS[2]
    for size, momentum in PLANE_WAVE_CASES:
        for band in range(original.block_dim):
            retiled = probability_map(make_plane_wave(RETILED_G1, size, momentum, band))
            reference = probability_map(make_plane_wave(original, size, momentum, band))
            assert np.abs(retiled - reference).max() <= 1e-12
