import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cosetwalk import examples as ex
from cosetwalk.groups import (
    CosetIndexError,
    GroupElement,
    GroupPresentation,
    TilingData,
    TilingRule,
    UnknownGeneratorError,
    apply_word,
    evaluate_word,
    generator,
    generator_pair,
    invert_element,
    right_multiply,
    solve_integer_combination,
    translation_word,
    validate_tiling,
    word_inverse,
)

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")

G1 = ex.g1_walk()
G2 = ex.g2_walk("I")


def test_label_inversion_is_involution():
    for g in (A, A_INV, B, B_INV):
        assert g.inverse().inverse() == g
    assert A.inverse() == A_INV
    assert A_INV.inverse() == A


def test_label_naming_is_validated():
    with pytest.raises(ValueError):
        generator("")
    from cosetwalk.groups import GeneratorLabel

    with pytest.raises(ValueError):
        GeneratorLabel("x", "y", False)
    with pytest.raises(ValueError):
        GeneratorLabel("a^-1", "b", True)


# --- right_multiply -------------------------------------------------------


def test_g1_identity_times_a_is_coset_one():
    e = GroupElement.identity(2)
    assert right_multiply(e, A, G1.tiling) == GroupElement((0, 0), 1)


def test_g1_identity_times_b_lands_translated():
    # b = (b a^-1) a, so the canonical form is (h_y, coset 1)
    e = GroupElement.identity(2)
    assert right_multiply(e, B, G1.tiling) == GroupElement((0, 1), 1)


@pytest.mark.parametrize("walk", [G1, G2], ids=["g1", "g2"])
def test_generator_then_inverse_cancels_on_all_rows(walk):
    tiling = walk.tiling
    for g in walk.presentation.alphabet:
        for j in range(tiling.index):
            e = GroupElement((3, -7), j)
            assert right_multiply(right_multiply(e, g, tiling), g.inverse(), tiling) == e


@given(
    vx=st.integers(-50, 50),
    vy=st.integers(-50, 50),
    j=st.integers(0, 3),
    letters=st.lists(st.sampled_from([A, B, A_INV, B_INV]), max_size=12),
)
def test_g1_word_then_inverse_word_cancels(vx, vy, j, letters):
    e = GroupElement((vx, vy), j)
    w = tuple(letters)
    assert apply_word(apply_word(e, w, G1.tiling), word_inverse(w), G1.tiling) == e


def test_right_multiply_errors():
    e = GroupElement.identity(2)
    with pytest.raises(CosetIndexError):
        right_multiply(GroupElement((0, 0), 7), A, G1.tiling)
    with pytest.raises(UnknownGeneratorError):
        right_multiply(e, generator("zz"), G1.tiling)


# --- evaluate_word --------------------------------------------------------


def test_empty_word_is_identity():
    assert evaluate_word((), G1.tiling) == GroupElement((0, 0), 0)


@pytest.mark.parametrize(
    "walk,relator",
    [(G1, (A,) * 4), (G1, (B,) * 4), (G1, (A, B, A, B)), (G2, (A, A, B_INV, B_INV))],
    ids=["a4", "b4", "abab", "aaBB"],
)
def test_relators_close_exactly(walk, relator):
    assert evaluate_word(relator, walk.tiling).is_identity


def test_g1_subgroup_basis_words():
    # h_x = a^-1 b and h_y = b a^-1 are the basis of the translation subgroup
    assert evaluate_word((A_INV, B), G1.tiling) == GroupElement((1, 0), 0)
    assert evaluate_word((B, A_INV), G1.tiling) == GroupElement((0, 1), 0)


def test_g2_redundant_translation_identity():
    # b a equals the difference of the two basis translations: (1, -1) exactly
    assert evaluate_word((B, A), G2.tiling) == GroupElement((1, -1), 0)
    assert evaluate_word((A, A), G2.tiling) == GroupElement((1, 0), 0)
    assert evaluate_word((A_INV, B), G2.tiling) == GroupElement((0, 1), 0)


@given(
    coefficients=st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    swap=st.booleans(),
)
def test_g1_translations_commute(coefficients, swap):
    cx, cy = coefficients
    wx = translation_word(G1.tiling, (cx, 0))
    wy = translation_word(G1.tiling, (0, cy))
    first, second = (wy, wx) if swap else (wx, wy)
    assert evaluate_word(first + second, G1.tiling) == GroupElement((cx, cy), 0)


# --- invert_element -------------------------------------------------------


def test_invert_identity_and_translations():
    assert invert_element(GroupElement((0, 0), 0), G1.tiling) == GroupElement((0, 0), 0)
    assert invert_element(GroupElement((4, -9), 0), G1.tiling) == GroupElement((-4, 9), 0)


def test_invert_coset_representative():
    # a = c_1, and a^-1 = a^3 sits in coset 3
    assert invert_element(GroupElement((0, 0), 1), G1.tiling) == GroupElement((0, 0), 3)


def test_invert_g2_generators():
    # a has canonical form (h_2, coset 1); its inverse is (0, coset 1)
    assert invert_element(GroupElement((1, 0), 1), G2.tiling) == GroupElement((0, 0), 1)
    # b = (h_1, coset 1) with h_1 = (1, -1); b^-1 = (-h_3, coset 1)
    assert invert_element(GroupElement((1, -1), 1), G2.tiling) == GroupElement((0, -1), 1)


@pytest.mark.parametrize("walk", [G1, G2], ids=["g1", "g2"])
@given(vx=st.integers(-30, 30), vy=st.integers(-30, 30), j=st.integers(0, 3))
@settings(max_examples=40)
def test_invert_is_involution(walk, vx, vy, j):
    e = GroupElement((vx, vy), j % walk.tiling.index)
    assert invert_element(invert_element(e, walk.tiling), walk.tiling) == e


@pytest.mark.parametrize("walk", [G1, G2], ids=["g1", "g2"])
def test_inverse_times_element_word_is_identity(walk):
    tiling = walk.tiling
    for j in range(tiling.index):
        e = GroupElement((2, -3), j)
        # build a word for e itself: translation then representative
        w = translation_word(tiling, e.vector) + tiling.rep_words[e.coset]
        assert evaluate_word(w, tiling) == e
        inv = invert_element(e, tiling)
        assert apply_word(inv, w, tiling).is_identity


# --- integer combination solver -------------------------------------------


def test_solver_basic_cases():
    assert solve_integer_combination([(1, 0), (0, 1)], (3, -2)) == [3, -2]
    assert solve_integer_combination([], (0, 0)) == []
    assert solve_integer_combination([(2, 0), (0, 2)], (1, 0)) is None
    # spanning needs mixing: (1,1) and (1,-1) span an index-2 sublattice
    assert solve_integer_combination([(1, 1), (1, -1)], (1, 0)) is None
    n = solve_integer_combination([(1, 1), (1, -1)], (4, 2))
    assert n == [3, 1]


@given(
    columns=st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
        min_size=1,
        max_size=5,
    ),
    weights=st.lists(st.integers(-6, 6), min_size=5, max_size=5),
)
def test_solver_recovers_reachable_targets(columns, weights):
    target = tuple(
        sum(w * c[i] for w, c in zip(weights, columns)) for i in range(3)
    )
    solution = solve_integer_combination(columns, target)
    assert solution is not None
    rebuilt = tuple(
        sum(n * c[i] for n, c in zip(solution, columns)) for i in range(3)
    )
    assert rebuilt == target


# --- validate_tiling ------------------------------------------------------


@pytest.mark.parametrize("walk", [G1, G2], ids=["g1", "g2"])
def test_builtin_tilings_validate_clean(walk):
    report = validate_tiling(walk.tiling, walk.presentation)
    assert report.ok, report.summary()


def _with_rule(tiling, index, rule):
    rules = list(tiling.rules)
    rules[index] = rule
    return TilingData(tiling.dimension, tiling.index, tiling.rep_words, tuple(rules))


def test_perturbed_shift_breaks_relator_closure():
    # move the b row at j=0 by (1, 0) and keep its inverse row paired, so the
    # only surviving violation is geometric: relators stop closing
    tiling = G1.tiling
    rules = list(tiling.rules)
    for i, r in enumerate(rules):
        if r.generator == B and r.coset == 0:
            rules[i] = TilingRule(B, 0, r.target, (r.shift[0] + 1, r.shift[1]))
        if r.generator == B_INV and r.coset == 3:
            rules[i] = TilingRule(B_INV, 3, r.target, (r.shift[0] - 1, r.shift[1]))
    bad = TilingData(tiling.dimension, tiling.index, tiling.rep_words, tuple(rules))
    report = validate_tiling(bad, G1.presentation)
    assert not report.ok
    assert report.kinds() == {"relator"}


def test_relator_must_close_from_every_coset():
    # <a, t | a^2, a t a^-1 t> at index 2: every check passes from the
    # identity, but a t a^-1 t moves coset 1 by -4 along the lattice
    a, a_inv = generator_pair("a")
    t, t_inv = generator_pair("t")
    relator = (a, t, a_inv, t)
    presentation = GroupPresentation((a, t), ((a, a), relator))
    forward = [(a, 0, 1, (-1,)), (a, 1, 0, (1,)), (t, 0, 1, (-1,)), (t, 1, 0, (-1,))]
    rules = [TilingRule(*row) for row in forward] + [
        TilingRule(g.inverse(), target, j, tuple(-s for s in shift))
        for g, j, target, shift in forward
    ]
    tiling = TilingData(1, 2, ((), (a,)), tuple(rules))
    assert evaluate_word(relator, tiling).is_identity
    assert apply_word(GroupElement((0,), 1), relator, tiling) == GroupElement((-4,), 1)
    report = validate_tiling(tiling, presentation)
    assert report.kinds() == {"relator"}
    assert [p.message for p in report.problems] == [
        "relator a t a^-1 t from coset 1 evaluates to ((-4,), j=1)"
    ]


def _row_action(rows, word, index):
    """Right action (v, j) -> (v + shift[j], target[j]) of a word, composed
    from the forward rows {g: (targets, shifts)} without the package's
    arithmetic.

    (v, j) * g reads the row of g^-1 and gives (v - row shift, row target):
    an inverse letter x^-1 reads x's row, a forward letter g the exact
    inverse of g's row."""
    target, shift = list(range(index)), [0] * index
    for g in word:
        if g.inverse() in rows:
            step_target, step_shift = rows[g.inverse()]
        else:
            fwd_target, fwd_shift = rows[g]
            step_target, step_shift = [0] * index, [0] * index
            for j in range(index):
                step_target[fwd_target[j]] = j
                step_shift[fwd_target[j]] = -fwd_shift[j]
        shift = [shift[j] - step_shift[target[j]] for j in range(index)]
        target = [step_target[target[j]] for j in range(index)]
    return target, shift


def test_relator_sweep_accepts_exactly_the_group_actions():
    # every index-3 table of <a, t | a^3, [a, t]> = Z_3 x Z with d = 1,
    # representatives e, a, a^2, the a-map those representatives force,
    # shifts in {-1, 0, 1} and inverse rows derived as exact inverses;
    # the oracle accepts a table when every relator acts trivially on
    # every (v, j) and representative j lands in coset j
    a, a_inv = generator_pair("a")
    t, t_inv = generator_pair("t")
    relators = ((a, a, a), (a, t, a_inv, t_inv))
    presentation = GroupPresentation((a, t), relators)
    rep_words = ((), (a,), (a, a))
    a_target = (2, 0, 1)
    shifts = list(itertools.product((-1, 0, 1), repeat=3))
    accepted = 0
    for a_shift, t_target, t_shift in itertools.product(
        shifts, itertools.permutations(range(3)), shifts
    ):
        rows = {a: (a_target, a_shift), t: (t_target, t_shift)}
        forward = [(g, j, rows[g][0][j], (rows[g][1][j],)) for g in (a, t) for j in range(3)]
        rules = [TilingRule(*row) for row in forward] + [
            TilingRule(g.inverse(), target, j, (-shift[0],)) for g, j, target, shift in forward
        ]
        tiling = TilingData(1, 3, rep_words, tuple(rules))
        oracle = all(
            _row_action(rows, r, 3) == ([0, 1, 2], [0, 0, 0]) for r in relators
        ) and all(_row_action(rows, w, 3)[0][0] == j for j, w in enumerate(rep_words))
        assert validate_tiling(tiling, presentation).ok == oracle, (a_shift, t_target, t_shift)
        accepted += oracle
    assert accepted == 39


def test_unpaired_shift_perturbation_breaks_inverse_consistency():
    tiling = G1.tiling
    position = next(
        i for i, r in enumerate(tiling.rules) if r.generator == B and r.coset == 0
    )
    old = tiling.rules[position]
    bad = _with_rule(tiling, position, TilingRule(B, 0, old.target, (old.shift[0] + 1, old.shift[1])))
    report = validate_tiling(bad, G1.presentation)
    assert not report.ok
    assert "inverse-consistency" in report.kinds()


def test_non_permutation_row_is_reported():
    tiling = G2.tiling
    position = next(
        i for i, r in enumerate(tiling.rules) if r.generator == A and r.coset == 1
    )
    bad = _with_rule(tiling, position, TilingRule(A, 1, 1, (1, 0)))
    report = validate_tiling(bad, G2.presentation)
    assert not report.ok
    assert "permutation" in report.kinds()


def test_wrong_representative_is_reported():
    tiling = G1.tiling
    bad = TilingData(
        tiling.dimension, tiling.index, ((), (A, A), (A, A), (A, A, A)), tiling.rules
    )
    report = validate_tiling(bad, G1.presentation)
    assert not report.ok
    assert "representative" in report.kinds()


def test_missing_row_is_reported():
    tiling = G2.tiling
    partial = TilingData(
        tiling.dimension, tiling.index, tiling.rep_words, tiling.rules[:-1]
    )
    report = validate_tiling(partial, G2.presentation)
    assert not report.ok
    assert "table" in report.kinds()


def test_coset_maps_are_permutations():
    for walk in (G1, G2):
        for g in walk.presentation.alphabet:
            targets = sorted(
                walk.tiling.row(g, j)[0] for j in range(walk.tiling.index)
            )
            assert targets == list(range(walk.tiling.index))


def test_rep_word_zero_must_be_empty():
    with pytest.raises(ValueError):
        TilingData(2, 2, ((A,), ()), G2.tiling.rules)
