import itertools
import re

import pytest
from hypothesis import given, strategies as st

from cosetwalk import examples as ex
from cosetwalk.groups import (
    GeneratorLabel,
    GroupElement,
    GroupPresentation,
    TilingData,
    TilingError,
    TilingRule,
    apply_word,
    evaluate_word,
    generator_pair,
    right_multiply,
    validate_tiling,
)

A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")

G1 = ex.g1_walk()
G2 = ex.g2_walk("I")

# words for the H-basis translations (1, 0) and (0, 1)
G1_BASIS = ((A_INV, B), (B, A_INV))
G2_BASIS = ((A, A), (A_INV, B))


def _inverse(w):
    return tuple(g.inverse() for g in reversed(w))


def _translation(basis, vector):
    """A word for the translation (vector, coset 0), one basis word per unit."""
    out = ()
    for word, v in zip(basis, vector):
        out += (word if v >= 0 else _inverse(word)) * abs(v)
    return out


def test_label_inversion_is_involution():
    for g in (A, A_INV, B, B_INV):
        assert g.inverse().inverse() == g
    assert A.inverse() == A_INV
    assert A_INV.inverse() == A


def test_label_naming_is_validated():
    with pytest.raises(ValueError):
        GeneratorLabel("")
    with pytest.raises(ValueError):
        GeneratorLabel("", True)
    assert (A.name, A_INV.name) == ("a", "a^-1")
    assert GeneratorLabel("b", True) == B_INV and B_INV.inverse() == GeneratorLabel("b")


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
    assert apply_word(apply_word(e, w, G1.tiling), _inverse(w), G1.tiling) == e


def _without_row(tiling, g, j):
    rules = tuple(r for r in tiling.rules if (r.generator, r.coset) != (g, j))
    return TilingData(tiling.dimension, tiling.index, tiling.rep_words, rules)


@pytest.mark.parametrize("tiling, g, j", [
    (_without_row(G1.tiling, B_INV, 3), B_INV, 3),
    (G1.tiling, GeneratorLabel("zz"), 0),
    (G1.tiling, A, 7),
    (G1.tiling, A, -1),
], ids=["dropped-row", "unknown-letter", "coset-7", "coset-minus-1"])
def test_failed_table_query_is_one_tiling_error(tiling, g, j):
    """Row (g, j) is missing, whatever the reason; right multiplication by
    g^-1 reads it, so every query reaching it raises the same TilingError."""
    message = re.escape(f"table has no row for ({g.name}, j={j})") + "$"
    start = GroupElement((0, 0), j)
    queries = [
        lambda: tiling.row(g, j),
        lambda: right_multiply(start, g.inverse(), tiling),
        lambda: apply_word(start, (g.inverse(),), tiling),
    ]
    if 0 <= j < tiling.index:  # evaluate_word starts at coset 0; reach j by its representative
        queries.append(lambda: evaluate_word(tiling.rep_words[j] + (g.inverse(),), tiling))
    for query in queries:
        with pytest.raises(TilingError, match=message):
            query()


# --- evaluate_word --------------------------------------------------------


def test_empty_word_is_identity():
    assert evaluate_word((), G1.tiling) == GroupElement((0, 0), 0)


@pytest.mark.parametrize(
    "walk,relator",
    [(G1, (A,) * 4), (G1, (B,) * 4), (G1, (A, B, A, B)), (G2, (A, A, B_INV, B_INV))],
    ids=["a4", "b4", "abab", "aaBB"],
)
def test_relators_close_exactly(walk, relator):
    assert evaluate_word(relator, walk.tiling) == GroupElement.identity(2)


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
    wx = _translation(G1_BASIS, (cx, 0))
    wy = _translation(G1_BASIS, (0, cy))
    first, second = (wy, wx) if swap else (wx, wy)
    assert evaluate_word(first + second, G1.tiling) == GroupElement((cx, cy), 0)


# --- inverses -------------------------------------------------------------


def test_invert_identity_and_translations():
    # the inverse of the translation (4, -9) is (-4, 9)
    word = _translation(G1_BASIS, (4, -9))
    assert evaluate_word(word, G1.tiling) == GroupElement((4, -9), 0)
    assert evaluate_word(_inverse(word), G1.tiling) == GroupElement((-4, 9), 0)
    assert apply_word(GroupElement((4, -9), 0), _inverse(word), G1.tiling) == GroupElement.identity(2)


def test_invert_coset_representative():
    # a = c_1, and a^-1 = a^3 sits in coset 3
    assert evaluate_word((A_INV,), G1.tiling) == GroupElement((0, 0), 3)
    assert evaluate_word((A,) * 3, G1.tiling) == GroupElement((0, 0), 3)


def test_invert_g2_generators():
    # a has canonical form (h_2, coset 1); its inverse is (0, coset 1)
    assert evaluate_word((A,), G2.tiling) == GroupElement((1, 0), 1)
    assert evaluate_word((A_INV,), G2.tiling) == GroupElement((0, 0), 1)
    # b = (h_1, coset 1) with h_1 = (1, -1); b^-1 = (-h_3, coset 1)
    assert evaluate_word((B,), G2.tiling) == GroupElement((1, -1), 1)
    assert evaluate_word((B_INV,), G2.tiling) == GroupElement((0, -1), 1)


@pytest.mark.parametrize("walk,basis", [(G1, G1_BASIS), (G2, G2_BASIS)], ids=["g1", "g2"])
def test_inverse_times_element_word_is_identity(walk, basis):
    tiling = walk.tiling
    for j in range(tiling.index):
        e = GroupElement((2, -3), j)
        # build a word for e itself: translation then representative
        w = _translation(basis, e.vector) + tiling.rep_words[e.coset]
        assert evaluate_word(w, tiling) == e
        inv = evaluate_word(_inverse(w), tiling)
        assert apply_word(inv, w, tiling) == GroupElement.identity(tiling.dimension)
        assert apply_word(e, _inverse(w), tiling) == GroupElement.identity(tiling.dimension)


# --- validate_tiling ------------------------------------------------------


@pytest.mark.parametrize("walk", [G1, G2], ids=["g1", "g2"])
def test_builtin_tilings_validate_clean(walk):
    problems = validate_tiling(walk.tiling, walk.presentation)
    assert not problems, "\n".join(map(str, problems))


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
    problems = validate_tiling(bad, G1.presentation)
    assert problems
    assert {p.kind for p in problems} == {"relator"}


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
    assert evaluate_word(relator, tiling) == GroupElement.identity(1)
    assert apply_word(GroupElement((0,), 1), relator, tiling) == GroupElement((-4,), 1)
    problems = validate_tiling(tiling, presentation)
    assert {p.kind for p in problems} == {"relator"}
    assert [p.message for p in problems] == [
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
        assert (not validate_tiling(tiling, presentation)) == oracle, (a_shift, t_target, t_shift)
        accepted += oracle
    assert accepted == 39


def test_unpaired_shift_perturbation_breaks_inverse_consistency():
    tiling = G1.tiling
    position = next(
        i for i, r in enumerate(tiling.rules) if r.generator == B and r.coset == 0
    )
    old = tiling.rules[position]
    bad = _with_rule(tiling, position, TilingRule(B, 0, old.target, (old.shift[0] + 1, old.shift[1])))
    problems = validate_tiling(bad, G1.presentation)
    assert problems
    assert "inverse-consistency" in {p.kind for p in problems}


def test_non_permutation_row_is_reported():
    tiling = G2.tiling
    position = next(
        i for i, r in enumerate(tiling.rules) if r.generator == A and r.coset == 1
    )
    bad = _with_rule(tiling, position, TilingRule(A, 1, 1, (1, 0)))
    problems = validate_tiling(bad, G2.presentation)
    assert problems
    assert "permutation" in {p.kind for p in problems}


def test_wrong_representative_is_reported():
    tiling = G1.tiling
    bad = TilingData(
        tiling.dimension, tiling.index, ((), (A, A), (A, A), (A, A, A)), tiling.rules
    )
    problems = validate_tiling(bad, G1.presentation)
    assert problems
    assert "representative" in {p.kind for p in problems}


def test_missing_row_is_reported():
    tiling = G2.tiling
    partial = TilingData(
        tiling.dimension, tiling.index, tiling.rep_words, tiling.rules[:-1]
    )
    problems = validate_tiling(partial, G2.presentation)
    assert problems
    assert "table" in {p.kind for p in problems}


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
