"""Walk helpers that only the tests use.

``retile`` rebuilds a walk over representatives translated within their
cosets, so the tests can check that the spectrum does not depend on the
choice of transversal.  ``isotropy_normalization_residual`` scores the
normalization sum_g A_g = I of the built-in solution families.  Neither is
part of the reduction itself, so they live here and not in the package.

``AFFINE_GROUPS`` writes the built-in groups as integer affine maps of the
plane (3 x 3 matrices; a word maps to the product of its letters' matrices,
left to right): G1 is the wallpaper group p4 and G2 is pg.  They check the
reduction from outside the tiling table: ``affine_table_mismatches`` tests
each table row against the group itself, and ``reference_walk`` steps a walk
on group elements without reading the table.

``fold_walk`` folds a walk over the sublattice mZ^d: the same group and
coins, with m^d cosets for each old one.  It repeats the paper's reduction
on a walk that is already reduced, so its spectrum and its dynamics are
fixed by the original's and serve as an oracle for any walk.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from cosetwalk.groups import GroupElement, TilingData, TilingRule, Word, evaluate_word, generator_pair, right_multiply
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


def fold_row(r: tuple[int, ...], h: tuple[int, ...], m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(r', q) with r - h = -m q + r' and every entry of r' in 0..m-1."""
    return tuple((a - b) % m for a, b in zip(r, h)), tuple(-((a - b) // m) for a, b in zip(r, h))


def fold_walk(walk: WalkSpec, m: int) -> WalkSpec:
    """The walk over the sublattice mZ^d: site (v, j) with v = m w + r becomes
    (w, (j, r)), coset (j, r) numbered j m^d + (index of r in row-major order).

    A step moves the amplitude at v to v - h, so the row (g, j) -> (t, h)
    becomes, for each r, (g, (j, r)) -> ((t, r'), q) with (r', q) =
    ``fold_row(r, h, m)``.  The representative word of (j, r) is a shortest
    word that evaluates to (r, j) in the original table, found breadth first.
    """
    tiling = walk.tiling
    residues = list(itertools.product(range(m), repeat=tiling.dimension))
    coset = {(j, r): j * len(residues) + i for j in range(tiling.index) for i, r in enumerate(residues)}
    rules = []
    for rule in tiling.rules:
        for r in residues:
            r_new, q = fold_row(r, rule.shift, m)
            rules.append(TilingRule(rule.generator, coset[(rule.coset, r)], coset[(rule.target, r_new)], q))
    words = {GroupElement.identity(tiling.dimension): ()}
    frontier = list(words)
    while frontier and not all(GroupElement(r, j) in words for j, r in coset):
        reached = []
        for x in frontier:
            for g in walk.presentation.alphabet:
                y = right_multiply(x, g, tiling)
                if y not in words:
                    words[y] = words[x] + (g,)
                    reached.append(y)
        frontier = reached
    rep_words = tuple(words[GroupElement(r, j)] for j, r in coset)
    folded = TilingData(tiling.dimension, len(coset), rep_words, tuple(rules))
    return WalkSpec(walk.presentation, folded, walk.matrices)


A, A_INV = generator_pair("a")
B, B_INV = generator_pair("b")


def _affine(linear, translation) -> np.ndarray:
    return np.array([[*linear[0], translation[0]], [*linear[1], translation[1]], [0, 0, 1]])


_TURN, _FLIP = ((0, -1), (1, 0)), ((1, 0), (0, -1))

AFFINE_GROUPS = {
    # name: (the maps of a and b, the words of the H-basis)
    # G1 = <a, b | a^4, b^4, (ab)^2> is p4: a turns by 90 degrees about 0 and b about (1, 0)
    "g1": ({A: _affine(_TURN, (0, 0)), B: _affine(_TURN, (1, -1))}, ((A_INV, B), (B, A_INV))),
    # G2 = <a, b | a^2 b^-2> is pg: a (x, y) = (x + 1, -y) and b (x, y) = (x + 1, 1 - y)
    "g2": ({A: _affine(_FLIP, (1, 0)), B: _affine(_FLIP, (1, 1))}, ((A, A), (A_INV, B))),
}


def _inverse(m: np.ndarray) -> np.ndarray:
    return np.rint(np.linalg.inv(m)).astype(int)  # exact: the maps are integer with determinant +-1


@lru_cache(maxsize=None)
def _letters(name: str) -> dict:
    maps = AFFINE_GROUPS[name][0]
    return {**maps, **{g.inverse(): _inverse(m) for g, m in maps.items()}}


def affine_word(name: str, w: Word) -> np.ndarray:
    """The integer affine map M(w) of a word in the group ``name``."""
    letters = _letters(name)
    return reduce(np.matmul, (letters[g] for g in w), np.eye(3, dtype=int))


def _lattice_basis(name: str) -> np.ndarray:
    """The translation vectors of the H-basis words, one per column."""
    maps = [affine_word(name, w) for w in AFFINE_GROUPS[name][1]]
    assert all(np.array_equal(m[:2, :2], np.eye(2)) for m in maps), "an H-basis word is not a translation"
    return np.stack([m[:2, 2] for m in maps], axis=1)


def _translation(name: str, v: Sequence[int]) -> np.ndarray:
    """T(v): the map of the element with H-basis coordinates v."""
    return _affine(np.eye(2, dtype=int), _lattice_basis(name) @ np.asarray(v))


def affine_table_mismatches(walk: WalkSpec, name: str) -> list[TilingRule]:
    """The table rows (g, j) -> (t, h) of ``walk`` that break C_j M(g^-1) = T(-h) C_t
    in the group ``name``, where C_j is the map of representative word j."""
    reps = [affine_word(name, w) for w in walk.tiling.rep_words]
    return [
        rule for rule in walk.tiling.rules
        if not np.array_equal(reps[rule.coset] @ affine_word(name, (rule.generator.inverse(),)),
                              _translation(name, [-h for h in rule.shift]) @ reps[rule.target])
    ]


@lru_cache(maxsize=None)
def _cayley_ball(name: str, rep_words: tuple[Word, ...], steps: int, size: int):
    """The group elements within ``steps`` letters of the representatives C_j (the
    first len(rep_words) of them), each letter's move x -> x g^-1 as an index array
    over the elements and one sink after them, which takes the moves out of the
    ball, and each element's torus cell: the index arrays (v mod size..., coset j)
    of x = T(v) C_j."""
    letters = _letters(name)
    elements = [affine_word(name, w) for w in rep_words]
    index = {m.tobytes(): i for i, m in enumerate(elements)}
    assert len(index) == len(elements), "two representatives are the same element"
    frontier = elements
    for _ in range(steps):
        reached = []
        for y in (x @ m for x in frontier for m in letters.values()):
            if y.tobytes() not in index:
                index[y.tobytes()] = len(elements) + len(reached)
                reached.append(y)
        elements, frontier = elements + reached, reached
    sink = len(elements)
    moves = {g: np.array([index.get((x @ letters[g.inverse()]).tobytes(), sink) for x in elements] + [sink])
             for g in letters}
    basis, cells = _lattice_basis(name), []
    inverses = [_inverse(c) for c in elements[: len(rep_words)]]
    for x in elements:
        (j, t), = [(j, (x @ c)[:2, 2]) for j, c in enumerate(inverses) if np.array_equal((x @ c)[:2, :2], np.eye(2))]
        v = np.rint(np.linalg.solve(basis, t)).astype(int)
        assert np.array_equal(basis @ v, t), "a translation outside H"
        cells.append((*(v % size), j))
    assert len(set(cells)) == len(cells), "the torus is too small for the ball"
    return sink, moves, tuple(np.array(cells).T)


def reference_walk(walk: WalkSpec, name: str, coins: np.ndarray, steps: int, size: int) -> np.ndarray:
    """``steps`` steps of psi'(x g^-1) += A_g psi(x), taken on the elements x of
    the group ``name`` from the state psi(C_j) = coins[j], as torus amplitudes of
    shape (size, size, cosets, coin): x = T(v) C_j lands on site v mod size, coset j.
    The table of ``walk`` is never read."""
    count, moves, cells = _cayley_ball(name, walk.tiling.rep_words, steps, size)
    psi = np.zeros((count + 1, walk.coin_dim), dtype=complex)
    psi[: len(coins)] = coins
    for _ in range(steps):
        nxt = np.zeros_like(psi)
        for g, move in moves.items():
            np.add.at(nxt, move, psi @ walk.matrices[g].T)
        psi = nxt
    assert not psi[-1].any(), "amplitude left the ball"
    out = np.zeros((size, size, walk.tiling.index, walk.coin_dim), dtype=complex)
    out[cells] = psi[:-1]
    return out
