"""Exact group arithmetic on tiled Cayley graphs.

A group element is kept in the canonical form (lattice vector, coset index):
the vector lives in a finite-index free-Abelian subgroup H (coordinates in
the tiling author's basis), the index selects one of the coset
representatives c_0 = e, c_1, ..., c_{l-1}.  The combinatorial tiling table
supplied with each walk is the single source of truth for the word problem;
``validate_tiling`` cross-checks it against the group presentation.  All
arithmetic in this module is over exact integers.  ``TilingError`` ("table has
no row for (g, j=c)") is its one error: ``TilingData.row`` is one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class TilingError(Exception):
    """The tiling data cannot support the requested operation."""


# ---------------------------------------------------------------------------
# generator alphabet and words
# ---------------------------------------------------------------------------

INVERSE_SUFFIX = "^-1"


@dataclass(frozen=True, order=True)
class GeneratorLabel:
    """One letter of the alphabet S; S is closed under inversion.

    Non-inverse letters have ``name == base``.  The inverse partner of a
    base letter ``g`` is always named ``g^-1`` so that inversion is a pure
    function of the label (an involution on S).
    """

    base: str
    is_inverse: bool = False

    def __post_init__(self) -> None:
        if not self.base:
            raise ValueError("generator base name must be nonempty")

    @property
    def name(self) -> str:
        return self.base + INVERSE_SUFFIX if self.is_inverse else self.base

    def inverse(self) -> "GeneratorLabel":
        return GeneratorLabel(self.base, not self.is_inverse)


def generator_pair(base: str) -> tuple[GeneratorLabel, GeneratorLabel]:
    """(g, g^-1) labels for a base generator name."""
    g = GeneratorLabel(base)
    return g, g.inverse()


Word = tuple[GeneratorLabel, ...]
"""A word is an ordered tuple of labels; the empty tuple is the identity."""


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation <S+ | R>; relators are words over S = S+ u S-."""

    generators: tuple[GeneratorLabel, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("a presentation needs at least one generator")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        for g in self.generators:
            if g.is_inverse:
                raise ValueError(f"S+ must contain base letters only, got {g.name}")
        allowed = set(self.alphabet)
        for r in self.relators:
            for letter in r:
                if letter not in allowed:
                    raise ValueError(f"relator uses unknown letter {letter.name!r}")

    @cached_property
    def alphabet(self) -> tuple[GeneratorLabel, ...]:
        """S = S+ with inverses, interleaved as (g, g^-1, h, h^-1, ...)."""
        out: list[GeneratorLabel] = []
        for g in self.generators:
            out.append(g)
            out.append(g.inverse())
        return tuple(out)


# ---------------------------------------------------------------------------
# tiling data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TilingRule:
    """One table row: right multiplication by generator^-1 sends coset
    ``coset`` to ``target`` and shifts the lattice part by ``-shift``.

    Equivalently ``shift = c_target * generator * c_coset^-1`` written in the
    H-basis, the quantity paired with the wave-vector phase in k-space.
    """

    generator: GeneratorLabel
    coset: int
    target: int
    shift: tuple[int, ...]


@dataclass(frozen=True)
class TilingData:
    """Coset tiling of order ``index`` for a subgroup H isomorphic to Z^dimension.

    ``rep_words[0]`` must be the empty word: coset 0 is the identity coset.
    """

    dimension: int
    index: int
    rep_words: tuple[Word, ...]
    rules: tuple[TilingRule, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.index < 1:
            raise ValueError("index must be positive")
        if len(self.rep_words) != self.index:
            raise ValueError(
                f"need {self.index} representative words, got {len(self.rep_words)}"
            )
        if self.rep_words[0] != ():
            raise ValueError("representative of coset 0 must be the empty word")
        rows: dict[tuple[GeneratorLabel, int], tuple[int, tuple[int, ...]]] = {}
        for rule in self.rules:
            if len(rule.shift) != self.dimension:
                raise ValueError(f"shift {rule.shift} has wrong dimension")
            if not 0 <= rule.coset < self.index or not 0 <= rule.target < self.index:
                raise ValueError(f"table row ({rule.generator.name}, j={rule.coset}) -> {rule.target} "
                                 f"has a coset index outside 0..{self.index - 1}")
            if (rule.generator, rule.coset) in rows:
                raise ValueError(f"duplicate table row for {rule.generator.name}, j={rule.coset}")
            rows[(rule.generator, rule.coset)] = (rule.target, rule.shift)
        object.__setattr__(self, "_rows", rows)

    def row(self, g: GeneratorLabel, coset: int) -> tuple[int, tuple[int, ...]]:
        """(target, shift) of the table row (g, j=coset)."""
        try:
            return self._rows[(g, coset)]
        except KeyError:
            raise TilingError(f"table has no row for ({g.name}, j={coset})") from None


# ---------------------------------------------------------------------------
# canonical elements and word evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """Canonical form v * c_j: lattice vector v in H-basis coordinates, coset j."""

    vector: tuple[int, ...]
    coset: int

    @staticmethod
    def identity(dimension: int) -> "GroupElement":
        return GroupElement((0,) * dimension, 0)


def right_multiply(element: GroupElement, g: GeneratorLabel, tiling: TilingData) -> GroupElement:
    """Canonical form of element * g.

    The table stores the action of right multiplication by inverses
    (shift = c_target g c_coset^-1), so multiplying by g reads the row of
    g^-1:  (v, j) * g = (v - shift[g^-1, j], target[g^-1, j]).
    """
    target, shift = tiling.row(g.inverse(), element.coset)
    vector = tuple(v - s for v, s in zip(element.vector, shift))
    return GroupElement(vector, target)


def apply_word(element: GroupElement, w: Word, tiling: TilingData) -> GroupElement:
    for g in w:
        element = right_multiply(element, g, tiling)
    return element


def evaluate_word(w: Word, tiling: TilingData) -> GroupElement:
    """Canonical form of [w]; the empty word evaluates to the identity."""
    return apply_word(GroupElement.identity(tiling.dimension), w, tiling)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationProblem:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


def _word_str(w: Word) -> str:
    return " ".join(g.name for g in w) if w else "<empty>"


def validate_tiling(tiling: TilingData, presentation: GroupPresentation) -> tuple[ValidationProblem, ...]:
    """Cross-check a tiling table against its presentation.

    Reports: missing/extra table rows, rows that are not coset permutations,
    inverse-consistency failures, representative words landing in the wrong
    coset (or colliding), and relator words that do not fix every coset
    start (0, j), not only the identity.  No problems means the table is
    consistent.
    """
    problems: list[ValidationProblem] = []
    alphabet = presentation.alphabet

    for g in alphabet:
        for j in range(tiling.index):
            if (g, j) not in tiling._rows:
                problems.append(
                    ValidationProblem("table", f"missing row for ({g.name}, j={j})")
                )
    for g in dict.fromkeys(rule.generator for rule in tiling.rules):  # in table order
        if g not in alphabet:
            problems.append(
                ValidationProblem("table", f"table row for unknown generator {g.name}")
            )
    if problems:
        return tuple(problems)

    for g in alphabet:
        targets = [tiling.row(g, j)[0] for j in range(tiling.index)]
        if sorted(targets) != list(range(tiling.index)):
            problems.append(
                ValidationProblem(
                    "permutation",
                    f"generator {g.name}: coset map {targets} is not a permutation",
                )
            )

    for g in alphabet:
        ginv = g.inverse()
        for j in range(tiling.index):
            target, shift = tiling.row(g, j)
            back, back_shift = tiling.row(ginv, target)
            if back != j:
                problems.append(
                    ValidationProblem(
                        "inverse-consistency",
                        f"({g.name}, j={j}) -> {target}, but ({ginv.name}, j={target}) -> {back}",
                    )
                )
            if any(s + t != 0 for s, t in zip(shift, back_shift)):
                problems.append(
                    ValidationProblem(
                        "inverse-consistency",
                        f"shifts for ({g.name}, j={j}) and ({ginv.name}, j={target}) "
                        f"do not cancel: {shift} + {back_shift}",
                    )
                )

    seen_cosets: dict[int, int] = {}
    for j, w in enumerate(tiling.rep_words):
        try:
            value = evaluate_word(w, tiling)
        except TilingError as exc:
            problems.append(
                ValidationProblem("representative", f"word {_word_str(w)} failed: {exc}")
            )
            continue
        if value.coset != j:
            problems.append(
                ValidationProblem(
                    "representative",
                    f"representative {j} ({_word_str(w)}) lands in coset {value.coset}",
                )
            )
        if value.coset in seen_cosets:
            problems.append(
                ValidationProblem(
                    "representative",
                    f"representatives {seen_cosets[value.coset]} and {j} share coset "
                    f"{value.coset}",
                )
            )
        seen_cosets.setdefault(value.coset, j)

    zero = (0,) * tiling.dimension
    for r in presentation.relators:
        for j in range(tiling.index):
            start = GroupElement(zero, j)
            value = apply_word(start, r, tiling)
            if value != start:
                problems.append(
                    ValidationProblem(
                        "relator",
                        f"relator {_word_str(r)} from coset {j} evaluates to "
                        f"({value.vector}, j={value.coset})",
                    )
                )

    return tuple(problems)
