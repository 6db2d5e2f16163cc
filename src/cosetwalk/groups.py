"""Exact group arithmetic on tiled Cayley graphs.

A group element is kept in the canonical form (lattice vector, coset index):
the vector lives in a finite-index free-Abelian subgroup H (coordinates in
the tiling author's basis), the index selects one of the coset
representatives c_0 = e, c_1, ..., c_{l-1}.  The combinatorial tiling table
supplied with each walk is the single source of truth for the word problem;
``validate_tiling`` cross-checks it against the group presentation.  All
arithmetic in this module is over exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping


class GroupArithmeticError(Exception):
    """Base class for errors raised by exact group arithmetic."""


class UnknownGeneratorError(GroupArithmeticError, KeyError):
    """A generator label is not part of the tiling's alphabet."""


class CosetIndexError(GroupArithmeticError, IndexError):
    """A coset index is outside 0..l-1."""


class TilingError(GroupArithmeticError):
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

    name: str
    base: str
    is_inverse: bool = False

    def __post_init__(self) -> None:
        if not self.base:
            raise ValueError("generator base name must be nonempty")
        if self.is_inverse:
            if self.name != self.base + INVERSE_SUFFIX:
                raise ValueError(
                    f"inverse label for {self.base!r} must be named "
                    f"{self.base + INVERSE_SUFFIX!r}, got {self.name!r}"
                )
        elif self.name != self.base:
            raise ValueError(
                f"non-inverse label must satisfy name == base, got "
                f"{self.name!r} != {self.base!r}"
            )

    def inverse(self) -> "GeneratorLabel":
        if self.is_inverse:
            return GeneratorLabel(self.base, self.base, False)
        return GeneratorLabel(self.base + INVERSE_SUFFIX, self.base, True)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def generator(base: str) -> GeneratorLabel:
    """Non-inverse label for a base generator name."""
    return GeneratorLabel(base, base, False)


def generator_pair(base: str) -> tuple[GeneratorLabel, GeneratorLabel]:
    """(g, g^-1) labels for a base generator name."""
    g = generator(base)
    return g, g.inverse()


Word = tuple[GeneratorLabel, ...]
"""A word is an ordered tuple of labels; the empty tuple is the identity."""


def word_inverse(w: Word) -> Word:
    return tuple(g.inverse() for g in reversed(w))


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation <S+ | R>; relators are words over S = S+ u S-."""

    generators: tuple[GeneratorLabel, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
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
        seen: set[tuple[GeneratorLabel, int]] = set()
        for rule in self.rules:
            if len(rule.shift) != self.dimension:
                raise ValueError(f"shift {rule.shift} has wrong dimension")
            if not 0 <= rule.coset < self.index or not 0 <= rule.target < self.index:
                raise ValueError(f"rule {rule} has coset index out of range")
            key = (rule.generator, rule.coset)
            if key in seen:
                raise ValueError(f"duplicate table row for {rule.generator.name}, j={rule.coset}")
            seen.add(key)

    @cached_property
    def _rows(self) -> Mapping[tuple[GeneratorLabel, int], tuple[int, tuple[int, ...]]]:
        return {(r.generator, r.coset): (r.target, r.shift) for r in self.rules}

    @cached_property
    def generators(self) -> frozenset[GeneratorLabel]:
        return frozenset(r.generator for r in self.rules)

    @cached_property
    def max_shift(self) -> int:
        """Largest sup-norm displacement in the table (0 for a trivial table)."""
        return max((max(map(abs, r.shift), default=0) for r in self.rules), default=0)

    def row(self, g: GeneratorLabel, coset: int) -> tuple[int, tuple[int, ...]]:
        if not 0 <= coset < self.index:
            raise CosetIndexError(f"coset {coset} out of range 0..{self.index - 1}")
        if g not in self.generators:
            raise UnknownGeneratorError(g.name)
        try:
            return self._rows[(g, coset)]
        except KeyError:
            raise TilingError(f"table has no row for ({g.name}, j={coset})") from None

    @cached_property
    def translation_catalog(self) -> tuple[tuple[tuple[int, ...], Word], ...]:
        """Nonzero lattice vectors that the table gives generator words for.

        Each rule with shift h yields the word  rep[target] g rep[coset]^-1
        for the subgroup element h; inverses are included.
        """
        catalog: dict[tuple[int, ...], Word] = {}
        for rule in self.rules:
            if all(s == 0 for s in rule.shift):
                continue
            w = (
                self.rep_words[rule.target]
                + (rule.generator,)
                + word_inverse(self.rep_words[rule.coset])
            )
            catalog.setdefault(rule.shift, w)
            negated = tuple(-s for s in rule.shift)
            catalog.setdefault(negated, word_inverse(w))
        return tuple(sorted(catalog.items()))


# ---------------------------------------------------------------------------
# canonical elements and the four core operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """Canonical form v * c_j: lattice vector v in H-basis coordinates, coset j."""

    vector: tuple[int, ...]
    coset: int

    @staticmethod
    def identity(dimension: int) -> "GroupElement":
        return GroupElement((0,) * dimension, 0)

    @property
    def is_identity(self) -> bool:
        return self.coset == 0 and all(v == 0 for v in self.vector)


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


def translation_word(tiling: TilingData, vector: tuple[int, ...]) -> Word:
    """A generator word evaluating to the pure translation (vector, coset 0).

    Solves an exact integer combination over the displacement vectors the
    table provides words for; raises TilingError when the target is outside
    the lattice they span.
    """
    w = _translation_word_cached(tiling, tuple(vector))
    if w is None:
        raise TilingError(
            f"translation {tuple(vector)} is not an integer combination of "
            "the table's displacement vectors"
        )
    return w


@lru_cache(maxsize=None)
def _translation_word_cached(tiling: TilingData, vector: tuple[int, ...]) -> Word | None:
    if len(vector) != tiling.dimension:
        raise ValueError(f"vector {vector} has wrong dimension")
    if all(v == 0 for v in vector):
        return ()
    catalog = tiling.translation_catalog
    columns = [vec for vec, _ in catalog]
    coefficients = solve_integer_combination(columns, vector)
    if coefficients is None:
        return None
    out: list[GeneratorLabel] = []
    for (vec, w), c in zip(catalog, coefficients):
        if c > 0:
            out.extend(w * c)
        elif c < 0:
            out.extend(word_inverse(w) * (-c))
    word = tuple(out)
    result = evaluate_word(word, tiling)
    if result != GroupElement(vector, 0):
        raise TilingError(
            f"translation word for {vector} evaluates to {result}; "
            "the tiling table is inconsistent"
        )
    return word


def invert_element(element: GroupElement, tiling: TilingData) -> GroupElement:
    """Canonical form of element^-1.

    (v c_j)^-1 = c_j^-1 (-v): evaluate the reversed-inverted representative
    word, then append a word for the translation -v.
    """
    w = word_inverse(tiling.rep_words[element.coset])
    if any(element.vector):
        w = w + translation_word(tiling, tuple(-v for v in element.vector))
    return evaluate_word(w, tiling)


def solve_integer_combination(
    columns: list[tuple[int, ...]], target: Iterable[int]
) -> list[int] | None:
    """Exact integer coefficients n with sum_i n_i * columns[i] == target.

    Column-style Hermite reduction with unimodular bookkeeping; returns None
    when no integer solution exists.  Meant for the tiny lattices that occur
    in tilings (dimension <= 4, a handful of columns).
    """
    target = list(target)
    d = len(target)
    m = len(columns)
    if any(len(c) != d for c in columns):
        raise ValueError("column dimensions do not match the target")
    if all(t == 0 for t in target):
        return [0] * m
    if m == 0:
        return None
    cols = [list(c) for c in columns]
    combo = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivot_rows: list[int] = []
    for r in range(d):
        start = len(pivot_rows)
        active = [c for c in range(start, m) if cols[c][r] != 0]
        while len(active) > 1:
            active.sort(key=lambda c: abs(cols[c][r]))
            c0 = active[0]
            for c in active[1:]:
                q = cols[c][r] // cols[c0][r]
                cols[c] = [x - q * y for x, y in zip(cols[c], cols[c0])]
                combo[c] = [x - q * y for x, y in zip(combo[c], combo[c0])]
            active = [c for c in active if cols[c][r] != 0]
        if active:
            c0 = active[0]
            cols[start], cols[c0] = cols[c0], cols[start]
            combo[start], combo[c0] = combo[c0], combo[start]
            pivot_rows.append(r)
    weights = [0] * m
    residual = list(target)
    for idx, r in enumerate(pivot_rows):
        pivot = cols[idx][r]
        if residual[r] % pivot:
            return None
        q = residual[r] // pivot
        weights[idx] = q
        residual = [x - q * y for x, y in zip(residual, cols[idx])]
    if any(residual):
        return None
    return [
        sum(weights[idx] * combo[idx][o] for idx in range(m)) for o in range(m)
    ]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationProblem:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[ValidationProblem, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def kinds(self) -> frozenset[str]:
        return frozenset(p.kind for p in self.problems)

    def summary(self) -> str:
        if self.ok:
            return "tiling valid"
        return "\n".join(str(p) for p in self.problems)


def _word_str(w: Word) -> str:
    return " ".join(g.name for g in w) if w else "<empty>"


def validate_tiling(tiling: TilingData, presentation: GroupPresentation) -> ValidationReport:
    """Cross-check a tiling table against its presentation.

    Reports: missing/extra table rows, rows that are not coset permutations,
    inverse-consistency failures, representative words landing in the wrong
    coset (or colliding), and relator words that do not fix every coset
    start (0, j), not only the identity.  An empty report means the table
    is consistent.
    """
    problems: list[ValidationProblem] = []
    alphabet = presentation.alphabet

    complete = True
    for g in alphabet:
        for j in range(tiling.index):
            if (g, j) not in tiling._rows:
                problems.append(
                    ValidationProblem("table", f"missing row for ({g.name}, j={j})")
                )
                complete = False
    for g in tiling.generators:
        if g not in alphabet:
            problems.append(
                ValidationProblem("table", f"table row for unknown generator {g.name}")
            )
            complete = False
    if not complete:
        return ValidationReport(tuple(problems))

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
        except GroupArithmeticError as exc:
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
            try:
                value = apply_word(start, r, tiling)
            except GroupArithmeticError as exc:
                problems.append(
                    ValidationProblem(
                        "relator", f"relator {_word_str(r)} from coset {j} failed: {exc}"
                    )
                )
                continue
            if value != start:
                problems.append(
                    ValidationProblem(
                        "relator",
                        f"relator {_word_str(r)} from coset {j} evaluates to "
                        f"({value.vector}, j={value.coset})",
                    )
                )

    return ValidationReport(tuple(problems))
