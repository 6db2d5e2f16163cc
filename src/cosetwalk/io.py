"""Walk-spec files (canonical JSON) and CSV emitters.

The walk-spec document is JSON with a fixed field order and layout (one table
row and one matrix row per line, every other list on one line) and floats printed
with 17 significant digits, so export -> parse -> export is byte-identical.
The CSV writers take _CSV_BLOCK_ROWS rows at a time: one "%.17g" call formats
the distinct values of ``np.unique(block + 0.0)`` (+ 0.0 prints -0.0 as 0) into
"x\\n" strings for the last column and, when there are more float columns, "x,"
strings for the others; integers are "i," strings, and each block's cells, one
string each, leave in one write before the next block.  ``save_dispersion_csv``
takes the in-order chunk stream of ``spectral.dispersion_chunks``, spools each
chunk as it arrives to an anonymous temporary file and writes its path only
after the last row; ``save_probability_csv`` is the other CSV writer.
"""

from __future__ import annotations

import cmath
import json
import shutil
import tempfile
from pathlib import Path
from typing import IO, Any, Iterable

import numpy as np

from .groups import (
    GeneratorLabel,
    GroupPresentation,
    TilingData,
    TilingRule,
    Word,
    generator_pair,
)
from .spectral import DispersionGrid
from .evolve import LatticeState, probability_map
from .walks import WalkSpec


_CSV_BLOCK_ROWS = 1024


class WalkFileError(ValueError):
    """A walk-spec document failed to parse; message carries field context."""


def _format_float(x: float) -> str:
    # +0.0 normalization: "-0" would reparse as the integer zero
    return format(float(x) + 0.0, ".17g")


def _is_scalar(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _flat(items: Iterable[str]) -> str:
    return "[" + ", ".join(items) + "]"


def _rows(lines: list[str], pad: str) -> str:
    return "[\n" + ",\n".join(f"{pad}  {line}" for line in lines) + f"\n{pad}]" if lines else "[]"


def _words(words: Iterable[Iterable[GeneratorLabel]]) -> str:
    return _flat(_flat(json.dumps(g.name) for g in w) for w in words)


def dumps_walk(walk: WalkSpec) -> str:
    """Walk-spec JSON text for a walk, in canonical field order."""
    tiling, alphabet = walk.tiling, walk.presentation.alphabet
    table = [_flat([json.dumps(rule.generator.name), str(rule.coset), str(rule.target), _flat(map(str, rule.shift))])
             for rule in sorted(tiling.rules, key=lambda rule: (alphabet.index(rule.generator), rule.coset))]
    matrices = []
    for g in alphabet:
        rows = [_flat(_flat(map(_format_float, (z.real, z.imag))) for z in row)
                for row in walk.matrices[g].tolist()]
        matrices.append(f"    {json.dumps(g.name)}: {_rows(rows, '    ')}")
    fields = {
        "dimension": str(tiling.dimension),
        "index": str(tiling.index),
        "coin_dim": str(walk.coin_dim),
        "generators": _words((g, g.inverse()) for g in walk.presentation.generators),
        "relators": _words(walk.presentation.relators),
        "rep_words": _words(tiling.rep_words),
        "table": _rows(table, "  "),
        "transitions": "{\n" + ",\n".join(matrices) + "\n  }",
    }
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields.items()) + "\n}\n"


def save_walk(walk: WalkSpec, path: str | Path) -> None:
    Path(path).write_text(dumps_walk(walk), encoding="utf-8")


def _require(doc: dict, key: str, kind: type) -> Any:
    if key not in doc:
        raise WalkFileError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise WalkFileError(f"field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _finite_complex(entry: Any) -> complex:
    """An [re, im] pair of finite numbers (not bools) as one complex number.

    ``complex`` itself raises OverflowError on huge ints.
    """
    if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_scalar, entry))):
        raise TypeError("expected an [re, im] pair of numbers")
    value = complex(entry[0], entry[1])
    if not cmath.isfinite(value):
        raise ValueError("matrix entry is not finite")
    return value


def loads_walk(text: str) -> WalkSpec:
    """Build a WalkSpec from walk-spec JSON text, with field-level errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WalkFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise WalkFileError(f"document root must be an object, got {type(doc).__name__}")
    dimension = _require(doc, "dimension", int)
    index = _require(doc, "index", int)
    coin_dim = _require(doc, "coin_dim", int)

    labels: dict[str, GeneratorLabel] = {}
    generators: list[GeneratorLabel] = []
    for entry in _require(doc, "generators", list):
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) and x for x in entry)):
            raise WalkFileError(f"generators entries must be [name, inverse-name], got {entry!r}")
        g, ginv = generator_pair(entry[0])
        if entry[1] != ginv.name or g.name in labels or ginv.name in labels:
            raise WalkFileError(f"generators entry {entry!r} must be [{g.name!r}, {ginv.name!r}] and bind no name twice")
        generators.append(g)
        labels.update({g.name: g, ginv.name: ginv})

    def parse_word(names: Any, context: str) -> Word:
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise WalkFileError(f"{context} must be a list of generator names, got {names!r}")
        try:
            return tuple(labels[name] for name in names)
        except KeyError as exc:
            raise WalkFileError(f"{context} uses unknown generator {exc.args[0]!r}") from None

    relators = tuple(
        parse_word(r, f"relators[{i}]") for i, r in enumerate(_require(doc, "relators", list))
    )
    rep_words = tuple(
        parse_word(w, f"rep_words[{j}]") for j, w in enumerate(_require(doc, "rep_words", list))
    )

    rules = []
    for i, row in enumerate(_require(doc, "table", list)):
        if not (isinstance(row, list) and len(row) == 4):
            raise WalkFileError(f"table[{i}] must be [generator, coset, target, shift]")
        name, coset, target, shift = row
        if not isinstance(name, str) or name not in labels:
            raise WalkFileError(f"table[{i}] uses unknown generator {name!r}")
        if type(coset) is not int or type(target) is not int:  # JSON true/false are not integers
            raise WalkFileError(f"table[{i}] coset/target must be integers")
        if not (isinstance(shift, list) and all(type(x) is int for x in shift)):
            raise WalkFileError(f"table[{i}] shift must be a list of integers")
        if any(abs(x) > 2**53 for x in shift):  # float64 holds every shift up to 2**53 exactly
            raise WalkFileError(f"table[{i}] shift entries must be at most 2**53 in magnitude")
        rules.append(TilingRule(labels[name], coset, target, tuple(shift)))

    matrices: dict[GeneratorLabel, np.ndarray] = {}
    transition_doc = _require(doc, "transitions", dict)
    for name, rows in transition_doc.items():
        if name not in labels:
            raise WalkFileError(f"transitions uses unknown generator {name!r}")
        try:
            m = np.array([[_finite_complex(entry) for entry in row] for row in rows], dtype=complex)
        except (TypeError, ValueError, OverflowError):
            raise WalkFileError(
                f"transitions[{name!r}] must be an s x s array of finite [re, im] pairs"
            ) from None
        if m.shape != (coin_dim, coin_dim):
            raise WalkFileError(
                f"transitions[{name!r}] has shape {m.shape}, expected ({coin_dim}, {coin_dim})"
            )
        matrices[labels[name]] = m

    try:
        presentation = GroupPresentation(tuple(generators), relators)
        tiling = TilingData(dimension, index, rep_words, tuple(rules))
        if coin_dim < 1:
            raise ValueError("coin dimension must be positive")
        return WalkSpec(presentation, tiling, matrices)
    except ValueError as exc:
        raise WalkFileError(str(exc)) from exc


def load_walk(path: str | Path) -> WalkSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise WalkFileError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return loads_walk(text)


def _write_table(stream: IO[str], header: list[str], values: np.ndarray, shape: tuple[int, ...] = ()) -> None:
    """Header, then one row per row of the float table ``values``, led by the
    integer columns of the row's index in ``np.ndindex(*shape)``."""
    if header:  # a later chunk of a table continues without one
        stream.write(",".join(header) + "\n")
    labels = [np.array([f"{i}," for i in range(n)], dtype=object) for n in shape]
    for start in range(0, values.shape[0], _CSV_BLOCK_ROWS):
        block = values[start:start + _CSV_BLOCK_ROWS]
        distinct, inverse = np.unique(block.ravel() + 0.0, return_inverse=True)
        inverse = inverse.reshape(block.shape)
        text = "%.17g\n" * distinct.size % tuple(distinct.tolist())
        last = np.array(text.splitlines(keepends=True), dtype=object)  # "x\n" cells
        cells = np.empty((block.shape[0], len(labels) + block.shape[1]), dtype=object)
        if block.shape[1] > 1:
            inner = np.array(text.replace("\n", ",\n").splitlines(), dtype=object)  # "x," cells
            cells[:, len(labels):-1] = inner[inverse[:, :-1]]
        cells[:, -1] = last[inverse[:, -1]]
        coords = np.unravel_index(np.arange(start, start + block.shape[0]), shape) if labels else ()
        for axis, (table, coord) in enumerate(zip(labels, coords)):
            cells[:, axis] = table[coord]
        stream.write("".join(cells.ravel().tolist()))


def save_dispersion_csv(chunks: Iterable[DispersionGrid], path: str | Path) -> None:
    """Header k_1..k_d, omega_1..omega_{s*l}; one row per grid point, phases
    ascending, fields as ``_format_float`` writes them.  ``chunks`` is the
    in-order chunk stream of ``spectral.dispersion_chunks`` (a whole grid is
    ``[grid]``); each chunk is written as it arrives into an anonymous
    temporary file, copied to ``path`` after the last row: a chunk stream that
    raises leaves ``path`` as it was, and an unwritable ``path`` fails only
    after the solve."""
    with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
        for index, chunk in enumerate(chunks):
            d = chunk.kpoints.shape[1]
            header = [f"k_{i + 1}" for i in range(d)] + [f"omega_{r + 1}" for r in range(chunk.phases.shape[1])]
            _write_table(spool, [] if index else header, np.hstack([chunk.kpoints, chunk.phases]))
        spool.seek(0)
        with open(path, "wb") as stream:
            shutil.copyfileobj(spool.buffer, stream)


def save_probability_csv(state: LatticeState, path: str | Path) -> None:
    """Site coordinates, coset index, probability; sites in row-major order."""
    with open(path, "w", encoding="utf-8") as stream:
        probabilities = probability_map(state)
        header = [f"site_{i + 1}" for i in range(len(state.sizes))] + ["coset", "probability"]
        _write_table(stream, header, probabilities.reshape(-1, 1), probabilities.shape)
