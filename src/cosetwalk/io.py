"""Walk-spec files (canonical JSON) and CSV emitters.

The walk-spec document is JSON with a fixed field order and floats printed
with 17 significant digits, so export -> parse -> export is byte-identical.
"""

from __future__ import annotations

import cmath
import json
from pathlib import Path
from typing import IO, Any

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
from .walks import TransitionFamily, WalkSpec


_CSV_BLOCK_ROWS = 1024


class WalkFileError(ValueError):
    """A walk-spec document failed to parse; message carries field context."""


def _format_float(x: float) -> str:
    # +0.0 normalization: "-0" would reparse as the integer zero
    return format(float(x) + 0.0, ".17g")


def _is_scalar(x: Any) -> bool:
    return isinstance(x, (int, float, str, np.integer, np.floating)) and not isinstance(x, bool)


def _emit(value: Any, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{inner}{json.dumps(key)}: {_emit(item, indent + 1)}' for key, item in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        # keep scalar rows (and rows of scalar pairs, like table entries or
        # matrix rows) on one line
        flat = all(
            _is_scalar(x)
            or (isinstance(x, (list, tuple)) and all(_is_scalar(y) for y in x))
            for x in seq
        )
        if flat:
            return "[" + ", ".join(_emit(x, indent + 1) for x in seq) + "]"
        rows = [f"{inner}{_emit(x, indent + 1)}" for x in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _word_names(w: Word) -> list[str]:
    return [g.name for g in w]


def walk_to_document(walk: WalkSpec) -> dict:
    """Plain-data document for a walk, in canonical field order."""
    alphabet = walk.presentation.alphabet
    table_rows = []
    for g in alphabet:
        for j in range(walk.tiling.index):
            target, shift = walk.tiling.row(g, j)
            table_rows.append([g.name, j, target, list(shift)])
    matrices = {}
    for g in alphabet:
        m = walk.transitions.matrix(g)
        matrices[g.name] = [
            [[float(entry.real), float(entry.imag)] for entry in row] for row in m
        ]
    return {
        "dimension": walk.tiling.dimension,
        "index": walk.tiling.index,
        "coin_dim": walk.coin_dim,
        "generators": [[g.name, g.inverse().name] for g in walk.presentation.generators],
        "relators": [_word_names(r) for r in walk.presentation.relators],
        "rep_words": [_word_names(w) for w in walk.tiling.rep_words],
        "table": table_rows,
        "transitions": matrices,
    }


def dumps_walk(walk: WalkSpec) -> str:
    return _emit(walk_to_document(walk), 0) + "\n"


def save_walk(walk: WalkSpec, path: str | Path) -> None:
    Path(path).write_text(dumps_walk(walk), encoding="utf-8")


def _require(doc: dict, key: str, kind: type) -> Any:
    if key not in doc:
        raise WalkFileError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise WalkFileError(f"field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _finite_complex(entry: Any) -> complex:
    """An [re, im] pair of finite numbers (not bools) as one complex number.

    ``complex`` itself rejects strings and raises OverflowError on huge ints.
    """
    if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_scalar, entry))):
        raise TypeError("expected an [re, im] pair of numbers")
    value = complex(entry[0], entry[1])
    if not cmath.isfinite(value):
        raise ValueError("matrix entry is not finite")
    return value


def document_to_walk(doc: dict) -> WalkSpec:
    """Build a WalkSpec from a parsed document, with field-level errors."""
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
        base_name, inverse_name = entry
        g, ginv = generator_pair(base_name)
        generators.append(g)
        labels[base_name] = g
        labels[inverse_name] = ginv

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
        if not isinstance(coset, int) or not isinstance(target, int):
            raise WalkFileError(f"table[{i}] coset/target must be integers")
        if not (isinstance(shift, list) and all(isinstance(x, int) for x in shift)):
            raise WalkFileError(f"table[{i}] shift must be a list of integers")
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
        transitions = TransitionFamily(coin_dim, matrices)
        return WalkSpec(presentation, tiling, transitions)
    except ValueError as exc:
        raise WalkFileError(str(exc)) from exc


def loads_walk(text: str) -> WalkSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WalkFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return document_to_walk(doc)


def load_walk(path: str | Path) -> WalkSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise WalkFileError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return loads_walk(text)


def _write_rows(stream: IO[str], table: np.ndarray, formats: list[str]) -> None:
    """One CSV row per table row, field i printed with ``formats[i]``.

    + 0.0 turns -0.0 into 0.0, as _format_float does, so "%.17g" fields
    match it; "%d" prints an integral float as str(int) would.  Rows are
    formatted a block at a time so only one block of Python floats is
    alive at once.
    """
    template = ",".join(formats) + "\n"
    for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        rows = (table[start:start + _CSV_BLOCK_ROWS] + 0.0).tolist()
        stream.writelines([template % tuple(row) for row in rows])


def write_dispersion_csv(grid: DispersionGrid, stream: IO[str]) -> None:
    """Header k_1..k_d, omega_1..omega_{s*l}; one row per grid point,
    phases ascending.  Fields are written as ``_format_float`` writes them."""
    d = grid.kpoints.shape[1]
    bands = grid.band_count
    header = [f"k_{i + 1}" for i in range(d)] + [f"omega_{r + 1}" for r in range(bands)]
    stream.write(",".join(header) + "\n")
    _write_rows(stream, np.hstack([grid.kpoints, grid.phases]), ["%.17g"] * (d + bands))


def save_dispersion_csv(grid: DispersionGrid, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        write_dispersion_csv(grid, stream)


def write_probability_csv(state: LatticeState, stream: IO[str]) -> None:
    """Site coordinates, coset index, probability; sites in row-major order."""
    probabilities = probability_map(state)
    d = len(state.sizes)
    header = [f"site_{i + 1}" for i in range(d)] + ["coset", "probability"]
    stream.write(",".join(header) + "\n")
    flat = probabilities.ravel()
    for start in range(0, flat.size, _CSV_BLOCK_ROWS):
        index = np.arange(start, min(start + _CSV_BLOCK_ROWS, flat.size))
        block = np.column_stack(np.unravel_index(index, probabilities.shape) + (flat[index],))
        _write_rows(stream, block, ["%d"] * (d + 1) + ["%.17g"])


def save_probability_csv(state: LatticeState, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        write_probability_csv(state, stream)
