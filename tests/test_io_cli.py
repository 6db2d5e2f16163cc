import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cosetwalk
from cosetwalk import cli
from cosetwalk import examples as ex
from cosetwalk.cli import main
from cosetwalk.evolve import LatticeState, evolve, make_delta, make_plane_wave, minimum_torus_size, probability_map
from cosetwalk.groups import GeneratorLabel, GroupPresentation, TilingData, TilingError, TilingRule, generator_pair
from cosetwalk.io import (
    _CSV_BLOCK_ROWS,
    WalkFileError,
    _format_float,
    dumps_walk,
    load_walk,
    loads_walk,
    save_dispersion_csv,
    save_probability_csv,
    save_walk,
)
from cosetwalk.linalg import EIGENSOLVE_MAX_DIM
from cosetwalk.spectral import BandCrossingError, DispersionGrid, ExtremumError, dispersion_grid
from cosetwalk.walks import WalkSpec, unitarity_residual
from test_coarse import shift_walk_1d
from test_linalg import _not_converging
from test_spectral import _corrupt_grid_points

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"  # show-example exports at default parameters, exact in binary


@pytest.mark.parametrize("maker", [
    lambda: ex.g1_walk(ex.G1Params("II", 0.6, 0.8, -1)),
    lambda: ex.g2_walk("I"),
    lambda: ex.g2_walk("II"),
], ids=["g1", "g2-I", "g2-II"])
def test_walk_file_round_trip_is_byte_identical(maker):
    walk = maker()
    text = dumps_walk(walk)
    rebuilt = loads_walk(text)
    assert dumps_walk(rebuilt) == text
    residual, _ = unitarity_residual(rebuilt)
    assert residual < 1e-12


def _reference_is_scalar(x):
    return isinstance(x, (int, float, str, np.integer, np.floating)) and not isinstance(x, bool)


def _reference_emit(value, indent):
    """The generic pretty-printer ``dumps_walk`` replaced, kept as the reference."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{inner}{json.dumps(key)}: {_reference_emit(item, indent + 1)}' for key, item in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        # keep scalar rows (and rows of scalar pairs, like table entries or
        # matrix rows) on one line
        flat = all(
            _reference_is_scalar(x)
            or (isinstance(x, (list, tuple)) and all(_reference_is_scalar(y) for y in x))
            for x in seq
        )
        if flat:
            return "[" + ", ".join(_reference_emit(x, indent + 1) for x in seq) + "]"
        rows = [f"{inner}{_reference_emit(x, indent + 1)}" for x in seq]
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


def _reference_dumps(walk):
    """The reference emitter on the document the replaced ``dumps_walk`` built."""
    alphabet = walk.presentation.alphabet
    table_rows = []
    for g in alphabet:
        for j in range(walk.tiling.index):
            target, shift = walk.tiling.row(g, j)
            table_rows.append([g.name, j, target, list(shift)])
    matrices = {}
    for g in alphabet:
        m = walk.matrices[g]
        matrices[g.name] = [
            [[float(entry.real), float(entry.imag)] for entry in row] for row in m
        ]
    doc = {
        "dimension": walk.tiling.dimension,
        "index": walk.tiling.index,
        "coin_dim": walk.coin_dim,
        "generators": [[g.name, g.inverse().name] for g in walk.presentation.generators],
        "relators": [[g.name for g in r] for r in walk.presentation.relators],
        "rep_words": [[g.name for g in w] for w in walk.tiling.rep_words],
        "table": table_rows,
        "transitions": matrices,
    }
    return _reference_emit(doc, 0) + "\n"


def _written(write, walk):
    try:
        return write(walk)
    except TilingError as exc:
        return f"TilingError: {exc}"


_G1_CORNERS = [
    ex.G1Params(walk_class, n, float(np.sqrt(1.0 - n * n)), sign)
    for walk_class in ("I", "II") for sign in (1, -1) for n in (0.0, 0.3, 1 / np.sqrt(2), 0.8, 1.0)
]


@pytest.mark.parametrize("walk", [ex.g1_walk(p) for p in _G1_CORNERS] + [ex.g2_walk("I"), ex.g2_walk("II")])
def test_writer_matches_the_reference_emitter_on_the_builtin_walks(walk):
    assert dumps_walk(walk) == _reference_dumps(walk)


def test_writer_matches_the_reference_emitter_on_every_loadable_fixture():
    written = {}
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            walk = load_walk(path)
        except WalkFileError:
            continue
        written[path.name] = _written(dumps_walk, walk)
        if path.name != "g1_row_dropped.json":
            assert written[path.name] == _written(_reference_dumps, walk), path.name
    # g1_row_dropped loads; the reference emitter cannot write its incomplete
    # table, and the writer gives back the fixture's own text
    assert len(written) == 6
    assert _written(_reference_dumps, load_walk(FIXTURES / "g1_row_dropped.json")).startswith("TilingError")
    assert written["g1_row_dropped.json"] == (FIXTURES / "g1_row_dropped.json").read_text(encoding="utf-8")


def test_a_table_with_a_missing_row_round_trips_and_keeps_its_finding(tmp_path, capsys):
    saved = tmp_path / "saved.json"
    save_walk(load_walk(FIXTURES / "g1_row_dropped.json"), saved)
    assert dumps_walk(load_walk(saved)) == saved.read_text(encoding="utf-8")
    findings = []
    for path in (FIXTURES / "g1_row_dropped.json", saved):
        assert main(["validate", str(path)]) == 1
        findings.append(capsys.readouterr().out)
    assert findings[0] == findings[1] and "[table] missing row for (b^-1, j=3)" in findings[0]


_NAMES = st.one_of(
    st.sampled_from(['"', "\\", 'q"\\', "é", "é́", "\U0001d49c", "\n", "a b"]),
    st.text(st.characters(exclude_characters="^", exclude_categories=("Cs",)), min_size=1, max_size=3),
)
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _any_walks(draw):
    """A walk with a complete table of any targets and shifts (not
    necessarily a group action): d 1-3, index 1-4, coin 1-3, 1-3 generators."""
    d, index, coin = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    gens = tuple(map(GeneratorLabel, draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))))
    alphabet = [label for g in gens for label in (g, g.inverse())]
    words = st.lists(st.sampled_from(alphabet), max_size=3).map(tuple)
    relators = tuple(draw(st.lists(words, max_size=3)))
    rep_words = ((),) + tuple(draw(words) for _ in range(index - 1))
    shifts = st.lists(st.integers(-(2**53), 2**53), min_size=d, max_size=d).map(tuple)
    rules = tuple(
        TilingRule(g, j, draw(st.integers(0, index - 1)), draw(shifts)) for g in alphabet for j in range(index)
    )
    pairs = st.lists(st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=coin, max_size=coin), min_size=coin, max_size=coin)
    matrices = {g: np.array([[complex(*z) for z in row] for row in draw(pairs)]) for g in alphabet}
    return WalkSpec(GroupPresentation(gens, relators), TilingData(d, index, rep_words, rules), matrices)


@settings(max_examples=60, deadline=None)
@given(walk=_any_walks())
def test_writer_matches_the_reference_emitter_on_drawn_walks(walk):
    text = dumps_walk(walk)
    assert text == _reference_dumps(walk)
    assert dumps_walk(loads_walk(text)) == text


_G2_CLASS_I = """{
  "dimension": 2,
  "index": 2,
  "coin_dim": 2,
  "generators": [["a", "a^-1"], ["b", "b^-1"]],
  "relators": [["a", "a", "b^-1", "b^-1"]],
  "rep_words": [[], ["a^-1"]],
  "table": [
    ["a", 0, 1, [0, 0]],
    ["a", 1, 0, [1, 0]],
    ["a^-1", 0, 1, [-1, 0]],
    ["a^-1", 1, 0, [0, 0]],
    ["b", 0, 1, [0, 1]],
    ["b", 1, 0, [1, -1]],
    ["b^-1", 0, 1, [-1, 1]],
    ["b^-1", 1, 0, [0, -1]]
  ],
  "transitions": {
    "a": [
      [[0.5, 0], [0, 0]],
      [[0.5, 0], [0, 0]]
    ],
    "a^-1": [
      [[0, 0], [0.5, 0]],
      [[0, 0], [0.5, 0]]
    ],
    "b": [
      [[0.5, 0], [0, 0]],
      [[-0.5, 0], [0, 0]]
    ],
    "b^-1": [
      [[0, 0], [-0.5, 0]],
      [[0, 0], [0.5, 0]]
    ]
  }
}
"""


def test_show_example_g2_text_is_pinned(tmp_path, capsys):
    out = tmp_path / "g2.json"
    assert main(["show-example", "g2", "--params", "class=I", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote g2 to {out}\n"
    assert out.read_text(encoding="utf-8") == _G2_CLASS_I


@pytest.mark.parametrize("name", ["g1", "g2"])
def test_show_example_writes_the_golden_export(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["show-example", name, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_document_is_valid_json(g2_one):
    doc = json.loads(dumps_walk(g2_one))
    assert doc["dimension"] == 2
    assert doc["index"] == 2
    assert doc["coin_dim"] == 2
    assert doc["generators"] == [["a", "a^-1"], ["b", "b^-1"]]


def test_parse_error_reports_position():
    with pytest.raises(WalkFileError, match="line"):
        loads_walk("{ not json")


@pytest.mark.parametrize("name", [["a"], {"a": 1}])
def test_table_generator_must_be_a_name(name):
    doc = json.loads(dumps_walk(ex.g1_walk()))
    doc["table"][0][0] = name
    with pytest.raises(WalkFileError, match=r"table\[0\] uses unknown generator"):
        loads_walk(json.dumps(doc))


@pytest.mark.parametrize("entry", [
    [float("nan"), 0.0], [0.5, float("inf")], [10**400, 0], [True, 0], [0.5], {},
])
def test_transition_entries_must_be_finite_number_pairs(entry):
    doc = json.loads(dumps_walk(ex.g1_walk()))
    doc["transitions"]["b"][1][0] = entry
    with pytest.raises(WalkFileError, match=r"transitions\['b'\] must be .* finite"):
        loads_walk(json.dumps(doc))


def test_parse_error_reports_field():
    with pytest.raises(WalkFileError, match="dimension"):
        loads_walk("{}")
    with pytest.raises(WalkFileError, match="transitions"):
        loads_walk(
            '{"dimension": 1, "index": 1, "coin_dim": 1, "generators": [["t", "t^-1"]],'
            '"relators": [], "rep_words": [[]], "table": [], "transitions": {"q": []}}'
        )


def test_dispersion_csv_format(tmp_path, g2_one):
    grid = dispersion_grid(g2_one, 5)
    path = tmp_path / "grid.csv"
    save_dispersion_csv([grid], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k_1,k_2,omega_1,omega_2,omega_3,omega_4"
    assert len(lines) == 1 + 25
    for line in lines[1:]:
        values = [float(x) for x in line.split(",")]
        omegas = values[2:]
        assert omegas == sorted(omegas)
        assert all(-np.pi < w <= np.pi + 1e-15 for w in omegas)


def _per_row_csv(grid):
    """The row-at-a-time writer the block writer replaced."""
    d = grid.kpoints.shape[1]
    header = [f"k_{i + 1}" for i in range(d)] + [f"omega_{r + 1}" for r in range(grid.phases.shape[1])]
    lines = [",".join(header) + "\n"]
    for k, phases in zip(grid.kpoints, grid.phases):
        lines.append(",".join(format(float(x) + 0.0, ".17g") for x in (*k, *phases)) + "\n")
    return "".join(lines)


def _saved_text(save, data):
    """The text that ``save(data, path)`` writes."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "out.csv"
        save(data, path)
        return path.read_text(encoding="utf-8")


def _csv_text(grid):
    return _saved_text(save_dispersion_csv, [grid])


def test_dispersion_csv_matches_per_row_formatting(g1_massive):
    # 33^2 rows span more than one row block
    grid = dispersion_grid(g1_massive, 33)
    assert _csv_text(grid) == _per_row_csv(grid)


def test_dispersion_csv_prints_negative_zero_as_zero():
    kpoints = np.array([[-0.0, np.pi], [0.5, -0.0]])
    phases = np.array([[-np.pi / 2, -0.0, 0.25, np.pi], [-0.0, -0.0, 1e-300, 3.0]])
    grid = DispersionGrid(kpoints, phases)
    text = _csv_text(grid)
    assert text == _per_row_csv(grid)
    assert text.splitlines()[1].startswith("0,3.1415926535897931,")
    assert "-0" not in text.replace("e-", "")


# --- CLI ---------------------------------------------------------------------


def test_cli_export_then_validate(tmp_path, capsys):
    out = tmp_path / "g1.json"
    assert main(["show-example", "g1", "--out", str(out)]) == 0
    assert main(["validate", str(out), "--isotropy", "sigma_x"]) == 0
    text = capsys.readouterr().out
    assert "unitarity: ok" in text
    assert "isotropy: ok" in text


@pytest.mark.parametrize("params", ["n=nan,m=0", "n=1,m=nan", "class=II,nu=0.6"])
def test_cli_show_example_rejects_bad_params_without_writing(params, tmp_path, capsys):
    out = tmp_path / "g1.json"
    assert main(["show-example", "g1", "--params", params, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


def test_cli_show_example_names_an_empty_example(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["show-example", "", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown example ''; available: g1, g2\n"
    assert not out.exists()


def test_cli_validate_rejects_corrupted_table(tmp_path, capsys):
    out = tmp_path / "g2.json"
    assert main(["show-example", "g2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["table"][2][3] = [5, 0]  # break one displacement vector
    out.write_text(json.dumps(doc))
    assert main(["validate", str(out)]) == 1
    assert "relator" in capsys.readouterr().out


def test_cli_validate_prints_every_problem_in_order(tmp_path, capsys):
    out = tmp_path / "g1.json"
    assert main(["show-example", "g1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["table"][4] == ["a^-1", 0, 1, [0, 0]]
    doc["table"][4][2] = 2  # a^-1 sends coset 0 to 2, not 1
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 1
    assert capsys.readouterr() == (
        "[permutation] generator a^-1: coset map [2, 2, 3, 0] is not a permutation\n"
        "[inverse-consistency] (a, j=1) -> 0, but (a^-1, j=0) -> 2\n"
        "[inverse-consistency] (a^-1, j=0) -> 2, but (a, j=2) -> 1\n"
        "[representative] representative 1 (a) lands in coset 2\n"
        "[representative] representative 2 (a a) lands in coset 3\n"
        "[representative] representative 3 (a a a) lands in coset 0\n"
        "[representative] representatives 0 and 3 share coset 0\n"
        "[relator] relator a a a a from coset 0 evaluates to ((0, 0), j=2)\n"
        "[relator] relator a a a a from coset 1 evaluates to ((0, 0), j=2)\n"
        "[relator] relator a a a a from coset 2 evaluates to ((0, 0), j=3)\n"
        "[relator] relator a a a a from coset 3 evaluates to ((0, 0), j=0)\n"
        "[relator] relator a b a b from coset 0 evaluates to ((0, 0), j=1)\n"
        "[relator] relator a b a b from coset 2 evaluates to ((1, -1), j=3)\n"
        "unitarity residual: 5.000e-01\n"
        "unitarity: FAIL (tolerance 1.0e-10)\n",
        "",
    )


def test_cli_validate_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert main(["validate", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate"], ["dispersion", "--grid", "3"], ["evolve", "--torus", "5", "--steps", "2"],
])
def test_cli_non_utf8_walk_file_is_a_parse_error(argv, tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\x7fELF\x02\x01\x01" + bytes(range(256))[-193:])  # 200 bytes
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error: not UTF-8 text")


def test_cli_dispersion_oracle(tmp_path):
    out = tmp_path / "d.csv"
    assert main([
        "dispersion", "--example", "g2", "--grid", "9", "--oracle", "--out", str(out)
    ]) == 0
    assert out.exists()
    assert main([
        "dispersion", "--example", "g1",
        "--params", "n=0.6,m=0.8,class=I,sign=-",
        "--grid", "9", "--oracle",
    ]) == 0


def test_cli_dispersion_oracle_on_walk_file_is_rejected_before_solving(tmp_path, capsys):
    spec = tmp_path / "w.json"
    assert main(["show-example", "g1", "--out", str(spec)]) == 0
    capsys.readouterr()
    out = tmp_path / "o.csv"
    assert main(["dispersion", str(spec), "--grid", "9", "--oracle", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --oracle requires --example g1 or g2"]
    assert not out.exists()


_MASSIVE = "n=0.6,m=0.8,class=II"


def test_cli_dispersion_deterministic_output(tmp_path, capsys, cores, pools):
    # the command streams the chunks; its bytes and oracle line are those of the
    # whole grid: 45^2 = 2025 grid points are one k-space chunk, 46^2 two, 91^2 five
    walk, closed_form = ex.builtin_walk("g1", _MASSIVE)
    for resolution in (45, 46, 91):
        grid = dispersion_grid(walk, resolution)
        text = _csv_text(grid)
        deviation = ex.grid_oracle_deviation(grid, closed_form)
        for workers in (1, 2):
            cores(workers)
            pools.clear()
            first = tmp_path / f"a-{resolution}-{workers}.csv"
            second = tmp_path / f"b-{resolution}-{workers}.csv"
            args = ["dispersion", "--example", "g1", "--params", _MASSIVE, "--grid", str(resolution), "--oracle", "--out"]
            assert main(args + [str(first)]) == 0
            printed = capsys.readouterr().out
            assert main(args + [str(second)]) == 0
            assert capsys.readouterr().out == printed.replace(str(first), str(second))
            assert pools == ([] if workers == 1 or resolution == 45 else [2, 2])
            assert first.read_bytes() == second.read_bytes() == text.encode()
            assert printed == f"wrote {resolution**2} rows to {first}\noracle deviation: {deviation:.3e}\noracle: ok\n"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("present", [False, True], ids=["absent", "present"])
def test_cli_dispersion_failing_later_chunk_leaves_out_as_it_was(tmp_path, monkeypatch, capsys, cores, workers, present):
    cores(workers)
    _corrupt_grid_points(monkeypatch, 91, (3000,))  # in the second chunk
    out = tmp_path / "rows.csv"
    if present:
        out.write_bytes(b"k_1,k_2\nkept\n")
    threads = threading.active_count()
    argv = ["dispersion", "--example", "g1", "--params", _MASSIVE, "--grid", "91", "--oracle", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("(3000,)")
    if present:
        assert out.read_bytes() == b"k_1,k_2\nkept\n"
    else:
        assert not out.exists()
    assert threading.active_count() == threads  # the pool shut down


def test_cli_dispersion_unwritable_out_fails_after_the_solve(tmp_path, monkeypatch, capsys):
    solved = []
    solve = cli.dispersion_chunks

    def recording(walk, resolution):
        for chunk in solve(walk, resolution):
            solved.append(len(chunk.kpoints))
            yield chunk

    monkeypatch.setattr(cli, "dispersion_chunks", recording)
    out = tmp_path / "missing" / "rows.csv"
    assert main(["dispersion", "--example", "g2", "--grid", "46", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert solved == [2048, 68]
    assert not out.parent.exists()


def test_cli_dispersion_writes_to_dev_stdout():
    argv = [sys.executable, "-m", "cosetwalk.cli", "dispersion", "--example", "g2", "--grid", "5", "--out", "/dev/stdout"]
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run(argv, capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == _csv_text(dispersion_grid(ex.g2_walk("I"), 5)) + "wrote 25 rows to /dev/stdout\n"
    assert done.stderr == ""


def test_cli_evolve_reports_norm_drift(tmp_path, capsys):
    out = tmp_path / "prob.csv"
    assert main([
        "evolve", "--example", "g1", "--torus", "16", "--steps", "10",
        "--init", "delta", "--out", str(out)
    ]) == 0
    text = capsys.readouterr().out
    drift = float(text.split("norm drift after 10 steps:")[1].split()[0])
    assert drift < 1e-12
    assert out.exists()


def test_cli_evolve_drift_is_the_same_at_any_blas_thread_count():
    # a threaded BLAS dot moves the last bits of a norm summed through BLAS;
    # this run printed 5.551e-16 on one thread and 3.331e-16 on two
    argv = [sys.executable, "-m", "cosetwalk.cli", "evolve", "--example", "g1",
            "--params", "n=0.6,m=0.8,class=II", "--torus", "64", "--steps", "20"]
    src = str(Path(cli.__file__).parents[1])
    stdouts = [
        subprocess.run(
            argv, capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert stdouts[0] == stdouts[1]
    assert stdouts[0].startswith("norm drift after 20 steps: ")


def test_cli_evolve_zero_steps_keeps_distribution(tmp_path):
    moved = tmp_path / "a.csv"
    assert main([
        "evolve", "--example", "g2", "--torus", "8", "--steps", "0",
        "--init", "delta", "--out", str(moved)
    ]) == 0
    lines = moved.read_text().strip().splitlines()[1:]
    total = {}
    for line in lines:
        s1, s2, coset, p = line.split(",")
        total[(int(s1), int(s2), int(coset))] = float(p)
    assert total[(0, 0, 0)] == pytest.approx(1.0)
    assert sum(total.values()) == pytest.approx(1.0)


def test_cli_non_unitary_walk_fails_with_one_line(capsys):
    # g1 with its a matrix doubled: the fiber operators are far from unitary
    path = Path(__file__).parent / "fixtures" / "g1_a_doubled.json"
    assert main(["dispersion", str(path), "--grid", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unitarity residual")



@pytest.mark.parametrize("fixture", ["g1_a_doubled.json", "g1_row_dropped.json"])
def test_cli_evolve_rejects_a_broken_walk_before_stepping(fixture, monkeypatch, capsys):
    # the doubled a matrix breaks unitarity; the dropped last table row
    # breaks the tiling (both used to evolve with exit 0 and a large drift)
    monkeypatch.setattr(cli, "evolve", lambda *args: pytest.fail("stepped a broken walk"))
    assert main(["evolve", str(FIXTURES / fixture), "--torus", "16", "--steps", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert ("unitarity residual" if "doubled" in fixture else "invalid tiling") in lines[0]


def test_cli_validate_incomplete_table_fails_without_traceback(capsys):
    assert main(["validate", str(FIXTURES / "g1_row_dropped.json")]) == 1
    captured = capsys.readouterr()
    assert "missing row for (b^-1, j=3)" in captured.out
    assert "Traceback" not in captured.err
    assert captured.err == ""


def test_cli_walk_without_generators_is_a_parse_error(capsys):
    # rejected at load, before any command builds an empty matrix stack
    path = str(FIXTURES / "no_generators.json")
    for argv in (
        ["validate", path],
        ["dispersion", path, "--grid", "3"],
        ["evolve", path, "--torus", "3", "--steps", "1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "parse error: a presentation needs at least one generator\n")


_LOADING_COMMANDS = (["validate"], ["dispersion", "--grid", "3"], ["evolve", "--torus", "5", "--steps", "1"])


def _assert_parse_error_everywhere(path, line, capsys):
    for command, *extra in _LOADING_COMMANDS:
        assert main([command, str(path), *extra]) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"parse error: {line}\n"), command


@pytest.mark.parametrize("shift", [None, 2**53 + 1, -(2**53) - 1], ids=["fixture-10**400", "2**53+1", "-2**53-1"])
def test_cli_walk_file_shift_beyond_2_53_is_a_parse_error(shift, tmp_path, capsys):
    # a displacement float64 cannot hold exactly: 10**400 made dispersion
    # die in float conversion, 2**70 gave rounded displacements and exit 0
    path = FIXTURES / "line_huge_shift.json"
    if shift is not None:
        doc = json.loads(path.read_text())
        doc["table"][0][3], doc["table"][1][3] = [shift], [-shift]
        path = tmp_path / "line.json"
        path.write_text(json.dumps(doc))
    _assert_parse_error_everywhere(path, "table[0] shift entries must be at most 2**53 in magnitude", capsys)


def test_walk_file_shift_of_2_53_loads(tmp_path, capsys):
    doc = json.loads((FIXTURES / "line_huge_shift.json").read_text())
    doc["table"][0][3], doc["table"][1][3] = [2**53], [-(2**53)]
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    assert minimum_torus_size(load_walk(path)) == 2**54 + 1
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr() == ("tiling: ok\nunitarity residual: 0.000e+00\nunitarity: ok\n", "")


_G2_DOC = json.loads(dumps_walk(ex.g2_walk("I")))


@pytest.mark.parametrize("edits, line", [
    ({("table", 0, 3): [1, 0, 0]}, "shift (1, 0, 0) has wrong dimension"),
    ({("table", 0, 1): -1}, "table row (a, j=-1) -> 1 has a coset index outside 0..1"),
    ({("table", 0, 2): 2}, "table row (a, j=0) -> 2 has a coset index outside 0..1"),
    ({("table", 1): ["a", 0, 1, [0, 0]]}, "duplicate table row for a, j=0"),
    ({("dimension",): 0}, "dimension must be positive"),
    ({("index",): 0}, "index must be positive"),
    ({("coin_dim",): 0, ("transitions",): {}}, "coin dimension must be positive"),
    ({("rep_words", 1): ["z"]}, "rep_words[1] uses unknown generator 'z'"),
    ({("table",): _G2_DOC["table"][:6]}, "tiling table rows do not cover the alphabet exactly"),
    ({("transitions",): {k: v for k, v in _G2_DOC["transitions"].items() if k != "b^-1"}},
     "transition matrices do not cover the alphabet exactly"),
], ids=["shift-length", "coset", "target", "duplicate-row", "dimension-0", "index-0", "coin-dim-0",
        "rep-word-unknown-letter", "letter-without-rows", "letter-without-matrix"])
def test_cli_walk_file_rejects_are_one_parse_error_line(edits, line, tmp_path, capsys):
    doc = json.loads(json.dumps(_G2_DOC))
    for (*parents, last), value in edits.items():
        holder = doc
        for key in parents:
            holder = holder[key]
        holder[last] = value
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(doc))
    _assert_parse_error_everywhere(path, line, capsys)


def _shifted_builtin(name, params=None, *, builtin=ex.builtin_walk):
    """``examples.builtin_walk`` (bound as the default, before any patch) with
    its closed form moved by 0.1, so the oracle must fail."""
    walk, closed_form = builtin(name, params)
    return walk, lambda k: closed_form(k) + 0.1


@pytest.mark.parametrize("argv, patched, code, out, err", [
    (["evolve", "--example", "g1", "--steps", "-1"], False, 2, "", "error: --steps must be nonnegative\n"),
    (["dispersion", "--example", "g2", "--grid", "9", "--oracle"], True, 1,
     "oracle deviation: 1.000e-01\noracle: FAIL (tolerance 1.0e-09)\n", ""),
    (["dispersion", "--example", "g2", "--grid", "1"], False, 2, "", "error: --grid must be at least 2\n"),
    (["evolve", "--example", "g1", "--torus", "2", "--steps", "1"], False, 2, "",
     "error: torus size 2 too small; displacements up to 1 need at least 3\n"),
], ids=["evolve-negative-steps", "oracle-fail", "dispersion-grid-1", "evolve-torus-too-small"])
def test_cli_reject_branches(argv, patched, code, out, err, monkeypatch, capsys):
    if patched:
        monkeypatch.setattr(ex, "builtin_walk", _shifted_builtin)
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


def test_cli_validate_rejects_boolean_table_cells(capsys):
    # g2 with one row's coset written true and its shift [false, false]:
    # equal to 1 and [0, 0] in Python, but not JSON integers
    assert main(["validate", str(FIXTURES / "g2_boolean_cells.json")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "parse error: table[3] coset/target must be integers\n")


@pytest.mark.parametrize("cell, value, line", [
    (("dimension",), True, "field 'dimension' must be int, got bool"),
    (("index",), True, "field 'index' must be int, got bool"),
    (("coin_dim",), True, "field 'coin_dim' must be int, got bool"),
    (("table", 0, 1), False, "table[0] coset/target must be integers"),
    (("table", 0, 2), False, "table[0] coset/target must be integers"),
    (("table", 0, 3), [True], "table[0] shift must be a list of integers"),
], ids=["dimension", "index", "coin_dim", "coset", "target", "shift"])
def test_cli_walk_file_booleans_are_not_integers(cell, value, line, tmp_path, capsys):
    # the unit shift on Z, where each boolean equals the integer it replaces
    doc = json.loads(dumps_walk(_line_walk()))
    *parents, last = cell
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"parse error: {line}\n")


@pytest.mark.parametrize("renames, generators, line", [
    # a file round trip would rename A and B to a^-1 and b^-1
    ({"a^-1": "A", "b^-1": "B"}, [["a", "A"], ["b", "B"]],
     "generators entry ['a', 'A'] must be ['a', 'a^-1'] and bind no name twice"),
    # A would be bound to a^-1, then rebound to b^-1
    ({"a^-1": "A", "b^-1": "A"}, [["a", "A"], ["b", "A"]],
     "generators entry ['a', 'A'] must be ['a', 'a^-1'] and bind no name twice"),
    ({}, [["a", "a^-1"], ["b", "b^-1"], ["a", "a^-1"]],
     "generators entry ['a', 'a^-1'] must be ['a', 'a^-1'] and bind no name twice"),
    ({}, [["a", "a^-1"], ["b", "b^-1"], ["a^-1", "a^-1^-1"]],
     "generators entry ['a^-1', 'a^-1^-1'] must be ['a^-1', 'a^-1^-1'] and bind no name twice"),
], ids=["renamed-inverses", "inverse-bound-twice", "entry-repeated", "base-is-a-bound-inverse"])
def test_cli_walk_file_generator_names_are_base_and_base_inverse_once(renames, generators, line, tmp_path, capsys):
    text = dumps_walk(ex.g1_walk())
    for old, new in renames.items():
        text = text.replace(f'"{old}"', f'"{new}"')
    doc = json.loads(text)
    doc["generators"] = generators
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"parse error: {line}\n")


def test_cli_dispersion_rejects_an_invalid_tiling_before_solving(tmp_path, monkeypatch, capsys):
    # the tiling is checked before any operator is built, so the missing row
    # is named instead of the unitarity defect it causes
    monkeypatch.setattr(cli, "dispersion_chunks", lambda *args: pytest.fail("solved a broken tiling"))
    out = tmp_path / "rows.csv"
    argv = ["dispersion", str(FIXTURES / "g1_row_dropped.json"), "--grid", "5", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid tiling: missing row for (b^-1, j=3)\n"
    assert not out.exists()

@pytest.mark.parametrize("argv, builder", [
    (["dispersion", "--example", "g1", "--grid", "100000"], "dispersion_chunks"),
    (["dispersion", "--example", "g2", "--grid", "2049"], "dispersion_chunks"),
    (["evolve", "--example", "g1", "--torus", "100000"], "make_delta"),
    (["evolve", "--example", "g2", "--torus", "2049", "--init", "planewave"], "make_plane_wave"),
])
def test_cli_sizes_over_the_cap_fail_before_allocating(argv, builder, monkeypatch, capsys):
    monkeypatch.setattr(cli, builder, lambda *args: pytest.fail("allocated past the cap"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "cap" in lines[0]


def test_cli_size_cap_admits_the_benchmark_sizes():
    # g1 dispersion at grid 129 and g1 evolve at torus 128, with 8x headroom
    assert 129**2 * 8**2 * 8 < cli.MAX_ARRAY_ENTRIES
    assert 128**2 * 8 * 8 < cli.MAX_ARRAY_ENTRIES


def _per_row_probability_csv(state):
    """The former per-site writer, kept as the reference."""
    probabilities = probability_map(state)
    d = len(state.sizes)
    lines = [",".join([f"site_{i + 1}" for i in range(d)] + ["coset", "probability"])]
    for site in np.ndindex(*state.sizes):
        for j in range(probabilities.shape[-1]):
            row = [str(x) for x in site] + [str(j), _format_float(probabilities[site + (j,)])]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("maker, size, steps", [
    (lambda: ex.g1_walk(ex.G1Params("I", 0.6, 0.8, 1)), 12, 7),
    (lambda: ex.g2_walk("II"), 9, 4),
    (lambda: ex.g2_walk("I"), 8, 0),
    (lambda: ex.g1_walk(ex.G1Params("II", 0.8, 0.6, -1)), 17, 5),
], ids=["g1", "g2", "g2-delta", "g1-two-blocks"])
def test_probability_csv_matches_per_row_formatting(maker, size, steps):
    walk = maker()
    state = evolve(walk, make_delta(walk, size), steps)
    assert _probability_text(state) == _per_row_probability_csv(state)


def _probability_text(state):
    return _saved_text(save_probability_csv, state)


def _assert_same_lines(text, reference):
    # lists, not strings: pytest reports the first differing line instead of
    # diffing megabytes of text
    assert text.split("\n") == reference.split("\n")


def _table_grid(table):
    """A dispersion grid whose rows are ``table``: two k columns, the rest phases."""
    return DispersionGrid(table[:, :2], table[:, 2:])


@pytest.mark.parametrize("rows", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 16641])
def test_block_writer_matches_per_row_on_all_distinct_tables(rows):
    rng = np.random.default_rng(rows)
    grid = _table_grid(rng.standard_normal((rows, 10)))
    assert len(np.unique(np.hstack([grid.kpoints, grid.phases]))) == rows * 10
    _assert_same_lines(_csv_text(grid), _per_row_csv(grid))
    # a one-coset line and an uneven 3-D torus with two cosets
    amplitudes = rng.standard_normal((rows, 1, 1)) + 1j * rng.standard_normal((rows, 1, 1))
    state = LatticeState(amplitudes)
    _assert_same_lines(_probability_text(state), _per_row_probability_csv(state))
    state = LatticeState(rng.standard_normal((5, 3, 7, 2, 2)).astype(complex))
    _assert_same_lines(_probability_text(state), _per_row_probability_csv(state))


_EDGE_VALUES = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e300, 1.0, -2.0, 3.0, 2.0**53, np.pi, -np.pi)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 2 * _CSV_BLOCK_ROWS + 1),
    columns=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    pool=st.lists(st.sampled_from(_EDGE_VALUES), min_size=1, max_size=len(_EDGE_VALUES)),
)
def test_block_writer_matches_per_row_on_edge_values(rows, columns, seed, pool):
    table = np.random.default_rng(seed).choice(np.array(pool), size=(rows, columns))
    grid = _table_grid(table)
    _assert_same_lines(_csv_text(grid), _per_row_csv(grid))


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.one_of(st.tuples(st.integers(1, 2 * _CSV_BLOCK_ROWS + 1)), st.tuples(*[st.integers(1, 12)] * 3)),
    cosets=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    pool=st.lists(st.sampled_from(_EDGE_VALUES), min_size=1, max_size=len(_EDGE_VALUES)),
)
def test_probability_writer_matches_per_row_on_edge_values(sizes, cosets, seed, pool):
    # the probability column is the table's only float column, so its cells
    # come from the last-column strings alone
    rng = np.random.default_rng(seed)
    amplitudes = np.empty(sizes + (cosets, 2), dtype=complex)
    amplitudes.real = rng.choice(np.array(pool), size=amplitudes.shape)
    amplitudes.imag = rng.choice(np.array(pool), size=amplitudes.shape)
    state = LatticeState(amplitudes)
    with np.errstate(over="ignore"):  # |1e300|^2 is inf
        _assert_same_lines(_probability_text(state), _per_row_probability_csv(state))


def test_probability_writer_labels_sites_across_a_block_boundary_mid_axis():
    sizes, cosets = (33, 17), 2
    # the first block ends inside a run of the last axis: at site (30, 2)
    assert 33 * 17 * cosets > _CSV_BLOCK_ROWS and _CSV_BLOCK_ROWS % (17 * cosets) != 0
    rng = np.random.default_rng(3317)
    state = LatticeState(rng.standard_normal(sizes + (cosets, 2)) + 1j * rng.standard_normal(sizes + (cosets, 2)))
    text = _probability_text(state)
    _assert_same_lines(text, _per_row_probability_csv(state))
    assert text.split("\n")[1 + _CSV_BLOCK_ROWS].startswith("30,2,0,")


@pytest.mark.parametrize("walk, resolution", [
    (ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1)), 129),
    (ex.g2_walk("II"), 65),
    (shift_walk_1d(), 129),
], ids=["g1-129", "g2-65", "line-129"])
def test_block_writer_matches_per_row_on_dispersion_grids(walk, resolution):
    grid = dispersion_grid(walk, resolution)
    _assert_same_lines(_csv_text(grid), _per_row_csv(grid))


@pytest.mark.parametrize("walk, start, torus, steps", [
    (ex.g1_walk(ex.G1Params("I", 0.6, 0.8, 1)), "delta", 128, 100),
    (ex.g1_walk(ex.G1Params("I", 0.6, 0.8, 1)), (1, 2), 128, 10),
    (shift_walk_1d(), "delta", 64, 20),
], ids=["g1-delta", "g1-planewave", "line-delta"])
def test_block_writer_matches_per_row_on_evolved_maps(walk, start, torus, steps):
    state = make_delta(walk, torus) if start == "delta" else make_plane_wave(walk, torus, start)
    final = evolve(walk, state, steps)
    _assert_same_lines(_probability_text(final), _per_row_probability_csv(final))


def _suite_stdout(closure, rejected, smallest):
    return (
        "PASS  g1_family_constraints: 20 members, worst unitarity 1.11e-16, "
        "worst swap/sigma_x covariance 0.00e+00\n"
        f"PASS  g1_left_multiplication_closure: 21 extra mixing unitaries, worst residual {closure}\n"
        "PASS  g2_solutions: worst constraint residual 4.89e-16, "
        "anti-unitary map entrywise deviation 0.00e+00\n"
        f"PASS  scalar_walks_rejected: {rejected}/{rejected} and {rejected}/{rejected} "
        f"rejected, smallest residual {smallest}\n"
        "PASS  g1_class_distinction: class I pairs each inverse with its own letter, "
        "class II crosses them\n"
    )


@pytest.mark.parametrize("samples, seed, closure, smallest", [
    (20, 0, "3.42e-16", "2.328e-01"),
    (20, 77, "2.78e-16", "2.140e-01"),
    (200, 0, "3.42e-16", "1.973e-01"),
    (200, 77, "2.78e-16", "1.837e-01"),
    (1000, 0, "3.42e-16", "1.626e-01"),
    (1000, 77, "2.78e-16", "1.757e-01"),
])
def test_cli_suite_output_is_pinned(samples, seed, closure, smallest, capsys):
    # captured from the per-family scorer the batched kernel replaced
    assert main(["suite", "--samples", str(samples), "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == _suite_stdout(closure, samples, smallest)


def test_cli_suite(capsys):
    assert main(["suite", "--samples", "40", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    assert "scalar_walks_rejected" in text
    assert "FAIL" not in text


def test_cli_planewave_init(capsys):
    assert main([
        "evolve", "--example", "g2", "--torus", "8", "--steps", "5",
        "--init", "planewave", "--momentum", "1,2"
    ]) == 0
    drift = float(capsys.readouterr().out.split("norm drift after 5 steps:")[1].split()[0])
    assert drift < 1e-12


@pytest.mark.parametrize("source, momentum", [
    (["{line}"], "1"), (["--example", "g1"], "1,0"), (["--example", "g2", "--params", "class=II"], "1,0"),
], ids=["line", "g1", "g2"])
def test_cli_planewave_default_momentum_is_one_on_the_first_axis(source, momentum, tmp_path, capsys):
    save_walk(_line_walk(), tmp_path / "line.json")
    runs = []
    for given in ([], ["--momentum", momentum]):
        out = tmp_path / "p.csv"
        argv = ["evolve", *source, "--init", "planewave", "--torus", "5", "--steps", "1", *given, "--out", str(out)]
        assert main([arg.format(line=tmp_path / "line.json") for arg in argv]) == 0
        runs.append((capsys.readouterr(), out.read_bytes()))
    assert runs[0] == runs[1]


def _line_walk():
    """The unit shift on Z: one generator t, coin dimension 1."""
    t, t_inv = generator_pair("t")
    tiling = TilingData(1, 1, ((),), (TilingRule(t, 0, 0, (1,)), TilingRule(t_inv, 0, 0, (-1,))))
    matrices = {t: np.ones((1, 1)), t_inv: np.zeros((1, 1))}
    return WalkSpec(GroupPresentation((t,), ()), tiling, matrices)


def _scalar_g1_walk():
    """g1's presentation and tiling with 1 x 1 transition matrices."""
    g1 = ex.g1_walk()
    matrices = {g: np.full((1, 1), 0.5) for g in g1.presentation.alphabet}
    return WalkSpec(g1.presentation, g1.tiling, matrices)


@pytest.mark.parametrize("argv", [
    ["evolve", "--example", "g1", "--init", "planewave", "--momentum", "x"],
    ["evolve", "{line}", "--init", "planewave", "--momentum", "1,0"],
    ["evolve", "--example", "g2", "--init", "planewave", "--momentum", "1" + "0" * 400 + ",0"],
    ["validate", "{scalar_g1}", "--isotropy", "sigma_x"],
    ["validate", "{line}", "--isotropy", "sigma_z"],
    ["suite", "--samples", "0"],
    ["suite", "--samples", "-3"],
    ["suite", "--seed", "-1"],
    ["dispersion", "--example", "g1", "--params", "n=nan,m=0", "--grid", "5"],
    ["dispersion", "--example", "g1", "--params", "n=1,m=nan", "--grid", "5"],
    ["dispersion", "--example", "g1", "--params", "class=II,nu=0.6", "--grid", "5"],
    ["dispersion", "--example", "g2", "--params", "n=0.6", "--grid", "5"],
    ["dispersion", "{line}", "--params", "class=I", "--grid", "5"],
    ["validate", "{line}", "--example", "g2"],
    ["dispersion", "--example", "g1", "--params", "n=0.3,n=1,m=0", "--grid", "5", "--oracle"],
    ["validate", "--example", "g1", "--tolerance", "nan"],
    ["validate", "--example", "g1", "--tolerance", "-1"],
    ["validate", "--example", "g1", "--tolerance", "inf"],
    ["evolve", "--example", "g1", "--torus", "16", "--frobnicate"],
    ["evolve", "--example", "g1", "--torus"],
    ["evolve", "--example", "g1", "--init", "planewave", "--momentum", "-3,99", "--torus", "16"],
    ["evolve", "--example", "g1", "--momentum", "3,4"],
], ids=[
    "momentum-not-integer", "momentum-wrong-length", "momentum-huge", "isotropy-coin-1",
    "isotropy-not-ab", "suite-no-samples", "suite-negative-samples", "suite-negative-seed",
    "g1-nan-n", "g1-nan-m", "g1-unknown-param", "g2-unknown-param", "file-with-params",
    "file-with-example", "repeated-param", "tolerance-nan", "tolerance-negative", "tolerance-inf",
    "unknown-flag", "missing-value", "negative-momentum", "momentum-without-planewave",
])
def test_cli_bad_arguments_are_one_line_usage_errors(argv, tmp_path, capsys):
    files = {"line": _line_walk(), "scalar_g1": _scalar_g1_walk()}
    for name, walk in files.items():
        save_walk(walk, tmp_path / f"{name}.json")
    argv = [arg.format(**{name: tmp_path / f"{name}.json" for name in files}) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


_G1_PARAMS = ["dispersion", "--example", "g1", "--grid", "5", "--params"]


@pytest.mark.parametrize("argv, line", [
    (_G1_PARAMS + ["n=0.6,m"], "malformed --params entry 'm'; expected key=value"),
    (_G1_PARAMS + ["n=0.6,,m=0.8"], "malformed --params entry ''; expected key=value"),
    (_G1_PARAMS + ["n=0.3,n=1,m=0"], "--params gives 'n' twice"),
    (_G1_PARAMS + ["nu=1,nu=2"], "--params gives 'nu' twice"),
    (_G1_PARAMS + ["class=II,nu=0.6"], "--example g1 takes n, m, class, sign, not 'nu'"),
    (_G1_PARAMS + ["nu=1,sign=x"], "--example g1 takes n, m, class, sign, not 'nu'"),
    (_G1_PARAMS + ["sign=x"], "sign must be '+' or '-', got 'x'"),
    (_G1_PARAMS + ["sign=x,n=abc"], "sign must be '+' or '-', got 'x'"),
    (_G1_PARAMS + ["n=abc"], "could not convert string to float: 'abc'"),
    (_G1_PARAMS + ["class=III,n=abc"], "could not convert string to float: 'abc'"),
    (_G1_PARAMS + ["n=nan"], "n and m must be nonnegative"),
    (_G1_PARAMS + ["class=III"], "walk_class must be 'I' or 'II', got 'III'"),
    (_G1_PARAMS + ["n=0.6,m=0.7"], "n^2 + m^2 = 0.8499999999999999 is not 1"),
    (["dispersion", "--example", "g2", "--params", "n=0.6"], "--example g2 takes class, not 'n'"),
    (["dispersion", "--example", "g2", "--params", "class=III"],
     "variant must be 'I' or 'II', got 'III'"),
    (["dispersion", "--example", "g9"], "unknown example 'g9'; available: g1, g2"),
    (["dispersion", "--example", "g9", "--params", "n=1"], "unknown example 'g9'; available: g1, g2"),
    (["dispersion", "--example", "g9", "--params", "n=1,n=2"], "--params gives 'n' twice"),
    (["show-example", "g3", "--out", "{out}"], "unknown example 'g3'; available: g1, g2"),
    (["dispersion", "{line}", "--params", "class=I"], "--params applies only to --example"),
    (["validate", "{line}", "--example", "g2"], "give a walk-spec file or --example, not both"),
    (["validate"], "provide a walk-spec file or --example g1|g2"),
    (["validate", "--example", ""], "unknown example ''; available: g1, g2"),
    (["dispersion", "--example", "", "--grid", "5"], "unknown example ''; available: g1, g2"),
    (["evolve", "--example", "", "--torus", "16"], "unknown example ''; available: g1, g2"),
    (["dispersion", "{line}", "--example", "", "--grid", "5", "--out", "{out}"],
     "give a walk-spec file or --example, not both"),
], ids=[
    "malformed", "empty-entry", "repeated", "repeated-unknown", "g1-unknown", "unknown-before-sign",
    "sign", "sign-before-float", "not-a-float", "float-before-class", "nan", "g1-class",
    "not-normalized", "g2-unknown", "g2-class", "unknown-example", "unknown-example-params",
    "repeated-before-example", "show-unknown-example", "file-with-params", "file-with-example",
    "no-source", "validate-empty-example", "dispersion-empty-example", "evolve-empty-example",
    "file-with-empty-example",
])
def test_cli_example_errors_are_pinned(argv, line, tmp_path, capsys):
    save_walk(_line_walk(), tmp_path / "line.json")
    out = tmp_path / "out.json"
    argv = [arg.format(line=tmp_path / "line.json", out=out) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")
    assert not out.exists()


def test_cli_negative_momentum_needs_no_equals_sign(tmp_path, capsys):
    runs = []
    spellings = (("spaced", ["--momentum", "-3,7"]), ("glued", ["--momentum=-3,7"]),
                 ("prefix", ["--mom", "-3,7"]), ("prefix-glued", ["--mom=-3,7"]))
    for name, momentum in spellings:
        out = tmp_path / f"{name}.csv"
        argv = ["evolve", "--example", "g1", "--params", "n=0.6,m=0.8", "--init", "planewave",
                "--torus", "16", *momentum, "--out", str(out)]
        code = main(argv)
        text = capsys.readouterr().out.replace(str(out), "OUT")
        runs.append((code, text, out.read_bytes()))
    assert runs[1:] == runs[:1] * 3
    assert runs[0][0] == 0


def _wide_line_walk(coin_dim=65, forward=30):
    """The shift on Z with coin dimension 65: A_t = diag(1 x 30, 0 x 35),
    A_{t^-1} = I - A_t; unitary, but too wide for the eigensolver."""
    t, t_inv = generator_pair("t")
    tiling = TilingData(1, 1, ((),), (TilingRule(t, 0, 0, (1,)), TilingRule(t_inv, 0, 0, (-1,))))
    step = np.diag([1.0] * forward + [0.0] * (coin_dim - forward))
    matrices = {t: step, t_inv: np.eye(coin_dim) - step}
    return WalkSpec(GroupPresentation((t,), ()), tiling, matrices)


@pytest.mark.parametrize("argv, code", [
    (["validate", "{path}"], 0),
    (["dispersion", "{path}", "--grid", "4"], 2),
    (["evolve", "{path}", "--torus", "8", "--init", "planewave", "--momentum", "1"], 2),
    (["evolve", "{path}", "--torus", "8", "--init", "delta"], 0),
], ids=["validate", "dispersion", "evolve-planewave", "evolve-delta"])
def test_cli_bounds_the_fiber_dimension_of_an_eigensolve(argv, code, tmp_path, capsys):
    path = tmp_path / "wide.json"
    save_walk(_wide_line_walk(), path)
    assert main([arg.format(path=path) for arg in argv]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err == f"error: fiber dimension 65 is over the eigensolver's cap of {EIGENSOLVE_MAX_DIM}\n"


def test_cli_names_an_eigensolver_failure_in_one_line(monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigh", _not_converging)
    assert main(["dispersion", "--example", "g1", "--grid", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigensolver did not converge: Eigenvalues did not converge\n"


def _package_errors():
    """Every Exception subclass defined in a cosetwalk module, found by walking
    the module dicts, so a class added later is covered too."""
    errors = []
    for info in pkgutil.iter_modules(cosetwalk.__path__):
        module = importlib.import_module(f"cosetwalk.{info.name}")
        errors += [value for value in vars(module).values() if isinstance(value, type)
                   and issubclass(value, Exception) and value.__module__ == module.__name__]
    # only group_velocity and band_curvature raise these, and no command calls them
    return [error for error in errors if error not in (BandCrossingError, ExtremumError)]


@pytest.mark.parametrize("error", _package_errors(), ids=lambda error: f"{error.__module__}.{error.__name__}")
def test_cli_maps_every_package_error_to_one_line(error, monkeypatch, capsys):
    def failing(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_suite", failing)
    assert main(["suite"]) in (1, 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].endswith(": boom")


def test_cli_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["evolve", "--help"])
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cosetwalk evolve [-h]")
    assert "--momentum MOMENTUM" in captured.out and captured.err == ""


def _fresh_cli(argv, **env):
    """Exit code and stdout of ``python -m cosetwalk.cli`` in a new process."""
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "cosetwalk.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, **env},
    )
    return done.returncode, done.stdout


def test_cli_builds_its_parser_once_per_process(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def spying(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spying)
    cli.build_parser.cache_clear()
    assert main(["suite", "--samples", "1"]) == 0
    assert built  # the first call built the parser and its subparsers
    count = len(built)
    assert main(["dispersion", "--example", "g2", "--grid", "2"]) == 0
    assert main(["evolve", "--torus", "x"]) == 2
    assert len(built) == count


def test_cli_runs_a_handler_patched_after_the_first_call(monkeypatch):
    assert main(["suite", "--samples", "1"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_suite", lambda args: seen.append(args.samples) or 0)
    assert main(["suite", "--samples", "7"]) == 0
    assert seen == [7]
    monkeypatch.undo()
    assert main(["suite", "--samples", "1"]) == 0 and seen == [7]


def test_cli_help_wraps_to_the_columns_of_each_call(monkeypatch, capsys):
    layouts = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exit_info:
            main(["evolve", "--help"])
        assert exit_info.value.code == 0
        layouts.append(capsys.readouterr().out)
        assert layouts[-1] == _fresh_cli(["evolve", "--help"], COLUMNS=columns)[1]
    assert len(layouts[0].splitlines()) > len(layouts[1].splitlines())


@pytest.mark.parametrize("bad, good", [
    (["evolve", "--example", "g1", "--init", "planewave", "--steps", "x"],
     ["evolve", "--example", "g1", "--torus", "8", "--steps", "3"]),
    (["suite", "--samples"], ["suite", "--samples", "5", "--seed", "3"]),
    (["bogus"], ["validate", "--example", "g2", "--isotropy", "sigma_z"]),
], ids=["evolve", "suite", "unknown-command"])
def test_cli_call_after_a_usage_error_matches_a_fresh_process(bad, good, capsys):
    assert main(bad) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    code = main(good)
    assert (code, capsys.readouterr().out) == _fresh_cli(good)


@pytest.mark.filterwarnings("error")
def test_cli_overflowing_entry_fails_every_check(capsys):
    # a's first entry is 1e308: its pair products overflow and the unitarity
    # residual is NaN, which used to pass as "unitarity: ok"
    path = str(FIXTURES / "g1_a_overflow.json")
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert "unitarity: FAIL" in captured.out and captured.err == ""
    for argv in (["dispersion", path, "--grid", "3"], ["evolve", path, "--torus", "5", "--steps", "2"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unitarity residual nan exceeds 1.0e-10\n"


@pytest.mark.filterwarnings("error")
def test_cli_overflowing_covariance_fails_isotropy(tmp_path, capsys):
    # Z A_a Z^dag negates a's 1e308 corner, so the a <-> b covariance
    # deviation overflows to inf; its NaN norm used to be dropped by a
    # running max and printed as "isotropy: ok"
    path = tmp_path / "g2.json"
    assert main(["show-example", "g2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["transitions"]["a"][0][1] = doc["transitions"]["b"][0][1] = [1e308, 0.0]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(path), "--isotropy", "sigma_z"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["isotropy deviation (sigma_z): nan", "isotropy: FAIL"]


def test_package_submodules_are_not_shadowed():
    import importlib
    import pkgutil
    import types

    import cosetwalk

    for info in pkgutil.iter_modules(cosetwalk.__path__):
        module = importlib.import_module(f"cosetwalk.{info.name}")
        assert getattr(cosetwalk, info.name) is module
        assert isinstance(module, types.ModuleType)
