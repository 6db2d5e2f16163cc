import io
import json
from pathlib import Path

import numpy as np
import pytest

from cosetwalk import cli
from cosetwalk import examples as ex
from cosetwalk.cli import main
from cosetwalk.evolve import evolve, make_delta, probability_map
from cosetwalk.groups import GroupPresentation, TilingData, TilingRule, generator_pair
from cosetwalk.io import (
    WalkFileError,
    _format_float,
    dumps_walk,
    loads_walk,
    save_dispersion_csv,
    save_walk,
    write_dispersion_csv,
    write_probability_csv,
)
from cosetwalk.spectral import DispersionGrid, dispersion_grid
from cosetwalk.walks import TransitionFamily, WalkSpec, unitarity_residual


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
    save_dispersion_csv(grid, path)
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
    header = [f"k_{i + 1}" for i in range(d)] + [f"omega_{r + 1}" for r in range(grid.band_count)]
    lines = [",".join(header) + "\n"]
    for k, phases in zip(grid.kpoints, grid.phases):
        lines.append(",".join(format(float(x) + 0.0, ".17g") for x in (*k, *phases)) + "\n")
    return "".join(lines)


def _csv_text(grid):
    stream = io.StringIO()
    write_dispersion_csv(grid, stream)
    return stream.getvalue()


def test_dispersion_csv_matches_per_row_formatting(g1_massive):
    # 33^2 rows span more than one row block
    grid = dispersion_grid(g1_massive, 33)
    assert _csv_text(grid) == _per_row_csv(grid)


def test_dispersion_csv_prints_negative_zero_as_zero(g2_one):
    kpoints = np.array([[-0.0, np.pi], [0.5, -0.0]])
    phases = np.array([[-np.pi / 2, -0.0, 0.25, np.pi], [-0.0, -0.0, 1e-300, 3.0]])
    grid = DispersionGrid(g2_one, 2, np.array([0.5, np.pi]), kpoints, phases)
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


def test_cli_validate_rejects_corrupted_table(tmp_path, capsys):
    out = tmp_path / "g2.json"
    assert main(["show-example", "g2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["table"][2][3] = [5, 0]  # break one displacement vector
    out.write_text(json.dumps(doc))
    assert main(["validate", str(out)]) == 1
    assert "relator" in capsys.readouterr().out


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


def test_cli_dispersion_grid_usage_error(capsys):
    assert main(["dispersion", "--example", "g2", "--grid", "1"]) == 2
    assert "grid" in capsys.readouterr().err


def test_cli_dispersion_deterministic_output(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["dispersion", "--example", "g2", "--grid", "7", "--out"]
    assert main(args + [str(first)]) == 0
    assert main(args + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


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


def test_cli_evolve_torus_too_small(capsys):
    assert main(["evolve", "--example", "g1", "--torus", "2", "--steps", "1"]) == 2
    assert "torus" in capsys.readouterr().err


def test_cli_unknown_example(capsys):
    assert main(["dispersion", "--example", "g9", "--grid", "5"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_cli_bad_g2_class(capsys):
    assert main(["dispersion", "--example", "g2", "--params", "class=III", "--grid", "5"]) == 2
    assert "'III'" in capsys.readouterr().err


def test_cli_non_unitary_walk_fails_with_one_line(capsys):
    # g1 with its a matrix doubled: the fiber operators are far from unitary
    path = Path(__file__).parent / "fixtures" / "g1_a_doubled.json"
    assert main(["dispersion", str(path), "--grid", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unitarity residual")


FIXTURES = Path(__file__).parent / "fixtures"


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
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1



def test_cli_dispersion_rejects_an_invalid_tiling_before_solving(tmp_path, monkeypatch, capsys):
    # the tiling is checked before any operator is built, so the missing row
    # is named instead of the unitarity defect it causes
    monkeypatch.setattr(cli, "dispersion_grid", lambda *args: pytest.fail("solved a broken tiling"))
    out = tmp_path / "rows.csv"
    argv = ["dispersion", str(FIXTURES / "g1_row_dropped.json"), "--grid", "5", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid tiling: missing row for (b^-1, j=3)\n"
    assert not out.exists()

@pytest.mark.parametrize("argv, builder", [
    (["dispersion", "--example", "g1", "--grid", "100000"], "dispersion_grid"),
    (["dispersion", "--example", "g2", "--grid", "2049"], "dispersion_grid"),
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
    stream = io.StringIO()
    write_probability_csv(state, stream)
    assert stream.getvalue() == _per_row_probability_csv(state)


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


def test_cli_missing_source(capsys):
    assert main(["validate"]) == 2


def test_cli_bad_params(capsys):
    assert main([
        "dispersion", "--example", "g1", "--params", "n=0.6,m=0.7", "--grid", "5"
    ]) == 2


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


def _line_walk():
    """The unit shift on Z: one generator t, coin dimension 1."""
    t, t_inv = generator_pair("t")
    tiling = TilingData(1, 1, ((),), (TilingRule(t, 0, 0, (1,)), TilingRule(t_inv, 0, 0, (-1,))))
    matrices = {t: np.ones((1, 1)), t_inv: np.zeros((1, 1))}
    return WalkSpec(GroupPresentation((t,), ()), tiling, TransitionFamily(1, matrices))


def _scalar_g1_walk():
    """g1's presentation and tiling with 1 x 1 transition matrices."""
    g1 = ex.g1_walk()
    matrices = {g: np.full((1, 1), 0.5) for g in g1.presentation.alphabet}
    return WalkSpec(g1.presentation, g1.tiling, TransitionFamily(1, matrices))


@pytest.mark.parametrize("argv", [
    ["evolve", "--example", "g1", "--init", "planewave", "--momentum", "x"],
    ["evolve", "{line}", "--init", "planewave", "--momentum", "1,0"],
    ["evolve", "--example", "g2", "--init", "planewave", "--momentum", "1" + "0" * 400 + ",0"],
    ["validate", "{scalar_g1}", "--isotropy", "sigma_x"],
    ["validate", "{line}", "--isotropy", "sigma_z"],
    ["suite", "--samples", "0"],
    ["suite", "--samples", "-3"],
], ids=[
    "momentum-not-integer", "momentum-wrong-length", "momentum-huge", "isotropy-coin-1",
    "isotropy-not-ab", "suite-no-samples", "suite-negative-samples",
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
