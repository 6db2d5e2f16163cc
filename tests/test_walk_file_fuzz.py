"""Mutation fuzz of walk-spec files through the three commands that load one.

Each example changes one or two fields of an exported g1 or g2 document to a
wrong JSON type, NaN, inf, 1e308 or a negative or huge integer, then runs
``validate``, ``dispersion --grid 3`` and ``evolve --torus 5 --steps 2``
in-process.  Every exit code is 0, 1 or 2; a nonzero exit prints exactly one
stderr line with no traceback and no warning (``validate`` may instead
report its failed checks on stdout); and ``dispersion`` and ``evolve`` never
exit 0 on a walk that ``validate`` rejects.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cosetwalk import examples as ex
from cosetwalk.cli import main
from cosetwalk.io import dumps_walk

DOCUMENTS = {
    "g1": json.loads(dumps_walk(ex.g1_walk(ex.G1Params("II", 0.6, 0.8, -1)))),
    "g2": json.loads(dumps_walk(ex.g2_walk("II"))),
}

BAD_VALUES = st.one_of(
    st.sampled_from([None, True, "", "a", "b^-1", [], {}, [0, 0], {"a": 1}]),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10**400, 2**64]),
    st.integers(min_value=-3, max_value=5),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        # descend into a random child three times in four, so matrix entries
        # and table cells are hit about as often as whole fields
        while isinstance(parent[key], (list, dict)) and parent[key] and draw(st.integers(0, 3)):
            parent = parent[key]
            key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict) else range(len(parent))))
        parent[key] = copy.deepcopy(draw(BAD_VALUES))
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=mutated_documents())
def test_mutated_walk_files_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "walk.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        codes = {}
        for command, extra in (
            ("validate", []),
            ("dispersion", ["--grid", "3"]),
            ("evolve", ["--torus", "5", "--steps", "2"]),
        ):
            code, out, err = _run([command, str(path)] + extra)
            assert code in (0, 1, 2), (command, code)
            assert "Traceback" not in err and "Warning" not in err, (command, err)
            if command == "validate" and code == 1 and not err:
                assert "FAIL" in out or "[" in out, out  # the report is on stdout
            elif code:
                assert len(err.splitlines()) == 1, (command, err)
            codes[command] = code
    if codes["validate"]:
        assert codes["dispersion"] and codes["evolve"], codes
