import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratree.cli as cli
from stratree.cli import main
from stratree.decompose import EigenBasis, full_eigenbasis
from stratree.tree import SymmetricTreeSpec


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSpectrum:
    def test_star_json(self, capsys):
        code, out = run(capsys, "spectrum", "--children", "2")
        assert code == 0
        rows = json.loads(out)
        assert [round(r["lambda"], 9) for r in rows] == [0.0, 1.0, 3.0]
        assert all(r["multiplicity"] == 1 for r in rows)
        assert {r["origin_level"] for r in rows} == {0, 1}

    def test_csv_total_multiplicity(self, capsys):
        code, out = run(capsys, "spectrum", "--children", "3,2", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        # one line per (recurrence, position): 3 + 2 + 1
        assert len(rows) == 6
        assert sum(int(r["multiplicity"]) for r in rows) == 10

    def test_glued_spec_file(self, capsys, tmp_path):
        path = tmp_path / "glued.json"
        path.write_text(json.dumps({"left": [2], "right": [3]}))
        code, out = run(capsys, "spectrum", "--spec", str(path))
        assert code == 0
        rows = json.loads(out)
        assert all("origin_side" in r for r in rows)
        assert sum(r["multiplicity"] for r in rows) == 6

    def test_symmetric_spec_file(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"children": [3, 2]}))
        code, out = run(capsys, "spectrum", "--spec", str(path))
        assert code == 0
        assert sum(r["multiplicity"] for r in json.loads(out)) == 10

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.json"
        code, _ = run(capsys, "spectrum", "--children", "2", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())

    def test_export_matrix(self, capsys, tmp_path):
        target = tmp_path / "lap.mtx"
        code, _ = run(capsys, "spectrum", "--children", "2", "--export-matrix", str(target))
        assert code == 0
        assert target.read_text().startswith("%%MatrixMarket matrix coordinate real symmetric")

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "spectrum", "--children", "3,2,2")
        _, b = run(capsys, "spectrum", "--children", "3,2,2")
        assert a == b

    def test_zero_eigenvalue_is_exact(self, capsys):
        code, out = run(capsys, "spectrum", "--children", "3,2,1,2")
        assert code == 0
        values = [r["lambda"] for r in json.loads(out)]
        assert values[0] == 0.0
        assert min(values) >= 0.0


class TestErrors:
    def test_invalid_children(self, capsys):
        code, _ = run(capsys, "spectrum", "--children", "0")
        assert code == 2

    def test_missing_spec(self, capsys):
        code, _ = run(capsys, "spectrum")
        assert code == 2

    def test_both_spec_sources(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"children": [2]}))
        code, _ = run(capsys, "spectrum", "--children", "2", "--spec", str(path))
        assert code == 2

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _ = run(capsys, "spectrum", "--spec", str(path))
        assert code == 2

    def test_verify_cap_exceeded(self, capsys):
        code, _ = run(capsys, "verify", "--children", "4,4,4", "--oracle-cap", "10")
        assert code == 3

    def test_eigvecs_cap_exceeded(self, capsys):
        code, _ = run(capsys, "eigvecs", "--children", "4,4,4", "--basis-cap", "10")
        assert code == 3

    def test_nodal_cap_refused_before_allocating(self, capsys):
        # |V| = 2047: densifying it first would take 33 MB
        tracemalloc.start()
        try:
            code = main(["nodal", "--children", ",".join(["2"] * 10), "--oracle-cap", "100"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 1 << 20

    @pytest.mark.parametrize("command", ["spectrum", "eigvecs", "nodal", "verify", "bench"])
    def test_unwritable_out(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "out.json"
        code = main([command, "--children", "2", "--out", str(target)])
        assert_input_error(code, capsys.readouterr().err)

    def test_unwritable_export_matrix(self, capsys, tmp_path):
        target = tmp_path / "missing" / "lap.mtx"
        code = main(["spectrum", "--children", "2", "--export-matrix", str(target)])
        assert_input_error(code, capsys.readouterr().err)

    def test_eigvecs_cap_refused_before_the_output_opens(self, capsys, tmp_path):
        target = tmp_path / "basis.json"
        code = main(["eigvecs", "--children", "4,4,4", "--basis-cap", "10", "--out", str(target)])
        assert code == 3
        assert not target.exists()

    def test_unallocatable_export_matrix(self, capsys, tmp_path):
        # 10^15 + 1 vertices: under the indexing cap, but the parent array's
        # allocation is refused at once, before the file is created
        target = tmp_path / "lap.mtx"
        code = main(["spectrum", "--children", "1000000000000000", "--export-matrix", str(target)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize(
        "command, cap", [("eigvecs", "-5"), ("eigvecs", "0"), ("verify", "0"), ("verify", "-1")]
    )
    def test_bad_basis_cap(self, capsys, command, cap):
        code = main([command, "--children", "2", "--basis-cap", cap])
        assert_input_error(code, capsys.readouterr().err)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["verify", "nodal"])
    def test_bad_tolerance(self, capsys, command, tol):
        code = main([command, "--children", "2", f"--tol={tol}"])
        assert_input_error(code, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("spectrum", "--tol", "1e-6"),
            ("spectrum", "--oracle-cap", "10"),
            ("spectrum", "--basis-cap", "10"),
            ("eigvecs", "--tol", "1e-6"),
            ("eigvecs", "--oracle-cap", "10"),
            ("nodal", "--basis-cap", "10"),
            ("bench", "--tol", "1e-6"),
            ("bench", "--basis-cap", "10"),
            ("bench", "--format", "json"),
        ],
    )
    def test_flag_the_command_does_not_read(self, capsys, command, flag, value):
        code = main([command, "--children", "2", flag, value])
        assert_input_error(code, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--children", "2", "--bogus"],
            ["spectrum", "--children", "2", "--format", "xml"],
            ["verify", "--children", "2", "--tol", "abc"],
            ["bench", "--children", "2", "--levels", "0"],
            ["bench", "--children", "2", "--levels", "-3"],
            ["frobnicate"],
            [],
        ],
        ids=[
            "unknown_flag", "bad_format", "bad_tol", "levels_0", "levels_negative",
            "unknown_command", "no_command",
        ],
    )
    def test_one_line(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_input_error(code, captured.err)


def run_spec_text(text):
    """Run ``spectrum --spec`` on a file holding ``text`` (str or bytes);
    returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["spectrum", "--spec", path])
    return code, out.getvalue(), err.getvalue()


def assert_input_error(code, err):
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


BAD_SPECS = {
    "string": '{"children": "32"}',
    "float": '{"children": [2.7]}',
    "integral_float": '{"children": [2.0]}',
    "bool": '{"children": [true, 2]}',
    "scalar": '{"children": 3}',
    "string_side": '{"left": [2], "right": "x"}',
    "overflowing_float": '{"children": [1e400]}',
    "null": '{"children": [null]}',
    "object": '{"children": {"3": 2}}',
    "beyond_float": '{"children": [1%s]}' % ("0" * 400),
    "over_digit_limit": '{"children": [1%s]}' % ("0" * 5000),
    "bare_list": "[3, 2]",
    "not_utf8": b"\xff\xfe{",
}


class TestStrictSpecs:
    @pytest.mark.parametrize("text", BAD_SPECS.values(), ids=BAD_SPECS.keys())
    def test_rejected_with_one_line(self, text):
        code, _, err = run_spec_text(text)
        assert_input_error(code, err)

    def test_rejected_children_flag(self, capsys):
        assert main(["spectrum", "--children", "1" + "0" * 400]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def valid_children(value):
    return isinstance(value, list) and all(
        type(c) is int and 1 <= c <= sys.float_info.max for c in value
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


class TestSpecProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(json_values, st.booleans())
    def test_any_json_value_runs_or_is_one_error_line(self, value, glued):
        doc = {"left": [2], "right": value} if glued else {"children": value}
        code, out, err = run_spec_text(json.dumps(doc))
        if valid_children(value):
            assert code == 0 and err == ""
            vertices = sum(math.prod(value[:l]) for l in range(len(value) + 1))
            assert sum(r["multiplicity"] for r in json.loads(out)) == vertices + 2 * glued
        else:
            assert_input_error(code, err)


class TestVerify:
    def test_small_tree_passes(self, capsys):
        code, out = run(capsys, "verify", "--children", "3,2")
        assert code == 0
        rows = json.loads(out)
        assert all(r["pass"] for r in rows)
        dev = next(r["max_deviation"] for r in rows if r["check"] == "spectrum_oracle")
        assert dev < 1e-8

    def test_deep_binary_tree_passes(self, capsys):
        code, out = run(capsys, "verify", "--children", "2,2,2,2")
        assert code == 0
        assert all(r["pass"] for r in json.loads(out))

    def test_glued_verify(self, capsys, tmp_path):
        path = tmp_path / "glued.json"
        path.write_text(json.dumps({"left": [2, 2], "right": [3]}))
        code, out = run(capsys, "verify", "--spec", str(path))
        assert code == 0
        assert all(r["pass"] for r in json.loads(out))


class TestEigvecs:
    def test_star(self, capsys):
        code, out = run(capsys, "eigvecs", "--children", "2")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        for r in rows:
            assert r["residual"] <= 1e-9
            assert r["construction"] in {"stratified", "antisym"}
            assert "origin_level" in r and len(r["vector"]) == 3

    def test_vector_count_is_vertex_count(self, capsys):
        code, out = run(capsys, "eigvecs", "--children", "3,2")
        assert code == 0
        assert len(json.loads(out)) == 10

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("children", [(), (1,), (2,), (3, 2), (3, 2, 2), (3, 4, 2, 1, 4, 3)])
    def test_output_matches_the_encoders(self, capsys, children, fmt):
        basis = full_eigenbasis(SymmetricTreeSpec(children))
        code, out = run(capsys, "eigvecs", "--children", ",".join(map(str, children)), "--format", fmt)
        assert code == 0
        assert out == encoded_eigvecs(basis, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_signed_zeros_and_neighbouring_floats(self, capsys, monkeypatch, fmt):
        x = 0.1
        vectors = np.array(
            [
                [0.0, -0.0, x, np.nextafter(x, 1.0)],
                [-0.0, np.nextafter(x, 1.0), x, 0.0],
                [np.nan, np.inf, -np.inf, -x],
                [5e-324, -5e-324, 1e300, -0.0],
            ]
        )
        basis = EigenBasis(
            np.array([-0.0, 0.0, x, np.nextafter(x, 1.0)]),
            vectors,
            np.array([0, 1, 1, 2]),
            ["stratified", "antisym", "antisym", "antisym"],
            np.array([0.0, 1e-17, np.nextafter(1e-17, 1.0), 5e-324]),
        )
        monkeypatch.setattr(cli, "full_eigenbasis", lambda spec, basis_cap: basis)
        code, out = run(capsys, "eigvecs", "--children", "3", "--format", fmt)
        assert code == 0
        assert out == encoded_eigvecs(basis, fmt)
        if fmt == "json":
            assert out.count("-0.0") == 4

    def test_streams_without_the_whole_document(self, tmp_path):
        # |V| = 448: the basis itself is 1.6 MB; the whole indented JSON
        # document and its chunk list peaked at 25 MB
        n = SymmetricTreeSpec([3, 4, 2, 1, 4, 3]).vertex_count()
        tracemalloc.start()
        try:
            code = main(["eigvecs", "--children", "3,4,2,1,4,3", "--out", str(tmp_path / "b.json")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * n * n * 8


def encoded_eigvecs(basis, fmt):
    """``eigvecs`` output built with the json and csv encoders from the
    whole list of rows: the reference the streaming writer must match."""
    rows = [
        {
            "lambda": float(basis.values[i]),
            "origin_level": int(basis.origin_levels[i]),
            "construction": basis.construction[i],
            "residual": float(basis.residuals[i]),
            "vector": [float(x) for x in basis.vectors[i]],
        }
        for i in range(basis.n)
    ]
    if fmt == "csv":
        return cli._rows_to_csv(
            [{k: (json.dumps(v) if k == "vector" else v) for k, v in row.items()} for row in rows]
        )
    return json.dumps(rows, indent=2) + "\n"


class TestNodal:
    def test_report(self, capsys):
        code, out = run(capsys, "nodal", "--children", "3,2")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 10
        for r in rows:
            assert set(r) == {"lambda", "position", "multiplicity", "sign_graphs", "bound", "pass"}
            assert r["pass"]


class TestBench:
    def test_levels_expansion_skips_dense(self, capsys):
        code, out = run(capsys, "bench", "--children", "2", "--levels", "17")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["vertices"] == "131071"
        assert row["total_multiplicity"] == "131071"
        assert row["dense_ms"] == "skipped(cap)"

    def test_small_has_both_columns(self, capsys):
        code, out = run(capsys, "bench", "--children", "2", "--levels", "5")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["vertices"] == "31"
        assert float(row["decompose_ms"]) >= 0.0
        assert float(row["dense_ms"]) >= 0.0
