import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratree.cli as cli
from stratree.cli import main
from stratree.decompose import BlockVectors, full_eigenbasis
from stratree.tree import SymmetricTreeSpec

from reference import columns_of, csv_document, dense_rows, json_document, row_facts, spectrum_rows


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

    @pytest.mark.parametrize("command", ["verify", "nodal", "eigvecs"])
    def test_unallocatable_dense_array(self, capsys, monkeypatch, tmp_path, command):
        # An n x n array is refused as if memory had run out, so nothing that
        # large is really asked for.  The oracle's matrix is a resource error;
        # eigvecs never asks for one and writes its basis all the same, also
        # on a path, whose level families are as long as the tree.
        for children in ([2, 2], [1, 1, 1]) if command == "eigvecs" else ([2, 2],):
            spec = SymmetricTreeSpec(children)
            n = spec.vertex_count()
            expected = encoded_eigvecs(full_eigenbasis(spec), "json")
            zeros = np.zeros

            def refuse_square(shape, *args, **kwargs):
                if shape == (n, n):
                    raise MemoryError(f"Unable to allocate {8 * n * n} bytes")
                return zeros(shape, *args, **kwargs)

            target = tmp_path / "out.json"
            with monkeypatch.context() as patch:
                patch.setattr(np, "zeros", refuse_square)
                code = main([command, "--children", ",".join(map(str, children)), "--out", str(target)])
            captured = capsys.readouterr()
            if command == "eigvecs":
                assert code == 0 and captured.err == ""
                assert target.read_text() == expected
                continue
            assert code == 3
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert not target.exists()

    def test_unallocatable_basis_rows(self, capsys, tmp_path):
        # 10^15 + 1 vertices under a raised cap: the basis holds nothing of
        # |V| rows, but the residual certificates need the realized tree,
        # whose parent array is refused at once, before the output is
        # created
        target = tmp_path / "basis.json"
        argv = ["eigvecs", "--children", "1000000000000000", "--basis-cap", str(10**16)]
        code = main([*argv, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize("route", ["spectrum", "glued", "bench"])
    def test_unallocatable_level_matrix(self, capsys, tmp_path, route):
        # a path of 300,000 levels: its one 300,000-row level matrix would
        # take 720 GB dense, so the allocation is refused at once rather
        # than committed lazily and solved in O(k^3)
        deep = [1] * 300_000
        if route == "bench":
            argv = ["bench", "--children", "1", "--levels", str(len(deep) + 1)]
        elif route == "glued":
            path = tmp_path / "deep.json"
            path.write_text(json.dumps({"left": deep, "right": [1]}))
            argv = ["spectrum", "--spec", str(path)]
        else:
            argv = ["spectrum", "--children", ",".join(map(str, deep))]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("value", ["bogus", "basic_format"])
    def test_unknown_log_level(self, capsys, monkeypatch, value):
        # BASIC_FORMAT is an attribute of logging, but a format, not a level
        monkeypatch.setenv("STRATREE_LOG", value)
        code = main(["spectrum", "--children", "2"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_input_error(code, captured.err)

    def test_log_levels(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli.logging, "basicConfig", lambda **kwargs: seen.append(kwargs["level"]))
        for value in ["debug", "INFO", "Warning", "error", "critical"]:
            monkeypatch.setenv("STRATREE_LOG", value)
            assert main(["spectrum", "--children", "2"]) == 0
        monkeypatch.delenv("STRATREE_LOG")
        assert main(["spectrum", "--children", "2"]) == 0
        assert seen == ["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL", "ERROR"]


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
    "unknown_key": '{"children": [2], "rigth": [3]}',
    "mixed_keys": '{"children": [2], "left": [1], "right": [1]}',
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
        # the level values, eigenvalues and residuals of the [3, 2] basis
        # replaced by floats whose texts must stay apart
        x = 0.1
        up = np.nextafter(x, 1.0)
        basis = full_eigenbasis(SymmetricTreeSpec([3, 2]))
        level_values = (
            [[0.0, -0.0, x], [up, -0.0, x], [np.nan, np.inf, -np.inf]],
            [[5e-324, -5e-324], [1e300, -x]],
            [[-0.0]],
        )
        heads = ([-0.0, 0.0, x], [up, np.inf], [5e-324])
        residuals = ([0.0, 1e-17, np.nextafter(1e-17, 1.0)], [5e-324, 0.0], [-0.0])
        families = tuple(
            fam._replace(values=np.array(v), g=np.array(g))
            for fam, v, g in zip(basis.vectors.families, heads, level_values)
        )
        basis = dataclasses.replace(
            basis,
            vectors=dataclasses.replace(basis.vectors, families=families),
            residuals=tuple(np.array(r) for r in residuals),
        )
        monkeypatch.setattr(cli, "full_eigenbasis", lambda spec, basis_cap: basis)
        code, out = run(capsys, "eigvecs", "--children", "3,2", "--format", fmt)
        assert code == 0
        assert out == encoded_eigvecs(basis, fmt)
        if fmt == "json":
            facts = row_facts(basis)
            cells = np.concatenate([dense_rows(basis.vectors).ravel(), facts.values, facts.residuals])
            assert out.count("-0.0") == np.sum((cells == 0.0) & np.signbit(cells)) > 0

    def test_basis_holds_no_row_table(self):
        # [3, 1, 4, 1, 3, 2, 4, 3]: one (family, position) entry per run of
        # rows, K = sum of k - l0 over the 7 levels that give vectors, and
        # one residual per (family, position): nothing in the basis, its
        # vectors or its residuals has |V| rows
        spec = SymmetricTreeSpec([3, 1, 4, 1, 3, 2, 4, 3])
        basis = full_eigenbasis(spec)
        n = spec.vertex_count()
        held = list(held_sequences(basis))
        assert n == 1291 and len(basis.vectors.order) == 33
        assert all(len(a) < n for a in held)
        assert [len(r) for r in basis.residuals] == [len(fam.values) for fam in basis.vectors.families]
        assert all(any(a is r for a in held) for r in basis.residuals)

    def test_finds_the_runs_of_each_row_layout_once(self, tmp_path, monkeypatch):
        # once per (family, p, s) and once per family for its residuals: on
        # [3, 1, 4, 1, 3, 2, 4, 3] the sum of n(l0) - n(l0-1) (1 at the
        # root) over the levels telescopes to the 864 leaves, plus 7
        # families, against |V| = 1291 rows
        runs, calls = BlockVectors.runs, []

        def counted(self, *args):
            calls.append(args)
            return runs(self, *args)

        monkeypatch.setattr(BlockVectors, "runs", counted)
        assert main(["eigvecs", "--children", "3,1,4,1,3,2,4,3", "--out", str(tmp_path / "b.json")]) == 0
        assert len(calls) == 864 + 7

    def test_streams_without_the_whole_document(self, tmp_path):
        # |V| = 1291: the basis is never an n x n array (13 MB), and the
        # indented JSON document (19 MB) is never held whole
        n = SymmetricTreeSpec([3, 1, 4, 1, 3, 2, 4, 3]).vertex_count()
        tracemalloc.start()
        try:
            code = main(["eigvecs", "--children", "3,1,4,1,3,2,4,3", "--out", str(tmp_path / "b.json")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * n * n


def golden_eigvecs():
    """(children, format, SHA-256) of each line of ``data/eigvecs.sha256``,
    a ``sha256sum`` file whose names are ``eigvecs-<children>.<format>``."""
    path = os.path.join(os.path.dirname(__file__), "data", "eigvecs.sha256")
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            digest, name = line.split()
            children, fmt = name.removeprefix("eigvecs-").rsplit(".", 1)
            yield pytest.param(children, fmt, digest, id=name)


@pytest.mark.parametrize("children, fmt, digest", golden_eigvecs())
def test_eigvecs_golden_bytes(tmp_path, children, fmt, digest):
    # recorded before the basis was held as level blocks, from the n x n
    # array, with the numpy the data file names
    target = tmp_path / "out"
    assert main(["eigvecs", "--children", children, "--format", fmt, "--out", str(target)]) == 0
    digest_now = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest_now == digest, f"numpy {np.__version__}; see tests/data/eigvecs.sha256"


def held_sequences(obj):
    """Every array, tuple and list that ``obj`` holds, through dataclass
    fields and nested tuples and lists."""
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from held_sequences(getattr(obj, field.name))
    elif isinstance(obj, (np.ndarray, tuple, list)):
        yield obj
        if not isinstance(obj, np.ndarray):
            for item in obj:
                yield from held_sequences(item)


def encoded_eigvecs(basis, fmt):
    """``eigvecs`` output built with the json and csv encoders from the
    whole list of rows: the reference the streaming writer must match."""
    vectors, facts = dense_rows(basis.vectors), row_facts(basis)
    rows = [
        {
            "lambda": float(facts.values[i]),
            "origin_level": int(facts.origin_levels[i]),
            "construction": facts.construction[i],
            "residual": float(facts.residuals[i]),
            "vector": vectors[i].tolist(),
        }
        for i in range(basis.n)
    ]
    if fmt == "csv":
        return csv_document([{k: (json.dumps(v) if k == "vector" else v) for k, v in row.items()} for row in rows])
    return json_document(rows)


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


# floats the encoder must keep apart or spell its own way
SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    0.1, 0.1 + 0.2, 1 / 3, 1e16, 1e17, 1.7976931348623157e308, 123456789.12345678,
]
json_cells = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-(2**63) + 2),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.sampled_from([", ", "a, b", '"', '\\", ', "é, ü", "\u2028", "%s", "{}", "\n, \t"]),
)


@st.composite
def flat_rows(draw):
    """1 to 6 rows over 1 to 5 shared string keys, each column drawn from
    one kind of value or from all of them."""
    keys = draw(st.lists(st.text(max_size=4) | st.sampled_from(["%s", ", ", "%%"]), min_size=1, max_size=5, unique=True))
    n = draw(st.integers(1, 6))
    kinds = [
        st.floats(), st.sampled_from(SPECIAL_FLOATS), st.integers(min_value=-(2**70), max_value=2**70),
        st.booleans(), st.text(max_size=6), json_cells,
    ]
    columns = [draw(st.lists(draw(st.sampled_from(kinds)), min_size=n, max_size=n)) for _ in keys]
    return [dict(zip(keys, values)) for values in zip(*columns)]


EXAMPLE_ROWS = [
    [{"lambda": -0.0, "multiplicity": 2**64, "pass": True}],
    [{"x": math.nan}, {"x": math.inf}, {"x": -math.inf}, {"x": 5e-324}],
    [{"side": "left, right"}, {"side": "right"}, {"side": 'say "hi"'}, {"side": "ü"}],
    [{"mixed": 1}, {"mixed": 1.0}, {"mixed": "1"}, {"mixed": None}, {"mixed": False}],
    [{"k": v} for v in SPECIAL_FLOATS],
]
EXAMPLE_IDS = ["one_row", "non_finite", "strings_with_separators", "mixed_column", "special_floats"]


class TestJsonRows:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(flat_rows())
    def test_matches_the_indent_encoder(self, rows):
        assert cli._json_columns(columns_of(rows)) == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("rows", EXAMPLE_ROWS, ids=EXAMPLE_IDS)
    def test_examples(self, rows):
        assert cli._json_columns(columns_of(rows)) == json.dumps(rows, indent=2) + "\n"

    def test_every_digit_past_the_str_limit(self):
        # json.dumps refuses an int of more digits than the limit; the writer
        # spells all of them and the rest of the column as the encoder does
        big = 10**5000 + 7
        rows = [{"count": big, "lambda": 0.5}, {"count": -3, "lambda": -0.0}]
        assert cli._json_columns(columns_of(rows)) == (
            '[\n  {\n    "count": %s,\n    "lambda": 0.5\n  },\n'
            '  {\n    "count": -3,\n    "lambda": -0.0\n  }\n]\n' % Decimal(big)
        )

    def test_spell(self):
        assert cli._spell([0.0, -0.0, math.nan, True, None, "a, b", 2**64]) == [
            "0.0", "-0.0", "NaN", "true", "null", '"a, b"', "18446744073709551616",
        ]


class TestCsvRows:
    """The CSV twin of ``TestJsonRows``: the column writer against
    ``csv.DictWriter`` spelling one cell at a time."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(flat_rows())
    def test_matches_the_dict_writer(self, rows):
        assert cli._csv_columns(columns_of(rows)) == csv_document(rows)

    @pytest.mark.parametrize("rows", EXAMPLE_ROWS, ids=EXAMPLE_IDS)
    def test_examples(self, rows):
        assert cli._csv_columns(columns_of(rows)) == csv_document(rows)

    def test_every_digit_past_the_str_limit(self):
        big = 10**5000 + 7
        rows = [{"count": big, "lambda": 0.5}, {"count": -3, "lambda": -0.0}]
        assert cli._csv_columns(columns_of(rows)) == "count,lambda\n%s,0.5\n-3,-0\n" % Decimal(big)

    def test_quoting(self):
        rows = [{"children": "2,2,2", "note": 'say "hi"', "pass": True, "none": None}]
        assert cli._csv_columns(columns_of(rows)) == 'children,note,pass,none\n"2,2,2","say ""hi""",True,\n'


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "doc",
    [
        {"children": [1000] * 20},  # multiplicities of up to 60 digits
        {"children": [1] * 40 + [10]},
        {"children": []},
        {"left": [2, 2], "right": [2, 2]},  # exact value ties across the two sides
        {"left": [2, 2], "right": [3]},
    ],
    ids=["huge_multiplicities", "forty_ones_10", "empty", "glued_ties", "glued"],
)
def test_spectrum_matches_the_row_path(capsys, tmp_path, doc, fmt):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "spectrum", "--spec", str(path), "--format", fmt)
    assert code == 0
    rows = spectrum_rows(cli._load_spec_file(str(path)))
    assert out == (csv_document(rows) if fmt == "csv" else json_document(rows))


def round_trip(text):
    """The text ``json.dumps(..., indent=2)`` writes for the document ``text`` holds."""
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--children", "2,3,1,4"],
        ["spectrum", "--children", "4,4,3,2,2,2"],
        ["spectrum", "--children", ""],
        ["spectrum", "--spec", "GLUED"],
        ["nodal", "--children", "3,2,2"],
        ["nodal", "--spec", "GLUED"],
        ["verify", "--children", "3,2"],
        ["verify", "--spec", "GLUED"],
    ],
    ids=["spectrum", "spectrum_six_levels", "spectrum_one_vertex", "spectrum_glued", "nodal", "nodal_glued", "verify", "verify_glued"],
)
def test_json_documents_are_the_indent_encoders(capsys, tmp_path, argv):
    glued = tmp_path / "g.json"
    glued.write_text(json.dumps({"left": [2, 2], "right": [3]}))
    code, out = run(capsys, *[str(glued) if a == "GLUED" else a for a in argv])
    assert code == 0
    assert out == round_trip(out)


HUGE = ",".join(["1" + "0" * 300] * 16)  # |V| and the deepest multiplicity have 4801 digits
# Python's int-to-str digit limit: 4300 by default, settable by
# PYTHONINTMAXSTRDIGITS or -X int_max_str_digits, 0 (none) before 3.10.7
STR_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def exact_int(text):
    return int(Decimal(text))  # int() refuses more digits than the limit


class TestHugeCounts:
    """A count past Python's int-to-str digit limit is written in full,
    or named in a one-line cap error, never a traceback."""

    n = SymmetricTreeSpec([10**300] * 16).vertex_count()

    def test_spectrum_json(self, capsys):
        code = main(["spectrum", "--children", HUGE])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rows = json.loads(captured.out, parse_int=exact_int)
        assert sum(r["multiplicity"] for r in rows) == self.n
        assert max(r["multiplicity"] for r in rows) > 10**4300

    def test_spectrum_csv(self, capsys):
        code, out = run(capsys, "spectrum", "--children", HUGE, "--format", "csv")
        assert code == 0
        assert sum(exact_int(r["multiplicity"]) for r in parse_csv(out)) == self.n

    def test_bench(self, capsys):
        code, out = run(capsys, "bench", "--children", HUGE)
        assert code == 0
        (row,) = parse_csv(out)
        assert exact_int(row["vertices"]) == exact_int(row["total_multiplicity"]) == self.n
        assert row["dense_ms"] == "skipped(cap)"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spectrum", "--export-matrix", "MTX"], "tree has {} vertices"),
            (["eigvecs"], "basis of size {} exceeds"),
            (["nodal"], "|V|={} exceeds"),
            (["verify"], "|V|={} exceeds"),
        ],
        ids=["export_matrix", "eigvecs", "nodal", "verify"],
    )
    def test_capped_commands(self, capsys, tmp_path, argv, message):
        # |V| by its digit count past the limit, else by its digits
        message = message.format("<4801 digits>" if 0 < STR_LIMIT < 4801 else Decimal(self.n))
        mtx = tmp_path / "m.mtx"
        code = main([str(mtx) if a == "MTX" else a for a in argv] + ["--children", HUGE])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not mtx.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line
