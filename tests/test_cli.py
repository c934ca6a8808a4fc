import csv
import io
import json

import pytest

from stratree.cli import main


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
