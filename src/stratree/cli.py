"""Command-line front end: spectrum, eigvecs, nodal, verify and bench.

Specs come either inline (``--children 3,2``) or from a JSON file holding
exactly ``{"children": [...]}`` for a symmetric tree or ``{"left": [...],
"right": [...]}`` for a glued one.  Exit codes: 0 success, 1 verification
failure, 2 input error, 3 resource/cap error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import math
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NoReturn, TextIO

from .decompose import DEFAULT_BASIS_CAP, EigenBasis, decompose_spectrum, full_eigenbasis
from .glued import glued_spectrum
from .laplacian import assemble
from .nodal import nodal_records
from .tree import (
    CapacityError,
    GluedTreeSpec,
    InvalidSpecError,
    SymmetricTreeSpec,
    digits,
    realize,
)
from .verify import DEFAULT_ORACLE_CAP, oracle, run_all_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3

log = logging.getLogger("stratree")


@dataclass
class RunConfig:
    spec: SymmetricTreeSpec | GluedTreeSpec
    fmt: str = "json"
    tol: float = 1e-8
    oracle_cap: int = DEFAULT_ORACLE_CAP
    basis_cap: int = DEFAULT_BASIS_CAP
    out: str | None = None
    export_matrix: str | None = None
    levels: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidSpecError(f"tolerance must be positive and finite, not {self.tol}")
        if self.oracle_cap < 1:
            raise InvalidSpecError("oracle cap must be >= 1")
        if self.basis_cap < 1:
            raise InvalidSpecError("basis cap must be >= 1")
        if self.levels is not None and self.levels < 1:
            raise InvalidSpecError(f"--levels must be >= 1, not {self.levels}")


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _parse_children(text: str) -> SymmetricTreeSpec:
    text = text.strip()
    if not text:
        return SymmetricTreeSpec(())
    try:
        children = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidSpecError(f"bad children list {text!r}: {exc}") from exc
    return SymmetricTreeSpec(children)


def _load_spec_file(path: str) -> SymmetricTreeSpec | GluedTreeSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidSpecError(f"cannot read spec file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidSpecError("spec file must hold a JSON object")

    def side(key: str) -> SymmetricTreeSpec:
        if not isinstance(doc[key], list):
            raise InvalidSpecError(f'"{key}" must be a JSON list of children counts')
        return SymmetricTreeSpec(doc[key])

    if doc.keys() == {"children"}:
        return side("children")
    if doc.keys() == {"left", "right"}:
        return GluedTreeSpec(side("left"), side("right"))
    raise InvalidSpecError(
        f'spec file needs exactly "children" or exactly "left" and "right", not {sorted(doc)}'
    )


def _create(path: str) -> TextIO:
    """``path`` opened for writing; one that cannot be opened is an input error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise InvalidSpecError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def _output(config: RunConfig) -> Iterator[TextIO]:
    """The ``--out`` file, or stdout when there is none."""
    if config.out:
        with _create(config.out) as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(config: RunConfig, text: str) -> None:
    with _output(config) as fh:
        fh.write(text)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _csv_columns(columns: dict[str, list]) -> str:
    """The CSV document of ``columns`` ({name: column}, all of one length),
    a header row then one row per entry: floats spelled by ``_fmt_float``,
    ints (not bools) by ``digits``, the rest as ``csv`` writes them."""
    spelled = [
        [_fmt_float(v) if isinstance(v, float) else digits(v) if _is_int(v) else v for v in column]
        for column in columns.values()
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*spelled))
    return buf.getvalue()


def _spell(values) -> list[str]:
    """The JSON text of each of ``values`` (numbers, bools, None or
    strings), as ``json.dumps`` writes it: 0.0 and -0.0 apart, NaN and
    Infinity its way, every digit of an int.

    One call of the C encoder spells them all, and its text splits on
    ", " into one cell per value.  When it does not (a string holds ", ",
    or an int is too long for the encoder's ``str``), the values are
    spelled one by one, such ints by ``digits``.
    """
    try:
        cells = json.dumps(values)[1:-1].split(", ")
        if len(cells) == len(values):
            return cells
    except ValueError:
        pass
    return [digits(v) if _is_int(v) else json.dumps(v) for v in values]


def _json_columns(columns: dict[str, list]) -> str:
    """The JSON document of ``columns`` ({name: column}, all of one
    nonempty length), one object per entry, byte for byte as
    ``json.dumps`` writes that list of objects with an indent of 2, plus a
    newline.

    Python's encoder runs its pure-Python code whenever an indent is set;
    here each column is spelled by one ``_spell`` call, and each row fills
    one template built from the names.
    """
    keys = [json.dumps(k).replace("%", "%%") for k in columns]
    template = "  {\n" + ",\n".join(f"    {k}: %s" for k in keys) + "\n  }"
    cells = zip(*[_spell(column) for column in columns.values()])
    return "[\n" + ",\n".join([template % row for row in cells]) + "\n]\n"


_WRITERS = {"json": _json_columns, "csv": _csv_columns}


def cmd_spectrum(config: RunConfig) -> int:
    glued = isinstance(config.spec, GluedTreeSpec)
    spectrum = glued_spectrum(config.spec) if glued else decompose_spectrum(config.spec)
    columns = {
        "lambda": spectrum.values.tolist(),
        "multiplicity": spectrum.multiplicity(),
        "origin_level": spectrum.origin_level.tolist(),
        "position": spectrum.position.tolist(),
    }
    if glued:
        columns["origin_side"] = spectrum.origin_side.tolist()
    if config.export_matrix:
        lap = assemble(realize(config.spec))
        with _create(config.export_matrix) as fh:
            lap.to_matrix_market(fh)
    _emit(config, _WRITERS[config.fmt](columns))
    return EXIT_OK


_EIGVECS_JSON_ROW = (
    '  {{\n    "lambda": {},\n    "origin_level": {},\n    "construction": {},'
    '\n    "residual": {},\n    "vector": [\n      '
)


def _write_eigenbasis(fh: TextIO, basis: EigenBasis, fmt: str) -> None:
    """Write ``basis`` one row at a time, in the layout of ``_json_columns``
    or of ``_csv_columns`` with the vector column as compact JSON.

    The rows of one run share their (family, position), so the fields
    before the vector (read from the family and the basis's residuals of
    that position) and the run's entries (a level value g[i, j], its
    negation or zero) are formatted once per run, by ``_spell``: the text
    matches the JSON encoder's (0.0 and -0.0 stay apart; NaN and Infinity
    are spelled its way).  A row is then a few runs of one number each,
    ``text + sep`` repeated, with the last number written without ``sep``.
    The runs of each (family, p, s) are found once and serve every
    position.
    """
    vectors = basis.vectors
    sep = ", " if fmt == "csv" else ",\n      "
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "origin_level", "construction", "residual", "vector"])
    layouts: dict[int, list[list[tuple[int, int]]]] = {}
    start = "[\n"
    for f, i in vectors.order.tolist():
        if f not in layouts:
            layouts[f] = [vectors.runs(f, p, s) for p, s in vectors.pairs(f)]
        cells = [text + sep for text in _spell(vectors.entries(f, i).tolist())]
        fam = vectors.families[f]
        lam, res = float(fam.values[i]), float(basis.residuals[f][i])
        kind = "stratified" if fam.level == 0 else "antisym"
        if fmt == "csv":
            head = [_fmt_float(lam), fam.level, kind, _fmt_float(res)]
        else:
            head = _EIGVECS_JSON_ROW.format(*_spell([lam, fam.level, kind, res]))
        for *body, (last, count) in layouts[f]:
            pieces = [cells[entry] * width for entry, width in body]
            pieces.append(cells[last] * (count - 1))
            pieces.append(cells[last][: -len(sep)])
            if fmt == "csv":
                writer.writerow([*head, "".join(["[", *pieces, "]"])])
            else:
                fh.write("".join([start, head, *pieces, "\n    ]\n  }"]))
                start = ",\n"
    if fmt != "csv":
        fh.write("\n]\n")


def cmd_eigvecs(config: RunConfig) -> int:
    if isinstance(config.spec, GluedTreeSpec):
        raise InvalidSpecError("eigvecs supports symmetric trees only")
    basis = full_eigenbasis(config.spec, basis_cap=config.basis_cap)
    with _output(config) as fh:
        _write_eigenbasis(fh, basis, config.fmt)
    return EXIT_OK


def cmd_nodal(config: RunConfig) -> int:
    tree, vals, vecs = oracle(config.spec, config.oracle_cap)
    records = nodal_records(tree, vals, vecs, cluster_tol=config.tol)
    fields = {"lambda": "value", "position": "position", "multiplicity": "multiplicity",
              "sign_graphs": "sign_graphs", "bound": "bound", "pass": "passed"}
    columns = {name: [getattr(r, attr) for r in records] for name, attr in fields.items()}
    _emit(config, _WRITERS[config.fmt](columns))
    return EXIT_OK if all(columns["pass"]) else EXIT_VERIFY_FAILED


def cmd_verify(config: RunConfig) -> int:
    results = run_all_checks(
        config.spec,
        tol=config.tol,
        oracle_cap=config.oracle_cap,
        basis_cap=config.basis_cap,
    )
    fields = {"check": "name", "pass": "passed", "max_deviation": "max_deviation"}
    columns = {name: [getattr(r, attr) for r in results] for name, attr in fields.items()}
    _emit(config, _WRITERS[config.fmt](columns))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def cmd_bench(config: RunConfig) -> int:
    if isinstance(config.spec, GluedTreeSpec):
        raise InvalidSpecError("bench supports symmetric trees only")
    base = config.spec.children
    if config.levels is not None:
        if not base:
            raise InvalidSpecError("--levels needs a nonempty children pattern")
        reps = [base[i % len(base)] for i in range(config.levels - 1)]
        spec = SymmetricTreeSpec(reps)
    else:
        spec = config.spec
    t0 = time.perf_counter()
    spectrum = decompose_spectrum(spec)
    decompose_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    try:
        oracle(spec, config.oracle_cap)
        dense_ms: float | str = (time.perf_counter() - t0) * 1000.0
    except CapacityError:
        dense_ms = "skipped(cap)"
    columns = {
        "children": [",".join(str(c) for c in spec.children)],
        "k": [spec.levels],
        "vertices": [spec.vertex_count()],
        "total_multiplicity": [sum(spectrum.multiplicity())],
        "decompose_ms": [decompose_ms],
        "dense_ms": [dense_ms],
    }
    _emit(config, _csv_columns(columns))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as an input error, in one line."""

    def error(self, message: str) -> NoReturn:
        raise InvalidSpecError(message)


_OPTIONS = {
    "format": dict(dest="fmt", choices=["json", "csv"]),
    "tol": dict(type=float),
    "oracle-cap": dict(type=int),
    "basis-cap": dict(type=int),
    "out": dict(help="output path (default stdout)"),
    "export-matrix": dict(help="also write the Laplacian in Matrix Market format here"),
    "levels": dict(type=int, help="repeat the children pattern up to this many levels"),
}

# name: (handler, help, the options it reads besides the spec)
_COMMANDS = {
    "spectrum": (cmd_spectrum, "eigenvalues with multiplicities", "format out export-matrix"),
    "eigvecs": (cmd_eigvecs, "full eigenbasis with residual certificates", "format out basis-cap"),
    "nodal": (cmd_nodal, "sign-graph report against the Courant bound", "format out tol oracle-cap"),
    "verify": (cmd_verify, "run all oracle cross-checks", "format out tol oracle-cap basis-cap"),
    "bench": (cmd_bench, "decomposition timing table", "out oracle-cap levels"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stratree",
        description="Laplacian spectra of symmetric trees via tridiagonal decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, options) in _COMMANDS.items():
        # options left out of the command line keep RunConfig's defaults
        p = sub.add_parser(name, help=helptext, argument_default=argparse.SUPPRESS)
        p.add_argument("--children", help="comma-separated children-per-level list")
        p.add_argument("--spec", help="path to a JSON spec file")
        for option in options.split():
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


_PARSER = build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = dict(vars(args))
    children = options.pop("children", None)
    path = options.pop("spec", None)
    del options["command"]
    if children is not None and path is not None:
        raise InvalidSpecError("give --children or --spec, not both")
    if children is not None:
        spec: SymmetricTreeSpec | GluedTreeSpec = _parse_children(children)
    elif path is not None:
        spec = _load_spec_file(path)
    else:
        raise InvalidSpecError("a spec is required (--children or --spec)")
    return RunConfig(spec=spec, **options)


def main(argv: list[str] | None = None) -> int:
    try:
        level = os.environ.get("STRATREE_LOG", "error").lower()
        if level not in ("debug", "info", "warning", "error", "critical"):
            raise InvalidSpecError(f"STRATREE_LOG must be debug, info, warning, error or critical, not {level!r}")
        logging.basicConfig(level=level.upper())
        args = _PARSER.parse_args(argv)
        handler = _COMMANDS[args.command][0]
        return handler(_config_from_args(args))
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
