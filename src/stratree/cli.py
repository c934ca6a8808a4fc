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
import stat
import sys
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NoReturn, TextIO

import numpy as np

from .decompose import DEFAULT_BASIS_CAP, EigenBasis, decompose_spectrum, full_eigenbasis
from .eigen import SOLVE_CAP, dense_eigenvalues
from .glued import glued_spectrum
from .laplacian import write_matrix_market
from .nodal import nodal_records
from .tree import (
    CapacityError,
    GluedTreeSpec,
    InvalidSpecError,
    SymmetricTreeSpec,
    digits,
    realize,
)
from .verify import DEFAULT_ORACLE_CAP, SPECTRUM_TOL, oracle, oracle_tree, run_all_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


@dataclass
class RunConfig:
    spec: SymmetricTreeSpec | GluedTreeSpec
    fmt: str = "json"
    tol: float = SPECTRUM_TOL
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
        paths = (self.out, self.export_matrix)
        if all(paths) and (
            os.path.realpath(self.out) == os.path.realpath(self.export_matrix)
            or all(map(os.path.exists, paths)) and os.path.samefile(*paths)
        ):
            raise InvalidSpecError(f"--out and --export-matrix name the same file {self.out}")
        if self.export_matrix and not self.out and _names_stdout_file(self.export_matrix):
            raise InvalidSpecError(f"--export-matrix {self.export_matrix} names the file stdout writes to")


def _names_stdout_file(path: str) -> bool:
    """Whether ``path`` is the regular file that stdout writes to.  The
    matrix would be written to it through a descriptor of its own, then
    overwritten by the spectrum through stdout's; a pipe or a terminal
    takes both documents in turn."""
    try:
        target, stdout = os.stat(path), os.fstat(1)
    except OSError:
        return False
    return stat.S_ISREG(stdout.st_mode) and os.path.samestat(target, stdout)


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _parse_children(text: str) -> SymmetricTreeSpec:
    text = text.strip()
    if not text:
        return SymmetricTreeSpec(())
    parts = [part.strip() for part in text.split(",")]
    try:
        for part in parts:
            if not (part.isascii() and part.isdigit()):
                raise ValueError(f"{part!r} is not a count in ASCII digits")
        children = [int(part) for part in parts]
    except ValueError as exc:
        raise InvalidSpecError(f"bad children list {text!r}: {exc}") from exc
    return SymmetricTreeSpec(children)


def _unique_keys(pairs: list) -> dict:
    """A JSON object, or a ValueError naming a key it repeats."""
    counts = Counter(key for key, _ in pairs)
    if len(counts) < len(pairs):
        raise ValueError(f"repeated key {json.dumps(max(counts, key=counts.get))}")
    return dict(pairs)


def _load_spec_file(path: str) -> SymmetricTreeSpec | GluedTreeSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
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


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """``path`` opened for writing, or stdout when there is none, flushed
    (and a file closed) at the end.  A path that cannot be opened is an
    input error, and a write that fails (a full disk) a resource error."""
    try:
        fh = open(path, "w") if path else sys.stdout
    except OSError as exc:
        raise InvalidSpecError(f"cannot write {path}: {exc}") from exc
    try:
        with fh if path else contextlib.nullcontext(fh):
            yield fh
            fh.flush()
    except OSError as exc:
        if not path:
            # what stdout still buffers would fail again at exit, with a
            # second message and exit 120, so its descriptor takes devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise CapacityError(f"cannot write {path or 'stdout'}: {exc}") from None


def _emit(config: RunConfig, text: str) -> None:
    with _output(config.out) as fh:
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
        tree = realize(config.spec)
        with _output(config.export_matrix) as fh:
            write_matrix_market(tree, fh)
    _emit(config, _WRITERS[config.fmt](columns))
    return EXIT_OK


_EIGVECS_JSON_ROW = (
    '  {{\n    "lambda": {},\n    "origin_level": {},\n    "construction": {},'
    '\n    "residual": {},\n    "vector": [\n      '
)

# Characters of ``eigvecs`` text handed to the output per write.  While a
# row is shorter than this (|V| below about 5000), a piece and its encoded
# bytes stay under glibc's default 128 KiB mmap threshold and reuse heap
# pages; 256 KiB pieces were mapped and faulted in afresh for each write,
# which made a fresh process's writer slower than one write per row at
# |V| >= 1291.
EIGVECS_CHUNK = 64 * 1024


def _write_eigenbasis(fh: TextIO, basis: EigenBasis, fmt: str) -> None:
    """Write ``basis`` in the layout of ``_json_columns``, or of
    ``_csv_columns`` with the vector column as compact JSON, in pieces of
    at least ``EIGVECS_CHUNK`` characters (the last may be shorter).

    Each run is one line of ``vectors.lines``, of family f and position i,
    so the fields before the vector (the line's eigenvalue and origin
    level, and the basis's residual of (f, i)) and the run's block values
    (a level value g[i, j] or its negation) are spelled once per run: each
    head column by one ``_spell`` call (CSV floats by ``_fmt_float``), and
    the block values of every (f, i) by one more.  The text matches the
    JSON encoder's (0.0 and -0.0 stay apart; NaN and Infinity are spelled
    its way).  Each block is spelled out (cell and separator, width times)
    once per run, and a row is its blocks between the zero runs of its
    family's ``layout``, its last number written without a separator.  The
    pieces of the rows are collected and joined into one string per write.
    """
    vectors, lines = basis.vectors, basis.vectors.lines
    families = range(len(vectors.levels))
    sep = ", " if fmt == "csv" else ",\n      "
    zero = "0.0" + sep
    layouts = [vectors.layout(f) for f in families]
    gaps = [lay.gaps.tolist() for lay in layouts]
    widths = [lay.widths.tolist() for lay in layouts]
    # the block values of every (f, i), family-major as the stack rows; line
    # r holds stack row line_row[r], whose cells start at cell_at[r]
    values = [vectors.block_values(f) for f in families]
    cells = _spell(np.concatenate([v.ravel() for v in values]).tolist())
    residuals = basis.residuals[vectors.line_row].tolist()
    row_cells = np.repeat([v.shape[1] for v in values], [len(v) for v in values])
    cell_at = np.concatenate(([0], np.cumsum(row_cells)))[vectors.line_row]
    levels = lines.origin_level.tolist()
    kinds = ["stratified" if level == 0 else "antisym" for level in levels]
    if fmt == "csv":
        # the vector cell holds ", " and is quoted, as csv quotes it, unless
        # the tree has one vertex
        quote = '"' if basis.n > 1 else ""
        lams, res = ([_fmt_float(v) for v in column] for column in (lines.values.tolist(), residuals))
        heads = [f"{a},{b},{c},{d},{quote}[" for a, b, c, d in zip(lams, levels, kinds, res)]
        start, row_sep, close = "", "", "]" + quote + "\n"
        chunk = ["lambda,origin_level,construction,residual,vector\n"]
    else:
        columns = (lines.values.tolist(), levels, kinds, residuals)
        heads = [_EIGVECS_JSON_ROW.format(*row) for row in zip(*map(_spell, columns))]
        start, row_sep, close = "[\n", ",\n", "\n    ]\n  }"
        chunk = []
    size = 0
    for head, f, at in zip(heads, lines.family.tolist(), cell_at.tolist()):
        run_widths = widths[f]
        run_cells = cells[at : at + len(run_widths)]
        blocks = [(cell + sep) * width for cell, width in zip(run_cells, run_widths)]
        last_block = (run_cells[-1] + sep) * (run_widths[-1] - 1) + run_cells[-1]
        row_size = None
        for row_gaps in gaps[f]:
            pieces = [start, head]
            for gap, block in zip(row_gaps, blocks):
                pieces.append(zero * gap)
                pieces.append(block)
            tail = row_gaps[-1]
            if tail:
                pieces += (zero * (tail - 1), "0.0")
            else:
                pieces[-1] = last_block
            pieces.append(close)
            chunk += pieces
            if row_size is None:
                # every row of a run has the same length ("[\n" and ",\n" too)
                row_size = sum(map(len, pieces))
            size += row_size
            if size >= EIGVECS_CHUNK:
                fh.write("".join(chunk))
                chunk, size = [], 0
            start = row_sep
    if fmt != "csv":
        chunk.append("\n]\n")
    fh.write("".join(chunk))


def cmd_eigvecs(config: RunConfig) -> int:
    if isinstance(config.spec, GluedTreeSpec):
        raise InvalidSpecError("eigvecs supports symmetric trees only")
    basis = full_eigenbasis(config.spec, basis_cap=config.basis_cap)
    with _output(config.out) as fh:
        _write_eigenbasis(fh, basis, config.fmt)
    return EXIT_OK


def cmd_nodal(config: RunConfig) -> int:
    tree, vals, vecs = oracle(config.spec, config.oracle_cap)
    records = nodal_records(tree, vals, vecs, cluster_tol=config.tol)
    fields = {"lambda": "value", "position": "position", "multiplicity": "multiplicity",
              "sign_graphs": "sign_graphs", "bound": "bound", "pass": "passed"}
    columns = {name: getattr(records, attr).tolist() for name, attr in fields.items()}
    _emit(config, _WRITERS[config.fmt](columns))
    return EXIT_OK if all(columns["pass"]) else EXIT_VERIFY_FAILED


def cmd_verify(config: RunConfig) -> int:
    results = run_all_checks(config.spec, tol=config.tol, oracle_cap=config.oracle_cap)
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
        if config.levels**2 > SOLVE_CAP:  # before the pattern is built
            raise CapacityError(
                f"--levels {config.levels} is over {math.isqrt(SOLVE_CAP)}, the most whose root"
                f" slice alone fits the cap of {SOLVE_CAP:.0g} squared rows of tridiagonal solves"
            )
        reps = [base[i % len(base)] for i in range(config.levels - 1)]
        spec = SymmetricTreeSpec(reps)
    else:
        spec = config.spec
    t0 = time.perf_counter()
    spectrum = decompose_spectrum(spec)
    decompose_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    try:
        dense_eigenvalues(oracle_tree(spec, config.oracle_cap))
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
    "verify": (cmd_verify, "run all oracle cross-checks", "format out tol oracle-cap"),
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
