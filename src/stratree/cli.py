"""Command-line front end: spectrum, eigvecs, nodal, verify and bench.

Specs come either inline (``--children 3,2``) or from a JSON file holding
``{"children": [...]}`` for a symmetric tree or ``{"left": [...],
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

import numpy as np

from .decompose import (
    DEFAULT_BASIS_CAP,
    EigenBasis,
    decompose_spectrum,
    full_eigenbasis,
)
from .eigen import DEFAULT_ORACLE_CAP
from .glued import glued_spectrum
from .laplacian import assemble
from .nodal import courant_check
from .tree import (
    CapacityError,
    GluedTreeSpec,
    InvalidSpecError,
    SymmetricTreeSpec,
    realize,
)
from .verify import oracle, run_all_checks

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

    if "children" in doc:
        return side("children")
    if "left" in doc and "right" in doc:
        return GluedTreeSpec(side("left"), side("right"))
    raise InvalidSpecError('spec file needs "children" or "left"/"right"')


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


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {k: _fmt_float(v) if isinstance(v, float) else v for k, v in row.items()}
        )
    return buf.getvalue()


def _document(config: RunConfig, rows: list[dict]) -> str:
    if config.fmt == "csv":
        return _rows_to_csv(rows)
    return json.dumps(rows, indent=2) + "\n"


def cmd_spectrum(config: RunConfig) -> int:
    if isinstance(config.spec, GluedTreeSpec):
        rows = [
            {
                "lambda": s.value,
                "multiplicity": s.multiplicity,
                "origin_level": s.origin_level,
                "position": s.position,
                "origin_side": s.origin_side,
            }
            for s in glued_spectrum(config.spec)
        ]
    else:
        rows = [
            {
                "lambda": s.value,
                "multiplicity": s.multiplicity,
                "origin_level": s.origin_level,
                "position": s.position,
            }
            for s in decompose_spectrum(config.spec)
        ]
    if config.export_matrix:
        lap = assemble(realize(config.spec))
        with _create(config.export_matrix) as fh:
            lap.to_matrix_market(fh)
    _emit(config, _document(config, rows))
    return EXIT_OK


def _vector_texts(vectors: np.ndarray, sep: str) -> Iterator[str]:
    """Each row of ``vectors`` as JSON numbers joined by ``sep``.

    Each distinct bit pattern is formatted once, by ``json.dumps``, so the
    text matches the JSON encoder's (0.0 and -0.0 stay apart; NaN and
    Infinity are spelled its way).  Eigenbasis rows hold few distinct
    values: lifts are constant per level, sibling differences are ±g or 0.
    """
    bits = np.ascontiguousarray(vectors, dtype=np.float64).view(np.uint64)
    flat = np.sort(bits, axis=None)
    distinct = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
    texts = np.array([json.dumps(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    for row in bits:
        yield sep.join(texts[np.searchsorted(distinct, row)].tolist())


_EIGVECS_JSON_ROW = (
    '  {{\n    "lambda": {},\n    "origin_level": {},\n    "construction": {},'
    '\n    "residual": {},\n    "vector": [\n      {}\n    ]\n  }}'
)


def _write_eigenbasis(fh: TextIO, basis: EigenBasis, fmt: str) -> None:
    """Write ``basis`` one row at a time, in the layout of
    ``json.dumps(rows, indent=2)`` or of ``_rows_to_csv`` with the vector
    column as compact JSON."""
    fields = zip(
        basis.values.tolist(),
        basis.origin_levels.tolist(),
        basis.construction,
        basis.residuals.tolist(),
    )
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "origin_level", "construction", "residual", "vector"])
        for (lam, level, kind, res), vec in zip(fields, _vector_texts(basis.vectors, ", ")):
            writer.writerow([_fmt_float(lam), level, kind, _fmt_float(res), f"[{vec}]"])
        return
    sep = "[\n"
    for (lam, level, kind, res), vec in zip(fields, _vector_texts(basis.vectors, ",\n      ")):
        fh.write(sep)
        fh.write(
            _EIGVECS_JSON_ROW.format(
                json.dumps(lam), level, json.dumps(kind), json.dumps(res), vec
            )
        )
        sep = ",\n"
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
    records = courant_check(tree, vals, vecs, cluster_tol=config.tol)
    rows = [
        {
            "lambda": r.value,
            "position": r.position,
            "multiplicity": r.multiplicity,
            "sign_graphs": r.sign_graphs,
            "bound": r.bound,
            "pass": r.passed,
        }
        for r in records
    ]
    _emit(config, _document(config, rows))
    return EXIT_OK if all(r.passed for r in records) else EXIT_VERIFY_FAILED


def cmd_verify(config: RunConfig) -> int:
    results = run_all_checks(
        config.spec,
        tol=config.tol,
        oracle_cap=config.oracle_cap,
        basis_cap=config.basis_cap,
    )
    rows = [
        {"check": r.name, "pass": r.passed, "max_deviation": r.max_deviation}
        for r in results
    ]
    _emit(config, _document(config, rows))
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
    lines = decompose_spectrum(spec)
    decompose_ms = (time.perf_counter() - t0) * 1000.0
    total_mult = sum(s.multiplicity for s in lines)
    t0 = time.perf_counter()
    try:
        oracle(spec, config.oracle_cap)
        dense_ms: float | str = (time.perf_counter() - t0) * 1000.0
    except CapacityError:
        dense_ms = "skipped(cap)"
    rows = [
        {
            "children": ",".join(str(c) for c in spec.children),
            "k": spec.levels,
            "vertices": spec.vertex_count(),
            "total_multiplicity": total_mult,
            "decompose_ms": decompose_ms,
            "dense_ms": dense_ms,
        }
    ]
    _emit(config, _rows_to_csv(rows))
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
    level = os.environ.get("STRATREE_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR))
    try:
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
