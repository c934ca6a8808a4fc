"""Command-line front end: spectrum, eigvecs, nodal, verify and bench.

Specs come either inline (``--children 3,2``) or from a JSON file holding
``{"children": [...]}`` for a symmetric tree or ``{"left": [...],
"right": [...]}`` for a glued one.  Exit codes: 0 success, 1 verification
failure, 2 input error, 3 resource/cap error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .decompose import (
    DEFAULT_BASIS_CAP,
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
    command: str
    spec: SymmetricTreeSpec | GluedTreeSpec
    fmt: str = "json"
    tol: float = 1e-8
    oracle_cap: int = DEFAULT_ORACLE_CAP
    basis_cap: int = DEFAULT_BASIS_CAP
    out: str | None = None
    export_matrix: str | None = None
    levels: int | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidSpecError("tolerance must be positive")
        if self.oracle_cap < 1:
            raise InvalidSpecError("oracle cap must be >= 1")


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


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        with open(config.export_matrix, "w") as fh:
            assemble(realize(config.spec)).to_matrix_market(fh)
    _emit(config, _document(config, rows))
    return EXIT_OK


def cmd_eigvecs(config: RunConfig) -> int:
    if isinstance(config.spec, GluedTreeSpec):
        raise InvalidSpecError("eigvecs supports symmetric trees only")
    basis = full_eigenbasis(config.spec, basis_cap=config.basis_cap)
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
    if config.fmt == "csv":
        flat = [
            {k: (json.dumps(v) if k == "vector" else v) for k, v in row.items()}
            for row in rows
        ]
        _emit(config, _rows_to_csv(flat))
    else:
        _emit(config, json.dumps(rows, indent=2) + "\n")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratree",
        description="Laplacian spectra of symmetric trees via tridiagonal decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("spectrum", "eigenvalues with multiplicities"),
        ("eigvecs", "full eigenbasis with residual certificates"),
        ("nodal", "sign-graph report against the Courant bound"),
        ("verify", "run all oracle cross-checks"),
        ("bench", "decomposition timing table"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--children", help="comma-separated children-per-level list")
        p.add_argument("--spec", help="path to a JSON spec file")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
        p.add_argument("--basis-cap", type=int, default=DEFAULT_BASIS_CAP)
        p.add_argument("--out", help="output path (default stdout)")
        if name == "spectrum":
            p.add_argument(
                "--export-matrix",
                help="also write the Laplacian in Matrix Market format here",
            )
        if name == "bench":
            p.add_argument(
                "--levels",
                type=int,
                help="repeat the children pattern up to this many levels",
            )
    return parser


_PARSER = build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.children is not None and args.spec is not None:
        raise InvalidSpecError("give --children or --spec, not both")
    if args.children is not None:
        spec: SymmetricTreeSpec | GluedTreeSpec = _parse_children(args.children)
    elif args.spec is not None:
        spec = _load_spec_file(args.spec)
    else:
        raise InvalidSpecError("a spec is required (--children or --spec)")
    return RunConfig(
        command=args.command,
        spec=spec,
        fmt=args.format,
        tol=args.tol,
        oracle_cap=args.oracle_cap,
        basis_cap=args.basis_cap,
        out=args.out,
        export_matrix=getattr(args, "export_matrix", None),
        levels=getattr(args, "levels", None),
    )


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "eigvecs": cmd_eigvecs,
    "nodal": cmd_nodal,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("STRATREE_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR))
    args = _PARSER.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
