"""Layer spans recorded by interposition on stratree's module namespaces.

A layer is a module of the ``stratree`` package.  ``install`` replaces,
for the duration of a traced phase:

- every function a module imported from another stratree module, in the
  importing module's namespace (``stratree.verify.dense_eigen``), so a
  call across modules opens a span of the callee's layer;
- every public function in its own module's namespace, so calls through
  a module global (``eigen.sturm_count`` from the bisection loop) and
  function-local imports are seen too;
- the public methods in ``METHODS``.

Wrappers pass arguments and results through untouched.  Names are found
at install time, so a name a later version deletes is simply not wrapped,
and a new module becomes a layer of its own.  Spans nest: each records its
parent's layer, and a layer's self time is its span time minus the time
of its child spans.  Spans are aggregated in memory as they close, per
(parent, callee) pair, and reported when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "tree", "laplacian", "eigen", "decompose", "glued", "nodal", "verify")
HARNESS = "harness"

# (module, class, method): public methods that do a layer's work.
METHODS = (
    ("laplacian", "SparseSymMatrix", "to_dense"),
    ("decompose", "EigenBasis", "full_rank"),
    ("tree", "RootedTree", "edges"),
    ("tree", "RootedTree", "from_index"),
)


def _count_sturm(t, args, kwargs, result, span_s):
    rows = len(args[0].diag)
    probes = int(np.size(args[1] if len(args) > 1 else kwargs["x"]))
    t.add("eigen.sturm_calls", 1)
    t.add("eigen.sturm_probes", probes)
    t.add("eigen.sturm_row_probes", rows * probes)


def _count_tridiag(t, args, kwargs, result, span_s):
    t.add("eigen.tridiag_rows", len(args[0].diag))


def _count_dense(t, args, kwargs, result, span_s):
    n = len(result[0])
    t.add("eigen.dense_calls", 1)
    t.add("eigen.dense_n3", n**3)
    if t.active["verify"]:
        t.add("verify.oracle_builds", 1)


def _count_assemble(t, args, kwargs, result, span_s):
    t.add("laplacian.nnz", len(result.data))


def _count_to_dense(t, args, kwargs, result, span_s):
    t.add("laplacian.dense_bytes", 8 * args[0].n ** 2)


def _count_level_solve(t, args, kwargs, result, span_s):
    t.add("decompose.level_solves", 1)


def _count_basis(t, args, kwargs, result, span_s):
    t.add("decompose.basis_bytes", result.vectors.nbytes)


def _count_full_rank(t, args, kwargs, result, span_s):
    t.add("decompose.full_rank_s", span_s)


def _count_sign_graphs(t, args, kwargs, result, span_s):
    t.add("nodal.sign_counts", 1)
    t.add("nodal.edges_visited", args[0].n - 1)


# Work counts taken at a span's close, keyed by (layer, name).  A counter
# whose name no longer exists never fires, and one that no longer fits
# the call is tallied in ``counter_errors`` instead of failing the run.
COUNTERS = {
    ("eigen", "sturm_count"): _count_sturm,
    ("eigen", "tridiag_eigen"): _count_tridiag,
    ("eigen", "dense_eigen"): _count_dense,
    ("laplacian", "assemble"): _count_assemble,
    ("laplacian", "assemble_dirichlet"): _count_assemble,
    ("laplacian", "SparseSymMatrix.to_dense"): _count_to_dense,
    ("decompose", "stratified_levels"): _count_level_solve,
    ("decompose", "full_eigenbasis"): _count_basis,
    ("decompose", "EigenBasis.full_rank"): _count_full_rank,
    ("nodal", "count_sign_graphs"): _count_sign_graphs,
}


class Tracer:
    """Span stack plus per-layer self time and work counters."""

    def __init__(self):
        self.stack: list[list] = []  # [layer.name, start, child_s]
        self.active: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # (parent layer.name, layer.name) -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}
        self.counter_errors = 0
        self._restore: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def call(self, layer: str, name: str, fn, args, kwargs):
        label = f"{layer}.{name}"
        frame = [label, perf_counter(), 0.0]
        self.stack.append(frame)
        self.active[layer] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.active[layer] -= 1
            total = end - frame[1]
            own = total - frame[2]
            self.self_s[layer] += own
            if self.stack:
                parent = self.stack[-1]
                parent[2] += total
                key = (parent[0], label)
            else:
                key = ("", label)
            edge = self.edges.get(key)
            if edge is None:
                self.edges[key] = [1, total, own]
            else:
                edge[0] += 1
                edge[1] += total
                edge[2] += own
        counter = COUNTERS.get((layer, name))
        if counter is not None:
            try:
                counter(self, args, kwargs, result, total)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                self.counter_errors += 1
        return result

    def _wrap(self, layer: str, name: str, fn):
        call = self.call

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return call(layer, name, fn, args, kwargs)

        return spanned

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> list[str]:
        """Wrap stratree's layer entry points; returns the layer names."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        pkg = importlib.import_module("stratree")
        modules = {
            info.name: importlib.import_module(f"stratree.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if not info.name.startswith("_")
        }
        by_module = {mod.__name__: name for name, mod in modules.items()}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                owner = by_module.get(obj.__module__)
                if owner is None or (owner == layer and attr.startswith("_")):
                    continue
                self._replace(mod, attr, self._wrap(owner, obj.__name__, obj))
        for layer, cls_name, method in METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            raw = cls.__dict__.get(method) if cls is not None else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, f"{cls_name}.{method}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(layer, f"{cls_name}.{method}", raw)
            else:
                continue
            self._replace(cls, method, wrapped)
        return sorted(modules)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
