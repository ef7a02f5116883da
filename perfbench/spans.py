"""In-memory spans and counters around the package's layer entry points.

The wrappers are installed from outside the package around each traced
op and removed afterwards, so an untraced op runs the package unchanged.
Span names are the layer metric names (``moduli.evaluate``,
``linalg.rank``, ...), so spans placed inside the package later can
replace these wrappers without renaming a metric.

A span's self time is its duration minus the time its child spans cover.
``ColumnSpace.add`` and ``contains`` open no span when called from
``solvable_sparse``: there they are the oracle's dense check and count
towards ``linalg.sparse_solve``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("moduli.master_build.count", "count", "lower"),
    ("moduli.master_build.s", "s", "lower"),
    ("moduli.master_build.cells", "count", "lower"),
    ("moduli.evaluate.count", "count", "lower"),
    ("moduli.evaluate.self_s", "s", "lower"),
    ("moduli.stalk.self_s", "s", "lower"),
    ("moduli.oracle.self_s", "s", "lower"),
    ("moduli.verify.self_s", "s", "lower"),
    ("moduli.certify.self_s", "s", "lower"),
    ("moduli.oracle.unknowns", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.columns_reduced", "count", "lower"),
    ("linalg.pivot_yield", "ratio", "higher"),
    ("linalg.adds_after_full_rank", "count", "lower"),
    ("linalg.contains.count", "count", "lower"),
    ("linalg.contains.self_s", "s", "lower"),
    ("linalg.presolve.self_s", "s", "lower"),
    ("linalg.presolve.rows_in", "count", "lower"),
    ("linalg.presolve.rows_out", "count", "lower"),
    ("linalg.presolve.unknowns_out", "count", "lower"),
    ("linalg.sparse_solve.self_s", "s", "lower"),
    ("linalg.symbolic_det.self_s", "s", "lower"),
    ("linalg.symbolic_det.size", "count", "lower"),
    ("poisson.star.count", "count", "lower"),
    ("poisson.star.self_s", "s", "lower"),
    ("poisson.bracket.count", "count", "lower"),
    ("poisson.bracket.self_s", "s", "lower"),
    ("bundles.star_matrix_mul.count", "count", "lower"),
    ("bundles.star_matrix_mul.self_s", "s", "lower"),
    ("ring.param_evaluate.count", "count", "lower"),
    ("ring.laurent_mul.count", "count", "lower"),
    ("cli.report.self_s", "s", "lower"),
    ("cli.report.bytes", "bytes", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

SPARSE_SOLVE = "linalg.sparse_solve"


class Tracer:
    """Spans (id, name, start, end, parent, op) and counters of one pass.

    ``counts`` is keyed by metric name, or by span name for the calls of
    a span, which the ``<span>.count`` metrics read.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = array("q")  # six int64 fields per span, -1 for none
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.counts = Counter()
        self.op_id = -1
        self._stack = []  # [name, span id, child ns] of the open spans
        self._undo = []

    def call(self, name, fn, args, kwargs):
        span_id = len(self.spans) // 6
        self.spans.extend((span_id, 0, 0, 0, -1, -1))
        parent = self._stack[-1] if self._stack else None
        frame = [name, span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - start
            self.self_ns[name] += dur - frame[2]
            self.total_ns[name] += dur
            self.counts[name] += 1
            if parent is not None:
                parent[2] += dur
            name_id = self._name_ids.setdefault(name, len(self.names))
            if name_id == len(self.names):
                self.names.append(name)
            base = 6 * span_id
            self.spans[base + 1:base + 6] = array("q", (
                name_id, start, end,
                -1 if parent is None else parent[1], self.op_id))

    def _in_sparse_solve(self):
        return bool(self._stack) and self._stack[-1][0] == SPARSE_SOLVE

    # -- installing and removing the wrappers ------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_function(self, modules, fn, new):
        """Rebind fn wherever a module binds it, as callers look it up."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, new)

    def _spanned(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, nc, bench_module):
        """Wrap the layer entry points of package nc and of bench_module."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name.split(".")[0] == nc.__name__] + [bench_module]
        counts = self.counts

        def find(attr):
            """The object named attr, from the module that defines it."""
            for mod in modules:
                obj = vars(mod).get(attr)
                if getattr(obj, "__module__", None) == mod.__name__:
                    return obj
            raise RuntimeError(f"no {attr} in the package")

        def add_function(attr, name, after=None):
            fn = find(attr)
            self._replace_function(modules, fn,
                                   self._spanned(name, fn, after))

        def add_method(cls, attr, name):
            self._set(cls, attr, self._spanned(name, getattr(cls, attr)))

        # linalg
        space_cls = nc.linalg.ColumnSpace
        plain_add, plain_contains = space_cls.add, space_cls.contains

        def add(space, vec):
            counts["linalg.columns_reduced"] += 1
            if space.rank == space.nrows:
                counts["linalg.adds_after_full_rank"] += 1
            if self._in_sparse_solve():
                grew = plain_add(space, vec)
            else:
                grew = self.call("linalg.rank", plain_add, (space, vec), {})
            counts["linalg.pivots"] += bool(grew)
            return grew

        def contains(space, vec):
            if self._in_sparse_solve():
                counts["linalg.contains"] += 1
                return plain_contains(space, vec)
            return self.call("linalg.contains", plain_contains,
                             (space, vec), {})

        self._set(space_cls, "add", add)
        self._set(space_cls, "contains", contains)
        add_function("rank", "linalg.rank")
        add_function("solvable_sparse", SPARSE_SOLVE)

        def rows_of(columns, rhs):
            rows = set(rhs)
            for col in columns.values():
                rows.update(col)
            return rows

        presolve = find("presolve_singletons")

        def presolve_counted(columns, rhs):
            counts["linalg.presolve.rows_in"] += len(rows_of(columns, rhs))
            cols, out = self.call("linalg.presolve", presolve,
                                  (columns, rhs), {})
            counts["linalg.presolve.rows_out"] += len(rows_of(cols, out))
            counts["linalg.presolve.unknowns_out"] += len(cols)
            return cols, out

        self._replace_function(modules, presolve, presolve_counted)

        def det_size(args, _):
            counts["linalg.symbolic_det.size"] += len(args[0])

        add_function("symbolic_det", "linalg.symbolic_det", det_size)

        # moduli
        def master_cells(_, master):
            counts["moduli.master_build.cells"] += (
                len(master.rows) * len(master.columns))

        def unknowns(_, report):
            counts["moduli.oracle.unknowns"] += report.unknowns

        add_function("_build_master", "moduli.master_build", master_cells)
        add_method(find("MasterSystem"), "evaluate", "moduli.evaluate")
        add_function("stalk_dimension", "moduli.stalk")
        add_function("full_gauge_oracle", "moduli.oracle", unknowns)
        add_function("verify_claims", "moduli.verify")
        add_function("certify_generic_rank", "moduli.certify")

        # poisson and bundles
        add_method(nc.Bivector, "star", "poisson.star")
        add_method(nc.Bivector, "bracket", "poisson.bracket")
        add_function("star_matrix_mul", "bundles.star_matrix_mul")

        # ring: counts only, these run too often for a span each
        self._set(nc.ParamPoly, "evaluate",
                  self._counted("ring.param_evaluate", nc.ParamPoly.evaluate))
        mul = self._counted("ring.laurent_mul", nc.LaurentPoly.__mul__)
        self._set(nc.LaurentPoly, "__mul__", mul)
        self._set(nc.LaurentPoly, "__rmul__", mul)

        # cli: the report serializer of the bench
        def report_bytes(_, data):
            counts["cli.report.bytes"] += len(data)

        fn = bench_module.serialize
        self._replace_function([bench_module], fn,
                               self._spanned("cli.report", fn, report_bytes))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    @contextlib.contextmanager
    def installed(self, nc, bench_module):
        self.install(nc, bench_module)
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, overhead_share):
        """Every per-layer metric; a layer never reached reads 0."""
        out = {}
        for name, _, _ in PER_LAYER:
            stem, _, field = name.rpartition(".")
            if field == "self_s":
                out[name] = self.self_ns[stem] / 1e9
            elif field == "s":
                out[name] = self.total_ns[stem] / 1e9
            elif field == "count":
                out[name] = self.counts[stem]
            else:
                out[name] = self.counts[name]
        adds = self.counts["linalg.columns_reduced"]
        out["linalg.pivot_yield"] = (self.counts["linalg.pivots"] / adds
                                     if adds else 0.0)
        out["trace.overhead_share"] = overhead_share
        return out

    def write(self, path):
        """Write the spans as JSON lines: a header, then one array each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns",
                                            "end_ns", "parent", "op"],
                                 "names": self.names}) + "\n")
            spans = self.spans
            for base in range(0, len(spans), 6):
                fh.write(json.dumps(spans[base:base + 6].tolist()) + "\n")


def is_count(name):
    """Whether a per-layer metric must repeat exactly across runs."""
    return not (name.endswith("_s") or name.endswith(".s")
                or name == "trace.overhead_share")
