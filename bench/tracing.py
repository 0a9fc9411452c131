"""In-memory spans and counters around modend's public functions.

The tracer wraps each function at the attribute where its callers look it
up, so ``src/modend`` is not edited: ``cli.validate_fusion`` is imported by
name into ``cli``; ``theorems`` and ``cli`` reach the ``endengine`` builders
and solvers through the module; ``blocks`` calls ``assoc`` and ``c_mor``
through its own globals; ``Matrix`` and ``FieldElement`` operators are class
attributes.  Wrapping is undone by :meth:`Tracer.uninstall`.

A span is ``[name, start, end, parent, op]``.  Layer spans also store the
counter vector at their start and end, so per-span work counts can be read
off the trace; ``scalarfield.rref`` spans (thousands per op) do not.  A hot
function that gets no span (field arithmetic, ``Matrix.__mul__``,
``Obj.__init__``, the cached ``blocks`` lookups) only bumps counters.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

COUNTERS = (
    "blocks.mor_products", "blocks.products_1x1", "blocks.obj_built",
    "blocks.cache_calls", "blocks.cache_misses",
    "scalarfield.field_mul.deg1", "scalarfield.field_mul.deg_gt1",
    "scalarfield.field_add.deg1", "scalarfield.field_add.deg_gt1",
    "scalarfield.rref_calls", "scalarfield.inverse_calls",
    "endengine.systems_built", "endengine.carrier_dim", "endengine.condition_rows",
    "endengine.solve_calls", "endengine.rank_sum",
    "theorems.certificates", "cli.input_bytes",
)
_IDX = {name: i for i, name in enumerate(COUNTERS)}

BUILDERS = {
    "build_nat_system": "nat",
    "nat_oracle_system": "oracle",
    "build_hom_coend_system": "coend",
    "build_character_probe_system": "character",
    "build_serre_probe_system": "serre",
    "build_upsilon_probe_system": "upsilon",
}
THEOREMS = ("nat_m_dim", "serre_functor", "internal_character", "upsilon_regular",
            "adjoint_shift_check", "hom_lemma_suite")

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "op": "cli.dispatch_s",
    "cli.run": "cli.dispatch_s",
    "cli.load": "cli.load_s",
    "fusioncat.validate": "fusioncat.validate_s",
    "fusioncat.duality": "fusioncat.duality_s",
    "modcat.validate": "modcat.validate_s",
    "modfunct.validate": "modfunct.validate_s",
    "endengine.solve": "endengine.solve_s",
    "scalarfield.rref": "scalarfield.rref_s",
    "theorems.certify": "theorems.certify_s",
}
SELF_TIME_METRIC.update({f"endengine.assemble.{kind}": f"endengine.assemble_s.{kind}"
                         for kind in BUILDERS.values()})


def _condition_rows(system) -> int:
    if system.kind == "coend":
        return sum(c.matrix.cols for c in system.conditions)
    return sum(c.matrix.rows for c in system.conditions)


class Tracer:
    """Spans and counters for one benchmark process; off until installed."""

    def __init__(self):
        self.spans = []
        self.counts = [0] * len(COUNTERS)
        self.op = -1
        self._stack = []
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _set(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name, after=None, counters=True):
        fn = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), None, stack[-1] if stack else -1, self.op]
            if counters:
                rec.append(tuple(counts))
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                stack.pop()
                if counters:
                    rec.append(tuple(counts))
                rec[2] = clock()

        self._set(owner, attr, wrapper)

    def _bump(self, owner, attr, key, extra=None):
        fn = getattr(owner, attr)
        counts, k = self.counts, _IDX[key]
        if extra is None:
            def wrapper(*args, **kwargs):
                counts[k] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[k] += 1
                extra(args)
                return fn(*args, **kwargs)
        self._set(owner, attr, wrapper)

    def _by_degree(self, cls, attr, key):
        fn = getattr(cls, attr)
        counts, k = self.counts, _IDX[key + ".deg1"]

        def wrapper(a, b):
            counts[k + (a.field.degree > 1)] += 1
            return fn(a, b)
        self._set(cls, attr, wrapper)

    def _cached(self, owner, attr, cache_of):
        """Count calls to a cached lookup and the calls that add a cache entry."""
        fn = getattr(owner, attr)
        counts, kc, km = self.counts, _IDX["blocks.cache_calls"], _IDX["blocks.cache_misses"]

        def wrapper(tables, *args):
            cache = cache_of(tables)
            before = len(cache)
            out = fn(tables, *args)
            counts[kc] += 1
            if len(cache) > before:
                counts[km] += 1
            return out
        self._set(owner, attr, wrapper)

    def install(self, mods) -> None:
        """Wrap the modend entry points; ``mods`` maps short module names to modules."""
        cli, endengine, theorems = mods["cli"], mods["endengine"], mods["theorems"]
        blocks, fusioncat, scalarfield = mods["blocks"], mods["fusioncat"], mods["scalarfield"]
        counts = self.counts

        def add(key, value):
            counts[_IDX[key]] += value

        def loaded(args, _out):
            add("cli.input_bytes", sum(os.path.getsize(p) for p in args[0]))

        def built(_args, system):
            add("endengine.systems_built", 1)
            add("endengine.carrier_dim", system.dim)
            add("endengine.condition_rows", _condition_rows(system))

        def solved(args, result):
            add("endengine.solve_calls", 1)
            add("endengine.rank_sum", args[0].dim - result.dim)

        def certified(_args, result):
            # one certificate per independent cross-check; serre reports its own
            certs = getattr(result, "certificates", None)
            if certs is not None:
                add("theorems.certificates", len(certs))
            elif getattr(result, "mode", "both") == "both":
                add("theorems.certificates", 1)

        self._span(cli, "load", "cli.load", after=loaded)
        self._span(cli, "run", "cli.run")
        self._span(cli, "validate_fusion", "fusioncat.validate")
        self._span(fusioncat, "compute_duality", "fusioncat.duality")
        self._span(cli, "validate_module", "modcat.validate")
        self._span(cli, "validate_functor", "modfunct.validate")
        for attr, kind in BUILDERS.items():
            self._span(endengine, attr, f"endengine.assemble.{kind}", after=built)
        self._span(endengine, "solve_end", "endengine.solve", after=solved)
        self._span(endengine, "solve_coend", "endengine.solve", after=solved)
        for attr in THEOREMS:
            after = None if attr == "internal_character" else certified
            self._span(theorems, attr, "theorems.certify", after=after)

        Matrix, FieldElement = scalarfield.Matrix, scalarfield.FieldElement
        self._span(Matrix, "rref", "scalarfield.rref", counters=False)
        self._bump(Matrix, "rref", "scalarfield.rref_calls")
        self._bump(Matrix, "inverse", "scalarfield.inverse_calls")
        k1 = _IDX["blocks.products_1x1"]

        def one_by_one(args):
            a, b = args
            if a.rows == 1 and a.cols == 1 and b.cols == 1:
                counts[k1] += 1
        self._bump(Matrix, "__mul__", "blocks.mor_products", extra=one_by_one)
        self._bump(blocks.Obj, "__init__", "blocks.obj_built")
        self._by_degree(FieldElement, "__mul__", "scalarfield.field_mul")
        self._by_degree(FieldElement, "__add__", "scalarfield.field_add")
        self._by_degree(FieldElement, "__sub__", "scalarfield.field_add")
        self._cached(blocks, "assoc", lambda t: t._cache)
        self._cached(blocks, "assoc_inv", lambda t: t._cache)
        self._cached(blocks, "c_mor", lambda t: t._cache)
        self._cached(blocks.BaseTables, "f_block", lambda t: t._fblock_cache)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.spans.append(["op", time.perf_counter(), None, -1, op, tuple(self.counts)])
        self._stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        idx = self._stack.pop()
        self.spans[idx].append(tuple(self.counts))
        self.spans[idx][2] = time.perf_counter()

    # -- results --------------------------------------------------------------

    def layer_self_times(self) -> dict:
        """Self time per layer metric, summed over every span recorded."""
        child = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, *_rest) in enumerate(self.spans):
            out[SELF_TIME_METRIC[name]] += (end - start) - child[idx]
        return dict(out)

    def op_time(self) -> float:
        return sum(end - start for name, start, end, *_ in self.spans if name == "op")

    def counters(self) -> dict:
        return dict(zip(COUNTERS, self.counts))

    def dump(self, path) -> None:
        """Write every span, one JSON object per line, then the counter totals."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, *snap in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if snap:
                    rec["counters"] = {k: b - a for k, a, b in zip(COUNTERS, *snap) if b != a}
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counters": self.counters()}) + "\n")
