"""Module functors between module categories over one base.

A functor is stored as its on-simples multiplicity table together with one
coherence block per ``(base simple X, source simple i)``.  The block is the
matrix of ``c_{X, m_i}: F(X act m_i) -> X act F(m_i)`` written in the
canonical bases: rows run over ``(k, copy, t)`` as produced by
:func:`modend.blocks.c_rows`, columns over ``(t_src, k, copy)`` as produced by
:func:`modend.blocks.c_cols`.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import Callable, Mapping

from . import blocks
from .common import SourceTargetMismatch, ValidationReport
from .fusioncat import FusionCategorySpec
from .modcat import ModuleCategorySpec, regular_module
from .scalarfield import Matrix


class ModuleFunctorSpec:
    """A module functor ``(F, c)`` between left modules over the same base,
    which keeps its own caches of c-entries and structure morphisms.

    A ``derived`` functor (an identity, or a right multiplication on a regular
    module) is valid whenever its modules are.  ``c_symbols`` may be given as
    a function that returns them: it runs the first time ``c_symbols`` is
    read, so a derived functor no command reads costs nothing.
    """

    def __init__(self, src: ModuleCategorySpec, dst: ModuleCategorySpec,
                 on_simples: Mapping[tuple, int],
                 c_symbols: Mapping[tuple, Matrix] | Callable[[], Mapping[tuple, Matrix]],
                 name: str = "", derived: bool = False):
        if src.base is not dst.base:
            raise SourceTargetMismatch("source and target must share the base category")
        if src.orientation != "left" or dst.orientation != "left":
            raise SourceTargetMismatch("module functors are between left modules here")
        self.name, self.derived = name, derived
        self.src = src
        self.dst = dst
        self.field = src.field
        self.on_raw = dict(on_simples)
        self.on_simples = {k: int(v) for k, v in on_simples.items() if v}
        self._c_symbols = c_symbols if callable(c_symbols) else dict(c_symbols)
        self._cache, self._memo, self._c_entries = {}, {}, {}
        self._report = None     # the gate's, kept by ``cli.InstanceBundle.validate_all``

    @property
    def c_symbols(self) -> dict:
        """``(X, i)`` -> the matrix of ``c_{X, m_i}`` in the canonical row/column orders."""
        if callable(self._c_symbols):
            self._c_symbols = dict(self._c_symbols())
        return self._c_symbols

    @functools.cached_property
    def images(self) -> dict:
        """Source simple -> ``((target simple, multiplicity), ...)`` in ``dst.simples`` order."""
        mult = self.on_simples
        return {i: tuple((k, mult[i, k]) for k in self.dst.simples if (i, k) in mult)
                for i in self.src.simples}

    def mult(self, i: str, k: str) -> int:
        return self.on_simples.get((i, k), 0)

    def __repr__(self):
        return f"ModuleFunctorSpec({self.name or id(self)})"


def validate_functor(f: ModuleFunctorSpec) -> ValidationReport:
    """Exhaustive coherence check of ``(F, c)``; empty report iff valid."""
    report = ValidationReport(subject=f.name or "module functor")
    base = f.src.base
    for check, keys, known in (
            ("unknown-on-simples-key", f.on_raw, set(product(f.src.simples, f.dst.simples))),
            ("unknown-c-key", f.c_symbols, set(product(base.simples, f.src.simples)))):
        for key in keys:
            if key not in known:
                report.add(check, key)
    for X in base.simples:
        for i in f.src.simples:
            rows = blocks.c_rows(f, X, i)
            cols = blocks.c_cols(f, X, i)
            blk = f.c_symbols.get((X, i))
            if blk is None:
                report.add("missing-c-block", (X, i))
                continue
            if blk.rows != len(rows) or blk.cols != len(cols):
                report.add("c-block-shape", (X, i),
                           f"expected {len(rows)}x{len(cols)}, got {blk.rows}x{blk.cols}")
                continue
            if any(blk[r, c] for r, (_, _, t) in enumerate(rows)
                   for c, (_, k, _) in enumerate(cols) if t != k):
                report.add("c-block-schur", (X, i),
                           "entries between different simples must be 0")
            if blk.rows != blk.cols:
                report.add("c-block-not-square", (X, i))
            elif blk.rows and blk.rank() < blk.rows:
                report.add("c-block-singular", (X, i))
    if not report.ok:
        return report
    for i in f.src.simples:
        if not blocks.functor_unit_holds(f, i):
            report.add("unit-coherence", (i,))
    for X in base.simples:
        for Y in base.simples:
            for i in f.src.simples:
                if not blocks.functor_coherence_holds(f, X, Y, i):
                    report.add("coherence", (X, Y, i))
    return report


def identity_functor(m: ModuleCategorySpec) -> ModuleFunctorSpec:
    """The identity of ``m``, whose c-blocks are identities, built on first read."""
    def c_symbols() -> dict:
        return {(X, i): Matrix.identity(m.field, len(m.act_set(X, i)))
                for X in m.base.simples for i in m.simples}
    on_simples = {(i, i): 1 for i in m.simples}
    return ModuleFunctorSpec(m, m, on_simples, c_symbols, name=f"id_{m.name}", derived=True)


def act_right_functor(c: FusionCategorySpec, y: str,
                      reg: ModuleCategorySpec | None = None) -> ModuleFunctorSpec:
    """Right multiplication ``- x y`` on the regular module of ``c``.

    The c-block at ``(X, i)`` is the associator ``(X x i) act y -> X act (i act y)``
    of ``reg``: row ``(k, 0, t)``, column ``(z, t, 0)`` holds ``L(X, i, y; k, z, t)``,
    which is ``F(X, i, y; t; z, k)`` on a regular module.  There it is derived:
    its coherence is the pentagon, its unit axiom the unit legs.  The blocks
    are built on first read.
    """
    if y not in c.simples:
        raise SourceTargetMismatch(f"{y!r} is not a simple of the base")
    if reg is None:
        reg = regular_module(c)
    on_simples = {(i, k): 1 for i in c.simples for k in c.fuse(i, y)}

    def c_symbols() -> dict:
        zero, out = c.field.zero, {}
        for X in c.simples:
            for i in c.simples:
                rows = [(k, t) for k in reg.act_set(i, y) for t in reg.act_set(X, k)]
                cols = [(z, t) for z in reg.base.fuse(X, i) for t in reg.act_set(z, y)]
                out[(X, i)] = Matrix(c.field, len(rows), len(cols), [
                    reg.l_symbol(X, i, y, k, z, t) if t == s else zero
                    for k, t in rows for z, s in cols])
        return out
    return ModuleFunctorSpec(reg, reg, on_simples, c_symbols, name=f"rmul_{c.name}_{y}",
                             derived=reg is regular_module(c))


def compose_functors(g: ModuleFunctorSpec, f: ModuleFunctorSpec) -> ModuleFunctorSpec:
    """``g after f``; copy ``(k, a, b)`` of ``m_k2`` in ``G(F(m_i))`` is copy
    ``b`` of ``m_k2`` in ``G(m_k)`` for copy ``a`` of ``m_k`` in ``F(m_i)``, so
    ``c^GF_{X,i}[(k2,(k,a,b),t), (s,k2',(k',a',b'))]
    = c^F_{X,i}[(k,a,k'), (s,k',a')] c^G_{X,k}[(k2,b,t), (k',k2',b')]``."""
    if f.dst is not g.src:
        raise SourceTargetMismatch("composition needs f.dst == g.src")
    mid, dst = f.dst, g.dst

    def copies(i: str, k2: str) -> list:
        return [(k, a, b) for k in mid.simples for a in range(f.mult(i, k))
                for b in range(g.mult(k, k2))]

    on_simples = {(i, k2): n for i in f.src.simples for k2 in dst.simples
                  if (n := len(copies(i, k2)))}
    c_symbols = {}
    for X in f.src.base.simples:
        for i in f.src.simples:
            rows = [(k2, kab, t) for k2 in dst.simples for kab in copies(i, k2)
                    for t in dst.act_set(X, k2)]
            cols = [(s, k2, kab) for s in f.src.act_set(X, i) for k2 in dst.simples
                    for kab in copies(s, k2)]
            c_f = blocks._c_entries(f, X, i)
            mat = Matrix.zeros(f.field, len(rows), len(cols))
            for r, (k2, (k, a, b), t) in enumerate(rows):
                c_g = blocks._c_entries(g, X, k)
                for c, (s, k2_, (k_, a_, b_)) in enumerate(cols):
                    vf = c_f.get((k, a, k_, s, k_, a_))
                    vg = c_g.get((k2, b, t, k_, k2_, b_)) if vf else None
                    if vg:
                        mat[r, c] = vf * vg
            c_symbols[(X, i)] = mat
    return ModuleFunctorSpec(f.src, dst, on_simples, c_symbols, name=f"{g.name}*{f.name}")
