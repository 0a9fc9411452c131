"""Assembly and solution of the linear systems behind module (co)ends.

In a semisimple skeletal module category a dinatural family is determined by
its components on the simples, and plain dinaturality imposes no conditions
there; the ordinary end is therefore the free carrier ``sum_i S(m_i, m_i)``.
This reduction is foundational for the engine and is defended by a property
test that imposes dinaturality along sampled morphisms between non-simple
objects and observes no shrinkage.

A module end is the subspace of the carrier cut out by one balancing
condition per pair (base simple X, module simple m); a module coend is the
quotient of the carrier by the corresponding relation vectors, solved as a
transposed end (rank computation).  Conditions are generated at simple X
only; the condition generated by a decomposed tensor product ``X x Y`` is
expected to be redundant and a dedicated builder exposes it so the property
suite can verify that it never shrinks the solution space.

Every builder writes each condition entry by entry and composes no
morphisms: an entry is a sum, over intermediate labels, of products of F-,
L- and c-symbols, entries of inverse F- and L-blocks (kept on the tables)
and duality scalars, in the closed form its docstring gives.  The
``Hom(F(-), G(-))`` family (the end, the naturality oracle, the coend
relations and the conditions of a decomposed generator) has a carrier
coordinate per pair of copies of one simple in ``F(m_i)`` and ``G(m_i)``.

Object-valued ends and coends (internal characters, the Serre-functor coend,
the double-dual end) are built once, over a carrier that keeps every summand
of each diagonal object tagged with its label.  By Schur's lemma no condition
row has entries on two labels, so the system is block-diagonal by label and
one solve gives every label's Hom-probe ``Hom(label, -)`` at once: each
nullspace vector lies on one label, and the multiplicity of a label is the
number of vectors on it (``theorems._multiplicities``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from . import blocks
from .blocks import _memoized
from .common import SourceTargetMismatch
from .fusioncat import tensor_subcategory
from .modcat import ModuleCategorySpec
from .modfunct import ModuleFunctorSpec
from .scalarfield import FieldSpec, Matrix


@dataclass
class CarrierBlock:
    simple: str
    basis: tuple
    offset: int

    @property
    def dim(self):
        return len(self.basis)


@dataclass
class Condition:
    """One linear condition (or relation family), tagged by its generator."""

    generator: tuple
    matrix: Matrix


@dataclass
class DinaturalSystem:
    field: FieldSpec
    blocks: list
    conditions: list
    kind: str = "end"            # "end": conditions map out of the carrier
    recipe: str = ""             # which pre-balancing produced the conditions
    meta: dict = dc_field(default_factory=dict)

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)


@dataclass
class EndResult:
    dim: int
    basis: list
    kind: str = "end"
    relations: list | None = None


def solve_end(sys: DinaturalSystem) -> EndResult:
    """Nullspace of the stacked condition matrix over the carrier, from one ``rref``."""
    if sys.kind != "end":
        raise ValueError("solve_end expects an end-kind system")
    mats = [c.matrix for c in sys.conditions if c.matrix.rows]
    basis = Matrix.vstack(sys.field, mats, cols=sys.dim).nullspace()
    return EndResult(dim=len(basis), basis=basis)


def solve_coend(sys: DinaturalSystem) -> EndResult:
    """Corank of the stacked relation vectors; relations echelonized as rows."""
    if sys.kind != "coend":
        raise ValueError("solve_coend expects a coend-kind system")
    stacked = Matrix.vstack(sys.field, [c.matrix.transpose() for c in sys.conditions],
                            cols=sys.dim)
    red, pivots = stacked.rref()
    rank = len(pivots)
    relations = [Matrix(sys.field, 1, sys.dim, red.entries[r * sys.dim:(r + 1) * sys.dim])
                 for r in range(rank)]
    return EndResult(dim=sys.dim - rank, basis=[], kind="coend", relations=relations)


def restrict_conditions(sys: DinaturalSystem, sub: Sequence[str]) -> DinaturalSystem:
    """Keep only the conditions whose generator lies in the label subset."""
    base = sys.meta.get("base")
    if base is not None:
        tensor_subcategory(base, sub)
    subset = set(sub)
    kept = [c for c in sys.conditions if c.generator[0] in subset]
    return DinaturalSystem(field=sys.field, blocks=sys.blocks, conditions=kept,
                           kind=sys.kind, recipe=sys.recipe, meta=dict(sys.meta))


# ---------------------------------------------------------------------------
# natural-transformation systems: S = Hom(F(-), G(-))
#
# Each builder writes a generator's condition entry by entry: its left-hand
# side and, subtracted, its right-hand side, each on the carrier block it
# reaches.  ``L(X,Y,i; j,Z,t)`` is the entry of ``l_block(X, Y, i, t)`` at
# row ``j``, column ``Z``, and ``Linv(X,Y,i; t)[Z, j]`` that of its inverse;
# ``F`` and ``Finv`` are the same for ``f_block``.  ``cF(X,i)[row, col]`` is
# an entry of the c-block of ``F`` (``blocks._c_entries``), ``cG`` one of
# ``G``'s, and ``eps(X,p)[s]`` is ``_evaluation``.


def _nat_carrier(f: ModuleFunctorSpec, g: ModuleFunctorSpec):
    out = []
    offset = 0
    for i in f.src.simples:
        basis = []
        for k in f.dst.simples:
            for a in range(f.mult(i, k)):
                for b in range(g.mult(i, k)):
                    basis.append((k, a, b))
        out.append(CarrierBlock(simple=i, basis=tuple(basis), offset=offset))
        offset += len(basis)
    return out


def _nat_columns(carrier) -> dict:
    """The carrier column of each coordinate ``(i, k, a, b)``."""
    column = {}
    for block in carrier:
        for k, a, b in block.basis:
            column[block.simple, k, a, b] = len(column)
    return column


def _zero_condition(field, rows: int, column: dict) -> Matrix:
    """The zero condition with ``rows`` rows over the carrier; 0 x 0 on an empty one."""
    return Matrix.zeros(field, rows if column else 0, len(column))


def _copies(ft, simples) -> dict:
    """``i -> [(k, a), ...]``: the copies of simples in ``F(m_i)``, in ``f_obj`` order."""
    return {i: [(k, a) for k, n in ft.images[i] for a in range(n)] for i in simples}


@_memoized
def _evaluation(tables, X: str, p: str) -> dict:
    """``eps(X, p)``: the evaluation ``X* act (X act m_p) -> m_p`` on its summand
    through ``s in X act m_p``, ``lambda_p ev[X] Linv(X*,X,p; p)[1, s]``."""
    base = tables.base
    inv, scale = tables.l_inverse(base.dual[X], X, p, p), tables.unit_scalar(p) * base.ev[X]
    return {s: scale * inv.get((base.unit, s), tables.field.zero) for s in tables.act_set(X, p)}


def _hom_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec, kind: str, recipe: str,
                condition) -> DinaturalSystem:
    """The system on ``Hom(F(-), G(-))`` with one condition per generator ``(X, m_i)``.

    ``condition(column, copies, X, block)`` returns the condition matrix of
    the generator ``(X, block.simple)``; ``column`` is ``_nat_columns`` of the
    carrier and ``copies`` holds ``_copies`` of ``f`` and of ``g``.  Without
    ``condition`` the system has no conditions.
    """
    if f.src is not g.src or f.dst is not g.dst:
        raise SourceTargetMismatch("functors must share source and target")
    base = f.src.base
    base.duality()
    carrier = _nat_carrier(f, g)
    column = _nat_columns(carrier)
    copies = (_copies(f.tables, f.src.simples), _copies(g.tables, f.src.simples))
    conditions = [Condition(generator=(X, block.simple),
                            matrix=condition(column, copies, X, block))
                  for X in base.simples for block in carrier] if condition else []
    return DinaturalSystem(field=f.field, blocks=carrier, conditions=conditions,
                           kind=kind, recipe=recipe, meta={"base": base, "f": f, "g": g})


def ordinary_end_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """The ordinary end of ``Hom(F(-), G(-))``: the carrier, free of conditions."""
    return _hom_system(f, g, "end", "ordinary", None)


def build_nat_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Module-end system for ``Hom(F(-), G(-))`` with its canonical pre-balancing.

    Generator ``(X, m_i)`` equates ``theta_{m_i} F(eps)`` with
    ``eps' (id_{X*} act (c_G theta_{X act m_i})) c_F`` as maps
    ``F(X* act (X act m_i)) -> G(m_i)``.  Its rows run over copies ``(l,b)`` in
    ``G(m_i)`` and then ``s in X act m_i``, ``t in X* act m_s`` and copies
    ``(k',a')`` in ``F(m_t)``.  The left-hand side, where ``t = i`` and
    ``k' = l``, is ``eps(X,i)[s]`` at ``(l,a',b)`` of block ``i``.  The
    right-hand side at ``(k,a,b')`` of block ``s`` is
    ``cF(X*,s)[(k,a,l), (t,k',a')] cG(X,i)[(l,b,k), (s,k,b')] eps'(X,l)[k]``,
    where ``eps'`` is the evaluation of the target module.
    """
    src_t, dst_t, ft, gt = f.src.tables, f.dst.tables, f.tables, g.tables

    def balancing(column, copies, X, block):
        (f_copies, g_copies), i, Xd = copies, block.simple, f.src.base.dual[X]
        cols = [(s, t, k, a) for s in src_t.act_set(X, i) for t in src_t.act_set(Xd, s)
                for k, a in f_copies[t]]
        eps, c_g = _evaluation(src_t, X, i), blocks._c_entries(gt, X, i)
        mat = _zero_condition(f.field, len(g_copies[i]) * len(cols), column)
        for r, (l, b) in enumerate(g_copies[i]):
            eps_l = _evaluation(dst_t, X, l)
            for c, (s, t, k2, a2) in enumerate(cols):
                at = (r * len(cols) + c) * len(column)
                if t == i and k2 == l:
                    mat.entries[at + column[i, l, a2, b]] += eps[s]
                c_f = blocks._c_entries(ft, Xd, s)
                for k, a in f_copies[s]:
                    cf = c_f.get((k, a, l, t, k2, a2))
                    for b2 in range(g.mult(s, k)) if cf else ():
                        cg = c_g.get((l, b, k, s, k, b2))
                        if cg:
                            mat.entries[at + column[s, k, a, b2]] -= cf * cg * eps_l[k]
        return mat

    return _hom_system(f, g, "end", "hom-end", balancing)


def nat_oracle_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Direct module-naturality system: d theta_{X act m} = (id_X act theta_m) c.

    The rows of generator ``(X, m_i)`` run over copies ``(l,b)`` in ``G(m_i)``
    and ``u in X act m_l``, then ``s in X act m_i`` and copies ``(k,a)`` in
    ``F(m_s)``.  The left-hand side is ``cG(X,i)[(l,b,u), (s,k,b')]`` at
    ``(k,a,b')`` of block ``s``, the right-hand side
    ``cF(X,i)[(l,a',u), (s,k,a)]`` at ``(l,a',b)`` of block ``i``.
    """
    src_t, dst_t, ft, gt = f.src.tables, f.dst.tables, f.tables, g.tables

    def naturality(column, copies, X, block):
        (f_copies, g_copies), i = copies, block.simple
        rows = [(l, b, u) for l, b in g_copies[i] for u in dst_t.act_set(X, l)]
        cols = [(s, k, a) for s in src_t.act_set(X, i) for k, a in f_copies[s]]
        c_f, c_g = blocks._c_entries(ft, X, i), blocks._c_entries(gt, X, i)
        mat = _zero_condition(f.field, len(rows) * len(cols), column)
        for r, (l, b, u) in enumerate(rows):
            for c, (s, k, a) in enumerate(cols):
                at = (r * len(cols) + c) * len(column)
                for b2 in range(g.mult(s, k)):
                    cg = c_g.get((l, b, u, s, k, b2))
                    if cg:
                        mat.entries[at + column[s, k, a, b2]] += cg
                for a2 in range(f.mult(i, l)):
                    cf = c_f.get((l, a2, u, s, k, a))
                    if cf:
                        mat.entries[at + column[i, l, a2, b]] -= cf
        return mat

    return _hom_system(f, g, "end", "module-naturality-oracle", naturality)


def composite_nat_conditions(f: ModuleFunctorSpec, g: ModuleFunctorSpec,
                             carrier, X: str, Y: str) -> list:
    """Balancing conditions generated by the decomposed object ``W = X x Y``.

    The evaluation of ``W`` is nested from those of ``X`` and ``Y`` through the
    associators of the module, ``W* = Y* x X*``, so appending these conditions
    tests the simple-generator reduction instead of assuming it: on the summand
    ``(w, z, s, p)`` of ``W* act (W act m_p)``, for ``w in Y* x X*``,
    ``z in X x Y`` and ``s in z act m_p``, it is ``epsW(p)[w,z,s] =
    sum_r L(Y*,X*,s; r,w,p) L(X,Y,p; r,z,s) eps(X,r)[s] eps(Y,p)[r]``.  The
    rows of generator ``(X*Y, m_i)`` run over copies ``(l,b)`` in ``G(m_i)``
    and then ``w``, ``z``, ``s in z act m_i``, ``t in w act m_s`` and copies
    ``(k',a')`` in ``F(m_t)``.  The left-hand side, where ``t = i`` and
    ``k' = l``, is ``epsW(i)[w,z,s]`` at ``(l,a',b)`` of block ``i``; the
    right-hand side at ``(k,a,b')`` of block ``s`` is
    ``cF(w,s)[(k,a,l), (t,k',a')] cG(z,i)[(l,b,k), (s,k,b')] epsW'(l)[w,z,k]``.
    ``carrier`` must be the carrier of ``f`` and ``g``, as in ``build_nat_system``.
    """
    if f.src is not g.src or f.dst is not g.dst:
        raise SourceTargetMismatch("functors must share source and target")
    if list(carrier) != _nat_carrier(f, g):
        raise SourceTargetMismatch("carrier is not the Hom(F(-), G(-)) carrier of the functors")
    base = f.src.base
    src_t, dst_t, ft, gt, zero = f.src.tables, f.dst.tables, f.tables, g.tables, f.field.zero
    Xd, Yd = base.dual[X], base.dual[Y]
    ws, zs = base.tables.fuse(Yd, Xd), base.tables.fuse(X, Y)
    f_copies, g_copies = _copies(ft, f.src.simples), _copies(gt, f.src.simples)
    column = _nat_columns(carrier)

    def nested_eps(tables, p):
        L, eps_w = tables._l_entry, {}
        eps_y = _evaluation(tables, Y, p)
        for r in tables.act_set(Y, p):
            eps_x = _evaluation(tables, X, r)
            for s in tables.act_set(X, r):
                for z in zs:
                    lz = L(X, Y, p, r, z, s)
                    for w in ws if lz else ():
                        lw = L(Yd, Xd, s, r, w, p)
                        if lw:
                            eps_w[w, z, s] = eps_w.get((w, z, s), zero) \
                                + lw * lz * eps_x[s] * eps_y[r]
        return eps_w

    out = []
    for i in f.src.simples:
        eps = nested_eps(src_t, i)
        cols = [(w, z, s, t, k, a) for w in ws for z in zs for s in src_t.act_set(z, i)
                for t in src_t.act_set(w, s) for k, a in f_copies[t]]
        mat = _zero_condition(f.field, len(g_copies[i]) * len(cols), column)
        for r, (l, b) in enumerate(g_copies[i]):
            eps_l = nested_eps(dst_t, l)
            for c, (w, z, s, t, k2, a2) in enumerate(cols):
                at = (r * len(cols) + c) * len(column)
                if t == i and k2 == l:
                    mat.entries[at + column[i, l, a2, b]] += eps.get((w, z, s), zero)
                c_f, c_g = blocks._c_entries(ft, w, s), blocks._c_entries(gt, z, i)
                for k, a in f_copies[s]:
                    cf = c_f.get((k, a, l, t, k2, a2))
                    for b2 in range(g.mult(s, k)) if cf else ():
                        cg = c_g.get((l, b, k, s, k, b2))
                        if cg:
                            mat.entries[at + column[s, k, a, b2]] -= \
                                cf * cg * eps_l.get((w, z, k), zero)
        out.append(Condition(generator=(f"{X}*{Y}", i), matrix=mat))
    return out


def build_hom_coend_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Module-coend relations for ``Hom(F(-), G(-))``.

    Generator ``(X, m_i)`` has one relation per coordinate ``(k,a,b)`` of
    block ``i``, a column over the carrier: that coordinate's unit vector minus
    the carrier coordinates of ``beta = eps' (id_{X*} act (c_G G(g0) theta))
    c_F: F(X* act m_i) -> G(X* act m_i)``, where ``theta`` is the coordinate
    and ``g0 = m (coev_X act id) ell^-1: m_i -> X act (X* act m_i)`` is
    ``g0[j] = L(X,X*,i; j,1,i) coev[X] / lambda_i`` on ``j in X* act m_i``.
    The coordinate ``(k',a',b')`` of block ``j`` of ``beta`` is
    ``cF(X*,i)[(k,a,k'), (j,k',a')] g0[j] cG(X,j)[(k',b',k), (i,k,b)] eps'(X,k')[k]``.
    """
    base = f.src.base
    src_t, dst_t, ft, gt = f.src.tables, f.dst.tables, f.tables, g.tables

    def relations(column, copies, X, block):
        f_copies, i, Xd = copies[0], block.simple, base.dual[X]
        scale = base.tables.coev[X] / src_t.unit_scalar(i)
        g0 = {j: src_t._l_entry(X, Xd, i, j, base.unit, i) * scale
              for j in src_t.act_set(Xd, i)}
        c_f, n = blocks._c_entries(ft, Xd, i), len(block.basis)
        mat = Matrix.zeros(f.field, len(column), n)
        for c, (k, a, b) in enumerate(block.basis):
            mat.entries[column[i, k, a, b] * n + c] += f.field.one
            for j, g0_j in g0.items():
                c_g = blocks._c_entries(gt, X, j)
                for k2, a2 in f_copies[j]:
                    cf = c_f.get((k, a, k2, j, k2, a2))
                    for b2 in range(g.mult(j, k2)) if cf and g0_j else ():
                        cg = c_g.get((k2, b2, k, i, k, b))
                        if cg:
                            mat.entries[column[j, k2, a2, b2] * n + c] -= \
                                cf * g0_j * cg * _evaluation(dst_t, X, k2)[k]
        return mat

    return _hom_system(f, g, "coend", "hom-coend", relations)


# ---------------------------------------------------------------------------
# object-valued ends and coends, every label's Hom-probe read off one solve,
# in the notation above: the left-hand side on the generator's own block and
# the right-hand side on the block of each summand it passes through


def _labelled_carrier(summands: Mapping[str, Sequence[tuple]], order: Sequence[str]):
    """One block per diagonal object, one coordinate per summand, tagged by its label.

    ``summands[key]`` lists the summands of the object at ``key``, each a tuple
    whose last entry is its label.  Returns the blocks and the carrier column
    of each ``(key, summand)``.
    """
    out, column = [], {}
    for key in order:
        basis = []
        for pos, summand in enumerate(summands[key]):
            column[key, summand] = len(column)
            basis.append((summand[-1], pos))
        out.append(CarrierBlock(simple=key, basis=tuple(basis), offset=len(column) - len(basis)))
    return out, column


def build_character_probe_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Module end of ``ldual(F(-)) x G(-)`` over the source module.

    ``f`` and ``g`` must land in the regular module of the base; its nullspace
    vectors on the label ``p`` count ``dim Hom(p, end object)`` of the
    internal-character end.

    Block ``i`` has a coordinate per copy ``(k,a)`` of ``m_k`` in ``F(m_i)``,
    copy ``(l,b)`` of ``m_l`` in ``G(m_i)`` and ``p in k* x l``.  The rows of
    generator ``(X, m_i)`` run over ``s in X act m_i``, ``w in X* act m_s``,
    copies ``(k,a)`` in ``F(m_w)``, ``(l,b)`` in ``G(m_i)`` and ``p in k* x l``.
    The left-hand side, where ``w = i``, is ``lambda_i ev[X] Linv(X*,X,i; i)[1, s]``
    at ``(k,a,l,b,p)`` of block ``i``.  The right-hand side at ``(k',a',l',b',p)``
    of block ``s`` is ``c_G(X,i)[(l,b,l'), (s,l',b')] Finv(k'*,X,l; p; k*,l')
    c_F(X*,s)[(k',a',k), (w,k,a)] / phi_l(X*,k'; k)``: the pre-balancing through
    the functor coherences, ``phi_l`` and the dual transpose of ``c``.
    """
    if f.src is not g.src:
        raise SourceTargetMismatch("functors must share their source")
    base = f.src.base
    bt = base.tables
    for h in (f, g):
        if h.dst.tables is not bt.regular():
            raise SourceTargetMismatch(
                f"functor {h.name!r} must land in the regular module of the base")
    base.duality()
    mt, ftab, gtab = f.src.tables, f.tables, g.tables
    field, dual, zero = f.field, base.dual, f.field.zero
    f_copies, g_copies = _copies(ftab, f.src.simples), _copies(gtab, f.src.simples)
    carrier, column = _labelled_carrier(
        {i: [(k, a, l, b, p) for k, a in f_copies[i] for l, b in g_copies[i]
             for p in bt.fuse(dual[k], l)] for i in f.src.simples}, f.src.simples)
    dim = len(column)
    conditions = []
    for X in base.simples:
        Xd = dual[X]
        for i in f.src.simples:
            c_g, eps = blocks._c_entries(gtab, X, i), _evaluation(mt, X, i)
            rows = [(s, w, k, a, l, b, p) for s in mt.act_set(X, i) for w in mt.act_set(Xd, s)
                    for k, a in f_copies[w] for l, b in g_copies[i] for p in bt.fuse(dual[k], l)]
            mat = Matrix.zeros(field, len(rows), dim)
            for r, (s, w, k, a, l, b, p) in enumerate(rows):
                at = r * dim
                if w == i:
                    mat.entries[at + column[i, (k, a, l, b, p)]] += eps[s]
                c_f = blocks._c_entries(ftab, Xd, s)
                for k2, a2 in f_copies[s]:
                    cf = c_f.get((k2, a2, k, w, k, a))
                    if not cf:
                        continue
                    cf = cf / blocks.phi_l_scalar(bt, Xd, k2, k)
                    for l2, b2 in g_copies[s]:
                        cg = c_g.get((l, b, l2, s, l2, b2))
                        if cg and (s, (k2, a2, l2, b2, p)) in column:
                            mat.entries[at + column[s, (k2, a2, l2, b2, p)]] -= \
                                cg * bt.f_inverse(dual[k2], X, l, p).get((dual[k], l2), zero) * cf
            conditions.append(Condition(generator=(X, i), matrix=mat))
    return DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                           kind="end", recipe="character-probe", meta={"base": base})


def build_serre_probe_system(m: ModuleCategorySpec, i: str) -> DinaturalSystem:
    """Coend over the opposite module computing the Serre image of ``m_i``.

    The coend of ``uhom(m_i, -)* act -`` over the opposite (right) module is
    probed with ``Hom(-, m_p)``, which turns its relations into an end-type
    system on coordinate functionals; its nullspace vectors on the label
    ``p`` count the multiplicity of ``m_p`` in the coend object.

    With ``US(j)`` the simples ``Y`` with ``m_j in Y act m_i``, block ``u`` has
    a coordinate per ``Y in US(u)`` and ``t in Y* act m_u``.  The rows of
    generator ``(X, m_u)`` run over ``Y in US(u)``, ``z in X* x X``,
    ``s in z* act m_u`` and ``t in Y* act m_s``.  The left-hand side, where
    ``z = 1``, is ``lcoev[X] lambda_u`` at ``(Y, t)`` of block ``u``.  The
    right-hand side at ``(Z, t)`` of block ``q in X act m_u`` is
    ``phi_r(X*,X; z) L(X*,X,u; q,z*,s) Linv(Y*,X*,q; t)[Z*, s] M_Z^-1[Y, q]
    / phi_r(X,Y; Z)``, where ``M_Z`` holds ``L(X,Y',i; u,Z,q')`` at row
    ``q' in X act m_u`` with ``Z in US(q')`` and column ``Y' in US(u)`` with
    ``Z in X x Y'``: the internal hom's action iso, square by the
    ``uhom-shift-second`` identity.  On pointed tables (``blocks.is_pointed``)
    ``M_Z`` is 1 x 1 and its one entry is that of ``l_block(X, Y, i, q)``, so
    ``M_Z^-1[Y, q]`` is read off the inverse the tables keep,
    ``l_inverse(X, Y, i, q)[Z, u]``; other tables invert ``M_Z`` once per build.
    """
    base = m.base
    base.duality()
    bt, mt = base.tables, m.tables
    field, dual, unit, zero = m.field, base.dual, base.unit, m.field.zero
    L = mt._l_entry
    us = {j: [Y for Y in base.simples if mt.n(Y, i, j)] for j in m.simples}
    carrier, column = _labelled_carrier(
        {u: [(Y, t) for Y in us[u] for t in mt.act_set(dual[Y], u)] for u in m.simples},
        m.simples)
    dim = len(column)

    pointed, m_inv = blocks.is_pointed(mt), {}

    def action_iso_inverse(X, u, Z, Y, q):
        """``M_Z^-1[Y, q]`` of ``(X, m_u)``: on pointed tables the kept inverse
        of the L-block that ``M_Z`` is, else ``M_Z`` inverted once per build."""
        if pointed:
            return mt.l_inverse(X, Y, i, q).get((Z, u), zero)
        if (X, u, Z) not in m_inv:
            rows = [r for r in mt.act_set(X, u) if Z in us[r]]
            cols = [c for c in us[u] if bt.n(X, c, Z)]
            m_inv[X, u, Z] = blocks.inverse_entries(rows, cols, Matrix(
                field, len(rows), len(cols), [L(X, c, i, u, Z, r) for r in rows for c in cols]))
        return m_inv[X, u, Z].get((Y, q), zero)

    conditions = []
    for X in base.simples:
        Xd = dual[X]
        for u in m.simples:
            lhs = bt.lcoev[X] * mt.unit_scalar(u)
            rows = [(Y, z, s, t) for Y in us[u] for z in bt.fuse(Xd, X)
                    for s in mt.act_set(dual[z], u) for t in mt.act_set(dual[Y], s)]
            mat = Matrix.zeros(field, len(rows), dim)
            for r, (Y, z, s, t) in enumerate(rows):
                at = r * dim
                if z == unit:
                    mat.entries[at + column[u, (Y, t)]] += lhs
                phi = blocks.phi_r_scalar(bt, Xd, X, z)
                for q in mt.act_set(X, u):
                    lval = L(Xd, X, u, q, dual[z], s)
                    if not lval:
                        continue
                    for Z in us[q]:
                        if (q, (Z, t)) not in column or not bt.n(X, Y, Z):
                            continue
                        mat.entries[at + column[q, (Z, t)]] -= (
                            phi * lval * mt.l_inverse(dual[Y], Xd, q, t).get((dual[Z], s), zero)
                            * action_iso_inverse(X, u, Z, Y, q)
                            / blocks.phi_r_scalar(bt, X, Y, Z))
            conditions.append(Condition(generator=(X, u), matrix=mat))
    return DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                           kind="end", recipe="serre-coend-probe",
                           meta={"base": base, "input": i})


def build_upsilon_probe_system(reg_module: ModuleCategorySpec, x: str) -> DinaturalSystem:
    """Double-dual end over the regular module, every label read off one solve.

    The end runs over the dual category realized by right multiplications:
    one condition per (simple Y, module simple m), with the pre-balancing
    assembled from the internal-hom adjunction shift along ``- x Y``.

    Block ``m`` has a coordinate per ``q in x x m`` and ``Z`` with
    ``q in Z x m``.  The rows of generator ``(Y, m)`` run over ``n in m x Y``,
    ``w in n x Y*``, ``q in x x m`` and ``Z`` with ``q in Z x w``.  The
    left-hand side, where ``w = m``, is ``F(m,Y,Y*; m; n,1) lev[Y]`` at
    ``(q, Z)`` of block ``m``.  The right-hand side at ``(q', Z)`` of block
    ``n``, for ``q' in x x n`` with ``q' in Z x n`` and ``q' in q x Y``, is
    ``Finv(x,m,Y; q'; q,n) Finv(Z,n,Y*; q; q',w) F(q,Y,Y*; q; q',1) lev[Y]``.
    """
    base = reg_module.base
    bt = base.tables
    if reg_module.tables is not bt.regular():
        raise SourceTargetMismatch(f"{reg_module.name!r} is not the regular module of the base")
    base.duality()
    field, dual, unit = reg_module.field, base.dual, base.unit
    F, zero = bt._f_entry, field.zero
    carrier, column = _labelled_carrier(
        {m: [(q, Z) for q in bt.fuse(x, m) for Z in base.simples if bt.n(Z, m, q)]
         for m in base.simples}, base.simples)
    dim = len(column)
    conditions = []
    for Y in base.simples:
        Yd = dual[Y]
        for m in base.simples:
            rows = [(n, w, q, Z) for n in bt.fuse(m, Y) for w in bt.fuse(n, Yd)
                    for q in bt.fuse(x, m) for Z in base.simples if bt.n(Z, w, q)]
            mat = Matrix.zeros(field, len(rows), dim)
            for r, (n, w, q, Z) in enumerate(rows):
                at = r * dim
                if w == m:
                    mat.entries[at + column[m, (q, Z)]] += F(m, Y, Yd, m, n, unit) * bt.lev[Y]
                for q2 in bt.fuse(x, n):
                    if bt.n(Z, n, q2) and bt.n(q, Y, q2):
                        mat.entries[at + column[n, (q2, Z)]] -= (
                            bt.f_inverse(x, m, Y, q2).get((q, n), zero)
                            * bt.f_inverse(Z, n, Yd, q).get((q2, w), zero)
                            * F(q, Y, Yd, q, q2, unit) * bt.lev[Y])
            conditions.append(Condition(generator=(Y, m), matrix=mat))
    return DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                           kind="end", recipe="upsilon-probe",
                           meta={"base": base, "x": x})
