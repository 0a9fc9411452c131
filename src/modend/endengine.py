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

The ``Hom(F(-), G(-))`` family (the end, the naturality oracle, the coend
relations, the composite and the tests' plain-dinaturality conditions) is
assembled through one theta extension, which extends a carrier basis
element to any object, and one condition helper, which evaluates a
generator's equation on each extended basis element; the coend reads its
relations back through ``_carrier_coords``, the adjoint of the extension.

Object-valued ends and coends (internal characters, the Serre-functor coend,
the double-dual end) are built once, over a carrier that keeps every summand
of each diagonal object tagged with its label.  Restricting that system to
the coordinates of one label (``restrict_carrier``) gives the Hom-probe
``Hom(label, -)`` of the (co)end, an ordinary vect-valued module end whose
dimension is that label's multiplicity.  Their builders write each condition
entry by entry from symbols and compose no morphisms; the ``Obj``/``Mor``
calculus of ``blocks`` serves the Hom family alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Mapping, Sequence

from . import blocks
from .blocks import Mor, Obj, _simple
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

    def inclusion(self, field: FieldSpec) -> Matrix:
        """The embedding of the solved subspace into the carrier.

        Columns are the basis vectors in carrier coordinates; the module end
        is the identity embedding of this span into the ordinary end.
        """
        if not self.basis:
            return Matrix.zeros(field, 0, 0)
        return Matrix.hstack(field, self.basis)


def solve_end(sys: DinaturalSystem) -> EndResult:
    """Nullspace of the stacked condition matrix over the carrier."""
    if sys.kind != "end":
        raise ValueError("solve_end expects an end-kind system")
    mats = [c.matrix for c in sys.conditions if c.matrix.rows]
    stacked = Matrix.vstack(sys.field, mats, cols=sys.dim)
    return EndResult(dim=sys.dim - stacked.rank(), basis=stacked.nullspace())


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


def restrict_carrier(sys: DinaturalSystem, label: str) -> DinaturalSystem:
    """Keep only the carrier coordinates tagged ``label``: the Hom-probe at ``label``.

    On the labelled carrier of an object-valued (co)end the restricted
    system's dimension is the multiplicity of ``label`` in the object.
    """
    keep, kept_blocks = [], []
    for block in sys.blocks:
        coords = [k for k, b in enumerate(block.basis) if b[0] == label]
        kept_blocks.append(CarrierBlock(simple=block.simple, offset=len(keep),
                                        basis=tuple(block.basis[k] for k in coords)))
        keep.extend(block.offset + k for k in coords)
    conditions = [Condition(generator=c.generator, matrix=_column_matrix(
                      sys.field, [c.matrix.entries[k::c.matrix.cols] for k in keep], c.matrix.rows))
                  for c in sys.conditions]
    return DinaturalSystem(field=sys.field, blocks=kept_blocks, conditions=conditions,
                           kind=sys.kind, recipe=sys.recipe, meta=dict(sys.meta))


def _column_matrix(field, columns, rows=None) -> Matrix:
    """The matrix whose ``c``-th column is the flat sequence ``columns[c]``."""
    if rows is None:
        rows = len(columns[0]) if columns else 0
    mat = Matrix.zeros(field, rows, len(columns))
    for c, col in enumerate(columns):
        for r, val in enumerate(col):
            if val:
                mat[r, c] = val
    return mat


# ---------------------------------------------------------------------------
# natural-transformation systems: S = Hom(F(-), G(-))


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


def _theta_ext_mor(f, g, i: str, k: str, a: int, b: int, N: Obj) -> Mor:
    """Canonical extension of the basis element ``(k, a, b)`` of block ``i`` to ``N``.

    It is zero on every summand of ``N`` other than ``m_i``.
    """
    src = blocks.f_obj(f.tables, N)
    dst = blocks.f_obj(g.tables, N)
    mat = Matrix.zeros(f.field, len(dst), len(src))
    for ip, lab in enumerate(N.labels):
        if lab == i:
            mat[dst.index[(ip, k, b)], src.index[(ip, k, a)]] = f.field.one
    return Mor(src, dst, mat)


def _carrier_coords(f, g, carrier, N: Obj, beta: Mor) -> list:
    """Carrier coordinates of the diagonal part of ``beta: F(N) -> G(N)``.

    The adjoint of theta extension: coordinate ``(k, a, b)`` of block ``i``
    sums the entries of ``beta`` from copy ``a`` to copy ``b`` of ``k`` over
    the summands ``m_i`` of ``N``.
    """
    src = blocks.f_obj(f.tables, N)
    dst = blocks.f_obj(g.tables, N)
    coords = []
    for block in carrier:
        summands = [ip for ip, lab in enumerate(N.labels) if lab == block.simple]
        for (k, a, b) in block.basis:
            coords.append(sum((beta.mat[dst.index[(ip, k, b)], src.index[(ip, k, a)]]
                               for ip in summands), f.field.zero))
    return coords


def _theta_condition(f, g, carrier, equation) -> Matrix:
    """One column per carrier basis element: ``equation(theta).mat``.

    ``theta(N)`` is that basis element extended to the object ``N``.
    """
    return _column_matrix(f.field, [
        equation(partial(_theta_ext_mor, f, g, block.simple, k, a, b)).mat.entries
        for block in carrier for (k, a, b) in block.basis])


def _hom_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec, kind: str, recipe: str,
                condition) -> DinaturalSystem:
    """The system on ``Hom(F(-), G(-))`` with one condition per generator ``(X, m_i)``.

    ``condition(carrier, X, block)`` returns the condition matrix of the
    generator ``(X, block.simple)``.
    """
    if f.src is not g.src or f.dst is not g.dst:
        raise SourceTargetMismatch("functors must share source and target")
    base = f.src.base
    base.duality()
    carrier = _nat_carrier(f, g)
    conditions = [Condition(generator=(X, block.simple), matrix=condition(carrier, X, block))
                  for X in base.simples for block in carrier]
    return DinaturalSystem(field=f.field, blocks=carrier, conditions=conditions,
                           kind=kind, recipe=recipe, meta={"base": base, "f": f, "g": g})


def build_nat_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Module-end system for ``Hom(F(-), G(-))`` with its canonical pre-balancing."""
    base = f.src.base
    bt, src_t, dst_t = base.tables, f.src.tables, f.dst.tables

    def balancing(carrier, X, block):
        mi = _simple(bt, block.simple)
        sx, sxd = _simple(bt, X), _simple(bt, base.dual[X])
        A = blocks.act_c(src_t, sx, mi)                         # X act m_i
        f_eps = blocks.f_mor(f.tables, blocks.eps_flat(src_t, sx, mi))
        c1 = blocks.c_mor(f.tables, sxd, A)                     # F(X* act A) -> X* act F(A)
        d = blocks.c_mor(g.tables, sx, mi)                      # G(A) -> X act G(m_i)
        eps_dst = blocks.eps_flat(dst_t, sx, blocks.f_obj(g.tables, mi))
        return _theta_condition(f, g, carrier, lambda theta: theta(mi) * f_eps
                                - eps_dst * blocks.whisker_c(dst_t, sxd, d * theta(A)) * c1)

    return _hom_system(f, g, "end", "hom-end", balancing)


def nat_oracle_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Direct module-naturality system: d theta_{X act m} = (id_X act theta_m) c."""
    bt, dst_t = f.src.base.tables, f.dst.tables

    def naturality(carrier, X, block):
        sx, mi = _simple(bt, X), _simple(bt, block.simple)
        A = blocks.act_c(f.src.tables, sx, mi)
        c = blocks.c_mor(f.tables, sx, mi)
        d = blocks.c_mor(g.tables, sx, mi)
        return _theta_condition(f, g, carrier, lambda theta: d * theta(A)
                                - blocks.whisker_c(dst_t, sx, theta(mi)) * c)

    return _hom_system(f, g, "end", "module-naturality-oracle", naturality)


def composite_nat_conditions(f: ModuleFunctorSpec, g: ModuleFunctorSpec,
                             carrier, X: str, Y: str) -> list:
    """Balancing conditions generated by the decomposed object ``X x Y``.

    All ingredients (evaluation, coherences, pre-balancing) are assembled for
    the composite generator through their categorical formulas, so appending
    these conditions tests the simple-generator reduction instead of assuming
    it.
    """
    base = f.src.base
    ft, gt = f.tables, g.tables
    bt, src_t, dst_t = base.tables, f.src.tables, f.dst.tables
    sx, sy = _simple(bt, X), _simple(bt, Y)
    sxd, syd = _simple(bt, base.dual[X]), _simple(bt, base.dual[Y])
    W = blocks.ctensor(bt, sx, sy)
    Wd = blocks.ctensor(bt, syd, sxd)

    def nested_eps(tables, N):
        """W* act (W act N) -> N via nested right evaluations."""
        wn = blocks.act_c(tables, W, N)
        inner_y = blocks.act_c(tables, sy, N)
        chain = blocks.assoc(tables, syd, sxd, wn)
        chain = blocks.whisker_c(tables, syd,
                                 blocks.whisker_c(tables, sxd, blocks.assoc(tables, sx, sy, N))) * chain
        chain = blocks.whisker_c(tables, syd, blocks.eps_flat(tables, sx, inner_y)) * chain
        return blocks.eps_flat(tables, sy, N) * chain

    out = []
    for i in f.src.simples:
        mi = _simple(bt, i)
        WM = blocks.act_c(src_t, W, mi)
        f_eps = blocks.f_mor(ft, nested_eps(src_t, mi))
        cW = blocks.c_mor(ft, Wd, WM)
        dW = blocks.c_mor(gt, W, mi)
        eps_dst = nested_eps(dst_t, blocks.f_obj(gt, mi))
        mat = _theta_condition(f, g, carrier, lambda theta: theta(mi) * f_eps
                               - eps_dst * blocks.whisker_c(dst_t, Wd, dW * theta(WM)) * cW)
        out.append(Condition(generator=(f"{X}*{Y}", i), matrix=mat))
    return out


def build_hom_coend_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Module-coend relations for ``Hom(F(-), G(-))``."""
    base = f.src.base
    bt, src_t, dst_t = base.tables, f.src.tables, f.dst.tables

    def relations(carrier, X, block):
        sx, sxd = _simple(bt, X), _simple(bt, base.dual[X])
        mi = _simple(bt, block.simple)
        A = blocks.act_c(src_t, sxd, mi)                        # X* act m_i
        # g0 = m_{X,X*,m_i} (coev_X act id) ell^{-1}: m_i -> X act (X* act m_i)
        g0 = blocks.assoc(src_t, sx, sxd, mi) \
            * blocks.act_mor(src_t, blocks.coev_flat(bt, sx), mi) \
            * blocks.unit_l_inv(src_t, mi)
        d_g0 = blocks.c_mor(g.tables, sx, A) * blocks.f_mor(g.tables, g0)  # G(m_i) -> X act G(A)
        cA = blocks.c_mor(f.tables, sxd, mi)                    # F(X* act m_i) -> X* act F(m_i)
        eps_dst = blocks.eps_flat(dst_t, sx, blocks.f_obj(g.tables, A))
        cols = []
        for (k, a, b) in block.basis:
            # the relation e_i(v) - sum_j e_j(S(iota_j, p_j) beta), beta: F(A) -> G(A);
            # e_i(v) is the carrier coordinate vector of theta_i itself
            theta_i = _theta_ext_mor(f, g, block.simple, k, a, b, mi)
            beta = eps_dst * blocks.whisker_c(dst_t, sxd, d_g0 * theta_i) * cA
            cols.append([u - v for u, v in zip(_carrier_coords(f, g, carrier, mi, theta_i),
                                                _carrier_coords(f, g, carrier, A, beta))])
        return _column_matrix(f.field, cols, sum(bb.dim for bb in carrier))

    return _hom_system(f, g, "coend", "hom-coend", relations)


# ---------------------------------------------------------------------------
# object-valued ends and coends, read off label by label through Hom-probes
#
# Each builder writes a generator's condition entry by entry: its left-hand
# side on the generator's own block and, subtracted, its right-hand side on
# the block of each summand it passes through.  Every entry is a product of
# F-, L- and c-symbols, entries of inverse F- and L-blocks and duality
# scalars.  ``L(X,Y,i; j,Z,t)`` is the entry of ``l_block(X, Y, i, t)`` at
# row ``j``, column ``Z``, and ``Linv(X,Y,i; t)[Z, j]`` that of its inverse;
# ``F`` and ``Finv`` are the same for ``f_block``.


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


def _inverse_entries(block, zero):
    """``inv(key, r, c)``: the entry of the inverse of ``block(*key)`` at row ``r``
    (a column label of the block) and column ``c`` (a row label); 0 where either
    label is not in the block.  Each block is inverted once."""
    cache = {}

    def inv(key, r, c):
        hit = cache.get(key)
        if hit is None:
            rows, cols, mat = block(*key)
            hit = cache[key] = ({lab: n for n, lab in enumerate(cols)},
                                {lab: n for n, lab in enumerate(rows)},
                                mat.inverse() if mat.rows else mat)
        r_at, c_at, mat = hit
        if r in r_at and c in c_at:
            return mat[r_at[r], c_at[c]]
        return zero
    return inv


def build_character_probe_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Module end of ``ldual(F(-)) x G(-)`` over the source module.

    ``f`` and ``g`` must land in the regular module of the base; restricted to
    the label ``p`` (``restrict_carrier``) the system computes
    ``dim Hom(p, end object)`` of the internal-character end.

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
    field, dual, unit = f.field, base.dual, base.unit
    l_inv = _inverse_entries(mt.l_block, field.zero)
    f_inv = _inverse_entries(bt.f_block, field.zero)
    f_copies = {i: [(k, a) for k, n in ftab.images[i] for a in range(n)] for i in f.src.simples}
    g_copies = {i: [(l, b) for l, n in gtab.images[i] for b in range(n)] for i in f.src.simples}
    carrier, column = _labelled_carrier(
        {i: [(k, a, l, b, p) for k, a in f_copies[i] for l, b in g_copies[i]
             for p in bt.fuse(dual[k], l)] for i in f.src.simples}, f.src.simples)
    dim = len(column)
    conditions = []
    for X in base.simples:
        Xd = dual[X]
        for i in f.src.simples:
            c_g = blocks._c_entries(gtab, X, i)
            lhs = mt.unit_scalar(i) * bt.ev[X]
            rows = [(s, w, k, a, l, b, p) for s in mt.act_set(X, i) for w in mt.act_set(Xd, s)
                    for k, a in f_copies[w] for l, b in g_copies[i] for p in bt.fuse(dual[k], l)]
            mat = Matrix.zeros(field, len(rows), dim)
            for r, (s, w, k, a, l, b, p) in enumerate(rows):
                at = r * dim
                if w == i:
                    mat.entries[at + column[i, (k, a, l, b, p)]] += \
                        lhs * l_inv((Xd, X, i, i), unit, s)
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
                                cg * f_inv((dual[k2], X, l, p), dual[k], l2) * cf
            conditions.append(Condition(generator=(X, i), matrix=mat))
    return DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                           kind="end", recipe="character-probe", meta={"base": base})


def build_serre_probe_system(m: ModuleCategorySpec, i: str) -> DinaturalSystem:
    """Coend over the opposite module computing the Serre image of ``m_i``.

    The coend of ``uhom(m_i, -)* act -`` over the opposite (right) module is
    probed with ``Hom(-, m_p)``, which turns its relations into an end-type
    system on coordinate functionals; restricted to the label ``p``, the
    nullspace dimension is the multiplicity of ``m_p`` in the coend object.

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
    ``uhom-shift-second`` identity.
    """
    base = m.base
    base.duality()
    bt, mt = base.tables, m.tables
    field, dual, unit = m.field, base.dual, base.unit
    L = mt._l_entry
    l_inv = _inverse_entries(mt.l_block, field.zero)
    us = {j: [Y for Y in base.simples if mt.n(Y, i, j)] for j in m.simples}
    carrier, column = _labelled_carrier(
        {u: [(Y, t) for Y in us[u] for t in mt.act_set(dual[Y], u)] for u in m.simples},
        m.simples)
    dim = len(column)

    def action_iso(X, u, Z):
        """``M_Z`` of ``(X, m_u)`` as the block of ``_inverse_entries``."""
        rows = [q for q in mt.act_set(X, u) if Z in us[q]]
        cols = [Y for Y in us[u] if bt.n(X, Y, Z)]
        return rows, cols, Matrix(field, len(rows), len(cols),
                                  [L(X, Y, i, u, Z, q) for q in rows for Y in cols])

    m_inv = _inverse_entries(action_iso, field.zero)
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
                            phi * lval * l_inv((dual[Y], Xd, q, t), dual[Z], s)
                            * m_inv((X, u, Z), Y, q) / blocks.phi_r_scalar(bt, X, Y, Z))
            conditions.append(Condition(generator=(X, u), matrix=mat))
    return DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                           kind="end", recipe="serre-coend-probe",
                           meta={"base": base, "input": i})


def build_upsilon_probe_system(reg_module: ModuleCategorySpec, x: str) -> DinaturalSystem:
    """Double-dual end over the regular module, read label by label.

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
    F = bt._f_entry
    f_inv = _inverse_entries(bt.f_block, field.zero)
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
                            f_inv((x, m, Y, q2), q, n) * f_inv((Z, n, Yd, q), q2, w)
                            * F(q, Y, Yd, q, q2, unit) * bt.lev[Y])
            conditions.append(Condition(generator=(Y, m), matrix=mat))
    return DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                           kind="end", recipe="upsilon-probe",
                           meta={"base": base, "x": x})
