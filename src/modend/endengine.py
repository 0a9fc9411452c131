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
dimension is that label's multiplicity.
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


def _labelled_carrier(objects: Mapping[str, Obj], order: Sequence[str]):
    """One block per diagonal object, one coordinate per summand, tagged by its label."""
    out = []
    offset = 0
    for key in order:
        basis = tuple((lab, pos) for pos, lab in enumerate(objects[key].labels))
        out.append(CarrierBlock(simple=key, basis=basis, offset=offset))
        offset += len(basis)
    return out


def _unit_matrix(field, rows, cols, r, c):
    m = Matrix.zeros(field, rows, cols)
    m[r, c] = field.one
    return m


def _decomposition_sum(bt: blocks.BaseTables, A: Obj, term) -> dict:
    """``sum term(q, p_q, i_q).mat`` over the summands of ``A``, grouped by label ``q``.

    ``p_q: A -> q`` and ``i_q: q -> A`` are the projection onto and the
    inclusion of one summand, so the sum extends a morphism on simples to ``A``.
    """
    out = {}
    for qp, q in enumerate(A.labels):
        sq = _simple(bt, q)
        p_q = Mor(A, sq, _unit_matrix(bt.field, 1, len(A), 0, qp))
        i_q = Mor(sq, A, _unit_matrix(bt.field, len(A), 1, qp, 0))
        mat = term(q, p_q, i_q).mat
        out[q] = out[q] + mat if q in out else mat
    return out


def _balancing_matrix(field: FieldSpec, carrier, lhs_block: str, lhs: Matrix,
                      rhs: Mapping[str, Matrix]) -> Matrix:
    """Condition matrix of one balancing equation on a labelled carrier.

    ``lhs`` acts on block ``lhs_block`` and ``rhs[q]`` on block ``q``; the
    condition on the coordinate at position ``pos`` of block ``q`` is column
    ``pos`` of ``[q == lhs_block] lhs - rhs[q]``.
    """
    columns = []
    for block in carrier:
        diff = lhs if block.simple == lhs_block else Matrix.zeros(field, lhs.rows, block.dim)
        if block.simple in rhs:
            diff = diff - rhs[block.simple]
        columns.extend(diff.entries[pos::block.dim] for pos in range(block.dim))
    return _column_matrix(field, columns, lhs.rows)


def build_character_probe_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Module end of ``ldual(F(-)) x G(-)`` over the source module.

    ``f`` and ``g`` must land in the regular module of the base; restricted to
    the label ``p`` (``restrict_carrier``) the system computes
    ``dim Hom(p, end object)`` of the internal-character end.  The
    pre-balancing is assembled from the functor coherences, ``phi_l`` and the
    dual transpose of ``c``.
    """
    if f.src is not g.src:
        raise SourceTargetMismatch("functors must share their source")
    base = f.src.base
    bt = base.tables
    reg = bt.regular()
    for h in (f, g):
        if h.dst.tables is not reg:
            raise SourceTargetMismatch(
                f"functor {h.name!r} must land in the regular module of the base")
    base.duality()
    mt = f.src.tables
    ftab, gtab = f.tables, g.tables

    def fobj(N: Obj) -> Obj:
        return blocks.f_obj(ftab, N)

    def gobj(N: Obj) -> Obj:
        return blocks.f_obj(gtab, N)

    def s_obj(A: Obj, B: Obj) -> Obj:
        return blocks.ctensor(bt, blocks.ldual_flat(bt, fobj(A)), gobj(B))

    s_diag = {i: s_obj(_simple(bt, i), _simple(bt, i)) for i in f.src.simples}
    carrier = _labelled_carrier(s_diag, f.src.simples)
    conditions = []
    for X in base.simples:
        sx = _simple(bt, X)
        Xd = base.dual[X]
        sxd = _simple(bt, Xd)
        for i in f.src.simples:
            mi = _simple(bt, i)
            A = blocks.act_c(mt, sx, mi)
            fa = fobj(A)
            gmi = gobj(mi)
            lfa = blocks.ldual_flat(bt, fa)
            # LHS: S(eps, id) on the diagonal block at i
            eps = blocks.eps_flat(mt, sx, mi)
            l1 = blocks.act_mor(reg, blocks.ldual_mor(bt, blocks.f_mor(ftab, eps)), gmi)
            # RHS: the pre-balancing (a fixed post-composition) after extension
            d = blocks.c_mor(gtab, sx, mi)                 # G(A) -> X x G(m_i)
            st1 = blocks.whisker_c(reg, lfa, d)
            regroup = blocks.assoc_inv(reg, lfa, sx, gmi)
            tau = blocks.act_mor(reg, blocks.phi_l(bt, sxd, fa).inverse(), gmi)
            cf = blocks.c_mor(ftab, sxd, A)                # F(X* act A) -> X* x F(A)
            st4 = blocks.act_mor(reg, blocks.ldual_mor(bt, cf), gmi)
            beta_chain = st4 * tau * regroup * st1
            rhs = _decomposition_sum(bt, A, lambda q, p_q, i_q: beta_chain
                                     * blocks.ctensor_mor(bt, blocks.ldual_mor(
                                         bt, blocks.f_mor(ftab, p_q)), blocks.f_mor(gtab, i_q)))
            cond = _balancing_matrix(f.field, carrier, i, l1.mat, rhs)
            conditions.append(Condition(generator=(X, i), matrix=cond))
    return DinaturalSystem(field=f.field, blocks=carrier, conditions=conditions,
                           kind="end", recipe="character-probe", meta={"base": base})


def build_serre_probe_system(m: ModuleCategorySpec, i: str) -> DinaturalSystem:
    """Coend over the opposite module computing the Serre image of ``m_i``.

    The coend of ``uhom(m_i, -)* act -`` over the opposite (right) module is
    probed with ``Hom(-, m_p)``, which turns its relations into an end-type
    system on coordinate functionals; restricted to the label ``p``, the
    nullspace dimension is the multiplicity of ``m_p`` in the coend object.
    """
    base = m.base
    base.duality()
    bt = base.tables
    mt = m.tables
    field = m.field
    mi = _simple(bt, i)

    def uh(v_obj: Obj) -> Obj:
        return blocks.uhom_obj(mt, mi, v_obj)

    t_diag = {}
    for u in m.simples:
        su = _simple(bt, u)
        t_diag[u] = blocks.act_c(mt, blocks.rdual_flat(bt, uh(su)), su)
    carrier = _labelled_carrier(t_diag, m.simples)
    conditions = []
    for X in base.simples:
        sx = _simple(bt, X)
        sxd = _simple(bt, base.dual[X])
        for u in m.simples:
            su = _simple(bt, u)
            rd_uh_u = blocks.rdual_flat(bt, uh(su))
            # Gamma1: the first-slot move along the transposed left coevaluation
            ghat = blocks.unit_l(mt, su) \
                * blocks.act_mor(mt, blocks.rdual_mor(bt, blocks.lcoev_flat(bt, sx)), su)
            gamma1 = blocks.whisker_c(mt, rd_uh_u, ghat)
            # inverse of the opposite-module associativity, underlying morphism
            s1 = blocks.whisker_c(mt, rd_uh_u, blocks.assoc(mt, sxd, sx, su)
                                  * blocks.act_mor(mt, blocks.phi_r(bt, sxd, sx), su))
            # the pre-balancing of the Serre coend
            U0 = blocks.act_c(mt, sx, su)
            gb = blocks.rdual_mor(bt, blocks.uhom_left_tensor_iso(mt, X, mi, su)).inverse() \
                * blocks.phi_r(bt, sx, uh(su)).inverse()
            gamma = blocks.act_mor(mt, gb, U0) * blocks.assoc_inv(mt, rd_uh_u, sxd, U0)
            rd_uh_U0 = blocks.rdual_flat(bt, uh(U0))
            rhs = _decomposition_sum(bt, U0, lambda q, p_q, i_q: blocks.act_mor(
                mt, blocks.rdual_mor(bt, blocks.uhom_mor_second(mt, mi, i_q)), _simple(bt, q))
                * blocks.whisker_c(mt, rd_uh_U0, p_q) * gamma * s1)
            # probed with Hom(-, m_p), the coend's coordinates are functionals: transpose
            cond = _balancing_matrix(field, carrier, u, gamma1.mat.transpose(),
                                     {q: t.transpose() for q, t in rhs.items()})
            conditions.append(Condition(generator=(X, u), matrix=cond))
    return DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                           kind="end", recipe="serre-coend-probe",
                           meta={"base": base, "input": i})


def build_upsilon_probe_system(reg_module: ModuleCategorySpec, x: str) -> DinaturalSystem:
    """Double-dual end over the regular module, read label by label.

    The end runs over the dual category realized by right multiplications:
    one condition per (simple Y, module simple m), with the pre-balancing
    assembled from the internal-hom adjunction shift along ``- x Y``.
    """
    base = reg_module.base
    base.duality()
    bt = base.tables
    rt = reg_module.tables
    field = reg_module.field
    sx = _simple(bt, x)
    one = _simple(bt, base.unit)

    def g_of(N: Obj) -> Obj:
        return blocks.act_c(rt, sx, N)

    def counit(N: Obj, Y: str) -> Mor:
        """(N x Y) x *Y -> N via the left-dual evaluation of Y."""
        sy, syd = _simple(bt, Y), _simple(bt, base.dual[Y])
        e1 = blocks.assoc(rt, N, sy, syd)
        inner = blocks.zeta_flat(rt, sy, one) \
            * blocks.whisker_c(rt, sy, blocks.runit_reg_inv(bt, syd))
        e2 = blocks.whisker_c(rt, N, inner)
        return blocks.runit_reg(bt, N) * e2 * e1

    s_diag = {mm: blocks.uhom_obj(rt, _simple(bt, mm), g_of(_simple(bt, mm)))
              for mm in reg_module.simples}
    carrier = _labelled_carrier(s_diag, reg_module.simples)
    conditions = []
    for Y in base.simples:
        sy, syd = _simple(bt, Y), _simple(bt, base.dual[Y])
        for mm in reg_module.simples:
            sm = _simple(bt, mm)
            Fm = blocks.act_c(rt, sm, sy)                 # m x Y
            Gm = g_of(sm)
            GFm = g_of(Fm)
            FlaM = blocks.act_c(rt, Fm, syd)              # (m x Y) x *Y
            lhs = blocks.uhom_mor_first(rt, counit(sm, Y), Gm)
            # gamma = xi after uhom(id, d)
            d = blocks.assoc(rt, sx, sm, sy).inverse()    # G(F(m)) -> F(G(m))
            FGm = blocks.act_c(rt, Gm, sy)
            ud = blocks.uhom_mor_second(rt, Fm, d)
            Z = blocks.uhom_obj(rt, Fm, FGm)
            h1 = blocks.evh_mor(rt, Fm, FGm)
            b = blocks.assoc(rt, Z, Fm, syd)
            omega = counit(Gm, Y) * blocks.act_mor(rt, h1, syd)
            xi = blocks.psi_reshuffle(rt, Z, FlaM, Gm, omega * b.inverse())
            gamma = xi * ud
            rhs = _decomposition_sum(bt, Fm, lambda q, p_q, i_q: gamma
                                     * (blocks.uhom_mor_first(rt, p_q, GFm)
                                        * blocks.uhom_mor_second(rt, _simple(bt, q),
                                                                 blocks.whisker_c(rt, sx, i_q))))
            cond = _balancing_matrix(field, carrier, mm, lhs.mat, rhs)
            conditions.append(Condition(generator=(Y, mm), matrix=cond))
    return DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                           kind="end", recipe="upsilon-probe",
                           meta={"base": base, "x": x})
