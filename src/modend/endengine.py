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
only.  A module pre-balancing is compatible with the tensor product, so the
condition at ``X x Y`` follows from those at ``X`` and ``Y``, the condition at
a summand of ``X x Y`` follows by naturality, and the unit's conditions vanish
on gated data.  Every command therefore balances only at
``fusioncat.tensor_generators`` of the base, one simple on the corpus and on
Z/n: the object-valued probes below always, and the ``Hom(F(-), G(-))``
family at the simples its callers pass (``end --restrict D`` at a
tensor-generating set of D).  Called with no simples, the Hom family writes
every simple X, the reference that ``restrict_conditions`` filters; the nat
writer, given the evaluation of ``X x Y`` nested from those of X and Y, also
writes ``composite_nat_conditions``, so the property suite can verify that
the reduction never shrinks the solution space.

Every builder writes each condition entry by entry and composes no
morphisms: an entry is a sum, over intermediate labels, of products of F-,
L- and c-symbols, entries of inverse F- and L-blocks (kept on the specs)
and duality scalars, in the closed form its docstring gives.  The
``Hom(F(-), G(-))`` family has a carrier coordinate per pair of copies of
one simple in ``F(m_i)`` and ``G(m_i)``.

Object-valued ends and coends (internal characters, the Serre-functor coend,
the double-dual end) are built once, by ``_probe_system``, over a carrier that
keeps every summand of each diagonal object tagged with its label.  By
Schur's lemma no condition row has entries on two labels, so the system is
block-diagonal by label: the multiplicity of a label, its Hom-probe
``Hom(label, -)``, is the nullity of its block (``theorems._multiplicities``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from . import blocks
from .blocks import _memoized
from .common import SourceTargetMismatch
from .fusioncat import tensor_generators, tensor_subcategory
from .modcat import ModuleCategorySpec, regular_module
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
    """Keep only the conditions whose generator lies in the label subset.

    The all-simples reference for a tensor subcategory's end, which the
    acceptance gates read: ``sys`` must balance at every simple of its base,
    as a Hom builder called with no ``at`` does.  A system built at fewer
    simples (its ``meta["at"]``, as a probe system always is) raises
    ``ValueError``, since filtering it would drop conditions the subcategory
    needs; ``end --restrict`` instead builds at ``tensor_generators`` of the
    subcategory.
    """
    base, at = sys.meta.get("base"), sys.meta.get("at")
    if base is not None and at is not None and set(at) != set(base.simples):
        raise ValueError(f"{sys.recipe} system balances at {list(at)}, not at every simple")
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


def check_hom_pair(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> None:
    """Raise ``SourceTargetMismatch`` unless ``f`` and ``g`` share source and target."""
    if f.src is not g.src or f.dst is not g.dst:
        raise SourceTargetMismatch("functors must share source and target")


def _nat_carrier(f: ModuleFunctorSpec, g: ModuleFunctorSpec):
    """The carrier, a block per ``m_i`` with a coordinate per copy pair ``(k, a, b)``,
    and the column of each coordinate ``(i, k, a, b)``; ``check_hom_pair`` first."""
    check_hom_pair(f, g)
    carrier, column = [], {}
    for i in f.src.simples:
        basis, offset = [], len(column)
        for k in f.dst.simples:
            for a in range(f.mult(i, k)):
                for b in range(g.mult(i, k)):
                    column[i, k, a, b] = len(column)
                    basis.append((k, a, b))
        carrier.append(CarrierBlock(simple=i, basis=tuple(basis), offset=offset))
    return carrier, column


def _zero_condition(field, rows: int, column: dict) -> Matrix:
    """The zero condition with ``rows`` rows over the carrier; 0 x 0 on an empty one."""
    return Matrix.zeros(field, rows if column else 0, len(column))


def _copies(h: ModuleFunctorSpec) -> dict:
    """``i -> [(k, a), ...]``: the copies of simples in ``H(m_i)``, in ``f_obj`` order."""
    return {i: [(k, a) for k, n in h.images[i] for a in range(n)] for i in h.src.simples}


def _check_simples(base, labels) -> None:
    """Raise ``SourceTargetMismatch`` at the first label that is not a simple of ``base``."""
    for X in labels:
        if X not in base.simples:
            raise SourceTargetMismatch(f"{X!r} is not a simple of the base")


@_memoized
def _evaluation(m, X: str, p: str) -> dict:
    """``eps(X, p)``: the evaluation ``X* act (X act m_p) -> m_p`` on its summand
    through ``s in X act m_p``, ``lambda_p ev[X] Linv(X*,X,p; p)[1, s]``."""
    base = m.base
    inv, scale = m.l_inverse(base.dual[X], X, p, p), m.unit_scalar(p) * base.ev[X]
    return {s: scale * inv.get((base.unit, s), m.field.zero) for s in m.act_set(X, p)}


def _assemble(base, carrier, column: dict, at, condition, kind: str, recipe: str,
              **meta) -> DinaturalSystem:
    """The system over ``carrier`` with one condition per generator ``(X, block.simple)``.

    ``X`` runs over ``at``, in its order (a non-simple raises
    ``SourceTargetMismatch``), and ``block`` over the carrier; ``meta["at"]``
    records ``at``.  ``condition(column, X, block)`` returns the condition
    matrix of the generator, ``column`` mapping a carrier coordinate to its
    column.  Without ``condition`` the system has no conditions.  The base's
    duality data is computed first.
    """
    _check_simples(base, at)
    base.duality()
    conditions = [Condition(generator=(X, block.simple), matrix=condition(column, X, block))
                  for X in at for block in carrier] if condition else []
    return DinaturalSystem(field=base.field, blocks=carrier, conditions=conditions, kind=kind,
                           recipe=recipe, meta={"base": base, **meta, "at": at})


def _hom_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec, kind: str, recipe: str,
                condition, at: Sequence[str] | None = None) -> DinaturalSystem:
    """The system on ``Hom(F(-), G(-))`` with one condition per generator ``(X, m_i)``.

    ``X`` runs over ``at``, in its order, or over every simple of the base
    when ``at`` is None.  Balancing at a tensor-generating set
    (``fusioncat.tensor_generators``) cuts out the space that every simple
    does (see the module docstring).  ``condition(column, X, block)`` is
    ``_assemble``'s callback, ``column`` that of ``_nat_carrier``.
    """
    base = f.src.base
    carrier, column = _nat_carrier(f, g)
    return _assemble(base, carrier, column, tuple(base.simples if at is None else at),
                     condition, kind, recipe, f=f, g=g)


def ordinary_end_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """The ordinary end of ``Hom(F(-), G(-))``: the carrier, free of conditions."""
    return _hom_system(f, g, "end", "ordinary", None)


def _balancing(f: ModuleFunctorSpec, g: ModuleFunctorSpec, column: dict, copies,
               pairs, evaluation, i: str) -> Matrix:
    """The balancing condition of generator ``(W, m_i)`` on ``Hom(F(-), G(-))``.

    It equates ``theta_{m_i} F(epsW)`` with ``epsW' (id_{W*} act (c_G
    theta_{W act m_i})) c_F`` on ``F(W* act (W act m_i))``.  ``pairs`` are the
    summands ``(w, z)``, ``w in W*`` and ``z in W``, ``evaluation(m, p)``
    is ``epsW(p)`` keyed ``(w, z, s)`` for ``s in z act m_p``, and ``copies``
    the ``_copies`` of ``f`` and ``g``.  The rows run over copies ``(l,b)`` in
    ``G(m_i)``, then ``(w, z)``, ``s in z act m_i``, ``t in w act m_s`` and
    copies ``(k',a')`` in ``F(m_t)``.  The left-hand side, where ``t = i`` and
    ``k' = l``, is ``epsW(i)[w,z,s]`` at ``(l,a',b)`` of block ``i``.  The
    right-hand side at ``(k,a,b')`` of block ``s`` is ``cF(w,s)[(k,a,l),
    (t,k',a')] cG(z,i)[(l,b,k), (s,k,b')] epsW'(l)[w,z,k]``, with ``epsW'``
    the evaluation of the target module.
    """
    (f_copies, g_copies), src, zero = copies, f.src, f.field.zero
    cols = [(w, z, s, t, k, a) for w, z in pairs for s in src.act_set(z, i)
            for t in src.act_set(w, s) for k, a in f_copies[t]]
    eps = evaluation(src, i)
    mat = _zero_condition(f.field, len(g_copies[i]) * len(cols), column)
    for r, (l, b) in enumerate(g_copies[i]):
        eps_l = evaluation(f.dst, l)
        for c, (w, z, s, t, k2, a2) in enumerate(cols):
            start = (r * len(cols) + c) * len(column)
            if t == i and k2 == l:
                mat.entries[start + column[i, l, a2, b]] += eps.get((w, z, s), zero)
            c_f, c_g = blocks._c_entries(f, w, s), blocks._c_entries(g, z, i)
            for k, a in f_copies[s]:
                cf = c_f.get((k, a, l, t, k2, a2))
                for b2 in range(g.mult(s, k)) if cf else ():
                    cg = c_g.get((l, b, k, s, k, b2))
                    if cg:
                        mat.entries[start + column[s, k, a, b2]] -= \
                            cf * cg * eps_l.get((w, z, k), zero)
    return mat


def build_nat_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec,
                     at: Sequence[str] | None = None) -> DinaturalSystem:
    """Module-end system for ``Hom(F(-), G(-))`` with its canonical pre-balancing.

    It balances at the simples ``at`` of the base, every simple when None
    (``_hom_system``); the commands pass ``tensor_generators``.  Generator
    ``(X, m_i)`` is ``_balancing`` at the one pair ``(X*, X)``, with ``eps``.
    """
    dual = f.src.base.dual
    copies = _copies(f), _copies(g)

    def balancing(column, X, block):
        return _balancing(f, g, column, copies, [(dual[X], X)], lambda m, p: {
            (dual[X], X, s): e for s, e in _evaluation(m, X, p).items()}, block.simple)

    return _hom_system(f, g, "end", "hom-end", balancing, at)


def nat_oracle_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec,
                      at: Sequence[str] | None = None) -> DinaturalSystem:
    """Direct module-naturality system: d theta_{X act m} = (id_X act theta_m) c.

    Naturality at ``X x Y`` follows from naturality at ``X`` and ``Y`` through
    the coherence of ``c``, so, like ``build_nat_system``, it is written at
    the simples ``at``, every simple when None.

    The rows of generator ``(X, m_i)`` run over copies ``(l,b)`` in ``G(m_i)``
    and ``u in X act m_l``, then ``s in X act m_i`` and copies ``(k,a)`` in
    ``F(m_s)``.  The left-hand side is ``cG(X,i)[(l,b,u), (s,k,b')]`` at
    ``(k,a,b')`` of block ``s``, the right-hand side
    ``cF(X,i)[(l,a',u), (s,k,a)]`` at ``(l,a',b)`` of block ``i``.
    """
    f_copies, g_copies = _copies(f), _copies(g)

    def naturality(column, X, block):
        i = block.simple
        rows = [(l, b, u) for l, b in g_copies[i] for u in f.dst.act_set(X, l)]
        cols = [(s, k, a) for s in f.src.act_set(X, i) for k, a in f_copies[s]]
        c_f, c_g = blocks._c_entries(f, X, i), blocks._c_entries(g, X, i)
        mat = _zero_condition(f.field, len(rows) * len(cols), column)
        for r, (l, b, u) in enumerate(rows):
            for c, (s, k, a) in enumerate(cols):
                start = (r * len(cols) + c) * len(column)
                for b2 in range(g.mult(s, k)):
                    cg = c_g.get((l, b, u, s, k, b2))
                    if cg:
                        mat.entries[start + column[s, k, a, b2]] += cg
                for a2 in range(f.mult(i, l)):
                    cf = c_f.get((l, a2, u, s, k, a))
                    if cf:
                        mat.entries[start + column[i, l, a2, b]] -= cf
        return mat

    return _hom_system(f, g, "end", "module-naturality-oracle", naturality, at)


def composite_nat_conditions(f: ModuleFunctorSpec, g: ModuleFunctorSpec,
                             carrier, X: str, Y: str) -> list:
    """Balancing conditions generated by the decomposed object ``W = X x Y``.

    ``_balancing`` at the pairs of ``Y* x X*`` and ``X x Y``, tagged ``(X*Y,
    m_i)``, with the evaluation nested through the module's associators, so
    they test the simple-generator reduction instead of assuming it:
    ``epsW(p)[w,z,s] = sum_r L(Y*,X*,s; r,w,p) L(X,Y,p; r,z,s) eps(X,r)[s]
    eps(Y,p)[r]``.  ``carrier`` must be that of ``f`` and ``g`` (as in
    ``build_nat_system``) and ``X``, ``Y`` simples of the base.
    """
    own, column = _nat_carrier(f, g)
    if list(carrier) != own:
        raise SourceTargetMismatch("carrier is not the Hom(F(-), G(-)) carrier of the functors")
    base, zero = f.src.base, f.field.zero
    _check_simples(base, (X, Y))
    Xd, Yd = base.dual[X], base.dual[Y]
    ws, zs = base.fuse(Yd, Xd), base.fuse(X, Y)
    copies = _copies(f), _copies(g)

    def nested_eps(m, p):
        L, eps_w = m.l_symbol, {}
        eps_y = _evaluation(m, Y, p)
        for r in m.act_set(Y, p):
            eps_x = _evaluation(m, X, r)
            for s in m.act_set(X, r):
                for z in zs:
                    lz = L(X, Y, p, r, z, s)
                    for w in ws if lz else ():
                        lw = L(Yd, Xd, s, r, w, p)
                        if lw:
                            eps_w[w, z, s] = eps_w.get((w, z, s), zero) \
                                + lw * lz * eps_x[s] * eps_y[r]
        return eps_w

    pairs = [(w, z) for w in ws for z in zs]
    return [Condition(generator=(f"{X}*{Y}", i),
                      matrix=_balancing(f, g, column, copies, pairs, nested_eps, i))
            for i in f.src.simples]


def build_hom_coend_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec,
                           at: Sequence[str] | None = None) -> DinaturalSystem:
    """Module-coend relations for ``Hom(F(-), G(-))``.

    It relates at the simples ``at`` of the base, every simple when None
    (``_hom_system``); the commands pass ``tensor_generators``, whose
    relations span those of every simple, so the rank is the same.

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
    src = f.src
    f_copies = _copies(f)

    def relations(column, X, block):
        i, Xd = block.simple, base.dual[X]
        scale = base.coev[X] / src.unit_scalar(i)
        g0 = {j: src.l_symbol(X, Xd, i, j, base.unit, i) * scale
              for j in src.act_set(Xd, i)}
        c_f, n = blocks._c_entries(f, Xd, i), len(block.basis)
        mat = Matrix.zeros(f.field, len(column), n)
        for c, (k, a, b) in enumerate(block.basis):
            mat.entries[column[i, k, a, b] * n + c] += f.field.one
            for j, g0_j in g0.items():
                c_g = blocks._c_entries(g, X, j)
                for k2, a2 in f_copies[j]:
                    cf = c_f.get((k, a, k2, j, k2, a2))
                    for b2 in range(g.mult(j, k2)) if cf and g0_j else ():
                        cg = c_g.get((k2, b2, k, i, k, b))
                        if cg:
                            mat.entries[column[j, k2, a2, b2] * n + c] -= \
                                cf * g0_j * cg * _evaluation(f.dst, X, k2)[k]
        return mat

    return _hom_system(f, g, "coend", "hom-coend", relations, at)


# ---------------------------------------------------------------------------
# object-valued ends and coends, block-diagonal by label, on ``_probe_system``,
# in the notation above: the left-hand side on the generator's own block and
# the right-hand side on the block of each summand it passes through


def _probe_system(base, summands: Mapping[str, Sequence[tuple]], recipe: str, condition,
                  **meta) -> DinaturalSystem:
    """An object-valued end system, balanced at ``tensor_generators`` of ``base``:
    the conditions at the other simples follow from these (see the module docstring).

    The carrier has one block per key of ``summands``, in its order, and one
    coordinate per summand of the diagonal object at that key, tagged by the
    summand's last entry, its label.  ``condition(column, X, block)`` is
    ``_assemble``'s callback, ``column[key, summand]`` the column of a summand.
    """
    carrier, column = [], {}
    for key, objs in summands.items():
        basis, offset = [], len(column)
        for pos, summand in enumerate(objs):
            column[key, summand] = len(column)
            basis.append((summand[-1], pos))
        carrier.append(CarrierBlock(simple=key, basis=tuple(basis), offset=offset))
    return _assemble(base, carrier, column, tensor_generators(base), condition, "end", recipe,
                     **meta)


def build_character_probe_system(f: ModuleFunctorSpec, g: ModuleFunctorSpec) -> DinaturalSystem:
    """Module end of ``ldual(F(-)) x G(-)`` over the source module.

    ``f`` and ``g`` must land in the regular module of the base; the
    nullity of its rows on the label ``p`` counts ``dim Hom(p, end object)``
    of the internal-character end.

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
    for h in (f, g):
        if h.dst is not regular_module(base):
            raise SourceTargetMismatch(
                f"functor {h.name!r} must land in the regular module of the base")
    m = f.src
    field, dual, zero = f.field, base.dual, f.field.zero
    f_copies, g_copies = _copies(f), _copies(g)

    def balancing(column, X, block):
        i, Xd, dim = block.simple, dual[X], len(column)
        c_g, eps = blocks._c_entries(g, X, i), _evaluation(m, X, i)
        rows = [(s, w, k, a, l, b, p) for s in m.act_set(X, i) for w in m.act_set(Xd, s)
                for k, a in f_copies[w] for l, b in g_copies[i] for p in base.fuse(dual[k], l)]
        mat = Matrix.zeros(field, len(rows), dim)
        for r, (s, w, k, a, l, b, p) in enumerate(rows):
            at = r * dim
            if w == i:
                mat.entries[at + column[i, (k, a, l, b, p)]] += eps[s]
            c_f = blocks._c_entries(f, Xd, s)
            for k2, a2 in f_copies[s]:
                cf = c_f.get((k2, a2, k, w, k, a))
                if not cf:
                    continue
                cf = cf / blocks.phi_l_scalar(base, Xd, k2, k)
                for l2, b2 in g_copies[s]:
                    cg = c_g.get((l, b, l2, s, l2, b2))
                    if cg and (s, (k2, a2, l2, b2, p)) in column:
                        mat.entries[at + column[s, (k2, a2, l2, b2, p)]] -= \
                            cg * base.f_inverse(dual[k2], X, l, p).get((dual[k], l2), zero) * cf
        return mat

    return _probe_system(base, {i: [(k, a, l, b, p) for k, a in f_copies[i] for l, b in g_copies[i]
                                    for p in base.fuse(dual[k], l)] for i in f.src.simples},
                         "character-probe", balancing)


def build_serre_probe_system(m: ModuleCategorySpec, i: str) -> DinaturalSystem:
    """Coend over the opposite module computing the Serre image of ``m_i``.

    The coend of ``uhom(m_i, -)* act -`` over the opposite (right) module is
    probed with ``Hom(-, m_p)``, which turns its relations into an end-type
    system on coordinate functionals whose nullity on the label ``p`` counts
    ``m_p`` in the coend.  An ``i`` not in ``m.simples`` raises ``SourceTargetMismatch``.

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
    ``uhom-shift-second`` identity.  Each ``M_Z`` is inverted once per build
    by ``blocks.inverse_entries``; on pointed tables it is 1 x 1 and is
    inverted as its one element.
    """
    if i not in m.simples:
        raise SourceTargetMismatch(f"{i!r} is not a simple of {m.name!r}")
    base = m.base
    field, dual, unit, zero = m.field, base.dual, base.unit, m.field.zero
    L = m.l_symbol
    us = {j: [Y for Y in base.simples if m.n(Y, i, j)] for j in m.simples}
    m_inv = {}

    def action_iso_inverse(X, u, Z, Y, q):
        """``M_Z^-1[Y, q]`` of ``(X, m_u)``, with ``M_Z`` inverted once per build."""
        if (X, u, Z) not in m_inv:
            rows = [r for r in m.act_set(X, u) if Z in us[r]]
            cols = [c for c in us[u] if base.n(X, c, Z)]
            m_inv[X, u, Z] = blocks.inverse_entries(rows, cols, Matrix(
                field, len(rows), len(cols), [L(X, c, i, u, Z, r) for r in rows for c in cols]))
        return m_inv[X, u, Z].get((Y, q), zero)

    def balancing(column, X, block):
        u, Xd, dim = block.simple, dual[X], len(column)
        lhs = base.lcoev[X] * m.unit_scalar(u)
        rows = [(Y, z, s, t) for Y in us[u] for z in base.fuse(Xd, X)
                for s in m.act_set(dual[z], u) for t in m.act_set(dual[Y], s)]
        mat = Matrix.zeros(field, len(rows), dim)
        for r, (Y, z, s, t) in enumerate(rows):
            at = r * dim
            if z == unit:
                mat.entries[at + column[u, (Y, t)]] += lhs
            phi = blocks.phi_r_scalar(base, Xd, X, z)
            for q in m.act_set(X, u):
                lval = L(Xd, X, u, q, dual[z], s)
                if not lval:
                    continue
                for Z in us[q]:
                    if (q, (Z, t)) not in column or not base.n(X, Y, Z):
                        continue
                    mat.entries[at + column[q, (Z, t)]] -= (
                        phi * lval * m.l_inverse(dual[Y], Xd, q, t).get((dual[Z], s), zero)
                        * action_iso_inverse(X, u, Z, Y, q)
                        / blocks.phi_r_scalar(base, X, Y, Z))
        return mat

    return _probe_system(base, {u: [(Y, t) for Y in us[u] for t in m.act_set(dual[Y], u)]
                                for u in m.simples}, "serre-coend-probe", balancing, input=i)


def build_upsilon_probe_system(reg_module: ModuleCategorySpec, x: str) -> DinaturalSystem:
    """Double-dual end over the regular module, block-diagonal by label.

    The end runs over the dual category realized by right multiplications:
    one condition per (simple Y, module simple m), with the pre-balancing
    assembled from the internal-hom adjunction shift along ``- x Y``.  An
    ``x`` that is not a simple of the base raises ``SourceTargetMismatch``.

    Block ``m`` has a coordinate per ``q in x x m`` and ``Z`` with
    ``q in Z x m``.  The rows of generator ``(Y, m)`` run over ``n in m x Y``,
    ``w in n x Y*``, ``q in x x m`` and ``Z`` with ``q in Z x w``.  The
    left-hand side, where ``w = m``, is ``F(m,Y,Y*; m; n,1) lev[Y]`` at
    ``(q, Z)`` of block ``m``.  The right-hand side at ``(q', Z)`` of block
    ``n``, for ``q' in x x n`` with ``q' in Z x n`` and ``q' in q x Y``, is
    ``Finv(x,m,Y; q'; q,n) Finv(Z,n,Y*; q; q',w) F(q,Y,Y*; q; q',1) lev[Y]``.
    """
    base = reg_module.base
    if reg_module is not regular_module(base):
        raise SourceTargetMismatch(f"{reg_module.name!r} is not the regular module of the base")
    _check_simples(base, [x])
    field, dual, unit = reg_module.field, base.dual, base.unit
    F, zero = base.f_symbol, field.zero

    def balancing(column, Y, block):
        m, Yd, dim = block.simple, dual[Y], len(column)
        rows = [(n, w, q, Z) for n in base.fuse(m, Y) for w in base.fuse(n, Yd)
                for q in base.fuse(x, m) for Z in base.simples if base.n(Z, w, q)]
        mat = Matrix.zeros(field, len(rows), dim)
        for r, (n, w, q, Z) in enumerate(rows):
            at = r * dim
            if w == m:
                mat.entries[at + column[m, (q, Z)]] += F(m, Y, Yd, m, n, unit) * base.lev[Y]
            for q2 in base.fuse(x, n):
                if base.n(Z, n, q2) and base.n(q, Y, q2):
                    mat.entries[at + column[n, (q2, Z)]] -= (
                        base.f_inverse(x, m, Y, q2).get((q, n), zero)
                        * base.f_inverse(Z, n, Yd, q).get((q2, w), zero)
                        * F(q, Y, Yd, q, q2, unit) * base.lev[Y])
        return mat

    return _probe_system(base, {m: [(q, Z) for q in base.fuse(x, m) for Z in base.simples
                                    if base.n(Z, m, q)] for m in base.simples},
                         "upsilon-probe", balancing, x=x)
