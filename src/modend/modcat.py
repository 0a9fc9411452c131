"""Module categories over a fusion category: data, validation, constructions.

Left and right module categories share one schema distinguished by an
orientation flag.  For a left module the key ``(X, Y, i, j, Z, t)`` of an
L-symbol is the matrix entry of ``m_{X,Y,m_i}: (X x Y) act m_i -> X act
(Y act m_i)`` between the source path through ``Z in X x Y`` and the target
path through ``m_j in Y act m_i``, both landing at ``m_t``.  For a right
module the same key describes ``m_i ract (X x Y) -> (m_i ract X) ract Y``
with ``j in m_i ract X``.

The opposite of a left module is a right module on the same simples with
``m_i ract X = (dual X) act m_i`` and associativity transported through the
canonical iso ``(X x Y)* -> Y* x X*``; morphism matrices transpose because
hom-sets flip.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import blocks
from .blocks import row_steps
from .common import UnknownLabel, ValidationReport
from .fusioncat import FusionCategorySpec, tensor_subcategory, triple_map, unique_triples
from .scalarfield import FieldElement, Matrix


class ModuleCategorySpec:
    """Skeletal module-category data with a left/right orientation flag, which
    keeps its own L-blocks, their inverses and its sweeps' kept state.

    Both orientations keep the key of an L-symbol: ``act_set(X, i)`` is
    ``X act m_i`` or ``m_i ract X``, and ``L(X,Y,i; j,z,t)`` is the entry of
    ``l_block(X, Y, i, t)`` at row ``j``, column ``z``.  They differ only in
    the order the factors of ``X x Y`` act along a row path
    (``blocks.row_steps``): ``Y`` first on a left module, ``j in Y act m_i``
    and ``t in X act m_j``; ``X`` first on a right one, ``j in m_i ract X``
    and ``t in m_j ract Y``.  A ``derived`` module (the regular one) is valid
    whenever its category is.
    """

    derived = False

    def __init__(self, base: FusionCategorySpec, simples: Sequence[str],
                 action: Iterable[tuple], l_symbols: Mapping[tuple, FieldElement],
                 unit_scalars: Mapping[str, FieldElement] | None = None,
                 orientation: str = "left", name: str = ""):
        if orientation not in ("left", "right"):
            raise ValueError(f"bad orientation {orientation!r}")
        self.simples = tuple(simples)
        triples = [tuple(t) for t in action]
        self.action = unique_triples("action", triples)
        for X, i, j in triples:     # in the order given, not the set's
            if X not in base.simples or i not in self.simples or j not in self.simples:
                raise UnknownLabel(f"action triple {(X, i, j)}")
        self._start(base, orientation, name, unit_scalars,
                    triple_map(self.action, base.simples, self.simples, self.simples))
        self.l_raw = dict(l_symbols)
        self._l = {key: self.l_raw.get(key, self.field.one) for key in self._admissible_l_keys()}

    def _start(self, base, orientation, name, unit_scalars, act_map) -> None:
        """The attributes every module sets from its data, and empty caches."""
        self.name, self.base, self.field, self.orientation = name, base, base.field, orientation
        self._act_map = act_map
        self.units_raw = dict(unit_scalars or {})
        self.unit_scalars = {i: self.units_raw.get(i, self.field.one) for i in self.simples}
        self._lblock_cache, self._linv_cache, self._cache, self._memo = {}, {}, {}, {}
        # ``is_pointed``, ``_pointed_index`` and ``_pointed_entries``, each computed once
        self._pointed = self._index = self._entries = None
        self._report = None     # the gate's, kept by ``cli.InstanceBundle.validate_all``

    @property
    def right(self) -> bool:
        return self.orientation == "right"

    def act_set(self, X: str, i: str) -> tuple:
        """Left: summands of ``X act m_i``; right: summands of ``m_i ract X``.
        A label that is not a simple raises ``UnknownLabel``."""
        try:
            return self._act_map[X, i]
        except KeyError:
            raise UnknownLabel(f"{X!r} or {i!r}") from None

    def n(self, X: str, i: str, j: str) -> bool:
        return j in self._act_map.get((X, i), ())

    def unit_scalar(self, i: str):
        return self.unit_scalars[i]

    def _admissible_l_keys(self):
        for X in self.base.simples:
            for Y in self.base.simples:
                first, second = row_steps(self.right, X, Y)
                for i in self.simples:
                    for j in self._act_map[(first, i)]:
                        for t in self._act_map[(second, j)]:
                            for Z in self.base.fuse(X, Y):
                                if t in self._act_map[(Z, i)]:
                                    yield (X, Y, i, j, Z, t)

    def l_symbol(self, X, Y, i, j, Z, t) -> FieldElement:
        return self._l.get((X, Y, i, j, Z, t), self.field.zero)

    def l_block(self, X: str, Y: str, i: str, t: str):
        """Associator block of ``X x Y`` acting on ``m_i`` at target ``t``.

        Rows run over the row paths ``j`` that end at ``t``, columns over
        ``z in X x Y`` with ``t in z act m_i``.
        """
        key = (X, Y, i, t)
        blk = self._lblock_cache.get(key)
        if blk is None:
            first, second = row_steps(self.right, X, Y)
            j_list = [j for j in self.act_set(first, i) if self.n(second, j, t)]
            z_list = [z for z in self.base.fuse(X, Y) if self.n(z, i, t)]
            mat = Matrix.zeros(self.field, len(j_list), len(z_list))
            for r, j in enumerate(j_list):
                for c, z in enumerate(z_list):
                    mat[r, c] = self.l_symbol(X, Y, i, j, z, t)
            blk = (j_list, z_list, mat)
            self._lblock_cache[key] = blk
        return blk

    def l_inverse(self, X: str, Y: str, i: str, t: str) -> dict:
        """``blocks.inverse_entries`` of ``l_block(X, Y, i, t)``, keyed ``(z, j)``."""
        return blocks._cached_inverse(self._linv_cache, (X, Y, i, t), self.l_block(X, Y, i, t))

    def __repr__(self):
        return f"ModuleCategorySpec({self.name or id(self)}, {self.orientation})"


class RegularModule(ModuleCategorySpec):
    """``c`` acting on itself (``regular_module``): the action map is the
    fusion map, every unit scalar is 1 and ``L(X,Y,i; j,Z,t)`` is
    ``F(X,Y,i; t; Z,j)``.  So ``l_block(X, Y, i, t)`` is
    ``c.f_block(X, Y, i, t)``, whose inverses it keeps in ``c``'s F-inverse
    cache, where ``f_inverse`` reads them; ``fusioncat.validate_fusion``
    sweeps ``c``'s blocks and pentagon on it."""

    derived = True

    def __init__(self, c: FusionCategorySpec):
        self.simples, self.action = c.simples, c.fusion
        self._start(c, "left", f"{c.name}_regular" if c.name else "regular", None, c._fuse_map)
        self._linv_cache = c._finv_cache

    @functools.cached_property
    def _l(self) -> dict:
        """Every admissible L-symbol, the F-symbols re-keyed, built on first read."""
        return {(X, Y, i, j, Z, t): val for (X, Y, i, t, Z, j), val in self.base._f.items()}

    l_raw = property(lambda self: self._l)

    def l_symbol(self, X, Y, i, j, Z, t) -> FieldElement:
        return self.base._f.get((X, Y, i, t, Z, j), self.field.zero)

    def l_block(self, X: str, Y: str, i: str, t: str):
        return self.base.f_block(X, Y, i, t)


def validate_module(spec: ModuleCategorySpec) -> ValidationReport:
    """Exhaustive mixed-pentagon and unit check; empty report iff valid."""
    report = ValidationReport(subject=spec.name or "module category")
    base, unit = spec.base, spec.base.unit
    for i in spec.simples:
        if spec.act_set(unit, i) != (i,):
            report.add("unit-action", (unit, i), "unit must act trivially")
    for key in spec.l_raw:
        if key not in spec._l:
            report.add("inadmissible-l-entry", key)
    for i in spec.units_raw:
        if i not in spec.unit_scalars:
            report.add("unknown-unit-scalar", (i,))
    for i in spec.simples:
        if not spec.unit_scalars[i]:
            report.add("unit-scalar-zero", (i,))
    # associativity of the multiplicity tables
    for loc, via_fuse, via_steps in blocks.path_count_failures(spec):
        report.add("action-associativity", loc, f"path counts {via_fuse} != {via_steps}")
    if not report.ok:
        return report
    for kind, loc in blocks.l_block_failures(spec):
        report.add(f"l-block-{kind}", loc)
    if not report.ok:
        return report
    if not spec.right:
        for loc in blocks.left_pentagon_failures(spec):
            report.add("mixed-pentagon", loc)
    else:
        for X in base.simples:
            for Y in base.simples:
                for Z in base.simples:
                    for i in spec.simples:
                        if not blocks.right_pentagon_holds(spec, i, X, Y, Z):
                            report.add("mixed-pentagon", (i, X, Y, Z))
    for X in base.simples:
        for i in spec.simples:
            if not blocks.unit_holds(spec, X, i):
                report.add("unit-coherence", (i, X) if spec.right else (X, i))
    return report


def regular_module(c: FusionCategorySpec) -> RegularModule:
    """``c`` acting on itself, built on the first call and kept on ``c``."""
    if c._regular is None:
        c._regular = RegularModule(c)
    return c._regular


def opposite_module(m: ModuleCategorySpec) -> ModuleCategorySpec:
    """Opposite module category (left <-> right), dual-twisted action.

    ``L_op(X,Y,i; j,Z,t) = Binv[Z*, j] / phi_r(X,Y; Z)``, where ``Binv`` is
    the inverse of ``l_block(Y*, X*, i, t)`` in either orientation.  Only
    nonzero values are stored; the unit scalars are inverted.
    """
    base = m.base
    base.duality()  # the duality scalars phi_r reads
    dual = base.dual
    left = m.orientation == "left"
    l_symbols = {}
    for X in base.simples:
        for Y in base.simples:
            # the opposite's row path, through m's action of the duals
            first, second = (dual[a] for a in row_steps(left, X, Y))
            phi_inv = {Z: blocks.phi_r_scalar(base, X, Y, Z).inverse() for Z in base.fuse(X, Y)}
            for i in m.simples:
                for j in m.act_set(first, i):
                    for t in m.act_set(second, j):
                        inv = m.l_inverse(dual[Y], dual[X], i, t)
                        for Z, phi_z in phi_inv.items():
                            val = inv.get((dual[Z], j))
                            if val:
                                l_symbols[(X, Y, i, j, Z, t)] = val * phi_z
    action = [(dual[X], i, j) for (X, i, j) in m.action]
    units = {i: m.unit_scalars[i].inverse() for i in m.simples}
    return ModuleCategorySpec(base=base, simples=m.simples, action=action,
                              l_symbols=l_symbols, unit_scalars=units,
                              orientation="right" if left else "left",
                              name=f"{m.name}_op")


@dataclass
class InternalHomTable:
    """Internal-hom multiplicities of a left module."""

    module: ModuleCategorySpec

    def mult_vector(self, i: str, j: str) -> tuple:
        """Multiplicity of each base simple in ``uhom(m_i, m_j)``."""
        return tuple(1 if j in self.module.act_set(X, i) else 0 for X in self.module.base.simples)


def internal_hom(m: ModuleCategorySpec) -> InternalHomTable:
    if m.orientation != "left":
        raise ValueError("internal_hom expects a left module")
    return InternalHomTable(module=m)


def restrict_module(m: ModuleCategorySpec, sub: Sequence[str]) -> ModuleCategorySpec:
    """Restrict the base to a tensor subcategory, keeping the module simples."""
    base = m.base
    sub = tensor_subcategory(base, sub)
    subset = set(sub)
    sub_fusion = [t for t in base.fusion if all(x in subset for x in t)]
    sub_f = {k: v for k, v in base._f.items() if all(x in subset for x in k)}
    sub_base = FusionCategorySpec(
        field=base.field, simples=sub, unit=base.unit,
        dual={a: base.dual[a] for a in sub}, fusion=sub_fusion, f_symbols=sub_f,
        name=f"{base.name}|{','.join(sub)}")
    action = [t for t in m.action if t[0] in subset]
    l_symbols = {k: v for k, v in m._l.items()
                 if k[0] in subset and k[1] in subset and k[4] in subset}
    return ModuleCategorySpec(base=sub_base, simples=m.simples, action=action,
                              l_symbols=l_symbols, unit_scalars=m.unit_scalars,
                              orientation=m.orientation,
                              name=f"{m.name}|{','.join(sub)}")
