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

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import blocks
from .blocks import ModuleTables, row_steps
from .common import UnknownLabel, ValidationReport
from .fusioncat import FusionCategorySpec, tensor_subcategory, triple_map, unique_triples
from .scalarfield import FieldElement


class ModuleCategorySpec:
    """Skeletal module-category data with a left/right orientation flag.

    A ``derived`` module (a regular one) is valid whenever its category is.
    A construction whose data are complete by construction passes its action
    map ``{(X, i): act_set(X, i)}`` as ``act_map`` and every admissible
    L-symbol in ``l_symbols``; the triple checks and the admissible-key walk
    are then skipped.
    """

    def __init__(self, base: FusionCategorySpec, simples: Sequence[str],
                 action: Iterable[tuple], l_symbols: Mapping[tuple, FieldElement],
                 unit_scalars: Mapping[str, FieldElement] | None = None,
                 orientation: str = "left", name: str = "", derived: bool = False,
                 act_map: Mapping[tuple, tuple] | None = None):
        if orientation not in ("left", "right"):
            raise ValueError(f"bad orientation {orientation!r}")
        self.name, self.derived = name, derived
        self.base = base
        self.field = base.field
        self.orientation = orientation
        self.simples = tuple(simples)
        self.l_raw = dict(l_symbols)
        if act_map is not None:
            self.action, self._act_map, self._l = frozenset(action), act_map, self.l_raw
        else:
            triples = [tuple(t) for t in action]
            self.action = unique_triples("action", triples)
            for X, i, j in triples:     # in the order given, not the set's
                if X not in base.simples or i not in self.simples or j not in self.simples:
                    raise UnknownLabel(f"action triple {(X, i, j)}")
            self._act_map = triple_map(self.action, base.simples, self.simples, self.simples)
            self._l = {key: self.l_raw.get(key, self.field.one)
                       for key in self._admissible_l_keys()}
        self.units_raw = dict(unit_scalars or {})
        self.unit_scalars = {i: self.units_raw.get(i, self.field.one) for i in self.simples}
        self._tables = None
        self._report = None     # the gate's, kept by ``cli.InstanceBundle.validate_all``

    def act_set(self, X: str, i: str) -> tuple:
        """Left: summands of ``X act m_i``; right: summands of ``m_i ract X``."""
        return self._act_map[(X, i)]

    def _admissible_l_keys(self):
        right = self.orientation == "right"
        for X in self.base.simples:
            for Y in self.base.simples:
                first, second = row_steps(right, X, Y)
                for i in self.simples:
                    for j in self._act_map[(first, i)]:
                        for t in self._act_map[(second, j)]:
                            for Z in self.base.fuse(X, Y):
                                if t in self._act_map[(Z, i)]:
                                    yield (X, Y, i, j, Z, t)

    def l_symbol(self, X, Y, i, j, Z, t) -> FieldElement:
        return self._l.get((X, Y, i, j, Z, t), self.field.zero)

    @property
    def tables(self) -> ModuleTables:
        if self._tables is None:
            self._tables = ModuleTables(
                base=self.base.tables, simples=self.simples, act_map=dict(self._act_map),
                l_entry=self.l_symbol, unit_scalars=dict(self.unit_scalars),
                right=self.orientation == "right")
        return self._tables

    def __repr__(self):
        return f"ModuleCategorySpec({self.name or id(self)}, {self.orientation})"


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
    for loc, via_fuse, via_steps in blocks.path_count_failures(spec.tables):
        report.add("action-associativity", loc, f"path counts {via_fuse} != {via_steps}")
    if not report.ok:
        return report
    tables = spec.tables
    for kind, loc in blocks.l_block_failures(tables):
        report.add(f"l-block-{kind}", loc)
    if not report.ok:
        return report
    if not tables.right:
        for loc in blocks.left_pentagon_failures(tables):
            report.add("mixed-pentagon", loc)
    else:
        for X in base.simples:
            for Y in base.simples:
                for Z in base.simples:
                    for i in spec.simples:
                        if not blocks.right_pentagon_holds(tables, i, X, Y, Z):
                            report.add("mixed-pentagon", (i, X, Y, Z))
    for X in base.simples:
        for i in spec.simples:
            if not blocks.unit_holds(tables, X, i):
                report.add("unit-coherence", (i, X) if tables.right else (X, i))
    return report


def regular_module(c: FusionCategorySpec) -> ModuleCategorySpec:
    """``c`` acting on itself, built on the first call and kept on ``c``: the
    action map is the fusion map and L the admissible F re-keyed."""
    if c._regular is None:
        l_symbols = {(a, b, i, j, Z, t): val for (a, b, i, t, Z, j), val in c._f.items()}
        c._regular = ModuleCategorySpec(
            base=c, simples=c.simples, action=c.fusion, l_symbols=l_symbols,
            unit_scalars={i: c.field.one for i in c.simples},
            orientation="left", name=f"{c.name}_regular" if c.name else "regular",
            derived=True, act_map=c._fuse_map)
        c._regular._tables = c.tables.regular()
    return c._regular


def opposite_module(m: ModuleCategorySpec) -> ModuleCategorySpec:
    """Opposite module category (left <-> right), dual-twisted action.

    ``L_op(X,Y,i; j,Z,t) = Binv[Z*, j] / phi_r(X,Y; Z)``, where ``Binv`` is
    the inverse of ``l_block(Y*, X*, i, t)`` in either orientation.  Only
    nonzero values are stored; the unit scalars are inverted.
    """
    base = m.base
    base.duality()  # the duality scalars phi_r reads
    dual, tables, btab = base.dual, m.tables, base.tables
    left = m.orientation == "left"
    l_symbols = {}
    for X in base.simples:
        for Y in base.simples:
            # the opposite's row path, through m's action of the duals
            first, second = (dual[a] for a in row_steps(left, X, Y))
            phi_inv = {Z: blocks.phi_r_scalar(btab, X, Y, Z).inverse() for Z in base.fuse(X, Y)}
            for i in m.simples:
                for j in m.act_set(first, i):
                    for t in m.act_set(second, j):
                        inv = tables.l_inverse(dual[Y], dual[X], i, t)
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
