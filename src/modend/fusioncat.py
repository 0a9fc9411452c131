"""Skeletal multiplicity-free fusion categories: data, validation, duality.

A category is specified by its simple labels, unit, dual involution, fusion
table ``N_{ab}^c in {0,1}`` and sparse F-symbols.  ``F[a,b,c; d; e,f]`` is the
coefficient, in the associator ``(a x b) x c -> a x (b x c)`` evaluated at
total object ``d``, between the source path through ``e in a x b`` and the
target path through ``f in b x c``.  Admissible F-entries default to 1, unit
legs must stay at 1, and the pentagon is checked exhaustively and exactly.

Duality scalars are normalized by ``coev = 1`` (both chiralities); evaluation
scalars are then forced by the zig-zag identities and read off the F-block
``F[a, a*, a; a]`` (rows over f, columns over e): the right evaluation at
``a`` is the inverse of its entry ``F[a, a*, a; a; 1, 1]`` (e = f = 1), the
left evaluation the inverse of the entry at row e = 1, column f = 1 of the
block's inverse.  Both zig-zags are then verified exactly for each chirality.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import blocks
from .blocks import BaseTables
from .common import (InconsistentRigidity, NotATensorSubcategory, UnknownLabel,
                     ValidationReport)
from .scalarfield import FieldSpec, FieldElement


def unique_triples(section: str, triples) -> frozenset:
    """``triples`` as a set, refusing by name a triple not of 3 labels or repeated.

    The tables are multiplicity-free, so a repeated triple is never a
    multiplicity of 2.
    """
    out = set()
    for triple in triples:
        if len(triple) != 3:
            raise ValueError(f"{section} triple {list(triple)} does not have 3 labels")
        if triple in out:
            raise ValueError(f"{section} triple {list(triple)} is repeated")
        out.add(triple)
    return frozenset(out)


def triple_map(triples, firsts: Sequence[str], seconds: Sequence[str],
               thirds: Sequence[str]) -> dict:
    """``{(a, b): (c, ...)}`` for ``a`` in ``firsts``, ``b`` in ``seconds``: the
    ``c`` with ``(a, b, c)`` in ``triples``, in ``thirds`` order.  Every label
    of ``triples`` must be in its list."""
    pos = {c: k for k, c in enumerate(thirds)}
    out = {(a, b): [] for a in firsts for b in seconds}
    for a, b, c in triples:
        out[a, b].append(c)
    return {key: tuple(sorted(cs, key=pos.__getitem__)) for key, cs in out.items()}


class FusionCategorySpec(BaseTables):
    """Immutable skeletal data of a multiplicity-free fusion category, which
    keeps its own F-blocks, their inverses and its duality scalars."""

    def __init__(self, field: FieldSpec, simples: Sequence[str], unit: str,
                 dual: Mapping[str, str], fusion: Iterable[tuple],
                 f_symbols: Mapping[tuple, FieldElement] | None = None,
                 name: str = ""):
        super().__init__()
        self.name = name
        self.field = field
        self.simples = tuple(simples)
        if len(set(self.simples)) != len(self.simples):
            raise ValueError("duplicate simple labels")
        self.unit = unit
        self.dual = dict(dual)
        triples = [tuple(t) for t in fusion]
        self.fusion = unique_triples("fusion", triples)
        for triple in triples:
            for lab in triple:
                if lab not in self.simples:
                    raise UnknownLabel(lab)
        self._fuse_map = triple_map(self.fusion, self.simples, self.simples, self.simples)
        self.f_raw = dict(f_symbols or {})
        # every admissible (a, b, c, d, e, f): a, b, c in ``simples`` order
        # (``_fuse_map`` holds the pairs (a, b) in that order), then e, d, f
        fm, raw, one = self._fuse_map, self.f_raw, field.one
        self._f = {(a, b, c, d, e, f): raw.get((a, b, c, d, e, f), one)
                   for (a, b), ab in fm.items() for c in self.simples
                   for e in ab for d in fm[e, c] for f in fm[b, c] if d in fm[a, f]}
        self._dual_ok = False
        self._generators = None
        self._regular = None    # ``modcat.regular_module``'s, kept on first call
        self._report = None     # the gate's, kept by ``cli.InstanceBundle.validate_all``

    def f_symbol(self, a, b, c, d, e, f) -> FieldElement:
        return self._f.get((a, b, c, d, e, f), self.field.zero)

    def duality(self) -> None:
        """Install the duality scalars once (``compute_duality``)."""
        if not self._dual_ok:
            compute_duality(self)
            self._dual_ok = True

    def __repr__(self):
        return f"FusionCategorySpec({self.name or ','.join(self.simples)})"


def validate_fusion(spec: FusionCategorySpec) -> ValidationReport:
    """Exhaustive structural and pentagon validation; violations as entries."""
    report = ValidationReport(subject=spec.name or "fusion category")
    simples = spec.simples
    if spec.unit not in simples:
        report.add("unknown-unit", (spec.unit,))
        return report
    for a in simples:
        if spec.dual.get(a) not in simples:
            report.add("dual-not-a-simple", (a,))
            return report
    for a in simples:
        if spec.dual[spec.dual[a]] != a:
            report.add("dual-not-involutive", (a,))
    for a in simples:
        if spec._fuse_map[(spec.unit, a)] != (a,):
            report.add("unit-fusion", (spec.unit, a), "left unit constraint violated")
        if spec._fuse_map[(a, spec.unit)] != (a,):
            report.add("unit-fusion", (a, spec.unit), "right unit constraint violated")
    for a in simples:
        for b in simples:
            has_unit = spec.unit in spec._fuse_map[(a, b)]
            if has_unit != (b == spec.dual[a]):
                report.add("rigidity-labels", (a, b),
                           "N_{ab}^1 = 1 must hold exactly when b = a*")
            for c in spec._fuse_map[(a, b)]:
                if spec.dual[c] not in spec._fuse_map[(spec.dual[b], spec.dual[a])]:
                    report.add("dual-symmetry", (a, b, c),
                               "N_{ab}^c must equal N_{b*a*}^{c*}")
    from .modcat import regular_module      # modcat imports this module
    reg = regular_module(spec)
    # associativity of the fusion table itself
    for loc, left, right in blocks.path_count_failures(reg):
        report.add("fusion-associativity", loc, f"path counts {left} != {right}")
    if not report.ok:
        return report
    # F-symbols: inadmissible entries, unit legs, invertibility
    admissible = set(spec._f)
    for key in spec.f_raw:
        if key not in admissible:
            report.add("inadmissible-f-entry", key)
    for key, val in spec._f.items():
        a, b, c, d, e, f = key
        if spec.unit in (a, b, c) and val != spec.field.one:
            report.add("unit-leg-f", key, "unit-leg F-symbols must be 1")
    # F-blocks and pentagon, swept on the regular module, whose L-blocks are
    # the F-blocks
    for kind, loc in blocks.l_block_failures(reg):
        report.add(f"f-block-{kind}", loc)
    if not report.ok:
        return report
    for loc in blocks.left_pentagon_failures(reg):
        report.add("pentagon", loc)
    return report


def _inverse_at(val, a: str):
    """Inverse of one F-symbol entry; a zero entry leaves ``a`` without a zig-zag."""
    if not val:
        raise InconsistentRigidity(f"degenerate zig-zag at {a}")
    return val.inverse()


def compute_duality(spec: FusionCategorySpec) -> None:
    """Install the scalars (coev = 1, ev read off F) read-only; verify both zig-zags.

    At a simple each zig-zag is one scalar equation in an F-symbol or an
    entry of an inverse F-block (``blocks.f_inverse_entry``).  The first of
    each pair holds by the choice of ``ev``/``lev``.  The second left one at
    ``a``, ``F(a*,a,a*; a*; 1,1) = F^-1[a,a*,a; a]_{1,1}``, is the second right
    one at ``a*``, so the left check alone fails only at a simple that is not
    self-dual and whose block ``F[a,a*,a; a]`` is larger than 1 x 1.
    """
    unit, dual, one = spec.unit, spec.dual, spec.field.one
    F, Finv = spec.f_symbol, functools.partial(blocks.f_inverse_entry, spec)
    ev = {a: _inverse_at(F(a, dual[a], a, a, unit, unit), a) for a in spec.simples}
    lev = {a: _inverse_at(Finv(a, dual[a], a, a, unit, unit), a) for a in spec.simples}
    spec.ev, spec.lev = MappingProxyType(ev), MappingProxyType(lev)
    spec.coev = spec.lcoev = MappingProxyType(dict.fromkeys(spec.simples, one))
    for a in spec.simples:
        d = dual[a]
        if (spec.coev[a] * F(a, d, a, a, unit, unit) * ev[a] != one
                or spec.coev[a] * Finv(d, a, d, d, unit, unit) * ev[a] != one):
            raise InconsistentRigidity(f"right zig-zags disagree at {a}")
        if (spec.lcoev[a] * Finv(a, d, a, a, unit, unit) * lev[a] != one
                or spec.lcoev[a] * F(d, a, d, d, unit, unit) * lev[a] != one):
            raise InconsistentRigidity(f"left zig-zags disagree at {a}")


def tensor_subcategory(spec: FusionCategorySpec, labels: Sequence[str]) -> tuple:
    """The labels in ``spec.simples`` order, checked to span a tensor subcategory."""
    for a in labels:
        if a not in spec.simples:
            raise NotATensorSubcategory(f"unknown label {a}")
    subset = set(labels)
    if spec.unit not in subset:
        raise NotATensorSubcategory("unit missing")
    sub = tuple(a for a in spec.simples if a in subset)
    for a in sub:
        if spec.dual[a] not in subset:
            raise NotATensorSubcategory(f"not dual-closed at {a}")
        for b in sub:
            for c in spec.fuse(a, b):
                if c not in subset:
                    raise NotATensorSubcategory(f"not fusion-closed at ({a},{b})")
    return sub


def _reached(spec: FusionCategorySpec, gens: Sequence[str]) -> set:
    """The unit and every summand of a tensor word in ``gens``: each generator
    is a word, so each reaches itself whatever the table holds."""
    seen, todo = {spec.unit, *gens}, list(gens)
    while todo:
        a = todo.pop()
        for g in gens:
            for c in spec._fuse_map[(a, g)]:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
    return seen


def _greedy_generators(spec: FusionCategorySpec, simples: Sequence[str]) -> tuple:
    """Generators of the fusion-closed ``simples``, each reaching the most, first on a tie."""
    chosen, reached = [], _reached(spec, ())
    while len(reached) < len(simples):
        best = max(simples, key=lambda X: len(_reached(spec, (*chosen, X))))
        chosen.append(best)
        reached = _reached(spec, chosen)
    return tuple(chosen)


def tensor_generators(spec: FusionCategorySpec, labels: Sequence[str] | None = None) -> tuple:
    """Simples whose tensor words reach every simple, chosen greedily; kept on ``spec``.

    Each step takes the simple whose addition reaches the most simples, the
    first in ``simples`` order on a tie, until the unit and the summands of
    the words reach every simple; so each generator reaches a simple the
    earlier ones miss, and a one-simple category has ``()``.  A module
    pre-balancing at ``X x Y`` follows from those at ``X`` and ``Y``, and at a
    summand of ``X x Y`` by naturality, while the unit's conditions vanish on
    gated data: balancing at these simples cuts out the end that balancing at
    every simple does.

    With ``labels``, the same greedy choice over the tensor subcategory they
    span, checked by ``tensor_subcategory`` (whose errors it raises); only the
    whole category's set is kept on ``spec``.
    """
    if labels is not None:
        return _greedy_generators(spec, tensor_subcategory(spec, labels))
    if spec._generators is None:
        spec._generators = _greedy_generators(spec, spec.simples)
    return spec._generators
