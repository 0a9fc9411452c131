"""Named theorem-level computations with independent oracles and certificates.

Every operation reports gauge-invariant data only: dimensions, multiplicity
vectors and label maps.  Where two independent routes exist (end engine vs
direct naturality system, two independently solved ends) both are computed
and compared exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field

from . import endengine
from .common import (OracleMismatch, SerreCertificateFailure, SourceTargetMismatch,
                     UpsilonMismatch, ValidationError, ValidationReport)
from .fusioncat import FusionCategorySpec, tensor_generators
from .modcat import ModuleCategorySpec, regular_module
from .modfunct import ModuleFunctorSpec, act_right_functor, identity_functor
from .scalarfield import Matrix


@dataclass
class NatResult:
    dim: int
    mode: str
    end_basis: list | None = None
    oracle_basis: list | None = None
    oracle_agrees: bool | None = None


def nat_m_dim(f: ModuleFunctorSpec, g: ModuleFunctorSpec, mode: str = "end") -> NatResult:
    """Dimension of the space of module natural transformations F -> G.

    ``end`` solves the module-end system, ``oracle`` the direct naturality
    system, ``both`` solves both and requires the same subspace.  Both bases
    are echelon-canonical (``Matrix.nullspace``), so the two subspaces agree
    exactly when the two bases are equal.  Both systems are written at
    ``tensor_generators`` of the base, which cut out the spaces that every
    simple does.
    """
    if mode not in ("end", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    end_res = oracle_res = None
    at = tensor_generators(f.src.base)
    if mode in ("end", "both"):
        end_res = endengine.solve_end(endengine.build_nat_system(f, g, at))
    if mode in ("oracle", "both"):
        oracle_res = endengine.solve_end(endengine.nat_oracle_system(f, g, at))
    if mode == "end":
        return NatResult(dim=end_res.dim, mode=mode, end_basis=end_res.basis)
    if mode == "oracle":
        return NatResult(dim=oracle_res.dim, mode=mode, oracle_basis=oracle_res.basis)
    if end_res.basis != oracle_res.basis:
        raise OracleMismatch(
            f"module end ({end_res.dim}) and naturality oracle ({oracle_res.dim}) disagree "
            f"for {f.name} -> {g.name}")
    return NatResult(dim=end_res.dim, mode=mode, end_basis=end_res.basis,
                     oracle_basis=oracle_res.basis, oracle_agrees=True)


@dataclass
class SerreResult:
    on_simples: dict
    certificates: list = dc_field(default_factory=list)

    def label_map(self) -> dict:
        """Simple-to-simple map when every image is a single simple."""
        out = {}
        for i, vec in self.on_simples.items():
            hits = [lab for lab, mult in vec.items() if mult]
            if len(hits) == 1 and vec[hits[0]] == 1:
                out[i] = hits[0]
            else:
                out[i] = None
        return out


def _multiplicities(sys: endengine.DinaturalSystem, labels) -> tuple:
    """Multiplicity of each label in an object-valued (co)end, one label block at a time.

    Each carrier coordinate carries its label.  Schur's lemma puts every
    condition row of a probe system on one label, so the system is
    block-diagonal by label and the multiplicity of ``p`` is the nullity of
    the rows on ``p`` over ``p``'s coordinates: one ``rank`` per label that
    has rows, none for a label without.  A row on two labels raises
    ``ValidationError``.
    """
    tags = [t[0] for block in sys.blocks for t in block.basis]
    coords, rows = {}, {}
    for k, tag in enumerate(tags):
        coords.setdefault(tag, []).append(k)
    # entries no builder wrote are the shared zero: skip them without a truth test
    zero = sys.field.zero
    for cond in sys.conditions:
        mat = cond.matrix
        for r in range(mat.rows):
            row = mat.entries[r * mat.cols:(r + 1) * mat.cols]
            touched = {tags[k] for k, e in enumerate(row) if e is not zero and e}
            if len(touched) > 1:
                raise ValidationError(
                    f"{sys.recipe}: a condition row of generator {cond.generator} has "
                    f"entries on labels {sorted(touched)}")
            for p in touched:
                rows.setdefault(p, []).append([row[k] for k in coords[p]])
    return tuple(len(coords.get(p, ())) - (Matrix.from_rows(sys.field, rows[p]).rank()
                                           if p in rows else 0) for p in labels)


def serre_functor(m: ModuleCategorySpec) -> SerreResult:
    """Relative Serre functor on simples via the twisted-hom coend.

    The coend of each simple is built once and its image multiplicity vector
    read off its label blocks (``_multiplicities``), then every dimension certificate
    ``dim Hom(X, uhom(m_i, m_j)*) = dim Hom(X, uhom(m_j, S(m_i)))`` is
    checked exactly, in the order ``i``, ``j``, ``X``, up to the first that
    fails.  The left-hand side is ``[m_j in X* act m_i]`` and the right-hand
    side sums the multiplicities of ``S(m_i)`` over ``X act m_j`` only, so
    the sweep is O(n^3) for n simples.  The action triples form a set (the
    loader refuses a repeated one), so an action set holds no simple twice.
    """
    if m.orientation != "left":
        raise SourceTargetMismatch(f"the Serre coend needs a left module; {m.name!r} is right")
    base = m.base
    on_simples = {}
    for i in m.simples:
        sys = endengine.build_serre_probe_system(m, i)
        on_simples[i] = dict(zip(m.simples, _multiplicities(sys, m.simples)))
    certificates = []
    for i in m.simples:
        for j in m.simples:
            for X in base.simples:
                lhs = 1 if j in m.act_set(base.dual[X], i) else 0
                rhs = sum(on_simples[i][t] for t in m.act_set(X, j))
                certificates.append(((i, j, X), lhs, rhs))
                if lhs != rhs:
                    raise SerreCertificateFailure(
                        f"uhom duality certificate fails at (i={i}, j={j}, X={X}): "
                        f"{lhs} != {rhs}")
    return SerreResult(on_simples=on_simples, certificates=certificates)


def internal_character(m: ModuleCategorySpec, u: ModuleFunctorSpec) -> tuple:
    """Multiplicity vector of the end of ``ldual(u(-)) x u(-)`` over ``m``."""
    if u.src is not m:
        raise SourceTargetMismatch("functor source must be the given module")
    return _multiplicities(endengine.build_character_probe_system(u, u), m.base.simples)


def upsilon_regular(c: FusionCategorySpec, x: str,
                    reg: ModuleCategorySpec | None = None) -> tuple:
    """Multiplicity vector of the double-dual end at ``can(x)``; must be delta_x."""
    if reg is None:
        reg = regular_module(c)
    vec = _multiplicities(endengine.build_upsilon_probe_system(reg, x), c.simples)
    expected = tuple(1 if p == x else 0 for p in c.simples)
    if vec != expected:
        raise UpsilonMismatch(f"upsilon({x}) = {vec}, expected {expected}")
    return vec


@dataclass
class AdjointShiftResult:
    ok: bool
    lhs: tuple
    rhs: tuple

    def __bool__(self):
        return self.ok


def adjoint_shift_check(c: FusionCategorySpec, y: str,
                        reg: ModuleCategorySpec | None = None) -> AdjointShiftResult:
    """Underlying-object comparison of the two adjoint-shifted character ends.

    Both sides are solved independently: the end of ``ldual(F^{ra}(-)) x -``
    and the end of ``ldual(-) x F(-)`` for ``F = - x y`` on the regular
    module, each built once and read one label block at a time.
    """
    if reg is None:
        reg = regular_module(c)
    f = act_right_functor(c, y, reg)
    fra = act_right_functor(c, c.dual[y], reg)
    idf = identity_functor(reg)
    lhs = _multiplicities(endengine.build_character_probe_system(fra, idf), c.simples)
    rhs = _multiplicities(endengine.build_character_probe_system(idf, f), c.simples)
    return AdjointShiftResult(ok=lhs == rhs, lhs=lhs, rhs=rhs)


def hom_lemma_suite(m: ModuleCategorySpec) -> ValidationReport:
    """Exhaustive dimension identities of the internal-hom action lemmas.

    ``uhom-shift-first`` at ``(X, i, j, W)`` counts ``t in X act m_i`` with
    ``m_j in W act t`` against ``V`` with ``m_j in V act m_i`` and
    ``W in V x X*``; ``uhom-shift-second`` counts ``t in W act m_i`` with
    ``t in X act m_j`` against ``V`` with ``m_j in V act m_i`` and
    ``W in X x V``.  For each ``(X, i)`` both sides of both checks are counted
    over every ``(j, W)`` at once by walking the action and fusion sets, so
    only the keys some side reaches are compared; failures are reported by
    ``X``, ``i``, ``j``, ``W`` in ``simples`` order, the first check before
    the second at one tuple.

    Expects a module that passed the gate.  There the unit acts trivially and
    ``1 in X x V`` only for ``V = X*``, so ``uhom-shift-second`` at
    ``(X, j, i, 1)`` compares ``m_j in X act m_i`` with ``m_i in X* act m_j``:
    it is the ``uhom-op`` identity ``Hom(m_i, X* act m_j) = Hom(X act m_i,
    m_j)``, which needs no check of its own.
    """
    report = ValidationReport(subject=f"hom lemmas on {m.name}")
    base = m.base
    act = {(X, i): m.act_set(X, i) for X in base.simples for i in m.simples}
    preimages = {}  # (X, t) -> every j with t in X act m_j
    for (X, j), targets in act.items():
        for t in targets:
            preimages.setdefault((X, t), []).append(j)
    j_rank = {j: k for k, j in enumerate(m.simples)}
    w_rank = {W: k for k, W in enumerate(base.simples)}
    for X in base.simples:
        via_dual = {V: base.fuse(V, base.dual[X]) for V in base.simples}
        via_x = {V: base.fuse(X, V) for V in base.simples}
        for i in m.simples:
            first_l, first_r, second_l, second_r = Counter(), Counter(), Counter(), Counter()
            for t in act[(X, i)]:
                for W in base.simples:
                    for j in act[(W, t)]:
                        first_l[(j, W)] += 1
            for W in base.simples:
                for t in act[(W, i)]:
                    for j in preimages.get((X, t), ()):
                        second_l[(j, W)] += 1
            for V in base.simples:
                for j in act[(V, i)]:
                    for W in via_dual[V]:
                        first_r[(j, W)] += 1
                    for W in via_x[V]:
                        second_r[(j, W)] += 1
            failures = []
            for rank, check, lhs, rhs in ((0, "uhom-shift-first", first_l, first_r),
                                          (1, "uhom-shift-second", second_l, second_r)):
                for j, W in lhs.keys() | rhs.keys():
                    if lhs[(j, W)] != rhs[(j, W)]:
                        failures.append(((j_rank[j], w_rank[W], rank), check, (X, i, j, W),
                                         f"{lhs[(j, W)]} != {rhs[(j, W)]}"))
            for _, check, where, detail in sorted(failures):
                report.add(check, where, detail)
    return report
