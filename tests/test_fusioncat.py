import itertools
import random
import zlib

import pytest

from helpers import (all_categories, coev_insert, ctensor_mor, cunit, eps_flat, fib,
                     gauged_corpus_and_zn, identity_mor, ising, lcoev_flat, lcoev_insert,
                     ldual_flat, lev_flat, nested_lev, nested_lev_entries, phi_l, rdual_flat,
                     runit_reg, runit_reg_inv, vec_z2_omega, vec_z2_triv, vec_z4, whisker_c,
                     zeta_flat)
from modend import blocks
from modend.blocks import BaseTables
from modend.common import InconsistentRigidity, UnknownLabel
from modend.fusioncat import (FusionCategorySpec, compute_duality, hom_dim,
                              tensor_decompose, validate_fusion)
from modend.scalarfield import DimensionMismatch

CATS = all_categories()


def pentagon_residuals(spec):
    """Independent brute-force pentagon oracle on the raw F-symbol table.

    Checks F[f,c,d;e;g,l] F[a,b,l;e;f,k] = sum_h F[a,b,c;g;f,h] F[a,h,d;e;g,k]
    F[b,c,d;k;h,l] over all admissible label tuples, straight from the tables.
    """
    bad = []
    S = spec.simples
    for a in S:
        for b in S:
            for c in S:
                for d in S:
                    for f in spec.fuse(a, b):
                        for g in spec.fuse(f, c):
                            for e in spec.fuse(g, d):
                                for l in spec.fuse(c, d):
                                    for k in spec.fuse(b, l):
                                        if e not in spec.fuse(a, k):
                                            continue
                                        lhs = spec.f_symbol(f, c, d, e, g, l) \
                                            * spec.f_symbol(a, b, l, e, f, k)
                                        rhs = spec.field.zero
                                        for h in spec.fuse(b, c):
                                            rhs = rhs + (spec.f_symbol(a, b, c, g, f, h)
                                                         * spec.f_symbol(a, h, d, e, g, k)
                                                         * spec.f_symbol(b, c, d, k, h, l))
                                        if lhs != rhs:
                                            bad.append((a, b, c, d, e))
    return bad


@pytest.mark.parametrize("name", sorted(CATS))
def test_bundled_categories_valid(name):
    assert validate_fusion(CATS[name]).ok


@pytest.mark.parametrize("name", sorted(CATS))
def test_pentagon_bruteforce_oracle(name):
    # dual route: raw-table residuals agree with the machinery validator
    assert pentagon_residuals(CATS[name]) == []


def test_twisted_z2_is_valid_cocycle():
    # 16 pentagon instances by brute force
    spec = vec_z2_omega()
    assert pentagon_residuals(spec) == []
    assert validate_fusion(spec).ok


def test_negated_fib_entry_reported_at_tau_tuple():
    base = fib()
    bad_f = dict(base._f)
    key = ("tau", "tau", "tau", "tau", "1", "1")
    bad_f[key] = -bad_f[key]
    spec = FusionCategorySpec(field=base.field, simples=base.simples, unit=base.unit,
                              dual=base.dual, fusion=base.fusion, f_symbols=bad_f,
                              name="fib_bad")
    assert pentagon_residuals(spec) != []
    rep = validate_fusion(spec)
    assert not rep.ok
    pentagon_hits = [e for e in rep.entries if e.check == "pentagon"]
    assert pentagon_hits
    assert any(e.location[:4] == ("tau", "tau", "tau", "tau") for e in pentagon_hits)


def test_duality_values():
    triv = vec_z2_triv()
    dd = compute_duality(triv)
    assert all(v == triv.field.one for v in dd.ev_scalar.values())
    om = vec_z2_omega()
    dd = compute_duality(om)
    # solved from the 1-dimensional zig-zag equation
    assert dd.ev_scalar["s"] == om.field.rational(-1)
    fb = fib()
    dd = compute_duality(fb)
    # inverse of the F-symbol entry F[tau,tau,tau;tau]_{1,1}
    entry = fb.f_symbol("tau", "tau", "tau", "tau", "1", "1")
    assert dd.ev_scalar["tau"] == entry.inverse()
    assert dd.coev_scalar["tau"] == fb.field.one


def test_inconsistent_rigidity_detected():
    # breaking one pentagon family generically breaks the zig-zag agreement;
    # compute_duality must refuse rather than return lopsided scalars
    base = ising()
    bad_f = dict(base._f)
    key = ("sigma", "sigma", "sigma", "sigma", "1", "1")
    bad_f[key] = base.field.rational(7)
    spec = FusionCategorySpec(field=base.field, simples=base.simples, unit=base.unit,
                              dual=base.dual, fusion=base.fusion, f_symbols=bad_f,
                              name="ising_bad")
    with pytest.raises(InconsistentRigidity):
        compute_duality(spec)


def test_tensor_decompose():
    fb = fib()
    assert tensor_decompose(fb, "tau", "tau") == ("1", "tau")
    z4 = vec_z4()
    assert tensor_decompose(z4, "1", "3") == ("0",)
    for name, spec in CATS.items():
        for a in spec.simples:
            assert tensor_decompose(spec, spec.unit, a) == (a,)
    with pytest.raises(UnknownLabel):
        tensor_decompose(fb, "tau", "nope")


def test_hom_dim():
    spec = vec_z2_triv()
    assert hom_dim(spec, (0, 1), (0, 1)) == 1
    assert hom_dim(spec, (0, 1), (1, 0)) == 0
    assert hom_dim(spec, (1, 2), (0, 1)) == 2
    with pytest.raises(DimensionMismatch):
        hom_dim(spec, (1,), (0, 1))


def test_dual_involution_everywhere():
    for spec in CATS.values():
        for a in spec.simples:
            assert spec.dual[spec.dual[a]] == a


def test_coev_tensor_prod_identity():
    """The coevaluation side of the composite-duality identity."""
    for spec in CATS.values():
        spec.duality()
        bt = spec.tables
        reg = bt.regular()
        one = blocks.simple_obj(spec.unit)
        for a in spec.simples:
            for b in spec.simples:
                sa, sb = blocks.simple_obj(a), blocks.simple_obj(b)
                V = blocks.ctensor(bt, sa, sb)
                La = ldual_flat(bt, V)
                phi = phi_l(bt, sa, sb)
                # flat: 1 -> *V x V, then push the dual through phi^l
                flat = lcoev_flat(bt, V)
                moved = ctensor_mor(bt, phi, identity_mor(spec.field, V)) * flat
                # nested: 1 -> *B x (A* ... ) x (A x B) built from the simples
                da, db = ldual_flat(bt, sa), ldual_flat(bt, sb)
                chain = lcoev_insert(reg, sb, one)
                chain = whisker_c(reg, db, lcoev_insert(reg, sa, blocks.act_c(reg, sb, one))) * chain
                chain = whisker_c(reg, db, whisker_c(reg, da, blocks.assoc_inv(reg, sa, sb, one))) * chain
                chain = blocks.assoc_inv(reg, db, da, blocks.act_c(reg, V, one)) * chain
                # both now land in (*B x *A) act (V act 1); compare after unitors
                tail = blocks.act_c(reg, V, one)
                lb = blocks.ctensor(bt, db, da)
                finish = whisker_c(reg, lb, runit_reg(bt, V))
                nested = finish * chain
                moved2 = blocks.assoc(reg, lb, V, one) \
                    * runit_reg_inv(bt, blocks.ctensor(bt, lb, V)) * moved
                assert nested == moved2, (spec.name, a, b)


def solve_zigzag_scalars(spec: FusionCategorySpec, left: bool) -> dict:
    """Reference oracle: solve the first zig-zag for the evaluation scalars.

    With coev = 1 and a placeholder ev = 1 the zig-zag composite at ``a`` is
    ``s * id``, so ``ev[a] = 1/s``.  The scalars live in plain dicts of a
    scratch copy of the base tables.  Only the composite at ``a`` reads the
    scalar of ``a``, so the placeholder pairing it memoizes is never read
    again.
    """
    base = BaseTables(field=spec.field, simples=spec.simples, unit=spec.unit,
                      dual=spec.dual, fuse_map=spec._fuse_map, f_entry=spec.f_symbol)
    one = spec.field.one
    base.ev, base.lev = {}, {}
    base.coev = base.lcoev = {a: one for a in spec.simples}
    reg = base.regular()
    one_obj = cunit(base)
    out = {}
    for a in spec.simples:
        sa = blocks._simple(base, a)
        da = rdual_flat(base, sa)
        base_ev = base.lev if left else base.ev
        base_ev[a] = one
        if left:
            zig = runit_reg(base, sa) \
                * zeta_flat(reg, sa, blocks.act_c(reg, sa, one_obj)) \
                * whisker_c(reg, sa, lcoev_insert(reg, sa, one_obj)) \
                * runit_reg_inv(base, sa)
        else:
            zig = runit_reg(base, sa) \
                * whisker_c(reg, sa, eps_flat(reg, sa, one_obj)) \
                * whisker_c(reg, sa, whisker_c(reg, da, runit_reg_inv(base, sa))) \
                * coev_insert(reg, sa, sa)
        scalar = zig.mat[0, 0]
        if not scalar:
            raise InconsistentRigidity(f"degenerate zig-zag at {a}")
        out[a] = scalar.inverse()
        base_ev[a] = out[a]
    return out


def _oracle_scalars(spec):
    try:
        return solve_zigzag_scalars(spec, left=False), solve_zigzag_scalars(spec, left=True)
    except InconsistentRigidity as exc:
        return str(exc)


def _closed_form_scalars(spec):
    """The scalars ``compute_duality`` installs, or its degenerate-zig-zag error.

    The zig-zag check that follows the install may fail on a mutated
    category; the installed scalars are compared all the same.
    """
    try:
        compute_duality(spec)
    except InconsistentRigidity as exc:
        if "degenerate" in str(exc):
            return str(exc)
    return dict(spec.tables.ev), dict(spec.tables.lev)


def _with_f(spec, f_symbols, name):
    return FusionCategorySpec(field=spec.field, simples=spec.simples, unit=spec.unit,
                              dual=spec.dual, fusion=spec.fusion, f_symbols=f_symbols,
                              name=name)


def fib_z3() -> FusionCategorySpec:
    """fib x Vec_{Z/3} over fib's field: simples ``x.g``, F-symbols fib's on the
    first factor and 1 on the second.  ``tau.1`` is not self-dual and its block
    ``F[tau.1, tau.2, tau.1; tau.1]`` is 2 x 2."""
    fb = fib()

    def lab(x, g):
        return f"{x}.{g % 3}"
    f_symbols = {}
    for (a, b, c, d, e, f), val in fb._f.items():
        for g, h, k in itertools.product(range(3), repeat=3):
            f_symbols[(lab(a, g), lab(b, h), lab(c, k), lab(d, g + h + k),
                       lab(e, g + h), lab(f, h + k))] = val
    return FusionCategorySpec(
        field=fb.field, simples=[lab(x, g) for x in fb.simples for g in range(3)],
        unit=lab(fb.unit, 0), dual={lab(x, g): lab(fb.dual[x], -g)
                                    for x in fb.simples for g in range(3)},
        fusion=[(lab(a, g), lab(b, h), lab(c, g + h)) for a, b, c in fb.fusion
                for g in range(3) for h in range(3)],
        f_symbols=f_symbols, name="fib_z3")


def _oracle_subjects():
    """The corpus, its gauged copies, zn4, zn6 and fib x Vec_{Z/3}."""
    return {**gauged_corpus_and_zn(), "fib_z3": fib_z3()}


def test_closed_form_duality_matches_zigzag_oracle():
    for name, spec in _oracle_subjects().items():
        assert validate_fusion(spec).ok, name
        dd = compute_duality(spec)  # both zig-zags hold on valid data
        assert (dict(dd.ev_scalar), dict(dd.left_ev_scalar)) == _oracle_scalars(spec), name


FACTORS = ("2", "-3", "1/5")


def _mutants(subjects):
    """Seeded single-entry F-symbol mutants: ``(mutant, off the unit legs)``."""
    for name, spec in subjects.items():
        rng = random.Random(zlib.crc32(name.encode()))
        keys = sorted(k for k, v in spec._f.items() if v)
        unit_leg = [k for k in keys if spec.unit in k[:3]]
        inner = [k for k in keys if spec.unit not in k[:3]]
        picks = [(k, False) for k in rng.sample(unit_leg, min(2, len(unit_leg)))]
        picks += [(k, True) for k in rng.sample(inner, min(4, len(inner)))]
        for key, off_unit in picks:
            for factor in FACTORS:
                f_new = dict(spec._f)
                f_new[key] = f_new[key] * spec.field.rational(factor)
                yield _with_f(spec, f_new, f"{name}@{key}x{factor}"), off_unit


def test_closed_form_duality_matches_oracle_on_mutations():
    """Seeded single-entry mutations of the F-symbols.

    Off the unit legs the closed form must agree with the solved zig-zag,
    whether or not the mutated category is still valid.  Mutating a unit
    leg breaks the skeleton convention the closed form relies on; the gate
    rejects such data before duality is ever computed.
    """
    compared = 0
    for mutant, off_unit in _mutants(_oracle_subjects()):
        if not off_unit:
            checks = {e.check for e in validate_fusion(mutant).entries}
            assert "unit-leg-f" in checks, mutant.name
            continue
        assert _closed_form_scalars(mutant) == _oracle_scalars(mutant), mutant.name
        compared += 1
    assert compared >= 100


def _duality_outcome(spec):
    """``compute_duality``'s InconsistentRigidity message, or None."""
    try:
        compute_duality(spec)
    except InconsistentRigidity as exc:
        return str(exc)
    return None


def _composite_duality_outcome(spec):
    """The outcome of ``compute_duality`` with the four zig-zags checked as
    whole-object composites on the installed scalars."""
    outcome = _duality_outcome(spec)
    if outcome is not None and "degenerate" in outcome:
        return outcome
    base = spec.tables
    reg = base.regular()
    one_obj = cunit(base)
    for a in spec.simples:
        sa = blocks._simple(base, a)
        da = rdual_flat(base, sa)
        ident_a = identity_mor(spec.field, sa)
        ident_d = identity_mor(spec.field, da)
        zig1 = runit_reg(base, sa) \
            * whisker_c(reg, sa, eps_flat(reg, sa, one_obj)) \
            * whisker_c(reg, sa, whisker_c(reg, da, runit_reg_inv(base, sa))) \
            * coev_insert(reg, sa, sa)
        zig2 = runit_reg(base, da) \
            * eps_flat(reg, sa, blocks.act_c(reg, da, one_obj)) \
            * whisker_c(reg, da, coev_insert(reg, sa, one_obj)) \
            * runit_reg_inv(base, da)
        if zig1 != ident_a or zig2 != ident_d:
            return f"right zig-zags disagree at {a}"
        lzig1 = runit_reg(base, sa) \
            * zeta_flat(reg, sa, blocks.act_c(reg, sa, one_obj)) \
            * whisker_c(reg, sa, lcoev_insert(reg, sa, one_obj)) \
            * runit_reg_inv(base, sa)
        lzig2 = runit_reg(base, da) \
            * whisker_c(reg, da, zeta_flat(reg, sa, one_obj)
                               * whisker_c(reg, sa, runit_reg_inv(base, da))) \
            * lcoev_insert(reg, sa, da)
        if lzig1 != ident_a or lzig2 != ident_d:
            return f"left zig-zags disagree at {a}"
    return None


def _subjects_and_mutants() -> list:
    subjects = _oracle_subjects()
    return list(subjects.values()) + [m for m, off_unit in _mutants(subjects) if off_unit]


def test_zigzag_equations_match_the_composites():
    """The four scalar zig-zag equations fail exactly where the composites do,
    with the same message, on every subject and every mutant off the unit legs."""
    outcomes = []
    for spec in _subjects_and_mutants():
        outcomes.append(_duality_outcome(spec))
        composite = _composite_duality_outcome(_with_f(spec, spec._f, spec.name))
        assert outcomes[-1] == composite, spec.name
    held = outcomes.count(None)
    assert held >= 12 and len(outcomes) - held >= 10, outcomes


def test_ev_tensor_prod_identity():
    """``blocks.nested_lev_scalar`` against the composite, and ``lev_tensor_holds``
    against the comparison of whole morphisms, on every subject and mutant off
    the unit legs whose duality scalars exist."""
    triples = failing = 0
    for spec in _subjects_and_mutants():
        if "degenerate" in str(_duality_outcome(spec)):
            continue
        bt = spec.tables
        for a in spec.simples:
            for b in spec.simples:
                closed = [blocks.nested_lev_scalar(bt, a, b, z) for z in bt.fuse(a, b)]
                assert closed == nested_lev_entries(bt, a, b), (spec.name, a, b)
                V = blocks.ctensor(bt, blocks._simple(bt, a), blocks._simple(bt, b))
                holds = lev_flat(bt, V) == nested_lev(bt, a, b)
                assert blocks.lev_tensor_holds(bt, a, b) == holds, (spec.name, a, b)
                triples += len(closed)
                failing += not holds
    assert triples >= 400 and failing, (triples, failing)


def test_zero_evaluation_entry_with_invertible_block_is_degenerate():
    base = fib()
    key = ("tau", "tau", "tau", "tau", "1", "1")
    spec = _with_f(base, {**base._f, key: base.field.zero}, "fib_zero_entry")
    spec.tables.f_block("tau", "tau", "tau", "tau")[2].inverse()  # still invertible
    with pytest.raises(InconsistentRigidity, match="degenerate zig-zag at tau"):
        compute_duality(spec)
    assert _oracle_scalars(spec) == "degenerate zig-zag at tau"


def test_left_zigzag_fails_alone_off_the_diagonal():
    """Scaling an off-diagonal entry of ``F[a, a*, a; a]`` at a simple that is not
    self-dual changes ``F^-1[a, a*, a; a]_{1,1}`` and nothing the right equations
    at ``a`` or at the simples before it read, so only the left check fails."""
    spec = fib_z3()
    assert validate_fusion(spec).ok and _duality_outcome(fib_z3()) is None
    a, unit = "tau.1", spec.unit
    d = spec.dual[a]
    assert d == "tau.2" and spec.fuse(a, d) == (unit, "tau.0")
    key = (a, d, a, a, unit, "tau.0")
    mutant = _with_f(spec, {**spec._f, key: spec._f[key] * spec.field.rational(2)},
                     "fib_z3_off_diagonal")
    assert _duality_outcome(mutant) == "left zig-zags disagree at tau.1"
    assert _composite_duality_outcome(_with_f(mutant, mutant._f, mutant.name)) \
        == "left zig-zags disagree at tau.1"
