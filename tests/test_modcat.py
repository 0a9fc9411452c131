import pytest

from helpers import all_categories, fib, ising, vec_z2_triv, vec_z4, vec_over_vec_z2

from modend.common import NotATensorSubcategory
from modend.modcat import (ModuleCategorySpec, internal_hom, opposite_module,
                           regular_module, restrict_module, validate_module)

CATS = all_categories()


@pytest.mark.parametrize("name", sorted(CATS))
def test_regular_modules_valid(name):
    spec = CATS[name]
    reg = regular_module(spec)
    assert reg.simples == spec.simples
    assert reg.action == spec.fusion
    assert validate_module(reg).ok


def test_regular_action_is_fusion():
    fb = fib()
    reg = regular_module(fb)
    assert reg.act_set("tau", "tau") == ("1", "tau")
    z = vec_z4()
    regz = regular_module(z)
    for a in z.simples:
        for b in z.simples:
            assert regz.act_set(a, b) == z.fuse(a, b)


def test_vec_over_vec_z2_valid():
    mod, _, _ = vec_over_vec_z2(vec_z2_triv())
    assert validate_module(mod).ok


def test_negated_l_symbol_locates_tuple():
    base = vec_z2_triv()
    mod, _, _ = vec_over_vec_z2(base)
    # flipping the unit-legged symbol breaks the mixed pentagon at a located tuple
    bad = dict(mod._l)
    key = ("e", "s", "m", "m", "s", "m")
    bad[key] = -bad[key]
    broken = ModuleCategorySpec(base=base, simples=mod.simples, action=mod.action,
                                l_symbols=bad, name="vec_bad")
    rep = validate_module(broken)
    assert not rep.ok
    assert any(e.check == "mixed-pentagon" for e in rep.entries)
    # flipping the other unit leg violates unit coherence instead
    bad2 = dict(mod._l)
    bad2[("s", "e", "m", "m", "s", "m")] = -bad2[("s", "e", "m", "m", "s", "m")]
    broken2 = ModuleCategorySpec(base=base, simples=mod.simples, action=mod.action,
                                 l_symbols=bad2, name="vec_bad2")
    rep2 = validate_module(broken2)
    assert not rep2.ok
    assert any(e.check == "unit-coherence" for e in rep2.entries)


def test_negated_ss_l_symbol_is_a_different_valid_module():
    # the (s,s) flip is *not* detectable: it is a genuinely valid module
    # structure (a nontrivial 2-cochain twist, not gauge-trivial over Q)
    base = vec_z2_triv()
    mod, _, _ = vec_over_vec_z2(base)
    bad = dict(mod._l)
    key = ("s", "s", "m", "m", "e", "m")
    bad[key] = -bad[key]
    twisted = ModuleCategorySpec(base=base, simples=mod.simples, action=mod.action,
                                 l_symbols=bad, name="vec_twisted")
    assert validate_module(twisted).ok


@pytest.mark.parametrize("name", sorted(CATS))
def test_opposite_module_validates_right_axioms(name):
    reg = regular_module(CATS[name])
    op = opposite_module(reg)
    assert op.orientation == "right"
    assert validate_module(op).ok


def test_opposite_action_tables():
    # every label of Z/2 is self-dual: action labels unchanged
    reg2 = regular_module(vec_z2_triv())
    op2 = opposite_module(reg2)
    assert op2.action == reg2.action
    # 1* = 3 in Z/4
    z4 = vec_z4()
    reg4 = regular_module(z4)
    op4 = opposite_module(reg4)
    for i in z4.simples:
        assert op4.act_set("1", i) == reg4.act_set("3", i)


@pytest.mark.parametrize("name", sorted(CATS))
def test_double_opposite_restores_action(name):
    reg = regular_module(CATS[name])
    dop = opposite_module(opposite_module(reg))
    assert dop.orientation == "left"
    assert dop.action == reg.action
    assert validate_module(dop).ok


def test_internal_hom_examples():
    # uhom(s, e) = s over regular vec_z2: dim Hom(X act s, e) = 1 iff X = s
    reg = regular_module(vec_z2_triv())
    table = internal_hom(reg)
    assert table.mult_vector("s", "e") == (0, 1)
    # uhom(tau, tau) = 1 + tau by the adjunction dimension count
    regf = regular_module(fib())
    tf = internal_hom(regf)
    assert tf.mult_vector("tau", "tau") == (1, 1)
    # the unit always appears once in uhom(m, m)
    for spec in CATS.values():
        t = internal_hom(regular_module(spec))
        for i in spec.simples:
            assert t.mult_vector(i, i)[spec.simples.index(spec.unit)] == 1


def test_internal_hom_adjunction_dims():
    for spec in CATS.values():
        reg = regular_module(spec)
        table = internal_hom(reg)
        for i in reg.simples:
            for j in reg.simples:
                for X, mult in zip(spec.simples, table.mult_vector(i, j)):
                    assert mult == (1 if j in reg.act_set(X, i) else 0)


def test_restrict_module():
    z4 = vec_z4()
    reg = regular_module(z4)
    sub = restrict_module(reg, ["0", "2"])
    assert sub.base.simples == ("0", "2")
    assert len(sub.simples) == 4
    assert validate_module(sub).ok
    one = restrict_module(reg, ["0"])
    assert one.base.simples == ("0",)
    assert validate_module(one).ok
    with pytest.raises(NotATensorSubcategory):
        restrict_module(reg, ["0", "1"])
    with pytest.raises(NotATensorSubcategory):
        restrict_module(reg, ["2"])
    with pytest.raises(NotATensorSubcategory, match="unknown label 7"):
        restrict_module(reg, ["0", "2", "7"])


def test_restrict_ising_to_pointed_part():
    isg = ising()
    reg = regular_module(isg)
    sub = restrict_module(reg, ["1", "psi"])
    assert sub.base.simples == ("1", "psi")
    assert len(sub.simples) == 3
    assert validate_module(sub).ok
    with pytest.raises(NotATensorSubcategory):
        restrict_module(reg, ["1", "sigma"])
