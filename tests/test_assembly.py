"""Symbol-level assembly against the whole-object composites it replaced.

The probe builders of ``endengine`` and the duality scalars of ``blocks``
are closed forms, exact only because ``compute_duality`` verifies the
zig-zags.  This module keeps the zig-zag composites as the reference: the
dual transposes built from (co)evaluations, the tensor-product isos built
from nested (co)evaluations, and the scalar iso ``nu_left: X -> *(X*)``.
``phi_r_scalar``/``phi_l_scalar`` must equal the composite isos entry for
entry.  Each probe builder must equal its whole-object composite in
``helpers``, built on these composite duality maps, block for block and
matrix entry for matrix entry.  The nested left evaluation and the opposite
modules are read off symbols (``blocks.nested_lev_scalar``,
``modcat.opposite_module``); their composites in ``helpers`` are built on
the composite duality maps as well and must agree entry for entry.  The
``Hom(F(-), G(-))`` family (the nat, oracle and coend systems and the
conditions of a decomposed ``X x Y``) must equal its composites in
``helpers`` the same way, on the probe subjects and on seeded single-symbol
mutants of the gate's subjects, whose symbols obey no coherence.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import zlib

import pytest

import helpers
import test_gate
from helpers import (CORPUS, act_mor, all_categories, bench_gen,
                     character_probe_composite, coev_insert, composite_conditions_composite,
                     cunit, eps_flat, gauge_category, hom_coend_composite, lcoev_insert,
                     ldual_flat, mutated, nat_composite,
                     nat_oracle_composite, nested_lev_entries, opposite_module_composite, rdual_flat, runit_reg,
                     runit_reg_inv, sampled_sites, serre_probe_composite,
                     upsilon_probe_composite, vec_over_vec_z2, whisker_c, zeta_flat)
from modend import blocks, cli, endengine
from modend.blocks import Mor, Obj, _simple
from modend.common import NotATensorSubcategory
from modend.fusioncat import tensor_generators, tensor_subcategory
from modend.modcat import ModuleCategorySpec, opposite_module, regular_module
from modend.modfunct import ModuleFunctorSpec, act_right_functor, identity_functor
from modend.scalarfield import Matrix


# ---------------------------------------------------------------------------
# the reference composites


def ref_rdual_mor(base, g: Mor) -> Mor:
    """``g*: B* -> A*`` through ``coev_A``, ``g`` and ``ev_B``."""
    reg = regular_module(base)
    A, B = g.src, g.dst
    da, db = rdual_flat(base, A), rdual_flat(base, B)
    n0 = blocks.act_c(reg, da, cunit(base))
    chain = runit_reg_inv(base, db)
    chain = whisker_c(reg, db, coev_insert(reg, A, cunit(base))) * chain
    chain = whisker_c(reg, db, act_mor(reg, g, n0)) * chain
    chain = eps_flat(reg, B, n0) * chain
    return runit_reg(base, da) * chain


def ref_ldual_mor(base, g: Mor) -> Mor:
    """``*g: *B -> *A`` through ``lcoev_A``, ``g`` and ``lev_B``."""
    reg = regular_module(base)
    A, B = g.src, g.dst
    da, db = ldual_flat(base, A), ldual_flat(base, B)
    chain = lcoev_insert(reg, A, db)
    chain = whisker_c(reg, da, act_mor(reg, g, db)) * chain
    inner = whisker_c(reg, B, runit_reg_inv(base, db))
    inner = zeta_flat(reg, B, cunit(base)) * inner
    chain = whisker_c(reg, da, inner) * chain
    return runit_reg(base, da) * chain


def ref_phi_r(base, A1: Obj, A2: Obj) -> Mor:
    """``(A1 x A2)* -> A2* x A1*`` through nested coevaluations and ``ev``."""
    reg = regular_module(base)
    V = blocks.ctensor(base, A1, A2)
    d1, d2 = rdual_flat(base, A1), rdual_flat(base, A2)
    Da = rdual_flat(base, V)
    Db = blocks.ctensor(base, d2, d1)
    one = cunit(base)
    co = coev_insert(reg, A1, one)
    co = whisker_c(reg, A1, coev_insert(reg, A2, blocks.act_c(reg, d1, one))) * co
    chain = whisker_c(reg, Da, co) * runit_reg_inv(base, Da)
    n_tail = blocks.act_c(reg, d2, blocks.act_c(reg, d1, one))
    refuse = whisker_c(reg, Da, blocks.assoc_inv(reg, A1, A2, n_tail))
    chain = eps_flat(reg, V, n_tail) * (refuse * chain)
    chain = blocks.assoc_inv(reg, d2, d1, one) * chain
    return runit_reg(base, Db) * chain


def ref_phi_l(base, A1: Obj, A2: Obj) -> Mor:
    """``*(A1 x A2) -> *A2 x *A1`` through nested left coevaluations and ``lev``."""
    reg = regular_module(base)
    V = blocks.ctensor(base, A1, A2)
    d1, d2 = ldual_flat(base, A1), ldual_flat(base, A2)
    La = ldual_flat(base, V)
    Lb = blocks.ctensor(base, d2, d1)
    one = cunit(base)
    chain = lcoev_insert(reg, A2, La)
    chain = whisker_c(reg, d2, lcoev_insert(reg, A1, blocks.act_c(reg, A2, La))) \
        * chain
    f3 = zeta_flat(reg, V, one) * whisker_c(reg, V, runit_reg_inv(base, La)) \
        * blocks.assoc_inv(reg, A1, A2, La)
    chain = whisker_c(reg, d2, whisker_c(reg, d1, f3)) * chain
    chain = blocks.assoc_inv(reg, d2, d1, one) * chain
    return runit_reg(base, Lb) * chain


def ref_nu_left(base, X: str) -> Mor:
    """``X -> *(X*)``: pair ``X*`` off by ``ev`` inside the left coevaluation of ``X*``."""
    reg = regular_module(base)
    sx, sxd = _simple(base, X), _simple(base, base.dual[X])
    one = cunit(base)
    pair1 = eps_flat(reg, sx, one) * whisker_c(reg, sxd, runit_reg_inv(base, sx))
    return runit_reg(base, sx) * whisker_c(reg, sx, pair1) \
        * lcoev_insert(reg, sxd, sx)


REFERENCE = {"rdual_mor": ref_rdual_mor, "ldual_mor": ref_ldual_mor,
             "phi_r": ref_phi_r, "phi_l": ref_phi_l}


# ---------------------------------------------------------------------------
# subjects: the corpus, two gauged copies of each category, generated Z/n


def _categories() -> dict:
    out = all_categories()
    for name in CORPUS:
        rng = random.Random(zlib.crc32(name.encode()))
        for copy in (1, 2):
            out[f"{name}~gauged{copy}"] = gauge_category(out[name], rng)[0]
    gen = bench_gen()
    for n in (4, 6):
        name = f"zn{n}"
        out[name] = cli._load_category(name, gen.instance(n, 1)["categories"][name])
    for spec in out.values():
        spec.duality()
    return out


CATEGORIES = _categories()
NAMES = sorted(CATEGORIES)


def _flat_sum(spec, rng) -> Obj:
    labels = tuple(rng.choice(spec.simples) for _ in range(rng.randint(1, 2)))
    return Obj(labels, tuple(range(len(labels))))


def _schur_mor(spec, rng) -> Mor:
    """A seeded morphism between flat sums, zero between summands of different labels."""
    A, B = _flat_sum(spec, rng), _flat_sum(spec, rng)
    mat = Matrix.zeros(spec.field, len(B), len(A))
    for r, q in enumerate(B.labels):
        for c, p in enumerate(A.labels):
            if p == q:
                mat[r, c] = spec.field.rational(rng.randint(-3, 3))
    return Mor(A, B, mat)


def _dual_tensor_entries(iso: Mor, bt, a: str, b: str) -> list:
    """The entry of ``iso: (a x b)* -> b* x a*`` from ``z*`` to ``z*`` at each
    ``z in a x b``, checking that every other entry is 0."""
    zs = [z for _, _, z in blocks.ctensor(bt, _simple(bt, a), _simple(bt, b)).keys]
    at = [(iso.dst.index[(0, 0, bt.dual[z])], col) for col, z in enumerate(zs)]
    assert not any(iso.mat[r, c] for r in range(iso.mat.rows) for c in range(iso.mat.cols)
                   if (r, c) not in at), (a, b)
    return [iso.mat[r, c] for r, c in at]


@pytest.mark.parametrize("name", NAMES)
def test_tensor_duality_isos_match_the_composites_on_simple_pairs(name):
    spec = CATEGORIES[name]
    bt = spec
    for a in spec.simples:
        for b in spec.simples:
            sa, sb = _simple(bt, a), _simple(bt, b)
            for scalar, ref in ((blocks.phi_r_scalar, ref_phi_r), (blocks.phi_l_scalar, ref_phi_l)):
                closed = [scalar(bt, a, b, z) for z in bt.fuse(a, b)]
                assert closed == _dual_tensor_entries(ref(bt, sa, sb), bt, a, b), (a, b)


@pytest.mark.parametrize("name", NAMES)
def test_tensor_duality_isos_match_the_composites_on_flat_sums(name):
    """``helpers.phi_r``/``phi_l``, the monomial isos the references and the
    gate's composites assemble from the scalars, on sums of simples."""
    spec = CATEGORIES[name]
    bt = spec
    rng = random.Random(zlib.crc32(f"flat-sums {name}".encode()))
    for _ in range(10):
        A1, A2 = _flat_sum(spec, rng), _flat_sum(spec, rng)
        assert helpers.phi_r(bt, A1, A2) == ref_phi_r(bt, A1, A2), (A1, A2)
        assert helpers.phi_l(bt, A1, A2) == ref_phi_l(bt, A1, A2), (A1, A2)


@pytest.mark.parametrize("name", NAMES)
def test_dual_transposes_match_the_composites(name):
    spec = CATEGORIES[name]
    bt = spec
    rng = random.Random(zlib.crc32(f"schur {name}".encode()))
    for _ in range(8):
        g = _schur_mor(spec, rng)
        assert helpers.rdual_mor(bt, g) == ref_rdual_mor(bt, g), g
        assert helpers.ldual_mor(bt, g) == ref_ldual_mor(bt, g), g


@pytest.mark.parametrize("name", NAMES)
def test_reference_nu_left_is_the_identity(name):
    spec = CATEGORIES[name]
    bt = spec
    for X in spec.simples:
        nu = ref_nu_left(bt, X)
        assert nu.src == nu.dst == _simple(bt, X), X
        assert nu.mat == Matrix.identity(spec.field, 1), X


# ---------------------------------------------------------------------------
# probe systems and opposite modules built on either form


def _module_subjects() -> dict:
    """``name -> (module, functor pairs for the character probe)``.

    On a regular module the pairs are the identity and, for each simple ``y``,
    the two sides of ``adjshift``: ``(id, - x y)`` and ``(- x y*, id)``.
    """
    out = {}
    for name in (*CORPUS, *(f"{c}~gauged1" for c in CORPUS), "zn4", "zn6"):
        spec = CATEGORIES[name]
        reg = regular_module(spec)
        idf = identity_functor(reg)
        pairs = [(idf, idf)]
        for y in spec.simples:
            pairs += [(idf, act_right_functor(spec, y, reg)),
                      (act_right_functor(spec, spec.dual[y], reg), idf)]
        out[f"{name}_regular"] = (reg, pairs)
    module, _reg, forgetful = vec_over_vec_z2(CATEGORIES["vec_z2_triv"])
    out["vec_over_vec_z2"] = (module, [(forgetful, forgetful)])
    return out


MODULES = _module_subjects()


def _system(sys_) -> tuple:
    return ([(b.simple, b.basis, b.offset) for b in sys_.blocks],
            [(c.generator, c.matrix) for c in sys_.conditions],
            sys_.kind, sys_.recipe, sys_.meta)


def _nested_lev_closed(bt, a, b) -> list:
    return [blocks.nested_lev_scalar(bt, a, b, z) for z in bt.fuse(a, b)]


SYMBOLS = (endengine.build_serre_probe_system, endengine.build_character_probe_system,
           endengine.build_upsilon_probe_system, opposite_module, _nested_lev_closed)
COMPOSITES = (serre_probe_composite, character_probe_composite, upsilon_probe_composite,
              opposite_module_composite, nested_lev_entries)


def _at_generators(sys_) -> endengine.DinaturalSystem:
    """``sys_`` with only the conditions whose generator is in ``tensor_generators``."""
    gens = tensor_generators(sys_.meta["base"])
    return dataclasses.replace(sys_, conditions=[c for c in sys_.conditions
                                                 if c.generator[0] in gens],
                               meta={**sys_.meta, "at": gens})


def _assembled(module, pairs, serre, character, upsilon, opposite, lev_entries) -> dict:
    """The probe systems (as built), the nested left evaluations and the opposite modules."""
    base = module.base
    bt = base
    out = {f"serre {i}": serre(module, i) for i in module.simples}
    for f, g in pairs:
        out[f"character {f.name}, {g.name}"] = character(f, g)
    if module is regular_module(bt):
        for x in base.simples:
            out[f"upsilon {x}"] = upsilon(module, x)
        out["nested lev"] = [lev_entries(bt, a, b) for a in base.simples for b in base.simples]
    op = opposite(module)
    for tag, mod in (("op", op), ("op op", opposite(op))):
        out[tag] = (mod.orientation, mod.action, mod.l_raw, mod.unit_scalars)
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_probe_systems_match_the_composites(name, monkeypatch):
    """The probe systems, the nested left evaluation and the opposite modules,
    each built from symbols and as a composite on the composite duality maps.

    The builders balance at ``tensor_generators`` of the base and the
    composites at every simple: each built system equals its composite's
    conditions at the generators, matrix for matrix, and has the nullspace of
    the whole composite, so the other simples' conditions are redundant."""
    module, pairs = MODULES[name]
    closed = _assembled(module, pairs, *SYMBOLS)
    for attr, ref in REFERENCE.items():
        monkeypatch.setattr(helpers, attr, ref)
    composite = _assembled(module, pairs, *COMPOSITES)
    assert closed.keys() == composite.keys()
    for key, built in closed.items():
        ref = composite[key]
        if not isinstance(built, endengine.DinaturalSystem):
            assert built == ref, key
            continue
        assert _system(built) == _system(_at_generators(ref)), key
        assert endengine.solve_end(built).basis == endengine.solve_end(ref).basis, key


# ---------------------------------------------------------------------------
# the Hom(F(-), G(-)) family built on either form


HOM_SYMBOLS = (endengine.build_nat_system, endengine.nat_oracle_system,
               endengine.build_hom_coend_system, endengine.composite_nat_conditions)
HOM_COMPOSITES = (nat_composite, nat_oracle_composite, hom_coend_composite,
                  composite_conditions_composite)


def _hom_family(f, g, products, nat, oracle, coend, nested) -> dict:
    """The nat, oracle and coend systems of ``(f, g)`` and, on the nat carrier,
    the conditions of each decomposed ``X x Y`` for ``(X, Y)`` in ``products``."""
    out = {kind: _system(build(f, g))
           for kind, build in (("nat", nat), ("oracle", oracle), ("coend", coend))}
    carrier = endengine.build_nat_system(f, g).blocks
    out["nested"] = [(c.generator, c.matrix) for X, Y in products
                     for c in nested(f, g, carrier, X, Y)]
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_hom_systems_match_the_composites(name):
    """Every functor pair of the probe subjects, compared matrix for matrix,
    with every ``X x Y`` for ``(F, F)`` and three seeded ones for the others."""
    module, pairs = MODULES[name]
    rng = random.Random(zlib.crc32(f"hom {name}".encode()))
    products = [(X, Y) for X in module.base.simples for Y in module.base.simples]
    for f, g in pairs:
        some = products if f is g else rng.sample(products, min(3, len(products)))
        assert _hom_family(f, g, some, *HOM_SYMBOLS) \
            == _hom_family(f, g, some, *HOM_COMPOSITES), (f.name, g.name)


def _gate_mutant_pairs(name) -> list:
    """Functor pairs over seeded single-symbol mutants of the gate's subject
    ``name``, each symbol doubled: a left module's identity functor, or a
    functor against the unmutated one on either side."""
    _validate, subject = test_gate.SUBJECTS[name]
    out = []
    for site in sampled_sites(name, subject):
        mutant = mutated(subject, site, 2)
        if isinstance(subject, ModuleCategorySpec):
            idf = identity_functor(mutant)
            out.append((idf, idf))
        else:
            out += [(mutant, subject), (subject, mutant)]
    return out


# the gate's left modules and functors; of a subject with a gauged copy, the copy
GATE_SUBJECTS = sorted(name for name, (_v, s) in test_gate.SUBJECTS.items()
                       if f"{name}~gauged" not in test_gate.SUBJECTS
                       and (isinstance(s, ModuleFunctorSpec)
                            or isinstance(s, ModuleCategorySpec) and s.orientation == "left"))


@pytest.mark.parametrize("name", GATE_SUBJECTS)
def test_hom_systems_match_the_composites_on_mutants(name):
    """The gate's left modules and functors with one c- or L-symbol doubled,
    and one seeded ``X x Y`` each."""
    rng = random.Random(zlib.crc32(f"hom mutants {name}".encode()))
    for f, g in _gate_mutant_pairs(name):
        products = [tuple(rng.choice(f.src.base.simples) for _ in "XY")]
        assert _hom_family(f, g, products, *HOM_SYMBOLS) \
            == _hom_family(f, g, products, *HOM_COMPOSITES), (f.name, g.name)


# ---------------------------------------------------------------------------
# the Hom family at tensor generators against the Hom family at every simple


HOM_BUILDERS = {"nat": endengine.build_nat_system, "oracle": endengine.nat_oracle_system,
                "coend": endengine.build_hom_coend_system}


def _solved(sys_) -> list:
    """The echelon nullspace basis of an end, the echelon relations of a
    coend: equal exactly when the two systems cut out the same space."""
    if sys_.kind == "coend":
        return endengine.solve_coend(sys_).relations
    return endengine.solve_end(sys_).basis


@pytest.fixture(scope="module")
def every_simple():
    """``name -> [(f, g, {kind: (system, solved)})]``: each functor pair of the
    ``MODULES`` entry with its Hom systems at every simple, built on first use."""
    cache = {}

    def systems(name):
        if name not in cache:
            cache[name] = [(f, g, {kind: (sys_, _solved(sys_)) for kind, sys_ in
                                   ((kind, build(f, g)) for kind, build in HOM_BUILDERS.items())})
                           for f, g in MODULES[name][1]]
        return cache[name]
    return systems


@pytest.mark.parametrize("name", sorted(MODULES))
def test_hom_family_at_generators_cuts_out_every_simples_space(name, every_simple):
    """At ``tensor_generators`` of the base the nat and oracle systems have
    the nullspace, and the coend the relation space, of the same system
    written at every simple, for every functor pair."""
    gens = tensor_generators(MODULES[name][0].base)
    for f, g, full in every_simple(name):
        for kind, build in HOM_BUILDERS.items():
            assert _solved(build(f, g, gens)) == full[kind][1], (kind, f.name, g.name)


def _subcategories(spec) -> list:
    """The label sets, in ``simples`` order, of every tensor subcategory."""
    out = []
    for size in range(1, len(spec.simples) + 1):
        for labels in itertools.combinations(spec.simples, size):
            try:
                tensor_subcategory(spec, labels)
            except NotATensorSubcategory:
                continue
            out.append(labels)
    return out


# the subjects over vec_z4 and vec_z2_triv, whose subcategories are proper
RESTRICTED = sorted(name for name in MODULES
                    if name.startswith(("vec_z4", "vec_z2_triv")) or name == "vec_over_vec_z2")


@pytest.mark.parametrize("name", RESTRICTED)
def test_hom_family_at_subcategory_generators_matches_restrict(name, every_simple):
    """Under every tensor subcategory D, the systems written at D's
    generators cut out the space of ``restrict_conditions`` of the system at
    every simple, which ``end --restrict`` reported before."""
    base = MODULES[name][0].base
    subs = _subcategories(base)
    assert len(subs) == {2: 2, 4: 3}[len(base.simples)], subs
    for labels in subs:
        gens = tensor_generators(base, labels)
        for f, g, full in every_simple(name):
            for kind, build in HOM_BUILDERS.items():
                restricted = endengine.restrict_conditions(full[kind][0], labels)
                assert _solved(build(f, g, gens)) == _solved(restricted), \
                    (labels, kind, f.name, g.name)


# a set of simples that generates a proper subcategory only, per base
NON_GENERATING = {"vec_z4": ("2",), "ising": ("psi",), "zn6": ("3",)}


def test_a_set_that_does_not_generate_cuts_out_more(every_simple):
    """Each non-generating set leaves some pair's nat, oracle and coend space
    larger than at every simple, so the check above would catch a generator
    choice that misses a simple."""
    for base, at in NON_GENERATING.items():
        names = [name for name in MODULES if name.split("~")[0].removesuffix("_regular") == base]
        assert len(names) == (1 if base.startswith("zn") else 2), names
        for kind, build in HOM_BUILDERS.items():
            assert any(_solved(build(f, g, at)) != full[kind][1]
                       for name in names for f, g, full in every_simple(name)), (base, kind)
