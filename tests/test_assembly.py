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
the composite duality maps as well and must agree entry for entry.
"""

from __future__ import annotations

import random
import zlib

import pytest

import helpers
from helpers import (CORPUS, all_categories, bench_gen, character_probe_composite, coev_insert,
                     gauge_category, lcoev_insert, ldual_flat, nested_lev_entries,
                     opposite_module_composite, runit_reg, runit_reg_inv,
                     serre_probe_composite, upsilon_probe_composite, vec_over_vec_z2, zeta_flat)
from modend import blocks, cli, endengine
from modend.blocks import Mor, Obj, _simple, cunit
from modend.modcat import opposite_module, regular_module
from modend.modfunct import act_right_functor, identity_functor
from modend.scalarfield import Matrix


# ---------------------------------------------------------------------------
# the reference composites


def ref_rdual_mor(base, g: Mor) -> Mor:
    """``g*: B* -> A*`` through ``coev_A``, ``g`` and ``ev_B``."""
    reg = base.regular()
    A, B = g.src, g.dst
    da, db = blocks.rdual_flat(base, A), blocks.rdual_flat(base, B)
    n0 = blocks.act_c(reg, da, cunit(base))
    chain = runit_reg_inv(base, db)
    chain = blocks.whisker_c(reg, db, coev_insert(reg, A, cunit(base))) * chain
    chain = blocks.whisker_c(reg, db, blocks.act_mor(reg, g, n0)) * chain
    chain = blocks.eps_flat(reg, B, n0) * chain
    return runit_reg(base, da) * chain


def ref_ldual_mor(base, g: Mor) -> Mor:
    """``*g: *B -> *A`` through ``lcoev_A``, ``g`` and ``lev_B``."""
    reg = base.regular()
    A, B = g.src, g.dst
    da, db = ldual_flat(base, A), ldual_flat(base, B)
    chain = lcoev_insert(reg, A, db)
    chain = blocks.whisker_c(reg, da, blocks.act_mor(reg, g, db)) * chain
    inner = blocks.whisker_c(reg, B, runit_reg_inv(base, db))
    inner = zeta_flat(reg, B, cunit(base)) * inner
    chain = blocks.whisker_c(reg, da, inner) * chain
    return runit_reg(base, da) * chain


def ref_phi_r(base, A1: Obj, A2: Obj) -> Mor:
    """``(A1 x A2)* -> A2* x A1*`` through nested coevaluations and ``ev``."""
    reg = base.regular()
    V = blocks.ctensor(base, A1, A2)
    d1, d2 = blocks.rdual_flat(base, A1), blocks.rdual_flat(base, A2)
    Da = blocks.rdual_flat(base, V)
    Db = blocks.ctensor(base, d2, d1)
    one = cunit(base)
    co = coev_insert(reg, A1, one)
    co = blocks.whisker_c(reg, A1, coev_insert(reg, A2, blocks.act_c(reg, d1, one))) * co
    chain = blocks.whisker_c(reg, Da, co) * runit_reg_inv(base, Da)
    n_tail = blocks.act_c(reg, d2, blocks.act_c(reg, d1, one))
    refuse = blocks.whisker_c(reg, Da, blocks.assoc_inv(reg, A1, A2, n_tail))
    chain = blocks.eps_flat(reg, V, n_tail) * (refuse * chain)
    chain = blocks.assoc_inv(reg, d2, d1, one) * chain
    return runit_reg(base, Db) * chain


def ref_phi_l(base, A1: Obj, A2: Obj) -> Mor:
    """``*(A1 x A2) -> *A2 x *A1`` through nested left coevaluations and ``lev``."""
    reg = base.regular()
    V = blocks.ctensor(base, A1, A2)
    d1, d2 = ldual_flat(base, A1), ldual_flat(base, A2)
    La = ldual_flat(base, V)
    Lb = blocks.ctensor(base, d2, d1)
    one = cunit(base)
    chain = lcoev_insert(reg, A2, La)
    chain = blocks.whisker_c(reg, d2, lcoev_insert(reg, A1, blocks.act_c(reg, A2, La))) \
        * chain
    f3 = zeta_flat(reg, V, one) * blocks.whisker_c(reg, V, runit_reg_inv(base, La)) \
        * blocks.assoc_inv(reg, A1, A2, La)
    chain = blocks.whisker_c(reg, d2, blocks.whisker_c(reg, d1, f3)) * chain
    chain = blocks.assoc_inv(reg, d2, d1, one) * chain
    return runit_reg(base, Lb) * chain


def ref_nu_left(base, X: str) -> Mor:
    """``X -> *(X*)``: pair ``X*`` off by ``ev`` inside the left coevaluation of ``X*``."""
    reg = base.regular()
    sx, sxd = _simple(base, X), _simple(base, base.dual[X])
    one = cunit(base)
    pair1 = blocks.eps_flat(reg, sx, one) * blocks.whisker_c(reg, sxd, runit_reg_inv(base, sx))
    return runit_reg(base, sx) * blocks.whisker_c(reg, sx, pair1) \
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
    bt = spec.tables
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
    bt = spec.tables
    rng = random.Random(zlib.crc32(f"flat-sums {name}".encode()))
    for _ in range(10):
        A1, A2 = _flat_sum(spec, rng), _flat_sum(spec, rng)
        assert helpers.phi_r(bt, A1, A2) == ref_phi_r(bt, A1, A2), (A1, A2)
        assert helpers.phi_l(bt, A1, A2) == ref_phi_l(bt, A1, A2), (A1, A2)


@pytest.mark.parametrize("name", NAMES)
def test_dual_transposes_match_the_composites(name):
    spec = CATEGORIES[name]
    bt = spec.tables
    rng = random.Random(zlib.crc32(f"schur {name}".encode()))
    for _ in range(8):
        g = _schur_mor(spec, rng)
        assert helpers.rdual_mor(bt, g) == ref_rdual_mor(bt, g), g
        assert helpers.ldual_mor(bt, g) == ref_ldual_mor(bt, g), g


@pytest.mark.parametrize("name", NAMES)
def test_reference_nu_left_is_the_identity(name):
    spec = CATEGORIES[name]
    bt = spec.tables
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


def _assembled(module, pairs, serre, character, upsilon, opposite, lev_entries) -> dict:
    base = module.base
    bt = base.tables
    out = {f"serre {i}": _system(serre(module, i)) for i in module.simples}
    for f, g in pairs:
        out[f"character {f.name}, {g.name}"] = _system(character(f, g))
    if module.tables is bt.regular():
        for x in base.simples:
            out[f"upsilon {x}"] = _system(upsilon(module, x))
        out["nested lev"] = [lev_entries(bt, a, b) for a in base.simples for b in base.simples]
    op = opposite(module)
    for tag, mod in (("op", op), ("op op", opposite(op))):
        out[tag] = (mod.orientation, mod.action, mod.l_raw, mod.unit_scalars)
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_probe_systems_match_the_composites(name, monkeypatch):
    """The probe systems, the nested left evaluation and the opposite modules,
    each built from symbols and as a composite on the composite duality maps."""
    module, pairs = MODULES[name]
    closed = _assembled(module, pairs, *SYMBOLS)
    for attr, ref in REFERENCE.items():
        monkeypatch.setattr(helpers, attr, ref)
    composite = _assembled(module, pairs, *COMPOSITES)
    assert closed.keys() == composite.keys()
    for key in closed:
        assert closed[key] == composite[key], key
