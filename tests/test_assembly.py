"""Closed-form structural maps of the assembly layer against their composites.

``blocks.rdual_mor``/``ldual_mor`` are matrix transposes and ``blocks.phi_r``/
``phi_l`` are monomial maps with closed-form scalars.  Both forms are exact
only because ``compute_duality`` verifies the zig-zags, so this module keeps
the zig-zag composites they replace as the reference: the dual transposes
built from (co)evaluations, the tensor-product isos built from nested
(co)evaluations, and the scalar iso ``nu_left: X -> *(X*)``.  Each closed
form must equal its composite entry for entry, and the probe systems and
opposite modules built on either must agree matrix for matrix.
"""

from __future__ import annotations

import importlib.util
import random
import zlib
from pathlib import Path

import pytest

from helpers import CORPUS, all_categories, gauge_category, vec_over_vec_z2
from modend import blocks, cli, endengine
from modend.blocks import Mor, Obj, _simple, cunit
from modend.modcat import opposite_module, regular_module
from modend.modfunct import identity_functor
from modend.scalarfield import Matrix


# ---------------------------------------------------------------------------
# the reference composites


def ref_rdual_mor(base, g: Mor) -> Mor:
    """``g*: B* -> A*`` through ``coev_A``, ``g`` and ``ev_B``."""
    reg = base.regular()
    A, B = g.src, g.dst
    da, db = blocks.rdual_flat(base, A), blocks.rdual_flat(base, B)
    n0 = blocks.act_c(reg, da, cunit(base))
    chain = blocks.runit_reg_inv(base, db)
    chain = blocks.whisker_c(reg, db, blocks.coev_insert(reg, A, cunit(base))) * chain
    chain = blocks.whisker_c(reg, db, blocks.act_mor(reg, g, n0)) * chain
    chain = blocks.eps_flat(reg, B, n0) * chain
    return blocks.runit_reg(base, da) * chain


def ref_ldual_mor(base, g: Mor) -> Mor:
    """``*g: *B -> *A`` through ``lcoev_A``, ``g`` and ``lev_B``."""
    reg = base.regular()
    A, B = g.src, g.dst
    da, db = blocks.ldual_flat(base, A), blocks.ldual_flat(base, B)
    chain = blocks.lcoev_insert(reg, A, db)
    chain = blocks.whisker_c(reg, da, blocks.act_mor(reg, g, db)) * chain
    inner = blocks.whisker_c(reg, B, blocks.runit_reg_inv(base, db))
    inner = blocks.zeta_flat(reg, B, cunit(base)) * inner
    chain = blocks.whisker_c(reg, da, inner) * chain
    return blocks.runit_reg(base, da) * chain


def ref_phi_r(base, A1: Obj, A2: Obj) -> Mor:
    """``(A1 x A2)* -> A2* x A1*`` through nested coevaluations and ``ev``."""
    reg = base.regular()
    V = blocks.ctensor(base, A1, A2)
    d1, d2 = blocks.rdual_flat(base, A1), blocks.rdual_flat(base, A2)
    Da = blocks.rdual_flat(base, V)
    Db = blocks.ctensor(base, d2, d1)
    one = cunit(base)
    co = blocks.coev_insert(reg, A1, one)
    co = blocks.whisker_c(reg, A1, blocks.coev_insert(reg, A2, blocks.act_c(reg, d1, one))) * co
    chain = blocks.whisker_c(reg, Da, co) * blocks.runit_reg_inv(base, Da)
    n_tail = blocks.act_c(reg, d2, blocks.act_c(reg, d1, one))
    refuse = blocks.whisker_c(reg, Da, blocks.assoc_inv(reg, A1, A2, n_tail))
    chain = blocks.eps_flat(reg, V, n_tail) * (refuse * chain)
    chain = blocks.assoc_inv(reg, d2, d1, one) * chain
    return blocks.runit_reg(base, Db) * chain


def ref_phi_l(base, A1: Obj, A2: Obj) -> Mor:
    """``*(A1 x A2) -> *A2 x *A1`` through nested left coevaluations and ``lev``."""
    reg = base.regular()
    V = blocks.ctensor(base, A1, A2)
    d1, d2 = blocks.ldual_flat(base, A1), blocks.ldual_flat(base, A2)
    La = blocks.ldual_flat(base, V)
    Lb = blocks.ctensor(base, d2, d1)
    one = cunit(base)
    chain = blocks.lcoev_insert(reg, A2, La)
    chain = blocks.whisker_c(reg, d2, blocks.lcoev_insert(reg, A1, blocks.act_c(reg, A2, La))) \
        * chain
    f3 = blocks.zeta_flat(reg, V, one) * blocks.whisker_c(reg, V, blocks.runit_reg_inv(base, La)) \
        * blocks.assoc_inv(reg, A1, A2, La)
    chain = blocks.whisker_c(reg, d2, blocks.whisker_c(reg, d1, f3)) * chain
    chain = blocks.assoc_inv(reg, d2, d1, one) * chain
    return blocks.runit_reg(base, Lb) * chain


def ref_nu_left(base, X: str) -> Mor:
    """``X -> *(X*)``: pair ``X*`` off by ``ev`` inside the left coevaluation of ``X*``."""
    reg = base.regular()
    sx, sxd = _simple(base, X), _simple(base, base.dual[X])
    one = cunit(base)
    pair1 = blocks.eps_flat(reg, sx, one) * blocks.whisker_c(reg, sxd, blocks.runit_reg_inv(base, sx))
    return blocks.runit_reg(base, sx) * blocks.whisker_c(reg, sx, pair1) \
        * blocks.lcoev_insert(reg, sxd, sx)


REFERENCE = {"rdual_mor": ref_rdual_mor, "ldual_mor": ref_ldual_mor,
             "phi_r": ref_phi_r, "phi_l": ref_phi_l}


# ---------------------------------------------------------------------------
# subjects: the corpus, two gauged copies of each category, generated Z/n


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _categories() -> dict:
    out = all_categories()
    for name in CORPUS:
        rng = random.Random(zlib.crc32(name.encode()))
        for copy in (1, 2):
            out[f"{name}~gauged{copy}"] = gauge_category(out[name], rng)[0]
    gen = _bench_gen()
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


@pytest.mark.parametrize("name", NAMES)
def test_tensor_duality_isos_match_the_composites_on_simple_pairs(name):
    spec = CATEGORIES[name]
    bt = spec.tables
    for a in spec.simples:
        for b in spec.simples:
            sa, sb = _simple(bt, a), _simple(bt, b)
            assert blocks.phi_r(bt, sa, sb) == ref_phi_r(bt, sa, sb), (a, b)
            assert blocks.phi_l(bt, sa, sb) == ref_phi_l(bt, sa, sb), (a, b)


@pytest.mark.parametrize("name", NAMES)
def test_tensor_duality_isos_match_the_composites_on_flat_sums(name):
    spec = CATEGORIES[name]
    bt = spec.tables
    rng = random.Random(zlib.crc32(f"flat-sums {name}".encode()))
    for _ in range(10):
        A1, A2 = _flat_sum(spec, rng), _flat_sum(spec, rng)
        assert blocks.phi_r(bt, A1, A2) == ref_phi_r(bt, A1, A2), (A1, A2)
        assert blocks.phi_l(bt, A1, A2) == ref_phi_l(bt, A1, A2), (A1, A2)


@pytest.mark.parametrize("name", NAMES)
def test_dual_transposes_match_the_composites(name):
    spec = CATEGORIES[name]
    bt = spec.tables
    rng = random.Random(zlib.crc32(f"schur {name}".encode()))
    for _ in range(8):
        g = _schur_mor(spec, rng)
        assert blocks.rdual_mor(bt, g) == ref_rdual_mor(bt, g), g
        assert blocks.ldual_mor(bt, g) == ref_ldual_mor(bt, g), g


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
    """``name -> (module, functor for the character probe)``."""
    out = {}
    for name in (*CORPUS, "vec_z4~gauged1", "fib~gauged1", "ising~gauged1", "zn4"):
        reg = regular_module(CATEGORIES[name])
        out[f"{name}_regular"] = (reg, identity_functor(reg))
    module, _reg, forgetful = vec_over_vec_z2(CATEGORIES["vec_z2_triv"])
    out["vec_over_vec_z2"] = (module, forgetful)
    return out


MODULES = _module_subjects()


def _system(sys_) -> tuple:
    return ([(b.simple, b.basis, b.offset) for b in sys_.blocks],
            [(c.generator, c.matrix) for c in sys_.conditions])


def _assembled(module, functor) -> dict:
    base = module.base
    bt = base.tables
    out = {f"serre {i}": _system(endengine.build_serre_probe_system(module, i))
           for i in module.simples}
    out["character"] = _system(endengine.build_character_probe_system(functor, functor))
    if module.tables is bt.regular():
        for x in base.simples:
            out[f"upsilon {x}"] = _system(endengine.build_upsilon_probe_system(module, x))
        out["nested lev"] = [cli._nested_lev(bt, a, b).mat
                             for a in base.simples for b in base.simples]
    op = opposite_module(module)
    for tag, mod in (("op", op), ("op op", opposite_module(op))):
        out[tag] = (mod.orientation, mod.action, mod.l_raw, mod.unit_scalars)
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_probe_systems_match_the_composites(name, monkeypatch):
    module, functor = MODULES[name]
    closed = _assembled(module, functor)
    for attr, ref in REFERENCE.items():
        monkeypatch.setattr(blocks, attr, ref)
    composite = _assembled(module, functor)
    assert closed.keys() == composite.keys()
    for key in closed:
        assert closed[key] == composite[key], key
