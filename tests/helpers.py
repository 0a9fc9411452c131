"""Shared fixtures: the bundled corpus, sampled randomness, gauge transformations
and block-calculus references.

The corpus categories are read from the JSON files shipped with the package,
a fresh load per call, so tests and the command line see the same data.

Gauge transformations re-randomize the basis scalars of every 1-dimensional
Hom space (and the copy bases of functor images): unit-leg scalars stay 1 so
the skeleton conventions survive, structure constants transform accordingly,
and all reported dimensions must be invariant.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import zlib
from pathlib import Path

from modend import blocks, cli, endengine
from modend.blocks import Mor, Obj
from modend.fusioncat import FusionCategorySpec
from modend.modcat import ModuleCategorySpec, regular_module
from modend.modfunct import ModuleFunctorSpec
from modend.scalarfield import FieldSpec, Matrix

# bundled categories in the order seeded samplers draw them
CORPUS = ("vec_z2_triv", "vec_z2_omega", "vec_z4", "fib", "ising")


def bench_gen():
    """The benchmark's generator of gauged Vec_{Z/n}^omega instances, ``bench/gen.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _instance_path(name: str) -> str:
    return next(p for p in cli.bundled_instance_paths()
                if os.path.basename(p) == f"{name}.json")


def _bundled_category(name: str) -> FusionCategorySpec:
    return cli.load([_instance_path(name)]).category(name)


def vec_z2_triv() -> FusionCategorySpec:
    return _bundled_category("vec_z2_triv")


def vec_z2_omega() -> FusionCategorySpec:
    return _bundled_category("vec_z2_omega")


def vec_z4() -> FusionCategorySpec:
    return _bundled_category("vec_z4")


def fib() -> FusionCategorySpec:
    return _bundled_category("fib")


def ising() -> FusionCategorySpec:
    return _bundled_category("ising")


def all_categories() -> dict:
    return {name: _bundled_category(name) for name in CORPUS}


def gauged_corpus_and_zn() -> dict:
    """The corpus categories, a seeded gauge copy of each and bench/gen.py zn4, zn6."""
    out = all_categories()
    for name in CORPUS:
        out[f"{name}~gauged"] = gauge_category(
            out[name], random.Random(zlib.crc32(name.encode())))[0]
    gen = bench_gen()
    for n in (4, 6):
        name = f"zn{n}"
        out[name] = cli._load_category(name, gen.instance(n, 1)["categories"][name])
    return out


def vec_over_vec_z2(base: FusionCategorySpec) -> tuple:
    """The bundled one-simple module and its forgetful functor, over ``base``.

    ``base`` is trivial vec_z2 or a gauge of it.  Returns
    ``(module, regular, forgetful)``; the forgetful functor sends the unique
    simple to the regular algebra object ``e + s``.
    """
    with open(_instance_path("vec_over_vec_z2")) as fh:
        doc = json.load(fh)
    data = doc["modules"]["vec_over_vec_z2"]
    bundle = cli.InstanceBundle()
    bundle.categories[data["category"]] = base
    reg = bundle.modules[f"{data['category']}_regular"] = regular_module(base)
    module = bundle.modules["vec_over_vec_z2"] = cli._load_module(
        "vec_over_vec_z2", data, bundle)
    forgetful = cli._load_functor("forgetful", doc["functors"]["forgetful"], bundle)
    return module, reg, forgetful


def one_simple_category(name: str = "vec") -> FusionCategorySpec:
    """The trivial base with a single simple (plain finite-dimensional spaces)."""
    return FusionCategorySpec(
        field=FieldSpec([0, 1]), simples=["1"], unit="1", dual={"1": "1"},
        fusion=[("1", "1", "1")], f_symbols={}, name=name)


def rand_nonzero(field, rng):
    val = 0
    while not val:
        val = rng.randint(-3, 3)
    return field.rational(val)


def gauge_category(spec: FusionCategorySpec, rng) -> tuple:
    """Random basis rescaling of the fusion vertices; unit legs stay 1."""
    lam = {}
    for (a, b, c) in spec.fusion:
        if a == spec.unit or b == spec.unit:
            lam[(a, b, c)] = spec.field.one
        else:
            lam[(a, b, c)] = rand_nonzero(spec.field, rng)
    f_new = {}
    for (a, b, c, d, e, f), val in spec._f.items():
        factor = lam[(a, b, e)] * lam[(e, c, d)] \
            * (lam[(b, c, f)] * lam[(a, f, d)]).inverse()
        f_new[(a, b, c, d, e, f)] = val * factor
    gauged = FusionCategorySpec(field=spec.field, simples=spec.simples,
                                unit=spec.unit, dual=spec.dual,
                                fusion=spec.fusion, f_symbols=f_new,
                                name=f"{spec.name}~gauged")
    return gauged, lam


def gauge_module(m: ModuleCategorySpec, new_base: FusionCategorySpec,
                 lam: dict, rng) -> tuple:
    """Random rescaling of the action vertices over a gauged base."""
    mu = {}
    for (X, i, j) in m.action:
        mu[(X, i, j)] = rand_nonzero(m.field, rng)
    l_new = {}
    for (X, Y, i, j, Z, t), val in m._l.items():
        factor = lam[(X, Y, Z)] * mu[(Z, i, t)] \
            * (mu[(Y, i, j)] * mu[(X, j, t)]).inverse()
        l_new[(X, Y, i, j, Z, t)] = val * factor
    units = {i: m.unit_scalars[i] * mu[(m.base.unit, i, i)] for i in m.simples}
    gauged = ModuleCategorySpec(base=new_base, simples=m.simples, action=m.action,
                                l_symbols=l_new, unit_scalars=units,
                                orientation=m.orientation,
                                name=f"{m.name}~gauged")
    return gauged, mu


def gauge_functor(f: ModuleFunctorSpec, new_src, new_dst, mu_src: dict,
                  mu_dst: dict, rng, mix_copies: bool = True,
                  return_gauge: bool = False):
    """Transport of the coherence blocks along gauged bases and copy bases."""
    field = f.field
    copy_gauge = {}
    for i in f.src.simples:
        for k in f.dst.simples:
            n = f.mult(i, k)
            if not n:
                continue
            while True:
                g = Matrix(field, n, n, [rand_nonzero(field, rng) if mix_copies
                                         else (field.one if r == c else field.zero)
                                         for r in range(n) for c in range(n)])
                try:
                    g.inverse()
                    break
                except ArithmeticError:
                    continue
            copy_gauge[(i, k)] = g
    c_new = {}
    for X in f.src.base.simples:
        for i in f.src.simples:
            blk = f.c_symbols[(X, i)]
            rows = _c_rows(f, X, i)
            cols = _c_cols(f, X, i)
            b_row = Matrix.zeros(field, len(rows), len(rows))
            for p, (k, cnt, t) in enumerate(rows):
                g = copy_gauge[(i, k)]
                for p2, (k2, cnt2, t2) in enumerate(rows):
                    if k2 == k and t2 == t:
                        b_row[p2, p] = mu_dst[(X, k, t)] * g[cnt2, cnt]
            b_col = Matrix.zeros(field, len(cols), len(cols))
            for p, (t, k, cnt) in enumerate(cols):
                g = copy_gauge[(t, k)]
                for p2, (t2, k2, cnt2) in enumerate(cols):
                    if k2 == k and t2 == t:
                        b_col[p2, p] = mu_src[(X, i, t)] * g[cnt2, cnt]
            c_new[(X, i)] = b_row.inverse() * blk * b_col
    out = ModuleFunctorSpec(new_src, new_dst, dict(f.on_simples), c_new,
                            name=f"{f.name}~gauged")
    if return_gauge:
        return out, copy_gauge
    return out


def _c_rows(f, X, i):
    out = []
    for k in f.dst.simples:
        for cnt in range(f.mult(i, k)):
            for t in f.dst.act_set(X, k):
                out.append((k, cnt, t))
    return out


def _c_cols(f, X, i):
    out = []
    for t in f.src.act_set(X, i):
        for k in f.dst.simples:
            for cnt in range(f.mult(t, k)):
                out.append((t, k, cnt))
    return out


def sample_pairs(items, count, rng):
    """Sample ``count`` ordered pairs with replacement, deterministically."""
    return [(rng.choice(items), rng.choice(items)) for _ in range(count)]


# ---------------------------------------------------------------------------
# block-calculus references: structure morphisms and composites that no
# longer have a caller in the package, kept as oracles for the closed forms
# that replaced them


def identity_mor(field, obj: Obj) -> Mor:
    return Mor(obj, obj, Matrix.identity(field, len(obj)))


def coev_insert(tables, A: Obj, N: Obj) -> Mor:
    """``N -> A act (A* act N)`` via the right coevaluation."""
    da = blocks.rdual_flat(tables.base, A)
    step1 = blocks.unit_l_inv(tables, N)
    step2 = blocks.act_mor(tables, blocks.coev_flat(tables.base, A), N)
    step3 = blocks.assoc(tables, A, da, N)
    return step3 * step2 * step1


def lcoev_insert(tables, A: Obj, N: Obj) -> Mor:
    """``N -> *A act (A act N)`` via the left coevaluation."""
    da = blocks.ldual_flat(tables.base, A)
    step1 = blocks.unit_l_inv(tables, N)
    step2 = blocks.act_mor(tables, blocks.lcoev_flat(tables.base, A), N)
    step3 = blocks.assoc(tables, da, A, N)
    return step3 * step2 * step1


@blocks._memoized
def ract_c(tables, N: Obj, A: Obj) -> Obj:
    """``N ract A`` for a right module's tables."""
    labels, keys = [], []
    for ip, p in enumerate(N.labels):
        for ia, a in enumerate(A.labels):
            for t in tables.ract_set(p, a):
                labels.append(t)
                keys.append((ip, ia, t))
    return Obj(tuple(labels), tuple(keys))


def ract_mor(tables, N: Obj, g: Mor) -> Mor:
    """``id_N ract g``."""
    src = ract_c(tables, N, g.src)
    dst = ract_c(tables, N, g.dst)
    mat = Matrix.zeros(tables.field, len(dst), len(src))
    for ib in range(len(g.dst)):
        for ia in range(len(g.src)):
            val = g.mat[ib, ia]
            if not val:
                continue
            a = g.src.labels[ia]
            for ip, p in enumerate(N.labels):
                for t in tables.ract_set(p, a):
                    mat[dst.index[(ip, ib, t)], src.index[(ip, ia, t)]] = val
    return Mor(src, dst, mat)


def rassoc(tables, N: Obj, A: Obj, B: Obj) -> Mor:
    """``N ract (A x B) -> (N ract A) ract B``."""
    ab = blocks.ctensor(tables.base, A, B)
    src = ract_c(tables, N, ab)
    inner = ract_c(tables, N, A)
    dst = ract_c(tables, inner, B)
    mat = Matrix.zeros(tables.field, len(dst), len(src))
    for ip, p in enumerate(N.labels):
        for ia, a in enumerate(A.labels):
            for ib, b in enumerate(B.labels):
                targets = set()
                for z in tables.base.fuse(a, b):
                    targets.update(tables.ract_set(p, z))
                for t in targets:
                    j_list, z_list, blk = tables.rl_block(p, a, b, t)
                    for r, j in enumerate(j_list):
                        for c, z in enumerate(z_list):
                            val = blk[r, c]
                            if not val:
                                continue
                            sp = src.index[(ip, ab.index[(ia, ib, z)], t)]
                            dp = dst.index[(inner.index[(ip, ia, j)], ib, t)]
                            mat[dp, sp] = val
    return Mor(src, dst, mat)


@blocks._memoized
def c_assoc(base, A: Obj, B: Obj, C: Obj) -> Mor:
    """``(A x B) x C -> A x (B x C)``: the regular module's associator."""
    return blocks.assoc(base.regular(), A, B, C)


def act_right_composite(c: FusionCategorySpec, y: str, reg: ModuleCategorySpec) -> dict:
    """``modfunct.act_right_functor``'s c-blocks as associator composites: the
    block at ``(X, i)`` is the matrix of ``assoc(reg, X, i, y)``."""
    tables = reg.tables
    bt = tables.base
    return {(X, i): blocks.assoc(tables, blocks._simple(bt, X), blocks._simple(bt, i),
                                 blocks._simple(bt, y)).mat
            for X in c.simples for i in c.simples}


def plain_dinaturality_condition(f, g, carrier, h: Mor) -> Matrix:
    """Ordinary dinaturality along ``h: A -> B``: G(h) theta_A = theta_B F(h)."""
    fh, gh = blocks.f_mor(f.tables, h), blocks.f_mor(g.tables, h)
    return endengine._theta_condition(
        f, g, carrier, lambda theta: gh * theta(h.src) - theta(h.dst) * fh)


def nested_lev(bt, a: str, b: str) -> Mor:
    """``a x b x *b x *a -> 1`` through the nested left evaluations and ``phi_l``.

    Its one nonzero entry per ``z in a x b`` is the closed form
    ``blocks.nested_lev_scalar``.
    """
    reg = bt.regular()
    sa, sb = blocks._simple(bt, a), blocks._simple(bt, b)
    V = blocks.ctensor(bt, sa, sb)
    Lb = blocks.ctensor(bt, blocks.ldual_flat(bt, sb), blocks.ldual_flat(bt, sa))
    W = blocks.ctensor(bt, V, Lb)
    one = blocks.cunit(bt)
    da, db = blocks.ldual_flat(bt, sa), blocks.ldual_flat(bt, sb)
    tail = blocks.act_c(reg, db, blocks.act_c(reg, da, one))
    chain = blocks.runit_reg_inv(bt, W)
    chain = blocks.assoc(reg, V, Lb, one) * chain
    chain = blocks.whisker_c(reg, V, blocks.assoc(reg, db, da, one)) * chain
    chain = blocks.assoc(reg, sa, sb, tail) * chain
    chain = blocks.whisker_c(reg, sa, blocks.zeta_flat(reg, sb, blocks.act_c(reg, da, one))) \
        * chain
    chain = blocks.zeta_flat(reg, sa, one) * chain
    return chain * blocks.whisker_c(reg, V, blocks.phi_l(bt, sa, sb))


def nested_lev_entries(bt, a: str, b: str) -> list:
    """``nested_lev``'s entry at each diagonal summand ``(z, *z, 1)``, checking
    that every other entry is 0."""
    lev = nested_lev(bt, a, b)
    diagonal = [lev.src.index[(iz, iz, bt.unit)] for iz in range(len(bt.fuse(a, b)))]
    assert not any(lev.mat[0, c] for c in range(lev.mat.cols) if c not in diagonal)
    return [lev.mat[0, c] for c in diagonal]


def opposite_module_composite(m: ModuleCategorySpec) -> ModuleCategorySpec:
    """``modcat.opposite_module`` as whole-object composites through ``phi_r``.

    Each opposite L-symbol is read off ``(phi_r^-1 act id) m^-1`` for a left
    module, or ``(id ract phi_r^-1) rassoc^-1`` for a right one.
    """
    base, btab, tables = m.base, m.base.tables, m.tables
    base.duality()
    dual = base.dual
    left = m.orientation == "left"
    l_symbols = {}
    for X in base.simples:
        for Y in base.simples:
            sxd, syd = blocks._simple(btab, dual[X]), blocks._simple(btab, dual[Y])
            ct = blocks.ctensor(btab, blocks._simple(btab, X), blocks._simple(btab, Y))
            phir_inv = blocks.phi_r(btab, blocks._simple(btab, X),
                                    blocks._simple(btab, Y)).inverse()
            for i in m.simples:
                mi = blocks._simple(btab, i)
                if left:
                    mu = blocks.act_mor(tables, phir_inv, mi) \
                        * blocks.assoc_inv(tables, syd, sxd, mi)
                    inner = blocks.act_c(tables, sxd, mi)
                    first, second = dual[X], dual[Y]
                else:
                    mu = ract_mor(tables, mi, phir_inv) * rassoc(tables, mi, syd, sxd).inverse()
                    inner = ract_c(tables, mi, syd)
                    first, second = dual[Y], dual[X]
                for jdx, Z in enumerate(ct.labels):
                    for j in m.act_set(first, i):
                        for t in m.act_set(second, j):
                            if left:
                                dpos = mu.dst.index.get((jdx, 0, t))
                                spos = mu.src.index.get((0, inner.index[(0, 0, j)], t))
                            else:
                                dpos = mu.dst.index.get((0, jdx, t))
                                spos = mu.src.index.get((inner.index[(0, 0, j)], 0, t))
                            if dpos is None or spos is None:
                                continue
                            val = mu.mat[dpos, spos]
                            if val:
                                l_symbols[(X, Y, i, j, Z, t)] = val
    action = [(dual[X], i, j) for (X, i, j) in m.action]
    units = {i: m.unit_scalars[i].inverse() for i in m.simples}
    return ModuleCategorySpec(base=base, simples=m.simples, action=action,
                              l_symbols=l_symbols, unit_scalars=units,
                              orientation="right" if left else "left", name=f"{m.name}_op")
