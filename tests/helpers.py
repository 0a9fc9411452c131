"""Shared fixtures: the bundled corpus, sampled randomness, seeded symbol
mutations, gauge transformations and block-calculus references.

The corpus categories are read from the JSON files shipped with the package,
a fresh load per call, so tests and the command line see the same data.

Gauge transformations re-randomize the basis scalars of every 1-dimensional
Hom space (and the copy bases of functor images): unit-leg scalars stay 1 so
the skeleton conventions survive, structure constants transform accordingly,
and all reported dimensions must be invariant.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import random
import zlib
from collections import Counter
from pathlib import Path

from modend import blocks, cli, endengine
from modend.blocks import Mor, Obj
from modend.common import SourceTargetMismatch, ValidationError, ValidationReport
from modend.fusioncat import FusionCategorySpec
from modend.modcat import ModuleCategorySpec, opposite_module, regular_module
from modend.modfunct import ModuleFunctorSpec
from modend.scalarfield import DimensionMismatch, FieldSpec, Matrix

# bundled categories in the order seeded samplers draw them
CORPUS = ("vec_z2_triv", "vec_z2_omega", "vec_z4", "fib", "ising")


def bench_gen():
    """The benchmark's generator of gauged Vec_{Z/n}^omega instances, ``bench/gen.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def matrix_inverse_entries(rows, cols, mat: Matrix) -> dict:
    """``blocks.inverse_entries`` through ``Matrix.inverse`` at every block
    size: the reference for its 1 x 1 blocks, which it inverts as one element."""
    inv = mat.inverse()
    return {(c, r): inv[n, m] for n, c in enumerate(cols) for m, r in enumerate(rows)
            if inv[n, m]}


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


def gauge_category(spec: FusionCategorySpec, rng, scalar=rand_nonzero) -> tuple:
    """Random basis rescaling of the fusion vertices; unit legs stay 1.

    Each other vertex is rescaled by ``scalar(field, rng)``, a nonzero scalar."""
    lam = {}
    for (a, b, c) in spec.fusion:
        if a == spec.unit or b == spec.unit:
            lam[(a, b, c)] = spec.field.one
        else:
            lam[(a, b, c)] = scalar(spec.field, rng)
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
                 lam: dict, rng, scalar=rand_nonzero) -> tuple:
    """Random rescaling of the action vertices over a gauged base, each by
    ``scalar(field, rng)``."""
    mu = {}
    for (X, i, j) in m.action:
        mu[(X, i, j)] = scalar(m.field, rng)
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


# seeded single-symbol mutations: at most MUTATIONS_PER_SUBJECT nonzero
# symbols of a subject, each scaled by one of MUTATION_FACTORS
MUTATIONS_PER_SUBJECT = 6
MUTATION_FACTORS = (-1, 2)


def mutation_sites(subject):
    """Nonzero symbols a mutation may scale, in a fixed order."""
    if isinstance(subject, FusionCategorySpec):
        # unit-leg F-symbols are pinned to 1 before the pentagon is reached
        return [("f", key) for key, val in sorted(subject._f.items())
                if val and subject.unit not in key[:3]]
    if isinstance(subject, ModuleCategorySpec):
        return [("l", key) for key, val in sorted(subject._l.items()) if val] \
            + [("unit", i) for i in subject.simples]
    return [("c", (key, r, c)) for key, blk in sorted(subject.c_symbols.items())
            for r in range(blk.rows) for c in range(blk.cols) if blk[r, c]]


def mutated(subject, site, factor):
    """``subject`` with the symbol at ``site`` scaled by ``factor``."""
    kind, key = site
    scale = subject.field.rational(factor)
    if kind == "f":
        f = dict(subject._f)
        f[key] = f[key] * scale
        return FusionCategorySpec(field=subject.field, simples=subject.simples,
                                  unit=subject.unit, dual=subject.dual,
                                  fusion=subject.fusion, f_symbols=f, name=subject.name)
    if kind in ("l", "unit"):
        l_symbols, units = dict(subject._l), dict(subject.unit_scalars)
        table = l_symbols if kind == "l" else units
        table[key] = table[key] * scale
        return ModuleCategorySpec(base=subject.base, simples=subject.simples,
                                  action=subject.action, l_symbols=l_symbols,
                                  unit_scalars=units, orientation=subject.orientation,
                                  name=subject.name)
    (block_key, r, c) = key
    c_symbols = dict(subject.c_symbols)
    blk = c_symbols[block_key].copy()
    blk[r, c] = blk[r, c] * scale
    c_symbols[block_key] = blk
    return ModuleFunctorSpec(subject.src, subject.dst, dict(subject.on_simples),
                             c_symbols, name=subject.name)


def sampled_sites(name, subject):
    """The mutation sites of ``subject``, sampled with a seed taken from ``name``."""
    sites = mutation_sites(subject)
    rng = random.Random(zlib.crc32(name.encode()))
    return rng.sample(sites, min(MUTATIONS_PER_SUBJECT, len(sites)))


# ---------------------------------------------------------------------------
# the reference routes for the multiplicities of an object-valued (co)end: the
# label restriction, one solve per label, and the whole carrier stacked and
# solved once


def restrict_carrier(sys: endengine.DinaturalSystem, label: str) -> endengine.DinaturalSystem:
    """Keep only the carrier coordinates tagged ``label``: the Hom-probe at ``label``.

    On the labelled carrier of an object-valued (co)end the restricted
    system's dimension is the multiplicity of ``label`` in the object.
    """
    keep, kept_blocks = [], []
    for block in sys.blocks:
        coords = [k for k, b in enumerate(block.basis) if b[0] == label]
        kept_blocks.append(endengine.CarrierBlock(simple=block.simple, offset=len(keep),
                                                  basis=tuple(block.basis[k] for k in coords)))
        keep.extend(block.offset + k for k in coords)
    conditions = [endengine.Condition(generator=c.generator, matrix=column_matrix(
                      sys.field, [c.matrix.entries[k::c.matrix.cols] for k in keep], c.matrix.rows))
                  for c in sys.conditions]
    return endengine.DinaturalSystem(field=sys.field, blocks=kept_blocks, conditions=conditions,
                                     kind=sys.kind, recipe=sys.recipe, meta=dict(sys.meta))


def stacked_multiplicities(sys: endengine.DinaturalSystem, labels) -> tuple:
    """Multiplicity of each label in an object-valued (co)end, read off one solve.

    Each carrier coordinate carries its label.  When no condition row has
    entries on two labels, elimination only combines rows of one label, so
    every nullspace vector lies on one label, and the multiplicity of ``p``
    is the number of vectors on ``p``.  Schur's lemma makes every probe
    system so; a row on two labels raises ``ValidationError``.
    """
    tags = [t[0] for block in sys.blocks for t in block.basis]
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
    on = Counter(tuple({tags[k] for k, e in enumerate(vec.entries) if e is not zero and e})
                 for vec in endengine.solve_end(sys).basis)
    return tuple(on[(p,)] for p in labels)


def column_matrix(field, columns, rows=None) -> Matrix:
    """The matrix whose ``c``-th column is the flat sequence ``columns[c]``."""
    if rows is None:
        rows = len(columns[0]) if columns else 0
    mat = Matrix.zeros(field, rows, len(columns))
    for c, col in enumerate(columns):
        for r, val in enumerate(col):
            if val:
                mat[r, c] = val
    return mat


# ---------------------------------------------------------------------------
# block-calculus references: structure morphisms and composites that no
# longer have a caller in the package, kept as oracles for the closed forms
# that replaced them


def identity_mor(field, obj: Obj) -> Mor:
    return Mor(obj, obj, Matrix.identity(field, len(obj)))


def cunit(base) -> Obj:
    return blocks._simple(base, base.unit)


@blocks._memoized
def rdual_flat(base, A: Obj) -> Obj:
    return Obj(tuple(base.dual[a] for a in A.labels), A.keys)


def whisker_c(tables, A: Obj, f: Mor) -> Mor:
    """``id_A  act  f``."""
    src = blocks.act_c(tables, A, f.src)
    dst = blocks.act_c(tables, A, f.dst)
    mat = Matrix.zeros(tables.field, len(dst), len(src))
    for iq in range(len(f.dst)):
        for ip in range(len(f.src)):
            val = f.mat[iq, ip]
            if not val:
                continue
            s = f.src.labels[ip]
            for ia, a in enumerate(A.labels):
                for t in tables.act_set(a, s):
                    mat[dst.index[(ia, iq, t)], src.index[(ia, ip, t)]] = val
    return Mor(src, dst, mat)


def act_mor(tables, g: Mor, N: Obj) -> Mor:
    """``g act id_N`` for a base-category morphism ``g``."""
    src = blocks.act_c(tables, g.src, N)
    dst = blocks.act_c(tables, g.dst, N)
    mat = Matrix.zeros(tables.field, len(dst), len(src))
    for ib in range(len(g.dst)):
        for ia in range(len(g.src)):
            val = g.mat[ib, ia]
            if not val:
                continue
            a = g.src.labels[ia]
            for ip, p in enumerate(N.labels):
                for t in tables.act_set(a, p):
                    mat[dst.index[(ib, ip, t)], src.index[(ia, ip, t)]] = val
    return Mor(src, dst, mat)


@blocks._memoized
def unit_l(tables, N: Obj) -> Mor:
    """``1 act N -> N`` carrying the module's unit scalars."""
    src = blocks.act_c(tables, cunit(tables.base), N)
    mat = Matrix.zeros(tables.field, len(N), len(src))
    for ip, p in enumerate(N.labels):
        mat[ip, src.index[(0, ip, p)]] = tables.unit_scalar(p)
    return Mor(src, N, mat)


@blocks._memoized
def unit_l_inv(tables, N: Obj) -> Mor:
    src = blocks.act_c(tables, cunit(tables.base), N)
    mat = Matrix.zeros(tables.field, len(src), len(N))
    for ip, p in enumerate(N.labels):
        mat[src.index[(0, ip, p)], ip] = tables.unit_scalar(p).inverse()
    return Mor(N, src, mat)


def diagonal(base, pairs: Obj, A: Obj, scalars) -> Matrix:
    """Column over ``pairs`` with ``scalars[a]`` at each diagonal summand ``(ia, ia, 1)``."""
    mat = Matrix.zeros(base.field, len(pairs), 1)
    for ia, a in enumerate(A.labels):
        mat[pairs.index[(ia, ia, base.unit)], 0] = scalars[a]
    return mat


@blocks._memoized
def ev_flat(base, A: Obj) -> Mor:
    """``A* x A -> 1`` pairing matching summands with the right-dual scalars."""
    src = blocks.ctensor(base, rdual_flat(base, A), A)
    return Mor(src, cunit(base), diagonal(base, src, A, base.ev).transpose())


@blocks._memoized
def coev_flat(base, A: Obj) -> Mor:
    """``1 -> A x A*``."""
    dst = blocks.ctensor(base, A, rdual_flat(base, A))
    return Mor(cunit(base), dst, diagonal(base, dst, A, base.coev))


def eps_flat(tables, A: Obj, N: Obj) -> Mor:
    """``A* act (A act N) -> N``: right-dual evaluation acting on a module."""
    da = rdual_flat(tables.base, A)
    step1 = blocks.assoc_inv(tables, da, A, N)        # A* act (A act N) -> (A* x A) act N
    step2 = act_mor(tables, ev_flat(tables.base, A), N)
    step3 = unit_l(tables, N)
    return step3 * step2 * step1


def f_mor(ft, f: Mor) -> Mor:
    """Multiplicity inflation of a module morphism under the functor."""
    src = blocks.f_obj(ft, f.src)
    dst = blocks.f_obj(ft, f.dst)
    mat = Matrix.zeros(ft.field, len(dst), len(src))
    for iq in range(len(f.dst)):
        for ip in range(len(f.src)):
            val = f.mat[iq, ip]
            if not val:
                continue
            p = f.src.labels[ip]
            for k in ft.dst.simples:
                for cnt in range(ft.mult(p, k)):
                    mat[dst.index[(iq, k, cnt)], src.index[(ip, k, cnt)]] = val
    return Mor(src, dst, mat)


def coev_insert(tables, A: Obj, N: Obj) -> Mor:
    """``N -> A act (A* act N)`` via the right coevaluation."""
    da = rdual_flat(tables.base, A)
    step1 = unit_l_inv(tables, N)
    step2 = act_mor(tables, coev_flat(tables.base, A), N)
    step3 = blocks.assoc(tables, A, da, N)
    return step3 * step2 * step1


def lcoev_insert(tables, A: Obj, N: Obj) -> Mor:
    """``N -> *A act (A act N)`` via the left coevaluation."""
    da = ldual_flat(tables.base, A)
    step1 = unit_l_inv(tables, N)
    step2 = act_mor(tables, lcoev_flat(tables.base, A), N)
    step3 = blocks.assoc(tables, da, A, N)
    return step3 * step2 * step1


@blocks._memoized
def ract_c(tables, N: Obj, A: Obj) -> Obj:
    """``N ract A`` for a right module's tables."""
    labels, keys = [], []
    for ip, p in enumerate(N.labels):
        for ia, a in enumerate(A.labels):
            for t in tables.act_set(a, p):
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
                for t in tables.act_set(a, p):
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
                    targets.update(tables.act_set(z, p))
                for t in targets:
                    j_list, z_list, blk = tables.l_block(a, b, p, t)
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
    return blocks.assoc(regular_module(base), A, B, C)


def act_right_composite(c: FusionCategorySpec, y: str, reg: ModuleCategorySpec) -> dict:
    """``modfunct.act_right_functor``'s c-blocks as associator composites: the
    block at ``(X, i)`` is the matrix of ``assoc(reg, X, i, y)``."""
    tables = reg
    bt = tables.base
    return {(X, i): blocks.assoc(tables, blocks._simple(bt, X), blocks._simple(bt, i),
                                 blocks._simple(bt, y)).mat
            for X in c.simples for i in c.simples}




def nested_lev(bt, a: str, b: str) -> Mor:
    """``a x b x *b x *a -> 1`` through the nested left evaluations and ``phi_l``.

    Its one nonzero entry per ``z in a x b`` is the closed form
    ``blocks.nested_lev_scalar``.
    """
    reg = regular_module(bt)
    sa, sb = blocks._simple(bt, a), blocks._simple(bt, b)
    V = blocks.ctensor(bt, sa, sb)
    Lb = blocks.ctensor(bt, ldual_flat(bt, sb), ldual_flat(bt, sa))
    W = blocks.ctensor(bt, V, Lb)
    one = cunit(bt)
    da, db = ldual_flat(bt, sa), ldual_flat(bt, sb)
    tail = blocks.act_c(reg, db, blocks.act_c(reg, da, one))
    chain = runit_reg_inv(bt, W)
    chain = blocks.assoc(reg, V, Lb, one) * chain
    chain = whisker_c(reg, V, blocks.assoc(reg, db, da, one)) * chain
    chain = blocks.assoc(reg, sa, sb, tail) * chain
    chain = whisker_c(reg, sa, zeta_flat(reg, sb, blocks.act_c(reg, da, one))) \
        * chain
    chain = zeta_flat(reg, sa, one) * chain
    return chain * whisker_c(reg, V, phi_l(bt, sa, sb))


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
    base, tables = m.base, m
    base.duality()
    dual = base.dual
    left = m.orientation == "left"
    l_symbols = {}
    for X in base.simples:
        for Y in base.simples:
            sxd, syd = blocks._simple(base, dual[X]), blocks._simple(base, dual[Y])
            ct = blocks.ctensor(base, blocks._simple(base, X), blocks._simple(base, Y))
            phir_inv = phi_r(base, blocks._simple(base, X), blocks._simple(base, Y)).inverse()
            for i in m.simples:
                mi = blocks._simple(base, i)
                if left:
                    mu = act_mor(tables, phir_inv, mi) \
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


# ---------------------------------------------------------------------------
# the Hom(F(-), G(-)) family as whole-object composites: the references for
# the symbol-level builders of ``endengine``


def theta_ext_mor(f, g, i: str, k: str, a: int, b: int, N: Obj) -> Mor:
    """Canonical extension of the basis element ``(k, a, b)`` of block ``i`` to ``N``.

    It is zero on every summand of ``N`` other than ``m_i``.
    """
    src = blocks.f_obj(f, N)
    dst = blocks.f_obj(g, N)
    mat = Matrix.zeros(f.field, len(dst), len(src))
    for ip, lab in enumerate(N.labels):
        if lab == i:
            mat[dst.index[(ip, k, b)], src.index[(ip, k, a)]] = f.field.one
    return Mor(src, dst, mat)


def carrier_coords(f, g, carrier, N: Obj, beta: Mor) -> list:
    """Carrier coordinates of the diagonal part of ``beta: F(N) -> G(N)``.

    The adjoint of theta extension: coordinate ``(k, a, b)`` of block ``i``
    sums the entries of ``beta`` from copy ``a`` to copy ``b`` of ``k`` over
    the summands ``m_i`` of ``N``.
    """
    src = blocks.f_obj(f, N)
    dst = blocks.f_obj(g, N)
    coords = []
    for block in carrier:
        summands = [ip for ip, lab in enumerate(N.labels) if lab == block.simple]
        for (k, a, b) in block.basis:
            coords.append(sum((beta.mat[dst.index[(ip, k, b)], src.index[(ip, k, a)]]
                               for ip in summands), f.field.zero))
    return coords


def theta_condition(f, g, carrier, equation) -> Matrix:
    """One column per carrier basis element: ``equation(theta).mat``.

    ``theta(N)`` is that basis element extended to the object ``N``.
    """
    return column_matrix(f.field, [
        equation(functools.partial(theta_ext_mor, f, g, block.simple, k, a, b)).mat.entries
        for block in carrier for (k, a, b) in block.basis])


def _hom_composite(f, g, kind: str, recipe: str, condition):
    """``endengine._hom_system`` at every simple with ``condition(carrier, X, block)``."""
    if f.src is not g.src or f.dst is not g.dst:
        raise SourceTargetMismatch("functors must share source and target")
    base = f.src.base
    base.duality()
    carrier, _column = endengine._nat_carrier(f, g)
    conditions = [endengine.Condition(generator=(X, block.simple),
                                      matrix=condition(carrier, X, block))
                  for X in base.simples for block in carrier]
    return endengine.DinaturalSystem(field=f.field, blocks=carrier, conditions=conditions,
                                     kind=kind, recipe=recipe,
                                     meta={"base": base, "f": f, "g": g,
                                           "at": tuple(base.simples)})


def nat_composite(f, g):
    """``endengine.build_nat_system`` as whole-object composites."""
    base = f.src.base
    bt, src_t, dst_t = base, f.src, f.dst

    def balancing(carrier, X, block):
        mi = blocks._simple(bt, block.simple)
        sx, sxd = blocks._simple(bt, X), blocks._simple(bt, base.dual[X])
        A = blocks.act_c(src_t, sx, mi)                         # X act m_i
        f_eps = f_mor(f, eps_flat(src_t, sx, mi))
        c1 = blocks.c_mor(f, sxd, A)                            # F(X* act A) -> X* act F(A)
        d = blocks.c_mor(g, sx, mi)                             # G(A) -> X act G(m_i)
        eps_dst = eps_flat(dst_t, sx, blocks.f_obj(g, mi))
        return theta_condition(f, g, carrier, lambda theta: theta(mi) * f_eps
                               - eps_dst * whisker_c(dst_t, sxd, d * theta(A)) * c1)

    return _hom_composite(f, g, "end", "hom-end", balancing)


def nat_oracle_composite(f, g):
    """``endengine.nat_oracle_system`` as whole-object composites:
    d theta_{X act m} = (id_X act theta_m) c."""
    bt, dst_t = f.src.base, f.dst

    def naturality(carrier, X, block):
        sx, mi = blocks._simple(bt, X), blocks._simple(bt, block.simple)
        A = blocks.act_c(f.src, sx, mi)
        c = blocks.c_mor(f, sx, mi)
        d = blocks.c_mor(g, sx, mi)
        return theta_condition(f, g, carrier, lambda theta: d * theta(A)
                               - whisker_c(dst_t, sx, theta(mi)) * c)

    return _hom_composite(f, g, "end", "module-naturality-oracle", naturality)


def composite_conditions_composite(f, g, carrier, X: str, Y: str) -> list:
    """``endengine.composite_nat_conditions`` as whole-object composites: the
    evaluation of ``X x Y`` nested from those of ``X`` and ``Y``."""
    base = f.src.base
    bt, src_t, dst_t = base, f.src, f.dst
    sx, sy = blocks._simple(bt, X), blocks._simple(bt, Y)
    sxd, syd = blocks._simple(bt, base.dual[X]), blocks._simple(bt, base.dual[Y])
    W = blocks.ctensor(bt, sx, sy)
    Wd = blocks.ctensor(bt, syd, sxd)

    def nested_eps(tables, N):
        """W* act (W act N) -> N via nested right evaluations."""
        wn = blocks.act_c(tables, W, N)
        inner_y = blocks.act_c(tables, sy, N)
        chain = blocks.assoc(tables, syd, sxd, wn)
        chain = whisker_c(tables, syd,
                          whisker_c(tables, sxd, blocks.assoc(tables, sx, sy, N))) * chain
        chain = whisker_c(tables, syd, eps_flat(tables, sx, inner_y)) * chain
        return eps_flat(tables, sy, N) * chain

    out = []
    for i in f.src.simples:
        mi = blocks._simple(bt, i)
        WM = blocks.act_c(src_t, W, mi)
        f_eps = f_mor(f, nested_eps(src_t, mi))
        cW = blocks.c_mor(f, Wd, WM)
        dW = blocks.c_mor(g, W, mi)
        eps_dst = nested_eps(dst_t, blocks.f_obj(g, mi))
        mat = theta_condition(f, g, carrier, lambda theta: theta(mi) * f_eps
                              - eps_dst * whisker_c(dst_t, Wd, dW * theta(WM)) * cW)
        out.append(endengine.Condition(generator=(f"{X}*{Y}", i), matrix=mat))
    return out


def hom_coend_composite(f, g):
    """``endengine.build_hom_coend_system`` as whole-object composites."""
    base = f.src.base
    bt, src_t, dst_t = base, f.src, f.dst

    def relations(carrier, X, block):
        sx, sxd = blocks._simple(bt, X), blocks._simple(bt, base.dual[X])
        mi = blocks._simple(bt, block.simple)
        A = blocks.act_c(src_t, sxd, mi)                        # X* act m_i
        # g0 = m_{X,X*,m_i} (coev_X act id) ell^{-1}: m_i -> X act (X* act m_i)
        g0 = blocks.assoc(src_t, sx, sxd, mi) \
            * act_mor(src_t, coev_flat(bt, sx), mi) \
            * unit_l_inv(src_t, mi)
        d_g0 = blocks.c_mor(g, sx, A) * f_mor(g, g0)            # G(m_i) -> X act G(A)
        cA = blocks.c_mor(f, sxd, mi)                           # F(X* act m_i) -> X* act F(m_i)
        eps_dst = eps_flat(dst_t, sx, blocks.f_obj(g, A))
        cols = []
        for (k, a, b) in block.basis:
            # the relation e_i(v) - sum_j e_j(S(iota_j, p_j) beta), beta: F(A) -> G(A);
            # e_i(v) is the carrier coordinate vector of theta_i itself
            theta_i = theta_ext_mor(f, g, block.simple, k, a, b, mi)
            beta = eps_dst * whisker_c(dst_t, sxd, d_g0 * theta_i) * cA
            cols.append([u - v for u, v in zip(carrier_coords(f, g, carrier, mi, theta_i),
                                                carrier_coords(f, g, carrier, A, beta))])
        return column_matrix(f.field, cols, sum(bb.dim for bb in carrier))

    return _hom_composite(f, g, "coend", "hom-coend", relations)


def plain_dinaturality_condition(f, g, carrier, h: Mor) -> Matrix:
    """Ordinary dinaturality along ``h: A -> B``: G(h) theta_A = theta_B F(h)."""
    fh, gh = f_mor(f, h), f_mor(g, h)
    return theta_condition(f, g, carrier, lambda theta: gh * theta(h.src) - theta(h.dst) * fh)


# ---------------------------------------------------------------------------
# the internal hom, the left duality, the tensor-dual isos and the probe
# builders as whole-object composites: the references for the symbol-level
# probe builders of ``endengine``


ldual_flat = rdual_flat  # one involution serves both duals at label level


def uhom_set(tables, i: str, j: str) -> tuple:
    return tuple(X for X in tables.base.simples if tables.n(X, i, j))


@blocks._memoized
def uhom_obj(tables, A: Obj, B: Obj) -> Obj:
    """Representing object of ``Hom(- act A, B)`` for sums of simples."""
    labels, keys = [], []
    for ipa, p in enumerate(A.labels):
        for iq, q in enumerate(B.labels):
            for X in uhom_set(tables, p, q):
                labels.append(X)
                keys.append((ipa, iq, X))
    return Obj(tuple(labels), tuple(keys))


def uhom_mor_first(tables, f: Mor, B: Obj) -> Mor:
    """``uhom(f, id_B)``, contravariant inflation in the first slot."""
    src = uhom_obj(tables, f.dst, B)
    dst = uhom_obj(tables, f.src, B)
    mat = Matrix.zeros(tables.field, len(dst), len(src))
    for iq2 in range(len(f.dst)):
        for ip in range(len(f.src)):
            val = f.mat[iq2, ip]
            if not val:
                continue
            for ib, q in enumerate(B.labels):
                for X in uhom_set(tables, f.src.labels[ip], q):
                    mat[dst.index[(ip, ib, X)], src.index[(iq2, ib, X)]] = val
    return Mor(src, dst, mat)


def uhom_mor_second(tables, A: Obj, g: Mor) -> Mor:
    """``uhom(id_A, g)``, covariant inflation in the second slot."""
    src = uhom_obj(tables, A, g.src)
    dst = uhom_obj(tables, A, g.dst)
    mat = Matrix.zeros(tables.field, len(dst), len(src))
    for iq2 in range(len(g.dst)):
        for iq in range(len(g.src)):
            val = g.mat[iq2, iq]
            if not val:
                continue
            for ipa, p in enumerate(A.labels):
                for X in uhom_set(tables, p, g.src.labels[iq]):
                    mat[dst.index[(ipa, iq2, X)], src.index[(ipa, iq, X)]] = val
    return Mor(src, dst, mat)


def evh_mor(tables, A: Obj, B: Obj) -> Mor:
    """Counit ``uhom(A, B) act A -> B`` on the chosen bases."""
    uh = uhom_obj(tables, A, B)
    src = blocks.act_c(tables, uh, A)
    mat = Matrix.zeros(tables.field, len(B), len(src))
    for ih, (ipa, iq, X) in enumerate(uh.keys):
        t = B.labels[iq]
        pos = src.index.get((ih, ipa, t))
        if pos is not None:
            mat[iq, pos] = tables.field.one
    return Mor(src, B, mat)


def psi_reshuffle(tables, W: Obj, A: Obj, B: Obj, h: Mor) -> Mor:
    """Adjunction mate ``W -> uhom(A, B)`` of ``h: W act A -> B``."""
    wa = blocks.act_c(tables, W, A)
    if h.src != wa or h.dst != B:
        raise DimensionMismatch("mate of a morphism with unexpected ends")
    uh = uhom_obj(tables, A, B)
    mat = Matrix.zeros(tables.field, len(uh), len(W))
    for dpos, (ipa, iq, X) in enumerate(uh.keys):
        t = B.labels[iq]
        for iw in (iw for iw, lab in enumerate(W.labels) if lab == X):
            spos = wa.index.get((iw, ipa, t))
            if spos is not None:
                mat[dpos, iw] = h.mat[iq, spos]
    return Mor(W, uh, mat)


def uhom_left_tensor_iso(tables, X: str, A: Obj, B: Obj) -> Mor:
    """Action iso ``X x uhom(A, B) -> uhom(A, X act B)`` on chosen bases."""
    uh = uhom_obj(tables, A, B)
    sx = blocks._simple(tables.base, X)
    W = blocks.ctensor(tables.base, sx, uh)
    xb = blocks.act_c(tables, sx, B)
    h = whisker_c(tables, sx, evh_mor(tables, A, B)) * blocks.assoc(tables, sx, uh, A)
    return psi_reshuffle(tables, W, A, xb, h)


@blocks._memoized
def runit_reg(base, A: Obj) -> Mor:
    """``A x 1 -> A`` in the regular module (canonical projections)."""
    src = blocks.act_c(regular_module(base), A, cunit(base))
    mat = Matrix.zeros(base.field, len(A), len(src))
    for ia, a in enumerate(A.labels):
        mat[ia, src.index[(ia, 0, a)]] = base.field.one
    return Mor(src, A, mat)


@blocks._memoized
def runit_reg_inv(base, A: Obj) -> Mor:
    src = blocks.act_c(regular_module(base), A, cunit(base))
    mat = Matrix.zeros(base.field, len(src), len(A))
    for ia, a in enumerate(A.labels):
        mat[src.index[(ia, 0, a)], ia] = base.field.one
    return Mor(A, src, mat)


@blocks._memoized
def lev_flat(base, A: Obj) -> Mor:
    """``A x *A -> 1``."""
    src = blocks.ctensor(base, A, ldual_flat(base, A))
    return Mor(src, cunit(base), diagonal(base, src, A, base.lev).transpose())


@blocks._memoized
def lcoev_flat(base, A: Obj) -> Mor:
    """``1 -> *A x A``."""
    dst = blocks.ctensor(base, ldual_flat(base, A), A)
    return Mor(cunit(base), dst, diagonal(base, dst, A, base.lcoev))


def zeta_flat(tables, A: Obj, N: Obj) -> Mor:
    """``A act (*A act N) -> N``: left-dual evaluation acting on a module."""
    da = ldual_flat(tables.base, A)
    step1 = blocks.assoc_inv(tables, A, da, N)
    step2 = act_mor(tables, lev_flat(tables.base, A), N)
    return unit_l(tables, N) * step2 * step1


def rdual_mor(base, g: Mor) -> Mor:
    """Right-dual transpose ``g*: B* -> A*`` of ``g: A -> B``: the matrix transpose."""
    return Mor(rdual_flat(base, g.dst), rdual_flat(base, g.src), g.mat.transpose())


ldual_mor = rdual_mor  # the left zig-zags are the identity as well


def _dual_tensor_iso(base, A1: Obj, A2: Obj, scalar) -> Mor:
    """Monomial iso ``(A1 x A2)* -> A2* x A1*``: summand ``(ia, ib, z)`` goes to
    ``(ib, ia, z*)`` times ``scalar(a, b, z)``, where ``a, b`` label ``A1[ia], A2[ib]``."""
    V = blocks.ctensor(base, A1, A2)
    src = rdual_flat(base, V)
    dst = blocks.ctensor(base, rdual_flat(base, A2), rdual_flat(base, A1))
    mat = Matrix.zeros(base.field, len(dst), len(src))
    for col, (ia, ib, z) in enumerate(V.keys):
        mat[dst.index[(ib, ia, base.dual[z])], col] = scalar(base, A1.labels[ia], A2.labels[ib], z)
    return Mor(src, dst, mat)


def phi_r(base, A1: Obj, A2: Obj) -> Mor:
    """Canonical iso ``(A1 x A2)* -> A2* x A1*`` between two right duals (``phi_r_scalar``)."""
    return _dual_tensor_iso(base, A1, A2, blocks.phi_r_scalar)


def phi_l(base, A1: Obj, A2: Obj) -> Mor:
    """Canonical iso ``*(A1 x A2) -> *A2 x *A1`` between two left duals (``phi_l_scalar``)."""
    return _dual_tensor_iso(base, A1, A2, blocks.phi_l_scalar)


def ctensor_mor(base, g: Mor, h: Mor) -> Mor:
    """``g x h``, that is ``(g act id) after (id act h)`` in the regular module."""
    reg = regular_module(base)
    return act_mor(reg, g, h.dst) * whisker_c(reg, g.src, h)


def labelled_carrier(objects: dict, order) -> list:
    """One block per diagonal object, one coordinate per summand, tagged by its label."""
    out = []
    offset = 0
    for key in order:
        basis = tuple((lab, pos) for pos, lab in enumerate(objects[key].labels))
        out.append(endengine.CarrierBlock(simple=key, basis=basis, offset=offset))
        offset += len(basis)
    return out


def _unit_matrix(field, rows, cols, r, c):
    m = Matrix.zeros(field, rows, cols)
    m[r, c] = field.one
    return m


def decomposition_sum(bt, A: Obj, term) -> dict:
    """``sum term(q, p_q, i_q).mat`` over the summands of ``A``, grouped by label ``q``.

    ``p_q: A -> q`` and ``i_q: q -> A`` are the projection onto and the
    inclusion of one summand, so the sum extends a morphism on simples to ``A``.
    """
    out = {}
    for qp, q in enumerate(A.labels):
        sq = blocks._simple(bt, q)
        p_q = Mor(A, sq, _unit_matrix(bt.field, 1, len(A), 0, qp))
        i_q = Mor(sq, A, _unit_matrix(bt.field, len(A), 1, qp, 0))
        mat = term(q, p_q, i_q).mat
        out[q] = out[q] + mat if q in out else mat
    return out


def balancing_matrix(field, carrier, lhs_block: str, lhs: Matrix, rhs: dict) -> Matrix:
    """Condition matrix of one balancing equation on a labelled carrier.

    ``lhs`` acts on block ``lhs_block`` and ``rhs[q]`` on block ``q``; the
    condition on the coordinate at position ``pos`` of block ``q`` is column
    ``pos`` of ``[q == lhs_block] lhs - rhs[q]``.
    """
    columns = []
    for block in carrier:
        diff = lhs if block.simple == lhs_block else Matrix.zeros(field, lhs.rows, block.dim)
        if block.simple in rhs:
            diff = diff - rhs[block.simple]
        columns.extend(diff.entries[pos::block.dim] for pos in range(block.dim))
    return column_matrix(field, columns, lhs.rows)


def character_probe_composite(f: ModuleFunctorSpec, g: ModuleFunctorSpec):
    """``endengine.build_character_probe_system`` as whole-object composites: the
    pre-balancing is assembled from the functor coherences, ``phi_l`` and the
    dual transpose of ``c``."""
    base = f.src.base
    bt = base
    reg = regular_module(bt)
    base.duality()
    mt = f.src

    def fobj(N: Obj) -> Obj:
        return blocks.f_obj(f, N)

    def gobj(N: Obj) -> Obj:
        return blocks.f_obj(g, N)

    def s_obj(A: Obj, B: Obj) -> Obj:
        return blocks.ctensor(bt, ldual_flat(bt, fobj(A)), gobj(B))

    s_diag = {i: s_obj(blocks._simple(bt, i), blocks._simple(bt, i)) for i in f.src.simples}
    carrier = labelled_carrier(s_diag, f.src.simples)
    conditions = []
    for X in base.simples:
        sx = blocks._simple(bt, X)
        sxd = blocks._simple(bt, base.dual[X])
        for i in f.src.simples:
            mi = blocks._simple(bt, i)
            A = blocks.act_c(mt, sx, mi)
            fa = fobj(A)
            gmi = gobj(mi)
            lfa = ldual_flat(bt, fa)
            # LHS: S(eps, id) on the diagonal block at i
            eps = eps_flat(mt, sx, mi)
            l1 = act_mor(reg, ldual_mor(bt, f_mor(f, eps)), gmi)
            # RHS: the pre-balancing (a fixed post-composition) after extension
            d = blocks.c_mor(g, sx, mi)                 # G(A) -> X x G(m_i)
            st1 = whisker_c(reg, lfa, d)
            regroup = blocks.assoc_inv(reg, lfa, sx, gmi)
            tau = act_mor(reg, phi_l(bt, sxd, fa).inverse(), gmi)
            cf = blocks.c_mor(f, sxd, A)                # F(X* act A) -> X* x F(A)
            st4 = act_mor(reg, ldual_mor(bt, cf), gmi)
            beta_chain = st4 * tau * regroup * st1
            rhs = decomposition_sum(bt, A, lambda q, p_q, i_q: beta_chain * ctensor_mor(
                bt, ldual_mor(bt, f_mor(f, p_q)), f_mor(g, i_q)))
            cond = balancing_matrix(f.field, carrier, i, l1.mat, rhs)
            conditions.append(endengine.Condition(generator=(X, i), matrix=cond))
    return endengine.DinaturalSystem(field=f.field, blocks=carrier, conditions=conditions,
                                     kind="end", recipe="character-probe",
                                     meta={"base": base, "at": tuple(base.simples)})


def serre_probe_composite(m: ModuleCategorySpec, i: str):
    """``endengine.build_serre_probe_system`` as whole-object composites: the coend
    of ``uhom(m_i, -)* act -`` over the opposite module, probed with ``Hom(-, m_p)``."""
    base = m.base
    base.duality()
    bt = base
    mt = m
    field = m.field
    mi = blocks._simple(bt, i)

    def uh(v_obj: Obj) -> Obj:
        return uhom_obj(mt, mi, v_obj)

    t_diag = {}
    for u in m.simples:
        su = blocks._simple(bt, u)
        t_diag[u] = blocks.act_c(mt, rdual_flat(bt, uh(su)), su)
    carrier = labelled_carrier(t_diag, m.simples)
    conditions = []
    for X in base.simples:
        sx = blocks._simple(bt, X)
        sxd = blocks._simple(bt, base.dual[X])
        for u in m.simples:
            su = blocks._simple(bt, u)
            rd_uh_u = rdual_flat(bt, uh(su))
            # Gamma1: the first-slot move along the transposed left coevaluation
            ghat = unit_l(mt, su) \
                * act_mor(mt, rdual_mor(bt, lcoev_flat(bt, sx)), su)
            gamma1 = whisker_c(mt, rd_uh_u, ghat)
            # inverse of the opposite-module associativity, underlying morphism
            s1 = whisker_c(mt, rd_uh_u, blocks.assoc(mt, sxd, sx, su)
                                  * act_mor(mt, phi_r(bt, sxd, sx), su))
            # the pre-balancing of the Serre coend
            U0 = blocks.act_c(mt, sx, su)
            gb = rdual_mor(bt, uhom_left_tensor_iso(mt, X, mi, su)).inverse() \
                * phi_r(bt, sx, uh(su)).inverse()
            gamma = act_mor(mt, gb, U0) * blocks.assoc_inv(mt, rd_uh_u, sxd, U0)
            rd_uh_U0 = rdual_flat(bt, uh(U0))
            rhs = decomposition_sum(bt, U0, lambda q, p_q, i_q: act_mor(
                mt, rdual_mor(bt, uhom_mor_second(mt, mi, i_q)), blocks._simple(bt, q))
                * whisker_c(mt, rd_uh_U0, p_q) * gamma * s1)
            # probed with Hom(-, m_p), the coend's coordinates are functionals: transpose
            cond = balancing_matrix(field, carrier, u, gamma1.mat.transpose(),
                                    {q: t.transpose() for q, t in rhs.items()})
            conditions.append(endengine.Condition(generator=(X, u), matrix=cond))
    return endengine.DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                                     kind="end", recipe="serre-coend-probe",
                                     meta={"base": base, "input": i,
                                           "at": tuple(base.simples)})


def upsilon_probe_composite(reg_module: ModuleCategorySpec, x: str):
    """``endengine.build_upsilon_probe_system`` as whole-object composites: the
    pre-balancing is assembled from the internal-hom adjunction shift along ``- x Y``."""
    base = reg_module.base
    base.duality()
    bt = base
    rt = reg_module
    field = reg_module.field
    sx = blocks._simple(bt, x)
    one = blocks._simple(bt, base.unit)

    def g_of(N: Obj) -> Obj:
        return blocks.act_c(rt, sx, N)

    def counit(N: Obj, Y: str) -> Mor:
        """(N x Y) x *Y -> N via the left-dual evaluation of Y."""
        sy, syd = blocks._simple(bt, Y), blocks._simple(bt, base.dual[Y])
        e1 = blocks.assoc(rt, N, sy, syd)
        inner = zeta_flat(rt, sy, one) * whisker_c(rt, sy, runit_reg_inv(bt, syd))
        e2 = whisker_c(rt, N, inner)
        return runit_reg(bt, N) * e2 * e1

    s_diag = {mm: uhom_obj(rt, blocks._simple(bt, mm), g_of(blocks._simple(bt, mm)))
              for mm in reg_module.simples}
    carrier = labelled_carrier(s_diag, reg_module.simples)
    conditions = []
    for Y in base.simples:
        sy, syd = blocks._simple(bt, Y), blocks._simple(bt, base.dual[Y])
        for mm in reg_module.simples:
            sm = blocks._simple(bt, mm)
            Fm = blocks.act_c(rt, sm, sy)                 # m x Y
            Gm = g_of(sm)
            GFm = g_of(Fm)
            FlaM = blocks.act_c(rt, Fm, syd)              # (m x Y) x *Y
            lhs = uhom_mor_first(rt, counit(sm, Y), Gm)
            # gamma = xi after uhom(id, d)
            d = blocks.assoc(rt, sx, sm, sy).inverse()    # G(F(m)) -> F(G(m))
            FGm = blocks.act_c(rt, Gm, sy)
            ud = uhom_mor_second(rt, Fm, d)
            Z = uhom_obj(rt, Fm, FGm)
            h1 = evh_mor(rt, Fm, FGm)
            b = blocks.assoc(rt, Z, Fm, syd)
            omega = counit(Gm, Y) * act_mor(rt, h1, syd)
            xi = psi_reshuffle(rt, Z, FlaM, Gm, omega * b.inverse())
            gamma = xi * ud
            rhs = decomposition_sum(bt, Fm, lambda q, p_q, i_q: gamma
                                    * (uhom_mor_first(rt, p_q, GFm)
                                       * uhom_mor_second(rt, blocks._simple(bt, q),
                                                         whisker_c(rt, sx, i_q))))
            cond = balancing_matrix(field, carrier, mm, lhs.mat, rhs)
            conditions.append(endengine.Condition(generator=(Y, mm), matrix=cond))
    return endengine.DinaturalSystem(field=field, blocks=carrier, conditions=conditions,
                                     kind="end", recipe="upsilon-probe",
                                     meta={"base": base, "x": x, "at": tuple(base.simples)})


# ---------------------------------------------------------------------------
# references for the checks that now share a sweep or count sparsely: the
# loops ``validate_fusion``, ``validate_module`` and ``hom_lemma_suite`` ran
# before, kept as they were


def fusion_associativity_entries(spec: FusionCategorySpec) -> list:
    """The ``fusion-associativity`` entries of ``validate_fusion``, from its own loop."""
    report = ValidationReport()
    simples = spec.simples
    for a in simples:
        for b in simples:
            for c in simples:
                for d in simples:
                    left = sum(1 for e in spec._fuse_map[(a, b)] if d in spec._fuse_map[(e, c)])
                    right = sum(1 for f in spec._fuse_map[(b, c)] if d in spec._fuse_map[(a, f)])
                    if left != right:
                        report.add("fusion-associativity", (a, b, c, d),
                                   f"path counts {left} != {right}")
    return report.entries


def action_associativity_entries(spec: ModuleCategorySpec) -> list:
    """The ``action-associativity`` entries of ``validate_module``, from its own loop."""
    report = ValidationReport()
    base = spec.base
    right = spec.orientation == "right"
    for X in base.simples:
        for Y in base.simples:
            first, second = blocks.row_steps(right, X, Y)
            for i in spec.simples:
                for t in spec.simples:
                    via_fuse = sum(1 for Z in base.fuse(X, Y) if t in spec.act_set(Z, i))
                    via_steps = sum(1 for j in spec.act_set(first, i)
                                    if t in spec.act_set(second, j))
                    if via_fuse != via_steps:
                        report.add("action-associativity", (X, Y, i, t),
                                   f"path counts {via_fuse} != {via_steps}")
    return report.entries


def hom_lemma_suite_via_opposite(m: ModuleCategorySpec) -> ValidationReport:
    """The dense loop of ``theorems.hom_lemma_suite``, with a ``uhom-op`` tail
    read off ``opposite_module(m)`` that the sparse sweep leaves out."""
    report = ValidationReport(subject=f"hom lemmas on {m.name}")
    base = m.base
    n = lambda X, i, j: 1 if j in m.act_set(X, i) else 0
    N = lambda a, b, c: 1 if c in base.fuse(a, b) else 0
    for X in base.simples:
        for i in m.simples:
            for j in m.simples:
                for W in base.simples:
                    lhs = sum(n(X, i, t) * n(W, t, j) for t in m.simples)
                    rhs = sum(n(V, i, j) * N(V, base.dual[X], W) for V in base.simples)
                    if lhs != rhs:
                        report.add("uhom-shift-first", (X, i, j, W),
                                   f"{lhs} != {rhs}")
                    lhs2 = sum(n(X, j, t) * n(W, i, t) for t in m.simples)
                    rhs2 = sum(N(X, V, W) * n(V, i, j) for V in base.simples)
                    if lhs2 != rhs2:
                        report.add("uhom-shift-second", (X, i, j, W),
                                   f"{lhs2} != {rhs2}")
    if not report.ok:
        return report
    try:
        op = opposite_module(m)
    except ArithmeticError as exc:
        report.add("uhom-op", ("opposite",), f"opposite module construction failed: {exc}")
        return report
    for X in base.simples:
        for i in m.simples:
            for j in m.simples:
                lhs = 1 if i in op.act_set(X, j) else 0
                rhs = n(X, i, j)
                if lhs != rhs:
                    report.add("uhom-op", (X, i, j), f"{lhs} != {rhs}")
    return report


def serre_certificates_dense(m: ModuleCategorySpec, on_simples: dict) -> list:
    """Every Serre dimension certificate ``((i, j, X), lhs, rhs)`` in the order
    ``theorems.serre_functor`` checks them, with ``rhs`` summed over every
    simple ``t`` as ``on_simples[i][t] [t in X act m_j]``: the dense reference
    of the sweep over action sets."""
    out = []
    for i in m.simples:
        for j in m.simples:
            for X in m.base.simples:
                lhs = 1 if j in m.act_set(m.base.dual[X], i) else 0
                rhs = sum(on_simples[i][t] * (1 if t in m.act_set(X, j) else 0)
                          for t in m.simples)
                out.append(((i, j, X), lhs, rhs))
    return out
