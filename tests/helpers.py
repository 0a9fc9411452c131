"""Shared fixtures: the bundled corpus, sampled randomness and gauge transformations.

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
from pathlib import Path

from modend import cli
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
