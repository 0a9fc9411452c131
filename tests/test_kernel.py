"""The shared block-calculus kernel: identity fast paths and per-tables caches."""

import json
import random

import pytest

from helpers import bench_gen, ev_flat, runit_reg, uhom_obj, unit_l
from modend import blocks, cli, endengine, theorems
from modend.modcat import ModuleCategorySpec, opposite_module, validate_module
from modend.modfunct import compose_functors
from modend.scalarfield import DimensionMismatch, FieldSpec, Matrix

Q = FieldSpec([0, 1])          # Q[x]/(x): plain rationals
SQRT2 = FieldSpec([-2, 0, 1])  # Q[x]/(x^2 - 2)


def test_one_shortcut_keeps_the_field_check():
    x = SQRT2.element([1, 1])
    for op in (lambda: Q.one * x, lambda: x * Q.one, lambda: Q.one + x,
               lambda: x - Q.one):
        with pytest.raises(DimensionMismatch):
            op()
    assert SQRT2.one * x is x and x * SQRT2.one is x
    # an equal field built separately is the same field
    assert FieldSpec([-2, 0, 1]).one * x == x


def test_degree_one_add_and_sub():
    a, b = Q.rational("3/4"), Q.rational(-2)
    assert a + b == Q.rational("-5/4")
    assert a - b == Q.rational("11/4")
    assert a - a == Q.zero and not (a - a)


def _naive_product(a: Matrix, b: Matrix) -> Matrix:
    """Reference triple loop: every entry is the full sum over the inner index."""
    out = Matrix.zeros(a.field, a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = a.field.zero
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def _sparse(field, rows, cols, rng):
    pool = [field.zero, field.one, field.rational(-1), field.rational("2/3"),
            field.gen(), field.gen() * field.rational(-3)]
    weights = [6, 3, 1, 1, 1, 1]
    return Matrix(field, rows, cols, rng.choices(pool, weights, k=rows * cols))


@pytest.mark.parametrize("field", [Q, SQRT2], ids=["Q", "Q(sqrt2)"])
def test_matrix_product_matches_naive_reference(field):
    rng = random.Random(20261018)
    for _ in range(60):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = _sparse(field, n, k, rng), _sparse(field, k, m, rng)
        assert a * b == _naive_product(a, b)
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(field, 2, 3) * Matrix.zeros(field, 2, 3)


def _tables(bundle):
    cat = bundle.category("fib")
    return cat.tables, bundle.module("fib_regular").tables, bundle.functor("rmul_fib_tau").tables


def test_object_constructors_are_hash_consed():
    base, mod, fun = _tables(cli.load(cli.bundled_instance_paths()))
    one, tau = blocks.simple_obj("1"), blocks.simple_obj("tau")
    tt = blocks.ctensor(base, tau, tau)
    assert blocks.ctensor(base, blocks.simple_obj("tau"), tau) is tt
    assert blocks.act_c(mod, tt, tau) is blocks.act_c(mod, tt, blocks.simple_obj("tau"))
    assert uhom_obj(mod, tau, tt) is uhom_obj(mod, tau, tt)
    assert blocks.f_obj(fun, tt) is blocks.f_obj(fun, tt)
    reg = base.regular()
    assert blocks.assoc(reg, tau, tau, tau) is blocks.assoc(reg, tau, tau, tau)
    assert unit_l(mod, tt) is unit_l(mod, tt)
    assert runit_reg(base, tt) is runit_reg(base, tt)
    # equal objects built apart still compare and hash equal
    fresh = blocks.Obj(tt.labels, tt.keys)
    assert fresh == tt and hash(fresh) == hash(tt) and fresh is not tt
    assert blocks.act_c(mod, one, fresh) is blocks.act_c(mod, one, tt)


def test_duality_scalars_are_installed_read_only():
    cat = cli.load(cli.bundled_instance_paths()).category("fib")
    base = cat.tables
    dd = cat.duality()
    assert dd.ev_scalar is base.ev and dd.left_ev_scalar is base.lev
    for table in (base.ev, base.coev, base.lev, base.lcoev):
        with pytest.raises(TypeError):
            table["tau"] = base.field.one
    tau = blocks._simple(base, "tau")
    pairing = ev_flat(base, tau)
    entry = cat.f_symbol("tau", "tau", "tau", "tau", "1", "1")
    assert pairing.mat[0, pairing.src.index[(0, 0, base.unit)]] == entry.inverse()
    assert ev_flat(base, tau) is pairing


def test_regular_module_shares_the_base_regular_tables():
    bundle = cli.load(cli.bundled_instance_paths())
    for name, cat in bundle.categories.items():
        assert bundle.module(f"{name}_regular").tables is cat.tables.regular()


CACHES = {blocks.BaseTables: ("_fblock_cache", "_finv_cache"),
          blocks.RegularTables: ("_memo",),
          blocks.FunctorTables: ("_cache", "_c_entries")}


def _cached_values(bundle):
    ids = set()
    for tables in _tables(bundle):
        for attr in CACHES[type(tables)]:
            cache = getattr(tables, attr)
            assert cache, (type(tables).__name__, attr)
            ids.update(id(v) for v in cache.values())
    return ids


def test_caches_live_with_the_loaded_bundle():
    cmd = ["nat", "rmul_fib_tau", "rmul_fib_tau", "--both"]
    first, second = (cli.load(cli.bundled_instance_paths()) for _ in range(2))
    for bundle in (first, second):
        assert cli.run(cmd, bundle).payload["result"]["dim"] == 1
    assert not _cached_values(first) & _cached_values(second)


def _zn4(tmp_path):
    path = tmp_path / "zn4.json"
    path.write_text(json.dumps(bench_gen().instance(4, 1)))
    return cli.load([str(path)])


def test_gate_sweeps_each_pentagon_once(tmp_path, monkeypatch):
    """The category and its regular module share one pentagon sweep: 4**4 calls, not twice that."""
    bundle = _zn4(tmp_path)
    holds, calls = blocks.left_pentagon_holds, []

    def counting(*args):
        calls.append(args)
        return holds(*args)

    monkeypatch.setattr(blocks, "left_pentagon_holds", counting)
    assert all(rep.ok for rep in bundle.validate_all())
    assert len(calls) == 4 ** 4


def test_sweeps_stay_with_their_tables(tmp_path):
    """A mutated copy of a validated regular module is swept on its own tables."""
    reg = _zn4(tmp_path).module("zn4_regular")
    assert validate_module(reg).ok
    unit = reg.base.unit
    key = next(k for k in sorted(reg._l) if unit not in (k[0], k[1]))
    l_symbols = dict(reg._l)
    l_symbols[key] = l_symbols[key] * reg.field.rational(2)
    mutant = ModuleCategorySpec(base=reg.base, simples=reg.simples, action=reg.action,
                                l_symbols=l_symbols, unit_scalars=reg.unit_scalars,
                                name=reg.name)
    assert "mixed-pentagon" in {e.check for e in validate_module(mutant).entries}
    assert validate_module(reg).ok


def test_blocks_are_inverted_once_per_load(monkeypatch):
    """The gate's sweep inverts each block and keeps the inverse on its tables;
    the Hom systems, opposite modules and the ev-tensor identity read the kept
    inverses, and a regular module shares its category's."""
    bundle = cli.load(cli.bundled_instance_paths())
    inverted, inverse = [], Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda mat: inverted.append(mat) or inverse(mat))
    assert all(rep.ok for rep in bundle.validate_all())
    swept = len(inverted)
    assert swept
    fib = bundle.category("fib").tables
    assert bundle.module("fib_regular").tables.l_inverse("tau", "tau", "tau", "1") \
        is fib.f_inverse("tau", "tau", "tau", "1")
    funs = bundle.functors.values()
    for f in funs:
        for g in funs:
            if f.src is g.src and f.dst is g.dst:
                assert theorems.nat_m_dim(f, g, "both").oracle_agrees
                assert endengine.build_hom_coend_system(f, g).conditions
    assert all(opposite_module(m) for m in bundle.modules.values())
    assert all(blocks.lev_tensor_holds(c.tables, a, b) for c in bundle.categories.values()
               for a in c.simples for b in c.simples)
    assert len(inverted) == swept


def test_symbol_level_constructions_build_no_morphisms(monkeypatch):
    """The gate, the hom lemmas, functor composition, the ev-tensor identity,
    the object-valued probes (Serre, character, upsilon and the adjoint shift),
    the ``Hom(F(-), G(-))`` family (the nat end, its oracle, the coend and the
    conditions of a decomposed ``X x Y``) and the whole suite read symbols:
    after loading, none of them builds an ``Obj`` or a ``Mor``."""
    bundle = cli.load(cli.bundled_instance_paths())
    tau = bundle.functor("rmul_fib_tau")
    cats = bundle.categories.values()
    funs = bundle.functors.values()
    pairs = [(f, g) for f in funs for g in funs if f.src is g.src and f.dst is g.dst]
    steps = {
        "validate_all": lambda: all(rep.ok for rep in bundle.validate_all()),
        "hom_lemma_suite": lambda: all(theorems.hom_lemma_suite(m).ok
                                       for m in bundle.modules.values()),
        "compose_functors": lambda: compose_functors(tau, tau).mult("tau", "tau") == 2,
        "lev_tensor_holds": lambda: all(blocks.lev_tensor_holds(c.tables, a, b)
                                        for c in cats for a in c.simples for b in c.simples),
        "serre_functor": lambda: all(theorems.serre_functor(m).certificates
                                     for m in bundle.modules.values()),
        "internal_character": lambda: all(
            theorems.internal_character(u.src, u) for u in bundle.functors.values()),
        "upsilon_regular": lambda: all(theorems.upsilon_regular(c, x)
                                       for c in cats for x in c.simples),
        "adjoint_shift_check": lambda: all(theorems.adjoint_shift_check(c, y)
                                           for c in cats for y in c.simples),
        "nat_m_dim": lambda: all(theorems.nat_m_dim(f, g, mode).mode == mode
                                 for f, g in pairs for mode in ("end", "oracle", "both")),
        "build_hom_coend_system": lambda: all(endengine.build_hom_coend_system(f, g).conditions
                                              for f, g in pairs),
        "composite_nat_conditions": lambda: all(
            endengine.composite_nat_conditions(f, f, endengine.build_nat_system(f, f).blocks,
                                               X, Y)
            for f in funs for X in f.src.base.simples for Y in f.src.base.simples),
        "run_suite": lambda: cli.run_suite(bundle)[1]}
    built = []
    for cls in (blocks.Obj, blocks.Mor):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built.append(_name)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    counts = {}
    for name, step in steps.items():
        before = len(built)
        assert step(), name
        counts[name] = len(built) - before
    assert counts == dict.fromkeys(steps, 0)
