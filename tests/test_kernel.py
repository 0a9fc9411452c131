"""The shared block-calculus kernel: identity fast paths and per-tables caches."""

import json
import random
from collections import Counter

import pytest

from helpers import (bench_gen, ev_flat, matrix_inverse_entries, mutated, mutation_sites,
                     runit_reg, uhom_obj, unit_l)
from modend import blocks, cli, endengine, scalarfield, theorems
from modend.fusioncat import FusionCategorySpec, validate_fusion
from modend.modcat import (ModuleCategorySpec, RegularModule, opposite_module, regular_module,
                           validate_module)
from modend.modfunct import ModuleFunctorSpec, compose_functors
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
    return cat, bundle.module("fib_regular"), bundle.functor("rmul_fib_tau")


def test_object_constructors_are_hash_consed():
    base, mod, fun = _tables(cli.load(cli.bundled_instance_paths()))
    one, tau = blocks.simple_obj("1"), blocks.simple_obj("tau")
    tt = blocks.ctensor(base, tau, tau)
    assert blocks.ctensor(base, blocks.simple_obj("tau"), tau) is tt
    assert blocks.act_c(mod, tt, tau) is blocks.act_c(mod, tt, blocks.simple_obj("tau"))
    assert uhom_obj(mod, tau, tt) is uhom_obj(mod, tau, tt)
    assert blocks.f_obj(fun, tt) is blocks.f_obj(fun, tt)
    reg = regular_module(base)
    assert blocks.assoc(reg, tau, tau, tau) is blocks.assoc(reg, tau, tau, tau)
    assert unit_l(mod, tt) is unit_l(mod, tt)
    assert runit_reg(base, tt) is runit_reg(base, tt)
    # equal objects built apart still compare and hash equal
    fresh = blocks.Obj(tt.labels, tt.keys)
    assert fresh == tt and hash(fresh) == hash(tt) and fresh is not tt
    assert blocks.act_c(mod, one, fresh) is blocks.act_c(mod, one, tt)


def test_duality_scalars_are_installed_read_only():
    cat = cli.load(cli.bundled_instance_paths()).category("fib")
    base = cat
    cat.duality()
    installed = (base.ev, base.coev, base.lev, base.lcoev)
    cat.duality()  # installs once per category
    assert all(new is old for new, old in zip((base.ev, base.coev, base.lev, base.lcoev),
                                              installed))
    for table in (base.ev, base.coev, base.lev, base.lcoev):
        with pytest.raises(TypeError):
            table["tau"] = base.field.one
    tau = blocks._simple(base, "tau")
    pairing = ev_flat(base, tau)
    entry = cat.f_symbol("tau", "tau", "tau", "tau", "1", "1")
    assert pairing.mat[0, pairing.src.index[(0, 0, base.unit)]] == entry.inverse()
    assert ev_flat(base, tau) is pairing


def test_the_regular_module_is_one_object_the_gate_sweeps(tmp_path):
    """A loaded regular module is its category's ``regular_module``, and the
    gate's sweeps of the category keep their state on that object."""
    bundle = cli.load(cli.bundled_instance_paths())
    assert bundle.module("fib_regular") is regular_module(bundle.category("fib"))
    for name, cat in bundle.categories.items():
        assert bundle.module(f"{name}_regular") is regular_module(cat)
    zn4 = _zn4(tmp_path)
    reg = zn4.module("zn4_regular")
    assert reg is regular_module(zn4.category("zn4"))
    assert reg._pointed is None and reg._index is None
    assert cli.run(["validate"], zn4).payload["status"] == "ok"
    assert reg._pointed is True and reg._index is not None


CACHES = {FusionCategorySpec: ("_fblock_cache", "_finv_cache"),
          RegularModule: ("_memo",),
          ModuleFunctorSpec: ("_c_entries",)}


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


def test_fields_keep_no_inverse_of_another_load():
    """Each load parses its own fields, so kept element inverses start cold."""
    cmd = ["nat", "rmul_fib_tau", "rmul_fib_tau", "--both"]
    first, second = (cli.load(cli.bundled_instance_paths()) for _ in range(2))
    kept = []
    for bundle in (first, second):
        assert cli.run(cmd, bundle).payload["result"]["dim"] == 1
        fields = [cat.field for cat in bundle.categories.values()]
        kept.append({id(v) for f in fields for v in f._inverses.values()})
    assert kept[0] and kept[1] and not kept[0] & kept[1]


def test_suite_runs_the_euclid_once_per_distinct_element(monkeypatch):
    """Every inversion of an element with an irrational part after the first
    reads the field's kept inverse: ``suite`` runs the extended Euclid once
    per distinct ``(num, den)``, 6 times over fib's field and 4 over ising's,
    and never over Q."""
    runs, euclid = [], scalarfield._euclid_inverse
    monkeypatch.setattr(scalarfield, "_euclid_inverse", lambda x: runs.append(x) or euclid(x))
    inversions, inverse = [], scalarfield.FieldElement.inverse
    monkeypatch.setattr(scalarfield.FieldElement, "inverse",
                        lambda x: inversions.append(x) or inverse(x))
    bundle = cli.load(cli.bundled_instance_paths())
    assert cli.run(["suite"], bundle).payload["status"] == "ok"
    per_field = {}
    for name, cat in bundle.categories.items():
        keys = [(x.num, x.den) for x in runs if x.field is cat.field]
        assert len(keys) == len(set(keys)) == len(cat.field._inverses), name
        per_field[name] = len(keys)
    assert per_field == {"fib": 6, "ising": 4, "vec_z2_omega": 0, "vec_z2_triv": 0, "vec_z4": 0}
    assert len(runs) == 10 < len(inversions)


def _zn4(tmp_path):
    path = tmp_path / "zn4.json"
    path.write_text(json.dumps(bench_gen().instance(4, 1)))
    return cli.load([str(path)])


def _count_calls(monkeypatch, name) -> list:
    """The argument tuples of every call to ``blocks.<name>`` from now on."""
    fn, calls = getattr(blocks, name), []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(blocks, name, counting)
    return calls


def test_gate_sweeps_each_pentagon_once(tmp_path, monkeypatch):
    """The category and its regular module share one pentagon sweep: one flat
    sweep on pointed zn4, and 2**4 ``left_pentagon_holds`` calls on fib, not
    twice that."""
    bundle = _zn4(tmp_path)
    flat = _count_calls(monkeypatch, "pointed_pentagon_failures")
    holds = _count_calls(monkeypatch, "left_pentagon_holds")
    assert all(rep.ok for rep in bundle.validate_all())
    assert len(flat) == 1 and holds == []
    fib = cli.load([p for p in cli.bundled_instance_paths() if p.endswith("fib.json")])
    assert set(fib.modules) == {"fib_regular"}
    assert all(rep.ok for rep in fib.validate_all())
    assert len(flat) == 1 and len(holds) == 2 ** 4


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
    fib = bundle.category("fib")
    assert bundle.module("fib_regular").l_inverse("tau", "tau", "tau", "1") \
        is fib.f_inverse("tau", "tau", "tau", "1")
    funs = bundle.functors.values()
    for f in funs:
        for g in funs:
            if f.src is g.src and f.dst is g.dst:
                assert theorems.nat_m_dim(f, g, "both").oracle_agrees
                assert endengine.build_hom_coend_system(f, g).conditions
    assert all(opposite_module(m) for m in bundle.modules.values())
    assert all(blocks.lev_tensor_holds(c, a, b) for c in bundle.categories.values()
               for a in c.simples for b in c.simples)
    assert len(inverted) == swept


def test_pointed_gate_inverts_no_matrix_and_builds_no_block(tmp_path, monkeypatch):
    """On pointed zn4 the gate's flat sweeps read symbols and test 1 x 1
    entries: one ``validate_all`` makes no ``Matrix.inverse`` call, and the
    validators build no F- or L-block and keep no inverse, so a second sweep
    of the same tables keeps none either.  (``validate_all`` also installs the
    duality scalars, whose ``f_inverse`` lookups build and invert the blocks
    they key, as every first ``f_inverse`` read does.)"""
    calls, inverse = [], Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda mat: calls.append("inverse") or inverse(mat))
    assert all(rep.ok for rep in _zn4(tmp_path).validate_all())
    assert calls == []
    for owner, name in ((blocks.BaseTables, "f_block"), (ModuleCategorySpec, "l_block")):
        def counting(tables, *key, _fn=getattr(owner, name), _name=name):
            calls.append(_name)
            return _fn(tables, *key)
        monkeypatch.setattr(owner, name, counting)
    bundle = _zn4(tmp_path)
    cat = bundle.category("zn4")
    assert validate_fusion(cat).ok
    assert cat._finv_cache == {}
    assert validate_module(bundle.module("zn4_regular")).ok   # the category's F-blocks
    assert cat._finv_cache == {}
    assert calls == []


@pytest.mark.parametrize("field", [Q, SQRT2, FieldSpec([-1, 0, 1])],
                         ids=["Q", "Q(sqrt2)", "Q[x]/(x^2-1)"])
def test_a_1x1_block_is_inverted_as_its_element(field, monkeypatch):
    """``inverse_entries`` of a 1 x 1 block is ``Matrix.inverse``'s, with no
    ``Matrix.inverse`` call: a zero entry raises ``DivisionByZero`` and a
    zero divisor (1 + x over Q[x]/(x^2 - 1)) ``ZeroDivisorDetected``, as
    ``Matrix.inverse`` does."""
    one = field.one
    outcomes = []
    for entry in (field.zero, one, field.rational("-3/4"), field.gen() + one,
                  field.gen() * field.rational(5)):
        mat = Matrix(field, 1, 1, [entry])
        try:
            want = matrix_inverse_entries(["j"], ["z"], mat)
        except ArithmeticError as exc:
            want = type(exc)
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "inverse", lambda mat: pytest.fail("Matrix.inverse called"))
            try:
                got = blocks.inverse_entries(["j"], ["z"], mat)
            except ArithmeticError as exc:
                got = type(exc)
        assert got == want, entry
        outcomes.append(want)
    assert scalarfield.DivisionByZero in outcomes
    assert (scalarfield.ZeroDivisorDetected in outcomes) == (field.min_poly == (-1, 0, 1))


def test_pointed_blocks_are_inverted_when_first_read(tmp_path, monkeypatch):
    """On gen zn8 the gate keeps the inverses of the n duality blocks
    ``F(a, a*, a; a)`` and no other; ``serre`` then inverts at most 2 n^2 of
    the n^3 blocks, each on its first read, with no ``Matrix.inverse`` call,
    and each equals the inverse of its block on fresh tables."""
    n = 8
    path = tmp_path / "zn8.json"
    path.write_text(json.dumps(bench_gen().instance(n, 1)))
    bundle = cli.load([str(path)])
    calls, inverse = [], Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda mat: calls.append(mat) or inverse(mat))
    assert all(rep.ok for rep in bundle.validate_all())
    cat = bundle.category("zn8")
    kept = cat._finv_cache
    assert set(kept) == {(a, cat.dual[a], a, a) for a in cat.simples}
    gated = set(kept)
    assert cli.run(["serre", "zn8_regular"], bundle).payload["status"] == "ok"
    assert calls == []
    added = set(kept) - gated
    assert 0 < len(added) <= 2 * n ** 2 < n ** 3
    fresh = cli.load([str(path)]).category("zn8")
    for key in gated | added:
        assert kept[key] == matrix_inverse_entries(*fresh.f_block(*key)), key


@pytest.mark.parametrize("name,pointed", [
    ("zn4_regular", True), ("vec_z4_regular", True), ("vec_z2_omega_regular", True),
    ("vec_z2_triv_regular", True), ("vec_over_vec_z2", True),
    ("fib_regular", False), ("ising_regular", False)])
def test_serre_on_pointed_tables_inverts_no_matrix(tmp_path, monkeypatch, name, pointed):
    """After ``validate_all``, the Serre functor of a pointed module makes no
    ``Matrix.inverse`` call: each of its action isos ``M_Z`` is 1 x 1 and is
    inverted as its one element.  On fib and ising it inverts its action isos
    with ``Matrix.inverse``."""
    bundle = _zn4(tmp_path) if name.startswith("zn4") else cli.load(cli.bundled_instance_paths())
    assert all(rep.ok for rep in bundle.validate_all())
    module = bundle.module(name)
    assert blocks.is_pointed(module) == pointed
    calls, inverse = [], Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda mat: calls.append(mat) or inverse(mat))
    assert theorems.serre_functor(module).certificates
    assert (len(calls) == 0) == pointed, len(calls)


def test_is_pointed_scans_each_tables_object_once(tmp_path, monkeypatch):
    """The gate's three sweeps ask ``is_pointed`` of the same tables; only the
    first question reads the action sets."""
    bundle = _zn4(tmp_path)
    reads, act_set = [], ModuleCategorySpec.act_set
    monkeypatch.setattr(ModuleCategorySpec, "act_set",
                        lambda tables, *key: reads.append(key) or act_set(tables, *key))
    tables = bundle.module("zn4_regular")
    assert blocks.is_pointed(tables) and len(reads) == 4 * 4
    reads.clear()
    assert blocks.is_pointed(tables) and reads == []


def test_pointed_gate_reads_each_l_symbol_once(tmp_path, monkeypatch):
    """One ``validate_all`` on gen zn4 reads each of the 4**3 L-symbols of the
    regular tables once: the block sweep and the pentagon share the kept
    entries, which on the regular tables are also the pentagon's F-values.
    The positions of the simples are read once per tables object: after the
    scan of ``is_pointed``, only ``_pointed_index``'s first build reads the
    action sets, and sweeping the same tables again reads neither."""
    bundle = _zn4(tmp_path)
    tables = regular_module(bundle.category("zn4"))
    entries, l_symbol = [], tables.l_symbol
    tables.l_symbol = lambda *key: entries.append(key) or l_symbol(*key)
    reads, act_set = Counter(), ModuleCategorySpec.act_set
    monkeypatch.setattr(ModuleCategorySpec, "act_set",
                        lambda tables, *key: reads.update([id(tables)]) or act_set(tables, *key))
    assert all(rep.ok for rep in bundle.validate_all())
    assert len(entries) == len(set(entries)) == 4 ** 3
    assert reads == {id(tables): 2 * 4 * 4}
    index = blocks._pointed_index(tables)
    assert tuple(blocks.path_count_failures(tables)) == ()
    assert blocks.l_block_failures(tables) == blocks.left_pentagon_failures(tables) == ()
    assert blocks._pointed_index(tables) is index
    assert len(entries) == 4 ** 3 and reads == {id(tables): 2 * 4 * 4}


def _count_validators(monkeypatch) -> list:
    """Every spec the gate sweeps from now on, through the validators it calls."""
    swept = []
    for name in ("validate_fusion", "validate_module", "validate_functor"):
        def counting(spec, _validate=getattr(cli, name)):
            swept.append(spec)
            return _validate(spec)
        monkeypatch.setattr(cli, name, counting)
    return swept


def test_a_gated_bundle_is_not_swept_again(monkeypatch):
    """Each spec keeps its gate report: after one ``validate``, a command and
    a second ``validate`` on the same bundle sweep nothing and report the same.
    A category replaced by an edited copy is swept on the next gate, and only
    it."""
    bundle = cli.load(cli.bundled_instance_paths())
    swept = _count_validators(monkeypatch)
    first = cli.run(["validate"], bundle).dumps()
    assert len(swept) == 5 + 1 + 1      # the categories, vec_over_vec_z2 and forgetful
    swept.clear()
    assert cli.run(["serre", "fib_regular"], bundle).payload["status"] == "ok"
    assert cli.run(["validate"], bundle).dumps() == first
    assert swept == []
    fib = bundle.category("fib")
    edited = bundle.categories["fib"] = mutated(fib, mutation_sites(fib)[0], 2)
    report = cli.run(["validate"], bundle).payload
    assert swept == [edited]
    assert report["status"] == "validation-failed"
    assert report["result"]["category fib"][0].startswith("pentagon at ")
    assert {k: v for k, v in report["result"].items() if k != "category fib"} == \
        {k: v for k, v in json.loads(first)["result"].items() if k != "category fib"}


def _built_functors(bundle) -> list:
    """The functors of ``bundle`` whose c-blocks have been built."""
    return sorted(name for name, f in bundle.functors.items() if not callable(f._c_symbols))


@pytest.mark.parametrize("command,built", [
    (["validate"], []),
    (["serre", "zn4_regular"], []),
    (["homsuite", "zn4_regular"], []),
    (["end", "--hom", "id_zn4_regular", "id_zn4_regular"], ["id_zn4_regular"]),
    (["nat", "rmul_zn4_1", "rmul_zn4_2", "--both"], ["rmul_zn4_1", "rmul_zn4_2"])])
def test_commands_build_only_the_c_blocks_they_read(tmp_path, command, built):
    """Loading gen zn4 builds no derived functor's c-blocks, the gate reads
    none, and a command builds those of the functors it names only."""
    bundle = _zn4(tmp_path)
    assert len(bundle.functors) == 5 and _built_functors(bundle) == []
    assert cli.run(command, bundle).payload["status"] == "ok"
    assert _built_functors(bundle) == built


def test_memoized_duality_isos_equal_their_closed_forms():
    """``phi_r_scalar`` and ``phi_l_scalar`` keep their values on the base
    tables.  On every corpus category, the values the Serre builder kept and
    every value at a simple pair and summand equal the closed forms."""
    bundle = cli.load(cli.bundled_instance_paths())
    assert all(rep.ok for rep in bundle.validate_all())
    closed = {fn.__name__: fn.__wrapped__ for fn in (blocks.phi_r_scalar, blocks.phi_l_scalar)}
    for name, cat in bundle.categories.items():
        base = cat
        theorems.serre_functor(bundle.module(f"{name}_regular"))
        kept = [(key, val) for key, val in base._memo.items() if key[0] in closed]
        assert kept, name
        for (fn, args), val in kept:
            assert val == closed[fn](base, *args), (name, fn, args)
        for fn in (blocks.phi_r_scalar, blocks.phi_l_scalar):
            for a in cat.simples:
                for b in cat.simples:
                    for z in cat.fuse(a, b):
                        val = fn(base, a, b, z)
                        assert val == closed[fn.__name__](base, a, b, z), (name, a, b, z)
                        assert fn(base, a, b, z) is val


def test_object_valued_ends_solve_one_block_per_label(tmp_path, monkeypatch):
    """No ``solve_end``, and at most one ``rref`` per label while
    ``theorems._multiplicities`` reads an object-valued system, each no wider
    than that label's coordinates.  On zn4 every coordinate of a probe carries
    one label; on fib and ising the labels split the carrier, so a solve over
    the whole carrier would be wider than any label.  Each subject runs the
    Serre functor of its regular module and upsilon at every simple."""
    zn4, corpus = _zn4(tmp_path), cli.load(cli.bundled_instance_paths())
    assert all(rep.ok for bundle in (zn4, corpus) for rep in bundle.validate_all())
    events = []
    solve_end, rref, read = endengine.solve_end, Matrix.rref, theorems._multiplicities

    def solving(*args):
        events.append("solve_end")
        return solve_end(*args)

    def reducing(self):
        events.append(self.cols)
        return rref(self)

    def reading(sys_, labels):
        events.append(sys_)
        out = read(sys_, labels)
        events.append(None)
        return out

    monkeypatch.setattr(endengine, "solve_end", solving)
    monkeypatch.setattr(Matrix, "rref", reducing)
    monkeypatch.setattr(theorems, "_multiplicities", reading)
    split = 0
    for bundle, name in ((zn4, "zn4"), (corpus, "fib"), (corpus, "ising")):
        cat, reg = bundle.category(name), bundle.module(f"{name}_regular")
        events.clear()
        theorems.serre_functor(reg)
        for x in cat.simples:
            theorems.upsilon_regular(cat, x, reg)
        assert "solve_end" not in events
        starts = [k for k, e in enumerate(events) if isinstance(e, endengine.DinaturalSystem)]
        assert len(starts) == len(reg.simples) + len(cat.simples), name
        for start in starts:
            system, end = events[start], events.index(None, start)
            widths = sorted(events[start + 1:end], reverse=True)
            coords = sorted(Counter(t[0] for b in system.blocks for t in b.basis).values(),
                            reverse=True)
            assert 1 <= len(widths) <= len(coords), (name, system.meta)
            assert all(w <= c for w, c in zip(widths, coords)), (name, widths, coords)
            split += len(coords) > 1
    assert split


def test_hom_lemma_suite_reads_each_action_set_a_bounded_number_of_times(monkeypatch):
    """One ``hom_lemma_suite`` of the gen zn8 regular module reads the action
    and fusion sets at most 8 n**3 times (n = 8): the counts are sparse per
    ``(X, i)``, not a sum over all simples at every ``(X, i, j, W)``.  At least
    one read keeps the pin from passing on a sweep of the private tables."""
    cat = cli._load_category("zn8", bench_gen().instance(8, 1)["categories"]["zn8"])
    reg = regular_module(cat)
    calls = []
    for cls, attr in ((ModuleCategorySpec, "act_set"), (FusionCategorySpec, "fuse")):
        def counting(self, *args, _fn=getattr(cls, attr)):
            calls.append(args)
            return _fn(self, *args)
        monkeypatch.setattr(cls, attr, counting)
    assert theorems.hom_lemma_suite(reg).ok
    assert 1 <= len(calls) <= 8 * 8 ** 3


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
        "lev_tensor_holds": lambda: all(blocks.lev_tensor_holds(c, a, b)
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
