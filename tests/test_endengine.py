import dataclasses
import random
import zlib

import pytest

import test_assembly
from helpers import (all_categories, fib, ising, mutated, one_simple_category,
                     plain_dinaturality_condition, restrict_carrier, sample_pairs, sampled_sites,
                     stacked_multiplicities, vec_over_vec_z2, vec_z2_omega, vec_z2_triv,
                     vec_z4)

from modend import cli, endengine as ee, theorems
from modend.common import (InconsistentRigidity, NotATensorSubcategory, SourceTargetMismatch,
                           ValidationError)
from modend.modcat import ModuleCategorySpec, regular_module, validate_module
from modend.modfunct import (ModuleFunctorSpec, act_right_functor, compose_functors,
                             identity_functor, validate_functor)
from modend.scalarfield import FieldSpec, Matrix, subspace_equal
from modend import blocks

CATS = all_categories()


def test_composite_conditions_refuse_a_foreign_functor_or_carrier():
    bundle = cli.load(cli.bundled_instance_paths())
    idf, tau = bundle.functor("id_fib_regular"), bundle.functor("rmul_fib_tau")
    carrier = ee.build_nat_system(idf, idf).blocks
    with pytest.raises(SourceTargetMismatch, match="share source and target"):
        ee.composite_nat_conditions(idf, bundle.functor("rmul_ising_psi"), carrier, "tau", "tau")
    with pytest.raises(SourceTargetMismatch, match="carrier"):
        ee.composite_nat_conditions(idf, tau, carrier, "tau", "tau")
    own = ee.build_nat_system(idf, tau).blocks
    for X, Y in (("zz", "tau"), ("tau", "zz")):
        with pytest.raises(SourceTargetMismatch, match="'zz' is not a simple of the base"):
            ee.composite_nat_conditions(idf, tau, own, X, Y)
    assert ee.composite_nat_conditions(idf, tau, own, "tau", "tau")


def test_hom_builders_refuse_a_label_that_is_not_a_simple():
    bundle = cli.load(cli.bundled_instance_paths())
    idf, tau = bundle.functor("id_fib_regular"), bundle.functor("rmul_fib_tau")
    for build in (ee.build_nat_system, ee.nat_oracle_system, ee.build_hom_coend_system):
        for at in (["zz"], ["tau", "zz"]):
            with pytest.raises(SourceTargetMismatch, match="'zz' is not a simple of the base"):
                build(idf, tau, at)


def test_composite_conditions_at_a_unit_factor_match_the_simple_ones():
    """The balancing writer at ``X x 1`` and ``1 x X`` against it at ``X``: on
    every corpus functor pair, each composite condition of ``m_i`` has the row
    space of the condition at ``(X, m_i)``, equal ranks and the same rank stacked."""
    bundle = cli.load(cli.bundled_instance_paths())
    funs = list(bundle.functors.values())
    for f, g in [(f, g) for f in funs for g in funs if f.src is g.src and f.dst is g.dst]:
        sys = ee.build_nat_system(f, g)
        simple = {c.generator: c.matrix for c in sys.conditions}
        unit = f.src.base.unit
        for X in f.src.base.simples:
            for pair in ((X, unit), (unit, X)):
                for cond in ee.composite_nat_conditions(f, g, sys.blocks, *pair):
                    own = simple[X, cond.generator[1]]
                    stacked = Matrix.vstack(f.field, [own, cond.matrix], cols=sys.dim)
                    assert own.rank() == cond.matrix.rank() == stacked.rank(), \
                        (f.name, g.name, pair, cond.generator)


def nat_pairs(spec, reg):
    idf = identity_functor(reg)
    funs = [idf] + [act_right_functor(spec, y, reg) for y in spec.simples]
    return funs


def test_nat_system_shapes_vec_z2():
    spec = vec_z2_triv()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    sys = ee.build_nat_system(idf, idf)
    assert sys.dim == 2
    assert {c.generator for c in sys.conditions} == {(X, i) for X in "es" for i in "es"}
    # the unit-generator conditions are identically zero maps
    for cond in sys.conditions:
        if cond.generator[0] == "e":
            assert cond.matrix.is_zero()
    assert ee.solve_end(sys).dim == 1


def test_disjoint_images_empty_carrier():
    spec = vec_z2_triv()
    reg = regular_module(spec)
    fe = act_right_functor(spec, "e", reg)
    fs = act_right_functor(spec, "s", reg)
    sys = ee.build_nat_system(fe, fs)
    assert sys.dim == 0
    assert ee.solve_end(sys).dim == 0


def test_ordinary_end_is_carrier():
    spec = vec_z2_triv()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    sys = ee.build_nat_system(idf, idf)
    bare = ee.DinaturalSystem(field=sys.field, blocks=sys.blocks, conditions=[],
                              kind="end", recipe="ordinary", meta=sys.meta)
    assert ee.solve_end(bare).dim == 2


@pytest.mark.parametrize("name", sorted(CATS))
def test_oracle_subspace_equality(name):
    spec = CATS[name]
    reg = regular_module(spec)
    for f in nat_pairs(spec, reg):
        for g in nat_pairs(spec, reg):
            res = ee.solve_end(ee.build_nat_system(f, g))
            orc = ee.solve_end(ee.nat_oracle_system(f, g))
            assert subspace_equal(res.basis, orc.basis), (name, f.name, g.name)


def test_solve_end_universal_property():
    # any vector satisfying all conditions lies in the span of the basis
    spec = fib()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    sys = ee.build_nat_system(idf, idf)
    assert sys.dim == 2    # carrier: one scalar per simple
    res = ee.solve_end(sys)
    stacked = Matrix.vstack(sys.field, [c.matrix for c in sys.conditions], cols=sys.dim)
    assert subspace_equal(res.basis, stacked.nullspace())
    # and conversely every basis vector satisfies every condition exactly
    for v in res.basis:
        for cond in sys.conditions:
            assert (cond.matrix * v).is_zero()


def test_hom_coend_values():
    # frozen from the relation-rank computation (see the decisions ledger for
    # the fib/ising collapse: the identity-functor relation is
    # lambda_M = sum of lambda over the summands of X* act M)
    expected = {"vec_z2_triv": 1, "vec_z2_omega": 1, "vec_z4": 1, "fib": 0, "ising": 0}
    for name, want in expected.items():
        spec = CATS[name]
        reg = regular_module(spec)
        idf = identity_functor(reg)
        res = ee.solve_coend(ee.build_hom_coend_system(idf, idf))
        assert res.dim == want, name
        assert res.kind == "coend"
        assert len(res.relations) == reg_carrier_dim(idf) - want


def reg_carrier_dim(idf):
    return sum(b.dim for b in ee.build_hom_coend_system(idf, idf).blocks)


def test_coend_without_conditions_is_carrier():
    spec = vec_z4()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    sys = ee.build_hom_coend_system(idf, idf)
    bare = ee.DinaturalSystem(field=sys.field, blocks=sys.blocks, conditions=[],
                              kind="coend", recipe="ordinary", meta=sys.meta)
    assert ee.solve_coend(bare).dim == sys.dim == 4


def test_restrict_conditions():
    spec = vec_z4()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    sys = ee.build_nat_system(idf, idf)
    full = ee.solve_end(sys).dim
    d_sub = ee.solve_end(ee.restrict_conditions(sys, ["0", "2"])).dim
    d_vec = ee.solve_end(ee.restrict_conditions(sys, ["0"])).dim
    assert full <= d_sub <= d_vec
    assert (full, d_sub, d_vec) == (1, 2, 4)
    same = ee.restrict_conditions(sys, list(spec.simples))
    assert ee.solve_end(same).dim == full
    with pytest.raises(NotATensorSubcategory):
        ee.restrict_conditions(sys, ["0", "1"])


def test_restrict_conditions_refuses_a_system_at_fewer_simples():
    """A system balanced at a proper subset of the simples (``meta["at"]``),
    a Hom system given one or a probe system, lacks conditions a subcategory
    may need: restricting it is an error, while a system built at every
    simple named explicitly restricts as the default one does."""
    spec = vec_z4()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    for build in (ee.build_nat_system, ee.nat_oracle_system, ee.build_hom_coend_system):
        with pytest.raises(ValueError, match="not at every simple"):
            ee.restrict_conditions(build(idf, idf, ("1",)), ["0", "2"])
    for probe in (ee.build_character_probe_system(idf, idf),
                  ee.build_serre_probe_system(reg, "0"), ee.build_upsilon_probe_system(reg, "0")):
        with pytest.raises(ValueError, match="not at every simple"):
            ee.restrict_conditions(probe, ["0", "2"])
    every = ee.build_nat_system(idf, idf, tuple(reversed(spec.simples)))
    assert ee.solve_end(ee.restrict_conditions(every, ["0", "2"])).dim == 2


def test_restrict_to_unit_matches_ordinary_end():
    # Prop restriction-vect: over the trivial subcategory the module end is
    # the ordinary end
    for name in ("vec_z2_triv", "fib", "ising"):
        spec = CATS[name]
        reg = regular_module(spec)
        idf = identity_functor(reg)
        sys = ee.build_nat_system(idf, idf)
        res = ee.solve_end(ee.restrict_conditions(sys, [spec.unit]))
        assert res.dim == sys.dim


@pytest.mark.parametrize("name", sorted(CATS))
def test_composite_condition_redundancy(name):
    """Conditions generated by decomposed X x Y never shrink the solution."""
    spec = CATS[name]
    reg = regular_module(spec)
    rng = random.Random(zlib.crc32(name.encode()))
    funs = nat_pairs(spec, reg)
    f = rng.choice(funs)
    g = rng.choice(funs)
    sys = ee.build_nat_system(f, g)
    base_res = ee.solve_end(sys)
    for X, Y in sample_pairs(list(spec.simples), 20, rng):
        extra = ee.composite_nat_conditions(f, g, sys.blocks, X, Y)
        enlarged = ee.DinaturalSystem(field=sys.field, blocks=sys.blocks,
                                      conditions=sys.conditions + extra,
                                      kind="end", recipe=sys.recipe, meta=sys.meta)
        res = ee.solve_end(enlarged)
        assert res.dim == base_res.dim, (name, X, Y)
        assert subspace_equal(res.basis, base_res.basis), (name, X, Y)


@pytest.mark.parametrize("name", sorted(CATS))
def test_plain_dinaturality_never_shrinks(name):
    """Ordinary dinaturality along non-simple objects adds nothing."""
    spec = CATS[name]
    reg = regular_module(spec)
    rng = random.Random(zlib.crc32(name.encode()))
    idf = identity_functor(reg)
    g = act_right_functor(spec, spec.simples[-1], reg)
    for f1, f2 in ((idf, idf), (g, g)):
        sys = ee.build_nat_system(f1, f2)
        base_res = ee.solve_end(sys)
        mt = reg
        for _ in range(8):
            X = rng.choice(spec.simples)
            Y = rng.choice(spec.simples)
            i = rng.choice(reg.simples)
            j = rng.choice(reg.simples)
            A = blocks.act_c(mt, blocks.simple_obj(X), blocks.simple_obj(i))
            B = blocks.act_c(mt, blocks.simple_obj(Y), blocks.simple_obj(j))
            mat = Matrix.zeros(spec.field, len(B), len(A))
            for r, lab_r in enumerate(B.labels):
                for c, lab_c in enumerate(A.labels):
                    if lab_r == lab_c:
                        mat[r, c] = spec.field.rational(rng.randint(-2, 2))
            h = blocks.Mor(A, B, mat)
            cond = plain_dinaturality_condition(f1, f2, sys.blocks, h)
            enlarged = ee.DinaturalSystem(
                field=sys.field, blocks=sys.blocks,
                conditions=sys.conditions + [ee.Condition(("plain", X, i), cond)],
                kind="end", recipe=sys.recipe, meta=sys.meta)
            res = ee.solve_end(enlarged)
            assert res.dim == base_res.dim
            assert subspace_equal(res.basis, base_res.basis)


def test_pushforward_inflation():
    """Applying an exact functor (tensoring with k^n) scales dimensions."""
    spec = vec_z2_omega()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    sys = ee.build_nat_system(idf, idf)
    base_dim = ee.solve_end(sys).dim
    n = 3
    field = sys.field

    def kron_cols(m):
        out = Matrix.zeros(field, m.rows * n, m.cols * n)
        for i in range(m.rows):
            for j in range(m.cols):
                if m[i, j]:
                    for t in range(n):
                        out[i * n + t, j * n + t] = m[i, j]
        return out

    blocks_inflated = []
    off = 0
    for b in sys.blocks:
        basis = tuple((x, t) for x in b.basis for t in range(n))
        blocks_inflated.append(ee.CarrierBlock(simple=b.simple, basis=basis, offset=off))
        off += len(basis)
    conds = [ee.Condition(c.generator, kron_cols(c.matrix)) for c in sys.conditions]
    inflated = ee.DinaturalSystem(field=field, blocks=blocks_inflated,
                                  conditions=conds, kind="end",
                                  recipe="inflated", meta=sys.meta)
    assert ee.solve_end(inflated).dim == n * base_dim


def test_equivalence_invariance_by_invertible_relabeling():
    """Composing both functors with an invertible right multiplication
    (a module auto-equivalence datum) leaves all end dimensions unchanged."""
    cases = [(vec_z4(), "1"), (vec_z2_omega(), "s"), (ising(), "psi")]
    for spec, unit_like in cases:
        reg = regular_module(spec)
        r = act_right_functor(spec, unit_like, reg)
        for y in spec.simples:
            for z in spec.simples:
                fy = act_right_functor(spec, y, reg)
                fz = act_right_functor(spec, z, reg)
                d0 = ee.solve_end(ee.build_nat_system(fy, fz)).dim
                d1 = ee.solve_end(ee.build_nat_system(
                    compose_functors(fy, r), compose_functors(fz, r))).dim
                assert d0 == d1, (spec.name, y, z)


def test_object_valued_end_by_label_restriction():
    spec = vec_z2_triv()
    reg = regular_module(spec)
    idf = identity_functor(reg)

    def mult(sys, label):
        return ee.solve_end(restrict_carrier(sys, label)).dim

    character = ee.build_character_probe_system(idf, idf)
    assert (mult(character, "e"), mult(character, "s")) == (1, 0)
    serre = ee.build_serre_probe_system(reg, "s")
    assert (mult(serre, "s"), mult(serre, "e")) == (1, 0)
    regf = regular_module(fib())
    serre_f = ee.build_serre_probe_system(regf, "tau")
    assert (mult(serre_f, "tau"), mult(serre_f, "1")) == (1, 0)
    # the restriction keeps the label's coordinates and every condition
    sub = restrict_carrier(character, "e")
    assert sub.dim == sum(1 for b in character.blocks for t in b.basis if t[0] == "e")
    assert [c.generator for c in sub.conditions] == [c.generator for c in character.conditions]
    assert all(c.matrix.cols == sub.dim for c in sub.conditions)
    # the double-dual end reads F-symbols: it runs over the regular module only
    module, _reg, _forgetful = vec_over_vec_z2(spec)
    with pytest.raises(SourceTargetMismatch, match="not the regular module"):
        ee.build_upsilon_probe_system(module, "e")


def test_probe_builders_refuse_a_label_that_is_not_a_simple():
    """A Serre or upsilon probe at a label off the simples is refused, not
    built over an empty carrier whose multiplicities would all read 0."""
    reg = regular_module(fib())
    with pytest.raises(SourceTargetMismatch, match=f"^'zz' is not a simple of '{reg.name}'$"):
        ee.build_serre_probe_system(reg, "zz")
    with pytest.raises(SourceTargetMismatch, match="^'zz' is not a simple of the base$"):
        ee.build_upsilon_probe_system(reg, "zz")
    with pytest.raises(SourceTargetMismatch, match="^'zz' is not a simple of the base$"):
        theorems.upsilon_regular(reg.base, "zz", reg)


def random_vec_module_and_functors(rng):
    base = one_simple_category()
    k = rng.randint(1, 3)
    simples = [f"m{t}" for t in range(k)]
    action = [("1", i, i) for i in simples]
    mod = ModuleCategorySpec(base=base, simples=simples, action=action,
                             l_symbols={}, name="rand_vec_mod")
    assert validate_module(mod).ok

    def rand_functor(tag):
        mult = {}
        for i in simples:
            for j in simples:
                v = rng.randint(0, 2)
                if v:
                    mult[(i, j)] = v
        if not mult:
            mult[(simples[0], simples[0])] = 1
        c_symbols = {}
        for i in simples:
            n = sum(mult.get((i, j), 0) for j in simples)
            c_symbols[("1", i)] = Matrix.identity(base.field, n)
        f = ModuleFunctorSpec(mod, mod, mult, c_symbols, name=tag)
        assert validate_functor(f).ok
        return f

    return mod, rand_functor("F"), rand_functor("G")


def test_vec_coincidence_fifty_randomized_systems():
    """Over a one-simple base the module end equals the ordinary end,
    exactly, for 50 randomized carrier systems."""
    rng = random.Random(2024)
    for _ in range(50):
        mod, f, g = random_vec_module_and_functors(rng)
        sys = ee.build_nat_system(f, g)
        for cond in sys.conditions:
            assert cond.matrix.is_zero()
        assert ee.solve_end(sys).dim == sys.dim


def test_restriction_chain_on_ising():
    spec = ising()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    sys = ee.build_nat_system(idf, idf)
    d_c = ee.solve_end(sys).dim
    d_d = ee.solve_end(ee.restrict_conditions(sys, ["1", "psi"])).dim
    d_v = ee.solve_end(ee.restrict_conditions(sys, ["1"])).dim
    assert d_c <= d_d <= d_v
    assert (d_c, d_v) == (1, 3)


def test_ordinary_character_probe_counts_summands():
    # with the balancing conditions dropped, probing the character carrier at
    # the unit counts (e* x e) + (s* x s) = e + e
    spec = vec_z2_triv()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    sys = ee.build_character_probe_system(idf, idf)
    bare = ee.DinaturalSystem(field=sys.field, blocks=sys.blocks, conditions=[],
                              kind="end", recipe="ordinary", meta=sys.meta)
    assert ee.solve_end(restrict_carrier(bare, "e")).dim == 2
    assert ee.solve_end(restrict_carrier(bare, "s")).dim == 0


# ---------------------------------------------------------------------------
# object-valued (co)ends: every label read off its own block, against the label
# restriction that solves once per label and the stacked solve of the carrier


def _probe_systems(module, pairs) -> list:
    """``(system, labels)`` for the Serre, character and upsilon probes of a
    subject of ``test_assembly``; ``labels`` are those its multiplicities run over."""
    base = module.base
    out = [(ee.build_serre_probe_system(module, i), module.simples) for i in module.simples]
    out += [(ee.build_character_probe_system(f, g), base.simples) for f, g in pairs]
    if module is regular_module(base):
        out += [(ee.build_upsilon_probe_system(module, x), base.simples) for x in base.simples]
    return out


def _mutant_probe_systems(name, module, pairs) -> list:
    """The probes of seeded single-symbol mutants, each symbol doubled: of the
    module (Serre), of either functor of each pair (character) and, on a regular
    module, of the base (upsilon).  A base mutant whose zig-zags fail is refused
    by ``duality`` before any probe is built, so it has no probe to compare."""
    base = module.base
    out = []
    for site in sampled_sites(name, module):
        mutant = mutated(module, site, 2)
        out += [(ee.build_serre_probe_system(mutant, i), mutant.simples) for i in mutant.simples]
    for f, g in pairs:
        (f_site,), (g_site,) = (sampled_sites(f"{name} {f.name} {g.name} {side}", h)[:1]
                                for side, h in (("f", f), ("g", g)))
        for pair in ((mutated(f, f_site, 2), g), (f, mutated(g, g_site, 2))):
            out.append((ee.build_character_probe_system(*pair), base.simples))
    if module is regular_module(base):
        for site in sampled_sites(name, base):
            mutant = mutated(base, site, 2)
            try:
                mutant.duality()
            except InconsistentRigidity:
                continue
            reg = regular_module(mutant)
            out += [(ee.build_upsilon_probe_system(reg, x), mutant.simples)
                    for x in mutant.simples]
    return out


@pytest.mark.parametrize("name", sorted(test_assembly.MODULES))
def test_one_solve_matches_the_label_restriction(name):
    """``theorems._multiplicities`` reads each label off its own block; every
    label's multiplicity equals the dimension of the system restricted to that
    label and the count of nullspace vectors on it in one stacked solve."""
    module, pairs = test_assembly.MODULES[name]
    systems = _probe_systems(module, pairs) + _mutant_probe_systems(name, module, pairs)
    for sys_, labels in systems:
        read = theorems._multiplicities(sys_, labels)
        assert read == stacked_multiplicities(sys_, labels), sys_.recipe
        assert read == tuple(ee.solve_end(restrict_carrier(sys_, p)).dim for p in labels), \
            sys_.recipe


def test_a_label_block_without_rows_or_coordinates():
    """A label with coordinates but no rows reads its coordinate count, a label
    with no coordinates reads 0, and a zero row touches no label."""
    q = FieldSpec([0, 1])
    carrier = [ee.CarrierBlock(simple="m", basis=(("e", 0), ("s", 1), ("e", 2)), offset=0),
               ee.CarrierBlock(simple="n", basis=(("s", 0),), offset=3)]
    rows = ee.Condition(generator=("X", "m"), matrix=Matrix(
        q, 3, 4, [q.zero, q.one, q.zero, -q.one] + [q.zero] * 8))
    sys_ = ee.DinaturalSystem(field=q, blocks=carrier, conditions=[rows], recipe="hand-built")
    labels = ("e", "s", "t")
    assert theorems._multiplicities(sys_, labels) == (2, 1, 0)
    assert stacked_multiplicities(sys_, labels) == (2, 1, 0)
    assert tuple(ee.solve_end(restrict_carrier(sys_, p)).dim for p in labels) == (2, 1, 0)
    bare = dataclasses.replace(sys_, conditions=[])
    assert theorems._multiplicities(bare, labels) == stacked_multiplicities(bare, labels) \
        == (2, 2, 0)


def test_a_condition_row_on_two_labels_is_refused():
    """One solve is exact only when no condition row has entries on two labels;
    the label restriction would split this row and miscount its kernel, which
    is one vector on both labels."""
    q = FieldSpec([0, 1])
    carrier = [ee.CarrierBlock(simple="m", basis=(("e", 0), ("s", 1)), offset=0)]
    row = ee.Condition(generator=("X", "m"), matrix=Matrix(q, 1, 2, [q.one, -q.one]))
    sys_ = ee.DinaturalSystem(field=q, blocks=carrier, conditions=[row], recipe="hand-built")
    assert ee.solve_end(sys_).dim == 1
    assert [ee.solve_end(restrict_carrier(sys_, p)).dim for p in ("e", "s")] == [0, 0]
    for read in (theorems._multiplicities, stacked_multiplicities):
        with pytest.raises(ValidationError) as refused:
            read(sys_, ("e", "s"))
        assert str(refused.value) == ("hand-built: a condition row of generator ('X', 'm') "
                                      "has entries on labels ['e', 's']")
