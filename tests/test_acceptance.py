"""Acceptance gate: one test and one printed pass/fail line per criterion.

All tolerances are exact (integer dimensions, field elements compared for
equality); nothing is deferred to calibration.  Runtime bounds are asserted
where stated.
"""

import random
import time

import pytest

from helpers import gauge_category, gauge_functor, gauge_module, sample_pairs

from modend import cli
from modend import endengine as ee
from helpers import all_categories, one_simple_category, vec_z2_triv, vec_over_vec_z2
from modend.fusioncat import validate_fusion
from modend.modcat import internal_hom, regular_module, validate_module
from modend.modfunct import act_right_functor, identity_functor, validate_functor
from modend.scalarfield import Matrix, subspace_equal
from modend.theorems import (adjoint_shift_check, internal_character, nat_m_dim,
                             serre_functor, upsilon_regular)

CATS = all_categories()


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def all_regular_pairs():
    out = []
    for name, spec in CATS.items():
        reg = regular_module(spec)
        funs = [identity_functor(reg)] + \
            [act_right_functor(spec, y, reg) for y in spec.simples]
        for f in funs:
            for g in funs:
                out.append((name, f, g))
    return out


def test_criterion_1_oracle_equivalence():
    """Module-end subspace equals the naturality-oracle subspace exactly."""
    pairs = all_regular_pairs()
    assert len(pairs) >= 10
    worst = 0.0
    for name, f, g in pairs:
        t0 = time.monotonic()
        end_res = ee.solve_end(ee.build_nat_system(f, g))
        orc_res = ee.solve_end(ee.nat_oracle_system(f, g))
        agree = subspace_equal(end_res.basis, orc_res.basis)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert agree, (name, f.name, g.name)
        assert dt < 5.0, f"pair {name}/{f.name},{g.name} took {dt:.1f}s"
    report("criterion-1 oracle-equivalence",
           True, f"{len(pairs)} pairs, worst {worst:.2f}s")


def test_criterion_2_vec_coincidence():
    """On a one-simple base, module end dim = ordinary end dim, exactly."""
    from modend.modcat import ModuleCategorySpec
    from modend.modfunct import ModuleFunctorSpec
    base = one_simple_category()
    rng = random.Random(424242)
    checked = 0
    for _ in range(50):
        k = rng.randint(1, 3)
        simples = [f"m{t}" for t in range(k)]
        mod = ModuleCategorySpec(base=base, simples=simples,
                                 action=[("1", i, i) for i in simples],
                                 l_symbols={}, name="vec_mod")

        def rand_functor(tag):
            mult = {(i, j): rng.randint(0, 2) for i in simples for j in simples}
            mult = {k2: v for k2, v in mult.items() if v}
            if not mult:
                mult[(simples[0], simples[0])] = 1
            c_symbols = {}
            for i in simples:
                n = sum(mult.get((i, j), 0) for j in simples)
                c_symbols[("1", i)] = Matrix.identity(base.field, n)
            return ModuleFunctorSpec(mod, mod, mult, c_symbols, name=tag)

        f, g = rand_functor("F"), rand_functor("G")
        sys = ee.build_nat_system(f, g)
        assert ee.solve_end(sys).dim == sys.dim
        checked += 1
    report("criterion-2 vec-coincidence", checked == 50, f"{checked} systems")


def test_criterion_3_restriction_monotonicity():
    """dim end_C <= end_D <= end_Vec on vec_z4; coends likewise; strict case."""
    spec = CATS["vec_z4"]
    reg = regular_module(spec)
    funs = [identity_functor(reg)] + \
        [act_right_functor(spec, y, reg) for y in spec.simples]
    for f in funs:
        for g in funs:
            sys = ee.build_nat_system(f, g)
            d_c = ee.solve_end(sys).dim
            d_d = ee.solve_end(ee.restrict_conditions(sys, ["0", "2"])).dim
            d_v = ee.solve_end(ee.restrict_conditions(sys, ["0"])).dim
            assert d_c <= d_d <= d_v, (f.name, g.name)
            co = ee.build_hom_coend_system(f, g)
            c_c = ee.solve_coend(co).dim
            c_d = ee.solve_coend(ee.restrict_conditions(co, ["0", "2"])).dim
            c_v = ee.solve_coend(ee.restrict_conditions(co, ["0"])).dim
            assert c_c <= c_d <= c_v, (f.name, g.name)
    z2 = CATS["vec_z2_triv"]
    reg2 = regular_module(z2)
    idf = identity_functor(reg2)
    sys = ee.build_nat_system(idf, idf)
    full = ee.solve_end(sys).dim
    vec_dim = ee.solve_end(ee.restrict_conditions(sys, ["e"])).dim
    assert full == 1 < 2 == vec_dim
    report("criterion-3 restriction-monotonicity", True, "strict case 1 < 2")


def test_criterion_4_peter_weyl():
    for name, spec in CATS.items():
        reg = regular_module(spec)
        vec = internal_character(reg, identity_functor(reg))
        assert vec == tuple(1 if s == spec.unit else 0 for s in spec.simples), name
    mod, _, forg = vec_over_vec_z2(CATS["vec_z2_triv"])
    vec = internal_character(mod, forg)
    assert vec == (1, 1)
    assert vec == internal_hom(mod).mult_vector("m", "m")
    report("criterion-4 peter-weyl", True, "5 regular + forgetful = (1,1)")


def test_criterion_5_serre():
    for name, spec in CATS.items():
        reg = regular_module(spec)
        res = serre_functor(reg)   # raises SerreCertificateFailure on mismatch
        assert res.label_map() == {i: spec.dual[spec.dual[i]] for i in spec.simples}
    mod, _, _ = vec_over_vec_z2(CATS["vec_z2_triv"])
    res = serre_functor(mod)
    assert res.on_simples == {"m": {"m": 1}}
    report("criterion-5 serre", True, "double-dual label map everywhere")


def test_criterion_6_double_dual():
    for name, spec in CATS.items():
        reg = regular_module(spec)
        for x in spec.simples:
            vec = upsilon_regular(spec, x, reg)  # raises UpsilonMismatch otherwise
            assert vec == tuple(1 if p == x else 0 for p in spec.simples)
    report("criterion-6 double-dual", True, "delta_x for all bundled (c, x)")


def test_criterion_7_adjoint_shift():
    for name, spec in CATS.items():
        reg = regular_module(spec)
        for y in spec.simples:
            res = adjoint_shift_check(spec, y, reg)
            assert res.ok, (name, y, res.lhs, res.rhs)
    report("criterion-7 adjoint-shift", True, "all bundled (c, y)")


def test_criterion_8_reduction_guards():
    # composite-condition redundancy: >= 20 random pairs per instance
    for name, spec in CATS.items():
        reg = regular_module(spec)
        rng = random.Random(1000 + len(name))
        funs = [identity_functor(reg)] + \
            [act_right_functor(spec, y, reg) for y in spec.simples]
        f = rng.choice(funs)
        g = rng.choice(funs)
        sys = ee.build_nat_system(f, g)
        base_res = ee.solve_end(sys)
        for X, Y in sample_pairs(list(spec.simples), 20, rng):
            extra = ee.composite_nat_conditions(f, g, sys.blocks, X, Y)
            res = ee.solve_end(ee.DinaturalSystem(
                field=sys.field, blocks=sys.blocks,
                conditions=sys.conditions + extra, kind="end",
                recipe=sys.recipe, meta=sys.meta))
            assert subspace_equal(res.basis, base_res.basis), (name, X, Y)
    # gauge perturbation: re-randomized Hom-basis scalars change nothing
    for name in ("vec_z2_omega", "fib", "ising"):
        spec = CATS[name]
        rng = random.Random(31337 + len(name))
        reg = regular_module(spec)
        gspec, lam = gauge_category(spec, rng)
        assert validate_fusion(gspec).ok
        greg, mu = gauge_module(reg, gspec, lam, rng)
        assert validate_module(greg).ok
        idf = identity_functor(reg)
        gid = gauge_functor(idf, greg, greg, mu, mu, rng)
        for y in spec.simples:
            fy = act_right_functor(spec, y, reg)
            gfy = gauge_functor(fy, greg, greg, mu, mu, rng)
            assert nat_m_dim(fy, fy, "both").dim == nat_m_dim(gfy, gfy, "both").dim
        canon = regular_module(gspec)
        mu_canon = {key: lam[key] for key in mu}
        u = gauge_functor(idf, greg, canon, mu, mu_canon, rng)
        assert internal_character(reg, idf) == internal_character(greg, u)
        assert serre_functor(reg).on_simples == serre_functor(greg).on_simples
        for x in spec.simples:
            assert upsilon_regular(spec, x, reg) \
                == upsilon_regular(gspec, x, canon)
    report("criterion-8 reduction-guards", True,
           "composite redundancy + gauge invariance")


def test_criterion_9_exactness_and_runtime():
    # every pentagon / mixed-pentagon / zig-zag residual is the exact zero
    from modend import blocks
    for name, spec in CATS.items():
        assert validate_fusion(spec).ok, name          # exact pentagon residuals
        spec.duality()                                  # raises if zig-zags disagree
        reg = regular_module(spec)
        assert validate_module(reg).ok, name           # exact mixed pentagon
    mod, _, forg = vec_over_vec_z2(CATS["vec_z2_triv"])
    assert validate_module(mod).ok
    assert validate_functor(forg).ok
    t0 = time.monotonic()
    bundle = cli.load(cli.bundled_instance_paths())
    lines, ok = cli.run_suite(bundle)
    dt = time.monotonic() - t0
    assert ok
    assert dt < 60.0, f"suite took {dt:.1f}s"
    report("criterion-9 exactness", True, f"suite in {dt:.1f}s, {len(lines)} checks")
