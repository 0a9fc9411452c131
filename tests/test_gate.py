"""Reference oracle for the validation gate.

The validators evaluate the pentagon, the mixed pentagons, the unit axioms
and functor coherence on symbols (``blocks.*_holds``).  The checkers below
evaluate the same axioms as whole-object composites in the block calculus.
Each test runs a validator once as it is and once with these checkers in
place of the symbol-level predicates, and requires the same
``(check, location)`` entries in the same order.
"""

import json
import random
import zlib

import pytest

from helpers import (MUTATION_FACTORS, act_mor, action_associativity_entries, bench_gen,
                     c_assoc, cunit, f_mor, fusion_associativity_entries, gauge_category,
                     gauge_functor, gauge_module, gauged_corpus_and_zn, matrix_inverse_entries,
                     mutated, mutation_sites, opposite_module_composite, ract_c, ract_mor, rassoc,
                     sampled_sites, unit_l, whisker_c)
from modend import blocks, cli
from modend.blocks import Mor, _simple, act_c, assoc, c_mor, ctensor, f_obj
from modend.fusioncat import FusionCategorySpec, validate_fusion
from modend.modcat import (ModuleCategorySpec, opposite_module, regular_module,
                           validate_module)
from modend.modfunct import (act_right_functor, compose_functors, identity_functor,
                             validate_functor)
from modend.scalarfield import FieldSpec, Matrix

# ---------------------------------------------------------------------------
# structure morphisms only the composites below use


def rwhisker(tables, f, A):
    """``f ract id_A``."""
    src, dst = ract_c(tables, f.src, A), ract_c(tables, f.dst, A)
    mat = Matrix.zeros(tables.field, len(dst), len(src))
    for iq in range(len(f.dst)):
        for ip, s in enumerate(f.src.labels):
            val = f.mat[iq, ip]
            if val:
                for ia, a in enumerate(A.labels):
                    for t in tables.act_set(a, s):
                        mat[dst.index[(iq, ia, t)], src.index[(ip, ia, t)]] = val
    return Mor(src, dst, mat)


def runit_r(tables, N):
    """``N ract 1 -> N`` carrying the right module's unit scalars."""
    src = ract_c(tables, N, cunit(tables.base))
    mat = Matrix.zeros(tables.field, len(N), len(src))
    for ip, p in enumerate(N.labels):
        mat[ip, src.index[(ip, 0, p)]] = tables.unit_scalar(p)
    return Mor(src, N, mat)


def c_lunit(base, A):
    """``1 x A -> A`` (scalar 1, skeleton convention)."""
    src = ctensor(base, cunit(base), A)
    mat = Matrix.zeros(base.field, len(A), len(src))
    for ia, a in enumerate(A.labels):
        mat[ia, src.index[(0, ia, a)]] = base.field.one
    return Mor(src, A, mat)


def c_runit(base, A):
    """``A x 1 -> A`` (scalar 1, skeleton convention)."""
    src = ctensor(base, A, cunit(base))
    mat = Matrix.zeros(base.field, len(A), len(src))
    for ia, a in enumerate(A.labels):
        mat[ia, src.index[(ia, 0, a)]] = base.field.one
    return Mor(src, A, mat)


# ---------------------------------------------------------------------------
# the axioms as Mor composites


def ref_left_pentagon(tables, X, Y, Z, i):
    base = tables.base
    sx, sy, sz, M = (_simple(base, a) for a in (X, Y, Z, i))
    lhs = assoc(tables, sx, sy, act_c(tables, sz, M)) \
        * assoc(tables, ctensor(base, sx, sy), sz, M)
    rhs = whisker_c(tables, sx, assoc(tables, sy, sz, M)) \
        * assoc(tables, sx, ctensor(base, sy, sz), M) \
        * act_mor(tables, c_assoc(base, sx, sy, sz), M)
    return lhs == rhs


def ref_left_unit(tables, X, i):
    base = tables.base
    sx, M = _simple(base, X), _simple(base, i)
    lhs = whisker_c(tables, sx, unit_l(tables, M)) * assoc(tables, sx, cunit(base), M)
    return lhs == act_mor(tables, c_runit(base, sx), M)


def ref_right_pentagon(tables, i, X, Y, Z):
    base = tables.base
    sx, sy, sz, M = (_simple(base, a) for a in (X, Y, Z, i))
    lhs = rassoc(tables, ract_c(tables, M, sx), sy, sz) \
        * rassoc(tables, M, sx, ctensor(base, sy, sz)) \
        * ract_mor(tables, M, c_assoc(base, sx, sy, sz))
    rhs = rwhisker(tables, rassoc(tables, M, sx, sy), sz) \
        * rassoc(tables, M, ctensor(base, sx, sy), sz)
    return lhs == rhs


def ref_right_unit(tables, i, X):
    base = tables.base
    sx, M = _simple(base, X), _simple(base, i)
    lhs = rwhisker(tables, runit_r(tables, M), sx) * rassoc(tables, M, cunit(base), sx)
    return lhs == ract_mor(tables, M, c_lunit(base, sx))


def ref_functor_unit(ft, i):
    base = ft.src.base
    mi = _simple(base, i)
    lhs = unit_l(ft.dst, f_obj(ft, mi)) * c_mor(ft, cunit(base), mi)
    return lhs == f_mor(ft, unit_l(ft.src, mi))


def ref_functor_coherence(ft, X, Y, i):
    base = ft.src.base
    sx, sy, mi = _simple(base, X), _simple(base, Y), _simple(base, i)
    lhs = whisker_c(ft.dst, sx, c_mor(ft, sy, mi)) \
        * c_mor(ft, sx, act_c(ft.src, sy, mi)) \
        * f_mor(ft, assoc(ft.src, sx, sy, mi))
    rhs = assoc(ft.dst, sx, sy, f_obj(ft, mi)) * c_mor(ft, ctensor(base, sx, sy), mi)
    return lhs == rhs


def ref_unit(tables, X, i):
    return ref_right_unit(tables, i, X) if tables.right else ref_left_unit(tables, X, i)


REFERENCE = {
    "left_pentagon_holds": ref_left_pentagon,
    "right_pentagon_holds": ref_right_pentagon,
    "unit_holds": ref_unit,
    "functor_unit_holds": ref_functor_unit,
    "functor_coherence_holds": ref_functor_coherence,
}
COHERENCE_CHECKS = {"pentagon", "mixed-pentagon", "unit-coherence", "coherence"}


def _entries(report):
    return [(e.check, e.location) for e in report.entries]


def _validate_both_ways(validate, subject, monkeypatch):
    got = _entries(validate(subject))
    with monkeypatch.context() as patch:
        for name, checker in REFERENCE.items():
            patch.setattr(blocks, name, checker)
        # pointed tables take the flat sweep, which calls no predicate
        patch.setattr(blocks, "is_pointed", lambda tables: False)
        want = _entries(validate(subject))
    assert got == want, subject
    return got


# ---------------------------------------------------------------------------
# subjects: the bundled corpus, opposites, a composite and gauged copies


def _gauged(bundle, cname, seed):
    spec, reg = bundle.category(cname), bundle.module(f"{cname}_regular")
    rng = random.Random(seed)
    gspec, lam = gauge_category(spec, rng)
    greg, mu = gauge_module(reg, gspec, lam, rng)
    out = {f"{cname}~gauged": (validate_fusion, gspec),
           f"{cname}_regular~gauged": (validate_module, greg),
           f"{cname}_regular_op~gauged": (validate_module, opposite_module(greg))}
    for fname, fun in bundle.functors.items():
        if fun.src is reg and fun.dst is reg:
            out[f"{fname}~gauged"] = (validate_functor,
                                      gauge_functor(fun, greg, greg, mu, mu, rng))
    return out


def _subjects():
    bundle = cli.load(cli.bundled_instance_paths())
    out = {}
    for name, cat in bundle.categories.items():
        out[name] = (validate_fusion, cat)
    for name, mod in bundle.modules.items():
        out[name] = (validate_module, mod)
        out[f"{name}_op"] = (validate_module, opposite_module(mod))
    for name, fun in bundle.functors.items():
        out[name] = (validate_functor, fun)
    tau = bundle.functor("rmul_fib_tau")
    out["rmul_fib_tau^2"] = (validate_functor, compose_functors(tau, tau))
    for cname in ("vec_z2_omega", "vec_z4", "fib", "ising"):
        out.update(_gauged(bundle, cname, zlib.crc32(cname.encode())))
    # the forgetful functor between gauged copies of its module and the
    # regular module (canonical over the gauged base)
    base, mod = bundle.category("vec_z2_triv"), bundle.module("vec_over_vec_z2")
    rng = random.Random(zlib.crc32(b"forgetful"))
    gbase, lam = gauge_category(base, rng)
    gmod, mu = gauge_module(mod, gbase, lam, rng)
    canon = regular_module(gbase)
    mu_canon = {key: lam[key] for key in bundle.module("vec_z2_triv_regular").action}
    out["forgetful~gauged"] = (validate_functor, gauge_functor(
        bundle.functor("forgetful"), gmod, canon, mu, mu_canon, rng))
    return out


SUBJECTS = _subjects()


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_valid_subject_matches_reference(name, monkeypatch):
    validate, subject = SUBJECTS[name]
    assert _validate_both_ways(validate, subject, monkeypatch) == []


@pytest.mark.parametrize("name", sorted(name for name, (validate, _) in SUBJECTS.items()
                                         if validate is validate_module))
def test_opposite_module_matches_the_composite(name):
    """The opposite's symbols, read off L-blocks, equal those of the composite."""
    module = SUBJECTS[name][1]
    closed, composite = opposite_module(module), opposite_module_composite(module)
    assert closed.orientation == composite.orientation
    assert closed.action == composite.action
    assert closed.l_raw == composite.l_raw and closed._l == composite._l
    assert closed.unit_scalars == composite.unit_scalars


def _unpruned_l_block_failures(tables):
    """``blocks.l_block_failures`` without its pruning: every block is inverted."""
    simples = tables.base.simples
    return tuple((kind, (X, Y, i, t)) for X in simples for Y in simples
                 for i in tables.simples for t in tables.simples
                 if (kind := blocks.block_failure(tables.l_inverse, X, Y, i, t)))


@pytest.mark.parametrize("name", sorted(name for name, (validate, _) in SUBJECTS.items()
                                         if validate is validate_module))
def test_l_block_sweep_matches_the_unpruned_sweep(name):
    """The pruned sweep finds what inverting every block finds, left or right,
    on the module and on each copy with one L-symbol set to 0."""
    module = SUBJECTS[name][1]
    kinds = set()
    for spec in [module] + [mutated(module, site, 0) for site in mutation_sites(module)
                            if site[0] == "l"]:
        failures = blocks.l_block_failures(spec)
        assert failures == _unpruned_l_block_failures(spec), (name, spec.l_raw)
        kinds.update(kind for kind, _ in failures)
    assert "singular" in kinds


def test_composite_functor_has_multiplicity_two():
    _, sq = SUBJECTS["rmul_fib_tau^2"]
    assert sq.mult("tau", "tau") == 2


# ---------------------------------------------------------------------------
# derived subjects: no command sweeps them, as they are valid by construction,
# so every sweep must find them valid


def _derived_subjects(tmp_path):
    """The derived modules and functors of the loaded corpus and bench/gen.py zn4,
    zn6; those ``suite`` builds from the same categories and from gauged copies of
    the corpus; and the identity of the explicit module."""
    bundle = cli.load(cli.bundled_instance_paths())
    assert {name for name, mod in bundle.modules.items() if mod.derived} \
        == {f"{cname}_regular" for cname in bundle.categories}
    assert {name for name, fun in bundle.functors.items() if not fun.derived} == {"forgetful"}
    gen, paths = bench_gen(), []
    for n in (4, 6):
        paths.append(tmp_path / f"zn{n}.json")
        paths[-1].write_text(json.dumps(gen.instance(n, 1)))
    zn = cli.load([str(p) for p in paths])
    out = {}
    for loaded in (bundle, zn):
        out.update((name, spec) for name, spec in {**loaded.modules, **loaded.functors}.items()
                   if spec.derived)
    for cname, cat in gauged_corpus_and_zn().items():
        reg = regular_module(cat)
        out[f"suite {cname} regular"], out[f"suite {cname} id"] = reg, identity_functor(reg)
        for y in cat.simples:
            out[f"suite {cname} rmul {y}"] = act_right_functor(cat, y, reg)
    out["id_vec_over_vec_z2"] = identity_functor(bundle.module("vec_over_vec_z2"))
    return out


def test_derived_subjects_pass_every_sweep(tmp_path):
    subjects = _derived_subjects(tmp_path)
    assert len(subjects) == 2 * (23 + 14) + 23 + 1
    for name, spec in subjects.items():
        assert spec.derived, name
        validate = validate_module if isinstance(spec, ModuleCategorySpec) else validate_functor
        assert _entries(validate(spec)) == [], name


# ---------------------------------------------------------------------------
# seeded single-entry mutations (``helpers.sampled_sites``)


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_mutated_subject_matches_reference(name, monkeypatch):
    validate, subject = SUBJECTS[name]
    for site in sampled_sites(name, subject):
        for factor in MUTATION_FACTORS:
            _validate_both_ways(validate, mutated(subject, site, factor), monkeypatch)


def test_mutations_reach_every_coherence_check(monkeypatch):
    """The sampled mutations trip each symbol-level predicate somewhere."""
    seen = set()
    for name in sorted(SUBJECTS):
        validate, subject = SUBJECTS[name]
        for site in sampled_sites(name, subject):
            report = validate(mutated(subject, site, 2))
            seen.update((validate.__name__, e.check) for e in report.entries
                        if e.check in COHERENCE_CHECKS)
    assert seen >= {("validate_fusion", "pentagon"),
                    ("validate_module", "mixed-pentagon"),
                    ("validate_module", "unit-coherence"),
                    ("validate_functor", "unit-coherence"),
                    ("validate_functor", "coherence")}


# ---------------------------------------------------------------------------
# the path-count sweep both validators share (``blocks.path_count_failures``)


def _drop_each(triples, rebuild):
    """The spec with each of ``triples`` dropped in turn, rebuilt by ``rebuild(rest)``."""
    return [rebuild(triples - {t}) for t in sorted(triples)]


def test_path_count_sweep_matches_the_two_loops():
    """On every corpus category, every bundled module and the opposite of each,
    whole and with one fusion or action triple dropped, the sweep's
    ``fusion-associativity`` and ``action-associativity`` entries are those of
    the loops each validator ran before (``helpers``), in the same order."""
    bundle = cli.load(cli.bundled_instance_paths())
    failing = 0
    for c in bundle.categories.values():
        for spec in [c] + _drop_each(c.fusion, lambda rest: FusionCategorySpec(
                field=c.field, simples=c.simples, unit=c.unit, dual=c.dual, fusion=rest,
                f_symbols=c.f_raw, name=c.name)):
            want = fusion_associativity_entries(spec)
            report = validate_fusion(spec)
            assert [e for e in report.entries if e.check == "fusion-associativity"] == want
            failing += bool(want)
    modules = list(bundle.modules.values())
    for m in modules + [opposite_module(m) for m in modules]:
        for spec in [m] + _drop_each(m.action, lambda rest: ModuleCategorySpec(
                base=m.base, simples=m.simples, action=rest, l_symbols=m.l_raw,
                unit_scalars=m.unit_scalars, orientation=m.orientation, name=m.name)):
            want = action_associativity_entries(spec)
            report = validate_module(spec)
            assert [e for e in report.entries if e.check == "action-associativity"] == want
            failing += bool(want)
    assert failing >= 100


# ---------------------------------------------------------------------------
# the flat pentagon sweep of pointed tables (``blocks.pointed_pentagon_failures``)


def _general_pentagon_failures(tables):
    """The general sweep: ``left_pentagon_holds`` at every ``(X, Y, Z, i)``."""
    simples = tables.base.simples
    return tuple((X, Y, Z, i) for X in simples for Y in simples for Z in simples
                 for i in tables.simples if not blocks.left_pentagon_holds(tables, X, Y, Z, i))


def _pentagon_tables(spec):
    """The tables a validator sweeps the pentagon of ``spec`` on."""
    return regular_module(spec) if isinstance(spec, FusionCategorySpec) else spec


def _pointed_subjects():
    """The pointed corpus categories, their regular modules, vec_over_vec_z2,
    the gauged copies of SUBJECTS and bench/gen.py zn4, zn6 with their regular
    modules."""
    bundle = cli.load(cli.bundled_instance_paths())
    out = {}
    for cname in ("vec_z2_omega", "vec_z2_triv", "vec_z4"):
        out[cname] = bundle.category(cname)
        out[f"{cname}_regular"] = bundle.module(f"{cname}_regular")
    out["vec_over_vec_z2"] = bundle.module("vec_over_vec_z2")
    for cname in ("vec_z2_omega", "vec_z4"):
        for name in (f"{cname}~gauged", f"{cname}_regular~gauged"):
            out[name] = SUBJECTS[name][1]
    zn = gauged_corpus_and_zn()
    for cname in ("zn4", "zn6"):
        out[cname] = zn[cname]
        out[f"{cname}_regular"] = regular_module(zn[cname])
    return out


POINTED = _pointed_subjects()


def _mutants(name, spec):
    """``(site, factor, mutant)`` for ``spec`` with one F- or L-symbol doubled
    or negated: every site, or a seeded sample of them on zn6.  All 1 x 1
    blocks stay invertible."""
    sites = sampled_sites(name, spec) if name.startswith("zn6") else mutation_sites(spec)
    return [(site, factor, mutated(spec, site, factor)) for site in sites
            if site[0] in ("f", "l") for factor in MUTATION_FACTORS]


# single-symbol changes that leave the pentagon holding: on Vec_{Z/2} the one
# F-symbol off the unit legs is 1 or -1 (two 3-cocycles), and on
# vec_over_vec_z2 the one L-symbol off the unit legs is a 2-cocycle at any
# nonzero value
COCYCLE_MUTANTS = {(("f", ("s", "s", "s", "s", "e", "e")), -1),
                   (("l", ("s", "s", "m", "m", "e", "m")), -1),
                   (("l", ("s", "s", "m", "m", "e", "m")), 2)}


@pytest.mark.parametrize("name", sorted(POINTED))
def test_pointed_sweep_matches_the_general_sweep(name):
    """On every pointed subject and on each single-symbol mutant, the flat sweep
    fails at the tuples the general sweep fails at, in the same order; every
    mutant but a cocycle fails somewhere."""
    spec = POINTED[name]
    tables = _pentagon_tables(spec)
    assert blocks.is_pointed(tables)
    assert blocks.pointed_pentagon_failures(tables) == _general_pentagon_failures(tables) == ()
    mutants = _mutants(name, spec)
    assert len(mutants) > sum(1 for site, factor, _ in mutants
                              if (site, factor) in COCYCLE_MUTANTS)
    for site, factor, mutant in mutants:
        tables = _pentagon_tables(mutant)
        assert blocks.l_block_failures(tables) == ()
        failures = blocks.pointed_pentagon_failures(tables)
        assert bool(failures) != ((site, factor) in COCYCLE_MUTANTS), (name, site, factor)
        assert failures == _general_pentagon_failures(tables), (name, site, factor)
        assert blocks.left_pentagon_failures(tables) == failures


def _over_sqrt2(spec):
    """``spec``'s rational data over Q(sqrt 2)."""
    field = FieldSpec([-2, 0, 1])
    f_symbols = {key: field.rational(val.coeffs[0]) for key, val in spec.f_raw.items()}
    return FusionCategorySpec(field=field, simples=spec.simples, unit=spec.unit, dual=spec.dual,
                              fusion=spec.fusion, f_symbols=f_symbols, name=f"{spec.name}/sqrt2")


def _theta_shift(field, rng):
    """``theta + k`` for a small integer ``k``: never 0, never rational."""
    return field.gen() + field.rational(rng.randint(-3, 3))


def _sqrt2_gauged(cname):
    """The pointed corpus category ``cname`` over Q(sqrt 2) and its regular
    module, both gauged by cochains in theta."""
    bundle = cli.load(cli.bundled_instance_paths())
    rng = random.Random(zlib.crc32(cname.encode()))
    plain = _over_sqrt2(bundle.category(cname))
    cat, lam = gauge_category(plain, rng, scalar=_theta_shift)
    mod, _ = gauge_module(regular_module(plain), cat, lam, rng, scalar=_theta_shift)
    return cat, mod


@pytest.mark.parametrize("cname", ["vec_z2_omega", "vec_z4"])
def test_pointed_sweep_over_a_field_of_degree_two(cname):
    """The field-element branch: a pointed category over Q(sqrt 2) and its
    regular module, both gauged by cochains in theta, and a mutant of each."""
    cat, mod = _sqrt2_gauged(cname)
    assert any(val.num[1] for val in mod._l.values())
    assert validate_fusion(cat).ok and validate_module(mod).ok
    for spec in (cat, mod):
        tables = _pentagon_tables(spec)
        assert tables.field.degree == 2 and blocks.is_pointed(tables)
        assert blocks.pointed_pentagon_failures(tables) == _general_pentagon_failures(tables) == ()
        site = next(site for site in mutation_sites(spec) if site[0] in ("f", "l")
                    and tables.base.unit not in site[1][:2])
        tables = _pentagon_tables(mutated(spec, site, 2))
        failures = blocks.pointed_pentagon_failures(tables)
        assert failures and failures == _general_pentagon_failures(tables)


# ---------------------------------------------------------------------------
# the flat path-count and block sweeps of pointed tables
# (``blocks.pointed_path_count_failures``, ``blocks.pointed_l_block_failures``)


def _swept_subjects():
    """POINTED, the opposites (right modules) of vec_over_vec_z2 and of the
    gauged regular modules, and the gauged pointed categories over Q(sqrt 2)
    with their regular modules."""
    out = dict(POINTED)
    for name in ("vec_over_vec_z2_op", "vec_z2_omega_regular_op~gauged",
                 "vec_z4_regular_op~gauged"):
        out[name] = SUBJECTS[name][1]
    for cname in ("vec_z2_omega", "vec_z4"):
        out[f"{cname}/sqrt2~gauged"], out[f"{cname}_regular/sqrt2~gauged"] = _sqrt2_gauged(cname)
    return out


SWEPT = _swept_subjects()


def _with_triples(spec, triples):
    """``spec`` rebuilt on its own tables, with ``triples`` as its fusion or
    action table."""
    if isinstance(spec, FusionCategorySpec):
        return FusionCategorySpec(field=spec.field, simples=spec.simples, unit=spec.unit,
                                  dual=spec.dual, fusion=triples, f_symbols=spec.f_raw,
                                  name=spec.name)
    return ModuleCategorySpec(base=spec.base, simples=spec.simples, action=triples,
                              l_symbols=spec.l_raw, unit_scalars=spec.units_raw,
                              orientation=spec.orientation, name=spec.name)


def _triples(spec):
    return spec.fusion if isinstance(spec, FusionCategorySpec) else spec.action


def _fresh(spec):
    """A copy of ``spec`` on tables of its own, whose caches start empty."""
    if isinstance(spec, ModuleCategorySpec) and spec.derived:
        return regular_module(_fresh(spec.base))
    return _with_triples(spec, _triples(spec))


def _remapped(name, spec):
    """``spec`` with one fusion or action triple ``(a, b, c)`` remapped to
    ``(a, b, c')``, ``c'`` the next simple after ``c``: every set stays one
    simple.  Triples whose first label is the unit, or a seeded sample of
    six triples on zn4 and zn6."""
    triples, labels = _triples(spec), spec.simples
    unit = spec.base.unit if isinstance(spec, ModuleCategorySpec) else spec.unit
    chosen = sorted(triples)
    if name.startswith("zn"):
        chosen = random.Random(zlib.crc32(name.encode())).sample(chosen, 6)
    else:
        chosen = [t for t in chosen if t[0] == unit]
    out = []
    for a, b, c in chosen:
        moved = labels[(labels.index(c) + 1) % len(labels)]
        if moved != c:
            out.append(_with_triples(spec, triples - {(a, b, c)} | {(a, b, moved)}))
    return out


def _zeroed(name, spec):
    """``spec`` with one F- or L-symbol set to 0, at a seeded sample of four
    sites."""
    sites = [site for site in mutation_sites(spec) if site[0] in ("f", "l")]
    sites = random.Random(zlib.crc32(name.encode())).sample(sites, min(4, len(sites)))
    return [mutated(spec, site, 0) for site in sites]


def _general_failures(spec, monkeypatch):
    """The general path-count and block sweeps of ``spec`` on fresh tables:
    the ``Counter`` sweep, and ``block_failure(tables.l_inverse, ...)`` at every
    ``(X, Y, i, t)`` unless the path counts fail.  Also the tables."""
    tables = _pentagon_tables(_fresh(spec))
    with monkeypatch.context() as patch:
        patch.setattr(blocks, "is_pointed", lambda tables: False)
        paths = tuple(blocks.path_count_failures(tables))
    return paths, (None if paths else _unpruned_l_block_failures(tables)), tables


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_pointed_path_and_block_sweeps_match_the_general_sweeps(name, monkeypatch):
    """On every pointed subject, left or right, and on each mutant with one
    triple remapped or one symbol set to 0, the flat sweeps fail at the
    tuples the general sweeps fail at, in the same order; every mutant fails.
    The flat sweep keeps no inverse.  Every ``l_inverse`` read after it is the
    inverse of the block on fresh tables, and ``Matrix.inverse``'s; a failing
    block's read raises.  The general sweep run after it fails at the same
    tuples and inverts no matrix: every block is 1 x 1."""
    spec = SWEPT[name]
    remapped, zeroed = _remapped(name, spec), _zeroed(name, spec)
    assert zeroed and (remapped or len(spec.simples) == 1)
    for case in [spec] + remapped + zeroed:
        paths, failures, general = _general_failures(case, monkeypatch)
        tables = _pentagon_tables(_fresh(case))
        assert blocks.is_pointed(tables)
        assert tuple(blocks.path_count_failures(tables)) == paths, name
        if case in remapped:
            assert paths, name
            continue
        assert paths == () and blocks.l_block_failures(tables) == failures, name
        assert ("singular" in {kind for kind, _ in failures}) == (case in zeroed), name
        assert tables._linv_cache == {}
        readable = {key: inv for key, inv in general._linv_cache.items() if inv}
        for key, inv in readable.items():
            assert tables.l_inverse(*key) == inv == matrix_inverse_entries(
                *general.l_block(*key)), (name, key)
        for _, key in failures:
            with pytest.raises(ArithmeticError):
                tables.l_inverse(*key)
        with monkeypatch.context() as patch:
            inverted, inverse = [], Matrix.inverse
            patch.setattr(Matrix, "inverse", lambda mat: inverted.append(mat) or inverse(mat))
            patch.setattr(blocks, "is_pointed", lambda tables: False)
            assert blocks.l_block_failures(tables) == failures
        assert inverted == []


def test_pointed_zero_divisor_matches_the_general_sweep(monkeypatch):
    """A pointed category over Q[x]/(x^2 - 1) whose F-symbol F(s,s,s; s; e,e)
    is 1 + x: both sweeps report the zero divisor, and so does the validator."""
    triv = cli.load(cli.bundled_instance_paths()).category("vec_z2_triv")
    field, key = FieldSpec([-1, 0, 1]), ("s", "s", "s", "s", "e", "e")
    spec = FusionCategorySpec(field=field, simples=triv.simples, unit=triv.unit, dual=triv.dual,
                              fusion=triv.fusion, f_symbols={key: field.element([1, 1])},
                              name="vec_z2_triv/(x^2-1)")
    want = (("zero-divisor", key[:4]),)
    assert _general_failures(spec, monkeypatch)[:2] == ((), want)
    tables = _pentagon_tables(_fresh(spec))
    assert blocks.is_pointed(tables) and blocks.l_block_failures(tables) == want
    assert _entries(validate_fusion(spec)) == [("f-block-zero-divisor", key[:4])]
