"""Reference oracle for the validation gate.

The validators evaluate the pentagon, the mixed pentagons, the unit axioms
and functor coherence on symbols (``blocks.*_holds``).  The checkers below
evaluate the same axioms as whole-object composites in the block calculus.
Each test runs a validator once as it is and once with these checkers in
place of the symbol-level predicates, and requires the same
``(check, location)`` entries in the same order.
"""

import functools
import json
import random
import zlib
from collections import Counter

import pytest

from helpers import (MUTATION_FACTORS, act_mor, bench_gen, c_assoc, cunit, f_mor,
                     gauge_category, gauge_functor, gauge_module, gauged_corpus_and_zn, mutated,
                     opposite_module_composite, ract_c, ract_mor, rassoc, sampled_sites, unit_l,
                     whisker_c)
from modend import blocks, cli
from modend.blocks import Mor, _simple, act_c, assoc, c_mor, ctensor, f_obj
from modend.fusioncat import validate_fusion
from modend.modcat import (ModuleCategorySpec, opposite_module, regular_module,
                           validate_module)
from modend.modfunct import (act_right_functor, compose_functors, identity_functor,
                             validate_functor)
from modend.scalarfield import Matrix

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
                    for t in tables.ract_set(s, a):
                        mat[dst.index[(iq, ia, t)], src.index[(ip, ia, t)]] = val
    return Mor(src, dst, mat)


def runit_r(tables, N):
    """``N ract 1 -> N`` carrying the right module's unit scalars."""
    src = ract_c(tables, N, cunit(tables.base))
    mat = Matrix.zeros(tables.field, len(N), len(src))
    for ip, p in enumerate(N.labels):
        mat[ip, src.index[(ip, 0, p)]] = tables.runit_scalar(p)
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


REFERENCE = {
    "left_pentagon_holds": ref_left_pentagon,
    "left_unit_holds": ref_left_unit,
    "right_pentagon_holds": ref_right_pentagon,
    "right_unit_holds": ref_right_unit,
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
            # a new function object per call: the sweeps cached on the tables
            # are keyed by the predicate, so every reference run evaluates
            patch.setattr(blocks, name, functools.partial(checker))
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


def test_pentagon_sweep_is_shared_by_a_category_and_its_regular_module(monkeypatch):
    """Each pentagon tuple is evaluated once per predicate and tables object:
    the regular module reads the sweep its category made, and a replacement
    predicate gets a sweep of its own instead of the cached one."""
    bundle = cli.load(cli.bundled_instance_paths())
    cat, reg = bundle.category("fib"), bundle.module("fib_regular")
    reports = (_entries(validate_fusion(cat)), _entries(validate_module(reg)))
    calls = Counter()
    holds = blocks.left_pentagon_holds

    def counting(tables, *labels):
        calls[id(tables), labels] += 1
        return holds(tables, *labels)

    monkeypatch.setattr(blocks, "left_pentagon_holds", counting)
    assert (_entries(validate_fusion(cat)), _entries(validate_module(reg))) == reports
    simples = cat.simples
    assert calls == Counter({(id(reg.tables), (X, Y, Z, i)): 1 for X in simples
                             for Y in simples for Z in simples for i in simples})


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
