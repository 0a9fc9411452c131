import random
import zlib

import pytest

from helpers import (all_categories, bench_gen, fib, gauge_category, gauge_functor, gauge_module,
                     hom_lemma_suite_via_opposite, ising, serre_certificates_dense, vec_z2_omega,
                     vec_z2_triv, vec_over_vec_z2)

from modend import cli, endengine, theorems
from modend.common import OracleMismatch, SerreCertificateFailure, UpsilonMismatch
from modend.fusioncat import validate_fusion
from modend.modcat import (ModuleCategorySpec, internal_hom, opposite_module, regular_module,
                           validate_module)
from modend.modfunct import act_right_functor, identity_functor, validate_functor
from modend.scalarfield import subspace_equal
from modend.theorems import (adjoint_shift_check, hom_lemma_suite, internal_character,
                             nat_m_dim, serre_functor, upsilon_regular)

CATS = all_categories()


@pytest.mark.parametrize("name", sorted(CATS))
def test_nat_yoneda(name):
    spec = CATS[name]
    reg = regular_module(spec)
    for y in spec.simples:
        for z in spec.simples:
            fy = act_right_functor(spec, y, reg)
            fz = act_right_functor(spec, z, reg)
            res = nat_m_dim(fy, fz, "both")
            assert res.dim == (1 if y == z else 0)
            assert res.oracle_agrees


def _suite_nat_pairs(spec) -> list:
    """The pairs ``suite`` runs ``nat --both`` on: ``(id, id)`` and every ``(- x y, - x z)``."""
    reg = regular_module(spec)
    rmul = [act_right_functor(spec, y, reg) for y in spec.simples]
    return [(identity_functor(reg),) * 2] + [(fy, fz) for fy in rmul for fz in rmul]


def test_nat_both_compares_canonical_bases(monkeypatch):
    """The end and the oracle bases are echelon-canonical, so list equality is
    subspace equality on every pair ``suite`` checks, on the corpus and on zn4;
    an oracle basis moved off the end's subspace is an ``OracleMismatch``."""
    zn4 = cli._load_category("zn4", bench_gen().instance(4, 1)["categories"]["zn4"])
    for spec in [*CATS.values(), zn4]:
        for f, g in _suite_nat_pairs(spec):
            end = endengine.solve_end(endengine.build_nat_system(f, g)).basis
            oracle = endengine.solve_end(endengine.nat_oracle_system(f, g)).basis
            assert subspace_equal(end, oracle) and end == oracle, (f.name, g.name)
    idf = _suite_nat_pairs(fib())[0][0]
    solve = endengine.solve_end

    def moved(sys_):
        res = solve(sys_)
        if sys_.recipe == "module-naturality-oracle":
            vec = res.basis[0].copy()
            vec.entries[-1] = vec.entries[-1] + vec.entries[-1]
            res.basis[0] = vec
        return res

    end = solve(endengine.build_nat_system(idf, idf)).basis
    monkeypatch.setattr(endengine, "solve_end", moved)
    assert not subspace_equal(end, endengine.solve_end(endengine.nat_oracle_system(idf, idf)).basis)
    with pytest.raises(OracleMismatch, match="disagree"):
        nat_m_dim(idf, idf, "both")


def test_nat_identity_and_empty():
    spec = vec_z2_triv()
    reg = regular_module(spec)
    idf = identity_functor(reg)
    assert nat_m_dim(idf, idf, "end").dim == 1
    assert nat_m_dim(idf, idf, "oracle").dim == 1
    fe = act_right_functor(spec, "e", reg)
    fs = act_right_functor(spec, "s", reg)
    assert nat_m_dim(fe, fs, "both").dim == 0
    with pytest.raises(ValueError):
        nat_m_dim(idf, idf, "bogus")


@pytest.mark.parametrize("name", sorted(CATS))
def test_serre_is_double_dual_on_regular(name):
    spec = CATS[name]
    reg = regular_module(spec)
    res = serre_functor(reg)
    assert res.label_map() == {i: i for i in spec.simples}
    assert len(res.certificates) == len(spec.simples) ** 3


def test_serre_single_simple_module():
    mod, _, _ = vec_over_vec_z2(vec_z2_triv())
    res = serre_functor(mod)
    assert res.on_simples == {"m": {"m": 1}}


def _certificate_subjects() -> dict:
    """The corpus modules and the regular modules of bench/gen.py zn4, zn6."""
    out = dict(cli.load(cli.bundled_instance_paths()).modules)
    for n in (4, 6):
        cat = cli._load_category(f"zn{n}", bench_gen().instance(n, 1)["categories"][f"zn{n}"])
        out[f"zn{n}_regular"] = regular_module(cat)
    return out


CERTIFICATE_SUBJECTS = _certificate_subjects()


@pytest.mark.parametrize("name", sorted(CERTIFICATE_SUBJECTS))
def test_serre_certificates_match_the_dense_sum(name, monkeypatch):
    """The certificates summed over action sets equal the dense sum over every
    simple, entry for entry and in order.  With one multiplicity raised by 1
    (three seeded ``(i, t)``), ``SerreCertificateFailure`` names the first
    ``(i, j, X)`` where the dense certificates fail."""
    m = CERTIFICATE_SUBJECTS[name]
    res = serre_functor(m)
    assert res.certificates == serre_certificates_dense(m, res.on_simples)
    rng = random.Random(zlib.crc32(f"serre certificates {name}".encode()))
    multiplicities = theorems._multiplicities
    for _ in range(3):
        i, t = rng.choice(m.simples), rng.choice(m.simples)
        on_simples = {k: dict(vec) for k, vec in res.on_simples.items()}
        on_simples[i][t] += 1
        (fi, fj, fX), lhs, rhs = next(cert for cert in serre_certificates_dense(m, on_simples)
                                      if cert[1] != cert[2])

        def perturbed(sys, labels, i=i, t=t):
            vec = multiplicities(sys, labels)
            if sys.meta["input"] != i:
                return vec
            return tuple(v + (p == t) for p, v in zip(labels, vec))

        monkeypatch.setattr(theorems, "_multiplicities", perturbed)
        with pytest.raises(SerreCertificateFailure) as err:
            serre_functor(m)
        assert str(err.value) == (f"uhom duality certificate fails at "
                                  f"(i={fi}, j={fj}, X={fX}): {lhs} != {rhs}"), (name, i, t)


@pytest.mark.parametrize("name", sorted(CATS))
def test_peter_weyl_unit(name):
    spec = CATS[name]
    reg = regular_module(spec)
    idf = identity_functor(reg)
    vec = internal_character(reg, idf)
    assert vec == tuple(1 if s == spec.unit else 0 for s in spec.simples)


def test_peter_weyl_forgetful():
    mod, _, forg = vec_over_vec_z2(vec_z2_triv())
    vec = internal_character(mod, forg)
    assert vec == (1, 1)
    assert vec == internal_hom(mod).mult_vector("m", "m")


@pytest.mark.parametrize("name", sorted(CATS))
def test_upsilon_delta(name):
    spec = CATS[name]
    reg = regular_module(spec)
    for x in spec.simples:
        vec = upsilon_regular(spec, x, reg)
        assert vec == tuple(1 if p == x else 0 for p in spec.simples)


@pytest.mark.parametrize("name", sorted(CATS))
def test_adjoint_shift(name):
    spec = CATS[name]
    reg = regular_module(spec)
    for y in spec.simples:
        res = adjoint_shift_check(spec, y, reg)
        assert res.ok, (name, y, res.lhs, res.rhs)
        if y == spec.unit:
            # F = Id on both sides
            assert res.lhs == res.rhs


def test_object_valued_ends_build_once_per_object(monkeypatch):
    """Each object-valued (co)end is assembled once and read off per label.

    The builders are patched where ``theorems`` calls them: a test that
    re-imports ``modend`` leaves ``sys.modules`` holding another copy."""
    calls = []
    for attr in ("build_character_probe_system", "build_serre_probe_system",
                 "build_upsilon_probe_system"):
        original = getattr(theorems.endengine, attr)
        monkeypatch.setattr(theorems.endengine, attr,
                            lambda *args, _f=original: calls.append(args) or _f(*args))
    spec = CATS["vec_z4"]
    reg = regular_module(spec)
    n = len(reg.simples)

    def built(run):
        calls.clear()
        run()
        return len(calls)

    assert built(lambda: serre_functor(reg)) == n
    assert built(lambda: internal_character(reg, identity_functor(reg))) == 1
    assert built(lambda: upsilon_regular(spec, "1", reg)) == 1
    assert built(lambda: adjoint_shift_check(spec, "1", reg)) == 2


@pytest.mark.parametrize("name", sorted(CATS))
def test_hom_lemma_suite_clean(name):
    reg = regular_module(CATS[name])
    assert hom_lemma_suite(reg).ok


def test_hom_lemma_suite_detects_corruption():
    spec = vec_z2_triv()
    reg = regular_module(spec)
    # corrupt the action table: drop one admissible triple
    action = set(reg.action) - {("s", "s", "e")}
    broken = ModuleCategorySpec(base=spec, simples=reg.simples, action=action,
                                l_symbols={}, name="broken")
    rep = hom_lemma_suite(broken)
    assert not rep.ok
    assert any(e.check.startswith("uhom") for e in rep.entries)
    assert rep.entries == hom_lemma_suite_via_opposite(broken).entries


def _hom_lemma_subjects() -> list:
    """Every bundled module, the regular modules of bench/gen.py zn4 and zn6,
    and the opposite of each."""
    modules = list(cli.load(cli.bundled_instance_paths()).modules.values())
    gen = bench_gen()
    for n in (4, 6):
        cat = cli._load_category(f"zn{n}", gen.instance(n, 1)["categories"][f"zn{n}"])
        modules.append(regular_module(cat))
    return modules + [opposite_module(m) for m in modules]


HOM_LEMMA_SUBJECTS = _hom_lemma_subjects()


def test_hom_lemma_suite_matches_the_opposite_module_route():
    """``uhom-op`` is read off the action table: ``i in X* act m_j`` is
    ``i in X act m_j`` in ``opposite_module(m)``, on every subject above.  Each
    subject passes the gate, the reference's ``uhom-op`` tail finds nothing on
    it, and the sparse sweep gives the reference's whole report."""
    for m in HOM_LEMMA_SUBJECTS:
        op, base = opposite_module(m), m.base
        for X in base.simples:
            for i in m.simples:
                for j in m.simples:
                    assert (i in m.act_set(base.dual[X], j)) == (i in op.act_set(X, j))
        assert validate_module(m).ok, m.name
        want = hom_lemma_suite_via_opposite(m)
        assert not any(e.check == "uhom-op" for e in want.entries), m.name
        rep = hom_lemma_suite(m)
        assert rep.ok and rep == want, m.name


def _triple_mutants(m) -> list:
    """``m`` with one action triple dropped, and with one absent triple added
    (one more simple in an action set, so counts reach 2): every triple, or
    six of each kind seeded by the name on bench/gen.py zn4 and zn6."""
    present = set(m.action)
    absent = [(X, i, j) for X in m.base.simples for i in m.simples for j in m.simples
              if (X, i, j) not in present]
    dropped, added = sorted(present), absent
    if m.name.startswith("zn"):
        rng = random.Random(zlib.crc32(m.name.encode()))
        dropped, added = rng.sample(dropped, 6), rng.sample(added, 6)
    return [ModuleCategorySpec(base=m.base, simples=m.simples, action=action,
                               l_symbols=m.l_raw, unit_scalars=m.unit_scalars,
                               orientation=m.orientation, name=m.name)
            for action in [present - {t} for t in dropped] + [present | {t} for t in added]]


def test_hom_lemma_suite_matches_the_dense_reference_on_mutants():
    """Every subject above with one action triple dropped or added, in both
    orientations (the dropped ones include the action mutants of
    ``tests/test_gate.py``): the sparse sweep fails on each, with the dense
    reference's entries in the same order, and some report holds both checks
    at one tuple, the first before the second."""
    both_at_one_tuple = 0
    for m in HOM_LEMMA_SUBJECTS:
        for mutant in _triple_mutants(m):
            rep = hom_lemma_suite(mutant)
            assert not rep.ok, (m.name, mutant.action ^ set(m.action))
            assert rep.entries == hom_lemma_suite_via_opposite(mutant).entries
            both_at_one_tuple += any(
                (a.check, b.check) == ("uhom-shift-first", "uhom-shift-second")
                and a.location == b.location for a, b in zip(rep.entries, rep.entries[1:]))
    assert both_at_one_tuple


GAUGE_NAMES = ["vec_z2_omega", "vec_z4", "fib", "ising"]


@pytest.mark.parametrize("name", GAUGE_NAMES)
def test_gauge_perturbation_invariance(name):
    """Re-randomizing every 1-dimensional Hom basis scalar changes nothing.

    The category gauge rescales fusion vertices (unit legs pinned), the
    module gauge rescales action vertices, the functor gauge additionally
    mixes image copy bases; every reported dimension and multiplicity vector
    must be identical before and after.
    """
    spec = CATS[name]
    rng = random.Random(99 + len(name))
    reg = regular_module(spec)
    gspec, lam = gauge_category(spec, rng)
    assert validate_fusion(gspec).ok
    greg, mu = gauge_module(reg, gspec, lam, rng)
    assert validate_module(greg).ok
    # functors transported along the same gauges
    pairs = {}
    for y in spec.simples:
        fy = act_right_functor(spec, y, reg)
        gfy = gauge_functor(fy, greg, greg, mu, mu, rng)
        assert validate_functor(gfy).ok
        pairs[y] = (fy, gfy)
    idf = identity_functor(reg)
    gid = gauge_functor(idf, greg, greg, mu, mu, rng)
    assert validate_functor(gid).ok
    pairs["@id"] = (idf, gid)
    for ka, (fa, gfa) in pairs.items():
        for kb, (fb, gfb) in pairs.items():
            assert nat_m_dim(fa, fb, "both").dim == nat_m_dim(gfa, gfb, "both").dim
    # character multiplicity vectors: the functor must land in the canonical
    # regular module, so transport the gauged source onto it
    canon = regular_module(gspec)
    # the canonical regular module of the gauged category carries the base
    # gauge on its action vertices
    mu_canon = {key: lam[key] for key in mu}
    u = gauge_functor(idf, greg, canon, mu, mu_canon, rng)
    assert validate_functor(u).ok
    assert internal_character(reg, idf) == internal_character(greg, u)
    # Serre image vectors and certificates
    assert serre_functor(reg).on_simples == serre_functor(greg).on_simples
    # double-dual and adjoint-shift on the canonically regauged category
    greg_canon = regular_module(gspec)
    for x in spec.simples:
        assert upsilon_regular(spec, x, reg) == upsilon_regular(gspec, x, greg_canon)
        assert adjoint_shift_check(spec, x, reg).ok \
            == adjoint_shift_check(gspec, x, greg_canon).ok


def test_gauge_perturbation_forgetful():
    base = vec_z2_triv()
    mod, reg, forg = vec_over_vec_z2(base)
    rng = random.Random(7)
    gbase, lam = gauge_category(base, rng)
    gmod, mu_m = gauge_module(mod, gbase, lam, rng)
    # the forgetful functor must keep targeting the canonical regular module
    canon = regular_module(gbase)
    mu_canon = {(X, i, j): lam[(X, i, j)] for (X, i, j) in reg.action}
    gforg = gauge_functor(forg, gmod, canon, mu_m, mu_canon, rng)
    assert validate_module(gmod).ok
    assert validate_functor(gforg).ok
    assert internal_character(gmod, gforg) == (1, 1)
    assert serre_functor(gmod).on_simples == {"m": {"m": 1}}


def test_functoriality_basis_images_under_gauge():
    """The induced carrier iso maps the solution basis onto the gauged one."""
    from modend.endengine import build_nat_system, solve_end
    from modend.scalarfield import Matrix, subspace_equal
    spec = CATS["fib"]
    rng = random.Random(321)
    reg = regular_module(spec)
    gspec, lam = gauge_category(spec, rng)
    greg, mu = gauge_module(reg, gspec, lam, rng)
    f = act_right_functor(spec, "tau", reg)
    gf, gauge_f = gauge_functor(f, greg, greg, mu, mu, rng, return_gauge=True)
    sys = build_nat_system(f, f)
    gsys = build_nat_system(gf, gf)
    res = solve_end(sys)
    gres = solve_end(gsys)
    assert res.dim == gres.dim
    # carrier change of coordinates: theta'_k = g_k^{-1} theta_k g_k per block
    total = sys.dim
    carrier_map = Matrix.zeros(spec.field, total, total)
    col = 0
    for block in sys.blocks:
        inv = {k: gauge_f[(block.simple, k)].inverse()
               for k, _, _ in block.basis}
        fwd = {k: gauge_f[(block.simple, k)] for k, _, _ in block.basis}
        for (k, a, b) in block.basis:
            for (k2, a2, b2) in block.basis:
                if k2 != k:
                    continue
                row = block.offset + block.basis.index((k2, a2, b2))
                carrier_map[row, col] = inv[k][b2, b] * fwd[k][a, a2]
        col += 1
    images = [carrier_map * v for v in res.basis]
    assert subspace_equal(images, gres.basis)


def coset_module_over_z4():
    """Group-theoretical module for the subgroup {0, 2} of Z/4."""
    from helpers import vec_z4
    from modend.modcat import ModuleCategorySpec
    c = vec_z4()
    add = lambda g, cc: "c0" if (int(g) + int(cc[1])) % 2 == 0 else "c1"
    action = [(g, cc, add(g, cc)) for g in c.simples for cc in ("c0", "c1")]
    mod = ModuleCategorySpec(base=c, simples=["c0", "c1"], action=action,
                             l_symbols={}, name="z4_cosets")
    return c, mod


def test_coset_module_theorems():
    """A non-regular multi-simple module: Serre, hom lemmas, Peter-Weyl."""
    from modend import blocks
    from modend.modcat import validate_module
    from modend.modfunct import ModuleFunctorSpec
    from modend.scalarfield import Matrix

    c, mod = coset_module_over_z4()
    assert validate_module(mod).ok
    assert hom_lemma_suite(mod).ok
    table = internal_hom(mod)
    assert table.mult_vector("c0", "c0") == (1, 0, 1, 0)     # the group algebra
    res = serre_functor(mod)
    assert res.label_map() == {"c0": "c0", "c1": "c1"}
    idm = identity_functor(mod)
    assert nat_m_dim(idm, idm, "both").dim == 1              # indecomposable
    # free-module functor into the regular module: unit-block coherences
    reg = regular_module(c)
    on_simples = {("c0", "0"): 1, ("c0", "2"): 1, ("c1", "1"): 1, ("c1", "3"): 1}
    probe = ModuleFunctorSpec(mod, reg, on_simples, {}, name="probe")
    c_symbols = {}
    for X in c.simples:
        for i in mod.simples:
            rows = blocks.c_rows(probe, X, i)
            cols = blocks.c_cols(probe, X, i)
            m = Matrix.zeros(c.field, len(rows), len(cols))
            for r, (k, cnt, t) in enumerate(rows):
                for s, (tsrc, k2, cnt2) in enumerate(cols):
                    if t == k2:
                        m[r, s] = c.field.one
            c_symbols[(X, i)] = m
    free = ModuleFunctorSpec(mod, reg, on_simples, c_symbols, name="free")
    assert validate_functor(free).ok
    # the internal character recovers the algebra object of the module
    assert internal_character(mod, free) == (1, 0, 1, 0)
    assert internal_character(mod, free) == table.mult_vector("c0", "c0")


def test_twisted_one_simple_module_theorems():
    """The cochain-twisted one-simple module still satisfies every theorem."""
    from helpers import vec_z2_triv, vec_over_vec_z2
    from modend.modcat import ModuleCategorySpec
    from modend.modfunct import ModuleFunctorSpec
    from modend.scalarfield import Matrix

    base = vec_z2_triv()
    mod0, reg, _ = vec_over_vec_z2(base)
    l = dict(mod0._l)
    key = ("s", "s", "m", "m", "e", "m")
    l[key] = -l[key]
    tw = ModuleCategorySpec(base=base, simples=["m"], action=mod0.action,
                            l_symbols=l, name="vec_twisted")
    assert validate_module(tw).ok and hom_lemma_suite(tw).ok
    assert serre_functor(tw).on_simples == {"m": {"m": 1}}
    idt = identity_functor(tw)
    assert nat_m_dim(idt, idt, "both").dim == 1
    # the underlying-object functor picks up a compensating sign in c_{s,m}
    one, neg, zero = base.field.one, base.field.rational(-1), base.field.zero
    c_symbols = {("e", "m"): Matrix(base.field, 2, 2, [one, zero, zero, one]),
                 ("s", "m"): Matrix(base.field, 2, 2, [zero, one, neg, zero])}
    u = ModuleFunctorSpec(tw, reg, {("m", "e"): 1, ("m", "s"): 1}, c_symbols,
                          name="u_twisted")
    assert validate_functor(u).ok
    assert internal_character(tw, u) == (1, 1)


def test_restricted_ising_module_theorems():
    """Restriction to the pointed part decomposes the regular module."""
    from helpers import ising
    from modend.modcat import restrict_module

    spec = ising()
    reg = regular_module(spec)
    sub = restrict_module(reg, ["1", "psi"])
    assert validate_module(sub).ok and hom_lemma_suite(sub).ok
    assert serre_functor(sub).label_map() == {i: i for i in sub.simples}
    ids = identity_functor(sub)
    # two indecomposable summands: the {1, psi} orbit and the {sigma} orbit
    assert nat_m_dim(ids, ids, "both").dim == 2


def test_multiplicity_two_carrier_nat():
    from helpers import ising
    from modend.modfunct import compose_functors
    spec = ising()
    reg = regular_module(spec)
    fs = act_right_functor(spec, "sigma", reg)
    sq = compose_functors(fs, fs)
    # sq is right multiplication by 1 + psi; End(1 + psi) is 2-dimensional
    assert nat_m_dim(sq, sq, "both").dim == 2
