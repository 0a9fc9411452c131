import pytest

from helpers import (act_right_composite, all_categories, f_mor, fib, gauged_corpus_and_zn,
                     vec_z2_omega, vec_z2_triv, vec_over_vec_z2)

from modend import blocks, cli, theorems
from modend.common import SourceTargetMismatch
from modend.modfunct import (ModuleFunctorSpec, act_right_functor, compose_functors,
                             identity_functor, validate_functor)
from modend.modcat import regular_module
from modend.scalarfield import Matrix

CATS = all_categories()


@pytest.mark.parametrize("name", sorted(CATS))
def test_identity_functor_valid(name):
    reg = regular_module(CATS[name])
    assert validate_functor(identity_functor(reg)).ok


@pytest.mark.parametrize("name", sorted(CATS))
def test_act_right_functors_valid(name):
    spec = CATS[name]
    reg = regular_module(spec)
    for y in spec.simples:
        f = act_right_functor(spec, y, reg)
        assert validate_functor(f).ok
        for i in spec.simples:
            assert {k: f.mult(i, k) for k in spec.simples} == {
                k: 1 if k in spec.fuse(i, y) else 0 for k in spec.simples}


def test_act_right_on_twisted_z2_solves_coherence():
    spec = vec_z2_omega()
    reg = regular_module(spec)
    f = act_right_functor(spec, "s", reg)
    # the single c entry at (s, s) is the associator entry F[s,s,s;s] = -1
    blk = f.c_symbols[("s", "s")]
    assert blk.rows == blk.cols == 1
    assert blk[0, 0] == spec.field.rational(-1)
    assert validate_functor(f).ok


def test_act_right_blocks_match_the_associator_composite():
    """Each c-block read off the F-symbols equals the matrix of ``assoc(reg, X, i, y)``."""
    for name, spec in gauged_corpus_and_zn().items():
        reg = regular_module(spec)
        for y in spec.simples:
            closed = act_right_functor(spec, y, reg).c_symbols
            assert closed == act_right_composite(spec, y, reg), (name, y)
    # fib's tau at X = tau: rows (1,0,tau), (tau,0,1), (tau,0,tau), one 2 x 2 F-block at tau
    spec = fib()
    reg = regular_module(spec)
    blk = act_right_functor(spec, "tau", reg).c_symbols[("tau", "tau")]
    assert (blk.rows, blk.cols) == (3, 3)
    assert blk == act_right_composite(spec, "tau", reg)[("tau", "tau")]


def test_label_swap_on_trivial_z2():
    spec = vec_z2_triv()
    reg = regular_module(spec)
    f = act_right_functor(spec, "s", reg)
    assert (f.mult("e", "e"), f.mult("e", "s")) == (0, 1)
    assert (f.mult("s", "e"), f.mult("s", "s")) == (1, 0)
    for key, blk in f.c_symbols.items():
        for e in blk.entries:
            assert e in (spec.field.zero, spec.field.one)


def test_forgetful_functor_valid():
    _, _, forg = vec_over_vec_z2(vec_z2_triv())
    assert validate_functor(forg).ok
    assert (forg.mult("m", "e"), forg.mult("m", "s")) == (1, 1)


def test_broken_c_entry_located():
    spec = fib()
    reg = regular_module(spec)
    f = identity_functor(reg)
    bad = dict(f.c_symbols)
    blk = bad[("tau", "tau")].copy()
    blk[0, 0] = -blk[0, 0]
    bad[("tau", "tau")] = blk
    broken = ModuleFunctorSpec(reg, reg, dict(f.on_simples), bad, name="id_bad")
    rep = validate_functor(broken)
    assert not rep.ok
    assert any(e.check == "coherence" for e in rep.entries)


def test_off_schur_c_entry_reported():
    """A c-block entry between different simples is a report entry, not a crash."""
    _, _, forg = vec_over_vec_z2(vec_z2_triv())
    bad = dict(forg.c_symbols)
    blk = bad[("e", "m")].copy()
    blk[0, 1] = forg.field.one       # row (e, 0, e), column (m, s, 0)
    bad[("e", "m")] = blk
    broken = ModuleFunctorSpec(forg.src, forg.dst, dict(forg.on_simples), bad,
                               name="forgetful_bad")
    rep = validate_functor(broken)
    assert [(e.check, e.location) for e in rep.entries] == [("c-block-schur", ("e", "m"))]


def test_compose_squares_fusion_matrix():
    spec = fib()
    reg = regular_module(spec)
    ftau = act_right_functor(spec, "tau", reg)
    sq = compose_functors(ftau, ftau)
    assert validate_functor(sq).ok
    # N_tau squared: [[1,1],[1,2]]
    assert sq.mult("1", "1") == 1 and sq.mult("1", "tau") == 1
    assert sq.mult("tau", "1") == 1 and sq.mult("tau", "tau") == 2


def test_compose_involution_on_z2():
    spec = vec_z2_triv()
    reg = regular_module(spec)
    fs = act_right_functor(spec, "s", reg)
    sq = compose_functors(fs, fs)
    assert validate_functor(sq).ok
    assert sq.on_simples == {("e", "e"): 1, ("s", "s"): 1}


def test_compose_with_identity_is_pointwise_equal():
    spec = vec_z2_omega()
    reg = regular_module(spec)
    fs = act_right_functor(spec, "s", reg)
    idf = identity_functor(reg)
    comp = compose_functors(fs, idf)
    assert comp.on_simples == fs.on_simples
    for key in fs.c_symbols:
        assert comp.c_symbols[key] == fs.c_symbols[key]


def test_source_target_mismatch():
    mod, reg, _ = vec_over_vec_z2(vec_z2_triv())
    id_mod = identity_functor(mod)
    id_reg = identity_functor(reg)
    with pytest.raises(SourceTargetMismatch):
        compose_functors(id_mod, id_reg)


def test_composition_associative_up_to_invertible_natural_element():
    from helpers import ising
    from modend.theorems import nat_m_dim
    spec = ising()
    reg = regular_module(spec)
    f = act_right_functor(spec, "sigma", reg)
    g = act_right_functor(spec, "psi", reg)
    h = act_right_functor(spec, "sigma", reg)
    left = compose_functors(f, compose_functors(g, h))
    right = compose_functors(compose_functors(f, g), h)
    assert left.on_simples == right.on_simples
    res = nat_m_dim(left, right, "both")
    assert res.dim >= 1
    # exhibit an explicit invertible element of the solution space
    from modend.endengine import build_nat_system
    from modend.scalarfield import Matrix
    sys = build_nat_system(left, right)

    def blockwise_invertible(vec):
        pos = 0
        for block in sys.blocks:
            per_k = {}
            for (k, a, b) in block.basis:
                per_k.setdefault(k, {})[(b, a)] = vec[pos, 0]
                pos += 1
            for k, entries in per_k.items():
                n = left.mult(block.simple, k)
                m = Matrix.zeros(spec.field, n, n)
                for (b, a), val in entries.items():
                    m[b, a] = val
                try:
                    m.inverse()
                except ArithmeticError:
                    return False
        return True

    candidates = list(res.end_basis)
    if len(res.end_basis) > 1:
        acc = res.end_basis[0]
        for other in res.end_basis[1:]:
            acc = acc + other
        candidates.append(acc)
    assert any(blockwise_invertible(v) for v in candidates)


def compose_functors_composite(g, f):
    """``c^GF`` read off the whole-object composite ``c^G_{X, F(m_i)} G(c^F_{X, m_i})``.

    The nested bases of that composite are reindexed into the flattened
    canonical row and column orders of ``compose_functors``.
    """
    mid = f.dst

    def copy_order(i, k2):
        return [(k, alpha, beta) for k in mid.simples for alpha in range(f.mult(i, k))
                for beta in range(g.mult(k, k2))]

    c_symbols = {}
    bt = f.src.base
    for X in f.src.base.simples:
        sx = blocks._simple(bt, X)
        for i in f.src.simples:
            mi = blocks._simple(bt, i)
            fmi = blocks.f_obj(f, mi)
            e = blocks.c_mor(g, sx, fmi) * f_mor(g, blocks.c_mor(f, sx, mi))
            src_inner = blocks.act_c(f.src, sx, mi)             # X act m_i
            f_of_src = blocks.f_obj(f, src_inner)
            nested_src = blocks.f_obj(g, f_of_src)              # e.src
            gfm = blocks.f_obj(g, fmi)
            nested_dst = blocks.act_c(g.dst, sx, gfm)
            col_map = []                                        # (t_src, k2, copy)
            for ip, t_src in enumerate(src_inner.labels):
                for k2 in g.dst.simples:
                    for (k, alpha, beta) in copy_order(t_src, k2):
                        apos = f_of_src.index[(ip, k, alpha)]
                        col_map.append(nested_src.index[(apos, k2, beta)])
            row_map = []                                        # (k2, copy, t)
            for k2 in g.dst.simples:
                for (k, alpha, beta) in copy_order(i, k2):
                    gpos = gfm.index[(fmi.index[(0, k, alpha)], k2, beta)]
                    for t in g.dst.act_set(X, k2):
                        row_map.append(nested_dst.index[(0, gpos, t)])
            mat = Matrix.zeros(f.field, len(row_map), len(col_map))
            for r, rp in enumerate(row_map):
                for c, cp in enumerate(col_map):
                    mat[r, c] = e.mat[rp, cp]
            c_symbols[(X, i)] = mat
    return c_symbols


def _composite_pairs():
    out = {}
    for name in ("ising", "vec_z4"):
        spec = CATS[name]
        reg = regular_module(spec)
        rmul = {y: act_right_functor(spec, y, reg) for y in spec.simples}
        out.update({f"{name}:{y}*{z}": (rmul[y], rmul[z])
                    for y in spec.simples for z in spec.simples})
    spec = fib()
    tau = act_right_functor(spec, "tau", regular_module(spec))
    out["fib:tau*tau"] = (tau, tau)
    # F(tau) and G(tau) hold m_tau twice
    tau2 = compose_functors(tau, tau)
    out["fib:tau*(tau*tau)"] = (tau, tau2)
    out["fib:(tau*tau)*tau"] = (tau2, tau)
    mod, reg, forgetful = vec_over_vec_z2(vec_z2_triv())
    out["forgetful*id"] = (forgetful, identity_functor(mod))
    out["id*forgetful"] = (identity_functor(reg), forgetful)
    return out


COMPOSITE_PAIRS = _composite_pairs()


@pytest.mark.parametrize("name", sorted(COMPOSITE_PAIRS))
def test_composed_c_blocks_match_the_composite(name):
    g, f = COMPOSITE_PAIRS[name]
    closed = compose_functors(g, f)
    assert closed.c_symbols == compose_functors_composite(g, f), name
    assert validate_functor(closed).ok, name


def test_calls_without_reg_share_the_bundles_regular_module():
    """``regular_module`` keeps one spec per category, so functors built
    without ``reg`` and the bundle's functors on the loaded regular module
    compose, pair and take characters with each other."""
    bundle = cli.load(cli.bundled_instance_paths())
    spec = bundle.category("fib")
    assert regular_module(spec) is regular_module(spec) is bundle.module("fib_regular")
    tau = act_right_functor(spec, "tau")
    assert compose_functors(tau, act_right_functor(spec, "tau")).name == "rmul_fib_tau*rmul_fib_tau"
    identity = bundle.functor("id_fib_regular")
    assert theorems.nat_m_dim(act_right_functor(spec, "1"), identity, "both").dim == 1
    assert theorems.internal_character(regular_module(spec), identity) == (1, 0)
