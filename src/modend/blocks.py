"""Block-matrix calculus for skeletal semisimple module categories.

Duality, internal homs and the end engine reduce to finite compositions of
structure morphisms between direct sums of simple objects.  This module fixes
one concrete additive skeleton and provides those compositions as exact
matrices.  The validators do not compose morphisms: the coherence predicates
at the end of this module evaluate each axiom on the symbol tables.

Conventions
-----------
* An :class:`Obj` is an ordered list of summands ``(simple_label, key)``.  The
  keys are structural bookkeeping that make summand positions addressable; two
  objects are interchangeable only if labels and keys agree.
* A :class:`Mor` is a matrix between the summand bases, row index = target
  summand, column index = source summand.  Entries between summands with
  different simple labels must vanish (Schur).
* Decomposition maps of ``X acted on N`` etc. are the canonical inclusions and
  projections of the flat sum; all nontrivial coherence data lives in the
  associator blocks (F-symbols of the base, L-symbols of a module) and in the
  duality scalars.
* ``assoc(A, B, N)`` realizes ``(A x B) act N -> A act (B act N)``; its block
  at simple slots ``(a, b, p)`` with target ``t`` is the L-matrix
  ``rows j in b act p, cols z in a x b``.
* The base acting on itself is the regular module (``BaseTables.regular``),
  whose L-symbols are the F-symbols: ``ctensor``, ``ctensor_mor`` and
  ``c_assoc`` are its ``act_c``, ``act_mor``/``whisker_c`` and ``assoc``.
* The unit constraints of the base are the canonical projections (scalar 1);
  module unit maps carry the module's unit scalars.
* Right duals pair as ``ev(a): a* x a -> 1`` with scalar ``ev[a]``, right
  coevaluation ``coev(a): 1 -> a x a*``; left duals pair as
  ``lev(a): a x *a -> 1`` and ``lcoev(a): 1 -> *a x a``.  Flat duals of sums
  dualize labels summand-wise and pair diagonally.  Because both zig-zags of
  each chirality are verified, the dual of a morphism is its matrix transpose
  and ``(A x B)* -> B* x A*`` is monomial, with one closed-form scalar in F,
  ``ev`` and ``lev`` per summand (``phi_r``, ``phi_l``).
* Object constructors and the structure morphisms that depend on objects
  alone are cached on the tables object they take, for the life of that
  object; callers share the returned :class:`Obj` and :class:`Mor` values and
  must not write into them.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Callable, Sequence

from .scalarfield import DimensionMismatch, FieldSpec, Matrix


class Obj:
    """Formal direct sum of simples with positionally addressable summands."""

    __slots__ = ("labels", "keys", "index", "_hash")

    def __init__(self, labels: tuple, keys: tuple):
        self.labels = labels
        self.keys = keys
        self.index = {k: i for i, k in enumerate(keys)}
        if len(self.index) != len(keys):
            raise ValueError("summand keys must be unique")
        self._hash = None

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return self is other or (isinstance(other, Obj) and self.labels == other.labels
                                 and self.keys == other.keys)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.labels, self.keys))
        return self._hash

    def __repr__(self):
        return f"Obj[{', '.join(self.labels)}]"

    def positions(self, label: str) -> list:
        return [i for i, lab in enumerate(self.labels) if lab == label]


def simple_obj(label: str) -> Obj:
    return Obj((label,), ((),))


class Mor:
    """Morphism between two :class:`Obj` as an exact matrix."""

    __slots__ = ("src", "dst", "mat")

    def __init__(self, src: Obj, dst: Obj, mat: Matrix):
        if mat.rows != len(dst.labels) or mat.cols != len(src.labels):
            raise DimensionMismatch("matrix shape does not match objects")
        self.src = src
        self.dst = dst
        self.mat = mat

    @classmethod
    def identity(cls, field: FieldSpec, obj: Obj) -> "Mor":
        return cls(obj, obj, Matrix.identity(field, len(obj)))

    def __mul__(self, other: "Mor") -> "Mor":
        """Composition ``self after other``."""
        if other.dst is not self.src and other.dst != self.src:
            raise DimensionMismatch("composition mismatch")
        return Mor(other.src, self.dst, self.mat * other.mat)

    def __add__(self, other: "Mor") -> "Mor":
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch("sum of morphisms with different ends")
        return Mor(self.src, self.dst, self.mat + other.mat)

    def __sub__(self, other: "Mor") -> "Mor":
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch("difference of morphisms with different ends")
        return Mor(self.src, self.dst, self.mat - other.mat)

    def inverse(self) -> "Mor":
        return Mor(self.dst, self.src, self.mat.inverse())

    def __eq__(self, other):
        return (isinstance(other, Mor) and self.src == other.src
                and self.dst == other.dst and self.mat == other.mat)

    def __repr__(self):
        return f"Mor({self.src!r} -> {self.dst!r})"


class BaseTables:
    """Fusion data of the base category together with duality scalars."""

    def __init__(self, field: FieldSpec, simples: Sequence[str], unit: str,
                 dual: dict, fuse_map: dict, f_entry: Callable):
        self.field = field
        self.simples = tuple(simples)
        self.unit = unit
        self.dual = dict(dual)
        self._fuse = fuse_map
        self._f_entry = f_entry
        # duality scalars, installed once by ``fusioncat.compute_duality``
        self.ev = self.coev = self.lev = self.lcoev = MappingProxyType({})
        self._fblock_cache = {}
        self._memo = {}
        self._reg = None

    def fuse(self, a: str, b: str) -> tuple:
        return self._fuse.get((a, b), ())

    def n(self, a: str, b: str, c: str) -> bool:
        return c in self._fuse.get((a, b), ())

    def f_block(self, a: str, b: str, c: str, t: str):
        """F-matrix of ``a,b,c`` at total ``t``: rows over f, cols over e."""
        key = (a, b, c, t)
        blk = self._fblock_cache.get(key)
        if blk is None:
            f_list = [f for f in self.fuse(b, c) if self.n(a, f, t)]
            e_list = [e for e in self.fuse(a, b) if self.n(e, c, t)]
            mat = Matrix.zeros(self.field, len(f_list), len(e_list))
            for i, f in enumerate(f_list):
                for j, e in enumerate(e_list):
                    mat[i, j] = self._f_entry(a, b, c, t, e, f)
            blk = (f_list, e_list, mat)
            self._fblock_cache[key] = blk
        return blk

    def regular(self) -> "ModuleTables":
        if self._reg is None:
            self._reg = ModuleTables(
                base=self,
                simples=self.simples,
                act_map={(a, b): self.fuse(a, b) for a in self.simples for b in self.simples},
                l_entry=lambda X, Y, i, j, Z, t: self._f_entry(X, Y, i, t, Z, j),
                unit_scalars={a: self.field.one for a in self.simples},
            )
        return self._reg


class ModuleTables:
    """Skeletal data of a left module category over a :class:`BaseTables`."""

    def __init__(self, base: BaseTables, simples: Sequence[str], act_map: dict,
                 l_entry: Callable, unit_scalars: dict):
        self.base = base
        self.field = base.field
        self.simples = tuple(simples)
        self._act = act_map
        self._l_entry = l_entry
        self._units = unit_scalars
        self._lblock_cache = {}
        self._cache = {}
        self._memo = {}

    def act_set(self, X: str, i: str) -> tuple:
        return self._act.get((X, i), ())

    def n(self, X: str, i: str, j: str) -> bool:
        return j in self._act.get((X, i), ())

    def unit_scalar(self, i: str):
        return self._units[i]

    def l_block(self, X: str, Y: str, i: str, t: str):
        """Associator block of ``(X x Y) act m_i`` at target ``t``.

        Rows run over ``j in Y act m_i`` with ``t in X act m_j``, columns over
        ``z in X x Y`` with ``t in z act m_i``.
        """
        key = (X, Y, i, t)
        blk = self._lblock_cache.get(key)
        if blk is None:
            j_list = [j for j in self.act_set(Y, i) if self.n(X, j, t)]
            z_list = [z for z in self.base.fuse(X, Y) if self.n(z, i, t)]
            mat = Matrix.zeros(self.field, len(j_list), len(z_list))
            for r, j in enumerate(j_list):
                for c, z in enumerate(z_list):
                    mat[r, c] = self._l_entry(X, Y, i, j, z, t)
            blk = (j_list, z_list, mat)
            self._lblock_cache[key] = blk
        return blk


class RightTables:
    """Skeletal data of a right module category."""

    def __init__(self, base: BaseTables, simples: Sequence[str], ract_map: dict,
                 rl_entry: Callable, runit_scalars: dict):
        self.base = base
        self.field = base.field
        self.simples = tuple(simples)
        self._ract = ract_map
        self._rl_entry = rl_entry
        self._units = runit_scalars
        self._block_cache = {}
        self._memo = {}

    def ract_set(self, i: str, X: str) -> tuple:
        return self._ract.get((i, X), ())

    def n(self, i: str, X: str, j: str) -> bool:
        return j in self._ract.get((i, X), ())

    def runit_scalar(self, i: str):
        return self._units[i]

    def rl_block(self, i: str, X: str, Y: str, t: str):
        """Block of ``m_i ract (X x Y) -> (m_i ract X) ract Y`` at target ``t``.

        Rows over ``j in m_i ract X`` with ``t in m_j ract Y``, columns over
        ``z in X x Y`` with ``t in m_i ract z``.
        """
        key = (i, X, Y, t)
        blk = self._block_cache.get(key)
        if blk is None:
            j_list = [j for j in self.ract_set(i, X) if self.n(j, Y, t)]
            z_list = [z for z in self.base.fuse(X, Y) if self.n(i, z, t)]
            mat = Matrix.zeros(self.field, len(j_list), len(z_list))
            for r, j in enumerate(j_list):
                for c, z in enumerate(z_list):
                    mat[r, c] = self._rl_entry(i, X, Y, j, z, t)
            blk = (j_list, z_list, mat)
            self._block_cache[key] = blk
        return blk


# ---------------------------------------------------------------------------
# object constructors


def _memoized(fn):
    """Cache ``fn(tables, *args)`` in ``tables._memo`` under ``(fn name, args)``.

    Object constructors are hash-consed this way: equal arguments on one
    tables object give the same :class:`Obj`.  The duality scalars a pairing
    reads are installed once, before any pairing is built, so they need no
    place in the key.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def cached(tables, *args):
        key = (name, args)
        memo = tables._memo
        out = memo.get(key)
        if out is None:
            out = memo[key] = fn(tables, *args)
        return out
    return cached


@_memoized
def _simple(base: BaseTables, label: str) -> Obj:
    """``simple_obj(label)``, one shared object per base category.

    Callers that hold the base tables take their simple objects from here, so
    the memo lookups keyed by them hit by identity.
    """
    return simple_obj(label)


def cunit(base: BaseTables) -> Obj:
    return _simple(base, base.unit)


@_memoized
def act_c(tables: ModuleTables, A: Obj, N: Obj) -> Obj:
    labels, keys = [], []
    for ia, a in enumerate(A.labels):
        for ip, p in enumerate(N.labels):
            for t in tables.act_set(a, p):
                labels.append(t)
                keys.append((ia, ip, t))
    return Obj(tuple(labels), tuple(keys))


@_memoized
def ctensor(base: BaseTables, A: Obj, B: Obj) -> Obj:
    """``A x B``: the regular module's action of ``A`` on ``B``."""
    return act_c(base.regular(), A, B)


@_memoized
def ract_c(tables: RightTables, N: Obj, A: Obj) -> Obj:
    labels, keys = [], []
    for ip, p in enumerate(N.labels):
        for ia, a in enumerate(A.labels):
            for t in tables.ract_set(p, a):
                labels.append(t)
                keys.append((ip, ia, t))
    return Obj(tuple(labels), tuple(keys))


@_memoized
def rdual_flat(base: BaseTables, A: Obj) -> Obj:
    return Obj(tuple(base.dual[a] for a in A.labels), A.keys)


ldual_flat = rdual_flat  # one involution serves both duals at label level


# ---------------------------------------------------------------------------
# structural morphisms of a left module


def whisker_c(tables: ModuleTables, A: Obj, f: Mor) -> Mor:
    """``id_A  act  f``."""
    src = act_c(tables, A, f.src)
    dst = act_c(tables, A, f.dst)
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


def act_mor(tables: ModuleTables, g: Mor, N: Obj) -> Mor:
    """``g act id_N`` for a base-category morphism ``g``."""
    src = act_c(tables, g.src, N)
    dst = act_c(tables, g.dst, N)
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


def assoc(tables: ModuleTables, A: Obj, B: Obj, N: Obj) -> Mor:
    """``(A x B) act N -> A act (B act N)`` assembled from L-blocks."""
    key = ("assoc", A, B, N)
    cached = tables._cache.get(key)
    if cached is not None:
        return cached
    ab = ctensor(tables.base, A, B)
    src = act_c(tables, ab, N)
    inner = act_c(tables, B, N)
    dst = act_c(tables, A, inner)
    mat = Matrix.zeros(tables.field, len(dst), len(src))
    for ia, a in enumerate(A.labels):
        for ib, b in enumerate(B.labels):
            for ip, p in enumerate(N.labels):
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
                            sp = src.index[(ab.index[(ia, ib, z)], ip, t)]
                            dp = dst.index[(ia, inner.index[(ib, ip, j)], t)]
                            mat[dp, sp] = val
    out = Mor(src, dst, mat)
    tables._cache[key] = out
    return out


def assoc_inv(tables: ModuleTables, A: Obj, B: Obj, N: Obj) -> Mor:
    key = ("assoc_inv", A, B, N)
    cached = tables._cache.get(key)
    if cached is None:
        cached = assoc(tables, A, B, N).inverse()
        tables._cache[key] = cached
    return cached


@_memoized
def unit_l(tables: ModuleTables, N: Obj) -> Mor:
    """``1 act N -> N`` carrying the module's unit scalars."""
    src = act_c(tables, cunit(tables.base), N)
    mat = Matrix.zeros(tables.field, len(N), len(src))
    for ip, p in enumerate(N.labels):
        mat[ip, src.index[(0, ip, p)]] = tables.unit_scalar(p)
    return Mor(src, N, mat)


@_memoized
def unit_l_inv(tables: ModuleTables, N: Obj) -> Mor:
    src = act_c(tables, cunit(tables.base), N)
    mat = Matrix.zeros(tables.field, len(src), len(N))
    for ip, p in enumerate(N.labels):
        mat[src.index[(0, ip, p)], ip] = tables.unit_scalar(p).inverse()
    return Mor(N, src, mat)


@_memoized
def runit_reg(base: BaseTables, A: Obj) -> Mor:
    """``A x 1 -> A`` in the regular module (canonical projections)."""
    reg = base.regular()
    src = act_c(reg, A, cunit(base))
    mat = Matrix.zeros(base.field, len(A), len(src))
    for ia, a in enumerate(A.labels):
        mat[ia, src.index[(ia, 0, a)]] = base.field.one
    return Mor(src, A, mat)


@_memoized
def runit_reg_inv(base: BaseTables, A: Obj) -> Mor:
    reg = base.regular()
    src = act_c(reg, A, cunit(base))
    mat = Matrix.zeros(base.field, len(src), len(A))
    for ia, a in enumerate(A.labels):
        mat[src.index[(ia, 0, a)], ia] = base.field.one
    return Mor(A, src, mat)


# ---------------------------------------------------------------------------
# structural morphisms of a right module


def ract_mor(tables: RightTables, N: Obj, g: Mor) -> Mor:
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
                for t in tables.ract_set(p, a):
                    mat[dst.index[(ip, ib, t)], src.index[(ip, ia, t)]] = val
    return Mor(src, dst, mat)


def rassoc(tables: RightTables, N: Obj, A: Obj, B: Obj) -> Mor:
    """``N ract (A x B) -> (N ract A) ract B``."""
    ab = ctensor(tables.base, A, B)
    src = ract_c(tables, N, ab)
    inner = ract_c(tables, N, A)
    dst = ract_c(tables, inner, B)
    mat = Matrix.zeros(tables.field, len(dst), len(src))
    for ip, p in enumerate(N.labels):
        for ia, a in enumerate(A.labels):
            for ib, b in enumerate(B.labels):
                targets = set()
                for z in tables.base.fuse(a, b):
                    targets.update(tables.ract_set(p, z))
                for t in targets:
                    j_list, z_list, blk = tables.rl_block(p, a, b, t)
                    for r, j in enumerate(j_list):
                        for c, z in enumerate(z_list):
                            val = blk[r, c]
                            if not val:
                                continue
                            sp = src.index[(ip, ab.index[(ia, ib, z)], t)]
                            dp = dst.index[(inner.index[(ip, ia, j)], ib, t)]
                            mat[dp, sp] = val
    return Mor(src, dst, mat)


# ---------------------------------------------------------------------------
# duality on the base category


def _diagonal(base: BaseTables, pairs: Obj, A: Obj, scalars) -> Matrix:
    """Column over ``pairs`` with ``scalars[a]`` at each diagonal summand ``(ia, ia, 1)``."""
    mat = Matrix.zeros(base.field, len(pairs), 1)
    for ia, a in enumerate(A.labels):
        mat[pairs.index[(ia, ia, base.unit)], 0] = scalars[a]
    return mat


@_memoized
def ev_flat(base: BaseTables, A: Obj) -> Mor:
    """``A* x A -> 1`` pairing matching summands with the right-dual scalars."""
    src = ctensor(base, rdual_flat(base, A), A)
    return Mor(src, cunit(base), _diagonal(base, src, A, base.ev).transpose())


@_memoized
def coev_flat(base: BaseTables, A: Obj) -> Mor:
    """``1 -> A x A*``."""
    dst = ctensor(base, A, rdual_flat(base, A))
    return Mor(cunit(base), dst, _diagonal(base, dst, A, base.coev))


@_memoized
def lev_flat(base: BaseTables, A: Obj) -> Mor:
    """``A x *A -> 1``."""
    src = ctensor(base, A, ldual_flat(base, A))
    return Mor(src, cunit(base), _diagonal(base, src, A, base.lev).transpose())


@_memoized
def lcoev_flat(base: BaseTables, A: Obj) -> Mor:
    """``1 -> *A x A``."""
    dst = ctensor(base, ldual_flat(base, A), A)
    return Mor(cunit(base), dst, _diagonal(base, dst, A, base.lcoev))


def eps_flat(tables: ModuleTables, A: Obj, N: Obj) -> Mor:
    """``A* act (A act N) -> N``: right-dual evaluation acting on a module."""
    da = rdual_flat(tables.base, A)
    step1 = assoc_inv(tables, da, A, N)        # A* act (A act N) -> (A* x A) act N
    step2 = act_mor(tables, ev_flat(tables.base, A), N)
    step3 = unit_l(tables, N)
    return step3 * step2 * step1


def zeta_flat(tables: ModuleTables, A: Obj, N: Obj) -> Mor:
    """``A act (*A act N) -> N``: left-dual evaluation acting on a module."""
    da = ldual_flat(tables.base, A)
    step1 = assoc_inv(tables, A, da, N)
    step2 = act_mor(tables, lev_flat(tables.base, A), N)
    step3 = unit_l(tables, N)
    return step3 * step2 * step1


def coev_insert(tables: ModuleTables, A: Obj, N: Obj) -> Mor:
    """``N -> A act (A* act N)`` via the right coevaluation."""
    da = rdual_flat(tables.base, A)
    step1 = unit_l_inv(tables, N)
    step2 = act_mor(tables, coev_flat(tables.base, A), N)
    step3 = assoc(tables, A, da, N)
    return step3 * step2 * step1


def lcoev_insert(tables: ModuleTables, A: Obj, N: Obj) -> Mor:
    """``N -> *A act (A act N)`` via the left coevaluation."""
    da = ldual_flat(tables.base, A)
    step1 = unit_l_inv(tables, N)
    step2 = act_mor(tables, lcoev_flat(tables.base, A), N)
    step3 = assoc(tables, da, A, N)
    return step3 * step2 * step1


def rdual_mor(base: BaseTables, g: Mor) -> Mor:
    """Right-dual transpose ``g*: B* -> A*`` of ``g: A -> B``: the matrix transpose."""
    return Mor(rdual_flat(base, g.dst), rdual_flat(base, g.src), g.mat.transpose())


ldual_mor = rdual_mor  # the left zig-zags are the identity as well


def _dual_tensor_iso(base: BaseTables, A1: Obj, A2: Obj, scalar: Callable) -> Mor:
    """Monomial iso ``(A1 x A2)* -> A2* x A1*``: summand ``(ia, ib, z)`` goes to
    ``(ib, ia, z*)`` times ``scalar(a, b, z)``, where ``a, b`` label ``A1[ia], A2[ib]``."""
    V = ctensor(base, A1, A2)
    src = rdual_flat(base, V)
    dst = ctensor(base, rdual_flat(base, A2), rdual_flat(base, A1))
    mat = Matrix.zeros(base.field, len(dst), len(src))
    for col, (ia, ib, z) in enumerate(V.keys):
        mat[dst.index[(ib, ia, base.dual[z])], col] = scalar(A1.labels[ia], A2.labels[ib], z)
    return Mor(src, dst, mat)


def phi_r(base: BaseTables, A1: Obj, A2: Obj) -> Mor:
    """Canonical iso ``(A1 x A2)* -> A2* x A1*`` between two right duals.

    At ``z in a x b``: ``F(b,b*,a*; a*; 1,z*) ev[z] / (F(a,b,z*; 1; z,a*) lev[z*])``.
    """
    F, d, one = base._f_entry, base.dual, base.unit
    return _dual_tensor_iso(base, A1, A2, lambda a, b, z: (
        F(b, d[b], d[a], d[a], one, d[z]) * base.ev[z]
        / (F(a, b, d[z], one, z, d[a]) * base.lev[d[z]])))


def phi_l(base: BaseTables, A1: Obj, A2: Obj) -> Mor:
    """Canonical iso ``*(A1 x A2) -> *A2 x *A1`` between two left duals.

    At ``z in a x b``: ``F(b*,b,z*; z*; 1,a*) F(a*,a,a*; a*; 1,1) lev[z] / F(a,b,z*; 1; z,a*)``.
    """
    F, d, one = base._f_entry, base.dual, base.unit
    return _dual_tensor_iso(base, A1, A2, lambda a, b, z: (
        F(d[b], b, d[z], d[z], one, d[a]) * F(d[a], a, d[a], d[a], one, one) * base.lev[z]
        / F(a, b, d[z], one, z, d[a])))


# ---------------------------------------------------------------------------
# module functors


class FunctorTables:
    """On-simples multiplicities and coherence blocks of a module functor."""

    def __init__(self, src: ModuleTables, dst: ModuleTables, mult: dict,
                 c_block_fn: Callable):
        self.src = src
        self.dst = dst
        self.field = src.field
        self._mult = mult
        self._c_block_fn = c_block_fn
        self._cache = {}
        self._memo = {}

    def mult(self, i: str, k: str) -> int:
        return self._mult.get((i, k), 0)

    def c_block(self, X: str, i: str) -> Matrix:
        """Matrix of ``c_{X, m_i}`` in the canonical row/column orders."""
        key = (X, i)
        blk = self._cache.get(key)
        if blk is None:
            blk = self._c_block_fn(X, i)
            self._cache[key] = blk
        return blk


def c_rows(ft: FunctorTables, X: str, i: str) -> list:
    """Summand order of ``X act F(m_i)``: triples ``(k, copy, t)``."""
    rows = []
    for k in ft.dst.simples:
        for cnt in range(ft.mult(i, k)):
            for t in ft.dst.act_set(X, k):
                rows.append((k, cnt, t))
    return rows


def c_cols(ft: FunctorTables, X: str, i: str) -> list:
    """Summand order of ``F(X act m_i)``: triples ``(t_src, k, copy)``."""
    cols = []
    for t in ft.src.act_set(X, i):
        for k in ft.dst.simples:
            for cnt in range(ft.mult(t, k)):
                cols.append((t, k, cnt))
    return cols


@_memoized
def f_obj(ft: FunctorTables, N: Obj) -> Obj:
    labels, keys = [], []
    for ip, p in enumerate(N.labels):
        for k in ft.dst.simples:
            for cnt in range(ft.mult(p, k)):
                labels.append(k)
                keys.append((ip, k, cnt))
    return Obj(tuple(labels), tuple(keys))


def f_mor(ft: FunctorTables, f: Mor) -> Mor:
    """Multiplicity inflation of a module morphism under the functor."""
    src = f_obj(ft, f.src)
    dst = f_obj(ft, f.dst)
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


def c_mor(ft: FunctorTables, A: Obj, N: Obj) -> Mor:
    """Coherence ``F(A act N) -> A act F(N)`` assembled from simple blocks."""
    key = ("c_mor", A, N)
    cached = ft._cache.get(key)
    if cached is not None:
        return cached
    src_inner = act_c(ft.src, A, N)
    src = f_obj(ft, src_inner)
    fn = f_obj(ft, N)
    dst = act_c(ft.dst, A, fn)
    mat = Matrix.zeros(ft.field, len(dst), len(src))
    for ia, a in enumerate(A.labels):
        for ip, p in enumerate(N.labels):
            blk = ft.c_block(a, p)
            rows = c_rows(ft, a, p)
            cols = c_cols(ft, a, p)
            for r, (k, cnt, t) in enumerate(rows):
                dpos = dst.index[(ia, fn.index[(ip, k, cnt)], t)]
                for c, (t_src, k2, cnt2) in enumerate(cols):
                    val = blk[r, c]
                    if not val:
                        continue
                    spos = src.index[(src_inner.index[(ia, ip, t_src)], k2, cnt2)]
                    mat[dpos, spos] = val
    out = Mor(src, dst, mat)
    ft._cache[key] = out
    return out


# ---------------------------------------------------------------------------
# internal hom of a left module


def uhom_set(tables: ModuleTables, i: str, j: str) -> tuple:
    return tuple(X for X in tables.base.simples if tables.n(X, i, j))


@_memoized
def uhom_obj(tables: ModuleTables, A: Obj, B: Obj) -> Obj:
    """Representing object of ``Hom(- act A, B)`` for sums of simples."""
    labels, keys = [], []
    for ipa, p in enumerate(A.labels):
        for iq, q in enumerate(B.labels):
            for X in uhom_set(tables, p, q):
                labels.append(X)
                keys.append((ipa, iq, X))
    return Obj(tuple(labels), tuple(keys))


def uhom_mor_first(tables: ModuleTables, f: Mor, B: Obj) -> Mor:
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


def uhom_mor_second(tables: ModuleTables, A: Obj, g: Mor) -> Mor:
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


def evh_mor(tables: ModuleTables, A: Obj, B: Obj) -> Mor:
    """Counit ``uhom(A, B) act A -> B`` on the chosen bases."""
    uh = uhom_obj(tables, A, B)
    src = act_c(tables, uh, A)
    mat = Matrix.zeros(tables.field, len(B), len(src))
    for ih, (ipa, iq, X) in enumerate(uh.keys):
        t = B.labels[iq]
        pos = src.index.get((ih, ipa, t))
        if pos is not None:
            mat[iq, pos] = tables.field.one
    return Mor(src, B, mat)


def psi_reshuffle(tables: ModuleTables, W: Obj, A: Obj, B: Obj, h: Mor) -> Mor:
    """Adjunction mate ``W -> uhom(A, B)`` of ``h: W act A -> B``."""
    wa = act_c(tables, W, A)
    if h.src != wa or h.dst != B:
        raise DimensionMismatch("mate of a morphism with unexpected ends")
    uh = uhom_obj(tables, A, B)
    mat = Matrix.zeros(tables.field, len(uh), len(W))
    for dpos, (ipa, iq, X) in enumerate(uh.keys):
        t = B.labels[iq]
        for iw in W.positions(X):
            spos = wa.index.get((iw, ipa, t))
            if spos is not None:
                mat[dpos, iw] = h.mat[iq, spos]
    return Mor(W, uh, mat)


def uhom_left_tensor_iso(tables: ModuleTables, X: str, A: Obj, B: Obj) -> Mor:
    """Action iso ``X x uhom(A, B) -> uhom(A, X act B)`` on chosen bases."""
    uh = uhom_obj(tables, A, B)
    sx = _simple(tables.base, X)
    W = ctensor(tables.base, sx, uh)
    xb = act_c(tables, sx, B)
    h = whisker_c(tables, sx, evh_mor(tables, A, B)) * assoc(tables, sx, uh, A)
    return psi_reshuffle(tables, W, A, xb, h)


# ---------------------------------------------------------------------------
# base-category structure morphisms


def ctensor_mor(base: BaseTables, g: Mor, h: Mor) -> Mor:
    """``g x h``, that is ``(g act id) after (id act h)`` in the regular module."""
    reg = base.regular()
    return act_mor(reg, g, h.dst) * whisker_c(reg, g.src, h)


@_memoized
def c_assoc(base: BaseTables, A: Obj, B: Obj, C: Obj) -> Mor:
    """``(A x B) x C -> A x (B x C)``: the regular module's associator."""
    return assoc(base.regular(), A, B, C)


# ---------------------------------------------------------------------------
# coherence axioms on symbols (used by the validators)
#
# Each predicate checks one axiom at one tuple of simples entry by entry: for
# every total and every pair of source and target paths, both sides are sums
# over intermediate labels of products of F-, L- and c-symbols.  Symbols of
# inadmissible label tuples read 0, so the sums may run over whole fusion
# sets.  ``L(X,Y,i; j,z,t)`` is the entry of ``l_block(X, Y, i, t)`` at row
# ``j``, column ``z``; ``F(a,b,c; d; e,f)`` that of ``f_block(a, b, c, d)``
# at row ``f``, column ``e``.


def left_pentagon_holds(tables: ModuleTables, X: str, Y: str, Z: str, i: str) -> bool:
    """Mixed pentagon at ``(X, Y, Z, m_i)``.

    Source paths ``u in X x Y, w in u x Z`` and target paths ``k in Z act m_i,
    l in Y act m_k`` meet at totals ``t``, where
    ``L(X,Y,k; l,u,t) L(u,Z,i; k,w,t) = sum_v L(Y,Z,i; k,v,l) L(X,v,i; l,w,t) F(X,Y,Z; w; u,v)``.
    """
    base = tables.base
    L, F, zero = tables._l_entry, base._f_entry, tables.field.zero
    yz = base.fuse(Y, Z)
    for u in base.fuse(X, Y):
        for w in base.fuse(u, Z):
            for k in tables.act_set(Z, i):
                for l in tables.act_set(Y, k):
                    for t in tables.act_set(w, i):
                        if not tables.n(X, l, t):
                            continue
                        rhs = zero
                        for v in yz:
                            a = L(Y, Z, i, k, v, l)
                            if a:
                                rhs = rhs + a * L(X, v, i, l, w, t) * F(X, Y, Z, w, u, v)
                        if L(X, Y, k, l, u, t) * L(u, Z, i, k, w, t) != rhs:
                            return False
    return True


def left_unit_holds(tables: ModuleTables, X: str, i: str) -> bool:
    """Unit coherence at ``(X, m_i)``: ``L(X,1,i; i,X,t) * lambda_i = 1``."""
    unit, one = tables.base.unit, tables.field.one
    scalar = tables.unit_scalar(i)
    return all(tables._l_entry(X, unit, i, i, X, t) * scalar == one
               for t in tables.act_set(X, i))


def right_pentagon_holds(tables: RightTables, i: str, X: str, Y: str, Z: str) -> bool:
    """Mixed pentagon of a right module at ``(m_i, X, Y, Z)``.

    With ``R(i,X,Y; j,z,t)`` the entry of ``rl_block(i, X, Y, t)``, source
    paths ``u in X x Y, w in u x Z`` and target paths ``j in m_i ract X,
    k in m_j ract Y`` meet at totals ``t``, where
    ``R(i,X,Y; j,u,k) R(i,u,Z; k,w,t) = sum_v R(j,Y,Z; k,v,t) R(i,X,v; j,w,t) F(X,Y,Z; w; u,v)``.
    """
    base = tables.base
    R, F, zero = tables._rl_entry, base._f_entry, tables.field.zero
    yz = base.fuse(Y, Z)
    for u in base.fuse(X, Y):
        for w in base.fuse(u, Z):
            for j in tables.ract_set(i, X):
                for k in tables.ract_set(j, Y):
                    for t in tables.ract_set(k, Z):
                        if not tables.n(i, w, t):
                            continue
                        rhs = zero
                        for v in yz:
                            a = R(j, Y, Z, k, v, t)
                            if a:
                                rhs = rhs + a * R(i, X, v, j, w, t) * F(X, Y, Z, w, u, v)
                        if R(i, X, Y, j, u, k) * R(i, u, Z, k, w, t) != rhs:
                            return False
    return True


def right_unit_holds(tables: RightTables, i: str, X: str) -> bool:
    """Unit coherence at ``(m_i, X)``: ``R(i,1,X; i,X,t) * lambda_i = 1``."""
    unit, one = tables.base.unit, tables.field.one
    scalar = tables.runit_scalar(i)
    return all(tables._rl_entry(i, unit, X, i, X, t) * scalar == one
               for t in tables.ract_set(i, X))


@_memoized
def _c_positions(ft: FunctorTables, X: str, i: str) -> tuple:
    """Row and column positions in ``c_block(X, i)`` of each basis triple."""
    return ({key: r for r, key in enumerate(c_rows(ft, X, i))},
            {key: c for c, key in enumerate(c_cols(ft, X, i))})


def _c_symbol(ft: FunctorTables, X: str, i: str, row: tuple, col: tuple):
    """Entry of ``c_{X, m_i}`` at row ``(k, copy, t)`` and column ``(t_src, k, copy)``."""
    rows, cols = _c_positions(ft, X, i)
    return ft.c_block(X, i)[rows[row], cols[col]]


def functor_unit_holds(ft: FunctorTables, i: str) -> bool:
    """Unit coherence of a module functor at ``m_i``.

    For copies ``a, b`` of ``m_k`` in ``F(m_i)``:
    ``lambda'_k c(1,i)[(k,a,k), (i,k,b)] = lambda_i`` if ``a == b``, else 0.
    """
    unit, zero = ft.src.base.unit, ft.field.zero
    scalar = ft.src.unit_scalar(i)
    for k in ft.dst.simples:
        n = ft.mult(i, k)
        lam = ft.dst.unit_scalar(k)
        for a in range(n):
            for b in range(n):
                lhs = lam * _c_symbol(ft, unit, i, (k, a, k), (i, k, b))
                if lhs != (scalar if a == b else zero):
                    return False
    return True


def functor_coherence_holds(ft: FunctorTables, X: str, Y: str, i: str) -> bool:
    """Coherence of ``c`` at ``(X, Y, m_i)``, for c-blocks that obey Schur.

    Source paths ``z in X x Y, s in z act m_i`` with copy ``b`` of ``m_t`` in
    ``F(m_s)`` and target paths copy ``a`` of ``m_k`` in ``F(m_i)``,
    ``l in Y act m_k``, ``t in X act m_l`` meet at each total ``t``, where
    ``sum_{j, e} c(Y,i)[(k,a,l), (j,l,e)] c(X,j)[(l,e,t), (s,t,b)] L(X,Y,i; j,z,s)
    = L'(X,Y,k; l,z,t) c(z,i)[(k,a,t), (s,t,b)]``, the sum over ``j in Y act m_i``
    and copies ``e`` of ``m_l`` in ``F(m_j)``; ``L`` and ``L'`` are the source
    and target L-symbols.
    """
    src, dst = ft.src, ft.dst
    Ls, Ld, zero = src._l_entry, dst._l_entry, ft.field.zero
    xy = src.base.fuse(X, Y)
    y_i = src.act_set(Y, i)
    for t in dst.simples:
        cols = [(z, s, b) for z in xy for s in src.act_set(z, i)
                for b in range(ft.mult(s, t))]
        if not cols:
            continue
        for k in dst.simples:
            for a in range(ft.mult(i, k)):
                for l in dst.act_set(Y, k):
                    if not dst.n(X, l, t):
                        continue
                    for z, s, b in cols:
                        lhs = zero
                        for j in y_i:
                            lval = Ls(X, Y, i, j, z, s)
                            if not lval:
                                continue
                            for e in range(ft.mult(j, l)):
                                lhs = lhs + _c_symbol(ft, Y, i, (k, a, l), (j, l, e)) \
                                    * _c_symbol(ft, X, j, (l, e, t), (s, t, b)) * lval
                        lval = Ld(X, Y, k, l, z, t)
                        rhs = lval * _c_symbol(ft, z, i, (k, a, t), (s, t, b)) if lval else zero
                        if lhs != rhs:
                            return False
    return True
