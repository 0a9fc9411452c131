"""Skeletal tables of fusion categories, module categories and module functors.

Every construction of the package reads symbols off these tables: the
validators (the predicates at the end of this module), the duality checks,
opposite modules, composite functors, right multiplications, the
``Hom(F(-), G(-))`` systems and the object-valued probe builders are sums of
products of F-, L- and c-symbols, entries of inverse blocks and duality
scalars.  Each tables object keeps its blocks and their inverses
(``f_block``/``f_inverse``, ``l_block``/``l_inverse``,
``rl_block``/``rl_inverse``) for its own life, and the regular module shares
the base's.

The block-matrix calculus those forms replaced (:class:`Obj`, :class:`Mor`,
``act_c``, ``ctensor``, ``f_obj``, ``assoc``, ``assoc_inv``, ``c_mor``) has
no caller in the package.  It stays because the benchmark's tracer
(``bench/tracing.py``) wraps ``assoc``, ``assoc_inv``, ``c_mor`` and
``Obj.__init__``; the tests build their whole-object references on it.

Conventions
-----------
* An :class:`Obj` is an ordered list of summands ``(simple_label, key)``.  The
  keys are structural bookkeeping that make summand positions addressable; two
  objects are interchangeable only if labels and keys agree.
* A :class:`Mor` is a matrix between the summand bases, row index = target
  summand, column index = source summand.  Entries between summands with
  different simple labels must vanish (Schur).
* ``assoc(A, B, N)`` realizes ``(A x B) act N -> A act (B act N)``; its block
  at simple slots ``(a, b, p)`` with target ``t`` is the L-matrix
  ``rows j in b act p, cols z in a x b``.
* The base acting on itself is the regular module (``BaseTables.regular``),
  whose L-symbols are the F-symbols: ``ctensor`` is its ``act_c``, and its
  ``assoc`` is the base's associator.
* The unit constraints of the base are the canonical projections (scalar 1);
  module unit maps carry the module's unit scalars.  Right duals pair as
  ``ev(a): a* x a -> 1`` with scalar ``ev[a]`` and ``coev(a): 1 -> a x a*``;
  the canonical isos ``(a x b)* -> b* x a*`` are monomial, one closed-form
  scalar per summand (``phi_r_scalar`` and ``phi_l_scalar``).
* Object constructors and the structure morphisms are cached on the tables
  object they take, for the life of that object; callers share the returned
  :class:`Obj` and :class:`Mor` values and must not write into them.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Callable, Sequence

from .scalarfield import DimensionMismatch, FieldSpec, Matrix, ZeroDivisorDetected


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

    def __mul__(self, other: "Mor") -> "Mor":
        """Composition ``self after other``."""
        if other.dst is not self.src and other.dst != self.src:
            raise DimensionMismatch("composition mismatch")
        return Mor(other.src, self.dst, self.mat * other.mat)

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
        self._finv_cache = {}
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

    def f_inverse(self, a: str, b: str, c: str, t: str) -> dict:
        """``inverse_entries`` of ``f_block(a, b, c, t)``, keyed ``(e, f)``."""
        return _cached_inverse(self._finv_cache, (a, b, c, t), self.f_block(a, b, c, t))

    def regular(self) -> "RegularTables":
        if self._reg is None:
            self._reg = RegularTables(
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
        self._linv_cache = {}
        self._cache = {}
        self._memo = {}
        self._axioms = {}

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

    def l_inverse(self, X: str, Y: str, i: str, t: str) -> dict:
        """``inverse_entries`` of ``l_block(X, Y, i, t)``, keyed ``(z, j)``."""
        return _cached_inverse(self._linv_cache, (X, Y, i, t), self.l_block(X, Y, i, t))


class RegularTables(ModuleTables):
    """The base acting on itself, whose L-blocks are the base's F-blocks:
    ``l_block(X, Y, i, t)`` is ``f_block(X, Y, i, t)`` entry for entry, so the
    two share one block and one inverse."""

    def l_block(self, X: str, Y: str, i: str, t: str):
        return self.base.f_block(X, Y, i, t)

    def l_inverse(self, X: str, Y: str, i: str, t: str) -> dict:
        return self.base.f_inverse(X, Y, i, t)


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
        self._inv_cache = {}
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

    def rl_inverse(self, i: str, X: str, Y: str, t: str) -> dict:
        """``inverse_entries`` of ``rl_block(i, X, Y, t)``, keyed ``(z, j)``."""
        return _cached_inverse(self._inv_cache, (i, X, Y, t), self.rl_block(i, X, Y, t))


def inverse_entries(rows: Sequence, cols: Sequence, mat: Matrix) -> dict:
    """Nonzero entries of the inverse of the block ``mat``, keyed ``(c, r)``:
    ``c`` runs over ``cols`` (the inverse's rows) and ``r`` over ``rows``.

    Raises as ``Matrix.inverse`` does: ``DimensionMismatch`` on a block that is
    not square, an ``ArithmeticError`` on a singular one.
    """
    inv, out = mat.inverse(), {}
    for n, c in enumerate(cols):
        for m, r in enumerate(rows):
            val = inv.entries[n * len(rows) + m]
            if val:
                out[c, r] = val
    return out


def _cached_inverse(cache: dict, key: tuple, block) -> dict:
    """``inverse_entries(*block)``, computed once per ``key`` of ``cache``.

    The tables keep each block's inverse for their own life, so the gate's
    invertibility sweep, the probe builders and the Hom builders share it.
    """
    inv = cache.get(key)
    if inv is None:
        inv = cache[key] = inverse_entries(*block)
    return inv


# ---------------------------------------------------------------------------
# object constructors


def _memoized(fn):
    """Cache ``fn(tables, *args)`` in ``tables._memo`` under ``(fn name, args)``.

    Object constructors are hash-consed this way: equal arguments on one
    tables object give the same :class:`Obj`; the end engine keeps its
    evaluation scalars this way.  The duality scalars an evaluation reads are
    installed once, before any evaluation is built, so they need no place in
    the key.
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


# ---------------------------------------------------------------------------
# structural morphisms, kept for the benchmark tracer


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


# ---------------------------------------------------------------------------
# duality on the base category


def phi_r_scalar(base: BaseTables, a: str, b: str, z: str):
    """Scalar at ``z in a x b`` of the canonical iso ``(a x b)* -> b* x a*``
    between two right duals, which is monomial.

    ``F(b,b*,a*; a*; 1,z*) ev[z] / (F(a,b,z*; 1; z,a*) lev[z*])``.
    """
    F, d, one = base._f_entry, base.dual, base.unit
    return (F(b, d[b], d[a], d[a], one, d[z]) * base.ev[z]
            / (F(a, b, d[z], one, z, d[a]) * base.lev[d[z]]))


def phi_l_scalar(base: BaseTables, a: str, b: str, z: str):
    """Scalar at ``z in a x b`` of the canonical iso ``*(a x b) -> *b x *a``
    between two left duals, which is monomial.

    ``F(b*,b,z*; z*; 1,a*) F(a*,a,a*; a*; 1,1) lev[z] / F(a,b,z*; 1; z,a*)``.
    """
    F, d, one = base._f_entry, base.dual, base.unit
    return (F(d[b], b, d[z], d[z], one, d[a]) * F(d[a], a, d[a], d[a], one, one) * base.lev[z]
            / F(a, b, d[z], one, z, d[a]))


def f_inverse_entry(base: BaseTables, a: str, b: str, c: str, t: str, e: str, f: str):
    """``Finv(a,b,c; t; e,f)``: the inverse of ``f_block(a, b, c, t)`` at row
    ``e in a x b``, column ``f in b x c``."""
    return base.f_inverse(a, b, c, t).get((e, f), base.field.zero)


def nested_lev_scalar(base: BaseTables, a: str, b: str, z: str):
    """Entry at ``z in a x b`` of the left evaluation of ``a x b`` nested from
    those of ``a`` and ``b`` through ``phi_l``:
    ``phi_l(a,b; z) F(a,b,z*; 1; z,a*) lev[a] lev[b] Finv(b,b*,a*; a*; 1,z*)``."""
    d, one = base.dual, base.unit
    return (phi_l_scalar(base, a, b, z) * base._f_entry(a, b, d[z], one, z, d[a])
            * base.lev[a] * base.lev[b] * f_inverse_entry(base, b, d[b], d[a], d[a], one, d[z]))


def lev_tensor_holds(base: BaseTables, a: str, b: str) -> bool:
    """``lev[z]`` is the nested left evaluation at every ``z in a x b``."""
    return all(base.lev[z] == nested_lev_scalar(base, a, b, z) for z in base.fuse(a, b))


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
        self._c_entries = {}
        # source simple -> ((target simple, multiplicity), ...) in dst.simples order
        self.images = {i: tuple((k, mult[(i, k)]) for k in dst.simples if mult.get((i, k)))
                       for i in src.simples}

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
# coherence axioms on symbols (used by the validators)
#
# Each predicate checks one axiom at one tuple of simples entry by entry: for
# every total and every pair of source and target paths, both sides are sums
# over intermediate labels of products of F-, L- and c-symbols.  Symbols of
# inadmissible label tuples read 0, so the sums may run over whole fusion
# sets.  ``L(X,Y,i; j,z,t)`` is the entry of ``l_block(X, Y, i, t)`` at row
# ``j``, column ``z``; ``F(a,b,c; d; e,f)`` that of ``f_block(a, b, c, d)``
# at row ``f``, column ``e``.
#
# Each axiom is swept once per tables object: ``l_block_failures`` and
# ``left_pentagon_failures`` run it over every tuple of simples and keep the
# failures in ``tables._axioms``, apart from ``_memo``, whose values are
# objects owned by one loaded bundle (an empty tuple is shared by all).  The
# regular module's L-blocks are the F-blocks, so a regular module shares its
# category's sweeps: the validator of either reads what the other computed.


def block_failure(inverse: Callable, *key) -> str | None:
    """Why the block at ``key`` is not invertible (``not-square``, ``singular``,
    or ``zero-divisor``: only a reducible ``min_poly`` has one), else None.

    ``inverse`` is a tables' ``l_inverse`` or ``rl_inverse``, which keeps the
    inverse it computes for later readers.
    """
    try:
        inverse(*key)
    except DimensionMismatch:
        return "not-square"
    except ZeroDivisorDetected:
        return "zero-divisor"
    except ArithmeticError:
        return "singular"
    return None


def l_block_failures(tables: ModuleTables) -> tuple:
    """Every ``(kind, (X, Y, i, t))`` whose L-block is not invertible, in ``simples`` order.

    ``kind`` is a ``block_failure``.  For the regular module these are the
    F-blocks ``f_block(X, Y, i, t)``.
    """
    out = tables._axioms.get("l-blocks")
    if out is None:
        out = []
        for X in tables.base.simples:
            for Y in tables.base.simples:
                for i in tables.simples:
                    # totals of a row or a column path; any other block is 0 x 0
                    totals = {t for z in tables.base.fuse(X, Y) for t in tables.act_set(z, i)}
                    totals.update(t for j in tables.act_set(Y, i) for t in tables.act_set(X, j))
                    for t in (t for t in tables.simples if t in totals):
                        kind = block_failure(tables.l_inverse, X, Y, i, t)
                        if kind:
                            out.append((kind, (X, Y, i, t)))
        out = tables._axioms["l-blocks"] = tuple(out)
    return out


def left_pentagon_failures(tables: ModuleTables) -> tuple:
    """Every ``(X, Y, Z, i)`` where ``left_pentagon_holds`` fails, in ``simples`` order.

    The entry is keyed by the predicate this module holds at call time, so a
    replacement predicate is evaluated afresh rather than read from the cache.
    """
    holds = left_pentagon_holds
    key = ("pentagon", holds)
    out = tables._axioms.get(key)
    if out is None:
        simples = tables.base.simples
        out = tables._axioms[key] = tuple(
            (X, Y, Z, i) for X in simples for Y in simples for Z in simples
            for i in tables.simples if not holds(tables, X, Y, Z, i))
    return out


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


def _c_entries(ft: FunctorTables, X: str, i: str) -> dict:
    """Nonzero entries of ``c_{X, m_i}``, keyed by row + column triple.

    A row is ``(k, copy, t)`` and a column ``(t_src, k, copy)``, as in
    :func:`c_rows` and :func:`c_cols`.
    """
    key = (X, i)
    out = ft._c_entries.get(key)
    if out is None:
        blk, cols = ft.c_block(X, i), c_cols(ft, X, i)
        out = ft._c_entries[key] = {}
        for r, row in enumerate(c_rows(ft, X, i)):
            for c, col in enumerate(cols):
                val = blk[r, c]
                if val:
                    out[row + col] = val
    return out


def functor_unit_holds(ft: FunctorTables, i: str) -> bool:
    """Unit coherence of a module functor at ``m_i``.

    For copies ``a, b`` of ``m_k`` in ``F(m_i)``:
    ``lambda'_k c(1,i)[(k,a,k), (i,k,b)] = lambda_i`` if ``a == b``, else 0.
    """
    zero = ft.field.zero
    scalar = ft.src.unit_scalar(i)
    c_1i = _c_entries(ft, ft.src.base.unit, i)
    for k, n in ft.images[i]:
        lam = ft.dst.unit_scalar(k)
        for a in range(n):
            for b in range(n):
                if lam * c_1i.get((k, a, k, i, k, b), zero) != (scalar if a == b else zero):
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
    and target L-symbols.  Only admissible paths are walked.
    """
    src, dst, mult = ft.src, ft.dst, ft._mult
    Ls, Ld, zero = src._l_entry, dst._l_entry, ft.field.zero
    targets = [(k, a, l) for k, n in ft.images[i] for a in range(n)
               for l in dst.act_set(Y, k)]
    if not targets:
        return True
    y_i = src.act_set(Y, i)
    c_yi = _c_entries(ft, Y, i)
    for z in src.base.fuse(X, Y):
        c_zi = _c_entries(ft, z, i)
        for s in src.act_set(z, i):
            steps = []      # (j, L(X,Y,i; j,z,s), c(X,j)) with a nonzero L-symbol
            for j in y_i:
                sval = Ls(X, Y, i, j, z, s)
                if sval:
                    steps.append((j, sval, _c_entries(ft, X, j)))
            for t, n in ft.images[s]:
                for k, a, l in targets:
                    if not dst.n(X, l, t):
                        continue
                    lval = Ld(X, Y, k, l, z, t)
                    for b in range(n):
                        lhs = zero
                        for j, sval, c_xj in steps:
                            for e in range(mult.get((j, l), 0)):
                                cy = c_yi.get((k, a, l, j, l, e))
                                cx = c_xj.get((l, e, t, s, t, b)) if cy else None
                                if cx:
                                    lhs = lhs + cy * cx * sval
                        rhs = lval * c_zi.get((k, a, t, s, t, b), zero) if lval else zero
                        if lhs != rhs:
                            return False
    return True
