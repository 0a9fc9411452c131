"""Skeletal tables of fusion categories, module categories and module functors.

Every construction of the package reads symbols off these tables: the
validators (the predicates at the end of this module), the duality checks,
opposite modules, composite functors, right multiplications, the
``Hom(F(-), G(-))`` systems and the object-valued probe builders are sums of
products of F-, L- and c-symbols, entries of inverse blocks and duality
scalars.  Each spec is its own tables: ``fusioncat.FusionCategorySpec`` is a
:class:`BaseTables`, and ``modcat.ModuleCategorySpec`` and
``modfunct.ModuleFunctorSpec`` keep their blocks and caches themselves.  Each
keeps its blocks and their inverses (``f_block``/``f_inverse``,
``l_block``/``l_inverse``) for its own life; the regular module
(``modcat.regular_module``) reads its L-blocks through its category's
``f_block`` and keeps their inverses in the category's F-inverse cache.  Left
and right modules keep the spec's key for both.  On pointed tables, where
every block is 1 x 1, the validators check the path counts, the blocks'
invertibility and the pentagon as flat sweeps over the positions of the
simples (``pointed_path_count_failures``, ``pointed_l_block_failures``,
``pointed_pentagon_failures``), which they keep with the one entry of each
block; the block sweep tests each entry and keeps no inverse, so a block is
inverted when a builder first reads it, as one element, and once.

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
* The base acting on itself is the regular module (``modcat.regular_module``),
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
from collections import Counter
from math import lcm
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Sequence

from .common import UnknownLabel
from .scalarfield import DimensionMismatch, DivisionByZero, Matrix, ZeroDivisorDetected

if TYPE_CHECKING:
    from .modcat import ModuleCategorySpec
    from .modfunct import ModuleFunctorSpec


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
    """F-blocks, their inverses and the duality scalars of a base category.

    ``fusioncat.FusionCategorySpec``, the one subclass, holds the data these
    read: ``field``, ``simples``, the fusion map ``_fuse_map`` and
    ``f_symbol``.
    """

    def __init__(self):
        # duality scalars, installed once by ``fusioncat.compute_duality``
        self.ev = self.coev = self.lev = self.lcoev = MappingProxyType({})
        self._fblock_cache, self._finv_cache, self._memo = {}, {}, {}

    def fuse(self, a: str, b: str) -> tuple:
        """Summands of ``a x b``; a label that is not a simple raises ``UnknownLabel``."""
        try:
            return self._fuse_map[a, b]
        except KeyError:
            raise UnknownLabel(f"{a!r} or {b!r}") from None

    def n(self, a: str, b: str, c: str) -> bool:
        return c in self._fuse_map.get((a, b), ())

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
                    mat[i, j] = self.f_symbol(a, b, c, t, e, f)
            blk = (f_list, e_list, mat)
            self._fblock_cache[key] = blk
        return blk

    def f_inverse(self, a: str, b: str, c: str, t: str) -> dict:
        """``inverse_entries`` of ``f_block(a, b, c, t)``, keyed ``(e, f)``."""
        return _cached_inverse(self._finv_cache, (a, b, c, t), self.f_block(a, b, c, t))


def row_steps(right: bool, X: str, Y: str) -> tuple:
    """The factors of ``X x Y`` in the order they act along a row path of an
    L-block (``l_block``): ``(Y, X)`` if left, ``(X, Y)`` if right."""
    return (X, Y) if right else (Y, X)


def inverse_entries(rows: Sequence, cols: Sequence, mat: Matrix) -> dict:
    """Nonzero entries of the inverse of the block ``mat``, keyed ``(c, r)``:
    ``c`` runs over ``cols`` (the inverse's rows) and ``r`` over ``rows``.

    A 1 x 1 block, every block of pointed tables, is inverted as its one
    element.  Raises as ``Matrix.inverse`` does: ``DimensionMismatch`` on a
    block that is not square, ``DivisionByZero`` on a singular one and
    ``ZeroDivisorDetected`` where the inverse meets a zero divisor.
    """
    if mat.rows == mat.cols == 1:
        entry = mat.entries[0]
        if not entry:
            raise DivisionByZero("singular matrix")
        return {(cols[0], rows[0]): entry.inverse()}
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
    invertibility sweep, the duality scalars, the probe builders and the Hom
    builders share it.  The pointed sweep (``pointed_l_block_failures``) keeps
    none: a pointed block is inverted here when it is first read.
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
    evaluation scalars this way, and the base tables their ``phi_r`` and
    ``phi_l`` scalars.  The duality scalars these read are installed once,
    before any of them is computed, so they need no place in the key.
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


def _acted(act: Callable, A: Obj, N: Obj) -> Obj:
    """``A act N`` for the action ``act(a, p)`` of simples: summands ``(ia, ip, t)``."""
    labels, keys = [], []
    for ia, a in enumerate(A.labels):
        for ip, p in enumerate(N.labels):
            for t in act(a, p):
                labels.append(t)
                keys.append((ia, ip, t))
    return Obj(tuple(labels), tuple(keys))


@_memoized
def act_c(tables: ModuleCategorySpec, A: Obj, N: Obj) -> Obj:
    return _acted(tables.act_set, A, N)


@_memoized
def ctensor(base: BaseTables, A: Obj, B: Obj) -> Obj:
    """``A x B``: the regular module's action of ``A`` on ``B``."""
    return _acted(base.fuse, A, B)


# ---------------------------------------------------------------------------
# structural morphisms, kept for the benchmark tracer


def assoc(tables: ModuleCategorySpec, A: Obj, B: Obj, N: Obj) -> Mor:
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


def assoc_inv(tables: ModuleCategorySpec, A: Obj, B: Obj, N: Obj) -> Mor:
    key = ("assoc_inv", A, B, N)
    cached = tables._cache.get(key)
    if cached is None:
        cached = assoc(tables, A, B, N).inverse()
        tables._cache[key] = cached
    return cached


# ---------------------------------------------------------------------------
# duality on the base category


@_memoized
def phi_r_scalar(base: BaseTables, a: str, b: str, z: str):
    """Scalar at ``z in a x b`` of the canonical iso ``(a x b)* -> b* x a*``
    between two right duals, which is monomial.

    ``F(b,b*,a*; a*; 1,z*) ev[z] / (F(a,b,z*; 1; z,a*) lev[z*])``.
    """
    F, d, one = base.f_symbol, base.dual, base.unit
    return (F(b, d[b], d[a], d[a], one, d[z]) * base.ev[z]
            / (F(a, b, d[z], one, z, d[a]) * base.lev[d[z]]))


@_memoized
def phi_l_scalar(base: BaseTables, a: str, b: str, z: str):
    """Scalar at ``z in a x b`` of the canonical iso ``*(a x b) -> *b x *a``
    between two left duals, which is monomial.

    ``F(b*,b,z*; z*; 1,a*) F(a*,a,a*; a*; 1,1) lev[z] / F(a,b,z*; 1; z,a*)``.
    """
    F, d, one = base.f_symbol, base.dual, base.unit
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
    return (phi_l_scalar(base, a, b, z) * base.f_symbol(a, b, d[z], one, z, d[a])
            * base.lev[a] * base.lev[b] * f_inverse_entry(base, b, d[b], d[a], d[a], one, d[z]))


def lev_tensor_holds(base: BaseTables, a: str, b: str) -> bool:
    """``lev[z]`` is the nested left evaluation at every ``z in a x b``."""
    return all(base.lev[z] == nested_lev_scalar(base, a, b, z) for z in base.fuse(a, b))


# ---------------------------------------------------------------------------
# module functors


def c_rows(ft: ModuleFunctorSpec, X: str, i: str) -> list:
    """Summand order of ``X act F(m_i)``: triples ``(k, copy, t)``."""
    rows = []
    for k in ft.dst.simples:
        for cnt in range(ft.mult(i, k)):
            for t in ft.dst.act_set(X, k):
                rows.append((k, cnt, t))
    return rows


def c_cols(ft: ModuleFunctorSpec, X: str, i: str) -> list:
    """Summand order of ``F(X act m_i)``: triples ``(t_src, k, copy)``."""
    cols = []
    for t in ft.src.act_set(X, i):
        for k in ft.dst.simples:
            for cnt in range(ft.mult(t, k)):
                cols.append((t, k, cnt))
    return cols


@_memoized
def f_obj(ft: ModuleFunctorSpec, N: Obj) -> Obj:
    labels, keys = [], []
    for ip, p in enumerate(N.labels):
        for k in ft.dst.simples:
            for cnt in range(ft.mult(p, k)):
                labels.append(k)
                keys.append((ip, k, cnt))
    return Obj(tuple(labels), tuple(keys))


def c_mor(ft: ModuleFunctorSpec, A: Obj, N: Obj) -> Mor:
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
            blk = ft.c_symbols[a, p]
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
# ``j``, column ``z``, on a left or a right module; ``F(a,b,c; d; e,f)`` that
# of ``f_block(a, b, c, d)`` at row ``f``, column ``e``.
#
# ``path_count_failures``, ``l_block_failures`` and ``left_pentagon_failures``
# sweep an axiom over every tuple of simples.  The gate sweeps each module at
# most once per load: its category's sweeps run on the regular module, whose
# L-blocks are the F-blocks and whose path counts are the fusion table's, and
# which, derived, is swept no second time as a module.
# On pointed tables (``is_pointed``: every fusion product and every action of
# a simple is one simple) every block is 1 x 1, and the three sweeps take flat
# branches over lists indexed by the positions of the simples, with the same
# failures in the same order.  The tables keep those positions
# (``_pointed_index``) and the one entry of each block (``_pointed_entries``),
# each built on first read, so the block and pentagon sweeps share one read
# of each L-symbol: one column and one row total per ``(X, Y, i)``
# (``pointed_path_count_failures``), one entry per block, tested for zero
# over Q and inverted only over a larger field, where a zero divisor can
# show (``pointed_l_block_failures``), and one scalar equation per pentagon
# over the kept entries, which on the regular module are also its F-values
# (``pointed_pentagon_failures``).  The block sweep keeps no inverse: the
# builders read far fewer blocks than it tests, and ``l_inverse`` inverts
# each on its first read (``inverse_entries``).  Other tables
# count paths in ``Counter``s, invert each block through ``l_inverse`` and,
# if left, take ``left_pentagon_holds`` at every tuple.


def block_failure(inverse: Callable, *key) -> str | None:
    """Why the block at ``key`` is not invertible (``not-square``, ``singular``,
    or ``zero-divisor``: only a reducible ``min_poly`` has one), else None.

    ``inverse`` is a tables' ``l_inverse``, which keeps the inverse it
    computes for later readers.
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


def path_count_failures(tables: ModuleCategorySpec):
    """Every ``((X, Y, i, t), via_fuse, via_steps)`` where the number of paths
    from ``m_i`` to ``m_t`` through ``z in X x Y`` differs from the number of
    row paths (``row_steps``), in ``simples`` order.  On the regular module
    this is the associativity of the fusion table.

    On pointed tables (``is_pointed``) this is ``pointed_path_count_failures``.
    """
    if is_pointed(tables):
        yield from pointed_path_count_failures(tables)
        return
    base = tables.base
    for X in base.simples:
        for Y in base.simples:
            first, second = row_steps(tables.right, X, Y)
            xy = base.fuse(X, Y)
            for i in tables.simples:
                via_fuse = Counter(t for z in xy for t in tables.act_set(z, i))
                via_steps = Counter(t for j in tables.act_set(first, i)
                                    for t in tables.act_set(second, j))
                for t in tables.simples:
                    if via_fuse[t] != via_steps[t]:
                        yield (X, Y, i, t), via_fuse[t], via_steps[t]


def l_block_failures(tables: ModuleCategorySpec) -> tuple:
    """Every ``(kind, (X, Y, i, t))`` whose L-block is not invertible, in ``simples`` order.

    ``kind`` is a ``block_failure``.  For the regular module these are the
    F-blocks ``f_block(X, Y, i, t)``.  The sweep visits the totals of column
    paths only, so it expects the path counts to agree (``path_count_failures``,
    which both validators check first): then every total of a row path is one
    of a column path, and every other block is 0 x 0.  On pointed tables
    (``is_pointed``) this is ``pointed_l_block_failures``.
    """
    if is_pointed(tables):
        return pointed_l_block_failures(tables)
    out = []
    for X in tables.base.simples:
        for Y in tables.base.simples:
            for i in tables.simples:
                totals = {t for z in tables.base.fuse(X, Y) for t in tables.act_set(z, i)}
                for t in (t for t in tables.simples if t in totals):
                    kind = block_failure(tables.l_inverse, X, Y, i, t)
                    if kind:
                        out.append((kind, (X, Y, i, t)))
    return tuple(out)


def left_pentagon_failures(tables: ModuleCategorySpec) -> tuple:
    """Every ``(X, Y, Z, i)`` where ``left_pentagon_holds`` fails, in ``simples`` order.

    On pointed tables (``is_pointed``) this is ``pointed_pentagon_failures``.
    """
    if is_pointed(tables):
        return pointed_pentagon_failures(tables)
    simples = tables.base.simples
    return tuple((X, Y, Z, i) for X in simples for Y in simples for Z in simples
                 for i in tables.simples if not left_pentagon_holds(tables, X, Y, Z, i))


def is_pointed(tables: ModuleCategorySpec) -> bool:
    """Every ``fuse(X, Y)`` and every ``act_set(X, i)`` is one simple, so every
    F- and L-block is 1 x 1.  Scanned once per module, whose fusion and
    action maps never change after construction."""
    if tables._pointed is None:
        base = tables.base
        tables._pointed = (
            all(len(base.fuse(X, Y)) == 1 for X in base.simples for Y in base.simples)
            and all(len(tables.act_set(X, i)) == 1
                    for X in base.simples for i in tables.simples))
    return tables._pointed


def _pointed_index(tables: ModuleCategorySpec) -> tuple:
    """``(labels, simples, fuse, act)`` of pointed tables, built once and kept
    on them, as ``is_pointed`` keeps its answer: ``labels`` are the base's
    simples and ``simples`` the module's; ``fuse[x][y]`` is the position in
    ``labels`` of the one simple of ``X x Y`` and ``act[x][p]`` that in
    ``simples`` of the one simple of ``act_set(X, i)``, where ``x``, ``y`` and
    ``p`` are those of ``X``, ``Y`` and ``m_i``."""
    if tables._index is None:
        base, simples = tables.base, tables.simples
        labels = base.simples
        pos = {a: p for p, a in enumerate(labels)}
        mpos = {i: p for p, i in enumerate(simples)}
        tables._index = (labels, simples,
                         [[pos[base.fuse(X, Y)[0]] for Y in labels] for X in labels],
                         [[mpos[tables.act_set(X, i)[0]] for i in simples] for X in labels])
    return tables._index


def _pointed_entries(tables: ModuleCategorySpec) -> list:
    """``V[x][y][p] = L(X,Y,i; j,XY,t)``, the one entry of the 1 x 1 block
    ``l_block(X, Y, i, t)`` of pointed tables, read once and kept on them:
    ``j`` is the first row step (``row_steps``), ``t = (XY) act m_i``, and
    ``x``, ``y``, ``p`` are as in ``_pointed_index``.  The lists hold the
    tables' own elements, not copies."""
    if tables._entries is None:
        labels, simples, fuse, act = _pointed_index(tables)
        L_entry, right = tables.l_symbol, tables.right
        acted = [[simples[p] for p in row] for row in act]     # the simple X act m_i
        V = tables._entries = []
        for x, X in enumerate(labels):
            Vx = []
            for y, Y in enumerate(labels):
                z = fuse[x][y]
                Z, firsts = labels[z], acted[row_steps(right, x, y)[0]]
                Vx.append([L_entry(X, Y, i, j, Z, t) for i, j, t in zip(simples, firsts, acted[z])])
            V.append(Vx)
    return tables._entries


def pointed_path_count_failures(tables: ModuleCategorySpec) -> tuple:
    """``path_count_failures`` on pointed tables, as one flat sweep.

    Each ``(X, Y, i)`` has one column path, to ``(XY) act m_i``, and one row
    path (``row_steps``).  Where their totals differ, each total is reached
    by one path on its own side and none on the other: counts ``(1, 0)`` and
    ``(0, 1)``, in ``simples`` order.
    """
    labels, simples, fuse, act = _pointed_index(tables)
    out = []
    for x, X in enumerate(labels):
        for y, Y in enumerate(labels):
            first, second = row_steps(tables.right, x, y)
            via_fuse, act_first, act_second = act[fuse[x][y]], act[first], act[second]
            for p, i in enumerate(simples):
                col, row = via_fuse[p], act_second[act_first[p]]
                if col != row:
                    for t, counts in sorted(((col, (1, 0)), (row, (0, 1)))):
                        out.append(((X, Y, i, simples[t]), *counts))
    return tuple(out)


def pointed_l_block_failures(tables: ModuleCategorySpec) -> tuple:
    """``l_block_failures`` on pointed tables, as one flat sweep that keeps
    no inverse.

    The block at ``(X, Y, i, t)``, ``t = (XY) act m_i``, is 1 x 1 and holds
    the kept entry ``V[x][y][p]`` (``_pointed_entries``).  A zero entry is
    ``singular`` and one whose inverse meets a zero divisor ``zero-divisor``,
    as ``inverse_entries`` finds them.  Over Q a nonzero entry is invertible,
    so the sweep only tests for zero; over a larger field it inverts each
    nonzero entry (``FieldElement.inverse``, whose field keeps the inverse
    of an element with an irrational part).  A block is inverted for
    ``l_inverse`` on its first read.  Like
    ``l_block_failures``, the sweep expects the path counts to agree
    (``path_count_failures``), which both validators check first: then the
    row path also ends at ``t``.
    """
    labels, simples, fuse, act = _pointed_index(tables)
    V, rational = _pointed_entries(tables), tables.field.degree == 1
    out = []
    for x, X in enumerate(labels):
        for y, Y in enumerate(labels):
            via_fuse = act[fuse[x][y]]
            for p, (i, entry) in enumerate(zip(simples, V[x][y])):
                if not entry:
                    out.append(("singular", (X, Y, i, simples[via_fuse[p]])))
                elif not rational:
                    try:
                        entry.inverse()
                    except ZeroDivisorDetected:
                        out.append(("zero-divisor", (X, Y, i, simples[via_fuse[p]])))
    return tuple(out)


def pointed_pentagon_failures(tables: ModuleCategorySpec) -> tuple:
    """``left_pentagon_failures`` on pointed left tables, as one flat sweep.

    With one path on each side, the mixed pentagon at ``(X, Y, Z, m_i)`` is
    the scalar equation
    ``L(X,Y,Z act i) L(XY,Z,i) = L(Y,Z,i) L(X,YZ,i) F(X,Y,Z)``, where
    ``L(X,Y,i)`` is the one entry of ``l_block(X, Y, i, X act (Y act i))`` and
    ``F(X,Y,Z)`` that of ``f_block(X, Y, Z, (XY)Z)``; on the regular module
    it is the 3-cocycle identity.  Like ``l_block_failures``, the sweep
    expects the path counts to agree (``path_count_failures``), which both
    validators check first: then ``X act (Y act i) = (XY) act i``, so the
    L-values are the kept entries ``V`` (``_pointed_entries``), and every
    symbol the general sweep reads is one of these entries, or an F-symbol
    read as 0 where ``(XY)Z != X(YZ)`` that zeroes its product here.  On the
    regular module, whose L-symbols are the F-symbols re-keyed (it shares its
    category's F-inverse cache), the F-values are ``V`` itself; other modules
    read each ``F`` once into a list of the same shape.  Each ``F`` is split into a pair ``(den, num)`` multiplied
    across.  Over Q the L-values are integers over one common denominator,
    which cancels from the two sides, and the pairs are integers; over a
    larger field both are field elements, with ``den = 1``.
    """
    labels, simples, fuse, act = _pointed_index(tables)
    V = _pointed_entries(tables)
    if tables._linv_cache is tables.base._finv_cache:     # the regular module
        F = V
    else:
        xy = [[labels[p] for p in row] for row in fuse]     # the simple X x Y
        F_entry = tables.base.f_symbol
        F = [[[F_entry(X, Y, Z, xy[fuse[x][y]][z], xy[x][y], xy[y][z])
               for z, Z in enumerate(labels)] for y, Y in enumerate(labels)]
             for x, X in enumerate(labels)]
    if tables.field.degree == 1:
        den = lcm(*(e.den for Vx in V for row in Vx for e in row))
        L = [[[e.num[0] * (den // e.den) for e in row] for row in Vx] for Vx in V]
        F = [[[(f.den, f.num[0]) for f in row] for row in Fx] for Fx in F]
    else:
        one = tables.field.one
        L, F = V, [[[(one, f) for f in row] for row in Fx] for Fx in F]
    out = []
    for x, X in enumerate(labels):
        Lx, Fx = L[x], F[x]
        for y, Y in enumerate(labels):
            Lxy, Lu, Ly, Fxy = Lx[y], L[fuse[x][y]], L[y], Fx[y]
            for z, Z in enumerate(labels):
                fd, fn = Fxy[z]
                for i, (k, luz, lyz, lxv) in enumerate(zip(act[z], Lu[z], Ly[z], Lx[fuse[y][z]])):
                    if Lxy[k] * luz * fd != lyz * lxv * fn:
                        out.append((X, Y, Z, simples[i]))
    return tuple(out)


def left_pentagon_holds(tables: ModuleCategorySpec, X: str, Y: str, Z: str, i: str) -> bool:
    """Mixed pentagon at ``(X, Y, Z, m_i)``.

    Source paths ``u in X x Y, w in u x Z`` and target paths ``k in Z act m_i,
    l in Y act m_k`` meet at totals ``t``, where
    ``L(X,Y,k; l,u,t) L(u,Z,i; k,w,t) = sum_v L(Y,Z,i; k,v,l) L(X,v,i; l,w,t) F(X,Y,Z; w; u,v)``.
    """
    base = tables.base
    L, F, zero = tables.l_symbol, base.f_symbol, tables.field.zero
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


def unit_holds(tables: ModuleCategorySpec, X: str, i: str) -> bool:
    """Unit coherence at ``X`` and ``m_i``: ``L(X,1,i; i,X,t) * lambda_i = 1``
    on a left module, ``L(1,X,i; i,X,t) * lambda_i = 1`` on a right one."""
    unit, one = tables.base.unit, tables.field.one
    scalar = tables.unit_scalar(i)
    first, second = (unit, X) if tables.right else (X, unit)
    return all(tables.l_symbol(first, second, i, i, X, t) * scalar == one
               for t in tables.act_set(X, i))


def right_pentagon_holds(tables: ModuleCategorySpec, i: str, X: str, Y: str, Z: str) -> bool:
    """Mixed pentagon of a right module at ``(m_i, X, Y, Z)``.

    Source paths ``u in X x Y, w in u x Z`` and target paths ``j in m_i ract X,
    k in m_j ract Y`` meet at totals ``t``, where
    ``L(X,Y,i; j,u,k) L(u,Z,i; k,w,t) = sum_v L(Y,Z,j; k,v,t) L(X,v,i; j,w,t) F(X,Y,Z; w; u,v)``.
    """
    base = tables.base
    L, F, zero = tables.l_symbol, base.f_symbol, tables.field.zero
    yz = base.fuse(Y, Z)
    for u in base.fuse(X, Y):
        for w in base.fuse(u, Z):
            for j in tables.act_set(X, i):
                for k in tables.act_set(Y, j):
                    for t in tables.act_set(Z, k):
                        if not tables.n(w, i, t):
                            continue
                        rhs = zero
                        for v in yz:
                            a = L(Y, Z, j, k, v, t)
                            if a:
                                rhs = rhs + a * L(X, v, i, j, w, t) * F(X, Y, Z, w, u, v)
                        if L(X, Y, i, j, u, k) * L(u, Z, i, k, w, t) != rhs:
                            return False
    return True


def _c_entries(ft: ModuleFunctorSpec, X: str, i: str) -> dict:
    """Nonzero entries of ``c_{X, m_i}``, keyed by row + column triple.

    A row is ``(k, copy, t)`` and a column ``(t_src, k, copy)``, as in
    :func:`c_rows` and :func:`c_cols`.
    """
    key = (X, i)
    out = ft._c_entries.get(key)
    if out is None:
        blk, cols = ft.c_symbols[X, i], c_cols(ft, X, i)
        out = ft._c_entries[key] = {}
        for r, row in enumerate(c_rows(ft, X, i)):
            for c, col in enumerate(cols):
                val = blk[r, c]
                if val:
                    out[row + col] = val
    return out


def functor_unit_holds(ft: ModuleFunctorSpec, i: str) -> bool:
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


def functor_coherence_holds(ft: ModuleFunctorSpec, X: str, Y: str, i: str) -> bool:
    """Coherence of ``c`` at ``(X, Y, m_i)``, for c-blocks that obey Schur.

    Source paths ``z in X x Y, s in z act m_i`` with copy ``b`` of ``m_t`` in
    ``F(m_s)`` and target paths copy ``a`` of ``m_k`` in ``F(m_i)``,
    ``l in Y act m_k``, ``t in X act m_l`` meet at each total ``t``, where
    ``sum_{j, e} c(Y,i)[(k,a,l), (j,l,e)] c(X,j)[(l,e,t), (s,t,b)] L(X,Y,i; j,z,s)
    = L'(X,Y,k; l,z,t) c(z,i)[(k,a,t), (s,t,b)]``, the sum over ``j in Y act m_i``
    and copies ``e`` of ``m_l`` in ``F(m_j)``; ``L`` and ``L'`` are the source
    and target L-symbols.  Only admissible paths are walked.
    """
    src, dst, mult = ft.src, ft.dst, ft.on_simples
    Ls, Ld, zero = src.l_symbol, dst.l_symbol, ft.field.zero
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
