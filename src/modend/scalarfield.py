"""Exact arithmetic in a number field Q[x]/(p(x)) and exact linear algebra over it.

A scalar is stored as integer coefficients over one positive common
denominator, ``(n_0 + n_1 theta + ... + n_(d-1) theta^(d-1)) / den``, in the
power basis of ``Q[x]/(p(x))`` with ``p`` monic of degree ``d`` (the
``nf_elem`` layout; Cohen, *A Course in Computational Algebraic Number
Theory*, GTM 138).  The form is canonical: ``gcd(den, n_0, ..., n_(d-1)) = 1``
and zero is ``(0, ..., 0) / 1``, so equality, hashing and truth compare
integers only.  A product accumulates the integer product polynomial and folds
``theta^d .. theta^(2d-2)`` back with the field's reduction rows, which are
integers over one denominator ``R`` (``R = 1`` whenever ``p`` has integer
coefficients); one gcd then normalises the result.  Irreducibility of ``p`` is
a trust assumption on instance files: it is never verified up front, and a
reducible modulus surfaces lazily as :class:`ZeroDivisorDetected` when an
inversion hits a nontrivial gcd.  A rational element is inverted by swapping
its numerator and denominator.  An element with an irrational part is
inverted by the extended Euclid in Q[x] once per field: the field keeps each
such inverse, keyed by the element's canonical ``(num, den)``, so every later
inversion of an equal element returns the kept one.  A zero divisor is never
kept, so each inversion of one raises again.

Matrices are stored dense.  Elimination works on row lists and touches only
the pivot row's nonzero columns, both when it scales the pivot row and when it
clears the pivot column from the other rows.  Echelon pivoting is
deterministic (leftmost nonzero column, first nonzero row from the top), and
the reduced row echelon form is unique, so every reported basis is
reproducible across runs.  Nullspace vectors follow the standard
free-variable convention: the free coordinate is set to 1 and pivot
coordinates are solved, e.g. ``[[1, 1], [2, 2]]`` yields the basis vector
``(-1, 1)``.  A square matrix is inverted by eliminating ``[A | I]``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class FieldError(ArithmeticError):
    pass


class DivisionByZero(FieldError):
    pass


class ZeroDivisorDetected(FieldError):
    """A nonzero element with no inverse modulo p: the modulus is reducible."""


class DimensionMismatch(ValueError):
    pass


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and ``"p/q"`` strings to an exact rational; a
    plain string (``_plain_rational``) is read without ``Fraction``'s parser."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        plain = _plain_rational(value)
        return Fraction(value) if plain is None else Fraction(*plain)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _plain_rational(text: str) -> tuple | None:
    """``(num, den)`` in lowest terms, ``den > 0``, of a ``[-]digits`` or
    ``[-]digits/digits`` string with ASCII digits and a nonzero denominator;
    None for any other string.  (``str.isdigit`` alone would pass ``"²"``,
    which ``int`` refuses.)"""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (digits.isascii() and digits.isdigit()):
        return None
    if not slash:
        return int(num), 1
    if not (den.isascii() and den.isdigit()):
        return None
    n, d = int(num), int(den)
    if not d:
        return None
    g = gcd(n, d)
    return n // g, d // g


class FieldSpec:
    """The number field Q[x]/(p(x)) with ``p`` given constant-first."""

    __slots__ = ("min_poly", "degree", "_red_rows", "_red_den", "zero", "one", "_parsed",
                 "_inverses")

    def __init__(self, min_poly: Sequence):
        coeffs = tuple(as_fraction(c) for c in min_poly)
        if len(coeffs) < 2:
            raise ValueError("min_poly must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic")
        self.min_poly = coeffs
        d = len(coeffs) - 1
        self.degree = d
        # theta^k for k = d .. 2d-2, reduced to the power basis
        head = tuple(-c for c in coeffs[:-1])  # theta^d
        reductions = [head]
        for _ in range(d - 2):
            prev = reductions[-1]
            shifted = (Fraction(0),) + prev[:-1]
            top = prev[-1]
            reductions.append(tuple(s + top * h for s, h in zip(shifted, head)))
        # the same rows as integers over one denominator, nonzero entries only
        den = lcm(*(c.denominator for row in reductions for c in row))
        self._red_den = den
        self._red_rows = tuple(tuple((i, (c * den).numerator) for i, c in enumerate(row) if c)
                               for row in reductions)
        self.zero = FieldElement(self, (0,) * d, 1)
        self.one = FieldElement(self, (1,) + (0,) * (d - 1), 1)
        self._parsed = {}
        self._inverses = {}

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec) and self.min_poly == other.min_poly)

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return f"FieldSpec({[str(c) for c in self.min_poly]})"

    def element(self, coeffs: Iterable) -> FieldElement:
        vec = [as_fraction(c) for c in coeffs]
        if len(vec) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(vec)}")
        return _from_fractions(self, vec)

    def rational(self, value) -> FieldElement:
        """``as_fraction(value)`` as an element; a string is parsed once per field.

        A plain string (``_plain_rational``) is read by ``int`` and one
        ``gcd``; any other goes through ``as_fraction``, so the syntax
        accepted and the errors raised are ``Fraction``'s.  Each string's
        element is kept, keyed by the string as given.  A non-string value
        becomes its element directly through ``as_fraction``, which refuses
        ``True`` and every other non-rational.
        """
        if type(value) is str:
            parsed = self._parsed.get(value)
            if parsed is None:
                plain = _plain_rational(value)
                if plain is None:
                    parsed = self.rational(as_fraction(value))
                else:
                    parsed = FieldElement(self, (plain[0],) + (0,) * (self.degree - 1), plain[1])
                self._parsed[value] = parsed
            return parsed
        q = as_fraction(value)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def gen(self) -> FieldElement:
        """The class of x, i.e. the generator theta."""
        if self.degree == 1:
            return self.rational(-self.min_poly[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)


class FieldElement:
    """An element of a :class:`FieldSpec`: the integers ``num`` over ``den``.

    Built only inside this module, always in canonical form (``den > 0`` and
    ``gcd(den, *num) == 1``).
    """

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: FieldSpec, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as exact rationals."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def _check(self, other: "FieldElement"):
        if self.field is not other.field and self.field != other.field:
            raise DimensionMismatch("elements of different fields")

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.field == other.field

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other):
        self._check(other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if len(a) == 1:
            if da == db:
                n, d = a[0] + b[0], da
            else:
                n, d = a[0] * db + b[0] * da, da * db
            g = gcd(n, d)
            return FieldElement(self.field, (n // g,), d // g)
        if da == db:
            return _normalized(self.field, [x + y for x, y in zip(a, b)], da)
        return _normalized(self.field, [x * db + y * da for x, y in zip(a, b)], da * db)

    def __sub__(self, other):
        self._check(other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if len(a) == 1:
            if da == db:
                n, d = a[0] - b[0], da
            else:
                n, d = a[0] * db - b[0] * da, da * db
            g = gcd(n, d)
            return FieldElement(self.field, (n // g,), d // g)
        if da == db:
            return _normalized(self.field, [x - y for x, y in zip(a, b)], da)
        return _normalized(self.field, [x * db - y * da for x, y in zip(a, b)], da * db)

    def __neg__(self):
        return FieldElement(self.field, tuple(-n for n in self.num), self.den)

    def __mul__(self, other):
        self._check(other)
        field = self.field
        one = field.one
        if self is one:
            return other
        if other is one:
            return self
        a, b = self.num, other.num
        d = len(a)
        if d == 1:
            n, den = a[0] * b[0], self.den * other.den
            g = gcd(n, den)
            return FieldElement(field, (n // g,), den // g)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        # fold theta^d .. theta^(2d-2) back: R * P_i + sum_k P_(d+k) * r_(k,i), over R
        red = field._red_den
        low = prod[:d] if red == 1 else [red * p for p in prod[:d]]
        for top, row in zip(prod[d:], field._red_rows):
            if top:
                for i, r in row:
                    low[i] += top * r
        return _normalized(field, low, self.den * other.den * red)

    def inverse(self) -> "FieldElement":
        if not self:
            raise DivisionByZero("inverse of zero")
        num, den = self.num, self.den
        if not any(num[1:]):
            sign = 1 if num[0] > 0 else -1
            return FieldElement(self.field, (sign * den,) + num[1:], sign * num[0])
        kept = self.field._inverses
        inv = kept.get((num, den))
        if inv is None:
            inv = kept[num, den] = _euclid_inverse(self)
        return inv

    def __truediv__(self, other):
        return self * other.inverse()

    def __repr__(self):
        names = {0: "", 1: "*t"}
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                suffix = names.get(i, f"*t^{i}")
                terms.append(f"{c}{suffix}")
        return " + ".join(terms) if terms else "0"


def _euclid_inverse(x: FieldElement) -> FieldElement:
    """The inverse of ``x`` modulo ``p`` by the extended Euclid in Q[x]."""
    # extended Euclid for gcd(b, p) = s*b + t*p in Q[x]
    r0 = list(x.field.min_poly)
    r1 = _trim(list(x.coeffs))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _degree(r1) > 0:
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    if not r1:
        # gcd(b, p) = r0 has positive degree: p is reducible
        raise ZeroDivisorDetected("reducible min_poly detected")
    const = r1[0]
    # deg s1 < deg p, so s1 / const is already reduced
    inv = [c / const for c in s1]
    return _from_fractions(x.field, inv + [Fraction(0)] * (len(x.num) - len(inv)))


def _normalized(field: FieldSpec, num: list, den: int) -> FieldElement:
    """The element ``num / den`` (``den > 0``) with the common gcd divided out."""
    g = gcd(den, *num)
    if g == 1:
        return FieldElement(field, tuple(num), den)
    return FieldElement(field, tuple(n // g for n in num), den // g)


def _from_fractions(field: FieldSpec, coeffs: list) -> FieldElement:
    """The element with rational power-basis coefficients ``coeffs``."""
    den = lcm(*(c.denominator for c in coeffs))
    # over the lcm of reduced denominators no prime divides den and every numerator
    return FieldElement(field, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)


def _trim(poly: list) -> list:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _degree(poly: list) -> int:
    return len(poly) - 1


def _poly_divmod(num: list, den: list):
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for k in range(len(num) - len(den), -1, -1):
        coef = num[k + len(den) - 1] * inv_lead
        q[k] = coef
        if coef:
            for i, dc in enumerate(den):
                num[k + i] -= coef * dc
    return _trim(q), _trim(num)


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a: list, b: list) -> list:
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] -= bi
    return _trim(out)


class Matrix:
    """Dense row-major matrix over a fixed FieldSpec."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries: Sequence[FieldElement]):
        if len(entries) != rows * cols:
            raise DimensionMismatch("entry count does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m[i, i] = field.one
        return m

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence[FieldElement]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(field, nrows, ncols, flat)

    @classmethod
    def column(cls, field: FieldSpec, entries: Sequence[FieldElement]) -> "Matrix":
        return cls(field, len(entries), 1, list(entries))

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def __setitem__(self, key, value: FieldElement):
        i, j = key
        self.entries[i * self.cols + j] = value

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(self[i, j]) for j in range(self.cols)) for i in range(self.rows))
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, list(self.entries))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix(self.field, self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix(self.field, self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def _shape_check(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows, inner, cols = self.rows, self.cols, other.cols
        lhs, rhs = self.entries, other.entries
        zero = self.field.zero
        out = [zero] * (rows * cols)
        for i in range(rows):
            base = i * inner
            rbase = i * cols
            for k in range(inner):
                a = lhs[base + k]
                if a is zero or not a:
                    continue
                obase = k * cols
                for j in range(cols):
                    b = rhs[obase + j]
                    if b is zero or not b:
                        continue
                    slot = rbase + j
                    acc = out[slot]
                    # a slot still holding the initial zero takes the product as is
                    out[slot] = a * b if acc is zero else acc + a * b
        return Matrix(self.field, rows, cols, out)

    def transpose(self) -> "Matrix":
        out = [self.field.zero] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self[i, j]
        return Matrix(self.field, self.cols, self.rows, out)

    @classmethod
    def vstack(cls, field: FieldSpec, mats: Sequence["Matrix"], cols: int | None = None) -> "Matrix":
        if not mats:
            if cols is None:
                raise DimensionMismatch("vstack of nothing needs an explicit width")
            return cls.zeros(field, 0, cols)
        width = mats[0].cols
        flat = []
        rows = 0
        for m in mats:
            if m.cols != width:
                raise DimensionMismatch("vstack width mismatch")
            flat.extend(m.entries)
            rows += m.rows
        return cls(field, rows, width, flat)

    def rref(self):
        """Reduced row echelon form; returns ``(matrix, pivot_columns)``."""
        field, nrows, ncols = self.field, self.rows, self.cols
        flat = self.entries
        rows = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]
        pivots = []
        row = 0
        for col in range(ncols):
            if row >= nrows:
                break
            sel = next((r for r in range(row, nrows) if rows[r][col]), None)
            if sel is None:
                continue
            rows[row], rows[sel] = rows[sel], rows[row]
            prow = rows[row]
            inv = prow[col].inverse()
            # the pivot row is zero left of col, so it acts on its support only
            support = [j for j in range(col + 1, ncols) if prow[j]]
            prow[col] = field.one
            for j in support:
                prow[j] = inv * prow[j]
            for r, other in enumerate(rows):
                factor = other[col]
                if r != row and factor:
                    other[col] = field.zero
                    for j in support:
                        other[j] = other[j] - factor * prow[j]
            pivots.append(col)
            row += 1
        return Matrix(field, nrows, ncols, [e for r in rows for e in r]), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of non-square matrix")
        field, n, flat = self.field, self.rows, self.entries
        zero, one = field.zero, field.one
        aug = [e for i in range(n)
               for e in flat[i * n:(i + 1) * n] + [one if j == i else zero for j in range(n)]]
        red, pivots = Matrix(field, n, 2 * n, aug).rref()
        if pivots != list(range(n)):
            raise DivisionByZero("singular matrix")
        return Matrix(field, n, n, [red[i, n + j] for i in range(n) for j in range(n)])

    def nullspace(self) -> list:
        """Basis of the right kernel as column vectors, echelon-canonical."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for j in free:
            vec = [self.field.zero] * self.cols
            vec[j] = self.field.one
            for r, pc in enumerate(pivots):
                val = red[r, j]
                if val:
                    vec[pc] = -val
            basis.append(Matrix.column(self.field, vec))
        return basis


def subspace_equal(a: Sequence[Matrix], b: Sequence[Matrix]) -> bool:
    """Whether two lists of column vectors span the same subspace."""
    if not a and not b:
        return True
    vecs = list(a) + list(b)
    ambient = vecs[0].rows
    field = vecs[0].field
    for v in vecs:
        if v.cols != 1:
            raise DimensionMismatch("basis entries must be column vectors")
        if v.rows != ambient:
            raise DimensionMismatch("ambient dimensions differ")
    rows_a = [[v[i, 0] for i in range(ambient)] for v in a]
    rows_b = [[v[i, 0] for i in range(ambient)] for v in b]
    if not rows_a or not rows_b:
        other = rows_a or rows_b
        return Matrix.from_rows(field, other).rank() == 0
    rank_a = Matrix.from_rows(field, rows_a).rank()
    rank_b = Matrix.from_rows(field, rows_b).rank()
    if rank_a != rank_b:
        return False
    return Matrix.from_rows(field, rows_a + rows_b).rank() == rank_a
