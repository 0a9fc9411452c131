"""Reference oracle for the exact arithmetic of ``scalarfield``.

``scalarfield`` stores a field element as integer coefficients over one
common denominator and eliminates on the pivot row's support only.  The
reference below is the earlier implementation: an element is a tuple of
``Fraction`` coefficients reduced modulo ``p`` after every product, and
``rref`` updates every column from the pivot column on.  Property tests
require the two to agree exactly, element by element and entry by entry.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from modend import cli
from modend.scalarfield import (DivisionByZero, FieldSpec, Matrix, ZeroDivisorDetected, _degree,
                                _poly_divmod, _poly_mul, _poly_sub, _trim)

# ---------------------------------------------------------------------------
# the Fraction-tuple element


class RefField:
    """Q[x]/(p(x)) with ``p`` constant-first, reduced with Fraction rows."""

    def __init__(self, min_poly):
        coeffs = tuple(Fraction(c) for c in min_poly)
        self.min_poly = coeffs
        d = len(coeffs) - 1
        self.degree = d
        head = tuple(-c for c in coeffs[:-1])  # theta^d
        reductions = [head]
        for _ in range(d - 2):
            prev = reductions[-1]
            shifted = (Fraction(0),) + prev[:-1]
            top = prev[-1]
            reductions.append(tuple(s + top * h for s, h in zip(shifted, head)))
        self._reductions = tuple(reductions)
        self.zero = RefElement(self, (Fraction(0),) * d)
        self.one = RefElement(self, (Fraction(1),) + (Fraction(0),) * (d - 1))

    def _reduce(self, coeffs: list) -> tuple:
        """Reduce a coefficient list of length <= 2d-1 modulo p."""
        d = self.degree
        for k in range(len(coeffs) - 1, d - 1, -1):
            top = coeffs[k]
            if top:
                red = self._reductions[k - d]
                for i, r in enumerate(red):
                    if r:
                        coeffs[i] += top * r
            coeffs.pop()
        while len(coeffs) < d:
            coeffs.append(Fraction(0))
        return tuple(coeffs)


class RefElement:
    def __init__(self, field: RefField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        return RefElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return RefElement(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return RefElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * (2 * self.field.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return RefElement(self.field, self.field._reduce(prod))

    def inverse(self) -> "RefElement":
        if not self:
            raise DivisionByZero("inverse of zero")
        d = self.field.degree
        if d == 1:
            return RefElement(self.field, (1 / self.coeffs[0],))
        r0 = list(self.field.min_poly)
        r1 = _trim(list(self.coeffs))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _degree(r1) > 0:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        const = r1[0]
        inv = [c / const for c in s1]
        return RefElement(self.field, self.field._reduce(inv + [Fraction(0)] * max(0, d - len(inv))))


# ---------------------------------------------------------------------------
# dense elimination on row lists of reference elements


def ref_rref(rows: list, ncols: int):
    """Reduced row echelon form, updating every column from the pivot's on."""
    m = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= len(m):
            break
        sel = next((r for r in range(row, len(m)) if m[r][col]), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = m[row][col].inverse()
        for j in range(col, ncols):
            m[row][j] = inv * m[row][j]
        for r in range(len(m)):
            if r != row and m[r][col]:
                factor = m[r][col]
                for j in range(col, ncols):
                    m[r][j] = m[r][j] - factor * m[row][j]
        pivots.append(col)
        row += 1
    return m, pivots


def ref_inverse(field: RefField, rows: list) -> list:
    n = len(rows)
    aug = [list(r) + [field.one if j == i else field.zero for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = ref_rref(aug, 2 * n)
    if pivots != list(range(n)):
        raise DivisionByZero("singular matrix")
    return [r[n:] for r in red]


def ref_nullspace(field: RefField, rows: list, ncols: int) -> list:
    red, pivots = ref_rref(rows, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        vec = [field.zero] * ncols
        vec[j] = field.one
        for r, pc in enumerate(pivots):
            if red[r][j]:
                vec[pc] = -red[r][j]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# fields and generated data

FIELDS = {
    "Q": [0, 1],
    "Q(sqrt2)": [-2, 0, 1],
    "fib": [-1, 0, 1, 0, 1],                 # x^4 + x^2 - 1
    "x^2-1/2": ["-1/2", 0, 1],
    "x^3+x/2-1/3": ["-1/3", "1/2", 0, 1],    # no rational root: irreducible
}
PAIRS = {name: (FieldSpec(p), RefField(p)) for name, p in FIELDS.items()}
by_field = pytest.mark.parametrize("name", list(FIELDS))
# a matrix example costs about ten element examples
matrix_examples = settings(max_examples=40)

COEFF = st.one_of(st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))


def elements(field: FieldSpec):
    return st.lists(COEFF, min_size=field.degree, max_size=field.degree).map(field.element)


def sparse_elements(field: FieldSpec):
    """Elements with zero drawn half of the time, as in structure matrices."""
    return st.one_of(st.just(field.zero), elements(field))


def ref(x, rfield: RefField) -> RefElement:
    return RefElement(rfield, x.coeffs)


def ref_rows(m: Matrix, rfield: RefField) -> list:
    return [[ref(m[i, j], rfield) for j in range(m.cols)] for i in range(m.rows)]


def coeff_rows(rows: list) -> list:
    return [[e.coeffs for e in r] for r in rows]


def is_canonical(x) -> bool:
    """Integers only, a positive denominator, no common factor, and zero as 0/1."""
    ints = all(type(n) is int for n in (x.den, *x.num))
    return ints and x.den > 0 and gcd(x.den, *x.num) == 1 and (any(x.num) or x.den == 1)


def shaped(field, rows, cols):
    return st.lists(sparse_elements(field), min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: Matrix(field, rows, cols, entries))


@st.composite
def matrices(draw, field):
    return draw(shaped(field, draw(st.integers(0, 5)), draw(st.integers(1, 5))))


@st.composite
def low_rank(draw, field):
    """A product through a narrower middle: rank below both sides."""
    k = draw(st.integers(1, 2))
    rows, cols = draw(st.integers(k + 1, 5)), draw(st.integers(k + 1, 5))
    return draw(shaped(field, rows, k)) * draw(shaped(field, k, cols))


@st.composite
def monomial(draw, field):
    n = draw(st.integers(0, 5))
    perm = draw(st.permutations(range(n)))
    nonzero = elements(field).filter(bool)
    out = Matrix.zeros(field, n, n)
    for i, j in enumerate(perm):
        out[i, j] = draw(nonzero)
    return out


@st.composite
def invertible(draw, field):
    """Unit lower times upper with a nonzero diagonal: invertible, not monomial."""
    n = draw(st.integers(2, 5))
    lower, upper = Matrix.identity(field, n), Matrix.zeros(field, n, n)
    for i in range(n):
        upper[i, i] = draw(elements(field).filter(bool))
        for j in range(i + 1, n):
            upper[i, j] = draw(sparse_elements(field))
            lower[j, i] = draw(sparse_elements(field))
    upper[0, n - 1] = draw(elements(field).filter(bool))
    return lower * upper


@st.composite
def singular(draw, field):
    """Square and singular: a repeated row, or one nonzero per row in a shared column."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        out = Matrix.zeros(field, n, n)
        for i in range(n):
            out[i, col] = draw(elements(field).filter(bool))
        return out
    m = draw(shaped(field, n, n))
    scale = draw(elements(field))
    for j in range(n):
        m[n - 1, j] = scale * m[0, j]
    return m


# ---------------------------------------------------------------------------
# elements


@by_field
@given(data=st.data())
def test_ring_operations_match_the_reference(name, data):
    field, rfield = PAIRS[name]
    a, b, c = (data.draw(sparse_elements(field)) for _ in range(3))
    ra, rb = ref(a, rfield), ref(b, rfield)
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra)):
        assert is_canonical(got)
        assert ref(got, rfield) == want
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + field.zero == a and a * field.zero == field.zero and a * field.one == a
    assert a - a == field.zero and not (a - a)


@by_field
@given(data=st.data())
def test_inverse_matches_the_reference(name, data):
    field, rfield = PAIRS[name]
    a = data.draw(elements(field).filter(bool))
    inv = a.inverse()
    assert is_canonical(inv)
    assert ref(inv, rfield) == ref(a, rfield).inverse()
    assert ref(a, rfield) * ref(inv, rfield) == rfield.one
    assert a * inv == field.one
    with pytest.raises(DivisionByZero):
        field.zero.inverse()


@by_field
@given(data=st.data())
def test_equality_hash_and_truth_agree_with_the_reference(name, data):
    field, rfield = PAIRS[name]
    a, b = data.draw(sparse_elements(field)), data.draw(sparse_elements(field))
    assert (a == b) == (ref(a, rfield) == ref(b, rfield))
    assert bool(a) == bool(ref(a, rfield))
    # the same value reached by different routes is equal and hashes equal
    for x, y in ((a * b, b * a), ((a + b) - b, a), (-(-a), a),
                 (field.element(a.coeffs), a)):
        assert x == y and hash(x) == hash(y)


CORPUS_FIELDS = ["Q", "Q(sqrt2)", "fib"]   # degree 1, 2 and 4: the fields of the corpus


@pytest.mark.parametrize("name", CORPUS_FIELDS)
@given(data=st.data())
def test_kept_inverses_match_the_reference(name, data):
    """A first and a repeated inversion on a fresh field both equal the
    reference; an element with an irrational part is inverted once."""
    field, rfield = FieldSpec(FIELDS[name]), PAIRS[name][1]
    a = data.draw(elements(field).filter(bool))
    first, again = a.inverse(), a.inverse()
    for inv in (first, again):
        assert ref(inv, rfield) == ref(a, rfield).inverse()
        assert a * inv == field.one
    assert (again is first) == any(a.num[1:])
    assert len(field._inverses) == (1 if any(a.num[1:]) else 0)


def test_a_zero_divisor_raises_on_every_inversion():
    """Over the reducible x^2 the class of x has no inverse; none is kept."""
    field = FieldSpec(["0", "0", "1"])
    for _ in range(3):
        with pytest.raises(ZeroDivisorDetected):
            field.gen().inverse()
    assert field._inverses == {}


def test_a_reducible_ising_field_is_reported_as_a_zero_divisor(tmp_path):
    path = next(p for p in cli.bundled_instance_paths() if p.endswith("ising.json"))
    with open(path) as fh:
        doc = json.load(fh)
    doc["categories"]["ising"]["field"]["min_poly"] = ["0", "0", "1"]
    mutant = tmp_path / "ising.json"
    mutant.write_text(json.dumps(doc))
    result = cli.run(["validate"], cli.load([str(mutant)])).payload["result"]
    assert result["category ising"] == ["f-block-zero-divisor at (sigma, sigma, sigma, sigma)"]


# ---------------------------------------------------------------------------
# elimination and inverse


def assert_rref_matches(m: Matrix, rfield: RefField):
    red, pivots = m.rref()
    rred, rpivots = ref_rref(ref_rows(m, rfield), m.cols)
    assert pivots == rpivots
    assert coeff_rows(ref_rows(red, rfield)) == coeff_rows(rred)
    assert m.rank() == len(rpivots)
    basis = m.nullspace()
    rbasis = ref_nullspace(rfield, ref_rows(m, rfield), m.cols)
    assert [[e.coeffs for e in v.entries] for v in basis] == coeff_rows(rbasis)


@by_field
@matrix_examples
@given(data=st.data())
def test_rref_rank_and_nullspace_match_the_reference(name, data):
    field, rfield = PAIRS[name]
    assert_rref_matches(data.draw(matrices(field)), rfield)


@by_field
@matrix_examples
@given(data=st.data())
def test_rank_deficient_rref_matches_the_reference(name, data):
    field, rfield = PAIRS[name]
    m = data.draw(low_rank(field))
    assert m.rank() < min(m.rows, m.cols)
    assert_rref_matches(m, rfield)


@by_field
@matrix_examples
@given(data=st.data())
def test_inverse_of_monomial_and_general_matrices_matches_the_reference(name, data):
    field, rfield = PAIRS[name]
    m = data.draw(st.one_of(monomial(field), invertible(field)))
    inv = m.inverse()
    assert coeff_rows(ref_rows(inv, rfield)) == coeff_rows(ref_inverse(rfield, ref_rows(m, rfield)))
    assert m * inv == Matrix.identity(field, m.rows)


@by_field
@matrix_examples
@given(data=st.data())
def test_singular_matrices_raise(name, data):
    field, rfield = PAIRS[name]
    m = data.draw(singular(field))
    with pytest.raises(DivisionByZero):
        ref_inverse(rfield, ref_rows(m, rfield))
    with pytest.raises(DivisionByZero):
        m.inverse()
