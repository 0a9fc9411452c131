import json
import random
from fractions import Fraction

import pytest

from helpers import _instance_path
from modend import blocks, cli
from modend.common import ParseError
from modend.scalarfield import (
    DimensionMismatch, DivisionByZero, FieldSpec, Matrix, ZeroDivisorDetected, subspace_equal,
)

Q = FieldSpec([0, 1])                 # Q[x]/(x): plain rationals
SQRT5 = FieldSpec([-5, 0, 1])         # Q[x]/(x^2 - 5)
QUART = FieldSpec([-1, 0, 1, 0, 1])   # Q[x]/(x^4 + x^2 - 1)


def rand_elem(field, rng, span=6):
    return field.element([rng.randint(-span, span) for _ in range(field.degree)])


def test_sqrt5_inverse_of_generator():
    theta = SQRT5.gen()
    # theta * theta = 5 forces 1/theta = theta/5
    assert SQRT5.one / theta == SQRT5.element([0, "1/5"])


def test_quartic_inverse_of_generator():
    # derived oracle: theta * (theta^3 + theta) = theta^4 + theta^2 = 1
    theta = QUART.gen()
    cand = QUART.element([0, 1, 0, 1])
    assert theta * cand == QUART.one
    assert QUART.one / theta == cand


def test_add_zero_identity():
    rng = random.Random(0)
    for field in (Q, SQRT5, QUART):
        a = rand_elem(field, rng)
        assert a + field.zero == a


@pytest.mark.parametrize("field", [Q, SQRT5, QUART])
def test_field_axioms_random(field):
    rng = random.Random(17)
    for _ in range(40):
        a, b, c = (rand_elem(field, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a * b) / b == a


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        SQRT5.one / SQRT5.zero


def test_zero_divisor_detected():
    reducible = FieldSpec([-1, 0, 1])  # x^2 - 1 = (x-1)(x+1)
    theta = reducible.gen()
    with pytest.raises(ZeroDivisorDetected):
        (theta - reducible.one).inverse()


def test_rejects_degree_zero_and_nonmonic():
    with pytest.raises(ValueError):
        FieldSpec([1])
    with pytest.raises(ValueError):
        FieldSpec([0, 2])


def mat(field, rows):
    return Matrix.from_rows(field, [[field.rational(v) for v in row] for row in rows])


def test_nullspace_rank_one():
    m = mat(Q, [[1, 1], [2, 2]])
    basis = m.nullspace()
    assert len(basis) == 1
    # documented convention: free coordinate = 1
    assert basis[0].entries == [Q.rational(-1), Q.rational(1)]


def test_nullspace_identity_empty():
    assert Matrix.identity(Q, 3).nullspace() == []


def test_nullspace_no_constraints():
    m = Matrix.zeros(Q, 0, 4)
    basis = m.nullspace()
    assert len(basis) == 4
    for j, v in enumerate(basis):
        assert v[j, 0] == Q.one


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(25):
        rows = rng.randint(0, 5)
        cols = rng.randint(1, 5)
        m = mat(Q, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]) \
            if rows else Matrix.zeros(Q, 0, cols)
        basis = m.nullspace()
        assert m.rank() + len(basis) == cols
        for v in basis:
            assert (m * v).is_zero()


def test_subspace_equal_basics():
    e1 = Matrix.column(Q, [Q.one, Q.zero])
    e1_scaled = Matrix.column(Q, [Q.rational(2), Q.zero])
    e2 = Matrix.column(Q, [Q.zero, Q.one])
    assert subspace_equal([e1], [e1_scaled])
    assert not subspace_equal([e1], [e2])
    assert subspace_equal([], [])


def test_subspace_equal_dimension_mismatch():
    v2 = Matrix.column(Q, [Q.one, Q.zero])
    v3 = Matrix.column(Q, [Q.one, Q.zero, Q.zero])
    with pytest.raises(DimensionMismatch):
        subspace_equal([v2], [v3])


def test_subspace_equal_equivalence_relation():
    rng = random.Random(11)
    ambient = 4

    def rand_basis():
        k = rng.randint(0, 3)
        return [Matrix.column(Q, [Q.rational(rng.randint(-2, 2)) for _ in range(ambient)])
                for _ in range(k)]

    for _ in range(20):
        a, b, c = rand_basis(), rand_basis(), rand_basis()
        assert subspace_equal(a, a)
        assert subspace_equal(a, b) == subspace_equal(b, a)
        if subspace_equal(a, b) and subspace_equal(b, c):
            assert subspace_equal(a, c)


def test_matrix_inverse():
    m = mat(SQRT5, [[1, 1], [0, 1]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(SQRT5, 2)
    with pytest.raises(DivisionByZero):
        mat(Q, [[1, 1], [2, 2]]).inverse()


REDUCIBLE = FieldSpec([-1, 0, 1])     # Q[x]/(x^2 - 1): 1 + x divides zero


@pytest.mark.parametrize("perm", [(1, 0), (1, 2, 0)], ids=["2x2", "3x3"])
@pytest.mark.parametrize("entry, error", [(REDUCIBLE.one + REDUCIBLE.gen(), ZeroDivisorDetected),
                                          (REDUCIBLE.zero, DivisionByZero)],
                         ids=["zero-divisor", "singular"])
def test_a_permutation_shaped_matrix_fails_by_its_one_bad_entry(perm, entry, error):
    """A permutation matrix with one entry replaced by ``1 + x`` over
    Q[x]/(x^2 - 1) is a zero divisor, and with one replaced by 0 is
    singular: elimination raises each, and ``block_failure`` names each."""
    n, one = len(perm), REDUCIBLE.one
    rows = [[one if j == perm[i] else REDUCIBLE.zero for j in range(n)] for i in range(n)]
    rows[n - 1][perm[n - 1]] = entry
    m = Matrix.from_rows(REDUCIBLE, rows)
    with pytest.raises(error):
        m.inverse()
    labels = list(range(n))
    assert blocks.block_failure(lambda: blocks.inverse_entries(labels, labels, m)) == (
        "zero-divisor" if error is ZeroDivisorDetected else "singular")


# strings at the edge of the plain ``[-]digits[/digits]`` form that
# ``FieldSpec.rational`` reads without ``Fraction``: empty or signed
# denominators, a zero denominator, other signs, padding, leading zeros,
# decimals, exponents, underscores, non-ASCII digits ("٣" is a decimal digit,
# "²" only passes ``str.isdigit``) and stray signs or slashes
PLAIN_EDGES = ("3/", "/3", "1/-2", "4/-0", "3/0", "0/0", "-0", "+3", " 3", "3 ", "007",
               "00/07", "-12/8", "1.5", "1e2", "1_0", "\u0663", "\u00b2", "", "-", "--1",
               "- 1", "1/2/3")


@pytest.mark.parametrize("field", [Q, SQRT5])
@pytest.mark.parametrize("text", PLAIN_EDGES)
def test_a_scalar_string_reads_as_its_fraction(field, text):
    """``rational(s)`` is ``rational(Fraction(s))``, or raises the exception
    ``Fraction(s)`` raises, with the same message."""
    try:
        want = field.rational(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            FieldSpec(field.min_poly).rational(text)
        assert str(got.value) == str(exc)
        return
    got = FieldSpec(field.min_poly).rational(text)
    assert (got.num, got.den) == (want.num, want.den)


def test_a_zero_denominator_is_the_same_parse_error(tmp_path):
    """An F-symbol ``"3/0"`` is refused at load with ``Fraction``'s error."""
    doc = json.loads(open(_instance_path("fib"), encoding="utf-8").read())
    doc["categories"]["fib"]["f_symbols"][0]["value"] = "3/0"
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as got:
        cli.load([str(path)])
    assert str(got.value) == "category 'fib': ZeroDivisionError: Fraction(3, 0)"
