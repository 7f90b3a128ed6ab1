import random
from fractions import Fraction

import pytest

from spectriple import scalars
from spectriple.scalars import QI, as_scalar, conj, is_zero, rational


def test_rational_backend_roundtrip():
    r = rational(2, 6)
    assert r == Fraction(1, 3)
    assert str(r) == "1/3"
    assert rational(Fraction(-5, 10)) == Fraction(-1, 2)


def test_qi_arithmetic_is_exact():
    a = QI(Fraction(1, 3), Fraction(2, 7))
    b = QI(Fraction(-4, 5), Fraction(1, 2))
    assert a + b - b == a
    assert (a * b) / b == a
    assert a * (b + b) == a * b + a * b
    # no drift: a third of a third, thrice
    x = QI(1)
    for _ in range(3):
        x = x * QI(Fraction(1, 3))
    assert x == QI(Fraction(1, 27))


def test_qi_multiplication_table():
    i = QI(0, 1)
    assert i * i == QI(-1)
    assert i.conjugate() == QI(0, -1)
    assert (QI(2, 3) * QI(2, -3)) == QI(13)


def test_qi_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)


def test_qi_rejects_floats():
    with pytest.raises(TypeError):
        as_scalar(0.5, exact=True)
    assert as_scalar(0.5, exact=False) == 0.5 + 0j
    assert as_scalar(QI(Fraction(1, 2)), exact=False) == 0.5 + 0j


def test_field_axioms_on_random_samples():
    rng = random.Random(7)

    def draw():
        return QI(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    for _ in range(100):
        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert conj(a * b) == conj(a) * conj(b)
        if b:
            assert (a / b) * b == a


def test_tolerance_is_global_and_guarded():
    old = scalars.get_tolerance()
    try:
        scalars.set_tolerance(1e-6)
        assert is_zero(1e-7 + 0j)
        assert not is_zero(1e-5 + 0j)
        with pytest.raises(ValueError):
            scalars.set_tolerance(0.0)
    finally:
        scalars.set_tolerance(old)


def test_exact_zero_is_exact():
    assert is_zero(QI(0, 0))
    assert not is_zero(QI(Fraction(1, 10**40)))


def _normal_form(x) -> bool:
    """int exactly when integral, the backend rational otherwise."""
    return type(x) is int if x.denominator == 1 else type(x) is scalars._RAT_TYPE


def test_integral_parts_are_ints_and_the_rest_backend_rationals():
    assert type(rational(6, 3)) is int and type(rational(Fraction(-4, 2))) is int
    assert type(rational("0")) is int and type(rational(1, 3)) is scalars._RAT_TYPE
    assert scalars.RATIONAL_ZERO == 0 and type(scalars.RATIONAL_ZERO) is int
    assert scalars.RATIONAL_ONE == 1 and type(scalars.RATIONAL_ONE) is int
    for z in (QI(Fraction(4, 2), Fraction(-3, 1)), QI(Fraction(1, 2), 0), QI("5/5", "1/3")):
        assert _normal_form(z.real) and _normal_form(z.imag)


def test_arithmetic_keeps_the_normal_form_and_matches_a_fraction_reference():
    rng = random.Random(23)

    def part():
        # half the parts integral, so int, mixed and rational operands all occur
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    def draw():
        re, im = part(), part()
        return QI(re, im), (re, im)

    def ref_mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def ref_div(x, y):
        n = y[0] * y[0] + y[1] * y[1]
        return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)

    for _ in range(300):
        (a, ra), (b, rb) = draw(), draw()
        results = [
            (a + b, (ra[0] + rb[0], ra[1] + rb[1])),
            (a - b, (ra[0] - rb[0], ra[1] - rb[1])),
            (a * b, ref_mul(ra, rb)),
            (a.conjugate(), (ra[0], -ra[1])),
            (-a, (-ra[0], -ra[1])),
            (a * 2, (2 * ra[0], 2 * ra[1])),
            (3 - a, (3 - ra[0], -ra[1])),
            (a / 2, (ra[0] / 2, ra[1] / 2)),
        ]
        if b:
            results.append((a / b, ref_div(ra, rb)))
        for got, (re, im) in results:
            assert (got.real, got.imag) == (re, im)
            assert _normal_form(got.real) and _normal_form(got.imag)


def test_int_and_fraction_parts_are_indistinguishable():
    one, one_frac = QI(1), QI(Fraction(1))
    assert type(one.real) is int and one == one_frac and one == 1
    assert hash(one) == hash(one_frac) == hash((Fraction(1), Fraction(0)))
    assert len({one, one_frac, QI(Fraction(2, 2), Fraction(0, 5))}) == 1
    assert str(one.real) == str(Fraction(1)) and repr(one) == "QI(1, 0)"
