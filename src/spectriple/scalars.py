"""Scalar backends: exact Gaussian rationals and complex floats.

Exact mode is the default everywhere a theorem is at stake: the identities
being verified are of the form "this matrix is exactly zero", and a numeric
tolerance would turn them into judgement calls.  Float mode exists for large
randomized runs; there a single global tolerance governs every equality
check.

Rational arithmetic uses gmpy2 when available and falls back to
fractions.Fraction otherwise.  Both backends parse and print the same "p/q"
strings, so documents are portable.

Normalisation invariant: an exact rational that is an integer is a Python
int, any other one is the backend rational.  rational() returns this form and
every QI real and imaginary part is in it.  Nearly every entry here is 0, +-1
or +-i, so exact arithmetic is mostly int arithmetic; int and an integral
Fraction agree in ==, hash and str, so reports and documents cannot tell them
apart.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    def _backend(value, den=None):
        if den is not None:
            return _mpq(value, den)
        if isinstance(value, Fraction):
            return _mpq(value.numerator, value.denominator)
        return _mpq(value)

    _RAT_TYPE = type(_mpq())
except ImportError:  # pragma: no cover - exercised only without gmpy2
    def _backend(value, den=None):
        if den is not None:
            return Fraction(value, den)
        return Fraction(value)

    _RAT_TYPE = Fraction


def _normal(x):
    """x in normal form: int when integral, the backend rational otherwise."""
    if type(x) is int:
        return x
    if type(x) is not _RAT_TYPE:
        x = _backend(x)
    return int(x.numerator) if x.denominator == 1 else x


def rational(value=0, den=None):
    """Exact rational from int, Fraction, rational string or pair, in normal form."""
    return _normal(_backend(value, den))


RATIONAL_ZERO = 0
RATIONAL_ONE = 1
RATIONAL_TYPES = (int, Fraction, _RAT_TYPE)

# Global tolerance for float mode.  It is deliberately a module-level value,
# never a per-call argument: mixing tolerances inside one computation makes
# rank decisions inconsistent.
_tolerance = 1e-10


def set_tolerance(tau: float) -> None:
    global _tolerance
    if not 0 < tau < math.inf:
        raise ValueError("tolerance must be positive and finite")
    _tolerance = float(tau)


def get_tolerance() -> float:
    return _tolerance


class QI:
    """Gaussian rational: a complex number with exact rational re/im parts.

    Arithmetic is closed, associative and free of rounding; equality is
    decidable.  Mirrors the attribute API of builtin complex (.real, .imag,
    .conjugate()) so generic code does not care which backend it got.  Both
    parts are kept in normal form (see the module docstring).
    """

    __slots__ = ("real", "imag")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "real", re if type(re) is int else _normal(re))
        object.__setattr__(self, "imag", im if type(im) is int else _normal(im))

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

    def conjugate(self) -> "QI":
        return QI(self.real, -self.imag)

    def __add__(self, other):
        if isinstance(other, QI):
            return QI(self.real + other.real, self.imag + other.imag)
        if isinstance(other, RATIONAL_TYPES):
            return QI(self.real + other, self.imag)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QI):
            return QI(self.real - other.real, self.imag - other.imag)
        if isinstance(other, RATIONAL_TYPES):
            return QI(self.real - other, self.imag)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return QI(other - self.real, -self.imag)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QI):
            a, b, c, d = self.real, self.imag, other.real, other.imag
            return QI(a * c - b * d, a * d + b * c)
        if isinstance(other, RATIONAL_TYPES):
            return QI(self.real * other, self.imag * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return QI(div(self.real, other), div(self.imag, other))
        if isinstance(other, QI):
            n = other.real * other.real + other.imag * other.imag
            if n == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            a, b, c, d = self.real, self.imag, other.real, -other.imag
            return QI(div(a * c - b * d, n), div(a * d + b * c, n))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return QI(other) / self
        return NotImplemented

    def __neg__(self):
        return QI(-self.real, -self.imag)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, QI):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, RATIONAL_TYPES):
            return self.imag == 0 and self.real == other
        return NotImplemented

    def __hash__(self):
        return hash((self.real, self.imag))

    def __bool__(self):
        return self.real != 0 or self.imag != 0

    def __repr__(self):
        return f"QI({self.real}, {self.imag})"

    def to_complex(self) -> complex:
        return complex(float(self.real), float(self.imag))


QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)


def as_scalar(value, exact: bool = True):
    """Coerce a number into the requested backend's carrier type."""
    if exact:
        if isinstance(value, QI):
            return value
        if isinstance(value, RATIONAL_TYPES):
            return QI(value)
        if isinstance(value, complex):
            raise TypeError("cannot coerce an inexact complex into exact mode")
        if isinstance(value, float):
            raise TypeError("cannot coerce a float into exact mode; pass a Fraction")
        raise TypeError(f"unsupported scalar {value!r}")
    if isinstance(value, complex):
        return value
    if isinstance(value, QI):
        return value.to_complex()
    if isinstance(value, (int, float, Fraction, _RAT_TYPE)):
        return complex(value)
    raise TypeError(f"unsupported scalar {value!r}")


def conj(z):
    """Complex conjugate, also defined on real scalar types."""
    if isinstance(z, (QI, complex)):
        return z.conjugate()
    return z


def is_zero(z) -> bool:
    """Equality with zero: exact for rationals/QI, tolerance for floats."""
    if isinstance(z, QI):
        return not z
    if isinstance(z, (complex, float)):
        return abs(z) <= _tolerance
    return z == 0


def is_exact(z) -> bool:
    return isinstance(z, (QI, *RATIONAL_TYPES))


def abs_float(z) -> float:
    """|z| as a float, for residual reporting in either mode."""
    if isinstance(z, QI):
        return abs(z.to_complex())
    return abs(z)


def div(a, b):
    """Division that keeps integer inputs exact (int/int would give a float)."""
    if isinstance(a, int) and isinstance(b, int):
        return rational(a, b)
    return a / b


def real_part(z):
    if isinstance(z, (QI, complex)):
        return z.real
    return z


def imag_part(z):
    if isinstance(z, (QI, complex)):
        return z.imag
    return z * 0
