"""Scalar arithmetic shared by every pencil computation.

Two carriers are supported: exact scalars (``Fraction``, and ``QQi``, an
element a + b sqrt(d) of a quadratic field, the Gaussian rationals at the
default d = -1) and floating complex numbers.  Exact values of one field
compute exactly, and their real parts, imaginary parts and signs are exact;
exact mode holds no float, so values of two fields with no common one, or a
float where ``quadratic_field`` asks a field, raise PreconditionError.  A
``Mode`` value threaded through the linear-algebra helpers, not a wrapper on
the numbers, sets the rules for rank/zero decisions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError


class _Infinity:
    """Projective parameter at infinity (the pencil value with no finite slope)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("projective-infinity")


INF = _Infinity()


def is_inf(x) -> bool:
    return isinstance(x, _Infinity)


def lambda_is_real(lam) -> bool:
    """A pencil parameter is real: INF, an exact real, or a float with zero imaginary part."""
    if is_inf(lam):
        return True
    if is_exact_scalar(lam):
        return cimag(lam) == 0
    return complex(lam).imag == 0


def lambda_key(lam) -> str:
    """Dictionary key of a pencil parameter: 'inf', the value in Q(i), or 12
    digits of any other."""
    if is_inf(lam):
        return "inf"
    if is_exact_scalar(lam) and getattr(lam, "d", -1) == -1:
        return str(lam)
    z = complex(lam)
    return f"{z.real:.12g}{z.imag:+.12g}j" if z.imag else f"{z.real:.12g}"


def _mixed(method):
    """A QQi operator that also takes int, Fraction, float and complex operands.

    ``method`` maps the coordinates a, b of the QQi and c, e of the other
    operand, both in one field Q(sqrt d), and d, to those of the result.  The
    field is the QQi's own, or the other operand's when the QQi is rational.
    A float or complex operand turns the operation into complex arithmetic, as
    float mode meets exact structure constants; a QQi in a field with no
    common one raises PreconditionError (``no_common_field``).
    """

    @functools.wraps(method)
    def op(self, other):
        if isinstance(other, QQi):
            d = self.d if self.im else other.d
            coords = field_coords(other, d)
            if coords is None:
                raise no_common_field(self.d, other.d)
        elif isinstance(other, (int, Fraction)):
            d, coords = self.d, (other, 0)
        elif isinstance(other, (float, complex)):
            return getattr(complex(self), method.__name__)(complex(other))
        else:
            return NotImplemented
        return QQi(*method(self.re, self.im, *coords, d), d)

    return op


def _divide(a, b, c, e, d):
    """(a + b sqrt d) / (c + e sqrt d): times the conjugate c - e sqrt d, over the
    norm c^2 - e^2 d, which is zero only at zero as d is no square."""
    n = c * c - e * e * d
    return (a * c - b * e * d) / n, (b * c - a * e) / n


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _sqrt_close(x: Fraction) -> Fraction:
    """sqrt(x) for a rational x >= 0, low by a relative 2^-120 at most:
    isqrt(p q 4^k) / (q 2^k) with p q 4^k of 240 bits or more."""
    n, q = x.numerator * x.denominator, x.denominator
    k = max(0, 121 - n.bit_length() // 2)
    return Fraction(math.isqrt(n << 2 * k), q << k)


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class QQi:
    """a + b sqrt(d) with exact Fraction coordinates a = ``re``, b = ``im`` and d
    a non-square integer, -1 by default: the Gaussian rational re + im i.

    A value with b = 0 has d = -1, and a d = +-r^2 is resolved to a rational or
    a Gaussian value, so that d is no square and a + b sqrt d is zero only at
    a = b = 0.  Two values are equal when their a, b^2 d and sign of b are:
    that needs no factoring of d, so sqrt 8, a root of x^2 - 8, equals twice
    sqrt 2, a root of x^2 - 2.  The fields of d and d' are one when d d' is a
    square.  ``conjugate`` sends b to -b, which for d < 0 is complex
    conjugation and for d > 0 the Galois conjugate.  A real value (b = 0 or
    d > 0) has an exact ``sign`` and compares exactly with real exact values.
    """

    re: Fraction
    im: Fraction
    d: int = -1

    def __post_init__(self):
        re, im, d = Fraction(self.re), Fraction(self.im), self.d
        if d != -1:
            r = math.isqrt(abs(d))
            if not im or r * r == abs(d):
                re, im, d = (re + im * r, Fraction(0), -1) if d > 0 else (re, im * r, -1)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "d", d)

    # -- arithmetic -------------------------------------------------------
    @_mixed
    def __add__(a, b, c, e, d):
        return a + c, b + e

    __radd__ = __add__

    @_mixed
    def __sub__(a, b, c, e, d):
        return a - c, b - e

    @_mixed
    def __rsub__(a, b, c, e, d):
        return c - a, e - b

    @_mixed
    def __mul__(a, b, c, e, d):
        return a * c + b * e * d, a * e + b * c

    __rmul__ = __mul__

    @_mixed
    def __truediv__(a, b, c, e, d):
        return _divide(a, b, c, e, d)

    @_mixed
    def __rtruediv__(a, b, c, e, d):
        return _divide(c, e, a, b, d)

    def __neg__(self):
        return QQi(-self.re, -self.im, self.d)

    def __eq__(self, other):
        if isinstance(other, QQi):
            return (self.re == other.re and (self.im > 0) == (other.im > 0)
                    and self.im * self.im * self.d == other.im * other.im * other.d)
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        if self.d == -1:
            return hash((self.re, self.im))
        return hash((self.re, self.im * self.im * self.d, self.im > 0))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        """Each part correctly rounded, short of a near-tie: sqrt |d| is taken
        to 120 bits, and a real sum that would cancel is taken as
        (a^2 - b^2 d) / (a - b sqrt d)."""
        a, b, d = self.re, self.im, self.d
        if d == -1:
            return complex(float(a), float(b))
        root = _sqrt_close(b * b * abs(d)) * _sgn(b)
        if d < 0:
            return complex(float(a), float(root))
        if _sgn(a) == -_sgn(b):
            return complex(float((a * a - b * b * d) / (a - root)))
        return complex(float(a + root))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        sign = '+' if self.im >= 0 else '-'
        if self.d == -1:
            return f"({self.re}{sign}{abs(self.im)}i)"
        return f"({self.re}{sign}{abs(self.im)}*sqrt({self.d}))"

    # -- structure --------------------------------------------------------
    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im, self.d)

    def sign(self) -> int:
        """-1, 0 or 1 for a real value: the sign of a, or of b where b sqrt d
        outweighs a, b^2 d > a^2.  TypeError for a non-real value."""
        a, b = self.re, self.im
        if b and self.d < 0:
            raise TypeError(f"{self!r} is not real and has no sign")
        sa, sb = _sgn(a), _sgn(b)
        if sa * sb >= 0:
            return sa or sb
        return sa if a * a > b * b * self.d else sb

    def __lt__(self, other):
        """Exact for a real difference; NotImplemented for a float or complex
        other, PreconditionError for a QQi of a field with no common one."""
        diff = NotImplemented if isinstance(other, (float, complex)) else self.__sub__(other)
        return diff.sign() < 0 if isinstance(diff, QQi) else NotImplemented


def field_coords(x, d: int):
    """(a, b) with x = a + b sqrt d, for an exact x in Q(sqrt d); None for a QQi
    outside it.  An x in Q(sqrt d') with d d' = k^2 has sqrt d' = (k / |d|)
    sqrt d."""
    if not isinstance(x, QQi):
        return x, 0
    if not x.im or x.d == d:
        return x.re, x.im
    k2 = d * x.d
    k = math.isqrt(k2) if k2 > 0 else -1
    return (x.re, x.im * k / abs(d)) if k * k == k2 else None


def field_name(d: int) -> str:
    """Q for d = 0, Q(i) for d = -1, else Q(sqrt d)."""
    return "Q" if d == 0 else "Q(i)" if d == -1 else f"Q(sqrt {d})"


def no_common_field(d: int, e: int) -> PreconditionError:
    """The refusal of values of Q(sqrt d) and Q(sqrt e), two fields with no
    common one: exact mode holds neither their sum nor their product."""
    return PreconditionError(f"exact mode cannot hold values of {field_name(d)} and "
                             f"{field_name(e)} in one field")


def quadratic_field(values):
    """The d of one field Q(sqrt d) that holds all the exact ``values``, 0 when
    they are all rational: the field decision of the exact kernel.  A value
    that is no exact scalar, a float say, or two values in no common field
    raise PreconditionError, which names it or the two fields."""
    values = list(values)
    if {type(x) for x in values} <= {int, Fraction}:
        return 0
    d = 0
    for x in values:
        if isinstance(x, QQi):
            if x.im and x.d != d:
                if d and field_coords(x, d) is None:
                    raise no_common_field(d, x.d)
                d = d or x.d
        elif not isinstance(x, (int, Fraction)):
            raise PreconditionError(f"exact mode cannot hold the inexact value {x!r}")
    return d


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, QQi))


def near(a, b, tol: float) -> bool:
    """a == b when both are exact scalars, otherwise |a - b| <= tol."""
    if is_exact_scalar(a) and is_exact_scalar(b):
        return a == b
    return abs(complex(a) - complex(b)) <= tol


def claim(items, used: set, match):
    """The first of ``items`` whose index is not in ``used`` and that ``match``
    accepts, its index then added to ``used``; None, with ``used`` unchanged,
    when there is none.  The one partner search: a loop over ``items`` that
    adds each index it visits to ``used`` before it searches pairs each item
    with a later one."""
    for j, item in enumerate(items):
        if j not in used and match(item):
            used.add(j)
            return item
    return None


def creal(x):
    """Real part, exact for exact scalars: a + b sqrt d itself for d > 0."""
    if isinstance(x, QQi):
        return x.re if x.d < 0 else x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, complex):
        return x.real
    return x


def cimag(x):
    """Imaginary part, exact for exact scalars: b sqrt(-d) for d < 0."""
    if isinstance(x, QQi):
        return x.im if x.d == -1 else tidy(QQi(0, x.im, -x.d)) if x.d < 0 else Fraction(0)
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    if isinstance(x, complex):
        return x.imag
    return 0.0


def conj(x):
    """Complex conjugate: a real QQi (d > 0) is its own."""
    if isinstance(x, QQi):
        return x.conjugate() if x.d < 0 else x
    if isinstance(x, (int, Fraction)):
        return x
    return complex(x).conjugate()


def tidy(x):
    """A scalar in normal form: a real QQi as its Fraction, so that real pencils
    stay rational, and an int as a Fraction; anything else as it is."""
    if isinstance(x, QQi):
        return x.re if x.im == 0 else x
    return Fraction(x) if isinstance(x, int) else x


_SNAP_DENOMINATORS = (1, 2, 12, 60, 1000, 10 ** 6, 10 ** 9)


def snap(z: complex, tol: float):
    """The Gaussian rationals within tol * max(1, |z|) of z, one at each
    denominator bound of the ladder ``_SNAP_DENOMINATORS`` that has one, the
    simplest first, each once.

    Both parts of z are limited to each bound in turn, so simple values like
    1/3 are recovered with their true denominator rather than a huge
    float-derived one; a caller that can check a candidate exactly takes the
    first that passes, so that 1/1000 does not stand in for 1/1001.
    """
    z = complex(z)
    re, im = Fraction(z.real), Fraction(z.imag)
    last = None
    for den in _SNAP_DENOMINATORS:
        cand = tidy(QQi(re.limit_denominator(den), im.limit_denominator(den)))
        if cand != last and abs(complex(cand) - z) <= tol * max(1.0, abs(z)):
            last = cand
            yield cand


def format_scalar(x):
    """Canonical JSON form: rationals as strings, complex as {re, im}, of two
    strings in Q(i) and of two floats otherwise; a zero float part is +0.0,
    whichever sign the float operations left on it."""
    if is_inf(x):
        return "inf"
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, QQi) and x.d == -1:
        if x.im == 0:
            return str(x.re)
        return {"re": str(x.re), "im": str(x.im)}
    z = complex(x)
    re, im = z.real + 0.0, z.imag + 0.0      # -0.0 + 0.0 is +0.0
    return re if im == 0 else {"re": re, "im": im}


def parse_int(value) -> int:
    """int(value) of a JSON number or string; ValueError where int() would truncate."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)) \
            or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def parse_rational(text) -> Fraction:
    """Parse 'p/q', integer, or decimal strings to an exact Fraction;
    ValueError for anything else, a zero denominator and a JSON boolean included."""
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


@dataclass(frozen=True)
class Mode:
    """Arithmetic regime: 'exact', or 'float' with ``tol``, the one float
    tolerance, relative.  Exact mode's ``tol`` is 0: it holds no float, and a
    value it cannot hold exactly is refused where it would be born."""

    kind: str
    tol: float = 0.0

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def zero(self, value, scale: float = 1.0) -> bool:
        if self.is_exact:
            return value == 0
        return abs(complex(value)) <= self.tol * max(scale, 1.0)


EXACT = Mode("exact")


def float_mode(eps: float = 1e-9) -> Mode:
    if not 0 < eps < 1:
        raise ValueError(f"float tolerance must be in (0, 1), not {eps}")
    return Mode("float", eps)

