"""Scalar arithmetic shared by every pencil computation.

Two carriers are supported: exact scalars (``Fraction`` and Gaussian
rationals ``QQi``) and floating complex numbers.  Which rules are used for
rank/zero decisions is controlled by a ``Mode`` value that is threaded
through the linear-algebra helpers, not by wrapping the numbers themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


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
    """Dictionary key of a pencil parameter: 'inf', the exact value, or 12 digits."""
    if is_inf(lam):
        return "inf"
    if is_exact_scalar(lam):
        return str(lam)
    z = complex(lam)
    return f"{z.real:.12g}{z.imag:+.12g}j" if z.imag else f"{z.real:.12g}"


def _mixed(method):
    """A QQi operator that also takes float and complex operands.

    Exact operands are lifted to QQi; a float or complex operand turns the
    operation into complex arithmetic (exact mode can subtract a float
    eigenvalue from a Gaussian-rational matrix).
    """

    @functools.wraps(method)
    def op(self, other):
        if isinstance(other, (float, complex)):
            return getattr(complex(self), method.__name__)(complex(other))
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return method(self, other)

    return op


@dataclass(frozen=True)
class QQi:
    """Gaussian rational a + b*i with exact Fraction components."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    # -- arithmetic -------------------------------------------------------
    @_mixed
    def __add__(self, other):
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_mixed
    def __sub__(self, other):
        return QQi(self.re - other.re, self.im - other.im)

    @_mixed
    def __rsub__(self, other):
        return QQi(other.re - self.re, other.im - self.im)

    @_mixed
    def __mul__(self, other):
        return QQi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    @_mixed
    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * other.re + self.im * other.im) / d,
                   (self.im * other.re - self.re * other.im) / d)

    @_mixed
    def __rtruediv__(self, other):
        return other / self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational) or isinstance(other, int):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"

    # -- structure --------------------------------------------------------
    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)


def _as_qqi(x):
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(Fraction(x), Fraction(0))
    return NotImplemented


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, QQi))


def near(a, b, tol: float) -> bool:
    """a == b when both are exact scalars, otherwise |a - b| <= tol."""
    if is_exact_scalar(a) and is_exact_scalar(b):
        return a == b
    return abs(complex(a) - complex(b)) <= tol


def creal(x):
    """Real part, exact for exact scalars."""
    if isinstance(x, QQi):
        return x.re
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, complex):
        return x.real
    return x


def cimag(x):
    if isinstance(x, QQi):
        return x.im
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    if isinstance(x, complex):
        return x.imag
    return 0.0


def conj(x):
    if isinstance(x, QQi):
        return x.conjugate()
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


def snap_candidates(z: complex, tol: float, dens=_SNAP_DENOMINATORS):
    """Gaussian rationals within ``tol`` of z, one per denominator bound in ``dens``.

    Both parts of z are limited to each bound in turn, so simple values like
    1/3 are recovered with their true denominator rather than a huge
    float-derived one.
    """
    z = complex(z)
    re, im = Fraction(z.real), Fraction(z.imag)
    bound = tol * max(1.0, abs(z))
    last = None
    for den in dens:
        r = re.limit_denominator(den)
        if abs(float(r) - z.real) > bound:
            continue
        cand = QQi(r, im.limit_denominator(den))
        if cand != last and abs(complex(cand) - z) <= bound:
            yield tidy(cand)
            last = cand


def convergent_denominators(z: complex, tol: float) -> list:
    """Bounds for ``snap_candidates(z, tol, ...)`` that reach every
    continued-fraction convergent within ``tol`` of either part of z, with
    denominator up to the largest ladder bound.

    A float root from a cluster of roots may be some 1e-10 off; the fixed
    ladder then passes over its true denominator (0.9988986071219667 gives
    907/908 at 1000 and 987659/988748 at 10**6, not 15418/15435), while a
    convergent still hits it.
    """
    top = _SNAP_DENOMINATORS[-1]
    bound = tol * max(1.0, abs(z))
    dens = set()
    for part in (z.real, z.imag):
        x = Fraction(part)
        p_prev, p, q_prev, q = 0, 1, 1, 0
        while True:
            a, rest = divmod(x.numerator, x.denominator)
            p_prev, p, q_prev, q = p, a * p + p_prev, q, a * q + q_prev
            if q > top:
                break
            if abs(p / q - part) <= bound:
                dens.add(q)
            if rest == 0:
                break
            x = Fraction(x.denominator, rest)
    return sorted(dens)


def format_scalar(x):
    """Canonical JSON form: rationals as strings, complex as {re, im}; a zero
    float part is +0.0, whichever sign the float operations left on it."""
    if is_inf(x):
        return "inf"
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, QQi):
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
    ValueError for anything else, a zero denominator included."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


@dataclass(frozen=True)
class Mode:
    """Arithmetic regime: 'exact' or 'float' with a relative tolerance."""

    kind: str
    eps: float = 0.0

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def tol(self) -> float:
        """The one float tolerance: ``eps``, or 1e-9 where irrational data
        forces floats on exact mode."""
        return 1e-9 if self.is_exact else self.eps

    def zero(self, value, scale: float = 1.0) -> bool:
        if self.is_exact:
            return value == 0
        return abs(complex(value)) <= self.tol * max(scale, 1.0)


EXACT = Mode("exact", 0.0)


def float_mode(eps: float = 1e-9) -> Mode:
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"float tolerance must be positive and finite, not {eps}")
    return Mode("float", eps)

