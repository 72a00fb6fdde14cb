"""Exact arithmetic over the Gaussian integers Z + jZ.

Interference coefficients live in this ring: a decoded integer combination
only survives re-encoding if every coefficient is a Gaussian integer, and
common divisors among the coefficients waste rate because the same lattice
point can be described with a strictly coarser combination.  Everything in
this module is exact integer arithmetic; floats only appear at the rounding
boundary (``nearest_gaussian``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
import math


@dataclass(frozen=True)
class GaussianInt:
    re: int
    im: int

    def __post_init__(self):
        if not isinstance(self.re, int) or not isinstance(self.im, int):
            raise ValueError("components must be Python ints")

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        """Field norm re^2 + im^2 (an ordinary non-negative integer)."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __abs__(self) -> float:
        return math.sqrt(self.norm())

    def __str__(self) -> str:
        return f"({self.re}{self.im:+d}j)"


ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)


def _round_half_even(num: int, den: int) -> int:
    """Round num/den to the nearest integer, halves to even, exactly."""
    if den < 0:
        num, den = -num, -den
    q = num // den
    rem = num - q * den
    twice = 2 * rem
    if twice > den or (twice == den and q % 2 == 1):
        q += 1
    return q


def nearest_gaussian(z: complex) -> GaussianInt:
    """Round a complex number to the nearest Gaussian integer.

    Real and imaginary parts round independently; exact half values round
    to the even neighbour, e.g. 2.5+0.5j -> 2+0j.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"cannot round non-finite value {z!r}")
    # Python's round() on floats is round-half-to-even already.
    return GaussianInt(int(round(z.real)), int(round(z.imag)))


def _nearest_quotient(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    # a/b = a * conj(b) / norm(b), rounded componentwise without floats so
    # the Euclidean descent N(r) <= N(b)/2 is exact for huge operands too.
    num = a * b.conj()
    nb = b.norm()
    return GaussianInt(_round_half_even(num.re, nb), _round_half_even(num.im, nb))


def first_quadrant(g: GaussianInt) -> GaussianInt:
    """Unique associate with re > 0 and im >= 0 (zero maps to itself)."""
    if g.is_zero():
        return g
    for _ in range(4):
        if g.re > 0 and g.im >= 0:
            return g
        g = GaussianInt(-g.im, g.re)  # multiply by j
    raise AssertionError("unreachable: some associate lies in the first quadrant")


def ggcd(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    """Greatest common divisor, normalized to the first-quadrant associate.

    Euclidean algorithm with nearest-quotient division; the remainder norm
    at least halves each step, so termination is guaranteed.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        q = _nearest_quotient(a, b)
        a, b = b, a - q * b
    return first_quadrant(a)


def divides(d: GaussianInt, a: GaussianInt) -> bool:
    """True when d is nonzero and a/d is again a Gaussian integer."""
    if d.is_zero():
        return False
    num = a * d.conj()
    nd = d.norm()
    return num.re % nd == 0 and num.im % nd == 0


def exact_div(a: GaussianInt, d: GaussianInt) -> GaussianInt:
    """Exact quotient a/d; raises ValueError when d does not divide a."""
    if not divides(d, a):
        raise ValueError(f"{d} does not divide {a}")
    num = a * d.conj()
    nd = d.norm()
    return GaussianInt(num.re // nd, num.im // nd)


@dataclass(frozen=True)
class CoeffVector:
    """Integer coefficient vector of one decoded interference combination.

    ``entries`` is ordered over all (user, stream) pairs of the network and
    ``own_index`` marks the decoder's own stream, whose coefficient must be
    zero: the desired stream is never folded into the stage-one aggregate.
    """

    entries: tuple[GaussianInt, ...]
    own_index: int

    def __post_init__(self):
        if not 0 <= self.own_index < len(self.entries):
            raise ValueError("own_index out of range")
        if not self.entries[self.own_index].is_zero():
            raise ValueError("own-stream coefficient must be zero")

    def __len__(self) -> int:
        return len(self.entries)

    def nonzero_entries(self) -> list[GaussianInt]:
        return [e for e in self.entries if not e.is_zero()]


def common_divisor(vec: CoeffVector) -> GaussianInt | None:
    """Normalized gcd of the nonzero entries when its norm exceeds 1.

    Returns None for divisor-free vectors and for the all-zero vector (no
    stage-one decoding happens at all in that case, so there is nothing to
    reduce).
    """
    nonzero = vec.nonzero_entries()
    if not nonzero:
        return None
    g = reduce(ggcd, nonzero)
    return g if g.norm() > 1 else None


def is_divisor_free(vec: CoeffVector) -> bool:
    """True when no Gaussian integer of norm > 1 divides every nonzero entry.

    The all-zero vector counts as divisor free: it encodes "skip the
    aggregate-decoding stage", which needs no reduction.
    """
    return common_divisor(vec) is None
