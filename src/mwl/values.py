"""Exact extended values of weak lengths and their Folner ratios.

A LengthValue is one of

  * log-of-count: the value log(n) of a positive integer count n,
  * rational: an exact Fraction,
  * infinity.

Log values are stored as the count itself, so log 4 = log 2 + log 2 is
the integer identity 4 = 2 * 2 and never touches floating point.  Values
of the log and rational kinds are never mixed: every weak length fixes
one kind, and infinity absorbs within either.

MeanRatio is a LengthValue divided by a positive integer (a Folner set
size); comparisons cross-multiply, so log(a)/m <= log(b)/n becomes the
exact integer test a^n <= b^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

LOG = "log"
RATIONAL = "rational"
INFINITY = "infinity"


@dataclass(frozen=True)
class LengthValue:
    kind: str
    count: int | None = None
    q: Fraction | None = None

    @staticmethod
    def log_count(n: int) -> "LengthValue":
        if n < 1:
            raise DomainError("log-of-count needs a positive count")
        return LengthValue(LOG, count=n)

    @staticmethod
    def rational(q) -> "LengthValue":
        return LengthValue(RATIONAL, q=Fraction(q))

    @staticmethod
    def infinity() -> "LengthValue":
        return LengthValue(INFINITY)

    def is_zero(self) -> bool:
        return (self.kind == LOG and self.count == 1) or \
               (self.kind == RATIONAL and self.q == 0)

    def is_infinite(self) -> bool:
        return self.kind == INFINITY

    def as_float(self) -> float:
        if self.kind == LOG:
            return math.log(self.count)
        if self.kind == RATIONAL:
            return float(self.q)
        return math.inf

    def __add__(self, other: "LengthValue") -> "LengthValue":
        return value_add(self, other)

    def __str__(self):
        if self.kind == LOG:
            return f"log {self.count}"
        if self.kind == RATIONAL:
            return str(self.q)
        return "+inf"

    def to_json(self):
        if self.kind == LOG:
            return {"kind": "log", "count": self.count}
        if self.kind == RATIONAL:
            return {"kind": "rational", "num": self.q.numerator, "den": self.q.denominator}
        return {"kind": "infinity"}


def value_add(x: LengthValue, y: LengthValue) -> LengthValue:
    if x.kind == INFINITY or y.kind == INFINITY:
        return LengthValue.infinity()
    if x.kind != y.kind:
        raise DomainError(f"cannot add values of kinds {x.kind} and {y.kind}")
    if x.kind == LOG:
        return LengthValue.log_count(x.count * y.count)
    return LengthValue.rational(x.q + y.q)


def value_cmp(x: LengthValue, y: LengthValue) -> int:
    """-1, 0 or 1; exact, no floating point."""
    if x.kind == INFINITY or y.kind == INFINITY:
        xi, yi = x.kind == INFINITY, y.kind == INFINITY
        return (xi > yi) - (xi < yi)
    if x.kind != y.kind:
        raise DomainError(f"cannot compare values of kinds {x.kind} and {y.kind}")
    if x.kind == LOG:
        return (x.count > y.count) - (x.count < y.count)
    return (x.q > y.q) - (x.q < y.q)


def value_le(x: LengthValue, y: LengthValue) -> bool:
    return value_cmp(x, y) <= 0


@dataclass(frozen=True)
class MeanRatio:
    """Exact value of a LengthValue divided by a positive integer."""

    value: LengthValue
    den: int

    def __post_init__(self):
        if self.den < 1:
            raise DomainError("ratio denominator must be positive")

    @staticmethod
    def log_ratio(count: int, den: int) -> "MeanRatio":
        return MeanRatio(LengthValue.log_count(count), den)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def as_float(self) -> float:
        return self.value.as_float() / self.den

    def to_json(self):
        if self.value.kind == LOG:
            return {"kind": "log", "ratio_num": self.value.count, "ratio_den": self.den}
        if self.value.kind == RATIONAL:
            q = self.value.q / self.den
            return {"kind": "rational", "ratio_num": q.numerator, "ratio_den": q.denominator}
        return {"kind": "infinity"}

    def __str__(self):
        if self.value.kind == LOG:
            if self.den == 1:
                return f"log {self.value.count}"
            return f"log({self.value.count})/{self.den}"
        if self.value.kind == RATIONAL:
            return str(self.value.q / self.den)
        return "+inf"


def ratio_cmp(x: MeanRatio, y: MeanRatio) -> int:
    a, b = x.value, y.value
    if a.kind == INFINITY or b.kind == INFINITY:
        return value_cmp(a, b)
    if a.kind != b.kind:
        raise DomainError(f"cannot compare ratios of kinds {a.kind} and {b.kind}")
    if a.kind == LOG:
        # log(a)/m <= log(b)/n  iff  a^n <= b^m
        left = a.count ** y.den
        right = b.count ** x.den
        return (left > right) - (left < right)
    left = a.q * y.den
    right = b.q * x.den
    return (left > right) - (left < right)


def ratio_le(x: MeanRatio, y: MeanRatio) -> bool:
    return ratio_cmp(x, y) <= 0


def ratio_eq(x: MeanRatio, y: MeanRatio) -> bool:
    return ratio_cmp(x, y) == 0


def ratio_add(x: MeanRatio, y: MeanRatio) -> MeanRatio:
    a, b = x.value, y.value
    if a.kind == INFINITY or b.kind == INFINITY:
        return MeanRatio(LengthValue.infinity(), 1)
    if a.kind != b.kind:
        raise DomainError(f"cannot add ratios of kinds {a.kind} and {b.kind}")
    if a.kind == LOG:
        lcm = math.lcm(x.den, y.den)
        count = a.count ** (lcm // x.den) * b.count ** (lcm // y.den)
        return MeanRatio(LengthValue.log_count(count), lcm)
    return MeanRatio(LengthValue.rational(a.q / x.den + b.q / y.den), 1)


def ratio_min(ratios) -> MeanRatio:
    ratios = list(ratios)
    best = ratios[0]
    for r in ratios[1:]:
        if ratio_cmp(r, best) < 0:
            best = r
    return best


def render_float(x: float) -> str:
    """Human rendering with 12 significant digits; exact data stays exact."""
    if x == math.inf:
        return "inf"
    return f"{x:.12g}"
