"""Point specifications with declared arithmetic nature.

Jump locations enter the theory through the fractional parts of their
integer multiples, and the rational/irrational dichotomy decides the whole
cluster structure.  That dichotomy is undecidable on floats, so a point is
either an exact fraction p/q or one of a small set of named irrational
constants; it is never inferred from a floating-point value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

IRRATIONAL_VALUES: dict[str, float] = {
    "inv_sqrt2": 1.0 / math.sqrt(2.0),
    "sqrt2_minus_1": math.sqrt(2.0) - 1.0,
    "golden_frac": (math.sqrt(5.0) - 1.0) / 2.0,
    "e_minus_2": math.e - 2.0,
}


@dataclass(frozen=True)
class PointSpec:
    """Either an exact rational p/q or a named irrational constant in (0,1).

    For Lagrange experiments the value is the angle divided by pi; for
    Shepard experiments it is the jump abscissa itself.
    """

    p: int | None = None
    q: int | None = None
    name: str | None = None

    @classmethod
    def rational(cls, p: int, q: int) -> "PointSpec":
        if q <= 0:
            raise ValueError(f"denominator must be positive, got q={q}")
        if not 0 <= p <= q:
            raise ValueError(f"rational point p/q={p}/{q} outside [0, 1]")
        if math.gcd(p, q) != 1 and p != 0:
            raise ValueError(f"p/q={p}/{q} not in lowest terms")
        return cls(p=p, q=q)

    @classmethod
    def irrational(cls, name: str) -> "PointSpec":
        if name not in IRRATIONAL_VALUES:
            known = ", ".join(sorted(IRRATIONAL_VALUES))
            raise ValueError(f"unknown irrational preset {name!r}; presets: {known}")
        return cls(name=name)

    @classmethod
    def parse(cls, text: str) -> "PointSpec":
        """Parse "p/q" as a rational, otherwise look up an irrational preset."""
        if "/" in text:
            num, _, den = text.partition("/")
            return cls.rational(int(num), int(den))
        return cls.irrational(text)

    @property
    def is_rational(self) -> bool:
        return self.name is None

    @property
    def value(self) -> float:
        if self.is_rational:
            return self.p / self.q
        return IRRATIONAL_VALUES[self.name]

    def multiple_mod1(self, k: int) -> float:
        """Fractional part of k * value; exact integer arithmetic when rational."""
        if self.is_rational:
            return ((k * self.p) % self.q) / self.q
        return (k * self.value) % 1.0

    def require_interior(self) -> None:
        """Reject endpoint values; jump locations must lie strictly inside."""
        if self.is_rational and (self.p == 0 or self.p == self.q):
            raise ValueError(f"point {self.p}/{self.q} must lie strictly inside (0, 1)")

    def label(self) -> str:
        return f"{self.p}/{self.q}" if self.is_rational else self.name
