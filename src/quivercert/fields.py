"""Exact scalar arithmetic: prime fields GF(p) and the rationals.

Elements of GF(p) are plain ints in [0, p); rational scalars are
`fractions.Fraction` (always kept in lowest terms by the stdlib).
Scalars serialize as decimal strings like "3" or "-7/2" in every file
format this package reads or writes.
"""

from __future__ import annotations

from fractions import Fraction

MAX_PRIME = 2**31 - 1
_ZERO, _ONE = Fraction(0), Fraction(1)  # Fractions are immutable, so shared


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond 2^31 with these bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A computation field: GF(p) for a prime p < 2^31, or Q."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "prime":
            if p is None or not 2 <= p <= MAX_PRIME or not _is_prime(p):
                raise FieldError(f"not a supported prime: {p!r}")
            self.p = p
        elif kind == "rational":
            self.p = 0
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        self.kind = kind

    # -- identity / comparison ------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.kind == "rational" else f"GF({self.p})"

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime"

    # -- element arithmetic ---------------------------------------------
    # Each method branches on self.p, which is 0 for Q.
    def zero(self):
        return 0 if self.p else _ZERO

    def one(self):
        return 1 if self.p else _ONE

    def add(self, a, b):
        p = self.p
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.p
        return (a - b) % p if p else a - b

    def mul(self, a, b):
        p = self.p
        return (a * b) % p if p else a * b

    def neg(self, a):
        p = self.p
        return (-a) % p if p else -a

    def inv(self, a):
        p = self.p
        if p:
            if a % p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, p - 2, p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _ONE / a

    def from_int(self, n: int):
        p = self.p
        return n % p if p else Fraction(n)

    def element(self, value):
        """Coerce an int, Fraction or decimal string into the field."""
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, Fraction):
            p = self.p
            if p:
                den = value.denominator % p
                if den == 0:
                    raise FieldError(f"denominator of {value} vanishes mod {p}")
                return value.numerator * pow(den, p - 2, p) % p
            return value
        raise FieldError(f"cannot coerce {value!r} into {self!r}")

    # -- serialization ---------------------------------------------------
    def parse(self, text: str):
        """Parse a decimal scalar string such as "3" or "-7/2"."""
        text = text.strip()
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad scalar literal {text!r}") from exc
        return self.element(frac)

    def format(self, a) -> str:
        return str(a)


def GF(p: int) -> Field:
    return Field("prime", p)


QQ = Field("rational")


def field_from_name(name) -> Field:
    """Accept "rational", "Q", "F5"/"GF(5)" strings or {"kind":..} dicts."""
    if isinstance(name, Field):
        return name
    if isinstance(name, dict):
        if name.get("kind") == "rational":
            return QQ
        if name.get("kind") == "prime":
            return GF(int(name["p"]))
        raise FieldError(f"bad field spec {name!r}")
    if isinstance(name, str):
        text = name.strip()
        if text.lower() in ("rational", "q", "qq"):
            return QQ
        if text.upper().startswith("GF(") and text.endswith(")"):
            return GF(int(text[3:-1]))
        if text[:1].upper() == "F" and text[1:].isdigit():
            return GF(int(text[1:]))
        raise FieldError(f"bad field name {name!r}")
    raise FieldError(f"bad field spec {name!r}")


def field_name(field: Field) -> str:
    return "rational" if field.kind == "rational" else f"F{field.p}"
