"""Sign/log-magnitude scalars for overflow-free products of huge factors.

Matrix elements of the well mix factors like sqrt(n!(n+m)!), e^w and
w^(+-m/2) with n up to a few thousand; no native float survives that.
A LogScaled value carries the sign separately from ln|x| so that products
and quotients are plain additions, while sums fall back to a guarded
log-sum-exp.  Plain floats are extracted only at final ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Beyond this gap in ln-magnitude the smaller addend is below one ulp of the
# larger for every representable double, so addition returns the larger
# operand unchanged.
ADD_CUTOFF = 745.0

_EXP_MAX = 709.0  # math.exp overflows just above this


@dataclass(frozen=True)
class LogScaled:
    """A real number stored as sign * exp(logmag).

    sign is -1, 0 or +1; logmag is ln|x| and is meaningless when sign == 0.
    """

    sign: int
    logmag: float

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_float(x: float) -> "LogScaled":
        if x == 0.0:
            return ZERO
        if not math.isfinite(x):
            raise ValueError("cannot represent non-finite value")
        return LogScaled(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(sign: int, logmag: float) -> "LogScaled":
        if sign == 0:
            return ZERO
        if sign not in (-1, 1):
            raise ValueError("sign must be -1, 0 or +1")
        return LogScaled(sign, logmag)

    # -- extraction ---------------------------------------------------
    def to_float(self) -> float:
        """Plain float value; +-inf when the magnitude exceeds float range."""
        if self.sign == 0:
            return 0.0
        if self.logmag > _EXP_MAX:
            return math.inf * self.sign
        if self.logmag < -745.0:
            return 0.0
        return self.sign * math.exp(self.logmag)

    def is_zero(self) -> bool:
        return self.sign == 0

    # -- arithmetic ---------------------------------------------------
    def __mul__(self, other: "LogScaled | float | int") -> "LogScaled":
        other = _coerce(other)
        if self.sign == 0 or other.sign == 0:
            return ZERO
        return LogScaled(self.sign * other.sign, self.logmag + other.logmag)

    __rmul__ = __mul__

    def __truediv__(self, other: "LogScaled | float | int") -> "LogScaled":
        other = _coerce(other)
        if other.sign == 0:
            raise ZeroDivisionError("LogScaled division by zero")
        if self.sign == 0:
            return ZERO
        return LogScaled(self.sign * other.sign, self.logmag - other.logmag)

    def __add__(self, other: "LogScaled | float | int") -> "LogScaled":
        a, b = self, _coerce(other)
        if a.sign == 0:
            return b
        if b.sign == 0:
            return a
        # canonical operand order makes addition exactly commutative
        if (b.logmag, b.sign) > (a.logmag, a.sign):
            a, b = b, a
        gap = a.logmag - b.logmag
        if gap > ADD_CUTOFF:
            return a
        if a.sign == b.sign:
            return LogScaled(a.sign, a.logmag + math.log1p(math.exp(-gap)))
        if gap == 0.0:
            return ZERO
        # 1 - e^{-gap} through expm1: no cancellation for tiny gaps
        return LogScaled(a.sign, a.logmag + math.log(-math.expm1(-gap)))

    __radd__ = __add__

    def __sub__(self, other: "LogScaled | float | int") -> "LogScaled":
        return self + (-_coerce(other))

    def __rsub__(self, other: "LogScaled | float | int") -> "LogScaled":
        return _coerce(other) + (-self)

    def __neg__(self) -> "LogScaled":
        if self.sign == 0:
            return ZERO
        return LogScaled(-self.sign, self.logmag)

    def __abs__(self) -> "LogScaled":
        if self.sign == 0:
            return ZERO
        return LogScaled(1, self.logmag)

    # -- ordering (by real value) --------------------------------------
    def _key(self):
        # maps to a totally ordered (sign, signed magnitude) pair
        return (self.sign, self.sign * self.logmag if self.sign else 0.0)

    def __lt__(self, other):
        return self._key() < _coerce(other)._key()

    def __le__(self, other):
        return self._key() <= _coerce(other)._key()

    def __gt__(self, other):
        return self._key() > _coerce(other)._key()

    def __ge__(self, other):
        return self._key() >= _coerce(other)._key()

    def __repr__(self):
        if self.sign == 0:
            return "LogScaled(0)"
        return f"LogScaled({'+' if self.sign > 0 else '-'}exp({self.logmag:.6g}))"


ZERO = LogScaled(0, 0.0)
ONE = LogScaled(1, 0.0)


def _coerce(x) -> LogScaled:
    if isinstance(x, LogScaled):
        return x
    return LogScaled.from_float(float(x))


def ls_exp(logx: float, sign: int = 1) -> LogScaled:
    """Shorthand for sign * e^logx."""
    return LogScaled.from_log(sign, logx)
