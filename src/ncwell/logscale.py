"""Sign/log-magnitude scalars for overflow-free products of huge factors.

Matrix elements of the well mix factors like sqrt(n!(n+m)!), e^w and
w^(+-m/2) with n up to a few thousand; no native float survives that.
A LogScaled value carries the sign separately from ln|x| so that products
and quotients are plain additions, while sums fall back to a guarded
log-sum-exp.  Plain floats are extracted only at final ratios.  Per-lane
code that would build thousands of these objects carries the same
(sign, logmag) pairs as plain numbers instead, through log_add and
log_to_float, which the class's own addition and extraction call.
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
        return log_to_float(self.sign, self.logmag)

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
        b = _coerce(other)
        return LogScaled.from_log(*log_add(self.sign, self.logmag, b.sign, b.logmag))

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


def log_add(sa: int, la: float, sb: int, lb: float) -> tuple[int, float]:
    """(sign, logmag) of sa e^la + sb e^lb: LogScaled addition on plain floats.

    Signs are -1, 0 or +1, and a zero is (0, 0.0).  Lane code that carries
    (sign, logmag) pairs calls this, so its sums keep LogScaled's bits.
    """
    if sa == 0:
        return sb, lb
    if sb == 0:
        return sa, la
    # canonical operand order makes addition exactly commutative
    if (lb, sb) > (la, sa):
        sa, la, sb, lb = sb, lb, sa, la
    gap = la - lb
    if gap > ADD_CUTOFF:
        return sa, la
    if sa == sb:
        return sa, la + math.log1p(math.exp(-gap))
    if gap == 0.0:
        return 0, 0.0
    # 1 - e^{-gap} through expm1: no cancellation for tiny gaps
    return sa, la + math.log(-math.expm1(-gap))


def log_to_float(sign: int, logmag: float) -> float:
    """sign * e^logmag as a float: +-inf above float range, 0.0 below it (LogScaled.to_float)."""
    if sign == 0:
        return 0.0
    if logmag > _EXP_MAX:
        return math.inf * sign
    if logmag < -745.0:
        return 0.0
    return sign * math.exp(logmag)


def ls_exp(logx: float, sign: int = 1) -> LogScaled:
    """Shorthand for sign * e^logx."""
    return LogScaled.from_log(sign, logx)
