"""Precision policy and the two logarithmic working charts.

All quantities in this package are arbitrary-precision binary floats
(mpmath), rounded to nearest at a configured mantissa size.  Phase
points x in (0, 1) near a hyperbolic polycycle are handled in the
log chart y = -ln x, and parameter values eps in the double-log chart
z = ln(-ln eps); both stay moderate while x and eps underflow any
fixed-precision format.
"""

import os
from dataclasses import dataclass
from typing import Any, Optional

from mpmath import mp, mpf

from .errors import DomainError, InvalidInputError

ENV_BITS = "POLYLAB_BITS"
DEFAULT_BITS = 256
MIN_BITS = 64


def default_bits() -> int:
    raw = os.environ.get(ENV_BITS)
    if raw is None:
        return DEFAULT_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{ENV_BITS} must be an integer, got {raw!r}") from exc
    if bits < MIN_BITS:
        raise InvalidInputError(f"{ENV_BITS} must be >= {MIN_BITS}, got {bits}")
    return bits


@dataclass(frozen=True)
class Precision:
    """Working mantissa size in bits plus the associated comparison tolerance.

    tol defaults to 2**(-bits/2): half the mantissa is reserved for
    verifying identities, the other half absorbs roundoff.
    """

    bits: int = DEFAULT_BITS
    tol: Optional[Any] = None

    def __post_init__(self):
        if self.bits < MIN_BITS:
            raise InvalidInputError(f"precision must be >= {MIN_BITS} bits, got {self.bits}")
        if self.tol is None:
            object.__setattr__(self, "tol", mpf(2) ** (-(self.bits // 2)))
        elif not (0 < self.tol < mp.inf):
            raise InvalidInputError("tol must be positive and finite")

    def work(self):
        """Context manager setting the mpmath working precision."""
        return mp.workprec(self.bits)


def _check_finite(obj, *names: str) -> None:
    """Reject a NaN or infinite value in any named field of an input record."""
    for name in names:
        v = getattr(obj, name)
        if not mp.isfinite(mpf(v)):
            raise InvalidInputError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class LogValue:
    """y = -ln x for a phase point x > 0; y = +inf encodes the endpoint x = 0."""

    y: Any

    def __post_init__(self):
        if mp.isnan(self.y):
            raise InvalidInputError("LogValue must not be NaN")
        if self.y == mp.ninf:
            raise InvalidInputError("LogValue -inf (x = +inf) is outside the chart")

    @property
    def is_endpoint(self) -> bool:
        return self.y == mp.inf

    @classmethod
    def from_x(cls, x, prec: Precision) -> "LogValue":
        with prec.work():
            xv = mpf(x)
            if xv < 0:
                raise DomainError(f"phase point must be >= 0, got {xv}")
            if xv == 0:
                return cls(mp.inf)
            return cls(-mp.log(xv))

    def to_x(self, prec: Precision):
        with prec.work():
            return mpf(0) if self.is_endpoint else mp.exp(-mpf(self.y))


@dataclass(frozen=True)
class DoubleLogValue:
    """z = ln(-ln eps) for a parameter value eps in (0, 1)."""

    z: Any

    def __post_init__(self):
        if mp.isnan(self.z) or self.z in (mp.inf, mp.ninf):
            raise InvalidInputError("DoubleLogValue must be finite")

    @classmethod
    def from_eps(cls, eps, prec: Precision) -> "DoubleLogValue":
        with prec.work():
            ev = mpf(eps)
            if not (0 < ev < 1):
                raise DomainError(f"parameter must lie in (0, 1), got {ev}")
            return cls(mp.log(-mp.log(ev)))

    def to_eps(self, prec: Precision):
        with prec.work():
            return mp.exp(-mp.exp(mpf(self.z)))


def neg_log_add(y_a: LogValue, y_b: LogValue, prec: Precision) -> LogValue:
    """Return -ln(exp(-y_a) + exp(-y_b)) without leaving the log chart.

    Computed as min - ln(1 + exp(-|y_a - y_b|)), which never overflows;
    once the gap exceeds the mantissa size the smaller term is absorbed
    and the result equals min(y_a, y_b) exactly at working precision.
    """
    with prec.work():
        ya, yb = mpf(y_a.y), mpf(y_b.y)
        if mp.inf in (ya, yb):
            return LogValue(min(ya, yb))
        return LogValue(_log_sum(ya, yb, _absorb_cap(prec)))


def _absorb_cap(prec: Precision):
    """Gap beyond which the smaller mass of a log sum is below the last bit."""
    return prec.bits * mp.log(2) + 2


def _log_sum(ya, yb, cap):
    """-ln(exp(-ya) + exp(-yb)) at the caller's working precision; past the cap the
    smaller of ya, yb is returned as is (so one +inf is absorbed; two give NaN)."""
    lo, hi = (ya, yb) if ya <= yb else (yb, ya)
    gap = hi - lo
    if gap > cap:
        return lo
    with mp.extraprec(16):
        corr = mp.log(1 + mp.exp(-gap))
    return lo - corr


def _nearest(x, step):
    """(k, x - k step) with k = nint(x / step): the nearest multiple of step to x,
    at the caller's working precision."""
    k = int(mp.nint(x / step))
    return k, x - k * step
