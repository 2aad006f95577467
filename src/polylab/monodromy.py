"""Monodromy maps of a hyperbolic polycycle in the log chart.

The canonical return map along a saddle connection is x -> C x^nu, which
the log chart y = -ln x turns into the affine map y -> nu y - ln C.  A
perturbed family f_eps(x) = C x^Lambda(eps) + eps (1 + psi(x^Lambda, eps))
stays computable here for parameter values eps far below underflow: the
additive term enters through stable log-sum arithmetic.
"""

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from mpmath import mp, mpf

from .errors import (
    DegenerateExponentError,
    DomainError,
    InvalidInputError,
    ModelViolationError,
)
from .numerics import DoubleLogValue, LogValue, Precision, _absorb_cap, _check_finite, _log_sum


@dataclass(frozen=True)
class PowerMap:
    """x -> C x^nu with C > 0, nu > 0."""

    C: Any
    nu: Any

    def __post_init__(self):
        if not (mpf(self.C) > 0):
            raise InvalidInputError(f"C must be positive, got {self.C}")
        if not (mpf(self.nu) > 0):
            raise InvalidInputError(f"nu must be positive, got {self.nu}")


def apply_log(pm: PowerMap, y: LogValue, prec: Precision) -> LogValue:
    """One application in the log chart: y -> nu y - ln C."""
    with prec.work():
        if y.is_endpoint:
            return LogValue(mp.inf)
        return LogValue(mpf(pm.nu) * mpf(y.y) - mp.log(mpf(pm.C)))


def closed_iterate(pm: PowerMap, y: LogValue, n: int, prec: Precision) -> LogValue:
    """n-th iterate in closed form: nu^n y - ((1 - nu^n)/(1 - nu)) ln C.

    Requires nu != 1 (otherwise the geometric sum degenerates) and n >= 0.
    """
    if n < 0:
        raise InvalidInputError(f"iterate count must be >= 0, got {n}")
    with prec.work():
        nu = mpf(pm.nu)
        if nu == 1:
            raise DegenerateExponentError("closed iterate undefined for nu == 1")
        if n == 0:
            return LogValue(mpf(y.y))
        if y.is_endpoint:
            return LogValue(mp.inf)
        nun = nu ** n
        return LogValue(nun * mpf(y.y) - (1 - nun) / (1 - nu) * mp.log(mpf(pm.C)))


@dataclass(frozen=True)
class PerturbedPowerFamily:
    """f_eps(x) = C x^Lambda(eps) + eps (1 + psi(x^Lambda(eps), eps)).

    Lambda(eps) = Lambda0 + Lambda1 * eps is affine in the parameter;
    psi(u, eps) is a user-supplied correction with psi(0, 0) = 0 and
    values > -1 on the working domain (declared, checked on evaluation).
    psi = None means the exactly solvable model psi == 0.
    """

    C: Any
    Lambda0: Any
    Lambda1: Any = 0
    psi: Optional[Callable[[Any, Any], Any]] = None

    def __post_init__(self):
        _check_finite(self, "C", "Lambda0", "Lambda1")
        if not (mpf(self.C) > 0):
            raise InvalidInputError(f"C must be positive, got {self.C}")
        if not (0 < mpf(self.Lambda0) < 1):
            raise InvalidInputError(f"Lambda0 must lie in (0, 1), got {self.Lambda0}")

    def exponent(self, eps, prec: Precision):
        """Lambda(eps); must stay positive on the sampled parameter range."""
        with prec.work():
            lam = mpf(self.Lambda0) + mpf(self.Lambda1) * mpf(eps)
            if lam <= 0:
                raise DomainError(f"Lambda(eps) = {lam} <= 0 at eps = {mpf(eps)}")
            return lam

    def frozen(self) -> PowerMap:
        """The unperturbed map x -> C x^Lambda0."""
        return PowerMap(C=self.C, nu=self.Lambda0)


def apply_family_log(
    fam: PerturbedPowerFamily,
    eps_z: Optional[DoubleLogValue],
    y: LogValue,
    prec: Precision,
) -> LogValue:
    """One application of f_eps in the log chart.

    eps enters only through z = ln(-ln eps); eps_z = None is the eps = 0
    flag, reducing to the unperturbed power map.  The two additive terms
    of f_eps are combined by stable log-sum arithmetic, so the result is
    finite even when both x and eps underflow linear scale.
    """
    if eps_z is None or eps_z.z == mp.inf:
        return apply_log(fam.frozen(), y, prec)
    with prec.work():
        E, eps, lam = _eps_values(fam, eps_z.z, prec)
        return LogValue(_step_log(mpf(y.y), lam, mp.log(mpf(fam.C)), E, eps, fam.psi,
                                  _absorb_cap(prec)))


def _eps_values(fam: PerturbedPowerFamily, z, prec: Precision):
    """(E, eps, Lambda(eps)) from z = ln(-ln eps): E = exp(z) = -ln eps > 0 and
    eps = exp(-E), at the caller's working precision."""
    E = mp.exp(mpf(z))
    eps = mp.exp(-E)
    return E, eps, fam.exponent(eps, prec)


def _step_log(y, lam, lnC, E, eps, psi, cap):
    """f_eps at y = -ln x (+inf at x = 0) from the per-eps values lam = Lambda(eps),
    ln C and E = -ln eps, at the caller's working precision."""
    if psi is None:
        yb = E
    else:
        psival = mpf(psi(mp.exp(-lam * y), eps))
        if not psival > -1:           # NaN too
            raise ModelViolationError(
                f"psi(u, eps) = {psival} is not > -1, so the perturbation is not positive"
            )
        yb = E - mp.log(1 + psival)
    return _log_sum(lam * y - lnC, yb, cap)


def envelope_profile(
    fam: PerturbedPowerFamily,
    eps_values: Sequence[Any],
    x0,
    prec: Precision,
    x_count: int = 32,
    halved_domain: bool = False,
):
    """Per-eps minimal envelope constants.

    k_hat is the smallest k with (C - k) x^L0 <= f_eps(x) <= (C + k) x^L0
    on x_count log-spaced points of (eps, x0), or of (eps/2, x0) with
    halved_domain.  Returns [(eps, k_hat, k_hat / eps^(1-L0))]; the third
    entry staying bounded as eps shrinks is the O(eps^(1-Lambda))
    envelope scaling.
    """
    if x_count < 1:
        raise InvalidInputError(f"x_count must be >= 1, got {x_count}")
    out = []
    with prec.work():
        L0, C = mpf(fam.Lambda0), mpf(fam.C)
        lnC, cap = mp.log(C), _absorb_cap(prec)
        for eps in eps_values:
            ev = mpf(eps)
            if not (0 < ev < mpf(x0)):
                raise InvalidInputError(f"eps = {ev} outside (0, x0)")
            # eps -> z -> E -> eps' as apply_family_log takes it, once per eps
            E, eps_z, lam = _eps_values(fam, DoubleLogValue.from_eps(ev, prec).z, prec)
            llo, lhi = mp.log(ev / 2 if halved_domain else ev), mp.log(mpf(x0))
            khat = mpf(0)
            for j in range(x_count):
                x = mp.exp(llo + (lhi - llo) * mpf(j + 1) / (x_count + 1))
                y = -mp.log(x)
                yf = _step_log(y, lam, lnC, E, eps_z, fam.psi, cap)
                # |f_eps(x) / x^L0 - C| = |C (exp(L0 y - yf - ln C) - 1)|
                khat = max(khat, abs(C * mp.expm1(L0 * y - yf - lnC)))
            out.append((ev, khat, khat / ev ** (1 - L0)))
    return out
