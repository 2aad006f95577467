"""Sparkling-connection parameter sequences and their asymptotics.

A separatrix connection that a perturbation re-creates repeatedly shows
up as a parameter sequence eps_n -> 0 solving f_eps^(n+1)(0) = B(eps),
where B marks the incoming separatrix.  In double-log coordinates
z = ln(-ln eps) the sequence is asymptotically affine in n:

    z_n = -n ln L + beta + theta L^n + o(L^n),      L = Lambda(0),

with beta = ln a, theta = -t/a, t = ln C/(1 - L) and a = t - ln B.  To
all orders in L^n, z_n = -n ln L + ln(a - t L^n) up to terms of order
exp(-(1 - L) e^(z_n)).  This module solves the connection equations at
arbitrary precision and generates sequences.
"""

from dataclasses import dataclass
from typing import Any, Callable, Tuple

from mpmath import mp, mpf

from .errors import (
    BracketError,
    DegenerateExponentError,
    DomainError,
    InvalidInputError,
    ModelViolationError,
)
from .monodromy import PerturbedPowerFamily, _step_log
from .numerics import DoubleLogValue, Precision, _absorb_cap, _check_finite
from .progressions import PerturbedProgression


def _mark_terms(C, nu, B, name: str = "B"):
    """(t, a) = (ln C/(1 - nu), t - ln B) at the working precision: beta = ln a and
    theta = -t/a.  nu == 1 is degenerate, and a <= 0 means the mark is inadmissible."""
    Cv, nuv, Bv = mpf(C), mpf(nu), mpf(B)
    if nuv == 1:
        raise DegenerateExponentError("ln C/(1-nu) undefined for nu == 1")
    if Cv <= 0 or Bv <= 0:
        raise DomainError(f"mark argument needs C > 0 and {name} > 0")
    t = mp.log(Cv) / (1 - nuv)
    a = t - mp.log(Bv)
    if a <= 0:
        raise DomainError(f"mark {name} is inadmissible (ln C/(1-nu) - ln {name} = {a} <= 0); "
                          "move it toward the polycycle, e.g. with re_mark")
    return t, a


@dataclass(frozen=True)
class ConnectionProblem:
    """Connection equation f_eps^(n+1)(0) = B(eps) with B(eps) = B0 + B1 eps."""

    family: PerturbedPowerFamily
    B0: Any
    B1: Any = 0

    def __post_init__(self):
        _check_finite(self, "B0", "B1")
        if not (0 < mpf(self.B0) < 1):
            raise DomainError(f"B0 must lie in (0, 1), got {self.B0}")


def asymptotic_model(prob: ConnectionProblem, prec: Precision) -> PerturbedProgression:
    """Two-term model z_n = -n ln L + beta + theta L^n of the frozen constants
    (C, L = Lambda(0), B(0)): step -ln L, free term beta, coefficient theta, base L."""
    fam = prob.family
    with prec.work():
        L = mpf(fam.Lambda0)
        t, a = _mark_terms(fam.C, L, prob.B0)
        return PerturbedProgression(step=-mp.log(L), free=mp.log(a), coeff=-t / a, base=L)


@dataclass(frozen=True)
class ConnectionEntry:
    n: int
    z: Any
    bracket_width: Any


@dataclass(frozen=True)
class ConnectionSequence:
    entries: Tuple[ConnectionEntry, ...]

    def __len__(self):
        return len(self.entries)

    def z_values(self):
        return [e.z for e in self.entries]


# Half-width of the first bracket around the model prediction, and the
# number of times it may double before the solve gives up.
_BRACKET_RADIUS = 1
_MAX_DOUBLINGS = 60


def _orbit_gap_fn(prob: ConnectionProblem, n: int, prec: Precision) -> Callable[[Any], Any]:
    """Residual g(w) = y_final - (-ln B(eps)) at w = ln(-ln eps).

    g is increasing in w for admissible data: smaller eps pushes the
    whole orbit toward the polycycle (larger y).
    """
    fam = prob.family
    lnC = mp.log(mpf(fam.C))
    L0, L1 = mpf(fam.Lambda0), mpf(fam.Lambda1)
    B0, B1 = mpf(prob.B0), mpf(prob.B1)
    cap = _absorb_cap(prec)

    def gap(w):
        E = mp.exp(w)                 # -ln eps
        eps = mp.exp(-E)
        lam = L0 + L1 * eps
        if lam <= 0:
            raise DomainError(f"Lambda(eps) = {lam} <= 0 during solve")
        mark = B0 + B1 * eps
        if not (0 < mark < 1):
            raise DomainError(f"B(eps) = {mark} left (0, 1) during solve")
        y = mp.inf                    # x = 0
        for _ in range(n + 1):
            y = _step_log(y, lam, lnC, E, eps, fam.psi, cap)
        return y + mp.log(mark)

    return gap


def _locate_root(gap, a, ga, b, gb, margin, max_steps):
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on a bracket with
    g(a) <= 0 <= g(b).  Returns a sub-bracket [a, b] with the same signs, at most
    `margin` wide unless max_steps run out or the mantissa cannot split it.

    Each step is clamped margin/2 inside the bracket, so a one-sided run of
    secant points still shrinks it.
    """
    half = margin / 2
    side = 0                          # end replaced by the previous step
    for _ in range(max_steps):
        if b - a <= margin:
            break
        x = min(max(a - ga * (b - a) / (gb - ga), a + half), b - half)
        if not a < x < b:
            break                     # mantissa exhausted
        gx = gap(x)
        if gx == 0:
            return x, x
        if gx < 0:
            a, ga = x, gx
            if side < 0:
                gb /= 2               # b is stale: halve its value
            side = -1
        else:
            b, gb = x, gx
            if side > 0:
                ga /= 2
            side = 1
    return a, b


def _bisect_connection(prob: ConnectionProblem, n: int, prec: Precision):
    """Returns (w_root, final_bracket_width): the bracket that bisection down
    to prec.tol ends with, found with far fewer evaluations of the gap g.

    Bisection's path depends only on its starting bracket and the sign of g
    at each midpoint.  A closed-form centre c from the connection law
    z = -n ln L + ln(a - t L^n) comes first: g at c -+ margin/4 usually
    straddles the root, and each evaluated point only shrinks the bracket
    that `_locate_root` then narrows to [a, b], at most
    margin = max(tol, 2^-(bits/2)) 2^-(bits/4) wide.  Neither step moves
    the starting bracket or decides a midpoint's sign.  The halving loop then
    runs unchanged, except that a midpoint more than margin outside [a, b]
    takes its side's sign without evaluating g.  The rounding noise of g is
    far below slope x margin, so the result is bisection's to the last bit;
    flooring tol at 2^-(bits/2) keeps that true when tol is below the last
    bit of w.
    """
    with prec.work():
        model = asymptotic_model(prob, prec)
        center = model.value(n, prec)
        tol = mpf(prec.tol)
        gap = _orbit_gap_fn(prob, n, prec)
        r = mpf(_BRACKET_RADIUS)
        lo, hi = center - r, center + r
        glo, ghi = gap(lo), gap(hi)
        if glo > 0 and ghi < 0:
            raise ModelViolationError(
                f"residual decreases across initial bracket at n = {n}; "
                "family violates monotonicity in eps"
            )
        doublings = 0
        while not (glo <= 0 <= ghi):
            if doublings >= _MAX_DOUBLINGS:
                raise BracketError(
                    f"no sign change after {_MAX_DOUBLINGS} doublings at n = {n}"
                )
            r *= 2
            if glo > 0:               # root lies to the left
                hi, ghi = lo, glo
                lo = center - r
                glo = gap(lo)
            else:                     # root lies to the right
                lo, glo = hi, ghi
                hi = center + r
                ghi = gap(hi)
            doublings += 1
        margin = max(tol, mpf(2) ** -(prec.bits // 2)) * mpf(2) ** -(prec.bits // 4)
        a, ga, b, gb = lo, glo, hi, ghi
        # The connection law z = -n ln L + ln(a - t L^n), exact up to exp(-(1 - L) e^z):
        # two evaluations margin/2 apart usually straddle the root.
        c = n * model.step + model.free + mp.log1p(model.coeff * model.base ** n)
        for x in (c - margin / 4, c + margin / 4):
            if a < x < b:
                gx = gap(x)
                if gx < 0:
                    a, ga = x, gx
                else:
                    b, gb = x, gx
                    break
        a, b = _locate_root(gap, a, ga, b, gb, margin, mp.mag((hi - lo) / tol))
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break                 # mantissa exhausted
            if mid < a - margin or (mid <= b + margin and gap(mid) < 0):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2, hi - lo


def solve_connection(prob: ConnectionProblem, n: int, prec: Precision) -> DoubleLogValue:
    """Solve the n-th connection equation; returns z_n = ln(-ln eps_n).

    The equation f_eps^(n+1)(0) = B(eps) is solved as
    f_eps^n(f_eps(0)) = B(eps) with f_eps(0) = eps (1 + psi(0, eps)),
    in w = ln(-ln eps) from a bracket around the asymptotic-model
    prediction.  The result is that of bisection down to prec.tol, bit for
    bit, found by a regula falsi search and a replay of bisection's
    midpoints (`_bisect_connection`).
    """
    if n < 0:
        raise InvalidInputError(f"index must be >= 0, got {n}")
    w, _ = _bisect_connection(prob, n, prec)
    return DoubleLogValue(w)


def generate_sequence(prob: ConnectionProblem, N: int, prec: Precision) -> ConnectionSequence:
    """Solve for n = 0..N; the resulting z_n must be strictly increasing."""
    if N < 0:
        raise InvalidInputError(f"N must be >= 0, got {N}")
    entries = []
    prev = None
    for n in range(N + 1):
        w, width = _bisect_connection(prob, n, prec)
        if prev is not None and not (w > prev):
            raise ModelViolationError(f"z_{n} = {w} does not exceed z_{n-1} = {prev}")
        prev = w
        entries.append(ConnectionEntry(n=n, z=w, bracket_width=width))
    return ConnectionSequence(entries=tuple(entries))


def bracket_double_logs(prob: ConnectionProblem, n: int, z_n, k, prec: Precision):
    """Closed-form straddle of z_n from the envelope maps.

    The comparison maps (C -+ k eps^(1-L)) x^L solve their connection
    equations in closed form; transposed to double-log scale the lower
    one sits below z_n and the upper one above:

        z_lo = -n ln L + ln(-ln B(eps_n) + (1-L^n)/(1-L) ln(C - k eps_n^(1-L)))

    and symmetrically with + for z_hi.  Uses the frozen exponent L =
    Lambda(0); meaningful for the model case Lambda1 = 0, psi = 0.
    """
    with prec.work():
        L = mpf(prob.family.Lambda0)
        C = mpf(prob.family.C)
        zv = mpf(z_n.z if isinstance(z_n, DoubleLogValue) else z_n)
        eps = mp.exp(-mp.exp(zv))
        mark = mpf(prob.B0) + mpf(prob.B1) * eps
        if not (0 < mark < 1):
            raise DomainError(f"B(eps_n) = {mark} outside (0, 1)")
        kk = mpf(k) * eps ** (1 - L)
        out = []
        for sign in (-1, 1):
            Cs = C + sign * kk
            if Cs <= 0:
                raise DomainError(f"envelope constant C {'-' if sign < 0 else '+'} k eps^(1-L) = {Cs} <= 0")
            arg = -mp.log(mark) + (1 - L ** n) / (1 - L) * mp.log(Cs)
            if arg <= 0:
                raise DomainError("double-log argument nonpositive in closed-form bracket")
            out.append(-n * mp.log(L) + mp.log(arg))
        return out[0], out[1]


@dataclass(frozen=True)
class ResidualReport:
    residuals: Tuple[Any, ...]
    normalized: Tuple[Any, ...]
    tail_start: int
    verdict: str                     # "consistent" | "inconsistent"


def _residual_rows(seq: ConnectionSequence, model: PerturbedProgression, prec: Precision):
    """(entry, prediction, R_n, R_n / L^n) per entry; the last is 0 when |R_n| is
    within the entry's noise floor, its bracket width plus 16 ulp of z_n."""
    with prec.work():
        L = mpf(model.base)
        ulp = mpf(2) ** (4 - prec.bits)
        rows = []
        for e in seq.entries:
            pred = model.value(e.n, prec)
            r = mpf(e.z) - pred
            scale = L ** e.n
            q = r / scale
            floor = (mpf(e.bracket_width) + abs(mpf(e.z)) * ulp) / scale
            rows.append((e, pred, r, mpf(0) if abs(q) <= floor else q))
        return rows


def residual_analysis(
    seq: ConnectionSequence, model: PerturbedProgression, prec: Precision
) -> ResidualReport:
    """Residuals R_n = z_n - prediction and the o(L^n) consistency verdict.

    Verdict is "consistent" iff the normalized residuals |R_n| / L^n do
    not grow over the last third of the sequence (values at solver noise
    level count as zero).
    """
    if len(seq) < 8:
        raise InvalidInputError(f"need at least 8 entries, got {len(seq)}")
    rows = _residual_rows(seq, model, prec)
    with prec.work():
        norm = [abs(q) for *_, q in rows]
        k = len(norm)
        tail_start = k - max(2, k // 3)
        tail = norm[tail_start:]
        ok = all(tail[i + 1] <= tail[i] * mpf("1.05") for i in range(len(tail) - 1))
        if ok and tail[0] > 0:
            ok = tail[-1] <= tail[0]
        return ResidualReport(
            residuals=tuple(r for _, _, r, _ in rows),
            normalized=tuple(norm),
            tail_start=tail_start,
            verdict="consistent" if ok else "inconsistent",
        )
