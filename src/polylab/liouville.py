"""Constructive exponentially-Liouville approximations with explicit witnesses.

A number A admits a (gamma, u, Xi, lam; q) approximation at (n, m) when

    A - m/n  lies in  (u + [q^2 Xi lam^n, q Xi lam^n]) / (gamma n),

the segment oriented by the sign of Xi and by q vs 1.  The construction
intersects such windows over a finite schedule of thresholds N and
multipliers q by nested intervals: windows at a common anchor (n, m)
overlap when the [q^2, q] zones do, so one anchor can serve several q;
a fresh anchor needs n of order 1/width(current interval), which makes
the attainable depth precision-bound.  The precision budget is estimated
up front and the construction aborts rather than lose strict nesting.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from .errors import InvalidInputError, PrecisionError, SolverError
from .numerics import Precision, _check_finite

TRIM = mpf("0.1")          # margin carved off each side to keep nesting strict
SHARE_MIN = mpf("0.25")    # reuse an anchor only if the cut keeps this fraction
PLACE_FACTOR = mpf("2.5")  # new anchor density: n ~ PLACE_FACTOR / width
GUARD_BITS = 128


def _as_fraction(q) -> Fraction:
    if isinstance(q, float):
        raise InvalidInputError(f"multiplier {q!r} must be exact (string, int, or Fraction)")
    try:
        return Fraction(q)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad multiplier {q!r}: {exc}") from None


@dataclass(frozen=True)
class LiouvilleSpec:
    """Window parameters (gamma, u, Xi, lam) with multiplier and threshold schedules."""

    gamma: Any
    u: Any
    Xi: Any
    lam: Any
    q_list: Tuple[Fraction, ...]
    N_schedule: Tuple[int, ...]

    def __post_init__(self):
        _check_finite(self, "gamma", "u", "Xi", "lam")
        g, xi, lam = mpf(self.gamma), mpf(self.Xi), mpf(self.lam)
        if not g > 0:
            raise InvalidInputError(f"gamma must be positive, got {g}")
        if xi == 0:
            raise InvalidInputError("Xi must be nonzero")
        if not (0 < lam < 1):
            raise InvalidInputError(f"lam must lie in (0, 1), got {lam}")
        qs = tuple(_as_fraction(q) for q in self.q_list)
        for q in qs:
            if not (Fraction(1, 2) <= q < 1 or 1 < q <= 2):
                raise InvalidInputError(f"multiplier {q} outside [1/2, 1) u (1, 2]")
        object.__setattr__(self, "q_list", qs)
        Ns = tuple(self.N_schedule)
        if (not Ns or any(type(N) is not int or N <= 0 for N in Ns)
                or any(b <= a for a, b in zip(Ns, Ns[1:]))):
            raise InvalidInputError("N_schedule must be strictly increasing positive integers")
        object.__setattr__(self, "N_schedule", Ns)

    def params(self, prec: Precision):
        with prec.work():
            return mpf(self.gamma), mpf(self.u), mpf(self.Xi), mpf(self.lam)


@dataclass(frozen=True)
class Witness:
    """One certified approximation: A - m/n lies in the q-window at (n, m)."""

    n: int
    m: int
    q: Fraction
    interval: Tuple[Any, Any]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InvalidInputError("witness indices must be positive")
        lo, hi = self.interval
        if not lo < hi:
            raise InvalidInputError("witness interval must be nondegenerate after orientation")


def q_window(spec: LiouvilleSpec, n: int, m: int, q, prec: Precision) -> Tuple[Any, Any]:
    """Oriented window of admissible A for the pair (n, m) and multiplier q."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    q = _as_fraction(q)
    gamma, u, Xi, lam = spec.params(prec)
    with prec.work():
        scale = Xi * mp.power(lam, n) / (gamma * n)
        anchor = mpf(m) / n + u / (gamma * n)
        qm = mpf(q.numerator) / q.denominator
        a = anchor + qm * qm * scale
        b = anchor + qm * scale
        lo, hi = (a, b) if a < b else (b, a)
        if not lo < hi:
            raise PrecisionError(
                f"window at n={n} underflows at {prec.bits} bits",
                required_bits=required_bits(spec, n),
            )
        return lo, hi


def _log2(x) -> float:
    """log2 |x| of a nonzero mpf, also where x is beyond float range (1e400, 1e-400)."""
    return math.log2(x.man) + x.exp


def required_bits(spec: LiouvilleSpec, n: int) -> int:
    """Working precision needed to resolve windows at depth n (width ~ |Xi| lam^n / (gamma n))."""
    lam, gamma, Xi = mpf(spec.lam), mpf(spec.gamma), mpf(spec.Xi)
    return int(math.ceil(-n * _log2(lam) + _log2(gamma * n + 2) - _log2(Xi))) + GUARD_BITS


def coverage(spec: LiouvilleSpec, depth: int) -> List[Tuple[int, Fraction]]:
    """Threshold-major enumeration of (N, q) requirements."""
    cap = len(spec.N_schedule) * len(spec.q_list)
    if not 1 <= depth <= cap:
        raise InvalidInputError(f"depth must lie in [1, {cap}], got {depth}")
    pairs = [(N, q) for N in spec.N_schedule for q in spec.q_list]
    return pairs[:depth]


def estimate_requirements(spec: LiouvilleSpec, depth: int) -> Tuple[int, int]:
    """Float dry run of the nesting plan: (largest anchor n, required bits).

    Anchors are reused across consecutive requirements whenever the
    multiplier zones keep enough overlap, which is what makes depth > 1
    reachable at all; each fresh anchor multiplies the needed n roughly
    by lam^(-n_prev).  Estimates saturate at 10^9 bits.
    """
    steps = coverage(spec, depth)
    log_lam, log_gamma, lxi = (_log2(mpf(v)) * math.log10(2) for v in (spec.lam, spec.gamma, spec.Xi))
    trim, share_min, place = float(TRIM), float(SHARE_MIN), float(PLACE_FACTOR)
    log_w = math.log10(0.5)
    zone: Optional[Tuple[float, float]] = None
    anchor_n = 0
    max_n = 0
    for N, q in steps:
        qf = float(q)
        z = (min(qf * qf, qf), max(qf * qf, qf))
        if zone is not None and anchor_n > N:
            lo, hi = max(z[0], zone[0]), min(z[1], zone[1])
            if hi - lo >= share_min * (zone[1] - zone[0]):
                t = trim * (hi - lo)
                zone = (lo + t, hi - t)
                log_w = (math.log10(zone[1] - zone[0]) + lxi
                         + anchor_n * log_lam - log_gamma - math.log10(anchor_n))
                max_n = max(max_n, anchor_n)
                continue
        if -log_w > 8.0:
            return 10 ** 18, 10 ** 9
        want = place * 10.0 ** (-log_w)
        n = max(N + 1, int(math.ceil(want))) + 1
        t = trim * (z[1] - z[0])
        zone = (z[0] + t, z[1] - t)
        anchor_n = n
        max_n = max(max_n, n)
        log_w = (math.log10(zone[1] - zone[0]) + lxi
                 + n * log_lam - log_gamma - math.log10(n))
    return max_n, required_bits(spec, max_n)


def _trim(lo, hi):
    t = TRIM * (hi - lo)
    return lo + t, hi - t


def construct_A(
    spec: LiouvilleSpec,
    depth: int,
    prec: Precision,
    seed: int = 0,
) -> Tuple[Any, List[Witness]]:
    """Nested-interval greedy construction of a certified A.

    For each requirement (N, q) in threshold-major order, a window with
    anchor index n > N is placed strictly inside the current interval
    (reusing the previous anchor when multiplier zones overlap), the
    interval is cut to the trimmed intersection, and the witness is
    recorded.  Returns the midpoint of the final interval.  Raises
    PrecisionError up front when the estimated budget exceeds prec.
    """
    steps = coverage(spec, depth)
    est_n, est_bits = estimate_requirements(spec, depth)
    if est_bits > prec.bits:
        raise PrecisionError(
            f"depth {depth} needs anchors near n={est_n}: "
            f"about {est_bits} bits, have {prec.bits}",
            required_bits=est_bits,
        )
    with prec.work():
        gamma, u, _, _ = spec.params(prec)
        c0 = 1 + mpf(seed % 11) / 23
        J = (c0 - mpf(1) / 4, c0 + mpf(1) / 4)
        anchor: Optional[Tuple[int, int]] = None
        witnesses: List[Witness] = []
        for N, q in steps:
            placed = False
            if anchor is not None and anchor[0] > N:
                W = q_window(spec, anchor[0], anchor[1], q, prec)
                lo, hi = max(W[0], J[0]), min(W[1], J[1])
                if hi - lo >= SHARE_MIN * (J[1] - J[0]):
                    J = _trim(lo, hi)
                    witnesses.append(Witness(n=anchor[0], m=anchor[1], q=q, interval=W))
                    placed = True
            if not placed:
                width = J[1] - J[0]
                n = max(N + 1, int(mp.ceil(PLACE_FACTOR / width))) + (seed // 97) % 2
                need = required_bits(spec, n)
                if need > prec.bits:
                    raise PrecisionError(
                        f"fresh anchor needs n={n}: about {need} bits, have {prec.bits}",
                        required_bits=need,
                    )
                mid = (J[0] + J[1]) / 2
                m0 = int(mp.nint(mid * n - u / gamma))
                for m in (m0, m0 - 1, m0 + 1, m0 - 2, m0 + 2):
                    if m < 1:
                        continue
                    W = q_window(spec, n, m, q, prec)
                    if J[0] < W[0] and W[1] < J[1]:
                        J = _trim(*W)
                        anchor = (n, m)
                        witnesses.append(Witness(n=n, m=m, q=q, interval=W))
                        placed = True
                        break
                if not placed:
                    raise SolverError(
                        f"no admissible anchor near n={n} fits the current interval"
                    )
        # Tie-breaking: the seed picks the reported point inside the final
        # interval; seed 0 is the exact midpoint.
        jitter = mpf(((seed + 4) % 9) - 4) / 36
        A = J[0] + (J[1] - J[0]) * (mpf(1) / 2 + jitter)
        return A, witnesses


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failures: List[Tuple[int, str]]
    smallest_width: Any
    boundary: bool = False


def verify(A, spec: LiouvilleSpec, witnesses: Sequence[Witness], prec: Precision) -> VerifyReport:
    """Strict membership of A in every witness window, or a precision error.

    Precision insufficient to resolve the deepest window raises rather
    than returning a false verdict.
    """
    if not witnesses:
        raise InvalidInputError("no witnesses to verify")
    deepest = max(w.n for w in witnesses)
    need = required_bits(spec, deepest)
    if prec.bits < need:
        raise PrecisionError(
            f"verifying n={deepest} needs about {need} bits, have {prec.bits}",
            required_bits=need,
        )
    with prec.work():
        A = mpf(A)
        failures: List[Tuple[int, str]] = []
        boundary = False
        smallest = None
        for i, w in enumerate(witnesses):
            lo, hi = q_window(spec, w.n, w.m, w.q, prec)
            width = hi - lo
            if smallest is None or width < smallest:
                smallest = width
            if width <= abs(A) * mpf(2) ** (10 - prec.bits):
                raise PrecisionError(
                    f"window {i} narrower than the resolution of A at {prec.bits} bits",
                    required_bits=required_bits(spec, w.n),
                )
            if A == lo or A == hi:
                boundary = True
                failures.append((i, f"A sits exactly on a window boundary at (n={w.n}, m={w.m})"))
            elif not (lo < A < hi):
                failures.append((i, f"A outside window at (n={w.n}, m={w.m}, q={w.q})"))
        return VerifyReport(ok=not failures, failures=failures,
                            smallest_width=smallest, boundary=boundary)
