"""Arithmetic progressions, their interleaving order, and shift invariants.

Two increasing progressions x_n = alpha n + beta and y_m = gamma m + delta
(n, m >= 1) interleave on the line; the order data is captured by the
pair invariants A = alpha/gamma (relative density) and
tau = (beta - delta)/gamma (normalized offset).  Order-preserving
identification of two pairs forces equal A and tau agreeing modulo the
lattice (1, A); the matching integer shift (s, p) obeys

    tau_1 - tau_2 = A s + p,

which reindexes the first pair's letters as (n, m) -> (n + s, m - p)
against the second.  Perturbed progressions carry an extra geometric
term coeff * base^n + o(base^n) that never changes the letter order for
large indices but pins finer invariants.
"""

from dataclasses import dataclass, field
from statistics import median
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np
from mpmath import mp, mpf

from .errors import (
    AmbiguityError,
    FitFailureError,
    InsufficientDataError,
    InvalidInputError,
    ReconstructionError,
    TieError,
)
from .numerics import Precision, _check_finite, _differences


@dataclass(frozen=True)
class PerturbedProgression:
    """x_n = step * n + free + coeff * base^n for n >= 1; coeff = 0 is arithmetic."""

    step: Any
    free: Any
    coeff: Any = 0
    base: Any = "0.5"
    _geometric: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_finite(self, "step", "free", "coeff", "base")
        if not (mpf(self.step) > 0):
            raise InvalidInputError(f"step must be positive, got {self.step}")
        if not (0 < mpf(self.base) < 1):
            raise InvalidInputError(f"base must lie in (0, 1), got {self.base}")
        object.__setattr__(self, "_geometric", mpf(self.coeff) != 0)

    def value(self, n: int, prec: Precision):
        if n < 1:
            raise InvalidInputError(f"index must be >= 1, got {n}")
        with prec.work():
            v = mpf(self.step) * n + mpf(self.free)
            if self._geometric:
                v += mpf(self.coeff) * mpf(self.base) ** n
            return v


ArithmeticProgression = PerturbedProgression


@dataclass(frozen=True)
class PairInvariants:
    A: Any
    tau: Any


def pair_invariants(p1, p2, prec: Precision) -> PairInvariants:
    """A = step1/step2 and tau = (free1 - free2)/step2; progression types may mix."""
    with prec.work():
        s2 = mpf(p2.step)
        return PairInvariants(A=mpf(p1.step) / s2, tau=(mpf(p1.free) - mpf(p2.free)) / s2)


@dataclass(frozen=True)
class ShiftPair:
    s: int
    p: int
    residual: Any = field(default=None, compare=False)


MAX_SHIFT = 10 ** 4          # largest shift box; the offset search is linear in s_max


@dataclass(frozen=True)
class SearchBounds:
    s_max: int = 64
    p_max: int = 64
    tol: Optional[Any] = None

    def __post_init__(self):
        if not (0 <= self.s_max <= MAX_SHIFT and 0 <= self.p_max <= MAX_SHIFT):
            raise InvalidInputError(f"shift bounds must lie in [0, {MAX_SHIFT}], "
                                    f"got s_max = {self.s_max}, p_max = {self.p_max}")


def _densities_differ(A1, A2, tol) -> bool:
    return abs(A1 - A2) > tol * max(1, abs(A1), abs(A2))


def _offset_lattice(dtau, A, s_max: int) -> Iterator[Tuple[int, int, Any]]:
    """(s, p, |dtau - A s - p|) with p the nearest integer, for |s| <= s_max."""
    for s in range(-s_max, s_max + 1):
        r = dtau - A * s
        p = int(mp.nint(r))
        yield s, p, abs(r - p)


def equivalent_pairs(
    inv1: PairInvariants,
    inv2: PairInvariants,
    prec: Precision,
    bounds: Optional[SearchBounds] = None,
) -> Optional[ShiftPair]:
    """Search for the integer shift identifying two invariant pairs.

    Returns the unique (s, p) with |s| <= s_max, |p| <= p_max and
    |tau1 - tau2 - (A s + p)| < tol, or None when densities differ or no
    shift fits.  Multiple matches (A within tol of a small rational)
    raise AmbiguityError: the caller must tighten tol or treat A as
    rational.
    """
    bounds = bounds or SearchBounds()
    with prec.work():
        tol = mpf(bounds.tol) if bounds.tol is not None else mpf(prec.tol)
        A1, A2 = mpf(inv1.A), mpf(inv2.A)
        if _densities_differ(A1, A2, tol):
            return None
        A = (A1 + A2) / 2
        dtau = mpf(inv1.tau) - mpf(inv2.tau)
        matches = [
            ShiftPair(s=s, p=p, residual=resid)
            for s, p, resid in _offset_lattice(dtau, A, bounds.s_max)
            if abs(p) <= bounds.p_max and resid < tol
        ]
        if not matches:
            return None
        if len(matches) > 1:
            listed = ", ".join(f"({m.s}, {m.p})" for m in matches)
            raise AmbiguityError(
                f"{len(matches)} shifts match within tol = {tol}: {listed}; "
                "A is too close to a rational for this search box"
            )
        return matches[0]


@dataclass(frozen=True)
class InterleavingWord:
    """Merge order of two progressions as letters X/Y, indices from (n_start, m_start)."""

    letters: str
    n_start: int = 1
    m_start: int = 1

    def __post_init__(self):
        if any(ch not in "XY" for ch in self.letters):
            raise InvalidInputError("letters must be over the alphabet {X, Y}")

    @property
    def x_count(self) -> int:
        return self.letters.count("X")

    @property
    def y_count(self) -> int:
        return self.letters.count("Y")

    def staircase(self) -> List[int]:
        """c[j] = number of X letters preceding the (j+1)-th Y letter; exact per prefix."""
        out = []
        seen_x = 0
        for ch in self.letters:
            if ch == "X":
                seen_x += 1
            else:
                out.append(seen_x)
        return out


def interleaving_word(p1, p2, N: int, prec: Precision, tie_tol=None) -> InterleavingWord:
    """First N letters of the ascending merge of {x_n} and {y_m}, n, m >= 1.

    A collision within tie_tol (default prec.tol) has no well-defined
    order and raises TieError with the colliding indices.
    """
    if N < 0:
        raise InvalidInputError(f"need N >= 0 letters, got {N}")
    with prec.work():
        tol = mpf(tie_tol) if tie_tol is not None else mpf(prec.tol)
        letters = []
        n, m = 1, 1
        xv, yv = p1.value(1, prec), p2.value(1, prec)
        for _ in range(N):
            if abs(xv - yv) <= tol:
                raise TieError(
                    f"x_{n} = {xv} and y_{m} = {yv} collide within {tol}", n=n, m=m
                )
            if xv < yv:
                letters.append("X")
                n += 1
                xv = p1.value(n, prec)
            else:
                letters.append("Y")
                m += 1
                yv = p2.value(m, prec)
        return InterleavingWord(letters="".join(letters))


@dataclass(frozen=True)
class WordShiftVerdict:
    equivalent: bool
    first_disagreement: Optional[Tuple[int, int]]
    overlap_letters: int


def words_equivalent_up_to_shift(
    w1: InterleavingWord, w2: InterleavingWord, shift: ShiftPair
) -> WordShiftVerdict:
    """Check order-data agreement under the shift convention tau1 - tau2 = A s + p.

    Letter (n, m) of the first word is matched against (n + s, m - p) of
    the second; equivalently the staircases must satisfy
    c2(m - p) - s = c1(m) wherever both are defined.  On failure the
    witness is the first disagreeing index pair (n, m).
    """
    c1 = w1.staircase()
    c2 = w2.staircase()
    s, p = shift.s, shift.p
    m_lo = max(1, 1 + p)
    m_hi = min(len(c1), len(c2) + p)
    n_lo = max(1, 1 - s)
    n_hi = min(w1.x_count, w2.x_count - s)
    overlap = max(0, m_hi - m_lo + 1) + max(0, n_hi - n_lo + 1)
    if overlap < 10:
        raise InsufficientDataError(
            f"only {overlap} overlapping letters under shift ({s}, {p}); need >= 10"
        )

    def clip(v: int) -> int:
        return min(max(v, n_lo - 1), n_hi)

    for m in range(m_lo, m_hi + 1):
        a = clip(c1[m - 1])
        b = clip(c2[m - p - 1] - s)
        if a != b:
            return WordShiftVerdict(
                equivalent=False,
                first_disagreement=(min(a, b) + 1, m),
                overlap_letters=overlap,
            )
    return WordShiftVerdict(equivalent=True, first_disagreement=None, overlap_letters=overlap)


@dataclass(frozen=True)
class WordReconstruction:
    invariants: PairInvariants
    A_interval: Tuple[Any, Any]
    tau_interval: Tuple[Any, Any]
    tau_width: Any


def _ternary(f, lo: float, hi: float, minimize: bool, iters: int = 200):
    sgn = 1.0 if minimize else -1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if sgn * f(m1) <= sgn * f(m2):
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-15 * max(1.0, abs(lo)):
            break
    x = (lo + hi) / 2
    return x, f(x)


def reconstruct_invariants(word: InterleavingWord, prec: Precision) -> WordReconstruction:
    """Recover (A, tau) from letters alone (unperturbed source, length >= 100).

    A is estimated from the letter-frequency ratio #Y/#X; the admissible
    (A, tau) region cut out by the straddling constraints
    m - A (c(m)+1) < tau < m - A c(m) is a convex sliver, and the tau
    interval reported is its projection (midpoint + width).  An empty
    region means the word is not an interleaving of any such pair.
    """
    if len(word.letters) < 100:
        raise InvalidInputError(f"need at least 100 letters, got {len(word.letters)}")
    cs_list = word.staircase()
    nx, ny = word.x_count, word.y_count
    if nx == 0 or ny == 0:
        raise InvalidInputError("word must contain both letters")
    ms = np.arange(1, ny + 1, dtype=np.float64)
    cs = np.asarray(cs_list, dtype=np.float64)
    upper_mask = cs >= 1

    def L(a: float) -> float:
        return float(np.max(ms - a * (cs + 1.0)))

    def U(a: float) -> float:
        if not upper_mask.any():
            return float("inf")
        return float(np.min(ms[upper_mask] - a * cs[upper_mask]))

    def gap(a: float) -> float:
        return L(a) - U(a)

    a_freq = ny / nx
    lo, hi = a_freq / 4, a_freq * 4
    a_min, gmin = _ternary(gap, lo, hi, minimize=True)
    if gmin >= 0:
        raise ReconstructionError("no (A, tau) is consistent with this word")

    def edge(a_in: float, a_out: float) -> float:
        for _ in range(200):
            mid = (a_in + a_out) / 2
            if gap(mid) < 0:
                a_in = mid
            else:
                a_out = mid
        return (a_in + a_out) / 2

    if gap(lo) < 0 or gap(hi) < 0:
        raise ReconstructionError("feasible density region is unbounded in the search box")
    a1 = edge(a_min, lo)
    a2 = edge(a_min, hi)
    _, tau_lo = _ternary(L, a1, a2, minimize=True)
    _, tau_hi = _ternary(U, a1, a2, minimize=False)
    with prec.work():
        tl, th = mpf(tau_lo), mpf(tau_hi)
        return WordReconstruction(
            invariants=PairInvariants(A=mpf(ny) / nx, tau=(tl + th) / 2),
            A_interval=(mpf(a1), mpf(a2)),
            tau_interval=(tl, th),
            tau_width=th - tl,
        )


def relative_scale_from_progressions(xi, psi, nu2, tau, prec: Precision):
    """The combination psi * nu2^tau - xi of perturbed-progression coefficients."""
    with prec.work():
        nu2v = mpf(nu2)
        if not (0 < nu2v < 1):
            raise InvalidInputError(f"nu2 must lie in (0, 1), got {nu2v}")
        return mpf(psi) * nu2v ** mpf(tau) - mpf(xi)


def estimate_base(values, prec: Precision):
    """Geometric-fit estimate of the base from consecutive progression values.

    Second differences of step*n + free + coeff*base^n are exactly
    geometric; the median ratio of consecutive second differences
    converges to base.
    """
    if len(values) < 6:
        raise InvalidInputError(f"need at least 6 values, got {len(values)}")
    with prec.work():
        _, d2 = _differences([mpf(v) for v in values])
        if all(x == 0 for x in d2):
            raise FitFailureError("no geometric correction present (second differences vanish)")
        ratios = [d2[i + 1] / d2[i] for i in range(len(d2) - 1) if d2[i] != 0]
        if not ratios or any(r <= 0 for r in ratios):
            raise FitFailureError("second differences are not geometric")
        b = mpf(median(ratios))
        if not (0 < b < 1):
            raise FitFailureError(f"fitted base {b} outside (0, 1)")
        return b


@dataclass(frozen=True)
class IrrationalityReport:
    treated_irrational: bool
    best_num: int
    best_den: int
    best_error: Any
    q_max: int


def irrationality_report(A, prec: Precision, q_max: int = 10 ** 6, tol=None) -> IrrationalityReport:
    """Operational irrationality via continued-fraction convergents.

    A is treated irrational when no convergent with denominator <= q_max
    approximates it within tol (default prec.tol).  This is a statement
    about the represented value at working precision, not about the
    ideal real number.
    """
    with prec.work():
        tolv = mpf(tol) if tol is not None else mpf(prec.tol)
        Av = mpf(A)
        x = Av
        p_prev, q_prev = 1, 0
        p_cur, q_cur = int(mp.floor(x)), 1
        best_p, best_q = p_cur, q_cur
        for _ in range(10 ** 4):
            frac = x - mp.floor(x)
            if frac == 0:
                break
            x = 1 / frac
            a = int(mp.floor(x))
            p_nxt = a * p_cur + p_prev
            q_nxt = a * q_cur + q_prev
            if q_nxt > q_max:
                break
            p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
            best_p, best_q = p_cur, q_cur
        err = abs(Av - mpf(best_p) / best_q)
        return IrrationalityReport(
            treated_irrational=bool(err > tolv),
            best_num=best_p,
            best_den=best_q,
            best_error=err,
            q_max=q_max,
        )
