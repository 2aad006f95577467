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

import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np
from mpmath import mp, mpf

from .errors import (
    AmbiguityError,
    InsufficientDataError,
    InvalidInputError,
    ReconstructionError,
    TieError,
)
from .numerics import Precision, _check_finite, _nearest


@dataclass(frozen=True, slots=True)
class PerturbedProgression:
    """x_n = step * n + free + coeff * base^n for n >= 0; coeff = 0 is arithmetic."""

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
        if n < 0:
            raise InvalidInputError(f"index must be >= 0, got {n}")
        with prec.work():
            v = mpf(self.step) * n + mpf(self.free)
            if self._geometric:
                v += mpf(self.coeff) * mpf(self.base) ** n
            return v


ArithmeticProgression = PerturbedProgression


@dataclass(frozen=True, slots=True)
class PairInvariants:
    A: Any
    tau: Any


def pair_invariants(p1, p2, prec: Precision) -> PairInvariants:
    """A = step1/step2 and tau = (free1 - free2)/step2; progression types may mix."""
    with prec.work():
        s2 = mpf(p2.step)
        return PairInvariants(A=mpf(p1.step) / s2, tau=(mpf(p1.free) - mpf(p2.free)) / s2)


@dataclass(frozen=True, slots=True)
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
        p, r = _nearest(dtau - A * s, 1)
        yield s, p, abs(r)


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


_TO_BITS = str.maketrans("XY", "01")
_TO_LETTERS = str.maketrans("01", "XY")
_NOT_LETTERS = str.maketrans("", "", "XY")
_Y_DIGIT = ord("1")


def _deflate(bits: int) -> bytes:
    return zlib.compress(bits.to_bytes((bits.bit_length() + 7) // 8, "big"))


@dataclass(frozen=True, init=False, repr=False, slots=True)
class InterleavingWord:
    """Merge order of two progressions as letters X/Y, stored deflated.

    The letters are the binary digits of one integer after its leading 1,
    0 for X and 1 for Y, and the integer is kept zlib-compressed.  A word
    of L letters costs at most about L/8 bytes; the order word of an
    irrational density is Sturmian (n + 1 factors of length n) and
    deflates to about 80 bytes per 10^4 letters.
    """

    _z: bytes

    def __init__(self, letters: str = ""):
        if not isinstance(letters, str) or letters.translate(_NOT_LETTERS):
            raise InvalidInputError("letters must be over the alphabet {X, Y}")
        object.__setattr__(self, "_z", _deflate(int("1" + letters.translate(_TO_BITS), 2)))

    @classmethod
    def _from_digits(cls, digits: bytes) -> "InterleavingWord":
        word = object.__new__(cls)
        object.__setattr__(word, "_z", _deflate(int(b"1" + digits, 2)))
        return word

    @property
    def _bits(self) -> int:
        return int.from_bytes(zlib.decompress(self._z), "big")

    def _digits(self) -> str:
        return bin(self._bits)[3:]

    @property
    def letters(self) -> str:
        return self._digits().translate(_TO_LETTERS)

    @property
    def y_count(self) -> int:
        return self._bits.bit_count() - 1

    @property
    def x_count(self) -> int:
        bits = self._bits
        return bits.bit_length() - bits.bit_count()

    def staircase(self) -> List[int]:
        """c[j] = number of X letters preceding the (j+1)-th Y letter; exact per prefix."""
        return self._staircase().tolist()

    def _staircase(self) -> np.ndarray:
        ys = np.flatnonzero(np.unpackbits(np.frombuffer(zlib.decompress(self._z), np.uint8)))
        c = ys[1:]      # ys[0] is the leading 1
        c -= np.arange(ys[0] + 1, ys[0] + len(ys))
        return c

    def __repr__(self) -> str:
        return f"InterleavingWord(letters={self.letters!r})"


def _merge(p1, p2, N: int, tol, prec: Precision, stop=None) -> Tuple[bytearray, int, int]:
    """The merge loop: digits (b"0" for X, b"1" for Y) and the next indices (n, m).

    Runs for N letters, or until n and m have both reached stop.  A
    collision within tol raises TieError with the colliding indices.
    """
    n_stop, m_stop = stop or (N + 2, N + 2)
    digits = bytearray()
    n, m = 1, 1
    xv, yv = p1.value(1, prec), p2.value(1, prec)
    while len(digits) < N and (n < n_stop or m < m_stop):
        if abs(xv - yv) <= tol:
            raise TieError(
                f"x_{n} = {xv} and y_{m} = {yv} collide within {tol}", n=n, m=m
            )
        if xv < yv:
            digits += b"0"
            n += 1
            xv = p1.value(n, prec)
        else:
            digits += b"1"
            m += 1
            yv = p2.value(m, prec)
    return digits, n, m


def _head_index(p: PerturbedProgression, tol, N: int) -> int:
    """First n >= 1 with |coeff| base^n <= tol (N + 2, never reached, for tol <= 0)."""
    if not p._geometric:
        return 1
    if tol <= 0:
        return N + 2
    c, b = abs(mpf(p.coeff)), mpf(p.base)
    n = max(1, int(mp.ceil(mp.log(c / tol) / -mp.log(b))))
    while c * b ** n > tol:
        n += 1
    return n


def _grid_ceil(v, e: int) -> int:
    """ceil(v / 2^e) for an mpf v >= 0."""
    man, ex = v.man_exp
    return man << (ex - e) if ex >= e else -(-man >> (e - ex))


def _staircase_tail(p1, p2, n: int, m: int, count: int, tol, prec: Precision) -> Optional[bytearray]:
    """The next count digits from indices (n, m) in exact integers, or None near a tie.

    With step and free rounded as value() rounds them, the arithmetic
    parts are s n + f and t m + g on one grid 2^e, and the X letters
    below y_m number q = (K - 1) // s with K = t m + g - f (the Beatty
    staircase).  Each value() lies within the geometric bound at (n, m)
    plus a few roundings of its arithmetic part, so the merge loop emits
    the same letters without a tie when both X values around every Y lie
    farther than margin = tol + that bound + 16 ulps of the largest value.
    """
    vals = [mpf(v) for v in (p1.step, p1.free, p2.step, p2.free)]
    e = min(v.exp for v in vals if v)
    s, f, t, g = (int(mp.ldexp(v, -e)) for v in vals)
    geo = sum(2 * abs(mpf(p.coeff)) * mpf(p.base) ** i for p, i in ((p1, n), (p2, m)) if p._geometric)
    geo = _grid_ceil(mpf(geo), e)
    big = max(s * (n + count) + abs(f), t * (m + count) + abs(g)) + geo
    margin = _grid_ceil(max(tol, 0), e) + geo + (1 << max(0, big.bit_length() + 4 - prec.bits))
    digits = bytearray(b"0") * count
    K = t * m + g - f
    x_last, r_hi, i = n - 1, s - 1 - margin, 0
    while i < count:
        q, r = divmod(K - 1, s)
        if not margin <= r < r_hi:
            if (q >= n and r < margin) or (s - 1 - r if q >= 0 else s - K) <= margin:
                return None
        if q > x_last:
            i += q - x_last
            x_last = q
        if i >= count:
            break
        digits[i] = _Y_DIGIT
        i += 1
        K += t
    return digits


def interleaving_word(p1, p2, N: int, prec: Precision, tie_tol=None) -> InterleavingWord:
    """First N letters of the ascending merge of {x_n} and {y_m}, n, m >= 1.

    A collision within tie_tol (default prec.tol) has no well-defined
    order and raises TieError with the colliding indices.  The merge loop
    runs only until both geometric terms are below tie_tol; the rest is
    the exact staircase of the arithmetic parts.  Near a tie the whole
    word is rebuilt by the merge loop, so the letters, or the TieError,
    are always the merge loop's.
    """
    if N < 0:
        raise InvalidInputError(f"need N >= 0 letters, got {N}")
    with prec.work():
        tol = mpf(tie_tol) if tie_tol is not None else mpf(prec.tol)
        stop = (_head_index(p1, tol, N), _head_index(p2, tol, N))
        head, n, m = _merge(p1, p2, N, tol, prec, stop)
        tail = _staircase_tail(p1, p2, n, m, N - len(head), tol, prec)
        if tail is None:
            head, tail = _merge(p1, p2, N, tol, prec)[0], b""
        return InterleavingWord._from_digits(head + tail)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class WordReconstruction:
    invariants: PairInvariants
    A_interval: Tuple[Any, Any]
    tau_interval: Tuple[Any, Any]
    tau_width: Any


def _newton_end(m_lo, k_lo, m_up, c_up, right: bool) -> Tuple[Fraction, Fraction]:
    """The left end a1 (right: walking up from below) or the right end a2 of the A interval.

    L(a) = max(m_lo - a k_lo) and U(a) = min(m_up - a c_up), k_lo and c_up
    increasing; L - U is convex and piecewise linear, and the feasible A
    are where it is negative.  The walk starts where the extreme pair of
    lines cross (the largest k against the smallest c bounds a1 from
    below, the reverse pair a2 from above).  A Newton step moves a to
    where the pieces of L and U active on the side facing the end cross;
    it never passes the end and lands on a new piece, so the walk stops
    exactly at the end, which is returned with the tau where L = U there.
    An active slope of the wrong sign means L - U never goes negative.
    At a = P/Q a line is Q m - P k over Q; |P|, Q, m < N letters keep it
    exact in int64 for N < 4·10^9.
    """
    i, j = (-1, 0) if right else (0, -1)
    while True:
        a = Fraction(int(m_lo[i] - m_up[j]), int(k_lo[i] - c_up[j]))
        P, Q = a.numerator, a.denominator
        v = Q * m_lo
        v -= P * k_lo
        top = v.max()
        i = np.flatnonzero(v == top)[0 if right else -1]
        v = Q * m_up
        v -= P * c_up
        bottom = v.min()
        j = np.flatnonzero(v == bottom)[-1 if right else 0]
        slope = int(k_lo[i] - c_up[j])
        if (slope <= 0) if right else (slope >= 0):
            raise ReconstructionError("no (A, tau) is consistent with this word")
        if top == bottom:
            return a, Fraction(int(top), Q)


def reconstruct_invariants(word: InterleavingWord, prec: Precision) -> WordReconstruction:
    """Recover (A, tau) from letters alone (unperturbed source, length >= 100).

    The m-th Y letter after c(m) X letters gives m - A (c(m)+1) < tau and,
    for c(m) >= 1, tau < m - A c(m), as X letters after the last Y do for
    m = #Y + 1, c = #X: a convex polygon with rational vertices.  Its A
    interval (a1, a2) and tau interval (L(a2), U(a1)) are found exactly by
    Newton steps on these constraints in integers, then rounded once at
    working precision; A and tau are their midpoints.  An empty region
    means the word is not an interleaving of any such pair; an unbounded
    one, that c(m) spans fewer than 2 values.
    """
    nx, ny = word.x_count, word.y_count
    if nx + ny < 100:
        raise InvalidInputError(f"need at least 100 letters, got {nx + ny}")
    if nx == 0 or ny == 0:
        raise InvalidInputError("word must contain both letters")
    c = word._staircase()
    if c[-1] - c[0] < 2:
        raise ReconstructionError("feasible density region is unbounded")
    # Of each run of equal c only the last m binds from below (k = c + 1)
    # and only the first m from above; c[j] belongs to m = j + 1.
    m_lo = np.flatnonzero(np.r_[c[1:] != c[:-1], True]) + 1
    c_up = c[m_lo - 1]
    del c                   # one int64 per Y letter; the walk needs only the runs
    k_lo = c_up + 1
    m_up = np.r_[1, m_lo[:-1] + 1]
    if c_up[0] == 0:
        m_up, c_up = m_up[1:], c_up[1:]
    if nx > c_up[-1]:
        m_up, c_up = np.r_[m_up, ny + 1], np.r_[c_up, nx]
    # Every constraint line has slope <= -1, so L and U decrease and tau
    # spans (L(a2), U(a1)).
    a1, tau_hi = _newton_end(m_lo, k_lo, m_up, c_up, right=True)
    a2, tau_lo = _newton_end(m_lo, k_lo, m_up, c_up, right=False)
    with prec.work():
        al, ah, tl, th = (mpf(r.numerator) / r.denominator for r in (a1, a2, tau_lo, tau_hi))
        return WordReconstruction(
            invariants=PairInvariants(A=(al + ah) / 2, tau=(tl + th) / 2),
            A_interval=(al, ah),
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
