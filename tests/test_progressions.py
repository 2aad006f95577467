"""Progression pairs: invariants, shifts, interleaving words, reconstruction."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from polylab import (
    AmbiguityError,
    ArithmeticProgression,
    InsufficientDataError,
    InterleavingWord,
    InvalidInputError,
    PairInvariants,
    PerturbedProgression,
    Precision,
    ReconstructionError,
    SearchBounds,
    ShiftPair,
    TieError,
    equivalent_pairs,
    interleaving_word,
    irrationality_report,
    pair_invariants,
    progression_model,
    reconstruct_invariants,
    relative_scale_from_progressions,
    words_equivalent_up_to_shift,
)
from tests.conftest import random_family


def test_pair_invariants_simple(prec):
    inv = pair_invariants(
        ArithmeticProgression(step=2, free=1), ArithmeticProgression(step=1, free=0), prec
    )
    assert inv.A == 2 and inv.tau == 1


def test_pair_invariants_sqrt2(prec):
    with prec.work():
        inv = pair_invariants(
            ArithmeticProgression(step=mp.sqrt(2), free="0.3"),
            ArithmeticProgression(step=1, free=0),
            prec,
        )
        assert abs(inv.A - mp.sqrt(2)) < mpf(2) ** -250
        assert abs(inv.tau - mpf("0.3")) < mpf(2) ** -250


def test_pair_invariants_rescale_invariance(prec):
    rng = random.Random(2)
    with prec.work():
        for _ in range(20):
            s1, f1 = mpf(rng.uniform(0.1, 5)), mpf(rng.uniform(-3, 3))
            s2, f2 = mpf(rng.uniform(0.1, 5)), mpf(rng.uniform(-3, 3))
            c = mpf(rng.uniform(0.01, 100))
            a = pair_invariants(
                ArithmeticProgression(s1, f1), ArithmeticProgression(s2, f2), prec
            )
            b = pair_invariants(
                ArithmeticProgression(c * s1, c * f1),
                ArithmeticProgression(c * s2, c * f2),
                prec,
            )
            assert abs(a.A - b.A) <= prec.tol * abs(a.A)
            assert abs(a.tau - b.tau) <= prec.tol * max(1, abs(a.tau))


def test_equivalent_pairs_identity(prec):
    with prec.work():
        inv = PairInvariants(A=mp.sqrt(2), tau=mpf("0.3"))
    shift = equivalent_pairs(inv, inv, prec)
    assert (shift.s, shift.p) == (0, 0)


def test_equivalent_pairs_known_shift(prec):
    # tau2 = tau1 + 2 sqrt(2) - 1 means tau1 - tau2 = A(-2) + 1.
    with prec.work():
        A = mp.sqrt(2)
        inv1 = PairInvariants(A=A, tau=mpf("0.3"))
        inv2 = PairInvariants(A=A, tau=mpf("0.3") + 2 * A - 1)
    shift = equivalent_pairs(inv1, inv2, prec)
    assert (shift.s, shift.p) == (-2, 1)
    with prec.work():
        assert shift.residual < mpf(prec.tol)


def test_equivalent_pairs_density_mismatch(prec):
    with prec.work():
        inv1 = PairInvariants(A=mp.sqrt(2), tau=0)
        inv2 = PairInvariants(A=mp.sqrt(3), tau=0)
    assert equivalent_pairs(inv1, inv2, prec) is None


def test_equivalent_pairs_shift_outside_box(prec):
    with prec.work():
        A = mp.sqrt(2)
        inv1 = PairInvariants(A=A, tau=0)
        inv2 = PairInvariants(A=A, tau=30 * A + 2)
    assert equivalent_pairs(inv1, inv2, prec, SearchBounds(s_max=8, p_max=64)) is None


def test_equivalent_pairs_rational_density_ambiguous(prec):
    # A = 1/3: the shifts (0,0) and (3,-1) both match exactly.
    with prec.work():
        third = mpf(1) / 3
        inv = PairInvariants(A=third, tau=mpf("0.2"))
    with pytest.raises(AmbiguityError):
        equivalent_pairs(inv, inv, prec)


def test_equivalent_pairs_symmetry_and_composition(prec):
    rng = random.Random(9)
    with prec.work():
        A = mp.sqrt(5) / 2
        for _ in range(10):
            t1 = mpf(rng.uniform(-2, 2))
            s, p = rng.randint(-6, 6), rng.randint(-6, 6)
            inv1 = PairInvariants(A=A, tau=t1)
            inv2 = PairInvariants(A=A, tau=t1 - (A * s + p))
            fwd = equivalent_pairs(inv1, inv2, prec)
            rev = equivalent_pairs(inv2, inv1, prec)
            assert (fwd.s, fwd.p) == (s, p)
            assert (rev.s, rev.p) == (-s, -p)
            s2, p2 = rng.randint(-4, 4), rng.randint(-4, 4)
            inv3 = PairInvariants(A=A, tau=inv2.tau - (A * s2 + p2))
            tot = equivalent_pairs(inv1, inv3, prec, SearchBounds(s_max=16))
            assert (tot.s, tot.p) == (s + s2, p + p2)


def test_interleaving_word_empty_and_validation(prec):
    p1 = ArithmeticProgression(step=2, free="0.5")
    p2 = ArithmeticProgression(step=1, free=0)
    assert interleaving_word(p1, p2, 0, prec).letters == ""
    with pytest.raises(InvalidInputError):
        interleaving_word(p1, p2, -1, prec)


def test_interleaving_word_matches_merge_sort(prec):
    with prec.work():
        A = mp.sqrt(2)
        tau = mpf("0.2")
        word = interleaving_word(
            ArithmeticProgression(step=A, free=tau),
            ArithmeticProgression(step=1, free=0),
            50,
            prec,
        )
        pool = [(A * n + tau, "X") for n in range(1, 60)]
        pool += [(mpf(m), "Y") for m in range(1, 60)]
        pool.sort(key=lambda t: t[0])
        assert word.letters == "".join(tag for _, tag in pool[:50])


def test_interleaving_word_counts_track_density(prec):
    with prec.work():
        word = interleaving_word(
            ArithmeticProgression(step=mp.sqrt(2), free="0.2"),
            ArithmeticProgression(step=1, free=0),
            400,
            prec,
        )
        # y-values hit about sqrt(2) times as often as x-values
        ratio = mpf(word.y_count) / word.x_count
        assert abs(ratio - mp.sqrt(2)) < mpf("0.05")


def test_small_perturbation_preserves_word(prec):
    with prec.work():
        flat = ArithmeticProgression(step=mp.sqrt(2), free="0.2")
        bent = PerturbedProgression(
            step=mp.sqrt(2), free="0.2", coeff="1e-10", base="0.5"
        )
        ref = ArithmeticProgression(step=1, free=0)
        w1 = interleaving_word(flat, ref, 200, prec)
        w2 = interleaving_word(bent, ref, 200, prec)
        assert w1.letters == w2.letters


def test_interleaving_word_tie_raises(prec):
    p1 = ArithmeticProgression(step=1, free="0.5")
    p2 = ArithmeticProgression(step=1, free="0.5")
    with pytest.raises(TieError) as info:
        interleaving_word(p1, p2, 10, prec)
    assert info.value.n == 1 and info.value.m == 1


def test_staircase_counts_prefix_x(prec):
    w = InterleavingWord(letters="XXYXYYXY")
    assert w.staircase() == [2, 3, 3, 4]


def test_words_equivalent_identity_and_known_shift(prec):
    with prec.work():
        A = mp.sqrt(2)
        t1 = mpf("0.3")
        s, p = 2, -1
        p1 = ArithmeticProgression(step=A, free=t1)
        p1b = ArithmeticProgression(step=A, free=t1 - (A * s + p))
        ref = ArithmeticProgression(step=1, free=0)
        w1 = interleaving_word(p1, ref, 600, prec)
        w2 = interleaving_word(p1b, ref, 600, prec)
    same = words_equivalent_up_to_shift(w1, w1, ShiftPair(0, 0))
    assert same.equivalent and same.first_disagreement is None
    shifted = words_equivalent_up_to_shift(w1, w2, ShiftPair(s, p))
    assert shifted.equivalent
    wrong = words_equivalent_up_to_shift(w1, w2, ShiftPair(s + 1, p))
    assert not wrong.equivalent
    assert wrong.first_disagreement is not None


def test_words_equivalent_needs_overlap(prec):
    with prec.work():
        w = interleaving_word(
            ArithmeticProgression(step=mp.sqrt(2), free=0),
            ArithmeticProgression(step=1, free=0),
            30,
            prec,
        )
    with pytest.raises(InsufficientDataError):
        words_equivalent_up_to_shift(w, w, ShiftPair(40, -40))


def test_reconstruct_invariants_recovers_pair(prec):
    with prec.work():
        A = mp.sqrt(2)
        word = interleaving_word(
            ArithmeticProgression(step=A, free="0.3"),
            ArithmeticProgression(step=1, free=0),
            5000,
            prec,
        )
    rec = reconstruct_invariants(word, prec)
    with prec.work():
        assert abs(rec.invariants.A - mp.sqrt(2)) <= mpf(10) / 5000
        lo, hi = rec.tau_interval
        assert lo <= mpf("0.3") <= hi
        assert rec.tau_width < mpf("0.02")


def test_reconstruct_shifted_free_term(prec):
    # Same density, free term moved by exactly 1: the reconstructed tau
    # window must follow.
    with prec.work():
        A = mp.sqrt(2)
        ref = ArithmeticProgression(step=1, free=0)
        w2 = interleaving_word(ArithmeticProgression(step=A, free="1.3"), ref, 3000, prec)
    rec = reconstruct_invariants(w2, prec)
    with prec.work():
        lo, hi = rec.tau_interval
        assert lo <= mpf("1.3") <= hi


def test_reconstruct_invariants_on_long_words(prec):
    with prec.work():
        word = interleaving_word(
            ArithmeticProgression(step=(1 + mp.sqrt(5)) / 2, free="0.3"),
            ArithmeticProgression(step=1, free=0),
            10 ** 5,
            Precision(bits=96),
        )
    rec = reconstruct_invariants(word, prec)
    with prec.work():
        assert abs(rec.invariants.A - (1 + mp.sqrt(5)) / 2) < mpf(10) ** -4
        assert rec.tau_interval[0] <= mpf("0.3") <= rec.tau_interval[1]


def _as_fraction(x) -> Fraction:
    man, exp = mpf(x).man_exp          # the mantissa of |x|
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("A, tau", [(lambda: mp.sqrt(2), "0.3"),
                                    (lambda: 37 + 1 / mp.sqrt(2), "-0.1256")],
                         ids=["criterion-8", "37+1/sqrt2"])
def test_reconstructed_ends_are_vertices_of_the_sliver(A, tau):
    # Each reported end is a rational with denominator <= N rounded at
    # working precision, and that rational is where the straddling
    # constraints L and U meet, in integer arithmetic over every
    # constraint: L = U = tau_lo at a2 and L = U = tau_hi at a1.
    N = 10 ** 5
    prec = Precision(bits=96)
    with prec.work():
        A = A()
        word = interleaving_word(ArithmeticProgression(step=A, free=tau),
                                 ArithmeticProgression(step=1, free=0), N, prec)
    rec = reconstruct_invariants(word, prec)
    c = word._staircase()
    m = np.arange(1, len(c) + 1)
    up = c >= 1

    def L(a: Fraction) -> Fraction:
        return Fraction(int((a.denominator * m - a.numerator * (c + 1)).max()), a.denominator)

    def U(a: Fraction) -> Fraction:
        return Fraction(int((a.denominator * m[up] - a.numerator * c[up]).min()), a.denominator)

    ends = (*rec.A_interval, *rec.tau_interval)
    a1, a2, tau_lo, tau_hi = (_as_fraction(x).limit_denominator(N) for x in ends)
    assert L(a2) == U(a2) == tau_lo
    assert L(a1) == U(a1) == tau_hi
    with prec.work():
        assert ends == tuple(mpf(r.numerator) / r.denominator for r in (a1, a2, tau_lo, tau_hi))
        assert rec.A_interval[0] < A < rec.A_interval[1]
        assert rec.tau_interval[0] < mpf(tau) < rec.tau_interval[1]


def _sliver_oracle(word: InterleavingWord):
    """(a1, a2, tau_lo, tau_hi) as Fractions from every pair of constraints, or the error.

    The lower constraint m_i - a k_i < tau (k = c + 1) and the upper one
    tau < m_j - a c_j (c >= 1, and m = #Y + 1, c = #X when X letters
    follow the last Y) are compatible iff a d > m_i - m_j with
    d = k_i - c_j.  Floats only shortlist the pairs within 1e-9 of the
    extreme ratio; the extreme itself is taken among them in Fractions.
    """
    c = np.array(word.staircase(), dtype=np.int64)
    if c[-1] - c[0] < 2:
        return "unbounded"
    m = np.arange(1, len(c) + 1)
    m_up, c_up = m[c >= 1], c[c >= 1]
    if word.x_count > c[-1]:
        m_up, c_up = np.r_[m_up, len(c) + 1], np.r_[c_up, word.x_count]
    lower = list(zip(m.tolist(), (c + 1).tolist()))
    upper = list(zip(m_up.tolist(), c_up.tolist()))
    num = m[:, None] - m_up[None, :]
    den = (c + 1)[:, None] - c_up[None, :]
    if (num[den == 0] >= 0).any():
        return "inconsistent"

    def extreme(sel, pick):
        ratio = num[sel] / den[sel]
        best = pick(ratio)
        near = np.abs(ratio - best) <= 1e-9
        return pick([Fraction(int(p), int(q)) for p, q in zip(num[sel][near], den[sel][near])])

    a1, a2 = extreme(den > 0, max), extreme(den < 0, min)
    if a1 >= a2:
        return "inconsistent"
    tau_lo = max(mi - a2 * ki for mi, ki in lower)
    tau_hi = min(mj - a1 * cj for mj, cj in upper)
    return a1, a2, tau_lo, tau_hi


def test_reconstruction_matches_the_pairwise_oracle(prec):
    # 150 words of 100-400 letters, A in [0.05, 40], then 120 with A in
    # [0.02, 0.5], many ending in X letters; tau in [-3, 3], about 30%
    # with one flipped letter: the four ends are the oracle's rationals
    # rounded at working precision, and the errors are the oracle's.
    rng = random.Random(8)
    ref = ArithmeticProgression(step=1, free=0)
    outcomes = {"unbounded": 0, "inconsistent": 0, "consistent": 0}
    for draw in range(270):
        N = rng.randint(100, 400)
        with prec.work():
            A = rng.uniform(0.05, 40) if draw < 150 else rng.uniform(0.02, 0.5)
            x = ArithmeticProgression(step=mpf(A), free=mpf(rng.uniform(-3, 3)))
        letters = interleaving_word(x, ref, N, prec).letters
        if rng.random() < 0.3:
            i = rng.randrange(N)
            letters = letters[:i] + ("X" if letters[i] == "Y" else "Y") + letters[i + 1:]
        word = InterleavingWord(letters)
        want = _sliver_oracle(word)
        if isinstance(want, str):
            match = "unbounded" if want == "unbounded" else "no \\(A, tau\\) is consistent"
            with pytest.raises(ReconstructionError, match=match):
                reconstruct_invariants(word, prec)
            outcomes[want] += 1
            continue
        rec = reconstruct_invariants(word, prec)
        with prec.work():
            rounded = tuple(mpf(r.numerator) / r.denominator for r in want)
        assert (*rec.A_interval, *rec.tau_interval) == rounded
        outcomes["consistent"] += 1
    assert outcomes["consistent"] >= 75 and outcomes["inconsistent"] >= 20


def test_reconstruction_uses_the_x_letters_after_the_last_y(prec):
    # The word ends in X letters, which bound A #X + tau < #Y + 1; without
    # that constraint the A interval runs on to 1/3.
    with prec.work():
        word = interleaving_word(ArithmeticProgression(step="0.331137", free="-1.23304"),
                                 ArithmeticProgression(step=1, free=0), 264, prec)
    assert word.letters.endswith("X") and word.x_count > word.staircase()[-1]
    rec = reconstruct_invariants(word, prec)
    with prec.work():
        lo, hi = rec.A_interval
        assert lo < mpf("0.331137") < hi < mpf("0.3313")
        assert rec.tau_interval[0] < mpf("-1.23304") < rec.tau_interval[1]


def test_reconstructed_density_is_the_midpoint_of_its_interval(prec):
    # The letter frequency #Y/#X lies outside the feasible sliver; its
    # midpoint pins A = 4 + 1/phi far inside criterion 8's 1e-4.
    with prec.work():
        A = 4 + 2 / (1 + mp.sqrt(5))
        word = interleaving_word(ArithmeticProgression(step=A, free="0.3"),
                                 ArithmeticProgression(step=1, free=0), 10 ** 5, Precision(bits=96))
    rec = reconstruct_invariants(word, prec)
    with prec.work():
        lo, hi = rec.A_interval
        assert lo < A < hi
        assert rec.invariants.A == (lo + hi) / 2
        assert abs(rec.invariants.A - A) < mpf("1e-8")


def test_reconstruct_finds_a_density_far_from_the_letter_frequency(prec):
    # 67 leading X letters put #Y/#X near 0.15, a tenth of A = 1.5.
    with prec.work():
        word = interleaving_word(ArithmeticProgression(step="1.5", free="-100.3"),
                                 ArithmeticProgression(step=1, free=0), 100, prec)
    rec = reconstruct_invariants(word, prec)
    with prec.work():
        assert rec.A_interval[0] < mpf("1.5") < rec.A_interval[1]
        assert rec.tau_interval[0] < mpf("-100.3") < rec.tau_interval[1]


def test_reconstruct_tells_unbounded_from_inconsistent(prec):
    # X^60 Y^60 fits every A > 59; a change of density midway fits none.
    with pytest.raises(ReconstructionError, match="unbounded"):
        reconstruct_invariants(InterleavingWord(letters="X" * 60 + "Y" * 60), prec)
    with pytest.raises(ReconstructionError, match="no \\(A, tau\\) is consistent"):
        reconstruct_invariants(InterleavingWord(letters="XY" * 60 + "XXYY" * 20), prec)


def test_reconstruct_needs_long_word(prec):
    with pytest.raises(InvalidInputError):
        reconstruct_invariants(InterleavingWord(letters="XY" * 20), prec)


def test_all_y_prefix_is_bounded_for_small_density(prec):
    # x_1 = A + tau caps the number of leading Y letters at ~A + tau.
    with prec.work():
        for A, tau in ((mpf("0.3"), mpf("0.051")), (mpf("0.7"), mpf("0.49")), (1 / mp.sqrt(2), mpf("2.7"))):
            word = interleaving_word(
                ArithmeticProgression(step=A, free=tau),
                ArithmeticProgression(step=1, free=0),
                40,
                prec,
            )
            bound = int(mp.floor(A + tau)) + 1
            assert "X" in word.letters[:bound + 1]


def test_relative_scale_points(prec):
    assert relative_scale_from_progressions("0.4", "0.4", "0.7", 0, prec) == 0
    with prec.work():
        out = relative_scale_from_progressions(0, 1, "0.7", 1, prec)
        assert abs(out - mpf("0.7")) < mpf(2) ** -250
    with pytest.raises(InvalidInputError):
        relative_scale_from_progressions(0, 1, "1.5", 1, prec)


def test_irrationality_report_dichotomy(prec):
    with prec.work():
        irr = irrationality_report(mp.sqrt(2), prec)
        assert irr.treated_irrational
        assert irr.best_den <= 10 ** 6
        assert irr.best_error > 0
        rat = irrationality_report(mpf(22) / 7, prec)
        assert not rat.treated_irrational
        assert (rat.best_num, rat.best_den) == (22, 7)


@given(st.text(alphabet="XY", max_size=300))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_staircase_shape_property(letters):
    # one entry per Y letter, nondecreasing, bounded by the X count
    w = InterleavingWord(letters=letters)
    c = w.staircase()
    assert len(c) == w.y_count
    assert all(b >= a for a, b in zip(c, c[1:]))
    assert all(0 <= v <= w.x_count for v in c)
    assert c == [letters[:i].count("X") for i, ch in enumerate(letters) if ch == "Y"]


# ------------------------------------------------ exact staircase and packing

def merge_oracle(p1, p2, N, prec, tie_tol=None):
    """The one-letter-at-a-time merge loop that interleaving_word replaced, verbatim."""
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
        return "".join(letters)


def _outcome(build, p1, p2, N, prec, tie_tol):
    """The letters, or ("tie", n, m) for a TieError."""
    try:
        word = build(p1, p2, N, prec, tie_tol=tie_tol)
    except TieError as exc:
        return ("tie", exc.n, exc.m)
    return word if isinstance(word, str) else word.letters


def _word_cases(bits):
    """(p1, p2, N, tie_tol) at one precision: 73 seeded pairs of every kind."""
    rng = random.Random(bits)
    prec = Precision(bits=bits)
    AP = ArithmeticProgression
    compare_tol = mpf(prec.tol) * mpf(2) ** (-bits // 4)
    cases = []
    with prec.work():
        # irrational densities, both progressions random
        for N in (0, 1, 10, 2000, 10 ** 4, 0, 1, 10, 2000, 0, 1, 10, 2000, 0, 1, 10, 2000):
            x = AP(step=mp.sqrt(rng.randint(2, 99)) * rng.choice((1, 0.1, 3)),
                   free=mpf(rng.uniform(-3, 3)))
            y = AP(step=mpf(rng.uniform(0.2, 3)), free=mpf(rng.uniform(-3, 3)))
            cases.append((x, y, N, None))
        # small rationals: exact ties and ties from rounding 1/3
        for a, b, c, d in ((1, 2, 0, 1), (1, 3, 0, 1), (2, 3, 1, 3), (3, 2, 1, 2), (2, 1, 0, 1),
                           (3, 1, 1, 2), (1, 1, 1, 2), (3, 4, 1, 4), (4, 3, 1, 5), (1, 4, 1, 8),
                           (5, 2, 1, 3), (2, 5, 0, 1)):
            x = AP(step=mpf(a) / b, free=mpf(c) / d)
            cases.append((x, AP(step=1, free=0), rng.choice((10, 200, 2000)), None))
        # near-ties: x_{n*} - y_{m*} = +-(tie_tol + k ulps)
        for k in (-3, -2, -1, 0, 1, 2, 3) * 2:
            tie_tol = rng.choice((None, compare_tol))
            t = mpf(prec.tol) if tie_tol is None else tie_tol
            A = mp.sqrt(rng.randint(2, 30))
            n_star = rng.randint(1, 100)
            m_star = int(mp.floor(A * n_star)) + 2
            ulp = mpf(2) ** (mp.mag(m_star) - bits)
            free = m_star - A * n_star + rng.choice((1, -1)) * (t + k * ulp)
            cases.append((AP(step=A, free=free), AP(step=1, free=0), n_star + m_star + 10, tie_tol))
        # near-ties just past a geometric head, closed only by the geometric term
        for sign in (1, -1, 1, -1):
            t = mpf(prec.tol)
            A, b = mp.sqrt(rng.randint(2, 30)), mpf(rng.uniform(0.4, 0.8))
            C = -sign * mpf(rng.uniform(0.5, 2))
            n_star = 1 + next(n for n in range(1, 10 ** 4) if abs(C) * b ** n <= t)
            m_star = int(mp.floor(A * n_star)) + 2
            free = m_star - A * n_star + sign * (t + abs(C) * b ** n_star / 2)
            x = PerturbedProgression(step=A, free=free, coeff=C, base=b)
            cases.append((x, AP(step=1, free=0), n_star + m_star + 10, None))
        # geometric heads, on one or both sides
        for N in (10, 300, 2000, 300, 2000, 300, 1, 300, 10, 2000):
            coeff = [rng.choice((1, -1)) * mpf(rng.uniform(0.01, 3)) for _ in range(2)]
            side = rng.choice(((1, 0), (0, 1), (1, 1)))
            x = PerturbedProgression(step=mpf(rng.uniform(0.2, 3)), free=mpf(rng.uniform(-1, 1)),
                                     coeff=coeff[0] * side[0], base=mpf(rng.uniform(0.3, 0.95)))
            y = PerturbedProgression(step=mpf(rng.uniform(0.2, 3)), free=mpf(rng.uniform(-1, 1)),
                                     coeff=coeff[1] * side[1], base=mpf(rng.uniform(0.3, 0.95)))
            cases.append((x, y, N, rng.choice((None, compare_tol))))
        # heart model pairs, at the default tolerance and at compare's
        for i in range(8):
            x, y = progression_model(random_family(rng, prec), prec)
            cases.append((x, y, (300, 2000)[i % 2], None))
            cases.append((x, y, (2000, 300)[i % 2], compare_tol))
    return prec, cases


@pytest.mark.parametrize("bits", [64, 96, 256])
def test_interleaving_word_is_bit_identical_to_merge_loop(bits):
    prec, cases = _word_cases(bits)
    assert len(cases) == 73
    ties = 0
    for p1, p2, N, tie_tol in cases:
        want = _outcome(merge_oracle, p1, p2, N, prec, tie_tol)
        assert _outcome(interleaving_word, p1, p2, N, prec, tie_tol) == want
        ties += isinstance(want, tuple)
    assert 5 <= ties <= 40


def _count_values(monkeypatch):
    calls = [0]
    value = PerturbedProgression.value

    def counted(self, n, prec):
        calls[0] += 1
        return value(self, n, prec)

    monkeypatch.setattr(PerturbedProgression, "value", counted)
    return calls


def test_arithmetic_word_makes_constant_value_calls(monkeypatch):
    calls = _count_values(monkeypatch)
    prec = Precision(bits=96)
    with prec.work():
        x = ArithmeticProgression(step=mp.sqrt(2), free=mpf("0.3"))
    word = interleaving_word(x, ArithmeticProgression(step=1, free=0), 10 ** 5, prec)
    assert word.x_count + word.y_count == 10 ** 5
    assert abs(word.y_count / word.x_count - 2 ** 0.5) < 1e-3
    assert calls[0] <= 4


def test_model_word_value_calls_stop_at_the_head(monkeypatch):
    calls = _count_values(monkeypatch)
    rng = random.Random(6)
    prec, wp = Precision(bits=256), Precision(bits=96)
    for _ in range(50):
        x, y = progression_model(random_family(rng, prec), prec)
        calls[0] = 0
        word = interleaving_word(x, y, 10 ** 4, wp)
        assert word.x_count + word.y_count == 10 ** 4
        assert calls[0] <= 1000


@given(st.text(alphabet="XY", max_size=300))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_packed_letters_round_trip(letters):
    w = InterleavingWord(letters=letters)
    assert w.letters == letters
    assert (w.x_count, w.y_count) == (letters.count("X"), letters.count("Y"))
    assert InterleavingWord(letters=letters) == w
    assert hash(InterleavingWord(letters=letters)) == hash(w)


def test_packed_letters_edge_words():
    for letters in ("", "X", "Y", "XXXY", "X" * 1000, "Y" * 1000, "XY" * 4096):
        w = InterleavingWord(letters=letters)
        assert w.letters == letters
        assert len(w.staircase()) == letters.count("Y")
    assert InterleavingWord(letters="XY") != InterleavingWord(letters="Y")
    assert InterleavingWord(letters="") != InterleavingWord(letters="X")
    assert len({InterleavingWord(letters="XXY"), InterleavingWord(letters="XXY")}) == 1


@pytest.mark.parametrize("letters", ["XZ", "01", "x", "X Y", "X_Y", "Y\n", "XYİ"])
def test_packed_letters_reject_other_alphabets(letters):
    with pytest.raises(InvalidInputError):
        InterleavingWord(letters=letters)


def test_order_word_of_irrational_density_deflates(prec):
    # Sturmian: 10^5 letters keep well under a kilobyte, not 12.5 KB.
    with prec.work():
        word = interleaving_word(
            ArithmeticProgression(step=mp.sqrt(2), free="0.3"),
            ArithmeticProgression(step=1, free=0),
            10 ** 5,
            Precision(bits=96),
        )
    assert len(word._z) < 1000
    assert InterleavingWord(letters=word.letters) == word


def test_packed_word_costs_one_bit_per_letter():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        word = InterleavingWord(letters="XYXXY" * 200_000)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert word.x_count == 600_000
    assert kept < 200_000
