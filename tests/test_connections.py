"""Connection-equation solver and the double-log asymptotics around it."""

import random

import pytest
from mpmath import mp, mpf

from polylab import (
    ConnectionProblem,
    DomainError,
    DoubleLogValue,
    InvalidInputError,
    LogValue,
    ModelViolationError,
    PerturbedPowerFamily,
    PerturbedProgression,
    Precision,
    apply_family_log,
    asymptotic_model,
    bracket_double_logs,
    generate_sequence,
    residual_analysis,
    solve_connection,
)
from polylab import connections
from tests.conftest import model_sequence

# 30-digit reference values for the standing example problem
# (C=2, Lambda=0.6, B=0.1), frozen from an independent evaluation of
# beta = ln(ln C/(1-L) - ln B) and theta = -e^(-beta) ln C/(1-L).
# Kept as strings: they must be parsed inside a working-precision block.
BETA_REF = "1.39511857407933561092292015368"
THETA_REF = "-0.429411005985357819420618405181"


def model_problem() -> ConnectionProblem:
    return ConnectionProblem(
        family=PerturbedPowerFamily(C=2, Lambda0="0.6"), B0="0.1", B1=0
    )


def frozen_model(C, L, B, prec):
    """The two-term model of the problem with frozen constants (C, L, B)."""
    return asymptotic_model(
        ConnectionProblem(family=PerturbedPowerFamily(C=C, Lambda0=L), B0=B), prec)


def test_beta_exact_points(prec):
    # beta = ln(t - ln B): t = 0 and ln B = -1 give 0; t = 1 and ln B = -1 give ln 2.
    with prec.work():
        assert abs(frozen_model(1, "0.5", mp.exp(-1), prec).free) < mpf(2) ** -250
        assert abs(frozen_model(mp.exp("0.5"), "0.5", mp.exp(-1), prec).free
                   - mp.log(2)) < mpf(2) ** -250
    with pytest.raises(DomainError):
        frozen_model("0.5", "0.5", "0.5", prec)       # t - ln B = -ln 2 <= 0


def test_theta_exact_points(prec):
    # theta = -t/(t - ln B): C = 1 gives t = 0 and no geometric term.
    with prec.work():
        assert frozen_model(1, "0.5", "0.37", prec).coeff == 0
        assert abs(frozen_model(mp.exp("0.5"), "0.5", mp.exp(-1), prec).coeff
                   + mpf("0.5")) < mpf(2) ** -250


def test_theta_two_routes_agree(prec):
    # -e^(-beta) t against -t / (t - ln B), t = ln C / (1 - L).
    rng = random.Random(5)
    with prec.work():
        for _ in range(100):
            C = mpf(rng.uniform(0.2, 4.0))
            L = mpf(rng.uniform(0.1, 0.9))
            t = mp.log(C) / (1 - L)
            # t - ln B > 0 and 0 < B < 1 by construction
            B = mp.exp(min(t, 0) - mpf(rng.uniform(0.05, 3.0)))
            model = frozen_model(C, L, B, prec)
            direct = -t / (t - mp.log(B))
            assert abs(model.coeff - direct) <= prec.tol * max(1, abs(direct))
            via_beta = -mp.exp(-model.free) * t
            assert abs(model.coeff - via_beta) <= prec.tol * max(1, abs(via_beta))


def test_problem_validation(prec):
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6")
    with pytest.raises(DomainError):
        ConnectionProblem(family=fam, B0="1.5", B1=0)


def test_model_constants_match_reference(prec):
    model = asymptotic_model(model_problem(), prec)
    with prec.work():
        assert abs(model.free - mpf(BETA_REF)) < mpf("1e-28")
        assert abs(model.coeff - mpf(THETA_REF)) < mpf("1e-28")
        assert model.base == mpf("0.6")
        assert model.step == -mp.log(mpf("0.6"))
        # sparkle prints a row at n = 0, where the model is beta + theta.
        assert model.value(0, prec) == model.free + model.coeff
    with pytest.raises(InvalidInputError):
        model.value(-1, prec)


def test_solve_connection_zero_iterations(prec):
    # psi=0, Lambda1=B1=0 and n=0: f_eps(0) = eps = B0 exactly.
    z0 = solve_connection(model_problem(), 0, prec)
    with prec.work():
        assert abs(z0.z - mp.log(mp.log(10))) < mpf("1e-35")


def test_solve_connection_quadratic_oracle(prec):
    # n=1, C=1, L=1/2: sqrt(eps) + eps = 1/4 has the closed-form root
    # eps = ((sqrt(2) - 1)/2)^2.
    prob = ConnectionProblem(
        family=PerturbedPowerFamily(C=1, Lambda0="0.5"), B0="0.25", B1=0
    )
    z1 = solve_connection(prob, 1, prec)
    with prec.work():
        oracle = ((mp.sqrt(2) - 1) / 2) ** 2
        assert abs(z1.to_eps(prec) - oracle) / oracle < mpf("1e-35")


def test_solve_connection_near_prediction(prec):
    prob = model_problem()
    model = asymptotic_model(prob, prec)
    z15 = solve_connection(prob, 15, prec)
    with prec.work():
        pred = model.value(15, prec)
        assert abs(z15.z - pred) <= abs(model.coeff) * mpf("0.6") ** 15 / 2


def test_solve_connection_rejects_negative_index(prec):
    with pytest.raises(InvalidInputError):
        solve_connection(model_problem(), -1, prec)


def test_sequence_monotone_with_limiting_spacing(prec):
    prob = model_problem()
    seq = generate_sequence(prob, 20, prec)
    model = asymptotic_model(prob, prec)
    assert [e.n for e in seq.entries] == list(range(21))
    with prec.work():
        zs = seq.z_values()
        assert all(zs[i + 1] > zs[i] for i in range(len(zs) - 1))
        L = mpf("0.6")
        spacing = zs[-1] - zs[-2]
        # first-order spacing |theta| L^(N-1) (1-L), with the o(L^n)
        # remainder allowed one more geometric factor
        bound = abs(model.coeff) * L ** 19 * (1 - L) * (1 + L ** 19 * 2) + mpf(prec.tol)
        assert abs(spacing + mp.log(L)) <= bound

    single = generate_sequence(prob, 0, prec)
    assert len(single) == 1


def two_term_model(prec, coeff="-0.8") -> PerturbedProgression:
    """z_n = -n ln 0.6 + 1.2 + coeff 0.6^n, the synthetic sequence model."""
    with prec.work():
        return PerturbedProgression(step=-mp.log(mpf("0.6")), free="1.2", coeff=coeff, base="0.6")


def test_residuals_of_exact_model_vanish(prec):
    for coeff in ("-0.8", 0):
        model = two_term_model(prec, coeff)
        seq = model_sequence(model, 14, prec)
        report = residual_analysis(seq, model, prec)
        assert report.verdict == "consistent"
        assert all(r == 0 for r in report.residuals)
        assert all(v == 0 for v in report.normalized)
    # Without the geometric term every first difference is -ln L, to rounding.
    with prec.work():
        zs = seq.z_values()
        ulp = max(abs(z) for z in zs) * mpf(2) ** (4 - prec.bits)
        assert all(abs(b - a + mp.log(mpf("0.6"))) <= ulp for a, b in zip(zs, zs[1:]))


def test_residuals_detect_higher_order_term(prec):
    model = two_term_model(prec)
    with prec.work():
        L = mpf("0.6")
        seq = model_sequence(model, 20, prec, extra=lambda n: L ** (2 * n))
    report = residual_analysis(seq, model, prec)
    assert report.verdict == "consistent"
    with prec.work():
        tail = report.normalized[report.tail_start:]
        # normalized residuals behave like L^n on the tail
        assert all(0 < tail[i + 1] < tail[i] for i in range(len(tail) - 1))


def test_residuals_reject_constant_offset(prec):
    model = two_term_model(prec)
    seq = model_sequence(model, 20, prec, extra=lambda n: mpf("1e-3"))
    report = residual_analysis(seq, model, prec)
    assert report.verdict == "inconsistent"


def test_residuals_need_enough_entries(prec):
    model = two_term_model(prec)
    seq = model_sequence(model, 5, prec)
    with pytest.raises(InvalidInputError):
        residual_analysis(seq, model, prec)


def _connection_law_excess(prob, N, prec):
    """max |z_n - c_n| / bound over the solved n = 0..N past the head, where
    c_n = -n ln L + ln(a - t L^n) is the connection law of the frozen constants
    and bound = exp(-(1-L) e^(z_n)) / min(1, C) + bracket width + 16 ulp of z_n.
    The head, where exp(-(1-L) e^(z_n)) > 2^-10, is skipped."""
    seq = generate_sequence(prob, N, prec)
    with prec.work():
        L, C = mpf(prob.family.Lambda0), mpf(prob.family.C)
        t, a = connections._mark_terms(C, L, prob.B0)
        worst = mpf(0)
        for e in seq.entries:
            remainder = mp.exp(-(1 - L) * mp.exp(e.z))
            if remainder > mpf(2) ** -10:
                continue
            c = -e.n * mp.log(L) + mp.log(a - t * L ** e.n)
            bound = remainder / min(1, C) + e.bracket_width + abs(e.z) * mpf(2) ** (4 - prec.bits)
            worst = max(worst, abs(e.z - c) / bound)
        return worst


def test_connection_law_holds_past_the_head():
    # The paper's improved asymptotics to all orders in L^n: with
    # t = ln C/(1-L) and a = t - ln B, z_n = -n ln L + ln(a - t L^n) up to
    # terms of order exp(-(1-L) e^(z_n)).  The bound is measured, not
    # proven: past the head the worst ratio seen was 0.75 (model variant,
    # 60 draws at 128 bits, n <= 25) and 0.5, the noise floor, elsewhere.
    # In the head it fails: the bare exponential was exceeded 2.46 times
    # at n = 2 (model, C = 0.555, L = 0.333).
    for bits in (256, 512, 1024):
        assert _connection_law_excess(model_problem(), 30, Precision(bits=bits)) <= 1, bits
    rng = random.Random(28)
    prec = Precision(bits=128)
    for variant in VARIANTS:
        for _ in range(3):
            prob = _random_problem(rng, variant)
            assert _connection_law_excess(prob, 25, prec) <= 1, (variant, prob)


def test_connection_law_recovers_the_model(prec):
    # E_n = e^(z_n) = a L^-n - t up to exp(-(1-L) E_n), so three late E_n
    # give L, ln C, t and a exactly: the oracle for the model's constants.
    prob = model_problem()
    seq = generate_sequence(prob, 20, prec)
    model = asymptotic_model(prob, prec)
    with prec.work():
        E18, E19, E20 = (mp.exp(z) for z in seq.z_values()[18:])
        L = (E19 - E18) / (E20 - E19)
        lnC = L * E19 - E18
        t = lnC / (1 - L)
        a = (E18 + t) * L ** 18
        tol = mpf("1e-30")
        assert abs(L - model.base) < tol
        assert abs(lnC - mp.log(2)) < tol
        assert abs(mp.log(a) - model.free) < tol
        assert abs(-t / a - model.coeff) < tol


def test_closed_form_brackets_straddle(prec):
    # Unit envelope constant: the comparison maps straddle the solved z_n.
    # The true margins shrink double-exponentially in n, so strictness is
    # asserted only while they stay above the solver tolerance; past that
    # the straddle is checked up to solver noise.
    prob = model_problem()
    for n in range(3, 10):
        z = solve_connection(prob, n, prec)
        lo, hi = bracket_double_logs(prob, n, z, 1, prec)
        with prec.work():
            noise = 16 * mpf(prec.tol) * max(1, abs(z.z))
            assert lo - noise < z.z < hi + noise
            if n <= 7:
                assert lo < z.z < hi
            if n <= 6:
                assert min(z.z - lo, hi - z.z) > mpf("1e-20")


# z_0..z_10 at 256 bits for C = 2, Lambda = 0.6 + 0.2 eps, B = 0.1 + 0.05 eps
# and psi(u, eps) = u/4 + eps/3, as solved when this test was added.
PSI_Z_REF = (
    "0.8269493255475794490673075212394932551503921538612896183274849162836158",
    "1.626646725505402534391829602687327286892825657186318087888945278133409",
    "2.250964496952705678432802676543191220441974162962916535915488851570022",
    "2.830312108806256963053611489189075930205543665098134975712944308188794",
    "3.381161106865721116920050405624550087127458812034824262070939475869548",
    "3.915285484494437220040508890053134202099232697484044264664491130334772",
    "4.4398343027189241054044711338685795454165577847883656218702049044705",
    "4.958804346904106904965339777825356984603301749686806558111022217119619",
    "5.474484972741196564989083458270631072421831159232632844433694131047777",
    "5.988212323780543365758138077435266384732947226909335222225537272692752",
    "6.500774950881538349971038896116848476598696554082614179969100614064885",
)


def psi_problem(psi) -> ConnectionProblem:
    return ConnectionProblem(
        family=PerturbedPowerFamily(C=2, Lambda0="0.6", Lambda1="0.2", psi=psi),
        B0="0.1", B1="0.05",
    )


def test_psi_family_sequence_pinned_and_bracketed(prec):
    # The psi branch of the solver: its z_n are pinned, and each one is
    # straddled by the residual of n + 1 public family steps from x = 0.
    prob = psi_problem(lambda u, eps: u / 4 + eps / 3)
    seq = generate_sequence(prob, 10, prec)
    with prec.work():
        assert tuple(mp.nstr(z, 70) for z in seq.z_values()) == PSI_Z_REF

        def residual(w):
            eps_z = DoubleLogValue(w)
            eps = eps_z.to_eps(prec)
            y = LogValue(mp.inf)
            for _ in range(e.n + 1):
                y = apply_family_log(prob.family, eps_z, y, prec)
            return y.y + mp.log(mpf(prob.B0) + mpf(prob.B1) * eps)

        for e in seq.entries:
            assert residual(e.z - prec.tol) < 0 < residual(e.z + prec.tol)


def test_psi_at_or_below_minus_one_is_a_model_violation(prec):
    prob = psi_problem(lambda u, eps: u - 1)
    with pytest.raises(ModelViolationError):
        solve_connection(prob, 3, prec)
    with pytest.raises(ModelViolationError):
        apply_family_log(prob.family, DoubleLogValue(1), LogValue(mp.inf), prec)


def _halving_oracle(prob, n, prec):
    """The plain halving loop the connection solver replays, kept verbatim:
    its (w, width) is what `_bisect_connection` must return bit for bit."""
    with prec.work():
        model = connections.asymptotic_model(prob, prec)
        center = model.value(n, prec)
        tol = mpf(prec.tol)
        gap = connections._orbit_gap_fn(prob, n, prec)
        r = mpf(connections._BRACKET_RADIUS)
        lo, hi = center - r, center + r
        glo, ghi = gap(lo), gap(hi)
        if glo > 0 and ghi < 0:
            raise ModelViolationError(
                f"residual decreases across initial bracket at n = {n}; "
                "family violates monotonicity in eps"
            )
        doublings = 0
        while not (glo <= 0 <= ghi):
            if doublings >= connections._MAX_DOUBLINGS:
                raise connections.BracketError(
                    f"no sign change after {connections._MAX_DOUBLINGS} doublings at n = {n}"
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
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break                 # mantissa exhausted
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2, hi - lo


@pytest.fixture
def gap_calls(monkeypatch):
    """Counts gap evaluations per solve: one list entry per `_orbit_gap_fn` call."""
    counts = []
    real = connections._orbit_gap_fn

    def counting(prob, n, prec):
        gap = real(prob, n, prec)
        counts.append(0)
        slot = len(counts) - 1

        def counted(w):
            counts[slot] += 1
            return gap(w)

        return counted

    monkeypatch.setattr(connections, "_orbit_gap_fn", counting)
    return counts


def _random_problem(rng, variant):
    """A random admissible problem: plain model, Lambda1 != 0, B1 != 0 or a psi term."""
    while True:
        fam = PerturbedPowerFamily(
            C=rng.uniform(0.5, 3.0),
            Lambda0=rng.uniform(0.3, 0.85),
            Lambda1=rng.uniform(0.05, 0.3) if variant == "Lambda1" else 0,
            psi=(lambda u, eps: u / 4 + eps / 3) if variant == "psi" else None,
        )
        prob = ConnectionProblem(family=fam, B0=rng.uniform(0.02, 0.4),
                                 B1=rng.uniform(-0.05, 0.1) if variant == "B1" else 0)
        try:
            asymptotic_model(prob, Precision(bits=64))
            return prob
        except DomainError:
            continue                  # inadmissible mark: draw again


VARIANTS = ("model", "Lambda1", "B1", "psi")


def _identity_cases(bits):
    """(variant, n) pairs: the full product, twice below 256 bits; at 512 and
    1024 bits, where the oracle is slowest, each n once with the variants in
    turn, psi (the dearest orbit step) away from n = 70."""
    ns = (0, 1, 2, 5, 20, 70)
    if bits >= 512:
        return [(VARIANTS[(i + bits // 1024) % 4], n) for i, n in enumerate(reversed(ns))]
    return [(v, n) for v in VARIANTS for n in ns] * (2 if bits < 256 else 1)


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
def test_solver_is_bit_identical_to_halving(bits):
    # 132 seeded problems in all, each n under each problem variant.
    rng = random.Random(bits)
    prec = Precision(bits=bits)
    for variant, n in _identity_cases(bits):
        prob = _random_problem(rng, variant)
        w, width = connections._bisect_connection(prob, n, prec)
        assert (w, width) == _halving_oracle(prob, n, prec), (variant, n, prob)


@pytest.mark.parametrize("bits", [256, 512, 1024])
def test_solver_gap_evaluations_per_solve(bits, gap_calls):
    # The plain halving loop makes 131, 259 and 515 evaluations per solve here.
    # From n = 12 on the closed-form centre straddles the root at once: two
    # evaluations for the starting bracket and two around the centre.
    generate_sequence(model_problem(), 25, Precision(bits=bits))
    assert len(gap_calls) == 26
    assert max(gap_calls) <= 25, gap_calls
    assert max(gap_calls[12:]) <= 4, gap_calls


def test_solver_at_exhausted_mantissa_matches_halving(gap_calls):
    # tol = 2^-80 is below the last bit of a 64-bit z_n: both loops stop on
    # mid == lo or mid == hi, and the locate step must stop too.
    prec = Precision(bits=64, tol=mpf(2) ** -80)
    seq = generate_sequence(model_problem(), 10, prec)
    ours = list(gap_calls)
    for e in seq.entries:
        assert (e.z, e.bracket_width) == _halving_oracle(model_problem(), e.n, prec)
    halving = gap_calls[len(ours):]
    assert all(a <= b for a, b in zip(ours, halving)), (ours, halving)
    # The gap's rounding noise here spans a few last bits of w: a margin of
    # tol 2^-(bits/4) alone, below one ulp, gives a wrong sign on replay.
    prob = ConnectionProblem(
        family=PerturbedPowerFamily(C="2.948", Lambda0="0.683", psi=lambda u, eps: u / 4 + eps / 3),
        B0="0.164",
    )
    assert connections._bisect_connection(prob, 0, prec) == _halving_oracle(prob, 0, prec)
