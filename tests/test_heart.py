"""Two-saddle family invariants, re-marking covariance, and obstruction search."""

import random

import pytest
from mpmath import mp, mpf

from polylab import (
    DomainError,
    HeartFamily,
    InvalidInputError,
    PolylabError,
    RangeError,
    SolverError,
    compare,
    connection_problems,
    engineer_base_mismatch,
    generate_sequence,
    invariants,
    pair_invariants,
    progression_model,
    re_mark,
    relative_scale_from_progressions,
)
from polylab import heart
from polylab.progressions import SearchBounds
from tests.conftest import random_family

# Standing example family (lam=0.5, mu=5, C1=2, C2=3, B1=0.1, B2=0.2);
# 30-digit references frozen from direct evaluation of the defining
# formulas: A = -ln(lam)/ln(lam^2 mu), beta_j = ln(t_j - ln B_j) with
# t_j = ln(C_j)/(1 - nu_j), Xi = (t2 - t1)/a1, Theta = (t1 - t2)/a2.
EXAMPLE = dict(lam="0.5", mu=5, C1=2, C2=3, B1="0.1", B2="0.2")
REF = {
    "A": "3.10628371950538987600239849178",
    "beta1": "1.30532274096323669813887169039",
    "beta2": "1.96044674404217491923076910888",
    "tau_prog": "-2.93588588700219363982078751418",
    "Xi": "1.11328308048686225243154719581",
    "Theta": "-0.578214354765364813443440502891",
    "xi_coeff": "0.375803649418215155485341699793",
    "psi_coeff": "0.77339837262701677658612973983",
}


def example_family() -> HeartFamily:
    return HeartFamily(**EXAMPLE)


def test_family_validation():
    with pytest.raises(InvalidInputError):
        HeartFamily(lam=1, mu=5, C1=2, C2=3, B1="0.1", B2="0.2")
    with pytest.raises(InvalidInputError):
        HeartFamily(lam="0.5", mu=3, C1=2, C2=3, B1="0.1", B2="0.2")  # lam^2 mu < 1
    with pytest.raises(InvalidInputError):
        HeartFamily(lam="0.5", mu=5, C1=0, C2=3, B1="0.1", B2="0.2")
    with pytest.raises(InvalidInputError):
        HeartFamily(lam="0.5", mu=5, C1=2, C2=3, B1="1.1", B2="0.2")


def test_characteristic_exponents(prec):
    fam = example_family()
    with prec.work():
        assert fam.nu(1, prec) == mpf("0.5")
        assert abs(fam.nu(2, prec) - mpf("0.8")) < mpf(2) ** -250
    with pytest.raises(InvalidInputError):
        fam.nu(3, prec)


def test_invariants_match_reference(prec):
    inv = invariants(example_family(), prec)
    with prec.work():
        for field, ref in REF.items():
            got = getattr(inv, field)
            assert abs(got - mpf(ref)) < mpf("1e-28"), field
        assert abs(float(inv.A) - 3.10628) < 1e-5
        assert inv.tau_paper == -inv.tau_prog
        assert abs(inv.alpha - mp.log(2)) < mpf(2) ** -250
        assert abs(inv.gamma + mp.log(mpf("0.8"))) < mpf(2) ** -250
        assert inv.theta1 == -inv.xi_coeff and inv.theta2 == -inv.psi_coeff
        assert inv.xi_nonzero


def test_invariants_residues_are_reduced(prec):
    inv = invariants(example_family(), prec)
    with prec.work():
        assert 0 <= inv.res_mod_step1 < inv.alpha
        turns = (inv.ln_abs_Xi - inv.res_mod_step1) / inv.alpha
        assert abs(turns - mp.nint(turns)) < mpf("1e-30")


def test_inadmissible_mark_raises_domain_error(prec):
    # C1 < 1 pushes t1 negative; a mark above the fixed point makes
    # t1 - ln B1 negative and the double-log argument collapses.
    fam = HeartFamily(lam="0.5", mu=5, C1="0.5", C2=3, B1="0.9", B2="0.2")
    with pytest.raises(DomainError) as err:
        invariants(fam, prec)
    assert "re_mark" in str(err.value)


def test_degenerate_scale_coefficient_flagged(prec):
    # ln C2/(1-nu2) = ln C1/(1-nu1) forces Xi = 0.
    with mp.workprec(300):
        C2 = mp.exp(mpf("0.2") / mpf("0.5") * mp.log(2))
    fam = HeartFamily(lam="0.5", mu=5, C1=2, C2=C2, B1="0.1", B2="0.2")
    inv = invariants(fam, prec)
    assert not inv.xi_nonzero
    assert inv.ln_abs_Xi is None
    assert inv.res_mod_step1 is None


def test_scale_identity_on_random_families(prec):
    rng = random.Random(31)
    with prec.work():
        for _ in range(10):
            inv = invariants(random_family(rng, prec), prec)
            lhs = mp.log(abs(inv.Xi)) - mp.log(abs(inv.Theta))
            rhs = inv.beta2 - inv.beta1
            assert abs(lhs - rhs) <= mpf("1e-60") * max(1, abs(rhs))


def test_window_scale_identity_on_random_families(prec):
    rng = random.Random(37)
    with prec.work():
        for _ in range(10):
            inv = invariants(random_family(rng, prec), prec)
            via_prog = relative_scale_from_progressions(
                inv.xi_coeff, inv.psi_coeff, inv.nu2, inv.tau_prog, prec
            )
            assert abs(via_prog - inv.Xi) <= mpf("1e-60") * max(1, abs(inv.Xi))


def test_progression_model_reproduces_invariants(prec):
    fam = example_family()
    inv = invariants(fam, prec)
    loop, outer = progression_model(fam, prec)
    with prec.work():
        assert abs(mpf(loop.step) - mp.log(2)) < mpf(2) ** -250
        assert abs(mpf(outer.step) + mp.log(mpf("0.8"))) < mpf(2) ** -250
        pi = pair_invariants(loop, outer, prec)
        assert abs(pi.A - inv.A) <= mpf(2) ** -248
        assert abs(pi.tau - inv.tau_prog) <= mpf(2) ** -248
        assert mpf(loop.free) == inv.beta1 and mpf(outer.free) == inv.beta2
        assert mpf(loop.coeff) == inv.theta1 and mpf(outer.coeff) == inv.theta2
        assert mpf(loop.base) == inv.nu1 and mpf(outer.base) == inv.nu2


def test_connection_problems_carry_family_constants(prec):
    loop, outer = connection_problems(example_family(), prec)
    with prec.work():
        assert mpf(loop.family.C) == 2 and mpf(loop.B0) == mpf("0.1")
        assert mpf(loop.family.Lambda0) == mpf("0.5")
        assert mpf(outer.family.C) == 3 and mpf(outer.B0) == mpf("0.2")
        assert abs(mpf(outer.family.Lambda0) - mpf("0.8")) < mpf(2) ** -250


def test_re_mark_identity_and_covariance(prec):
    fam = example_family()
    inv = invariants(fam, prec)

    same = re_mark(fam, 1, 0, prec)
    with prec.work():
        assert mpf(same.B1) == mpf(fam.B1)

    # One forward turn of the loop map: beta1 gains ln nu1, so the
    # ln-nu2-normalized offset gains A and Xi picks up nu1^(-1).
    turned = re_mark(fam, 1, 1, prec)
    inv1 = invariants(turned, prec)
    with prec.work():
        tol = mpf("1e-60")
        assert abs(inv1.beta1 - (inv.beta1 + mp.log(inv.nu1))) < tol
        assert abs(inv1.tau_paper - (inv.tau_paper + inv.A)) < tol
        assert abs(inv1.tau_prog - (inv.tau_prog - inv.A)) < tol
        assert abs(inv1.Xi - inv.Xi / inv.nu1) < tol
        assert abs(inv1.Theta - inv.Theta) < tol

    # One forward turn of the outer map: only beta2 and Theta move.
    outer_turned = re_mark(fam, 2, 1, prec)
    inv2 = invariants(outer_turned, prec)
    with prec.work():
        assert abs(inv2.beta2 - (inv.beta2 + mp.log(inv.nu2))) < tol
        assert abs(inv2.tau_paper - (inv.tau_paper - 1)) < tol
        assert abs(inv2.Xi - inv.Xi) < tol
        assert abs(inv2.Theta - inv.Theta / inv.nu2) < tol

    # Backward turns: tau_paper moves by k*A (loop) or -k (outer), and
    # only the loop turn rescales Xi, by nu1^(-k).
    for j, k in ((1, -2), (2, -3)):
        inv3 = invariants(re_mark(fam, j, k, prec), prec)
        with prec.work():
            if j == 1:
                want_tau, want_Xi = inv.tau_paper + k * inv.A, inv.Xi * inv.nu1 ** (-k)
            else:
                want_tau, want_Xi = inv.tau_paper - k, inv.Xi
            assert abs(inv3.tau_paper - want_tau) < tol
            assert abs(inv3.Xi - want_Xi) < tol


def test_re_mark_round_trip(prec):
    fam = example_family()
    back = re_mark(re_mark(fam, 1, 1, prec), 1, -1, prec)
    with prec.work():
        assert abs(mpf(back.B1) - mpf("0.1")) < mpf("1e-60")


def test_re_mark_leaving_unit_interval_raises(prec):
    # C1=2 has fixed point 4; two forward turns push B1=0.1 above 1.
    with pytest.raises(RangeError):
        re_mark(example_family(), 1, 2, prec)


def test_compare_family_with_itself(prec):
    fam = example_family()
    report = compare(fam, fam, prec, depth=1500)
    assert report.verdict == "possibly-equivalent"
    assert (report.shift.s, report.shift.p) == (0, 0)
    assert report.undecided == 0
    assert report.irrationality.treated_irrational


def test_compare_after_re_marking(prec):
    fam = example_family()
    report = compare(fam, re_mark(fam, 1, 1, prec), prec, depth=1500)
    assert report.verdict == "possibly-equivalent"
    assert (report.shift.s, report.shift.p) == (1, 0)
    with prec.work():
        ratio = report.xi_congruence["ratio"]
        assert abs(ratio - 1 / mpf("0.5")) < mpf("1e-30")


def test_compare_density_mismatch(prec):
    f1 = example_family()
    f2 = HeartFamily(lam="0.52", mu=5, C1=2, C2=3, B1="0.1", B2="0.2")
    report = compare(f1, f2, prec, depth=100)
    assert report.inequivalent
    assert "densities" in report.reason


def test_compare_offset_mismatch(prec):
    # Same saddles, same multipliers, second mark moved arbitrarily:
    # tau falls off the (1, A) lattice.
    f1 = example_family()
    f2 = HeartFamily(lam="0.5", mu=5, C1=2, C2=3, B1="0.1", B2="0.37")
    report = compare(f1, f2, prec, depth=100)
    assert report.inequivalent
    assert "tau" in report.reason
    assert report.margins["tau_best_residual"] > 0


def test_compare_engineered_base_mismatch(prec):
    fam = example_family()
    f1, f2, meta = engineer_base_mismatch(fam, "0.55", 18, prec)
    with prec.work():
        t1, t2 = meta["threshold1"], meta["threshold2"]
        assert min(t1, t2) < meta["D"] < max(t1, t2)
    report = compare(f1, f2, prec, depth=3000)
    assert report.inequivalent
    assert "good pair" in report.reason
    assert report.witness["n"] <= 3000
    assert report.witness["order1"] != report.witness["order2"]
    # verdict symmetry: the roles of the families may swap the witness
    mirrored = compare(f2, f1, prec, depth=3000)
    assert mirrored.inequivalent


def test_engineer_rejects_tiny_index(prec):
    with pytest.raises(InvalidInputError):
        engineer_base_mismatch(example_family(), "0.55", 3, prec)


def test_engineer_diverging_offset_raises_solver_error(prec):
    # On this family the first offset step already leaves the good-pair
    # window; iterated further, ln a1 would run 1.0, 2.6, 10.4, 827, ...
    fam = HeartFamily(lam="0.7887600743819048", mu="4.971476089735281",
                      C1="0.2038385795129057", C2="0.36295935571212634",
                      B1="0.000209060904088355", B2="0.0525513611809926")
    with pytest.raises(SolverError, match="good pair"):
        engineer_base_mismatch(fam, "0.896802038895181", 24, prec)


def test_solver_tables_order_like_the_model_and_its_re_marking(prec):
    # At every index n <= 8 with m = nint(A n + tau) >= 1, the solver's
    # z_loop(n) - z_outer(m) has the sign of the model's, for the family
    # and its re-marking by one loop turn, and the re-marked family at
    # (n + 1, m) orders as the original at (n, m): the shift (1, 0).
    fam = example_family()
    inv = invariants(fam, prec)
    m_cap = int(mp.nint(inv.A * 9 + inv.tau_prog)) + 6
    tables = []
    for f in (fam, re_mark(fam, 1, 1, prec)):
        loop, outer = connection_problems(f, prec)
        tables.append((generate_sequence(loop, 9, prec).entries,
                       generate_sequence(outer, m_cap, prec).entries,
                       *progression_model(f, prec)))

    def orders(table, n, m):
        z, w, x, y = table
        return mp.sign(z[n].z - w[m].z), mp.sign(x.value(n, prec) - y.value(m, prec))

    pairs = 0
    with prec.work():
        for n in range(1, 9):
            m = int(mp.nint(inv.A * n + inv.tau_prog))
            if m < 1:
                continue
            solver, model = orders(tables[0], n, m)
            marked, marked_model = orders(tables[1], n + 1, m)
            assert solver == model == marked == marked_model != 0
            pairs += 1
    assert pairs == 7


def test_compare_accepts_re_marked_random_families(prec):
    # A family and its re-marking by k loop turns are one vector field;
    # the head letters before the geometric terms fall below 1/n may be
    # out of order, yet no good pair up to depth 500 may disagree.  The
    # Xi residue mod ln(1/nu1) matches, k whole turns apart.
    rng = random.Random(5)
    for i in range(120):
        k = (1, -1, 2, -2, 3, -3)[i % 6]
        fam = random_family(rng, prec)
        report = compare(fam, re_mark(fam, 1, k, prec), prec, depth=500)
        assert report.verdict == "possibly-equivalent", (i, k, report.reason)
        assert (report.shift.s, report.shift.p) == (k, 0)
        assert report.undecided == 0
        assert report.xi_congruence["match_step1"], (i, k)
        assert report.xi_congruence["res_step1_turns"] == k


def test_compare_rejects_engineered_random_pairs(prec):
    # 20 engineered base mismatches stay inequivalent at a good pair;
    # draws the engineering cannot realize are skipped.
    rng = random.Random(11)
    found = 0
    while found < 20:
        fam = random_family(rng, prec)
        with prec.work():
            new_lam = mpf(fam.lam) * mpf(rng.uniform(1.05, 1.15))
        try:
            f1, f2, _ = engineer_base_mismatch(fam, new_lam, rng.randint(20, 40), prec)
        except PolylabError:
            continue
        report = compare(f1, f2, prec, depth=10 ** 4)
        assert report.inequivalent and "good pair" in report.reason
        assert report.witness["order1"] != report.witness["order2"]
        found += 1


def test_compare_model_route_evaluates_invariants_once_per_family(prec, monkeypatch):
    # The model progressions are built from the invariants compare holds.
    fam = example_family()
    marked = re_mark(fam, 1, 1, prec)
    calls = []
    real = heart.invariants
    monkeypatch.setattr(heart, "invariants", lambda f, p: calls.append(f) or real(f, p))
    rep = compare(fam, marked, prec, depth=500)
    assert rep.verdict == "possibly-equivalent" and rep.checked_depth == 500
    assert calls == [fam, marked]
