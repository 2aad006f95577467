"""Power maps, their perturbed families, and the envelope estimates."""

import random

import pytest
from mpmath import mp, mpf

from polylab import (
    DegenerateExponentError,
    DomainError,
    DoubleLogValue,
    InvalidInputError,
    LogValue,
    ModelViolationError,
    PerturbedPowerFamily,
    PowerMap,
    Precision,
    apply_family_log,
    apply_log,
    closed_iterate,
    envelope_profile,
)
from tests.conftest import random_model


def test_power_map_validation():
    with pytest.raises(InvalidInputError):
        PowerMap(C=0, nu=0.5)
    with pytest.raises(InvalidInputError):
        PowerMap(C=1, nu=-0.2)


def test_apply_log_identity_map(prec):
    with prec.work():
        pm = PowerMap(C=1, nu=1)
        y = LogValue(mpf("3.25"))
        assert apply_log(pm, y, prec).y == y.y


def test_apply_log_known_point(prec):
    # f(x) = 2 sqrt(x): y' = y/2 - ln 2, so y = 4 gives 2 - ln 2.
    with prec.work():
        pm = PowerMap(C=2, nu="0.5")
        out = apply_log(pm, LogValue(mpf(4)), prec)
        expected = 2 - mp.log(2)
        assert abs(out.y - expected) < mpf(2) ** -250
        assert abs(float(out.y) - 1.306853) < 1e-6


def test_apply_log_fixed_point(prec):
    # y* = -ln C / (1 - nu) stays put; for C=2, nu=1/2 that is -2 ln 2.
    with prec.work():
        pm = PowerMap(C=2, nu="0.5")
        ystar = -2 * mp.log(2)
        out = apply_log(pm, LogValue(ystar), prec)
        assert abs(out.y - ystar) < mpf(2) ** -250


def test_apply_log_endpoint(prec):
    out = apply_log(PowerMap(C=2, nu="0.5"), LogValue(mp.inf), prec)
    assert out.is_endpoint


def test_closed_iterate_trivial_cases(prec):
    with prec.work():
        pm = PowerMap(C="1.7", nu="0.45")
        y = LogValue(mpf("2.5"))
        assert closed_iterate(pm, y, 0, prec).y == y.y
        one = closed_iterate(pm, y, 1, prec)
        assert abs(one.y - apply_log(pm, y, prec).y) < mpf(2) ** -250


def test_closed_iterate_two_steps_linear_scale(prec):
    # f(x) = 2 sqrt(x): 0.25 -> 1 -> 2; the chart must accept x > 1.
    with prec.work():
        pm = PowerMap(C=2, nu="0.5")
        y = LogValue.from_x("0.25", prec)
        out = closed_iterate(pm, y, 2, prec)
        assert abs(out.y - (-mp.log(2))) < mpf(2) ** -250
        assert abs(out.to_x(prec) - 2) < mpf(2) ** -248
        # matches the explicit double composition
        two = apply_log(pm, apply_log(pm, y, prec), prec)
        assert abs(out.y - two.y) < mpf(2) ** -250


def test_closed_iterate_matches_composition(prec):
    rng = random.Random(3)
    with prec.work():
        for _ in range(20):
            pm = PowerMap(C=rng.uniform(0.5, 3.0), nu=rng.uniform(0.2, 0.9))
            y = LogValue(mpf(rng.uniform(0.5, 20.0)))
            steps = y
            for n in range(1, 31):
                steps = apply_log(pm, steps, prec)
                closed = closed_iterate(pm, y, n, prec)
                assert abs(closed.y - steps.y) <= prec.tol * max(1, abs(steps.y))


def test_closed_iterate_rejects_unit_exponent(prec):
    with pytest.raises(DegenerateExponentError):
        closed_iterate(PowerMap(C=2, nu=1), LogValue(mpf(1)), 3, prec)


def test_family_validation_and_exponent(prec):
    with pytest.raises(InvalidInputError):
        PerturbedPowerFamily(C=2, Lambda0="1.2")
    with pytest.raises(InvalidInputError):
        PerturbedPowerFamily(C=-1, Lambda0="0.5")
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6", Lambda1="0.25")
    with prec.work():
        assert abs(fam.exponent(mpf("0.1"), prec) - mpf("0.625")) < mpf(2) ** -250
    with pytest.raises(DomainError):
        PerturbedPowerFamily(C=2, Lambda0="0.6", Lambda1=-10).exponent(mpf("0.1"), prec)
    frozen = fam.frozen()
    assert mpf(frozen.C) == 2 and mpf(frozen.nu) == mpf("0.6")


def test_family_zero_parameter_flag(prec):
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6", Lambda1="0.3")
    with prec.work():
        y = LogValue(mpf(5))
        flagged = apply_family_log(fam, None, y, prec)
        frozen = apply_log(fam.frozen(), y, prec)
        assert flagged.y == frozen.y


def test_family_linear_scale_arithmetic(prec):
    # C=1, Lambda=0.5, psi=0: f(0.04) at eps=0.05 is 0.2 + 0.05 = 0.25.
    fam = PerturbedPowerFamily(C=1, Lambda0="0.5")
    with prec.work():
        y = LogValue.from_x("0.04", prec)
        z = DoubleLogValue.from_eps("0.05", prec)
        out = apply_family_log(fam, z, y, prec)
        assert abs(out.y - (-mp.log(mpf("0.25")))) < mpf(2) ** -245


def test_family_maps_origin_to_eps(prec):
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6")
    with prec.work():
        z = DoubleLogValue.from_eps("0.001", prec)
        out = apply_family_log(fam, z, LogValue(mp.inf), prec)
        assert abs(out.to_x(prec) - mpf("0.001")) < mpf(2) ** -240


def test_family_monotone_in_x_and_eps(prec):
    rng = random.Random(17)
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6")
    with prec.work():
        for _ in range(100):
            x = mpf(rng.uniform(1e-6, 0.5))
            e1 = mpf(rng.uniform(1e-9, 1e-2))
            e2 = e1 * (1 + mpf(rng.uniform(0.01, 2.0)))
            y = LogValue.from_x(x, prec)
            z1 = DoubleLogValue.from_eps(e1, prec)
            z2 = DoubleLogValue.from_eps(e2, prec)
            f1 = apply_family_log(fam, z1, y, prec)
            f2 = apply_family_log(fam, z2, y, prec)
            assert f2.y < f1.y  # larger eps, larger image, smaller y
            x2 = x * (1 + mpf(rng.uniform(0.01, 1.0)))
            g = apply_family_log(fam, z1, LogValue.from_x(x2, prec), prec)
            assert g.y < f1.y


def test_family_rejects_psi_destroying_perturbation(prec):
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6", psi=lambda u, e: mpf("-1.5"))
    with prec.work():
        z = DoubleLogValue.from_eps("0.01", prec)
        with pytest.raises(ModelViolationError):
            apply_family_log(fam, z, LogValue(mpf(3)), prec)


def test_sandwich_single_point_strict(prec):
    # (C=2, L=0.6), eps=1e-6, x=1e-3: both envelope inequalities strict at k=1.
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6")
    with prec.work():
        eps, x = mpf("1e-6"), mpf("1e-3")
        f = apply_family_log(fam, DoubleLogValue.from_eps(eps, prec), LogValue.from_x(x, prec), prec).to_x(prec)
        lo = (2 - eps ** mpf("0.4")) * x ** mpf("0.6")
        hi = (2 + eps ** mpf("0.4")) * x ** mpf("0.6")
        assert lo < f < hi


def test_sandwich_model_case_passes_with_unit_k(prec):
    # k = 1 bounds the envelope on the grid: each k_hat / eps^(1-L) is below 1.
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6")
    profile = envelope_profile(fam, ("1e-8", "1e-6", "1e-4"), "0.1", prec, x_count=24)
    assert all(0 < k_hat for _, k_hat, _ in profile)
    assert max(k_norm for _, _, k_norm in profile) < 1


def test_sandwich_halved_domain_needs_larger_k(prec):
    # Widening the domain to eps/2 < x raises the constant, but k = 2 still holds.
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6")
    eps_values = ("1e-8", "1e-6")
    narrow = envelope_profile(fam, eps_values, "0.1", prec)
    wide = envelope_profile(fam, eps_values, "0.1", prec, halved_domain=True)
    k_narrow = max(k_norm for _, _, k_norm in narrow)
    k_wide = max(k_norm for _, _, k_norm in wide)
    assert k_narrow < k_wide < 2


def test_sandwich_rejects_empty_domain(prec):
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6")
    with pytest.raises(InvalidInputError):
        envelope_profile(fam, ["0.5"], "0.1", prec)
    with pytest.raises(InvalidInputError):
        envelope_profile(fam, ["1e-6"], "0.1", prec, x_count=0)


def _pointwise_profile(fam, eps_values, x0, prec, x_count, halved_domain):
    """envelope_profile as it was first written: every grid point takes the
    public log-chart route from x and eps on its own."""
    out = []
    with prec.work():
        L0 = mpf(fam.Lambda0)
        for eps in eps_values:
            ev = mpf(eps)
            llo, lhi = mp.log(ev / 2 if halved_domain else ev), mp.log(mpf(x0))
            khat = mpf(0)
            for j in range(x_count):
                x = mp.exp(llo + (lhi - llo) * mpf(j + 1) / (x_count + 1))
                y = LogValue.from_x(x, prec)
                yf = apply_family_log(fam, DoubleLogValue.from_eps(ev, prec), y, prec)
                lnratio = L0 * mpf(y.y) - mpf(yf.y) - mp.log(mpf(fam.C))
                khat = max(khat, abs(mpf(fam.C) * mp.expm1(lnratio)))
            out.append((ev, khat, khat / ev ** (1 - L0)))
    return out


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("halved_domain", [False, True])
@pytest.mark.parametrize("fam", [
    PerturbedPowerFamily(C=2, Lambda0="0.6"),
    PerturbedPowerFamily(C="1.7", Lambda0="0.45", Lambda1="0.8"),
    PerturbedPowerFamily(C="2.948", Lambda0="0.683", psi=lambda u, eps: u / 4 + eps / 3),
], ids=["model", "Lambda1", "psi"])
def test_envelope_profile_matches_pointwise_route(fam, halved_domain, bits):
    # Forming the per-eps values once must not move a bit of any row.
    prec = Precision(bits=bits)
    eps_values = ("1e-9", "3e-7", "1e-5", "0.002")
    got = envelope_profile(fam, eps_values, "0.1", prec, halved_domain=halved_domain)
    want = _pointwise_profile(fam, eps_values, "0.1", prec, 32, halved_domain)
    assert got == want


def test_envelope_profile_rejects_psi_without_value(prec):
    # A NaN psi must stop the profile, not drop out of its maximum.
    fam = PerturbedPowerFamily(C=2, Lambda0="0.6", psi=lambda u, eps: mp.nan)
    with pytest.raises(ModelViolationError):
        envelope_profile(fam, ["1e-6"], "0.1", prec)


def test_envelope_scaling_stays_bounded(prec):
    # k_hat(eps) / eps^(1-L) level across six decades of eps.
    rng = random.Random(23)
    fam = random_model(rng)
    with prec.work():
        eps_values = [mpf(10) ** (-mpf(3) - mpf(6) * j / 11) for j in range(12)]
    profile = envelope_profile(fam, eps_values, "0.1", prec)
    normalized = [row[2] for row in profile]
    assert max(normalized) / min(normalized) < 10
