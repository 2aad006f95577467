"""Log-chart arithmetic: exact cases, invariances, and precision policy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from polylab import (
    ConnectionProblem,
    DomainError,
    DoubleLogValue,
    HeartFamily,
    InvalidInputError,
    LiouvilleSpec,
    LogValue,
    PerturbedPowerFamily,
    PerturbedProgression,
    Precision,
    neg_log_add,
)
from polylab.numerics import DEFAULT_BITS, default_bits


def test_precision_defaults(prec):
    assert prec.bits == 256
    with prec.work():
        assert prec.tol == mpf(2) ** -128


def test_precision_rejects_tiny_mantissa():
    with pytest.raises(InvalidInputError):
        Precision(bits=16)


def test_precision_rejects_bad_tol():
    for tol in (-1, mp.inf, mp.nan):
        with pytest.raises(InvalidInputError):
            Precision(bits=128, tol=tol)


_VALID_INPUTS = {
    HeartFamily: dict(lam="0.5", mu=5, C1=2, C2=3, B1="0.1", B2="0.2"),
    PerturbedPowerFamily: dict(C=2, Lambda0="0.6"),
    ConnectionProblem: dict(family=PerturbedPowerFamily(C=2, Lambda0="0.6"), B0="0.1"),
    LiouvilleSpec: dict(gamma=1, u="0.3", Xi="0.7", lam="0.6",
                        q_list=("1/2",), N_schedule=(10,)),
    PerturbedProgression: dict(step=1, free=0),
}


@pytest.mark.parametrize("cls, name, value", [
    (HeartFamily, "mu", "inf"), (HeartFamily, "C1", "inf"),
    (PerturbedPowerFamily, "C", "inf"), (PerturbedPowerFamily, "Lambda1", "nan"),
    (ConnectionProblem, "B1", "inf"),
    (LiouvilleSpec, "gamma", "inf"), (LiouvilleSpec, "u", "nan"),
    (PerturbedProgression, "step", "inf"), (PerturbedProgression, "free", "nan"),
], ids=lambda v: getattr(v, "__name__", v))
def test_input_records_reject_non_finite(cls, name, value):
    cls(**_VALID_INPUTS[cls])
    with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
        cls(**dict(_VALID_INPUTS[cls], **{name: value}))


def test_env_override(monkeypatch):
    monkeypatch.setenv("POLYLAB_BITS", "333")
    assert default_bits() == 333
    monkeypatch.setenv("POLYLAB_BITS", "nope")
    with pytest.raises(InvalidInputError):
        default_bits()
    monkeypatch.delenv("POLYLAB_BITS")
    assert default_bits() == DEFAULT_BITS


def test_log_value_chart(prec):
    with prec.work():
        y = LogValue.from_x("0.25", prec)
        assert y.y == -mp.log(mpf("0.25"))
        assert abs(y.to_x(prec) - mpf("0.25")) < mpf(2) ** -250
        for x in (mpf("1e-9"), mpf("0.5"), mpf("0.999")):
            assert abs(LogValue.from_x(x, prec).to_x(prec) - x) < x * mpf(2) ** -250
        assert LogValue.from_x(0, prec).is_endpoint
        assert LogValue.from_x(0, prec).to_x(prec) == 0
    with pytest.raises(DomainError):
        LogValue.from_x(-1, prec)
    with pytest.raises(InvalidInputError):
        LogValue(mp.ninf)


def test_neg_log_add_endpoint_passthrough(prec):
    # x = 0 contributes nothing: -ln(e^-1 + 0) = 1.
    y = neg_log_add(LogValue(mpf(1)), LogValue(mp.inf), prec)
    assert y.y == 1
    y = neg_log_add(LogValue(mp.inf), LogValue(mpf(1)), prec)
    assert y.y == 1
    assert neg_log_add(LogValue(mp.inf), LogValue(mp.inf), prec).is_endpoint


def test_neg_log_add_equal_arguments(prec):
    # -ln(2 e^-y) = y - ln 2.
    with prec.work():
        for y in (mpf(0), mpf("0.7"), mpf(40), mpf(-3)):
            out = neg_log_add(LogValue(y), LogValue(y), prec)
            assert abs(out.y - (y - mp.log(2))) < mpf(2) ** -250


def test_neg_log_add_known_value(prec):
    # e^0 + e^(-(-ln 0.1)) = 1.1.
    with prec.work():
        out = neg_log_add(LogValue(mpf(0)), LogValue(-mp.log(mpf("0.1"))), prec)
        expected = -mp.log(mpf("1.1"))
        assert abs(out.y - expected) < mpf(2) ** -250
        assert abs(float(out.y) - -0.0953102) < 1e-6
        a, b = LogValue(mp.pi), LogValue(mp.e)
        inside = neg_log_add(a, b, prec)
    # Called outside a working-precision block, the inputs keep their bits.
    assert neg_log_add(a, b, prec) == inside


def test_neg_log_add_commutes_and_is_monotone(prec):
    rng = random.Random(7)
    with prec.work():
        for _ in range(200):
            a = mpf(rng.uniform(-30, 80))
            b = mpf(rng.uniform(-30, 80))
            ab = neg_log_add(LogValue(a), LogValue(b), prec)
            ba = neg_log_add(LogValue(b), LogValue(a), prec)
            assert ab.y == ba.y
            # Result never exceeds either input and adding a third mass
            # only lowers it further.
            assert ab.y <= min(a, b)
            c = neg_log_add(ab, LogValue(mpf(rng.uniform(-30, 80))), prec)
            assert c.y <= ab.y


def test_neg_log_add_short_circuit_is_exact(prec):
    # Once the gap exceeds the mantissa, the smaller term is absorbed:
    # the result must equal min exactly, not approximately.
    with prec.work():
        lo = mpf("1.375")
        hi = lo + prec.bits * mp.log(2) + 3
        out = neg_log_add(LogValue(lo), LogValue(hi), prec)
        assert out.y == lo


def test_eps_chart_validation(prec):
    with pytest.raises(DomainError):
        DoubleLogValue.from_eps(mpf("1.5"), prec)
    with pytest.raises(InvalidInputError):
        DoubleLogValue(mp.inf)
    with prec.work():
        z = DoubleLogValue.from_eps(mpf("0.01"), prec)
        assert abs(z.to_eps(prec) - mpf("0.01")) < mpf(2) ** -240
        for z in (mpf(-2), mpf("0.5"), mpf(3)):
            back = DoubleLogValue.from_eps(DoubleLogValue(z).to_eps(prec), prec).z
            assert abs(back - z) < mpf(2) ** -240


@given(a=st.floats(min_value=-80, max_value=80, allow_nan=False),
       b=st.floats(min_value=-80, max_value=80, allow_nan=False))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_neg_log_add_bounds_property(a, b):
    # merging two mass terms can at most double the smaller-exponent one:
    # min - ln 2 <= result <= min
    prec = Precision(bits=128)
    with prec.work():
        got = neg_log_add(LogValue(mpf(a)), LogValue(mpf(b)), prec).y
        lo = min(mpf(a), mpf(b))
        assert got <= lo + mpf(2) ** -100
        assert got >= lo - mp.log(2) - mpf(2) ** -100
