"""Shared fixtures: precision contexts and random admissible inputs."""

import random

import pytest
from mpmath import mp, mpf

from polylab import ConnectionSequence, HeartFamily, PerturbedProgression, Precision
from polylab.connections import ConnectionEntry
from polylab.monodromy import PerturbedPowerFamily


@pytest.fixture(scope="session")
def prec():
    return Precision(bits=256)


@pytest.fixture(scope="session")
def prec512():
    return Precision(bits=512)


def random_model(rng: random.Random, lambda1: float = 0.0) -> PerturbedPowerFamily:
    """Random power-map family with psi = 0 and exponent bounded away from 0 and 1."""
    return PerturbedPowerFamily(
        C=rng.uniform(0.5, 3.0),
        Lambda0=rng.uniform(0.2, 0.8),
        Lambda1=lambda1,
    )


def random_family(rng: random.Random, prec: Precision) -> HeartFamily:
    """Random admissible two-saddle family.

    Multipliers C_j < 1 keep the fixed point C^(1/(1-nu)) of each
    monodromy map below 1, so every re-marking turn k in -3..3 lands
    back inside (0, 1).  Marks are placed at B = fixed_point * frac,
    which makes the admissibility gap exactly -ln(frac) > 0.
    """
    with prec.work():
        lam = mpf(rng.uniform(0.3, 0.8))
        nu2 = mpf(rng.uniform(0.3, 0.85))
        mu = 1 / (lam ** 2 * nu2)
        nus = (lam, nu2)
        Cs, Bs = [], []
        for j in (0, 1):
            C = mpf(rng.uniform(0.15, 0.85))
            star = C ** (1 / (1 - nus[j]))
            frac = mpf(rng.uniform(0.05, 0.8))
            Cs.append(C)
            Bs.append(star * frac)
        return HeartFamily(lam=lam, mu=mu, C1=Cs[0], C2=Cs[1], B1=Bs[0], B2=Bs[1])


def model_sequence(model: PerturbedProgression, N: int, prec: Precision, extra=None) -> ConnectionSequence:
    """z_n = model.value(n) (+ extra(n)) for n = 0..N, with zero bracket widths."""
    entries = []
    with prec.work():
        for n in range(N + 1):
            z = model.value(n, prec)
            if extra is not None:
                z = z + mpf(extra(n))
            entries.append(ConnectionEntry(n=n, z=z, bracket_width=mpf(0)))
    return ConnectionSequence(entries=tuple(entries))
