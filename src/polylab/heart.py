"""Invariants and comparison pipeline for heart-shaped two-saddle families.

A family with a saddle loop (hyperbolicity ratio nu1 = lam < 1) and an
outer boundary whose full monodromy expands (lam^2 mu > 1, so the
contraction-side exponent is nu2 = 1/(lam^2 mu)) generates two sparkling
connection sequences.  In double-log scale they are perturbed arithmetic
progressions; the classifying data is

    A    = -ln lam / ln(lam^2 mu)        relative density,
    tau  = (beta1 - beta2) / gamma       offset, invariant mod (1, A),
    Xi   = (t2 - t1) / a1                relative window scale,

with t_j = ln C_j / (1 - nu_j), a_j = t_j - ln B_j, beta_j = ln a_j,
gamma = -ln nu2.  Changing the cross-section mark B_j by whole turns of
its monodromy shifts tau along the lattice (1, A); turns of B1 rescale
Xi by powers of nu1 and turns of B2 leave it alone, so only tau mod
(1, A) and ln|Xi| mod ln(1/nu1) are intrinsic.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from mpmath import mp, mpf

from . import connections as conn
from .errors import InvalidInputError, RangeError, SolverError
from .monodromy import PerturbedPowerFamily
from .numerics import Precision, _check_finite, _nearest
from .progressions import (
    PairInvariants,
    PerturbedProgression,
    ShiftPair,
    SearchBounds,
    _densities_differ,
    _offset_lattice,
    equivalent_pairs,
    irrationality_report,
)

# Rational window scales used when probing order obstructions.
Q_GRID = tuple(Fraction(q) for q in ("1/2", "2/3", "3/4", "4/3", "3/2", "2"))


@dataclass(frozen=True)
class HeartFamily:
    """Constants (lam, mu, C1, C2, B1, B2) of a heart-shaped unfolding.

    Hard requirements: 0 < lam < 1 < lam^2 mu, C_j > 0, B_j in (0, 1).
    Admissibility of the marks (positive double-log arguments) is the
    softer condition checked where invariants are actually formed.
    """

    lam: Any
    mu: Any
    C1: Any
    C2: Any
    B1: Any
    B2: Any

    def __post_init__(self):
        _check_finite(self, "lam", "mu", "C1", "C2", "B1", "B2")
        lam, mu = mpf(self.lam), mpf(self.mu)
        if not (0 < lam < 1):
            raise InvalidInputError(f"lam must lie in (0, 1), got {lam}")
        if not (lam ** 2 * mu > 1):
            raise InvalidInputError(f"need lam^2 mu > 1, got {lam ** 2 * mu}")
        for name in ("C1", "C2"):
            if not (mpf(getattr(self, name)) > 0):
                raise InvalidInputError(f"{name} must be positive")
        for name in ("B1", "B2"):
            if not (0 < mpf(getattr(self, name)) < 1):
                raise InvalidInputError(f"{name} must lie in (0, 1)")

    def nu(self, j: int, prec: Precision):
        with prec.work():
            if j == 1:
                return mpf(self.lam)
            if j == 2:
                return 1 / (mpf(self.lam) ** 2 * mpf(self.mu))
            raise InvalidInputError(f"side must be 1 or 2, got {j}")


@dataclass(frozen=True)
class InvariantReport:
    nu1: Any
    nu2: Any
    alpha: Any                # step of the loop progression, -ln nu1
    gamma: Any                # step of the outer progression, -ln nu2
    A: Any
    beta1: Any
    beta2: Any
    tau_prog: Any             # (beta1 - beta2)/gamma, the progression offset
    tau_paper: Any            # (beta1 - beta2)/ln nu2 = -tau_prog
    Xi: Any
    Theta: Any
    xi_coeff: Any             # t1/a1, positive-form window coefficient
    psi_coeff: Any            # t2/a2
    theta1: Any               # -xi_coeff: geometric coefficient of the loop progression
    theta2: Any               # -psi_coeff
    xi_nonzero: bool
    ln_abs_Xi: Optional[Any]
    res_mod_step1: Optional[Any]        # ln|Xi| reduced mod |ln nu1|, in [0, |ln nu1|)


def _mod_pos(x, L):
    r = x - L * mp.floor(x / L)
    if r < 0:
        r += L
    if r >= L:
        r -= L
    return r


def _admissible_pieces(fam: HeartFamily, prec: Precision):
    with prec.work():
        nu1, nu2 = fam.nu(1, prec), fam.nu(2, prec)
        t1, a1 = conn._mark_terms(fam.C1, nu1, fam.B1, "B1")
        t2, a2 = conn._mark_terms(fam.C2, nu2, fam.B2, "B2")
        return nu1, nu2, t1, t2, a1, a2


def invariants(fam: HeartFamily, prec: Precision) -> InvariantReport:
    """All classifying data of the family's progression pair."""
    nu1, nu2, t1, t2, a1, a2 = _admissible_pieces(fam, prec)
    with prec.work():
        alpha = -mp.log(nu1)
        gamma = -mp.log(nu2)
        A = alpha / gamma
        beta1, beta2 = mp.log(a1), mp.log(a2)
        tau_prog = (beta1 - beta2) / gamma
        Xi = (t2 - t1) / a1
        Theta = (t1 - t2) / a2
        xi_coeff = t1 / a1
        psi_coeff = t2 / a2
        xi_nonzero = abs(Xi) > prec.tol
        lnXi = mp.log(abs(Xi)) if xi_nonzero else None
        return InvariantReport(
            nu1=nu1, nu2=nu2, alpha=alpha, gamma=gamma, A=A,
            beta1=beta1, beta2=beta2,
            tau_prog=tau_prog, tau_paper=-tau_prog,
            Xi=Xi, Theta=Theta,
            xi_coeff=xi_coeff, psi_coeff=psi_coeff,
            theta1=-xi_coeff, theta2=-psi_coeff,
            xi_nonzero=xi_nonzero,
            ln_abs_Xi=lnXi,
            res_mod_step1=None if lnXi is None else _mod_pos(lnXi, alpha),
        )


def progression_model(
    fam: HeartFamily, prec: Precision
) -> Tuple[PerturbedProgression, PerturbedProgression]:
    """The two connection sequences as perturbed progressions.

    Loop side: step -ln nu1, free beta1, geometric term theta1 nu1^n;
    outer side: step -ln nu2, free beta2, term theta2 nu2^m.  These are
    the exact two-term asymptotics of the solver sequences.
    """
    return _progressions(invariants(fam, prec))


def _progressions(inv: InvariantReport) -> Tuple[PerturbedProgression, PerturbedProgression]:
    return (PerturbedProgression(step=inv.alpha, free=inv.beta1, coeff=inv.theta1, base=inv.nu1),
            PerturbedProgression(step=inv.gamma, free=inv.beta2, coeff=inv.theta2, base=inv.nu2))


def connection_problems(fam: HeartFamily, prec: Precision):
    """Model connection problems whose sequences realize the two progressions."""
    nu1 = fam.nu(1, prec)
    nu2 = fam.nu(2, prec)
    loop = conn.ConnectionProblem(family=PerturbedPowerFamily(C=fam.C1, Lambda0=nu1), B0=fam.B1)
    outer = conn.ConnectionProblem(family=PerturbedPowerFamily(C=fam.C2, Lambda0=nu2), B0=fam.B2)
    return loop, outer


def re_mark(fam: HeartFamily, j: int, k: int, prec: Precision) -> HeartFamily:
    """Move mark B_j by k whole turns of its monodromy: B -> C^((1-nu^k)/(1-nu)) B^(nu^k).

    k may be negative.  Covariance: beta_j shifts by k ln nu_j, so
    tau_paper changes by kA (j = 1) or -k (j = 2), and Xi rescales by
    nu1^(-k) for j = 1 and is untouched for j = 2.
    """
    if j not in (1, 2):
        raise InvalidInputError(f"side must be 1 or 2, got {j}")
    if not isinstance(k, int):
        raise InvalidInputError(f"turn count must be an integer, got {k!r}")
    with prec.work():
        with mp.extraprec(64):
            nu = fam.nu(j, prec)
            C = mpf(fam.C1 if j == 1 else fam.C2)
            B = mpf(fam.B1 if j == 1 else fam.B2)
            nuk = nu ** k
            lnB_new = (1 - nuk) / (1 - nu) * mp.log(C) + nuk * mp.log(B)
            if lnB_new >= 0:
                raise RangeError(
                    f"re-marked B{j} = exp({lnB_new}) leaves (0, 1); fewer turns needed"
                )
            B_new = mp.exp(lnB_new)
        if B_new == 0:
            raise RangeError(f"re-marked B{j} underflows to 0 at {prec.bits} bits")
    kwargs = dict(lam=fam.lam, mu=fam.mu, C1=fam.C1, C2=fam.C2, B1=fam.B1, B2=fam.B2)
    kwargs["B1" if j == 1 else "B2"] = B_new
    return HeartFamily(**kwargs)


@dataclass(frozen=True)
class ObstructionReport:
    verdict: str                       # "possibly-equivalent" | "inequivalent"
    reason: Optional[str]
    shift: Optional[ShiftPair]
    witness: Optional[Dict[str, Any]]
    margins: Dict[str, Any]
    xi_congruence: Optional[Dict[str, Any]]
    irrationality: Optional[Any]
    checked_depth: int
    undecided: int = 0

    @property
    def inequivalent(self) -> bool:
        return self.verdict == "inequivalent"


def _sign_with_floor(v, floor):
    if abs(v) <= floor:
        return 0
    return 1 if v > 0 else -1


def _xi_congruence(inv1: InvariantReport, inv2: InvariantReport, prec: Precision):
    """Residue of ln|Xi2| - ln|Xi1| modulo ln(1/nu1), and its whole turns.

    Re-marking B1 by k turns rescales Xi by nu1^(-k) and re-marking B2
    leaves it alone (see re_mark), so ln|Xi| is intrinsic only modulo
    ln(1/nu1): this is the one mark-independent residue.  It is reported
    and does not feed the verdict.
    """
    if not (inv1.xi_nonzero and inv2.xi_nonzero):
        return {
            "Xi1": inv1.Xi, "Xi2": inv2.Xi,
            "defined": False,
            "note": "Xi vanishes for at least one family (non-generic)",
        }
    with prec.work():
        d = inv2.ln_abs_Xi - inv1.ln_abs_Xi
        out = {"Xi1": inv1.Xi, "Xi2": inv2.Xi, "defined": True,
               "ln_ratio": d, "ratio": mp.exp(d) * mp.sign(inv2.Xi) * mp.sign(inv1.Xi)}
        s, r = _nearest(d, inv1.alpha)
        out.update(res_step1=r, res_step1_turns=s,
                   match_step1=bool(abs(r) <= prec.tol * max(1, abs(d))))
        return out


def _offset_shift(inv1: InvariantReport, inv2: InvariantReport, prec: Precision,
                  bounds: SearchBounds, margins: Dict[str, Any]) -> Optional[ShiftPair]:
    """The shift matching the offsets; its residual, or the best miss, goes to margins."""
    shift = equivalent_pairs(PairInvariants(A=inv1.A, tau=inv1.tau_prog),
                             PairInvariants(A=inv2.A, tau=inv2.tau_prog), prec, bounds)
    if shift is not None:
        margins["shift_residual"] = shift.residual
    else:
        lattice = _offset_lattice(inv1.tau_prog - inv2.tau_prog, (inv1.A + inv2.A) / 2, bounds.s_max)
        margins["tau_best_residual"] = min(r for _, _, r in lattice)
    return shift


def _scan_good_pairs(sources, inv1: InvariantReport, shift: ShiftPair, depth: int,
                     prec: Precision) -> Tuple[Optional[Dict[str, Any]], int]:
    """(witness of the first good pair whose order differs, or None; undecided count).

    A pair whose gaps lie within the rounding floor is undecided.
    """
    x1, y1, x2, y2 = sources
    A, tau = inv1.A, inv1.tau_prog
    floor = mpf(2) ** (10 - prec.bits)
    undecided = 0
    for n in range(1, depth + 1):
        pos = A * n + tau
        m = int(mp.nint(pos))
        if m < 1:
            continue
        D = pos - m
        if abs(D) * n >= 1:
            continue
        n2, m2 = n + shift.s, m - shift.p
        if n2 < 1 or m2 < 1:
            continue
        xv1, yv1 = x1.value(n, prec), y1.value(m, prec)
        v1, v2 = xv1 - yv1, x2.value(n2, prec) - y2.value(m2, prec)
        sfloor = floor * max(1, abs(v1), abs(v2))
        s1 = _sign_with_floor(v1, sfloor)
        s2 = _sign_with_floor(v2, sfloor)
        if s1 == 0 or s2 == 0:
            undecided += 1
            continue
        if s1 != s2:
            scale = (inv1.theta2 * inv1.nu2 ** tau - inv1.theta1) * inv1.nu1 ** n / inv1.gamma
            q_hits = []
            for q in Q_GRID:
                qm = mpf(q.numerator) / q.denominator
                lo, hi = sorted((qm * qm * scale, qm * scale))
                if lo < D < hi:
                    q_hits.append(q)
            return {
                "n": n, "m": m, "n2": n2, "m2": m2,
                "D": D,
                "order1": s1, "order2": s2,
                "gap1": v1, "gap2": v2,
                "window1": yv1 - xv1,
                "q_hits": q_hits,
            }, undecided
    return None, undecided


def compare(
    f1: HeartFamily,
    f2: HeartFamily,
    prec: Precision,
    depth: int = 10 ** 4,
    bounds: Optional[SearchBounds] = None,
) -> ObstructionReport:
    """Decide what obstructs an order-preserving identification of two families.

    Pipeline: (a) relative densities A must agree; (b) offsets tau must
    agree modulo (1, A) via an integer shift (s, p); (c) the interleaving
    order of the two progression pairs, sampled at good pairs
    |A n + tau - m| < 1/n up to n = depth, must coincide under the shift.
    Past the head, where the geometric terms are below 1/n, letters can
    change order only at a good pair, and the head's order is no invariant
    of the germ, so the good pairs are the whole order check.  A verdict of
    "inequivalent" always carries a concrete failed congruence or an
    order witness; "possibly-equivalent" is not a proof.
    """
    if depth < 1:
        raise InvalidInputError(f"depth must be >= 1, got {depth}")
    bounds = bounds or SearchBounds()
    inv1 = invariants(f1, prec)
    inv2 = invariants(f2, prec)
    with prec.work():
        tol = mpf(bounds.tol) if bounds.tol is not None else mpf(prec.tol)
        irr = irrationality_report((inv1.A + inv2.A) / 2, prec)
        margins: Dict[str, Any] = {
            "A1": inv1.A, "A2": inv2.A, "A_gap": abs(inv1.A - inv2.A),
            "tau1": inv1.tau_prog, "tau2": inv2.tau_prog,
            "nu1_pair": (inv1.nu1, inv2.nu1), "nu2_pair": (inv1.nu2, inv2.nu2),
        }
        xicon = _xi_congruence(inv1, inv2, prec)

        def report(reason=None, shift=None, witness=None, checked=0, undecided=0):
            return ObstructionReport(
                verdict="possibly-equivalent" if reason is None else "inequivalent",
                reason=reason, shift=shift, witness=witness, margins=margins,
                xi_congruence=xicon, irrationality=irr,
                checked_depth=checked, undecided=undecided,
            )

        if _densities_differ(inv1.A, inv2.A, tol):
            return report("relative densities A differ (letter-frequency obstruction)")
        shift = _offset_shift(inv1, inv2, prec, bounds, margins)
        if shift is None:
            return report("offsets tau incongruent modulo (1, A) within the shift box")

        sources = (*_progressions(inv1), *_progressions(inv2))
        witness, undecided = _scan_good_pairs(sources, inv1, shift, depth, prec)
        if witness is not None:
            return report("interleaving order disagrees at a good pair (window/base obstruction)",
                          shift, witness, depth, undecided)
        return report(None, shift, None, depth, undecided)


def engineer_base_mismatch(
    fam: HeartFamily,
    new_lambda,
    n_star: int,
    prec: Precision,
) -> Tuple[HeartFamily, HeartFamily, Dict[str, Any]]:
    """Construct a pair with equal (A, tau) but different bases and a
    guaranteed order disagreement at a prescribed good pair.

    The second family takes lam = new_lambda with mu adjusted to keep A;
    both B1 marks are then solved so the two offsets coincide exactly and
    the fractional position at n = n_star lands strictly between the two
    families' order-flip thresholds.  Returns (f1', f2', meta) with the
    engineered witness location in meta.
    """
    if n_star < 5:
        raise InvalidInputError("n_star must be >= 5")
    inv0 = invariants(fam, prec)
    with prec.work():
        lam2 = mpf(new_lambda)
        if not (0 < lam2 < 1) or lam2 == mpf(fam.lam):
            raise InvalidInputError("new_lambda must lie in (0, 1) and differ from lam")
        A = inv0.A
        mu2 = mp.exp(-mp.log(lam2) / A) / lam2 ** 2
        nu1b, nu2b = lam2, mp.exp(mp.log(lam2) / A)
        gamma_b = -mp.log(nu2b)
        t1b = mp.log(mpf(fam.C1)) / (1 - nu1b)
        t2b, a2b = conn._mark_terms(fam.C2, nu2b, fam.B2, "B2 of the engineered family")
        beta2b = mp.log(a2b)

        nu1, nu2 = inv0.nu1, inv0.nu2
        gamma = inv0.gamma
        t1 = conn._mark_terms(fam.C1, nu1, fam.B1)[0]
        beta2 = inv0.beta2
        theta2 = inv0.theta2
        theta2b = -t2b / a2b

        m_star = int(mp.nint(A * n_star + inv0.tau_prog))
        # Every tau the loop sees lies within 1/n_star of m_star - A n_star,
        # itself within 1/2 of the input's tau, so each exp below is bounded.
        tau = m_star - A * n_star
        for _ in range(8):
            theta1 = -t1 / mp.exp(beta2 + gamma * tau)
            theta1b = -t1b / mp.exp(beta2b + gamma_b * tau)
            w1 = (theta2 * nu2 ** m_star - theta1 * nu1 ** n_star) / gamma
            w2 = (theta2b * nu2b ** m_star - theta1b * nu1b ** n_star) / gamma_b
            d = (w1 + w2) / 2
            if abs(d) * n_star >= 1:
                raise SolverError("engineered position is not a good pair; pick larger n_star")
            tau = m_star - A * n_star + d
        sep = abs(w1 - w2)
        if sep <= mpf(2) ** (16 - prec.bits) * max(1, abs(w1), abs(w2)):
            raise SolverError("order-flip thresholds coincide; engineering failed")
        marks = []
        for which, t, ln_a in (("first", t1, beta2 + gamma * tau),
                               ("second", t1b, beta2b + gamma_b * tau)):
            a = mp.exp(ln_a)
            if a <= max(t, 0):
                raise SolverError(f"engineered B1 inadmissible for the {which} family")
            marks.append(mp.exp(t - a))
            if not (0 < marks[-1] < 1):
                raise SolverError(f"engineered B1 outside (0, 1) for the {which} family")
        B1n, B1b = marks
        f1n = HeartFamily(lam=fam.lam, mu=fam.mu, C1=fam.C1, C2=fam.C2, B1=B1n, B2=fam.B2)
        f2n = HeartFamily(lam=lam2, mu=mu2, C1=fam.C1, C2=fam.C2, B1=B1b, B2=fam.B2)
        meta = {"n_star": n_star, "m_star": m_star, "D": d,
                "threshold1": w1, "threshold2": w2, "separation": sep}
        return f1n, f2n, meta
