"""Seeded inputs, timed jobs and oracle checks for the four workloads.

A workload is a fixed cycle of job kinds.  Set-up draws a pool of
inputs for several cycles from the seed and writes the documents the
CLI reads; `run` is the timed part of a job and `check` its oracle,
which runs outside the timed region and returns the job's exact
counters.  Every job goes through the public API or the in-process CLI
(`polylab.cli.main`); the program sees only the generated documents.
"""

import csv
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Tuple

from mpmath import mp, mpf

# Weyl-sequence steps, one per input dimension.
ALPHAS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19))


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Stream:
    """Seeded low-discrepancy draws in [0, 1)^8.

    Draw i of dimension d is frac(shift_d + i * alpha_d).  The seed picks
    the shifts, so each seed gives other inputs, while every prefix of
    the stream covers the ranges evenly: two seeds give runs whose
    inputs cost about the same, which keeps the end-to-end figures
    steady across seeds.
    """

    def __init__(self, rng: random.Random):
        self.shifts = [rng.random() for _ in ALPHAS]
        self.i = 0

    def draw(self) -> List[float]:
        i = self.i
        self.i += 1
        return [(s + i * a) % 1.0 for s, a in zip(self.shifts, ALPHAS)]


@dataclass
class Job:
    kind: str
    index: int                      # position in the input pool
    params: Dict[str, Any] = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def family_doc(u) -> Dict[str, str]:
    """A two-saddle family by the recipe of the test suite's random_family.

    C_j < 1 keeps each monodromy's fixed point C^(1/(1-nu)) below 1, and
    the marks sit at fixed_point * frac, so re-marking turns stay
    admissible.
    """
    lam = 0.3 + 0.5 * u[0]
    nu2 = 0.3 + 0.55 * u[1]
    mu = 1.0 / (lam * lam * nu2)
    doc = {"lambda": _num(lam), "mu": _num(mu)}
    for j, nu, uc, uf in ((1, lam, u[2], u[3]), (2, nu2, u[4], u[5])):
        C = 0.15 + 0.7 * uc
        frac = 0.05 + 0.75 * uf
        doc[f"C{j}"] = _num(C)
        doc[f"B{j}"] = _num(C ** (1.0 / (1.0 - nu)) * frac)
    return doc


def _fam_doc_exact(fam, digits: int = 100) -> Dict[str, str]:
    """Decimal strings that round back to the same 256-bit values."""
    with mp.workprec(4 * digits):
        return {key: mp.nstr(mpf(getattr(fam, attr)), digits)
                for key, attr in (("lambda", "lam"), ("mu", "mu"), ("C1", "C1"),
                                  ("C2", "C2"), ("B1", "B1"), ("B2", "B2"))}


def parse_decimal(text: str, bits: int):
    """mpf from a decimal string of any length.

    mpmath parses through int(str), which Python caps at 4300 digits;
    the Liouville reports print about bits/3 digits.
    """
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    text = text.lstrip("+-")
    mant, _, exp = text.lower().partition("e")
    whole, _, frac = mant.partition(".")
    digits = (whole + frac).lstrip("0") or "0"
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    scale = int(exp or 0) - len(frac)
    with mp.workprec(bits):
        return sign * mpf(value) * mpf(10) ** scale


class Workload:
    name = ""
    cycle: Tuple[str, ...] = ()
    pool_cycles = 1
    tail_kind = ""          # the slowest job kind: job_tail_ms is the median of its block
    tick = "mpf"            # speed sample that tracks this workload's work (run.TICKS)

    def __init__(self, lab, seed: int, workdir: Path):
        self.lab = lab
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.streams: Dict[str, Stream] = {}
        self.rejected: Counter = Counter()
        self.jobs: List[Job] = []
        for i in range(self.pool_cycles * len(self.cycle)):
            kind = self.cycle[i % len(self.cycle)]
            self.jobs.append(Job(kind, i, self.make(kind, i)))

    def draw(self, key: str) -> List[float]:
        if key not in self.streams:
            self.streams[key] = Stream(random.Random(f"{self.name}:{key}:{self.rng.random()}"))
        return self.streams[key].draw()

    def write(self, name: str, doc) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)

    def make(self, kind: str, i: int) -> Dict[str, Any]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, job: Job, out: str) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, job: Job, res: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def corrupt(self, job: Job, res: Dict[str, Any]) -> None:
        """Damage a job's output the way a wrong program would (smoke test)."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# sparkle: connection sequences through `polylab sparkle`

EPS_GRID = 12               # log-spaced eps in [1e-9, 1e-3], as in criterion 2
X0 = "0.1"


def _read_rows(path: str) -> List[Tuple[int, str]]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return [(int(r["n"]), r["z_n"]) for r in reader]


def orbit_gap(C, L, B, n: int, w):
    """y_n + ln B for the orbit of 0 under x -> C x^L + eps, eps = exp(-exp(w)).

    Written from the connection equation, independently of
    `connections`: a root of this increasing function of w is z_n.
    """
    E = mp.exp(w)
    lnC = mp.log(C)
    y = E
    for _ in range(n):
        a = L * y - lnC
        lo, gap = min(a, E), abs(a - E)
        y = lo - mp.log1p(mp.exp(-gap))
    return y + mp.log(B)


def envelope_connects(C, L, B, k, n: int, z) -> bool:
    """Whether both envelope maps (C -+ k eps^(1-L)) x^L have an n-th connection.

    Their closed-form connection needs C -+ k eps^(1-L) > 0 and
    -ln B + (1 - L^n)/(1 - L) ln(C -+ k eps^(1-L)) > 0 at eps = exp(-exp(z)).
    """
    kk = k * mp.exp(-mp.exp(z)) ** (1 - L)
    for Cs in (C - kk, C + kk):
        if Cs <= 0 or -mp.log(B) + (1 - L ** n) / (1 - L) * mp.log(Cs) <= 0:
            return False
    return True


class Sparkle(Workload):
    name = "sparkle"
    # Four 512-bit jobs in seven keep the median inside one kind.
    cycle = ("model512", "model256", "model512", "model1024", "model512", "long", "model512")
    pool_cycles = 6
    tail_kind = "long"
    TERMS = {256: 10, 512: 6, 1024: 4}
    LONG_TERMS = 70

    def make(self, kind, i):
        if kind == "long":
            while True:
                # A quarter of each range, around its middle: the long
                # job is 40% of a cycle's time, and a run holds two or
                # three of them, so their costs must not follow the seed.
                u = [0.375 + 0.25 * x for x in self.draw(kind)]
                doc = family_doc(u)
                N = self.LONG_TERMS
                nu2 = 1.0 / (float(doc["lambda"]) ** 2 * float(doc["mu"]))
                # Keep nu2^N above the 256-bit noise floor: the silent-noise
                # CSV (residuals far below the floor) is a known defect.
                if N * math.log2(1.0 / nu2) <= 256 // 2 - 32:
                    break
                self.rejected["long_below_noise_floor"] += 1
            return {"bits": 256, "N": N, "doc": self.write(f"long{i}.json", doc),
                    "family": doc, "n_check": N // 2}
        bits = int(kind[len("model"):])
        u = self.draw(kind)
        C = 0.5 + 2.5 * u[0]
        # Solve cost grows with the exponent.  The 512- and 1024-bit jobs
        # stay near criterion 1's 0.6, so that the median job and the few
        # 1024-bit jobs of a run cost alike from seed to seed.
        L = 0.3 + 0.5 * u[1] if bits == 256 else 0.55 + 0.1 * u[1]
        B0 = min(1.0, C ** (1.0 / (1.0 - L))) * (0.05 + 0.75 * u[2])
        doc = {"C": _num(C), "Lambda0": _num(L), "Lambda1": "0", "B0": _num(B0)}
        N = self.TERMS[bits]
        # one index per job is re-solved at twice the bits; at 2048 bits a
        # solve costs seconds, so those jobs re-check index 1
        n_check = 1 if bits == 1024 else N // 2 if bits == 512 else N
        return {"bits": bits, "N": N, "doc": self.write(f"model{i}.json", doc),
                "model": doc, "n_check": n_check}

    def _problem(self, p, bits):
        lab = self.lab
        prec = lab.numerics.Precision(bits=bits)
        if "family" in p:
            with prec.work():
                f = p["family"]
                fam = lab.heart.HeartFamily(lam=mpf(f["lambda"]), mu=mpf(f["mu"]),
                                            C1=mpf(f["C1"]), C2=mpf(f["C2"]),
                                            B1=mpf(f["B1"]), B2=mpf(f["B2"]))
            return lab.heart.connection_problems(fam, prec)[1], prec
        with prec.work():
            m = p["model"]
            fam = lab.monodromy.PerturbedPowerFamily(C=mpf(m["C"]), Lambda0=mpf(m["Lambda0"]))
            return lab.connections.ConnectionProblem(family=fam, B0=mpf(m["B0"])), prec

    def warm_up(self):
        first = next(j for j in self.jobs if j.kind.startswith("model"))
        for bits in (256, 512, 1024):
            out = str(self.workdir / "warm.csv")
            self.lab.cli.main(["sparkle", first.params["doc"], "--terms", "0",
                               "--bits", str(bits), "--out", out])
            prob, prec = self._problem(first.params, bits)
            with prec.work():
                self.lab.monodromy.envelope_profile(prob.family, [mpf("1e-6")], mpf(X0),
                                                    prec, x_count=2, halved_domain=True)

    def run(self, job, out):
        p = job.params
        argv = ["sparkle", p["doc"], "--terms", str(p["N"]), "--bits", str(p["bits"]),
                "--out", out]
        if job.kind == "long":
            argv += ["--which", "outer"]
        res = {"out": out, "code": self.lab.cli.main(argv), "brackets": {}, "unbracketed": []}
        if job.kind == "long" or res["code"] != 0:
            return res
        # the envelope step of criteria 1 and 2 on the solved rows
        prob, prec = self._problem(p, p["bits"])
        with prec.work():
            eps = [mpf(10) ** (-3 - mpf(6) * i / (EPS_GRID - 1)) for i in range(EPS_GRID)]
            x0 = mpf(X0)
        profile = self.lab.monodromy.envelope_profile(prob.family, eps, x0, prec,
                                                      halved_domain=True)
        with prec.work():
            k = res["k"] = max(v for _, _, v in profile)
            # the fitted k covers eps <= 1e-3 only; rows above raise DomainError
            z_fit = mp.log(mp.log(10 ** 3))
            rows = [(n, mpf(z)) for n, z in _read_rows(out)]
        for n, z in rows:
            if z < z_fit:
                continue
            try:
                res["brackets"][n] = self.lab.connections.bracket_double_logs(prob, n, z, k, prec)
            except self.lab.errors.DomainError:
                res["unbracketed"].append(n)    # an envelope map has no connection here
        return res

    def check(self, job, res):
        lab, p = self.lab, job.params
        expect(res["code"] == 0, f"exit code {res['code']}")
        rows = _read_rows(res["out"])
        expect([n for n, _ in rows] == list(range(p["N"] + 1)), "CSV rows are not n = 0..N")
        prob, prec = self._problem(p, p["bits"])
        with prec.work():
            zs = [mpf(z) for _, z in rows]
            tol = mpf(prec.tol)
            C, L, B = mpf(prob.family.C), mpf(prob.family.Lambda0), mpf(prob.B0)
            expect(all(b > a for a, b in zip(zs, zs[1:])), "z_n not strictly increasing")
            for n, z in enumerate(zs):
                expect(orbit_gap(C, L, B, n, z - tol) < 0 < orbit_gap(C, L, B, n, z + tol),
                       f"z_{n} does not solve the connection equation to tol")
            for n, (lo, hi) in res["brackets"].items():
                expect(zs[n] - lo > -16 * tol and hi - zs[n] > -16 * tol,
                       f"z_{n} outside its envelope bracket")
            for n in res["unbracketed"]:
                expect(not envelope_connects(C, L, B, res["k"], n, zs[n]),
                       f"no bracket at n={n} although both envelope maps connect")
        conn = lab.connections
        if job.kind == "long":
            # The o(L^n) verdict tests the last third of the sequence; only
            # long sequences reach the asymptotic regime it presumes.
            seq = conn.ConnectionSequence(entries=tuple(
                conn.ConnectionEntry(n=n, z=z, bracket_width=tol) for n, z in enumerate(zs)))
            verdict = conn.residual_analysis(seq, conn.asymptotic_model(prob, prec), prec).verdict
            expect(verdict == "consistent", f"residual analysis says {verdict}")
        prob2, prec2 = self._problem(p, 2 * p["bits"])
        n = p["n_check"]
        z2 = conn.solve_connection(prob2, n, prec2).z
        with prec2.work():
            expect(abs(z2 - zs[n]) < mpf("1e-30"), f"z_{n} disagrees with the re-solve")
        return {"solves": len(rows), "brackets": len(res["brackets"]), "bits": p["bits"],
                "report_bytes": Path(res["out"]).stat().st_size}

    def corrupt(self, job, res):
        """Perturb z_n of the middle row by 1e-12."""
        path = Path(res["out"])
        lines = path.read_text().splitlines()
        i = lines.index("n,z_n,predicted,residual,normalized_residual") + 1 + job.params["N"] // 2
        cells = lines[i].split(",")
        bits = job.params["bits"]
        with mp.workprec(bits):
            cells[1] = mp.nstr(mpf(cells[1]) + mpf("1e-12"), bits // 3)
        lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# words: order data of progression pairs through `progressions`

LETTERS = 10 ** 4
RECON_LETTERS = 10 ** 5
MISMATCH_LETTERS = 1100
WORD_BITS = 96


def exact_letters(a: Fraction, b: Fraction, c: Fraction, count: int) -> str:
    """First `count` letters of the merge of x_n = a n + b and y_m = m + c (n, m >= 1).

    Exact rational arithmetic: before y_m come the k(m) = ceil((m + c - b)/a) - 1
    values x_n < y_m, so Y number m is letter k(m) + m.
    """
    t = c - b
    num, den = t.numerator * a.denominator, t.denominator * a.numerator
    step = t.denominator * a.denominator
    out, prev, m = [], 0, 1
    while True:
        k = max(0, -(-(m * step + num) // den) - 1)
        if k + m > count:
            break
        out.append("X" * (k - prev) + "Y")
        prev, m = k, m + 1
    out.append("X" * (count - prev - (m - 1)))
    return "".join(out)


def _badly_approximable(u_whole: float, u_digits: float) -> float:
    """A number in (1/3, 2) whose partial quotients are 1 or 2, as sqrt(2) = [1; 2, 2, ...]."""
    x = 0.0
    for j in range(40):
        x = 1.0 / (1 + (int(u_digits * 2 ** (j + 1)) & 1) + x)
    return (1 if u_whole >= 0.5 else 0) + x


class Words(Workload):
    name = "words"
    cycle = ("reconstruct", "planted", "planted", "perturbed", "planted",
             "planted", "planted", "planted", "perturbed", "planted")
    pool_cycles = 8
    tail_kind = "reconstruct"

    def make(self, kind, i):
        u = self.draw(kind)
        if kind == "perturbed":
            return {"family": family_doc(u)}
        if kind == "reconstruct":
            # criterion-8 shape: A badly approximable and below 2, where
            # 10^5 letters pin A to 1e-4 and tau to 1e-3
            return {"A": _num(_badly_approximable(u[0], u[2])), "tau": _num(-2 + 4 * u[1])}
        return {"A": _num(0.2 + 3.3 * u[0]), "tau": _num(-2 + 4 * u[1]),
                "s": int(21 * u[2]) - 10, "p": int(21 * u[3]) - 10,
                "mismatch": i % 5 == 1, "dA_scale": _num(2.5 + 3.5 * u[4])}

    def warm_up(self):
        pr = self.lab.progressions
        prec, wp = self.precs()
        with prec.work():
            x = pr.ArithmeticProgression(step=mp.sqrt(2), free=mpf("0.3"))
            y = pr.ArithmeticProgression(step=1, free=0)
        pr.reconstruct_invariants(pr.interleaving_word(x, y, 200, wp), prec)

    def precs(self):
        P = self.lab.numerics.Precision
        return P(bits=256), P(bits=WORD_BITS)

    def run(self, job, out):
        pr, p = self.lab.progressions, job.params
        prec, wp = self.precs()
        AP = pr.ArithmeticProgression
        if job.kind == "perturbed":
            f = p["family"]
            with prec.work():
                fam = self.lab.heart.HeartFamily(lam=mpf(f["lambda"]), mu=mpf(f["mu"]),
                                                 C1=mpf(f["C1"]), C2=mpf(f["C2"]),
                                                 B1=mpf(f["B1"]), B2=mpf(f["B2"]))
            loop, outer = self.lab.heart.progression_model(fam, prec)
            return {"pair": (loop, outer),
                    "word": pr.interleaving_word(loop, outer, LETTERS, wp)}
        with prec.work():
            A, tau = mpf(p["A"]), mpf(p["tau"])
            x1, y1 = AP(step=A, free=tau), AP(step=1, free=0)
        if job.kind == "reconstruct":
            word = pr.interleaving_word(x1, y1, RECON_LETTERS, wp)
            return {"word": word, "rec": pr.reconstruct_invariants(word, prec)}
        s, q = p["s"], p["p"]
        with prec.work():
            x2, y2 = AP(step=A, free=tau - A * s), AP(step=1, free=q)
        inv1 = pr.pair_invariants(x1, y1, prec)
        shift = pr.equivalent_pairs(inv1, pr.pair_invariants(x2, y2, prec), prec)
        w1 = pr.interleaving_word(x1, y1, LETTERS, wp)
        w2 = pr.interleaving_word(x2, y2, LETTERS, wp)
        res = {"shift": shift, "w1": w1, "w2": w2,
               "verdict": pr.words_equivalent_up_to_shift(w1, w2, shift) if shift else None}
        if p["mismatch"]:
            with prec.work():
                dA = A * (A + 1) / 1000 * mpf(p["dA_scale"])
                x3 = AP(step=A + dA, free=tau)
            res["mismatch_shift"] = pr.equivalent_pairs(inv1, pr.pair_invariants(x3, y1, prec), prec)
            w3 = pr.interleaving_word(x3, y1, MISMATCH_LETTERS, wp)
            head = pr.InterleavingWord(letters=w1.letters[:MISMATCH_LETTERS])
            res["mismatch"] = pr.words_equivalent_up_to_shift(head, w3, pr.ShiftPair(0, 0))
        return res

    def check(self, job, res):
        p = job.params
        if job.kind == "perturbed":
            prec, _ = self.precs()
            ref = self.lab.progressions.interleaving_word(*res["pair"], LETTERS, prec)
            expect(res["word"].letters == ref.letters, "word differs from the 256-bit word")
            return {"letters": LETTERS}
        A, tau = Fraction(p["A"]), Fraction(p["tau"])
        if job.kind == "reconstruct":
            word, rec = res["word"], res["rec"]
            expect(word.letters == exact_letters(A, tau, Fraction(0), RECON_LETTERS),
                   "letters differ from the exact merge")
            expect(abs(Fraction(float(rec.invariants.A)) - A) <= Fraction(1, 10 ** 4),
                   "A not pinned to 1e-4")
            lo, hi = Fraction(float(rec.tau_interval[0])), Fraction(float(rec.tau_interval[1]))
            expect(lo <= tau <= hi, "tau interval misses tau")
            expect(hi - lo <= Fraction(1, 10 ** 3), "tau interval wider than 1e-3")
            return {"letters": RECON_LETTERS}
        s, q = p["s"], p["p"]
        shift = res["shift"]
        expect(shift is not None and (shift.s, shift.p) == (s, q),
               f"planted shift ({s}, {q}) not recovered: {shift}")
        expect(res["w1"].letters == exact_letters(A, tau, Fraction(0), LETTERS),
               "first word differs from the exact merge")
        expect(res["w2"].letters == exact_letters(A, tau - A * s, Fraction(q), LETTERS),
               "second word differs from the exact merge")
        v = res["verdict"]
        expect(v.equivalent and v.first_disagreement is None, "words disagree under the shift")
        counts = {"letters": 2 * LETTERS, "word_overlap": v.overlap_letters}
        if p["mismatch"]:
            expect(res["mismatch_shift"] is None, "density mismatch matched a shift")
            mv = res["mismatch"]
            expect(not mv.equivalent, "density mismatch not witnessed")
            n_bad, m_bad = mv.first_disagreement
            expect(n_bad + m_bad - 1 <= 1000, "mismatch witness beyond 1e3 letters")
            counts["letters"] += MISMATCH_LETTERS
            counts["witness_letter"] = n_bad + m_bad - 1
        return counts

    def corrupt(self, job, res):
        """Flip the middle letter of the job's (first) word."""
        key = "w1" if job.kind == "planted" else "word"
        letters = res[key].letters
        mid = len(letters) // 2
        flipped = letters[:mid] + ("Y" if letters[mid] == "X" else "X") + letters[mid + 1:]
        res[key] = self.lab.progressions.InterleavingWord(letters=flipped)


# --------------------------------------------------------------------------
# compare: heart classification through `polylab compare` / `invariants`

DEPTH = 10 ** 4
TURNS = (1, -1, 2, -2)
def engineer_converges(doc, new_lam: float, n_star: int) -> bool:
    """Float dry run of the offset iteration in heart.engineer_base_mismatch.

    On some families that iteration diverges, and mp.exp is then asked
    for exp(1e30) and beyond: it raises OverflowError or MemoryError, or
    spends minutes and gigabytes on ln 2 (finding 6).  Such draws are
    rejected before the library sees them.  Inadmissible draws pass, so
    that the library rejects them itself.
    """
    lam, mu = float(doc["lambda"]), float(doc["mu"])
    C1, C2, B1, B2 = (float(doc[k]) for k in ("C1", "C2", "B1", "B2"))
    nu1, nu2 = lam, 1 / (lam * lam * mu)
    gamma = -math.log(nu2)
    A = -math.log(nu1) / gamma
    t1, t2 = math.log(C1) / (1 - nu1), math.log(C2) / (1 - nu2)
    nu2b = math.exp(math.log(new_lam) / A)
    gamma_b = -math.log(nu2b)
    t1b, t2b = math.log(C1) / (1 - new_lam), math.log(C2) / (1 - nu2b)
    a1, a2, a2b = t1 - math.log(B1), t2 - math.log(B2), t2b - math.log(B2)
    if min(a1, a2, a2b) <= 0:
        return True
    beta2, beta2b = math.log(a2), math.log(a2b)
    tau = (math.log(a1) - beta2) / gamma
    m_star = round(A * n_star + tau)
    for _ in range(9):
        e1, e2 = beta2 + gamma * tau, beta2b + gamma_b * tau
        if max(abs(e1), abs(e2)) > 700:
            return False
        w1 = (-t2 / a2 * nu2 ** m_star + t1 / math.exp(e1) * nu1 ** n_star) / gamma
        w2 = (-t2b / a2b * nu2b ** m_star + t1b / math.exp(e2) * new_lam ** n_star) / gamma_b
        tau = m_star - A * n_star + (w1 + w2) / 2
    return True


def head_increasing(doc, n0: int) -> bool:
    """Whether both two-term models z_n = n step + beta + theta nu^n increase from n0 (loop) and 1 (outer).

    z_(n+1) - z_n = step + theta nu^n (nu - 1) grows with n, so its sign
    at the first index decides.  Floats suffice: the margin is O(1).
    """
    lam, mu = float(doc["lambda"]), float(doc["mu"])
    for nu, C, B, n in ((lam, doc["C1"], doc["B1"], n0),
                        (1 / (lam * lam * mu), doc["C2"], doc["B2"], 1)):
        t = math.log(float(C)) / (1 - nu)
        theta = -t / (t - math.log(float(B)))
        if -math.log(nu) + theta * nu ** n * (nu - 1) <= 0:
            return False
    return True


class Compare(Workload):
    name = "compare"
    cycle = ("remark", "engineered", "invariants", "remark", "mismatch",
             "engineered", "remark", "invariants")
    # A small pool keeps set-up time from following the seed's share of
    # rejected engineered draws; a run reuses it about four times.
    pool_cycles = 6
    tail_kind = "remark"

    def family(self, doc, prec):
        with prec.work():
            return self.lab.heart.HeartFamily(lam=mpf(doc["lambda"]), mu=mpf(doc["mu"]),
                                              C1=mpf(doc["C1"]), C2=mpf(doc["C2"]),
                                              B1=mpf(doc["B1"]), B2=mpf(doc["B2"]))

    def make(self, kind, i):
        heart, errors = self.lab.heart, self.lab.errors
        prec = self.lab.numerics.Precision(bits=256)
        if kind == "invariants":
            return {"f1": self.write(f"inv{i}.json", family_doc(self.draw(kind)))}
        if kind == "mismatch":
            return {"f1": self.write(f"mm{i}a.json", family_doc(self.draw(kind))),
                    "f2": self.write(f"mm{i}b.json", family_doc(self.draw(kind)))}
        if kind == "engineered":
            while True:
                u = self.draw(kind)
                doc = family_doc(u)
                new_lam = float(doc["lambda"]) * (1.05 + 0.1 * u[6])
                n_star = 20 + int(21 * u[7])
                if not engineer_converges(doc, new_lam, n_star):
                    self.rejected["engineered_diverges"] += 1
                    continue
                try:
                    f1, f2, _ = heart.engineer_base_mismatch(
                        self.family(doc, prec), mpf(_num(new_lam)), n_star, prec)
                    break
                except errors.PolylabError as exc:
                    self.rejected[f"engineered_{type(exc).__name__}"] += 1
            return {"f1": self.write(f"eng{i}a.json", _fam_doc_exact(f1)),
                    "f2": self.write(f"eng{i}b.json", _fam_doc_exact(f2))}
        k = TURNS[(i // len(self.cycle)) % len(TURNS)]
        while True:
            doc = family_doc(self.draw(kind))
            if not head_increasing(doc, 1 - max(k, 0)):
                # Finding: on these pairs compare reports a false
                # "inequivalent" from its word check, because the model's
                # letters are out of order before the first index both
                # words share.
                self.rejected["remark_head_not_increasing"] += 1
                continue
            try:
                g = heart.re_mark(self.family(doc, prec), 1, k, prec)
                break
            except errors.RangeError:
                self.rejected["remark_RangeError"] += 1
        return {"f1": self.write(f"rm{i}a.json", doc),
                "f2": self.write(f"rm{i}b.json", _fam_doc_exact(g)), "k": k}

    def warm_up(self):
        first = self.jobs[0].params
        out = str(self.workdir / "warm.json")
        self.lab.cli.main(["invariants", first["f1"], "--bits", "256", "--out", out])
        self.lab.cli.main(["compare", first["f1"], first["f2"], "--bits", "256",
                           "--depth", "10", "--out", out])

    def run(self, job, out):
        p = job.params
        if job.kind == "invariants":
            argv = ["invariants", p["f1"]]
        else:
            argv = ["compare", p["f1"], p["f2"], "--depth", str(DEPTH)]
        return {"out": out, "code": self.lab.cli.main(argv + ["--bits", "256", "--out", out])}

    def check(self, job, res):
        p = job.params
        text = Path(res["out"]).read_text()
        rep = json.loads(text)
        counts = {"report_bytes": len(text.encode())}
        if job.kind == "invariants":
            expect(res["code"] == 0, f"exit code {res['code']}")
            inv = rep["invariants"]
            with mp.workprec(256):
                lhs = mpf(inv["ln_abs_Xi"]) - mp.log(abs(mpf(inv["Theta"])))
                rhs = mpf(inv["beta2"]) - mpf(inv["beta1"])
                expect(abs(lhs - rhs) <= mpf("1e-12") * max(1, abs(rhs)),
                       "ln|Xi| - ln|Theta| != beta2 - beta1")
            return counts
        counts.update(checked_depth=rep["checked_depth"], undecided=rep["undecided"],
                      word_overlap=rep["margins"].get("word_overlap", 0))
        if job.kind == "remark":
            expect(res["code"] == 0, f"exit code {res['code']}")
            expect(rep["verdict"] == "possibly-equivalent", f"verdict {rep['verdict']}")
            expect(rep["shift"] is not None and (rep["shift"]["s"], rep["shift"]["p"]) == (p["k"], 0),
                   f"shift {rep['shift']} != ({p['k']}, 0)")
        elif job.kind == "engineered":
            expect(res["code"] == 10, f"exit code {res['code']}")
            expect(rep["verdict"] == "inequivalent", f"verdict {rep['verdict']}")
            expect("good pair" in (rep["reason"] or ""), f"reason {rep['reason']}")
            w = rep["witness"] or {}
            expect(1 <= w.get("n", 0) <= DEPTH and w.get("order1") != w.get("order2"),
                   "no good-pair witness with differing orders")
        else:
            expect(res["code"] == 10, f"exit code {res['code']}")
            expect(rep["verdict"] == "inequivalent", f"verdict {rep['verdict']}")
            expect(rep["checked_depth"] == 0, "density mismatch scanned good pairs")
            expect("densit" in (rep["reason"] or ""), f"reason {rep['reason']}")
        return counts

    def corrupt(self, job, res):
        """Flip the verdict, or shift beta1 of an invariants report."""
        path = Path(res["out"])
        rep = json.loads(path.read_text())
        if job.kind == "invariants":
            with mp.workprec(256):
                rep["invariants"]["beta1"] = mp.nstr(mpf(rep["invariants"]["beta1"]) + 1, 80)
        else:
            rep["verdict"] = ("inequivalent" if rep["verdict"] == "possibly-equivalent"
                              else "possibly-equivalent")
        path.write_text(json.dumps(rep))


# --------------------------------------------------------------------------
# liouville: certified densities through `polylab liouville`

Q_LIST = ("1/2", "33/64", "17/32", "35/64")        # criterion 10
N_SCHEDULE = (10, 100, 1000)
BITS_BAND = (138_000, 146_000)    # around criterion 10's 141,842 bits
LIOUVILLE_DEPTH = 5


class Liouville(Workload):
    name = "liouville"
    cycle = ("spec", "spec")
    pool_cycles = 12
    tail_kind = "spec"
    # The time goes into products of 1e5-bit integers, which a 96-bit
    # speed sample does not track.
    tick = "bigint"

    def make(self, kind, i):
        lv = self.lab.liouville
        while True:
            u = self.draw(kind)
            doc = {"gamma": _num(0.8 + 0.45 * u[0]), "u": "0", "Xi": _num(0.5 + 0.4 * u[1]),
                   "lambda": _num(0.52 + 0.19 * u[2]), "q_list": list(Q_LIST),
                   "N_schedule": list(N_SCHEDULE)}
            spec = lv.LiouvilleSpec(gamma=mpf(doc["gamma"]), u=0, Xi=mpf(doc["Xi"]),
                                    lam=mpf(doc["lambda"]), q_list=Q_LIST, N_schedule=N_SCHEDULE)
            bits = max(lv.estimate_requirements(spec, LIOUVILLE_DEPTH)[1], 256)
            if BITS_BAND[0] <= bits <= BITS_BAND[1]:
                break
            self.rejected["liouville_budget_outside_band"] += 1
        return {"spec": self.write(f"spec{i}.json", doc), "doc": doc, "bits": bits,
                "seed": int(1000 * u[3])}

    def warm_up(self):
        # fills mpmath's constant caches at the highest precision of the run
        p = max((j.params for j in self.jobs), key=lambda q: q["bits"])
        d = p["doc"]
        lv = self.lab.liouville
        prec = self.lab.numerics.Precision(bits=p["bits"] + 64)
        with prec.work():
            spec = lv.LiouvilleSpec(gamma=mpf(d["gamma"]), u=0, Xi=mpf(d["Xi"]),
                                    lam=mpf(d["lambda"]), q_list=Q_LIST, N_schedule=N_SCHEDULE)
        lv.q_window(spec, 1000, 600, "1/2", prec)

    def run(self, job, out):
        p = job.params
        argv = ["liouville", p["spec"], "--depth", str(LIOUVILLE_DEPTH), "--bits", str(p["bits"]),
                "--seed", str(p["seed"]), "--out", out]
        return {"out": out, "code": self.lab.cli.main(argv)}

    def check(self, job, res):
        p, d = job.params, job.params["doc"]
        expect(res["code"] == 0, f"exit code {res['code']}")
        text = Path(res["out"]).read_text()
        rep = json.loads(text)
        expect(rep["verify"]["ok"] is True, "verify.ok is not true")
        expect(rep["declared_bits"] == p["bits"], "declared bits differ from the budget")
        wits = rep["witnesses"]
        expect(len(wits) == LIOUVILLE_DEPTH, f"{len(wits)} witnesses")
        bits = p["bits"] + 64
        A = parse_decimal(rep["A"], bits)
        with mp.workprec(bits):
            gamma, Xi, lam = mpf(d["gamma"]), mpf(d["Xi"]), mpf(d["lambda"])
            powers: Dict[int, Any] = {}
            for w in wits:
                n, m, q = w["n"], w["m"], Fraction(w["q"])
                if n not in powers:
                    powers[n] = lam ** n
                scale = Xi * powers[n] / (gamma * n)
                qm = mpf(q.numerator) / q.denominator
                a, b = mpf(m) / n + qm * qm * scale, mpf(m) / n + qm * scale
                expect(min(a, b) < A < max(a, b), f"A outside the window at n={n}")
        return {"witnesses": len(wits), "bits": p["bits"], "report_bytes": len(text.encode())}

    def corrupt(self, job, res):
        """Change the first decimal of A, which moves it out of every window."""
        path = Path(res["out"])
        rep = json.loads(path.read_text())
        i = rep["A"].index(".") + 1
        rep["A"] = rep["A"][:i] + str((int(rep["A"][i]) + 5) % 10) + rep["A"][i + 1:]
        path.write_text(json.dumps(rep))


WORKLOADS = {w.name: w for w in (Sparkle, Words, Compare, Liouville)}
