"""Batch command-line interface.

Subcommands ingest JSON documents whose numbers may be decimal strings
or number literals (both read exactly), run at the requested precision, and
emit deterministic JSON or CSV reports that embed the resolved run
configuration.  Exit codes: 0 ok, 2 bad input, 3 domain error, 4 solver
failure, 5 insufficient precision, 10 inequivalent verdict.
"""

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Dict, Optional

from mpmath import mp, mpf

from . import connections as conn
from . import heart, liouville
from .errors import (
    DomainError,
    InvalidInputError,
    PolylabError,
    PrecisionError,
    SolverError,
)
from .monodromy import PerturbedPowerFamily
from .numerics import Precision, default_bits
from .progressions import MAX_SHIFT, SearchBounds

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_SOLVER = 4
EXIT_PRECISION = 5
EXIT_INEQUIVALENT = 10

FAMILY_FIELDS = ("lambda", "mu", "C1", "C2", "B1", "B2")
MODEL_REQUIRED = ("C", "Lambda0", "B0")


def _fmt(x, bits: int) -> str:
    """Decimal string at roughly a third of the mantissa bits (full fidelity)."""
    with mp.workprec(bits + 16):
        return mp.nstr(mpf(x), max(8, bits // 3))


def _jsonable(obj, bits: int):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (Fraction,)):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, bits) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, bits) for k, v in obj.items()}
    return _fmt(obj, bits)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(doc: Dict[str, Any], bits: int, out: Optional[str]) -> None:
    _emit(json.dumps(_jsonable(doc, bits), indent=2, sort_keys=True) + "\n", out)


def _load_json(path: str):
    # ValueError covers bad UTF-8, bad JSON and integer literals past the digit limit.
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=str)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidInputError(f"cannot read JSON from {path}: {exc}") from None


def _num(doc: Dict[str, Any], key: str):
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise InvalidInputError(f"field {key!r} must be a number or decimal string, got {v!r}")
    try:
        x = mpf(v)
    except Exception:
        raise InvalidInputError(f"field {key!r} is not a valid number: {v!r}") from None
    if not mp.isfinite(x):
        raise InvalidInputError(f"field {key!r} must be finite, got {v!r}")
    return x


def _require(doc, fields, what: str):
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} document must be a JSON object")
    missing = [k for k in fields if k not in doc]
    if missing:
        raise InvalidInputError(f"{what} document missing fields: {', '.join(missing)}")


def _parse_family(doc, prec: Precision) -> heart.HeartFamily:
    _require(doc, FAMILY_FIELDS, "family")
    with prec.work():
        return heart.HeartFamily(
            lam=_num(doc, "lambda"), mu=_num(doc, "mu"),
            C1=_num(doc, "C1"), C2=_num(doc, "C2"),
            B1=_num(doc, "B1"), B2=_num(doc, "B2"),
        )


def _parse_model(doc, prec: Precision) -> conn.ConnectionProblem:
    _require(doc, MODEL_REQUIRED, "model")
    psi = doc.get("psi", "zero")
    if psi != "zero":
        raise InvalidInputError(f'only psi = "zero" is supported in JSON input, got {psi!r}')
    with prec.work():
        fam = PerturbedPowerFamily(
            C=_num(doc, "C"),
            Lambda0=_num(doc, "Lambda0"),
            Lambda1=_num(doc, "Lambda1") if "Lambda1" in doc else 0,
        )
        return conn.ConnectionProblem(
            family=fam,
            B0=_num(doc, "B0"),
            B1=_num(doc, "B1") if "B1" in doc else 0,
        )


def _parse_liouville_spec(doc, prec: Precision) -> liouville.LiouvilleSpec:
    _require(doc, ("gamma", "u", "Xi", "lambda", "q_list", "N_schedule"), "spec")
    if not isinstance(doc["q_list"], list) or not isinstance(doc["N_schedule"], list):
        raise InvalidInputError("q_list and N_schedule must be JSON arrays")
    # conversion must happen at working precision or decimal strings lose bits
    with prec.work():
        return liouville.LiouvilleSpec(
            gamma=_num(doc, "gamma"), u=_num(doc, "u"),
            Xi=_num(doc, "Xi"), lam=_num(doc, "lambda"),
            q_list=tuple(doc["q_list"]), N_schedule=tuple(doc["N_schedule"]),
        )


def _make_precision(args) -> Precision:
    bits = args.bits if args.bits is not None else default_bits()
    if args.tol is not None:
        with mp.workprec(max(bits, 64)):
            try:
                tol = mpf(args.tol)
            except ValueError:
                raise InvalidInputError(f"--tol is not a valid number: {args.tol!r}") from None
            return Precision(bits=bits, tol=tol)
    return Precision(bits=bits)


def _config(args, prec: Precision, **extra) -> Dict[str, Any]:
    cfg: Dict[str, Any] = {
        "command": args.command,
        "bits": prec.bits,
        "tol": _fmt(prec.tol, prec.bits),
    }
    cfg.update(extra)
    return cfg


def _invariants_payload(inv: heart.InvariantReport) -> Dict[str, Any]:
    return {
        "A": inv.A, "alpha": inv.alpha, "gamma": inv.gamma,
        "nu1": inv.nu1, "nu2": inv.nu2,
        "beta1": inv.beta1, "beta2": inv.beta2,
        "tau_prog": inv.tau_prog, "tau_paper": inv.tau_paper,
        "Xi": inv.Xi, "Theta": inv.Theta,
        "xi": inv.xi_coeff, "psi": inv.psi_coeff,
        "theta1": inv.theta1, "theta2": inv.theta2,
        "xi_nonzero": inv.xi_nonzero,
        "non_generic": not inv.xi_nonzero,
        "ln_abs_Xi": inv.ln_abs_Xi,
        "scale_residues": None if not inv.xi_nonzero else {
            "mod_step1": inv.res_mod_step1,
        },
    }


def cmd_invariants(args, prec: Precision) -> int:
    doc = _load_json(args.family)
    fam = _parse_family(doc, prec)
    inv = heart.invariants(fam, prec)
    report = {
        "config": _config(args, prec),
        "family": {k: doc[k] for k in FAMILY_FIELDS},
        "invariants": _invariants_payload(inv),
    }
    _emit_json(report, prec.bits, args.out)
    return EXIT_OK


def cmd_sparkle(args, prec: Precision) -> int:
    doc = _load_json(args.input)
    if isinstance(doc, dict) and "lambda" in doc:
        fam = _parse_family(doc, prec)
        loop, outer = heart.connection_problems(fam, prec)
        prob = loop if args.which == "loop" else outer
    else:
        prob = _parse_model(doc, prec)
    if args.terms < 0:
        raise InvalidInputError(f"--terms must be >= 0, got {args.terms}")
    model = conn.asymptotic_model(prob, prec)
    seq = conn.generate_sequence(prob, args.terms, prec)
    bits = prec.bits
    lines = ["# " + json.dumps(_jsonable(_config(args, prec, terms=args.terms), bits),
                               sort_keys=True)]
    lines.append("n,z_n,predicted,residual,normalized_residual")
    for e, pred, resid, norm in conn._residual_rows(seq, model, prec):
        lines.append(",".join([str(e.n)] + [_fmt(v, bits) for v in (e.z, pred, resid, norm)]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_compare(args, prec: Precision) -> int:
    f1 = _parse_family(_load_json(args.family1), prec)
    f2 = _parse_family(_load_json(args.family2), prec)
    bounds = SearchBounds(s_max=args.max_shift, p_max=args.max_shift)
    rep = heart.compare(f1, f2, prec, depth=args.depth, bounds=bounds)
    payload: Dict[str, Any] = {
        "config": _config(args, prec, depth=args.depth, max_shift=args.max_shift,
                          q_grid=list(heart.Q_GRID)),
        "verdict": rep.verdict,
        "reason": rep.reason,
        "shift": None if rep.shift is None else
            {"s": rep.shift.s, "p": rep.shift.p, "residual": rep.shift.residual},
        "witness": rep.witness,
        "margins": rep.margins,
        "xi_congruence": rep.xi_congruence,
        "irrationality": {
            "treated_irrational": rep.irrationality.treated_irrational,
            "best_rational": f"{rep.irrationality.best_num}/{rep.irrationality.best_den}",
            "best_error": rep.irrationality.best_error,
            "q_max": rep.irrationality.q_max,
        },
        "checked_depth": rep.checked_depth,
        "undecided": rep.undecided,
    }
    _emit_json(payload, prec.bits, args.out)
    return EXIT_OK if rep.verdict == "possibly-equivalent" else EXIT_INEQUIVALENT


def cmd_liouville(args, prec: Precision) -> int:
    doc = _load_json(args.spec)
    spec = _parse_liouville_spec(doc, prec)
    A, witnesses = liouville.construct_A(spec, args.depth, prec, seed=args.seed)
    ver = liouville.verify(A, spec, witnesses, prec)
    if not ver.ok:
        raise SolverError(f"constructed value failed verification: {ver.failures}")
    report = {
        "config": _config(args, prec, depth=args.depth, seed=args.seed),
        "spec": {
            **{k: doc[k] for k in ("gamma", "u", "Xi", "lambda")},
            "q_list": [str(q) for q in spec.q_list],
            "N_schedule": list(spec.N_schedule),
        },
        "A": A,
        "declared_bits": prec.bits,
        "witnesses": [
            {"n": w.n, "m": w.m, "q": str(w.q),
             "interval": [w.interval[0], w.interval[1]]}
            for w in witnesses
        ],
        "verify": {"ok": ver.ok, "smallest_width": ver.smallest_width},
    }
    _emit_json(report, prec.bits, args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylab",
        description="Sparkling-connection sequences, their invariants, and certified "
                    "Liouville-type constructions at arbitrary precision.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bits", type=int, default=None,
                        help="working precision in bits (default: POLYLAB_BITS or 256)")
    common.add_argument("--tol", type=str, default=None,
                        help="comparison tolerance (decimal string; default 2^-(bits/2))")
    common.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="classifying invariants of a two-saddle family")
    p.add_argument("family", help="family JSON: lambda, mu, C1, C2, B1, B2")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("sparkle", parents=[common],
                       help="solve a connection sequence and report residuals as CSV")
    p.add_argument("input", help="family JSON or model JSON (C, Lambda0[, Lambda1], B0[, B1])")
    p.add_argument("--terms", type=int, default=20, help="largest index N; rows n = 0..N")
    p.add_argument("--which", choices=("loop", "outer"), default="loop",
                   help="side of a family input (ignored for model input)")
    p.set_defaults(func=cmd_sparkle)

    p = sub.add_parser("compare", parents=[common],
                       help="topological-equivalence obstructions for two families")
    p.add_argument("family1")
    p.add_argument("family2")
    p.add_argument("--max-shift", type=int, default=64,
                   help=f"shift search box |s|, |p| <= this, at most {MAX_SHIFT}")
    p.add_argument("--depth", type=int, default=10 ** 4, help="good-pair scan depth")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("liouville", parents=[common],
                       help="construct and verify a certified Liouville-type value")
    p.add_argument("spec", help="spec JSON: gamma, u, Xi, lambda, q_list, N_schedule")
    p.add_argument("--depth", type=int, default=1, help="number of nesting steps")
    p.add_argument("--seed", type=int, default=0, help="tie-breaking seed")
    p.set_defaults(func=cmd_liouville)

    return parser


def _diag(exc: Exception, code: int) -> None:
    doc: Dict[str, Any] = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    rb = getattr(exc, "required_bits", None)
    if rb is not None:
        doc["required_bits"] = rb
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        prec = _make_precision(args)
        return args.func(args, prec)
    except InvalidInputError as exc:
        _diag(exc, EXIT_SCHEMA)
        return EXIT_SCHEMA
    except PrecisionError as exc:
        _diag(exc, EXIT_PRECISION)
        return EXIT_PRECISION
    except DomainError as exc:
        _diag(exc, EXIT_DOMAIN)
        return EXIT_DOMAIN
    except SolverError as exc:
        _diag(exc, EXIT_SOLVER)
        return EXIT_SOLVER
    except PolylabError as exc:
        _diag(exc, EXIT_SOLVER)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
