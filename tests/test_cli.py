"""Batch interface: JSON in, deterministic JSON/CSV out, documented exit codes."""

import contextlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from polylab import HeartFamily, PolylabError, Precision, engineer_base_mismatch, re_mark
from polylab.cli import _parse_family, main

EXAMPLE = {"lambda": "0.5", "mu": 5, "C1": 2, "C2": 3, "B1": "0.1", "B2": "0.2"}
MODEL = {"C": 2, "Lambda0": "0.6", "B0": "0.1"}
TOY_SPEC = {"gamma": 1, "u": "0.3", "Xi": "0.7", "lambda": "0.6",
            "q_list": ["1/2", "2"], "N_schedule": [10, 100]}


def jfile(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def family_doc(fam) -> dict:
    # 80 significant digits round-trips 256-bit values without bias
    with mp.workprec(320):
        return {
            "lambda": mp.nstr(mpf(fam.lam), 80), "mu": mp.nstr(mpf(fam.mu), 80),
            "C1": mp.nstr(mpf(fam.C1), 80), "C2": mp.nstr(mpf(fam.C2), 80),
            "B1": mp.nstr(mpf(fam.B1), 80), "B2": mp.nstr(mpf(fam.B2), 80),
        }


# ---------------------------------------------------------------- invariants

def test_invariants_example(tmp_path, capsys):
    path = jfile(tmp_path, "fam.json", EXAMPLE)
    code, out, err = run(capsys, "invariants", path, "--bits", "256")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["config"]["command"] == "invariants"
    assert doc["config"]["bits"] == 256
    assert doc["family"] == EXAMPLE  # raw strings echoed, not re-rounded
    inv = doc["invariants"]
    assert abs(float(inv["A"]) - 3.10628372) < 1e-6
    assert inv["xi_nonzero"] is True and inv["non_generic"] is False
    assert inv["scale_residues"] is not None


def test_invariants_rejects_bad_family(tmp_path, capsys):
    path = jfile(tmp_path, "fam.json", dict(EXAMPLE, **{"lambda": "1.0"}))
    code, out, err = run(capsys, "invariants", path)
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "InvalidInputError" and diag["exit_code"] == 2


def test_invariants_non_generic_family(tmp_path, capsys):
    # C1 = C2 = 1 zeroes both drift terms, so the scale invariant vanishes
    path = jfile(tmp_path, "fam.json",
                 dict(EXAMPLE, C1=1, C2=1))
    code, out, _ = run(capsys, "invariants", path)
    assert code == 0
    inv = json.loads(out)["invariants"]
    assert inv["non_generic"] is True
    assert inv["ln_abs_Xi"] is None and inv["scale_residues"] is None


def test_invariants_inadmissible_marks_exit_3(tmp_path, capsys):
    path = jfile(tmp_path, "fam.json",
                 dict(EXAMPLE, C1="0.5", B1="0.9"))
    code, out, err = run(capsys, "invariants", path)
    assert code == 3 and out == ""
    diag = json.loads(err)
    assert diag["exit_code"] == 3
    assert "re_mark" in diag["message"]


# ------------------------------------------------------------------- sparkle

def test_sparkle_model_csv(tmp_path, capsys):
    path = jfile(tmp_path, "model.json", MODEL)
    code, out, err = run(capsys, "sparkle", path, "--terms", "20", "--bits", "256")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "n,z_n,predicted,residual,normalized_residual"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [int(r[0]) for r in rows] == list(range(21))
    zs = [float(r[1]) for r in rows]
    assert all(b > a for a, b in zip(zs, zs[1:]))
    cfg = json.loads(lines[0][2:])
    assert cfg["terms"] == 20 and cfg["bits"] == 256


def test_sparkle_zero_terms(tmp_path, capsys):
    path = jfile(tmp_path, "model.json", MODEL)
    code, out, _ = run(capsys, "sparkle", path, "--terms", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # comment, header, n=0


def test_sparkle_negative_terms_rejected(tmp_path, capsys):
    path = jfile(tmp_path, "model.json", MODEL)
    code, _, err = run(capsys, "sparkle", path, "--terms", "-1")
    assert code == 2 and json.loads(err)["exit_code"] == 2


def test_sparkle_family_outer_loop(tmp_path, capsys):
    path = jfile(tmp_path, "fam.json", EXAMPLE)
    code, out, _ = run(capsys, "sparkle", path, "--terms", "5", "--which", "outer")
    assert code == 0
    assert len(out.strip().splitlines()) == 8


def test_sparkle_rows_at_noise_floor_print_zero(tmp_path, capsys):
    # At 64 bits the residuals from n = 20 on are bracket noise; divided by
    # L^n they would grow to ~2e3 by n = 60.  Those rows must print 0.
    path = jfile(tmp_path, "model.json", MODEL)
    code, out, _ = run(capsys, "sparkle", path, "--terms", "60", "--bits", "64")
    assert code == 0
    norm = [float(ln.split(",")[4]) for ln in out.strip().splitlines()[2:]]
    assert len(norm) == 61
    assert all(v == 0 for v in norm[20:])
    assert all(0 < abs(v) < 0.14 for v in norm[:20])


def test_sparkle_rejects_out_of_range_base(tmp_path, capsys):
    path = jfile(tmp_path, "model.json", dict(MODEL, B0="1.5"))
    code, _, err = run(capsys, "sparkle", path)
    assert code == 3 and json.loads(err)["exit_code"] == 3


def test_sparkle_rejects_unknown_perturbation(tmp_path, capsys):
    path = jfile(tmp_path, "model.json", dict(MODEL, psi="cubic"))
    code, _, err = run(capsys, "sparkle", path)
    assert code == 2


# ------------------------------------------------------------------- compare

def test_compare_family_with_itself(tmp_path, capsys):
    path = jfile(tmp_path, "fam.json", EXAMPLE)
    code, out, _ = run(capsys, "compare", path, path, "--bits", "256")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "possibly-equivalent"
    assert doc["shift"]["s"] == 0 and doc["shift"]["p"] == 0
    assert doc["irrationality"]["treated_irrational"] is True


def test_compare_re_marked_family(tmp_path, capsys):
    prec = Precision(bits=256)
    with prec.work():
        fam = HeartFamily(lam=mpf("0.5"), mu=5, C1=2, C2=3,
                          B1=mpf("0.1"), B2=mpf("0.2"))
    marked = re_mark(fam, 1, 1, prec)
    p1 = jfile(tmp_path, "f1.json", EXAMPLE)
    p2 = jfile(tmp_path, "f2.json", family_doc(marked))
    code, out, _ = run(capsys, "compare", p1, p2, "--bits", "256")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "possibly-equivalent"
    assert (doc["shift"]["s"], doc["shift"]["p"]) == (1, 0)
    # a mark move on the first map scales the window constant by nu1^-1 = 2
    assert abs(float(doc["xi_congruence"]["ratio"]) - 2) < 1e-9
    assert doc["xi_congruence"]["match_step1"] is True


def test_compare_engineered_pair_exit_10(tmp_path, capsys):
    prec = Precision(bits=256)
    with prec.work():
        fam = HeartFamily(lam=mpf("0.5"), mu=5, C1=2, C2=3,
                          B1=mpf("0.1"), B2=mpf("0.2"))
    f1, f2, meta = engineer_base_mismatch(fam, "0.55", 18, prec)
    p1 = jfile(tmp_path, "f1.json", family_doc(f1))
    p2 = jfile(tmp_path, "f2.json", family_doc(f2))
    code, out, _ = run(capsys, "compare", p1, p2,
                       "--bits", "256", "--depth", "3000")
    assert code == 10
    doc = json.loads(out)
    assert doc["verdict"] == "inequivalent"
    assert "good pair" in doc["reason"]
    assert doc["witness"]["n"] <= 3000
    assert doc["witness"]["order1"] != doc["witness"]["order2"]


# ----------------------------------------------------------------- liouville

def test_liouville_depth_one(tmp_path, capsys):
    path = jfile(tmp_path, "spec.json", TOY_SPEC)
    code, out, _ = run(capsys, "liouville", path, "--depth", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verify"]["ok"] is True
    assert len(doc["witnesses"]) == 1
    assert doc["witnesses"][0]["n"] > 10
    lo, hi = (float(x) for x in doc["witnesses"][0]["interval"])
    assert lo < float(doc["A"]) < hi


def test_liouville_infeasible_depth_exit_5(tmp_path, capsys):
    path = jfile(tmp_path, "spec.json", TOY_SPEC)
    code, out, err = run(capsys, "liouville", path, "--depth", "2", "--bits", "256")
    assert code == 5 and out == ""
    diag = json.loads(err)
    assert diag["exit_code"] == 5 and diag["required_bits"] > 256


@pytest.mark.parametrize("field, entries", [
    ("q_list", [{"a": 1}]), ("q_list", [None]),
    ("N_schedule", ["abc"]), ("N_schedule", [None]),
    ("N_schedule", [10.7]), ("N_schedule", [True, 10]),
])
def test_liouville_rejects_bad_spec_arrays_exit_2(tmp_path, capsys, field, entries):
    path = jfile(tmp_path, "spec.json", dict(TOY_SPEC, **{field: entries}))
    code, out, err = run(capsys, "liouville", path)
    assert code == 2 and out == ""
    assert json.loads(err)["exit_code"] == 2


@pytest.mark.parametrize("field, value", [("gamma", "1e400"), ("lambda", "1e-400")])
def test_liouville_extreme_spec_values_exit_documented_code(tmp_path, capsys, field, value):
    # Finite in mpmath but not as a float: the bit estimate used to crash (exit 1).
    path = jfile(tmp_path, "spec.json", dict(TOY_SPEC, **{field: value}))
    code, out, err = run(capsys, "liouville", path, "--depth", "1")
    assert code in (0, 2, 3, 5)
    if code:
        assert out == "" and json.loads(err)["exit_code"] == code


def test_liouville_tiny_xi_names_sufficient_bits(tmp_path, capsys):
    # Windows scale with |Xi|: the bit estimate once ignored it, so this spec
    # underflowed a window at 256 bits and then named 140 required bits.
    spec = json.loads((pathlib.Path(__file__).parent / "golden" / "inputs" / "spec.json").read_text())
    path = jfile(tmp_path, "spec.json", dict(spec, Xi="1e-400"))
    code, out, err = run(capsys, "liouville", path, "--depth", "1")
    diag = json.loads(err)
    assert code == 5 and out == ""
    assert diag["required_bits"] > 1400 and "underflows" not in diag["message"]
    code, out, _ = run(capsys, "liouville", path, "--depth", "1", "--bits", str(diag["required_bits"]))
    assert code == 0 and json.loads(out)["verify"]["ok"] is True


def test_liouville_seed_changes_A(tmp_path, capsys):
    path = jfile(tmp_path, "spec.json", TOY_SPEC)
    _, out0, _ = run(capsys, "liouville", path, "--seed", "0")
    _, out3, _ = run(capsys, "liouville", path, "--seed", "3")
    A0 = json.loads(out0)["A"]
    A3 = json.loads(out3)["A"]
    assert A0 != A3


# ------------------------------------------------------- plumbing and errors

def test_output_is_deterministic(tmp_path, capsys):
    path = jfile(tmp_path, "fam.json", EXAMPLE)
    _, out1, _ = run(capsys, "invariants", path, "--bits", "192")
    _, out2, _ = run(capsys, "invariants", path, "--bits", "192")
    assert out1 == out2
    mpath = jfile(tmp_path, "model.json", MODEL)
    _, csv1, _ = run(capsys, "sparkle", mpath, "--terms", "12")
    _, csv2, _ = run(capsys, "sparkle", mpath, "--terms", "12")
    assert csv1 == csv2


def test_out_flag_writes_file(tmp_path, capsys):
    path = jfile(tmp_path, "fam.json", EXAMPLE)
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "invariants", path, "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["config"]["command"] == "invariants"


def test_bits_env_override(tmp_path, capsys, monkeypatch):
    path = jfile(tmp_path, "fam.json", EXAMPLE)
    monkeypatch.setenv("POLYLAB_BITS", "128")
    _, out, _ = run(capsys, "invariants", path)
    assert json.loads(out)["config"]["bits"] == 128
    _, out, _ = run(capsys, "invariants", path, "--bits", "192")
    assert json.loads(out)["config"]["bits"] == 192


def test_missing_field_exit_2(tmp_path, capsys):
    doc = {k: v for k, v in EXAMPLE.items() if k != "B2"}
    path = jfile(tmp_path, "fam.json", doc)
    code, _, err = run(capsys, "invariants", path)
    assert code == 2 and "missing" in json.loads(err)["message"]


def test_unreadable_json_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("not json {")
    code, _, err = run(capsys, "invariants", str(p))
    assert code == 2


@pytest.mark.parametrize("out, raw", [
    ("missing/report.json", None),
    (".", None),
    (None, b'{"lambda": "0.5\xff"}'),
    (None, b'{"mu": ' + b"9" * 4301 + b"}"),
    (None, b"[" * 100_000),
], ids=["out-in-missing-dir", "out-is-a-dir", "not-utf8", "long-int-literal", "deep-nesting"])
def test_file_errors_exit_2(tmp_path, capsys, out, raw):
    path = tmp_path / "fam.json"
    if raw is None:
        path.write_text(json.dumps(EXAMPLE))
    else:
        path.write_bytes(raw)
    argv = ["invariants", str(path)] + (["--out", str(tmp_path / out)] if out else [])
    code, _, err = run(capsys, *argv)
    diag = json.loads(err)
    assert code == 2 and diag["exit_code"] == 2 and diag["error"] == "InvalidInputError"


def test_non_numeric_field_exit_2(tmp_path, capsys):
    path = jfile(tmp_path, "fam.json", dict(EXAMPLE, C1=True))
    code, _, err = run(capsys, "invariants", path)
    assert code == 2


def test_number_literals_read_exactly(tmp_path, capsys):
    # B1 = 0.1 as a JSON literal must not pass through a binary float.
    golden = pathlib.Path(__file__).parent / "golden" / "inputs" / "family.json"
    doc = json.loads(golden.read_text())
    literal = tmp_path / "literal.json"
    literal.write_text(json.dumps({k: json.loads(str(v)) for k, v in doc.items()}))
    assert '"B1": 0.1' in literal.read_text()
    _, out_str, _ = run(capsys, "invariants", str(golden))
    code, out_lit, _ = run(capsys, "invariants", str(literal))
    assert code == 0
    rep_str, rep_lit = json.loads(out_str), json.loads(out_lit)
    assert rep_lit["invariants"] == rep_str["invariants"]
    assert rep_lit["family"]["B1"] == "0.1"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_field_exit_2(tmp_path, capsys, value):
    path = jfile(tmp_path, "fam.json", dict(EXAMPLE, C1=value))
    code, out, err = run(capsys, "invariants", path)
    assert code == 2 and out == ""
    assert "finite" in json.loads(err)["message"]


@pytest.mark.parametrize("flag, value", [("--depth", "-5"), ("--depth", "0"),
                                         ("--max-shift", "-1"), ("--max-shift", "10001"),
                                         ("--tol", "inf"), ("--tol", "abc")])
def test_compare_rejects_bad_arguments_exit_2(tmp_path, capsys, flag, value):
    path = jfile(tmp_path, "fam.json", EXAMPLE)
    code, out, err = run(capsys, "compare", path, path, flag, value)
    assert code == 2 and out == ""
    assert json.loads(err)["exit_code"] == 2


# ------------------------------------------------------------ fuzzed documents
# Every document gets a documented exit code and a finite report; a traceback
# (exit 1) or a NaN/inf in the output fails.

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 10}
NON_FINITE = re.compile(r"(?i)(?<![a-z])[+-]?(nan|inf)(?![a-z])")
ODD_VALUES = st.sampled_from(["1e-400", "1e400", "-1e400", "0", "-1", "nan", "inf", "1/2",
                              "abc", "", None, True, [], {}])


def between(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def document(draw, values, extra=None):
    """The numbers of values as decimal strings or JSON literals, plus the raw
    fields of extra.  Three documents in ten are spoiled: one value is odd, one
    field is missing, or the document is not an object."""
    doc = {k: repr(v) if draw(st.booleans()) else v for k, v in draw(values).items()}
    doc.update(draw(extra) if extra is not None else {})
    spoil = draw(st.integers(0, 9))
    if spoil == 7:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(ODD_VALUES)
    elif spoil == 8:
        doc.pop(draw(st.sampled_from(sorted(doc))))
    elif spoil == 9:
        return list(doc.values())
    return doc


@st.composite
def family_values(draw):
    # mu = 1/(lam^2 nu2) keeps lam^2 mu > 1; C < 1 with B near 1 is inadmissible
    lam, nu2 = draw(between(0.05, 0.95)), draw(between(0.05, 0.95))
    return {"lambda": lam, "mu": 1 / (lam * lam * nu2),
            "C1": draw(between(0.5, 4)), "C2": draw(between(0.5, 4)),
            "B1": draw(between(0.01, 0.99)), "B2": draw(between(0.01, 0.99))}


@st.composite
def model_values(draw):
    values = {"C": draw(between(0.1, 4)), "Lambda0": draw(between(0.05, 0.95)),
              "B0": draw(between(0.01, 0.99))}
    for key in ("Lambda1", "B1"):
        if draw(st.booleans()):
            values[key] = draw(between(-0.5, 0.5))
    return values


FAMILY_DOCS = document(family_values())
MODEL_DOCS = document(model_values(), st.one_of(
    st.just({}), st.fixed_dictionaries({"psi": st.sampled_from(["zero", "one", None])})))
SPEC_DOCS = document(
    st.fixed_dictionaries({"gamma": between(0.1, 4), "u": between(-1, 1),
                           "Xi": st.one_of(between(0.01, 2), between(-2, -0.01)),
                           "lambda": between(0.05, 0.95)}),
    st.fixed_dictionaries({
        "q_list": st.lists(st.sampled_from(["1/2", "2/3", "33/64", "3/2", "2", 2]),
                           min_size=1, max_size=3),
        "N_schedule": st.one_of(
            st.lists(st.integers(1, 200), min_size=1, max_size=3, unique=True).map(sorted),
            st.lists(st.integers(-2, 200), max_size=3)),
    }))
BITS = st.sampled_from(["64", "96", "128", "256"])


@st.composite
def family_pairs(draw):
    """A family with another, with itself, or with a re-marking of itself."""
    doc = draw(FAMILY_DOCS)
    how = draw(st.sampled_from(["other", "same", "re_mark"]))
    if how == "other":
        return doc, draw(FAMILY_DOCS)
    if how == "re_mark":
        j, k = draw(st.sampled_from([1, 2])), draw(st.sampled_from([-2, -1, 1, 2]))
        try:
            prec = Precision(bits=256)
            return doc, family_doc(re_mark(_parse_family(doc, prec), j, k, prec))
        except PolylabError:
            pass
    return doc, doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_fuzzed(fuzz_dir, command, docs, *flags):
    paths = []
    for i, doc in enumerate(docs):
        path = fuzz_dir / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *paths, *flags])
    out, err = out.getvalue(), err.getvalue()
    assert code in DOCUMENTED_EXITS, (code, docs, err)
    assert not NON_FINITE.search(out), (docs, out)
    if code in (0, 10):
        assert out and err == ""
    else:
        assert out == "" and json.loads(err)["exit_code"] == code


@settings(max_examples=40, derandomize=True, deadline=None)
@given(FAMILY_DOCS, BITS)
def test_fuzzed_invariants_documents(fuzz_dir, doc, bits):
    run_fuzzed(fuzz_dir, "invariants", [doc], "--bits", bits)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.one_of(MODEL_DOCS, FAMILY_DOCS), st.integers(0, 8), st.sampled_from(["loop", "outer"]),
       BITS)
def test_fuzzed_sparkle_documents(fuzz_dir, doc, terms, which, bits):
    run_fuzzed(fuzz_dir, "sparkle", [doc], "--terms", str(terms), "--which", which, "--bits", bits)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(family_pairs(), st.integers(1, 500), st.integers(0, 64), BITS)
def test_fuzzed_compare_documents(fuzz_dir, docs, depth, max_shift, bits):
    run_fuzzed(fuzz_dir, "compare", list(docs), "--depth", str(depth),
               "--max-shift", str(max_shift), "--bits", bits)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(SPEC_DOCS, st.integers(1, 2), st.integers(0, 200), st.sampled_from(["256", "512", "1024"]))
def test_fuzzed_liouville_documents(fuzz_dir, doc, depth, seed, bits):
    run_fuzzed(fuzz_dir, "liouville", [doc], "--depth", str(depth), "--seed", str(seed),
               "--bits", bits)
