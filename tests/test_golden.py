"""Golden CLI fixtures: each case's stdout must match its committed bytes.

The input documents live in tests/golden/inputs and the expected stdout
in tests/golden/expected/<case>.out.  A refactor that is meant to keep
behaviour must leave every case byte-identical; a change that alters a
report on purpose regenerates the expected files with

    PYTHONPATH=src python -m tests.test_golden

and shows the difference in its diff.
"""

import pathlib

import pytest

from polylab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# case name -> (argv with input file names, expected exit code)
CASES = {
    "invariants_example": (["invariants", "family.json"], 0),
    "sparkle_model": (["sparkle", "model.json", "--terms", "12"], 0),
    "sparkle_model_long": (["sparkle", "model.json", "--terms", "70"], 0),
    "sparkle_family_outer": (["sparkle", "family.json", "--terms", "5", "--which", "outer"], 0),
    "compare_re_marked": (["compare", "family.json", "family_remarked.json"], 0),
    "compare_density_mismatch": (["compare", "family.json", "family_denser.json"], 10),
    "compare_offset_mismatch": (["compare", "family.json", "family_offset.json"], 10),
    "compare_engineered": (
        ["compare", "engineered_a.json", "engineered_b.json", "--depth", "3000"], 10),
    "liouville_depth_2": (["liouville", "spec.json", "--depth", "2"], 0),
}


def _argv(case: str):
    argv, _ = CASES[case]
    inputs = GOLDEN / "inputs"
    return [str(inputs / a) if a.endswith(".json") else a for a in argv] + ["--bits", "256"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_cli_output(case, capsys):
    code = main(_argv(case))
    out = capsys.readouterr().out
    assert code == CASES[case][1]
    expected = (GOLDEN / "expected" / f"{case}.out").read_text()
    assert out == expected


if __name__ == "__main__":
    import contextlib
    import io

    for name in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(_argv(name))
        (GOLDEN / "expected" / f"{name}.out").write_text(buf.getvalue())
