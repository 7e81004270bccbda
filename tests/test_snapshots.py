"""Byte-for-byte regression snapshots of the command-line reports.

The files under ``tests/data/snapshots/`` are regression snapshots, not
published values: each ``<case>.<command>.out`` is the exact stdout an
earlier version of this package printed for ``<input>.txt``, kept so that
a refactor that claims unchanged output is checked byte for byte.  When
a change of output is intended, regenerate the affected file from the
new code and say why in the change log.

The inputs cover a shear of 1 (braid-a3, nearpencil-8), of 4 (an affine
input with two vertical lines) and of 5 (parallel-family), no shear
(generic-8-1), and a non-default line at infinity (nearpencil-8-inf0).
wide-14 has coefficients in [-999, 999], a planted triple point and a
parallel pair, so its vertices carry large denominators.
Two more ``analyze --json`` reports of braid-a3 pin the ``betti.mod``
block: one of the auxiliary cover of degree 2, one with explicit probe
primes.
"""

from pathlib import Path

import pytest

from milnorfiber import cli

DATA = Path(__file__).parent / "data" / "snapshots"

# case -> (input stem, extra arguments)
CASES = {
    "braid-a3": ("braid-a3", []),
    "parallel-family": ("parallel-family", []),
    "nearpencil-8": ("nearpencil-8", []),
    "generic-8-1": ("generic-8-1", []),
    "affine-vertical": ("affine-vertical", []),
    "nearpencil-8-inf0": ("nearpencil-8", ["--infinity", "0"]),
    "wide-14": ("wide-14", []),
}
COMMANDS = {
    "analyze-json": ["analyze", "--json"],
    "analyze": ["analyze"],
    "bounds-json": ["bounds", "--json"],
    "presentation-json": ["presentation", "--json"],
}
# case -> (input stem, full argument list after the input path)
EXTRA_CASES = {
    "braid-a3-mod2.analyze-json": ("braid-a3", ["--json", "--modulus", "2"]),
    "braid-a3-primes.analyze-json": ("braid-a3", ["--json", "--primes", "2,3,13"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_snapshot(case, command, capsys):
    stem, extra = CASES[case]
    verb, *flags = COMMANDS[command]
    code = cli.main([verb, str(DATA / f"{stem}.txt"), *flags, *extra])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (DATA / f"{case}.{command}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(EXTRA_CASES))
def test_analyze_option_matches_snapshot(case, capsys):
    stem, flags = EXTRA_CASES[case]
    code = cli.main(["analyze", str(DATA / f"{stem}.txt"), *flags])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (DATA / f"{case}.out").read_text(encoding="utf-8")
