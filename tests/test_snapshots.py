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
}
COMMANDS = {
    "analyze-json": ["analyze", "--json"],
    "analyze": ["analyze"],
    "bounds-json": ["bounds", "--json"],
    "presentation-json": ["presentation", "--json"],
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
