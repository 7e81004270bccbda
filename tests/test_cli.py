"""Command-line behaviour: exit codes, JSON schema and determinism."""

import gc
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorfiber import cli, geometry, presets, validation
from milnorfiber.validation import CriterionResult

TRIANGLE = "projective\n1 0 0\n0 1 0\n0 0 1\n"


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text(TRIANGLE)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_human(tri_file, capsys):
    code, out, err = run(capsys, "analyze", tri_file)
    assert code == 0
    assert "H1 = Z^2" in out
    assert "verdict euler_identity: pass" in out
    assert err == ""


def test_analyze_json_schema(tri_file, capsys):
    code, out, _ = run(capsys, "analyze", tri_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {
        "input",
        "incidence",
        "presentation",
        "h1",
        "betti",
        "bounds",
        "prediction",
        "verdicts",
        "notes",
    }
    assert report["h1"] == {"rank": 2, "torsion": []}
    assert report["betti"]["q"] == 2
    assert set(report["betti"]["mod"]) == {"2", "3", "5", "7", "11"}
    assert all(report["verdicts"].values())
    # round-trip: emitting the parsed report reproduces the bytes
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out


def test_analyze_deterministic(tri_file, capsys):
    _, first, _ = run(capsys, "analyze", tri_file, "--json")
    _, second, _ = run(capsys, "analyze", tri_file, "--json")
    assert first == second


def test_analyze_infinity_flag(tri_file, capsys):
    results = []
    for idx in ("0", "1", "2"):
        code, out, _ = run(capsys, "analyze", tri_file, "--infinity", idx, "--json")
        assert code == 0
        results.append(json.loads(out)["h1"])
    assert results[0] == results[1] == results[2] == {"rank": 2, "torsion": []}


def test_analyze_primes_flag(tri_file, capsys):
    code, out, _ = run(capsys, "analyze", tri_file, "--primes", "2,13")
    assert code == 0
    assert "F_13: 2" in out


@pytest.mark.parametrize("entry", ["4", "0", "-3", "1", "-2", "2147483646"])
def test_analyze_primes_rejects_non_prime(tri_file, capsys, entry):
    code, out, err = run(capsys, "analyze", tri_file, "--primes", f"2,{entry}")
    assert code == 2
    assert out == ""
    assert err == f"error: bad --primes entry {entry}: not a prime\n"


def test_analyze_primes_refuses_huge_prime(tri_file, capsys):
    # trial division of a 19-digit prime would run for minutes
    code, out, err = run(capsys, "analyze", tri_file, "--primes", "2,1000000000000000003")
    assert code == 2
    assert out == ""
    assert err == "error: bad --primes entry 1000000000000000003: probe primes must be below 2^31\n"


def test_analyze_refuses_exponent_notation(tmp_path, capsys):
    p = tmp_path / "exp.txt"
    p.write_text("projective\n1e30000000 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "analyze", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: malformed rational '1e30000000'")


def test_analyze_modulus(tmp_path, capsys):
    p = tmp_path / "pencil4.txt"
    code = cli.main(["preset", "pencil:4"])
    p.write_text(capsys.readouterr().out)
    # the quotient cover of the deconed pencil: H1 = Z^{2m+1}
    code, out, _ = run(capsys, "analyze", str(p), "--modulus", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["h1"] == {"rank": 5, "torsion": []}
    assert report["bounds"] is None  # bounds only speak about the full cover
    assert any(n["id"] == "modulus-override" for n in report["notes"])


def test_analyze_bad_modulus(tri_file, capsys):
    code, out, err = run(capsys, "analyze", tri_file, "--modulus", "0")
    assert code == 2
    assert "positive" in err


def test_analyze_refuses_cover_over_cell_budget(tri_file, capsys):
    # the degree-10^6 cover of the triangle has 4 * 10^6 cells; it must be
    # refused before anything is assembled, not left to run for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", tri_file, "--modulus", "1000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "error: the degree-1000000 cover would have 4000000 cells, over the budget "
        "of 250000; choose a smaller --modulus\n"
    )


def test_cover_budget_refusal_names_no_flag_that_was_not_passed(tmp_path, capsys):
    # 80 generic lines: the Milnor cover has 80 * (1 + 79 + C(79, 2)) cells
    rng = random.Random(80)
    lines = [" ".join(str(rng.randint(-999, 999)) for _ in range(3)) for _ in range(80)]
    p = tmp_path / "random80.txt"
    p.write_text("projective\n" + "\n".join(lines) + "\n")
    code, out, err = run(capsys, "analyze", str(p))
    assert (code, out) == (2, "")
    assert err == "error: the degree-80 cover would have 252880 cells, over the budget of 250000\n"


def test_analyze_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("projective\n1 0 0\n2 0 0\n")
    code, out, err = run(capsys, "analyze", str(p))
    assert code == 2
    assert "duplicate" in err
    assert out == ""


def test_analyze_refuses_non_utf8_file(tmp_path, capsys):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"projective\n1 0 0\n\xff 1 0\n0 0 1\n")
    code, out, err = run(capsys, "analyze", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {p}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_analyze_refuses_empty_primes_list(tri_file, capsys):
    code, out, err = run(capsys, "analyze", tri_file, "--primes", "")
    assert code == 2
    assert out == ""
    assert err == "error: bad --primes list ''\n"


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/path.txt")
    assert code == 2
    assert "error" in err


def test_presentation_command(tri_file, capsys):
    code, out, _ = run(capsys, "presentation", tri_file)
    assert code == 0
    assert out.startswith("gens: 2")
    code, out, _ = run(capsys, "presentation", tri_file, "--json")
    data = json.loads(out)
    assert data["generators"] == 2
    assert data["cover_degree"] == 3
    assert data["relators"][0]["word"] == "g2 g1 g2^-1 g1^-1"


@pytest.mark.parametrize("text, flags, degree", [
    ("affine\n1 0 0\n0 1 0\n1 1 -1\n", (), 4),
    (presets.preset_text("generic:12:1"), (), 12),
    (presets.preset_text("generic:12:1"), ("--infinity", "0"), 12),
])
def test_presentation_cover_degree_is_the_projective_line_count(tmp_path, capsys, text, flags, degree):
    # three affine lines and the line at infinity; or the twelve
    # projective lines, whichever one is sent to infinity
    p = tmp_path / "lines.txt"
    p.write_text(text)
    code, out, _ = run(capsys, "presentation", "--json", *flags, str(p))
    assert code == 0
    data = json.loads(out)
    assert (data["kind"], data["cover_degree"], data["generators"]) == ("affine-decone", degree, degree - 1)


def test_bounds_command_arrangement(tri_file, capsys):
    code, out, _ = run(capsys, "bounds", tri_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lower"] == 2
    assert data["onehyp"]["best"] == 2
    assert [name for name, _ in data["applicable"]] == [
        "coprime_or_double_line",
        "transverse_split",
    ]


def test_bounds_builds_no_affine_picture(tri_file, capsys, monkeypatch):
    # the bounds read the projective incidence and the infinity index only
    def refuse(*args):
        raise AssertionError("bounds deconed its input")

    monkeypatch.setattr(geometry, "decone", refuse)
    for argv in ((), ("--infinity", "0")):
        code, out, err = run(capsys, "bounds", tri_file, "--json", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["lower"] == 2
    assert run(capsys, "bounds", tri_file, "--infinity", "99") == (
        2, "", "error: infinity index 99 out of range\n")


@pytest.mark.parametrize("command", ["analyze", "bounds", "presentation"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_commands_leave_no_cyclic_garbage(tri_file, capsys, command, json_flag):
    # everything a call builds is freed by reference counting alone
    run(capsys, command, tri_file, *json_flag)  # first-call caches warmed
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, command, tri_file, *json_flag)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bounds_command_incidence(tmp_path, capsys):
    p = tmp_path / "inc.txt"
    p.write_text("incidence N=4\nm=3 lines=0,1,2\nm=2 lines=0,3\nm=2 lines=1,3\nm=2 lines=2,3\n")
    code, out, _ = run(capsys, "bounds", str(p), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n_lines"] == 4
    assert data["oka_sakamoto"] is None
    assert any("skipped" in n for n in data["notes"])


def test_bounds_refuses_incidence_over_line_budget(tmp_path, capsys):
    # without the budget this two-line file ran past 10 s
    p = tmp_path / "huge.txt"
    p.write_text("incidence N=100000000\nm=2 lines=0,1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", str(p))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: line 1: N=100000000 exceeds the budget of 300 lines\n"


# the characters around a file's header: every line boundary str.splitlines
# knows, other whitespace, comment marks and header words
HEADER_PIECES = ["incidence", "incidenc", "projective", "x", "#", " ", "\t", "\n", "\r", "\r\n",
                 "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029", "\xa0"]


@given(st.lists(st.sampled_from(HEADER_PIECES), max_size=10).map("".join))
@settings(max_examples=1000, deadline=None)
def test_bounds_reads_incidence_by_its_first_content_line(text):
    # reference: each line with content outside its comment, numbered as
    # str.splitlines splits; cmd_bounds reads the first one's header
    want = [(k, l.split("#")[0].strip()) for k, l in enumerate(text.splitlines(), 1) if l.split("#")[0].strip()]
    assert list(geometry.content_lines(text)) == want


def test_bounds_refuses_incidence_over_point_budget(tmp_path, capsys):
    # without the budget, 2 000 000 such point lines ran 5.6 s and 334 MB
    # before the repeated pair was refused
    p = tmp_path / "points.txt"
    p.write_text("incidence N=3\n" + "m=2 lines=0,1\n" * 200_000)
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", str(p))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: line 5: more than N(N-1)/2 = 3 points, over the budget\n"


def lines_text(header, count):
    """An arrangement file of ``count`` lines x + k*y + k^2 = 0: distinct,
    with distinct slopes, and no three through one point."""
    return header + "\n" + "".join(f"1 {k} {k * k}\n" for k in range(count))


@pytest.mark.parametrize("header", ["projective", "affine"])
@pytest.mark.parametrize("command", ["analyze", "bounds", "presentation"])
def test_file_over_line_budget_is_refused_while_read(tmp_path, capsys, header, command):
    # without the budget a 1000-line file ran 6.6 s in bounds and past 120 s in presentation
    p = tmp_path / "big.txt"
    p.write_text(lines_text(header, geometry.LINE_BUDGET + 1) + "not a line\n" * 1000)
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(p))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: line 302: more than 300 lines, over the budget\n"


@pytest.mark.parametrize("header", ["projective", "affine"])
def test_file_at_line_budget_passes_bounds(tmp_path, capsys, header):
    # an affine file's added line at infinity is not counted
    p = tmp_path / "at-budget.txt"
    p.write_text(lines_text(header, geometry.LINE_BUDGET))
    code, out, err = run(capsys, "bounds", str(p), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["n_lines"] == geometry.LINE_BUDGET + (header == "affine")


def test_malformed_line_under_the_budget_is_the_one_reported(tmp_path, capsys):
    text = lines_text("projective", geometry.LINE_BUDGET + 1).splitlines()
    text[50] = "1 2"
    p = tmp_path / "bad.txt"
    p.write_text("\n".join(text) + "\n")
    assert run(capsys, "bounds", str(p)) == (
        2, "", "error: line 51: expected three rationals, got '1 2'\n")


@pytest.mark.parametrize("index", ["0", "99"])
@pytest.mark.parametrize("command", ["analyze", "bounds", "presentation"])
def test_infinity_flag_is_refused_on_affine_input(tmp_path, capsys, command, index):
    # affine input has its line at infinity already; the flag was ignored
    p = tmp_path / "affine3.txt"
    p.write_text("affine\n1 0 0\n0 1 0\n1 1 -1\n")
    assert run(capsys, command, str(p), "--infinity", index) == (
        2, "", "error: an infinity index applies to projective input only\n")


def test_preset_pencil(capsys):
    code, out, _ = run(capsys, "preset", "pencil:5")
    assert code == 0
    from milnorfiber import geometry

    arr = geometry.parse_arrangement(out)
    assert arr.n_lines == 5
    # all through (0:0:1)
    assert all(l.contains((0, 0, 1)) for l in arr.lines)


def test_preset_generic_seeded(capsys):
    code, first, _ = run(capsys, "preset", "generic:5:7")
    assert code == 0
    code, second, _ = run(capsys, "preset", "generic:5:7")
    assert first == second
    code, other, _ = run(capsys, "preset", "generic:5:8")
    assert other != first
    # the name is the one way to give the seed
    code, out, err = run_usage(capsys, "preset", "generic:5", "--seed", "8")
    assert (code, out) == (2, "")
    assert err == "error: unrecognized arguments: --seed 8\n"


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "milnorfiber", "preset", "triangle"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, TRIANGLE, "")


@pytest.mark.parametrize("name, size", [
    ("pencil:100000000", 100000000),
    ("nearpencil:100000000", 100000000),
    ("generic:8000:1", 8000),
    ("generic:101:1", 101),
])
def test_preset_refuses_size_over_budget(capsys, name, size):
    # without the budget pencil:100000000 built 10^8 strings until killed,
    # and generic:8000:1 never ended (fewer than 8000 lines can be drawn)
    start = time.perf_counter()
    code, out, err = run(capsys, "preset", name)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: preset size {size} exceeds the budget of 100 lines\n"


def test_preset_at_budget_is_built(capsys):
    code, out, err = run(capsys, "preset", "pencil:100")
    assert (code, err) == (0, "")
    assert out.count("\n") == 101


def run_usage(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv, err", [
    (("analyze", "f", "--modulus", "x"), "error: argument --modulus: invalid int value: 'x'\n"),
    (("analyze",), "error: the following arguments are required: file\n"),
    (("frobnicate",), None),
    ((), "error: the following arguments are required: command\n"),
])
def test_usage_errors_are_one_line(capsys, argv, err):
    code, out, got = run_usage(capsys, *argv)
    assert code == 2
    assert out == ""
    assert got.count("\n") == 1
    if err is None:
        assert got.startswith("error: argument command: invalid choice: 'frobnicate'")
    else:
        assert got == err


def test_help_still_exits_zero(capsys):
    code, out, err = run_usage(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: milnorfiber")
    assert err == ""


def run_any(capsys, *argv):
    """(exit code, stdout, stderr) of one call, usage errors included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_carries_no_state_between_calls(tri_file, capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    calls = [
        ("analyze", tri_file, "--modulus", "x"),
        ("--help",),
        ("analyze", tri_file, "--json"),
        ("bounds", tri_file, "--infinity", "0"),
        ("presentation", tri_file, "--json"),
        ("analyze", tri_file, "--modulus", "x"),
    ]
    cached = [run_any(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run_any(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0, 2]
    assert cached[0][2] == "error: argument --modulus: invalid int value: 'x'\n"


# --- the --json writer -------------------------------------------------------

json_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600') | st.characters(),
                    max_size=8)
json_scalars = (st.none() | st.booleans() | st.integers(-10**100, 10**100)
                | st.floats(allow_nan=False, allow_infinity=False) | json_text)


def json_values(depth):
    if not depth:
        return json_scalars
    kids = json_values(depth - 1)
    return (json_scalars | st.lists(kids, max_size=4)
            | st.dictionaries(json_text, kids, max_size=4))


@given(json_values(4))
@settings(max_examples=300, deadline=None)
def test_emit_json_writes_json_dumps_bytes(obj):
    out = io.StringIO()
    cli._emit_json(obj, out)
    assert out.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj, error", [
    ((1, 2), TypeError),
    ({1, 2}, TypeError),
    ({"a": [1, (2,)]}, TypeError),
    ({1: "int key"}, TypeError),
    (float("nan"), ValueError),
    ([0.5, float("inf")], ValueError),
])
def test_emit_json_refuses_values_it_cannot_write_exactly(obj, error):
    out = io.StringIO()
    with pytest.raises(error):
        cli._emit_json(obj, out)
    assert out.getvalue() == ""


def test_preset_unknown(capsys):
    code, _, err = run(capsys, "preset", "dodecagon")
    assert code == 2
    assert "preset" in err


def test_selftest_reports_each_criterion(capsys, monkeypatch):
    fake = [
        CriterionResult(1, "alpha", True, "fine", 0.01),
        CriterionResult(2, "beta", True, "also fine", 0.02),
    ]
    monkeypatch.setattr(validation, "run_all", lambda seed: fake)
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "criterion  1 [alpha]: PASS" in out
    assert "2/2 criteria passed" in out


def test_selftest_failure_sets_exit_code(capsys, monkeypatch):
    fake = [CriterionResult(1, "alpha", False, "broken", 0.01)]
    monkeypatch.setattr(validation, "run_all", lambda seed: fake)
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["criteria"][0]["name"] == "alpha"


@pytest.mark.parametrize("index", ["0", "99"])
def test_infinity_flag_is_refused_on_raw_incidence(tmp_path, capsys, index):
    # a raw incidence file has no coordinates and no affine picture; the
    # flag was ignored
    p = tmp_path / "incidence3.txt"
    p.write_text("incidence N=3\nm=2 lines=0,1\nm=2 lines=0,2\nm=2 lines=1,2\n")
    assert run(capsys, "bounds", str(p), "--infinity", index) == (
        2, "", "error: an infinity index applies to arrangement files, not raw incidence\n")


def test_bad_modulus_is_reported_before_the_infinity_index(tri_file, capsys):
    assert run(capsys, "analyze", tri_file, "--modulus", "-2", "--infinity", "7") == (
        2, "", "error: modulus must be a positive integer, got -2\n")
