"""Command-line interface.

Commands:
    analyze <file>        full pipeline with verdicts
    presentation <file>   print the sweep presentation
    bounds <file>         combinatorial bounds (arrangement or raw incidence file)
    preset <name>         emit a built-in arrangement file
    selftest              run the whole validation suite

Exit status: 0 on success, 1 when a consistency verdict or self-check
fails or the cover's d2 breaks the chain condition past reading H1, 2 on
malformed input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

try:  # the C accelerator alone; the json package would load its decoder too
    from _json import encode_basestring_ascii as _quote
except ImportError:  # as json.encoder does: its pure-Python version
    from json.encoder import encode_basestring_ascii as _quote

from . import bounds as bounds_mod
from . import geometry
from . import pipeline
from . import presentation as presentation_mod
from .cover import ChainConditionError
from .geometry import InputError


def _lines(path):
    """The lines of the file at ``path``, read as a parser takes them; an
    open, read or decode error is one InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _sniff(lines):
    """The first content line of ``lines`` ('' if none), then the same lines
    for a parser, with those before it blank: a pipe is read once."""
    skipped = 0
    for line in lines:
        found = next(geometry.content_lines(line), None)
        if found:
            yield found[1]
            yield "\n" * skipped + line
            yield from lines
            return
        skipped += len(line.splitlines())
    yield ""


def _parse_primes(text):
    """Integers of a --primes list; pipeline.analyze checks that they are primes."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"bad --primes list {text!r}") from None


def _emit_json(obj, out):
    """Write json.dumps(obj, indent=2, sort_keys=True) and a newline, byte
    for byte, without the pure-Python encoder that indent selects.

    Takes dicts with str keys, lists, str, int, finite floats, bool and
    None; any other value raises before a byte is written."""
    parts = []
    _json_parts(obj, "\n", parts.append)
    parts.append("\n")
    out.write("".join(parts))


def _json_parts(obj, newline, put):
    kind = type(obj)
    if kind is str:
        put(_quote(obj))
    elif kind is int:
        put(int.__repr__(obj))
    elif kind is dict and obj:
        sep, inner = "{", newline + "  "
        for key in sorted(obj):
            put(sep + inner + _quote(key) + ": ")  # _quote refuses a key that is not a str
            _json_parts(obj[key], inner, put)
            sep = ","
        put(newline + "}")
    elif kind is list and obj:
        sep, inner = "[", newline + "  "
        for item in obj:
            put(sep + inner)
            _json_parts(item, inner, put)
            sep = ","
        put(newline + "]")
    elif kind is dict or kind is list:
        put("{}" if kind is dict else "[]")
    elif obj is None or kind is bool:
        put("null" if obj is None else "true" if obj else "false")
    elif kind is float and math.isfinite(obj):
        put(float.__repr__(obj))
    elif kind is float:
        raise ValueError(f"float {obj!r} has no JSON form")
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _print_analysis(a, out):
    r = pipeline.report_dict(a)
    out.write(f"input: {r['input']['mode']}, {r['input']['n_lines']} lines, "
              f"cover degree {r['input']['cover_degree']}\n")
    census = ", ".join(f"{c} of multiplicity {m}" for m, c in sorted(
        (int(k), v) for k, v in r["incidence"]["census"].items()))
    out.write(f"incidence: {len(r['incidence']['points'])} points ({census})\n")
    p = r["presentation"]
    out.write(f"presentation: {p['generators']} generators, {p['relators']} relators, "
              f"total length {p['total_length']}\n")
    out.write(f"H1 = {a.h1}\n")
    mod = ", ".join(f"F_{q}: {v}" for q, v in sorted((int(k), v) for k, v in r["betti"]["mod"].items()))
    out.write(f"betti: b1(Q) = {r['betti']['q']}; {mod}\n")
    if r["bounds"] is not None:
        b = r["bounds"]
        out.write(f"bounds: lower {b['lower']}, per-line best {b['onehyp']['best']}, "
                  f"per-degree total {b['cdo']['total']}\n")
        fired = ", ".join(name for name, _ in b["applicable"]) or "none"
        out.write(f"exactness criteria fired: {fired}\n")
    if r["prediction"] is not None and r["prediction"]["exact"] is not None:
        e = r["prediction"]["exact"]
        out.write(f"predicted exactly: rank {e['rank']}, torsion {e['torsion']}\n")
    for name, ok in sorted(r["verdicts"].items()):
        out.write(f"verdict {name}: {'pass' if ok else 'FAIL'}\n")
    for note in r["notes"]:
        out.write(f"note [{note['id']}]: {note['text']}\n")


def cmd_analyze(args, out):
    lines = _sniff(_lines(args.file))
    next(lines)  # the header: an unreadable file is named before a malformed --primes list
    a = pipeline.analyze_text(
        lines,
        infinity_index=args.infinity,
        primes=None if args.primes is None else _parse_primes(args.primes),
        modulus=args.modulus,
    )
    if args.json:
        _emit_json(pipeline.report_dict(a), out)
    else:
        _print_analysis(a, out)
    return 0 if a.all_verdicts_pass else 1


def cmd_presentation(args, out):
    arr = geometry.parse_arrangement(_lines(args.file))
    proj, aff, _ = geometry.affine_picture(arr, args.infinity)
    pres = presentation_mod.arvola_randell(geometry.shear_to_generic(aff))
    if args.json:
        _emit_json(
            {
                "kind": "affine-decone",
                "generators": pres.generator_count,
                "cover_degree": proj.n_lines,
                "relators": [
                    {"word": presentation_mod.word_text(r.word), "vertex": r.vertex, "index": r.index}
                    for r in pres.relators
                ],
            },
            out,
        )
    else:
        out.write(pres.text())
    return 0


def cmd_bounds(args, out):
    lines = _sniff(_lines(args.file))
    if next(lines).startswith("incidence"):
        if args.infinity is not None:
            raise InputError("an infinity index applies to arrangement files, not raw incidence")
        report = bounds_mod.bound_report(bounds_mod.parse_incidence(lines))
        notes = ["raw incidence input: the transverse-split check needs coordinates and was skipped"]
    else:
        proj, infinity = geometry.projective_picture(geometry.parse_arrangement(lines), args.infinity)
        report = bounds_mod.bound_report(proj.incidence, infinity=infinity)
        notes = []
    payload = {**report.as_dict(), "n_lines": report.n, "notes": list(report.notes) + notes}
    if args.json:
        _emit_json(payload, out)
    else:
        out.write(f"lines: {report.n}\n")
        out.write(f"lower bound: {report.lower_bound}\n")
        out.write(f"per-line upper bound (best): {report.onehyp_best}\n")
        out.write(f"per-degree upper bound (total): {report.cdo_total}\n")
        fired = ", ".join(name for name, _ in report.applicable) or "none"
        out.write(f"exactness criteria fired: {fired}\n")
        for n_ in payload["notes"]:
            out.write(f"note: {n_}\n")
    return 0


def cmd_preset(args, out):
    from . import presets
    out.write(presets.preset_text(args.name))
    return 0


def cmd_selftest(args, out):
    from . import validation
    results = validation.run_all(seed=args.seed if args.seed is not None else validation.DEFAULT_SEED)
    if args.json:
        _emit_json(
            {
                "passed": all(r.passed for r in results),
                "criteria": [
                    {"number": r.number, "name": r.name, "passed": r.passed,
                     "detail": r.detail, "seconds": round(r.seconds, 3)}
                    for r in results
                ],
            },
            out,
        )
    else:
        for r in results:
            out.write(r.line() + "\n")
        n_pass = sum(r.passed for r in results)
        out.write(f"{n_pass}/{len(results)} criteria passed\n")
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors follow the malformed-input rule: exit 2, one line."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="milnorfiber",
        description="First homology of the Milnor fiber of a complexified-real "
        "line arrangement: exact computation plus combinatorial cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on an arrangement file")
    p.add_argument("file")
    p.add_argument("--infinity", type=int, default=None,
                   help="index of the line sent to infinity, projective files only "
                   "(default: last)")
    p.add_argument("--primes", default=None, help="comma-separated torsion probe primes")
    p.add_argument("--modulus", type=int, default=None,
                   help="analyze the Z/m quotient cover instead of the full cover")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("presentation", help="print the sweep presentation")
    p.add_argument("file")
    p.add_argument("--infinity", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_presentation)

    p = sub.add_parser("bounds", help="combinatorial bounds from an arrangement or incidence file")
    p.add_argument("file")
    p.add_argument("--infinity", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("preset", help="emit a built-in arrangement")
    p.add_argument("name", help="triangle | pencil:n | nearpencil:n | generic:n:seed | "
                                "braid-a3 | parallel-family")
    p.set_defaults(fn=cmd_preset)

    p = sub.add_parser("selftest", help="run the validation suite")
    p.add_argument("--seed", type=int, default=None, help="seed for the random corpus")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return parser


# one parser per process, built on first use (parse_args keeps no state in it)
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChainConditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
