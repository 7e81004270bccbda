"""Benchmark for the milnorfiber package.

One workload per process, single-threaded:

    python3 perfbench/run.py --workload generic-ladder --seed 1 --seconds 55 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``) as one JSON object on its last line.  Without
``--workload`` it runs every workload in turn, each in its own process,
and prints one row per workload (with ``--trace 1``: the layer table).

The package is imported from ``src/`` next to this directory; the inputs
are generated from the seed by ``inputs.py`` and handed to the package
only as arrangement texts.  Every output is checked against a reference
that does not come from the package (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "milnorfiber"
SETUP_REPEATS = 11
DEFAULT_SECONDS = 55  # BENCHMARK.json run_seconds


Package = namedtuple("Package", "cli pipeline geometry")
TracedPass = namedtuple("TracedPass", "per_case self_s calls layer_s counters")


class SetupError(RuntimeError):
    """The package under test cannot be imported from the checkout."""


def import_package():
    """Fresh import of the package from ``src/`` (drops earlier imports so
    each set-up pays the import again)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module(f"{PACKAGE}.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SRC}: {exc}") from None
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return Package(cli, sys.modules[f"{PACKAGE}.pipeline"], sys.modules[f"{PACKAGE}.geometry"])


# --- operations: what a user runs, timed ------------------------------------


@dataclass
class Failure:
    reason: str


def _cli(pkg, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = pkg.cli.main(list(argv))
    return rc, out.getvalue()


def op_analyze(pkg, case):
    return _cli(pkg, "analyze", case.path, "--json")


def op_bounds(pkg, case):
    return _cli(pkg, "bounds", case.path, "--json")


def op_presentation(pkg, case):
    return _cli(pkg, "presentation", case.path, "--json")


def op_projective_h1(pkg, case):
    return pkg.pipeline.projective_h1(pkg.geometry.parse_arrangement(case.text))


def _call(op, pkg, case):
    try:
        return op(pkg, case)
    except (Exception, SystemExit) as exc:  # a crash is a failed input, not an abort
        return Failure(f"{op.__name__}: {exc!r}")


# --- checks: against references that do not come from the package ----------


def _json(result, what):
    if isinstance(result, Failure):
        raise ValueError(result.reason)
    rc, text = result
    if rc != 0:
        raise ValueError(f"{what} exited {rc}")
    return json.loads(text)


def _check_analyze(case, result):
    """Only the ``h1`` and ``verdicts`` keys are read, so new report keys
    never read as failures.  Returns H1 as (rank, torsion)."""
    report = _json(result, "analyze")
    failing = sorted(k for k, ok in report["verdicts"].items() if not ok)
    if failing:
        raise ValueError(f"failing verdicts {failing}")
    h1 = (report["h1"]["rank"], tuple(report["h1"]["torsion"]))
    if case.h1 is not None and h1 != case.h1:
        raise ValueError(f"H1 {h1}, closed form {case.h1}")
    return h1


def check_analyze(case, outputs):
    _check_analyze(case, outputs[0])


def check_corpus(case, outputs):
    rank, torsion = _check_analyze(case, outputs[0])
    other = outputs[1]
    if isinstance(other, Failure):
        raise ValueError(other.reason)
    if (other.free_rank, tuple(other.torsion)) != (rank, torsion):
        raise ValueError(f"routes disagree: analyze {(rank, torsion)}, projective {other}")
    upper = inputs.eigen_upper_bound(case.points, case.n)
    if not case.n - 1 <= rank <= upper:
        raise ValueError(f"b1 = {rank} outside [{case.n - 1}, {upper}]")


def check_front_half(case, outputs):
    n = case.n
    bounds = _json(outputs[0], "bounds")
    if bounds["n_lines"] != n or bounds["lower"] != n - 1:
        raise ValueError(f"bounds report n_lines {bounds['n_lines']}, lower {bounds['lower']}")
    # a line through double points only makes every per-degree term 0
    heavy_lines = {i for pt in case.points if len(pt) > 2 for i in pt}
    if len(heavy_lines) < n and bounds["cdo"]["total"] != n - 1:
        raise ValueError(f"per-degree total {bounds['cdo']['total']}, expected {n - 1}")
    pres = _json(outputs[1], "presentation")
    got = (pres["generators"], pres["cover_degree"], len(pres["relators"]))
    want = (n - 1, n, case.affine_relators)
    if got != want:
        raise ValueError(f"presentation (generators, degree, relators) {got}, expected {want}")


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload; README.md gives the reason for each."""

    cases: object  # seed -> list of inputs.Case
    ops: tuple
    check: object  # (case, outputs) -> None, raises ValueError on a wrong answer


WORKLOADS = {
    "generic-ladder": Workload(inputs.generic_ladder, (op_analyze,), check_analyze),
    "monodromy-mix": Workload(inputs.monodromy_mix, (op_analyze,), check_analyze),
    "corpus": Workload(inputs.corpus, (op_analyze, op_projective_h1), check_corpus),
    "front-half": Workload(inputs.front_half, (op_bounds, op_presentation), check_front_half),
}


# --- one workload in this process --------------------------------------------


def set_up(workload, seed, workdir):
    """Import, generate and verify; the median of several repeats is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pkg = import_package()
        cases = workload.cases(seed)
        inputs.verify(cases)
        for i, case in enumerate(cases):
            case.path = str(Path(workdir) / f"{i}.txt")
            Path(case.path).write_text(case.text, encoding="utf-8")
        times.append(perf_counter() - start)
    return pkg, cases, times


# (entry point, counter names, reader of its first return value during one input)
COUNTERS = (
    ("geometry.intersection_points",
     ("geometry.points", "geometry.multiple_points", "geometry.incidences"),
     lambda inc, first: (len(inc.points), sum(p.multiplicity > 2 for p in inc.points),
                         sum(p.multiplicity for p in inc.points))),
    ("presentation.arvola_randell",
     ("presentation.generators", "presentation.relators", "presentation.total_length"),
     lambda pres, first: (pres.generator_count, len(pres.relators),
                          pres.total_relator_length())),
    ("cover.build_cover_complex", ("cover.d2_rows", "cover.d2_cols", "cover.d2_nnz"),
     lambda c, first: c.d2.shape + (sum(1 for row in c.d2.rows for v in row if v),)),
    ("cover.h1_of_cover", ("snf.rank_d2", "snf.probe_primes"),
     lambda h, first: (first["cover.build_cover_complex"].n
                       * first["cover.build_cover_complex"].relator_count - h.b2,
                       len(h.betti_mod))),
)


def size_counters(returns):
    """Exact sizes of one input, from the first return value of each
    captured entry point; for the census, the first on the input's
    projective arrangement rather than an affine picture derived from it.
    An entry point that was not called contributes 0; an attribute a later
    commit no longer has makes the counter absent (None)."""
    first = {}
    for key, calls in returns.items():
        for args, result in calls:
            if key != "geometry.intersection_points" or (
                    args and type(args[0]).__name__ == "Arrangement"):
                first[key] = result
                break
    counters = {}
    for key, names, read in COUNTERS:
        value = first.get(key)
        try:
            values = (0,) * len(names) if value is None else read(value, first)
        except (AttributeError, KeyError):
            values = (None,) * len(names)
        counters.update(zip(names, values))
    return counters


def run_pass(pkg, workload, cases, trace=None):
    """One pass over the inputs.  Only the operations are timed; checks and
    counters run after each input's clock stops."""
    seconds, failures, counters = [], [], {}
    for case in cases:
        if trace is not None:
            for calls in trace.returns.values():
                calls.clear()
        start = perf_counter()
        outputs = [_call(op, pkg, case) for op in workload.ops]
        seconds.append(perf_counter() - start)
        try:
            workload.check(case, outputs)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            failures.append(f"{case.name}: {exc}")
        if trace is not None:
            for name, value in size_counters(trace.returns).items():
                if value is None or counters.get(name, 0) is None:
                    counters[name] = None
                else:
                    counters[name] = counters.get(name, 0) + value
    return seconds, failures, counters


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        pkg, cases, setup_times = set_up(workload, seed, workdir)
        largest = max(range(len(cases)), key=lambda i: cases[i].size)
        plain, traced, failures, attempted = [], [], [], 0
        deadline, pass_s = perf_counter() + seconds, 0.0
        # start another pass while it would end within half a pass of the deadline
        while not plain or (trace and not traced) or perf_counter() + pass_s / 2 < deadline:
            pass_start = perf_counter()
            run_traced = trace and len(traced) < len(plain)
            if run_traced:
                with tracer.Tracer(PACKAGE, capture=[key for key, _, _ in COUNTERS]) as tr:
                    per_case, failed, counters = run_pass(pkg, workload, cases, tr)
                traced.append(TracedPass(per_case, dict(tr.self_s), dict(tr.calls),
                                         tr.layer_totals(), counters))
            else:
                per_case, failed, _ = run_pass(pkg, workload, cases)
                plain.append(per_case)
            failures += failed
            attempted += len(cases)
            pass_s = perf_counter() - pass_start
    for reason in sorted(set(failures)):
        print(f"FAILED {reason}", file=sys.stderr)
    walls = [sum(p) for p in plain]
    detail = {
        "workload": name,
        "seed": seed,
        "inputs": len(cases),
        "largest_input": cases[largest].name,
        "passes": len(walls),
        "wall_s_quartiles": _quartiles(walls),
        "input_s": {c.name: statistics.median(p[i] for p in plain) for i, c in enumerate(cases)},
        "setup_s_samples": setup_times,
        "fail_ratio": len(failures) / attempted,
    }
    if trace:
        metrics = layer_metrics(traced, walls)
        detail["traced_wall_s"] = statistics.median(sum(t.per_case) for t in traced)
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "max_input_s": (statistics.median(p[largest] for p in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


def layer_metrics(traced, untraced_walls):
    """Per-layer self time (median over traced passes), call counts and
    size counters (exact, from the last traced pass), and the health of
    the trace: the share of pass time inside named layers, and traced
    against untraced pass time."""
    metrics = {}
    last = traced[-1]
    for key in tracer.entry_points():
        metrics[f"{key}.self_s"] = (statistics.median(t.self_s[key] for t in traced), "s")
        metrics[f"{key}.calls"] = (last.calls[key], "count")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(t.layer_s[layer] for t in traced), "s")
    for name, value in last.counters.items():
        if value is None:
            print(f"counter {name} is absent in this commit", file=sys.stderr)
        else:
            metrics[name] = (value, "count")
    traced_walls = [sum(t.per_case) for t in traced]
    metrics["trace.coverage"] = (
        statistics.median(sum(t.self_s.values()) / sum(t.per_case) for t in traced), "ratio")
    metrics["trace.overhead"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio")
    return metrics


# --- every workload, one process each -----------------------------------------


def run_all(seed, seconds, trace):
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        rows.append((json.loads(lines[-2]), json.loads(lines[-1])))
    if trace:
        print_layer_table(rows)
    else:
        print_table(rows)
    return all(result["correct"] for _, result in rows)


def print_table(rows):
    head = ("workload", "wall_s med [q1, q3] (n)", "max_input_s", "peak_rss_mb",
            "setup_s", "fail_ratio")
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for detail, result in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        q1, _, q3 = detail["wall_s_quartiles"]
        print(f"| {detail['workload']} | {m['wall_s']:.3f} s [{q1:.3f}, {q3:.3f}] "
              f"({detail['passes']}) | {m['max_input_s']:.3f} s ({detail['largest_input']}) | "
              f"{m['peak_rss_mb']:.1f} MB | {m['setup_s']:.3f} s | "
              f"{detail['fail_ratio']:g} ({result['failed']}/{result['attempted']}) |")


def print_layer_table(rows):
    names = [d["workload"] for d, _ in rows]
    print("| layer metric | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    keys = list(rows[0][1]["metrics"])
    for key in keys:
        cells = []
        for detail, result in rows:
            entry = result["metrics"].get(key)
            if entry is None:
                cells.append("absent")
            elif key.endswith(".self_s"):
                share = entry["value"] / detail["traced_wall_s"]
                cells.append(f"{entry['value']:.4f} s ({share:.1%})")
            elif entry["unit"] == "ratio":
                cells.append(f"{entry['value']:.3f}")
            else:
                cells.append(f"{entry['value']}")
        print(f"| `{key}` | " + " | ".join(cells) + " |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return 0 if run_all(args.seed, args.seconds, args.trace) else 1
        detail, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))  # quartiles and sample counts for the table
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
