"""headlab benchmark: cross-check throughput and CLI latency.

    python3 bench/run.py --workload {corpus,affine,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark imports `headlab` from
its `src/` directory.  One client runs ops back to back (a closed loop)
in one process with no threads; the `cli` workload runs one child
process at a time.  A run makes one pass over every input of the
workload, then passes over the inputs that took less than SLOW_S, for at
least REPEAT_S and until `--seconds` have passed.  An input's latency is
the median of its runs.  Every op's outputs are checked.  Times are
CPU time of the benchmark process and its children.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run times every
cross-module call (see layers.py) and the metrics are the per-layer
totals of the first pass, plus the traced run's own end-to-end numbers under
`traced.`.  The line before it is a record with the run's metadata and
every failing input.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

from affine import gen_affine
from check import check_report
from cli_child import REPORT_MARKER
from layers import Layers, metric_units

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

RECURSION_LIMIT = 30_000  # the limit tests/conftest.py and cli.main set
FUEL = 10_000  # CORPUS_FUEL in tests/conftest.py
CORPUS_SEED = 20250
CORPUS_SIZE = 30
CORPUS_PREFIX = 100
AFFINE_TERMS = 400
CLI_FUEL = 200
CLI_CHURCH = range(1, 9)
CLI_CORPUS_TERMS = 42
CLI_TIMEOUT_S = 120
SETUP_REPEATS = 9
SLOW_S = 0.05  # an input this slow runs once: a guard-hitting term, a CLI child
REPEAT_S = 5.0
MAX_FAILURES_LISTED = 50


@dataclass
class Case:
    """One op: `run` is timed, `check` lists what is wrong with its output."""

    label: Callable[[], str]
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Context:
    seed: int
    traced: bool
    gen_s: float = 0.0
    child_layers: dict = field(default_factory=dict)
    child_peak_rss_mb: float = 0.0


def _gen_corpus(hl, ctx: Context, count: int) -> list:
    t0 = process_time()
    terms = list(hl.gen_terms(hl.GenConfig(max_size=CORPUS_SIZE, seed=CORPUS_SEED), count))
    ctx.gen_s += process_time() - t0
    return terms


def corpus_cases(hl, ctx: Context) -> list[Case]:
    """The first CORPUS_PREFIX acceptance-corpus terms, in seeded order,
    each run through `compare` over all engines."""
    terms = _gen_corpus(hl, ctx, CORPUS_PREFIX)
    random.Random(ctx.seed).shuffle(terms)
    names = hl.engine_names()
    return [
        Case(
            label=lambda t=t: hl.print_term(t),
            run=lambda t=t: hl.compare(t, names, FUEL),
            check=lambda report: check_report(report, hl),
        )
        for t in terms
    ]


def affine_cases(hl, ctx: Context) -> list[Case]:
    """Seeded closed affine terms, printed, parsed back and compared."""
    rng = random.Random(ctx.seed)
    terms = [gen_affine(rng, hl) for _ in range(AFFINE_TERMS)]
    names = hl.engine_names()

    def run(t):
        parsed = hl.parse_term(hl.print_term(t))
        return parsed, hl.compare(parsed, names, FUEL)

    def check(t, out):
        parsed, report = out
        problems = [] if parsed == t else ["parse_term(print_term(t)) != t"]
        problems += [
            f"{r.engine} stopped without a normal form"
            for r in report.results
            if r.strategy != "control" and not isinstance(r.outcome, hl.Normal)
        ]
        return problems + check_report(report, hl)

    return [
        Case(label=lambda t=t: hl.print_term(t), run=lambda t=t: run(t), check=lambda out, t=t: check(t, out))
        for t in terms
    ]


def church_source(n: int) -> str:
    """c_n c_2 (\\y.y) (\\w.w), which reduces to \\w.w in about 3 * 2**n betas."""

    def numeral(k):
        body = "x"
        for _ in range(k):
            body = f"f ({body})"
        return f"(\\f x.{body})"

    return f"{numeral(n)} {numeral(2)} (\\y.y) (\\w.w)"


def _run_cli(argv: list[str], source: str, ctx: Context, env: dict):
    cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), *(["--layers"] if ctx.traced else []), *argv]
    proc = subprocess.run(
        cmd, input=source, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S
    )
    kept = []
    for line in proc.stderr.splitlines(keepends=True):
        if line.startswith(REPORT_MARKER):
            report = json.loads(line[len(REPORT_MARKER):])
            ctx.child_peak_rss_mb = max(ctx.child_peak_rss_mb, report.pop("peak_rss_mb"))
            for key, value in report.items():
                ctx.child_layers[key] = ctx.child_layers.get(key, 0) + value
        else:
            kept.append(line)
    proc.stderr = "".join(kept)
    return proc


def _expect_eval(hl, cli, source: str, engine: str, fuel):
    """The exit code and output that `headlab eval --trace --format json`
    must give, from `evaluate` run in process on the same input."""
    outcome, trace = hl.evaluate(hl.parse_term(source), engine, fuel, trace=True)
    want = {
        "outcome": type(outcome).__name__,
        "result": hl.print_term(outcome.result) if isinstance(outcome, hl.Normal) else None,
        "betas": getattr(outcome, "betas", None),
        "events": len(trace.events),
    }
    code = {hl.Normal: cli.EXIT_OK, hl.FuelExhausted: cli.EXIT_FUEL}.get(type(outcome), cli.EXIT_STUCK)
    return code, want, []


def _got_eval(stdout: str) -> dict:
    # One JSON line per trace event, then one with the outcome.
    *events, payload = [json.loads(line) for line in stdout.splitlines()]
    return {
        "outcome": payload["outcome"],
        "result": payload.get("result"),
        "betas": payload.get("betas"),
        "events": len(events),
    }


def _expect_compare(hl, cli, source: str):
    """The exit code and output that `headlab compare --fuel 200` must
    give, from `compare` run in process, and the control check's problems."""
    report = hl.compare(hl.parse_term(source), hl.engine_names(), CLI_FUEL)
    want = {r.engine: cli._outcome_summary(r.outcome) for r in report.results}
    want.update({f"{strategy} group": ok for strategy, ok in report.group_agreement.items()})
    if not report.all_agree:
        code = cli.EXIT_DISAGREE
    elif all(isinstance(r.outcome, hl.FuelExhausted) for r in report.results):
        code = cli.EXIT_FUEL
    else:
        code = cli.EXIT_OK
    return code, want, check_report(report, hl)


def _got_compare(stdout: str) -> dict:
    # One "<engine> <summary>" line per engine, one "<strategy> group:
    # agree|DISAGREE" line per group, and an optional "note:" line.
    got = {}
    for line in stdout.splitlines():
        strategy, is_group, verdict = line.partition(" group: ")
        if is_group:
            got[f"{strategy} group"] = verdict == "agree"
        elif not line.startswith("note:"):
            engine, _, summary = line.partition(" ")
            got[engine] = summary.lstrip()
    return got


def _cli_case(ctx: Context, env: dict, argv: list[str], source: str, expect, got) -> Case:
    expected = []

    def check(proc):
        # The in-process result is computed once, on the first check.
        if not expected:
            expected.append(expect())
        code, want, problems = expected[0]
        problems = list(problems)
        if proc.returncode != code:
            problems.append(f"exit code {proc.returncode}, in-process result gives {code}: {proc.stderr.strip()[-300:]}")
        try:
            same = got(proc.stdout) == want
        except (ValueError, KeyError):  # no output, or not in the CLI's format
            same = False
        if not same:
            problems.append("output differs from the in-process result")
        return problems

    return Case(
        label=lambda: f"headlab {' '.join(argv)} <<< {source}",
        run=lambda: _run_cli(argv, source, ctx, env),
        check=check,
    )


def cli_cases(hl, ctx: Context) -> list[Case]:
    """`headlab eval --trace --format json` with one machine engine per
    input, and `headlab compare --fuel 200`, on Church terms and on the
    first corpus terms, each in its own child process, in seeded order.

    The inputs and their engines are the same for every seed, so that runs
    with different seeds are comparable: which engine traces a corpus term
    that hits a guard changes the op's latency several-fold.
    """
    cli = importlib.import_module("headlab.cli")
    corpus = _gen_corpus(hl, ctx, CLI_CORPUS_TERMS)
    sources = [(church_source(n), None) for n in CLI_CHURCH]
    sources += [(hl.print_term(t), CLI_FUEL) for t in corpus]
    machines = [name for name, eng in hl.engines.ENGINES.items() if eng.bigstep is None]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cases = []
    for k, (source, fuel) in enumerate(sources):
        engine = machines[k % len(machines)]
        fuel_args = [] if fuel is None else ["--fuel", str(fuel)]
        eval_argv = ["eval", "--engine", engine, "--trace", "--format", "json", *fuel_args, "-"]
        expect_eval = partial(_expect_eval, hl, cli, source, engine, fuel)
        cases.append(_cli_case(ctx, env, eval_argv, source, expect_eval, _got_eval))
        compare_argv = ["compare", "--fuel", str(CLI_FUEL), "-"]
        expect_compare = partial(_expect_compare, hl, cli, source)
        cases.append(_cli_case(ctx, env, compare_argv, source, expect_compare, _got_compare))
    random.Random(ctx.seed).shuffle(cases)
    return cases


WORKLOADS = {"corpus": corpus_cases, "affine": affine_cases, "cli": cli_cases}


@dataclass
class Stats:
    runs: list[list[float]] = field(default_factory=list)  # latencies per input, in seconds
    failures: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: int = 0


def _label(case: Case) -> str:
    try:
        return case.label()
    except Exception as exc:  # a label is only for the report
        return f"<unprintable input: {type(exc).__name__}>"


def cpu_seconds() -> float:
    """CPU time used so far by this process and its finished children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def measure(cases: list[Case], seconds: float, after_first_pass: Callable[[], None] = lambda: None) -> Stats:
    """Run passes over `cases`, check every op and keep each input's
    latencies.

    The first pass runs every input once.  Later passes run the inputs
    whose first run took less than SLOW_S, for at least REPEAT_S and until
    `seconds` have passed since the start.  The median of an input's runs,
    spread over seconds, is steadier than one run on a shared host, whose
    speed changes from one second to the next.  An input that takes
    SLOW_S or more (a guard-hitting term, a CLI child) is timed once, so
    that the run's length stays bounded.

    An op's latency is the CPU time it takes, in this process and in the
    child it runs, so that time the process waits for the CPU while other
    programs run does not count.  An op that raises, or whose check finds
    a problem, counts as failed; neither stops the run.
    """
    stats = Stats(runs=[[] for _ in cases])
    start, stop = perf_counter(), float("inf")
    todo = range(len(cases))
    while todo:
        for i in todo:
            case = cases[i]
            t0 = cpu_seconds()
            try:
                out, error = case.run(), None
            except Exception as exc:  # one op's failure must not abort the run
                out, error = None, exc
            stats.runs[i].append(cpu_seconds() - t0)
            stats.attempted += 1
            if error is not None:
                problems = [f"{type(error).__name__}: {error}"]
            else:
                try:
                    problems = case.check(out)
                except Exception as exc:  # a malformed output is a failed op
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                stats.failed += 1
                if len(stats.failures) < MAX_FAILURES_LISTED:
                    stats.failures.append({"input": _label(case), "problems": problems})
            if perf_counter() >= stop:
                return stats
        stats.passes += 1
        if stats.passes == 1:
            after_first_pass()
            stop = max(start + seconds, perf_counter() + REPEAT_S)
            todo = [i for i, runs in enumerate(stats.runs) if runs[0] < SLOW_S]
    return stats


def end_to_end(setup_times: list[float], stats: Stats, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    latencies = [statistics.median(runs) for runs in stats.runs]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
        "ok_ratio": ((stats.attempted - stats.failed) / stats.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(hl, totals: dict, gen_s: float) -> dict[str, tuple[float, str]]:
    """Layer totals of one pass over every input; gen.gen_terms_s is per set-up."""
    units = metric_units(hl.engine_names())
    values = {name: totals.get(name, 0) for name in units}
    values["gen.gen_terms_s"] = gen_s
    return {name: (values[name], unit) for name, unit in units.items()}


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _purge_headlab() -> None:
    for name in [m for m in sys.modules if m == "headlab" or m.startswith("headlab.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, traced: bool):
    """Import headlab afresh and build the workload's inputs, SETUP_REPEATS
    times; the last import and inputs are the ones the run uses."""
    times, gen_times = [], []
    for _ in range(SETUP_REPEATS):
        _purge_headlab()
        ctx = Context(seed=seed, traced=traced)
        t0 = cpu_seconds()
        hl = importlib.import_module("headlab")
        cases = WORKLOADS[workload](hl, ctx)
        times.append(cpu_seconds() - t0)
        gen_times.append(ctx.gen_s)
    return hl, ctx, cases, times, statistics.median(gen_times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "headlab" / "__init__.py").is_file():
        print(f"error: no headlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(RECURSION_LIMIT)
    hl, ctx, cases, setup_times, gen_s = set_up(args.workload, args.seed, bool(args.trace))
    if Path(hl.__file__).resolve().parent != SRC / "headlab":
        print(f"error: imported headlab from {hl.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    totals = ctx.child_layers
    if args.trace and args.workload != "cli":
        layers = Layers()
        layers.install(hl)
        totals = layers.totals
    first_pass = {}
    stats = measure(cases, args.seconds, lambda: first_pass.update(totals))
    if args.workload == "cli":
        peak_rss_mb = ctx.child_peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = end_to_end(setup_times, stats, peak_rss_mb)
    if args.trace:
        metrics = per_layer(hl, first_pass, gen_s)
        metrics.update({f"traced.{name}": value for name, value in e2e.items()})
    else:
        metrics = e2e

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "fuel": FUEL if args.workload != "cli" else {
            "eval Church": hl.engines.DEFAULT_FUEL,
            "eval corpus": CLI_FUEL,
            "compare": CLI_FUEL,
        },
        "recursion_limit": sys.getrecursionlimit(),
        "inputs": len(cases),
        "passes": stats.passes,
        "inputs_timed_once": sum(len(runs) == 1 for runs in stats.runs),
        "failures": stats.failures,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
