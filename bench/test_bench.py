"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import collections
import json
import random
import re
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
sys.setrecursionlimit(30_000)

import headlab  # noqa: E402
from headlab import FuelExhausted, Lam, Normal, Stuck, Var  # noqa: E402

import run  # noqa: E402
from affine import MAX_SIZE, MIN_SIZE, gen_affine  # noqa: E402
from check import check_control, check_report  # noqa: E402
from layers import Layers, metric_units  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def is_closed_affine(t) -> bool:
    """True when t has no free variable and uses each binder at most once."""
    uses: list[int] = []
    todo = [(t, ())]
    while todo:
        node, scope = todo.pop()
        if hasattr(node, "fun"):
            todo += [(node.fun, scope), (node.arg, scope)]
        elif hasattr(node, "body"):
            uses.append(0)
            todo.append((node.body, scope + ((node.binder, len(uses) - 1),)))
        else:
            slot = next((k for name, k in reversed(scope) if name == node.name), None)
            if slot is None:
                return False
            uses[slot] += 1
    return all(n <= 1 for n in uses)


def test_affine_generator_is_deterministic_closed_and_affine():
    first = [gen_affine(random.Random(7), headlab) for _ in range(3)]
    again = [gen_affine(random.Random(7), headlab) for _ in range(3)]
    assert first == again
    rng = random.Random(11)
    terms = [gen_affine(rng, headlab) for _ in range(300)]
    assert terms != [gen_affine(random.Random(12), headlab) for _ in range(300)]
    for t in terms:
        assert is_closed_affine(t)
        assert not headlab.free_vars(t)
        assert MIN_SIZE <= headlab.syntax.term_metrics(t)[0] <= MAX_SIZE


def test_is_closed_affine_rejects_reuse_and_free_variables():
    x = Var("x")
    assert not is_closed_affine(Lam("x", headlab.App(x, x)))
    assert not is_closed_affine(Lam("y", x))
    assert is_closed_affine(Lam("x", Lam("x", x)))


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([1.0], run.Stats(runs=[[0.1]] * 20, attempted=20), 1.0)
    layer = run.per_layer(headlab, {}, 0.0)
    layer.update({f"traced.{name}": value for name, value in e2e.items()})
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    for metrics, listed in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {m["name"]: m["unit"] for m in listed} == {name: unit for name, (_, unit) in metrics.items()}
    names = list(e2e) + list(layer)
    assert len(names) == len(set(names)) and len(layer) <= 128
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(metric_units(headlab.engine_names())) <= set(layer)


def test_checker_flags_control_disagreements():
    lam = Normal(Lam("x", Var("x")), 1, 1)
    neutral = Normal(Var("y"), 1, 1)
    out = FuelExhausted("s", 10)
    stuck = Stuck("no transition applies", "s")
    assert check_control(lam, neutral, stuck, neutral, headlab) == []
    assert check_control(neutral, neutral, neutral, neutral, headlab) == []
    assert check_control(out, out, out, out, headlab) == []
    assert check_control(lam, neutral, stuck, Normal(Var("z"), 1, 1), headlab)
    assert check_control(lam, neutral, lam, neutral, headlab)
    assert check_control(neutral, neutral, stuck, neutral, headlab)
    assert check_control(neutral, out, neutral, neutral, headlab)


def test_checker_flags_a_group_disagreement_and_counts_it_failed(monkeypatch):
    monkeypatch.setattr(run, "REPEAT_S", 0.0)
    report = headlab.compare(Lam("x", Var("x")), headlab.engine_names(), 100)
    assert check_report(report, headlab) == []
    report.group_agreement["head"] = False
    case = run.Case(label=lambda: "made-up", run=lambda: report, check=lambda r: check_report(r, headlab))
    stats = run.measure([case], seconds=0)
    assert stats.attempted == 2 and stats.failed == 2
    assert stats.failures[0] == {"input": "made-up", "problems": ["head group disagrees"]}


def test_an_escaped_exception_is_a_failed_op_not_an_abort(monkeypatch):
    monkeypatch.setattr(run, "REPEAT_S", 0.0)

    def boom():
        raise RecursionError("maximum recursion depth exceeded")

    cases = [
        run.Case(label=lambda: "deep", run=boom, check=lambda _: []),
        run.Case(label=lambda: "fine", run=lambda: None, check=lambda _: []),
    ]
    stats = run.measure(cases, seconds=0)
    assert stats.attempted == 3 and stats.failed == 2
    assert stats.failures[0] == {"input": "deep", "problems": ["RecursionError: maximum recursion depth exceeded"]}
    assert all(f["input"] == "deep" for f in stats.failures)


def test_a_slow_input_is_timed_once_and_a_fast_one_by_the_median_of_its_runs(monkeypatch):
    monkeypatch.setattr(run, "REPEAT_S", 0.2)

    def burn():
        t0 = run.cpu_seconds()
        while run.cpu_seconds() - t0 < 2 * run.SLOW_S:
            pass

    runs = collections.Counter()
    cases = [
        run.Case(label=lambda: "slow", run=lambda: runs.update(["slow"]) or burn(), check=lambda _: []),
        run.Case(label=lambda: "fast", run=lambda: runs.update(["fast"]), check=lambda _: []),
    ]
    first_pass = []
    stats = run.measure(cases, seconds=0, after_first_pass=lambda: first_pass.append(dict(runs)))
    assert first_pass == [{"slow": 1, "fast": 1}]
    assert runs["slow"] == 1 and runs["fast"] > 100 and stats.passes == runs["fast"] - 1
    assert [len(r) for r in stats.runs] == [1, runs["fast"]] and stats.runs[0][0] >= 2 * run.SLOW_S
    assert stats.attempted == 1 + runs["fast"] and stats.failed == 0
    e2e = run.end_to_end([1.0], stats, 1.0)
    assert e2e["ops_per_s"][0] == 2 / (stats.runs[0][0] + statistics.median(stats.runs[1]))


def test_the_check_adds_nothing_to_the_traced_layers():
    report = headlab.compare(Lam("x", Var("x")), headlab.engine_names(), 100)
    layers = Layers()
    layers.install(headlab)
    try:
        before = dict(layers.totals)
        assert check_report(report, headlab) == []
    finally:
        layers.close()
    assert layers.totals == before


def _outcome_counts(cases):
    counts = collections.Counter()
    for case in cases:
        _, report = case.run()
        assert case.check((_, report)) == []
        counts.update((r.engine, type(r.outcome).__name__) for r in report.results)
    return counts


def test_traced_and_untraced_runs_give_identical_outcome_counts():
    cases = run.affine_cases(headlab, run.Context(seed=3, traced=False))[:25]
    original = dict(headlab.engines.ENGINES)
    untraced = _outcome_counts(cases)
    layers = Layers()
    layers.install(headlab)
    try:
        traced = _outcome_counts(cases)
    finally:
        layers.close()
    assert traced == untraced
    assert headlab.engines.ENGINES == original and headlab.compare is headlab.engines.compare
    totals = layers.totals
    assert totals["engine.head-os.betas"] == sum(r.outcome.betas for c in cases for r in c.run()[1].results if r.engine == "head-os")
    for key in ("engines.compare_s", "syntax.subst_s", "syntax.term_metrics_s", "parse.parse_term_s",
                "pretty.print_term_s.untraced", "pretty.print_state_s.untraced", "envmachine.force_s",
                "engine.sestoft.guard_s", "engine.sestoft.readback_s", "engine.head-proj.readback_s"):
        assert totals[key] > 0, key


def test_cli_ops_match_the_in_process_result_and_report_child_layers():
    ctx = run.Context(seed=5, traced=True)
    cases = run.cli_cases(headlab, ctx)
    for command in ("headlab eval", "headlab compare"):
        case = next(c for c in cases if c.label().startswith(command))
        assert case.check(case.run()) == []
    assert ctx.child_layers["cli.import_s"] > 0 and ctx.child_layers["engines.compare_s"] > 0
    assert ctx.child_layers["pretty.print_state_s.traced"] + ctx.child_layers["pretty.print_term_s.traced"] > 0


def test_an_untraced_cli_op_reports_the_childs_own_peak_rss_and_no_layers():
    ctx = run.Context(seed=5, traced=False)
    case = next(c for c in run.cli_cases(headlab, ctx) if c.label().startswith("headlab compare"))
    ballast = bytearray(128 * 2**20)
    ballast[:: 2**12] = b"x" * len(ballast[:: 2**12])  # touch every page: the parent's RSS grows past 128 MB
    assert case.check(case.run()) == []
    del ballast
    assert 0 < ctx.child_peak_rss_mb < 100 and ctx.child_layers == {}
