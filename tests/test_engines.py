"""Harness behavior: the evaluation driver, tracing, generation, engine
comparison, and the command-line interface."""

import collections
import dataclasses
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import headlab
from headlab import control, engines, envmachine, fuel, headsimple, pretty, projection, syntax, weakhead
from headlab.cli import main
from headlab.engines import (
    CONTROL_ENGINE_NAMES,
    ENGINES,
    HEAD_ENGINE_NAMES,
    MAX_STATE_NODES,
    WH_ENGINE_NAMES,
    FuelExhausted,
    InvalidFuelError,
    Normal,
    Stuck,
    UnknownEngineError,
    _group_agrees,
    _machine_readback,
    compare,
    engine_names,
    evaluate,
    get_engine,
    resolve_fuel,
)
from headlab.fuel import FuelMeter, OutOfFuel
from headlab.gen import GenConfig, gen_term, gen_terms
from headlab.parse import parse_term
from headlab.pretty import print_state
from headlab.syntax import App, IllegalStateError, Index, Lam, Proj, Var, alpha_eq, free_vars, fresh, term_metrics
from conftest import CORPUS_FUEL
from helpers import GUARD_INDICES, GUARD_TERM, TRACE_FUEL, closed_terms, golden_entry, plugged_measures


def T(src):
    return parse_term(src)


OMEGA = r"(\y.y y)(\y.y y)"


class TestEvaluate:
    def test_worked_example_counts(self):
        outcome, trace = evaluate(T(r"\x.(\y.y) x"), "head-proj", 100, trace=True)
        assert isinstance(outcome, Normal)
        assert alpha_eq(outcome.result, T(r"\x.x"))
        phases = collections.Counter(event.phase for event in trace.events)
        assert (phases["reduce"], phases["readback"]) == (3, 2)

    def test_divergence_reports_fuel(self):
        outcome, _ = evaluate(T(OMEGA), "krivine", 50)
        assert isinstance(outcome, FuelExhausted)
        assert outcome.betas == 50

    def test_weak_head_stops_at_lambda(self):
        outcome, _ = evaluate(T(rf"\x.({OMEGA}) x"), "krivine", 50)
        assert isinstance(outcome, Normal)
        assert outcome.betas == 0
        assert outcome.steps == 0

    def test_unknown_engine(self):
        with pytest.raises(UnknownEngineError):
            evaluate(T("x"), "no-such-engine", 10)

    def test_invalid_fuel(self):
        with pytest.raises(ValueError):
            evaluate(T("x"), "krivine", 0)

    def test_fuel_env_var_override(self, monkeypatch):
        monkeypatch.setenv("HEADLAB_FUEL", "17")
        assert resolve_fuel(None) == 17
        assert resolve_fuel(5) == 5
        monkeypatch.delenv("HEADLAB_FUEL")
        assert resolve_fuel(None) == 100000

    @pytest.mark.parametrize("fuel, env", [(0, None), (-3, None), (None, "abc"), (None, "0")])
    def test_invalid_fuel_is_rejected(self, monkeypatch, fuel, env):
        if env is not None:
            monkeypatch.setenv("HEADLAB_FUEL", env)
        with pytest.raises(InvalidFuelError):
            resolve_fuel(fuel)

    def test_trace_replays_through_step_function(self, corpus120):
        # Re-drive each engine's step function and confirm the recorded
        # reduce states are exactly the visited states.
        for name in ("krivine", "head-proj", "head-abs", "head-coalesced", "wh-os"):
            engine = get_engine(name)
            for term in corpus120[:40]:
                _, trace = evaluate(term, name, 150, trace=True)
                state = engine.load(term)
                for event in trace.events:
                    if event.phase == "load":
                        assert event.state == engine.render(state)
                    elif event.phase == "reduce":
                        rule, state = engine.step(state)
                        assert rule == event.rule
                        assert engine.render(state) == event.state
                    else:
                        break

    def test_growth_guard_reports_exhaustion(self):
        # A term that squares its own size every contraction blows the
        # state-size guard long before the beta budget.
        grower = T(r"(\x.x x x)(\x.x x x)")
        outcome, _ = evaluate(grower, "krivine", 10_000)
        assert isinstance(outcome, FuelExhausted)

    def test_stuck_outcome_for_control_machine_on_lambda(self):
        outcome, _ = evaluate(T(r"\x.x"), "control-krivine", 10)
        assert isinstance(outcome, Stuck)

    def test_a_halting_stuck_state_is_rendered_capped(self):
        # control-krivine halts at once on a lambda; the state it halts in
        # holds a balanced tree of 4,095 nodes, too many to render.
        def tree(depth):
            return Var("x") if depth == 0 else App(tree(depth - 1), tree(depth - 1))

        outcome, _ = evaluate(Lam("x", tree(11)), "control-krivine", 10)
        assert outcome == Stuck("pattern-match on the empty top-level context", "<state with ~4098 nodes>")

    def test_an_untraced_run_renders_nothing(self, monkeypatch):
        calls = collections.Counter()
        for name in ("_term", "_command"):

            def counted(*args, _name=name, _printer=getattr(pretty, name)):
                calls[_name] += 1
                return _printer(*args)

            monkeypatch.setattr(pretty, name, counted)
        term = T(r"(\x.x) y")
        for name in engine_names():
            outcome, trace = evaluate(term, name, 100)
            assert isinstance(outcome, Normal) and trace is None, name
        assert calls == {}
        for name in engine_names():
            evaluate(term, name, 100, trace=True)
        assert calls["_term"] > 0 and calls["_command"] > 0

    def test_every_engine_renders_every_trace_state(self):
        probes = [T(r"\x.(\y.y) x"), T(r"(\f.f (f w)) (\u.u)"), T("q w"), T(r"\a.\b.a (b q)")]
        for name in engine_names():
            for term in probes:
                _, trace = evaluate(term, name, 60, trace=True)
                assert trace.events
                for event in trace.events:
                    assert isinstance(event.state, str) and event.state


# Every contraction adds one copy of \x.x x x, so its states only grow.
GROWER = r"(\x.x x x)(\x.x x x)"


class TestStopPrecedence:
    """When one contraction passes two guards at once, the beta budget is
    reported before the work cap, and the size cap reports as the work cap
    does, at that beta.  Both guards are set so that contraction K + 1 is
    the first to pass them."""

    K = 3

    @staticmethod
    def stopped_at(name, fuel=CORPUS_FUEL):
        outcome = evaluate(T(GROWER), name, fuel)[0]
        assert isinstance(outcome, FuelExhausted)
        return outcome

    def least_work_cap(self, monkeypatch, name):
        """The least MAX_TOTAL_WORK at which a run stops after more than K
        betas, so the work before contraction K + 1 is exactly that cap
        and the contraction passes it.  The cap is then reset."""

        def betas(cap):
            monkeypatch.setattr(engines, "MAX_TOTAL_WORK", cap)
            return self.stopped_at(name).betas

        original = engines.MAX_TOTAL_WORK
        lo, hi = 0, 1
        while betas(hi) <= self.K:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if betas(mid) > self.K:
                hi = mid
            else:
                lo = mid
        monkeypatch.setattr(engines, "MAX_TOTAL_WORK", original)
        return hi

    @pytest.mark.parametrize("name", ["krivine", "wh-bigstep"])
    def test_beta_budget_before_work_cap(self, monkeypatch, name):
        monkeypatch.setattr(engines, "MAX_TOTAL_WORK", self.least_work_cap(monkeypatch, name))
        assert self.stopped_at(name).betas == self.K + 1
        outcome = self.stopped_at(name, fuel=self.K)
        assert (outcome.reason, outcome.betas) == ("beta budget", self.K)

    @pytest.mark.parametrize("name", ["krivine", "wh-bigstep"])
    def test_size_cap_and_work_cap_report_that_beta(self, monkeypatch, name):
        cap = self.least_work_cap(monkeypatch, name)
        row = ENGINES[name]
        if row.bigstep is None:
            # Make the state after contraction K + 1 the first to pass the
            # size cap.  A big-step row has no size cap.
            state, betas = row.load(T(GROWER)), 0
            while betas <= self.K:
                rule, state = row.step(state)
                betas += rule in row.beta_rules
            monkeypatch.setattr(engines, "MAX_STATE_NODES", row.metrics(state)[0] - 1)
            outcome = self.stopped_at(name)
            assert (outcome.reason, outcome.betas) == ("work budget", self.K + 1)
        monkeypatch.setattr(engines, "MAX_TOTAL_WORK", cap)
        outcome = self.stopped_at(name)
        assert (outcome.reason, outcome.betas) == ("work budget", self.K + 1)


@pytest.fixture(scope="session")
def golden():
    """The pinned outcomes, read when a golden test first asks for them, so
    the rest of this module runs without the file."""
    return json.loads((Path(__file__).parent / "golden_outcomes.json").read_text(encoding="utf-8"))


class TestGoldenOutcomes:
    """Every engine ends each corpus run the way it did when
    tests/golden_outcomes.json was written (by tests/make_golden_outcomes.py):
    same kind, guard reason and beta count, which pins the growth guard to
    fire at the same beta; the same printed result or last state and step
    count; and the same trace, event for event, on the first corpus terms."""

    def test_engine_sets_match(self, golden):
        assert sorted(golden) == sorted(WH_ENGINE_NAMES + HEAD_ENGINE_NAMES + CONTROL_ENGINE_NAMES)
        assert sorted(golden) == sorted(engine_names())

    @pytest.mark.parametrize("name", WH_ENGINE_NAMES)
    def test_weak_head(self, golden, wh_outcomes, golden_traces, name):
        assert golden_entry(wh_outcomes[name], golden_traces[name]) == golden[name]

    @pytest.mark.parametrize("name", HEAD_ENGINE_NAMES)
    def test_head(self, golden, head_outcomes, golden_traces, name):
        assert golden_entry(head_outcomes[name], golden_traces[name]) == golden[name]

    @pytest.mark.parametrize("name", CONTROL_ENGINE_NAMES)
    def test_control(self, golden, control_outcomes, golden_traces, name):
        assert golden_entry(control_outcomes[name], golden_traces[name]) == golden[name]


class TestHeadMachineIsWeakHeadPlusOneRule:
    """Each head machine runs its weak-head machine's transitions until it
    first applies the one rule it adds (the paper's claim that head
    reduction keeps weak-head reduction's ease of implementation).
    env-head prints its states with pick/drop offsets, so for that pair
    only the rules are compared."""

    @pytest.mark.parametrize(
        "weak_head, head, extra, states",
        [
            ("krivine", "head-proj", "project", True),
            ("krivine", "head-abs", "descend", True),
            ("env-krivine", "env-head", "project", False),
            ("control-krivine", "control-proj", "split", True),
        ],
    )
    def test_reduce_events_agree_until_the_extra_rule(self, golden_traces, weak_head, head, extra, states):
        def reduce_events(trace):
            events = []
            for event in trace.events:
                if event.phase != "reduce":
                    continue
                if event.rule == extra:
                    break
                events.append((event.rule, event.state) if states else event.rule)
            return events

        for wh_trace, head_trace in zip(golden_traces[weak_head], golden_traces[head], strict=True):
            assert all(e.rule != extra for e in wh_trace.events)
            assert reduce_events(wh_trace) == reduce_events(head_trace)


def reached_states(name, term, fuel):
    """Every state an engine's step function reaches from `term`, until it
    halts, takes `fuel` betas or its state passes MAX_STATE_NODES."""
    engine = get_engine(name)
    state = engine.load(term)
    betas = 0
    yield state
    while term_metrics(state)[0] <= MAX_STATE_NODES and (nxt := engine.step(state)) is not None:
        rule, state = nxt
        yield state
        betas += rule in engine.beta_rules
        if betas >= fuel:
            return


class TestStateMeasures:
    """Every state reports the size and height of the term it plugs back
    to without a walk; plugged_measures builds that term and walks it.
    The environment and control machines' states are checked through the
    substitution-machine states their readback builds from them."""

    @pytest.mark.parametrize(
        "name, view",
        [(name, None) for name in ("krivine", "head-abs", "head-proj", "head-os-derived")]
        + [(name, envmachine.as_forced_command) for name in ("env-krivine", "env-head")]
        + [(name, control.as_projection_command) for name in CONTROL_ENGINE_NAMES],
    )
    def test_every_reached_state(self, corpus120, name, view):
        states = 0
        for term in corpus120 + [App(App(term, Var("y")), Var("x")) for term in corpus120]:
            for state in reached_states(name, term, 100):
                if view is not None:
                    state = view(state)
                assert term_metrics(state) == plugged_measures(state), (name, term)
                states += 1
        assert states > 2_000


class TestDeepTerms:
    """The machines that walk no term recursively reach a normal form on
    terms deeper than the recursion limit."""

    DEPTH = 1_100

    @pytest.mark.parametrize("name", ["wh-os", "krivine", "head-os", "head-abs"])
    def test_deep_nest_and_spine_normalize(self, name):
        nest, spine = Var("x"), Var("y")
        for _ in range(self.DEPTH):
            nest, spine = Lam("x", nest), App(spine, Var("y"))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            outcomes = [evaluate(term, name, 100)[0] for term in (nest, spine)]
        finally:
            sys.setrecursionlimit(limit)
        assert [type(o) for o in outcomes] == [Normal, Normal]
        assert [o.result for o in outcomes] == [nest, spine]

    # These rows' readback recurses on a binder nest, but a spine of
    # stacked arguments has no binder to name and is checked by a loop.
    @pytest.mark.parametrize(
        "name", ["head-proj", "head-coalesced", "head-os-derived", "head-debruijn", "env-krivine", "env-head"]
    )
    def test_deep_spine_normalizes(self, name):
        spine = Var("y")
        for _ in range(self.DEPTH):
            spine = App(spine, Var("y"))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            outcome = evaluate(spine, name, 100)[0]
        except RecursionError:
            # Fail on a short report: pytest compares the locals of the
            # failing frames, and each holds a part of the deep term.
            outcome = "RecursionError"
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(outcome, Normal) and outcome.result == spine, outcome

    # The control rows are left out: embed_term recurses on the binder nest.
    @pytest.mark.parametrize("name", [n for n in engine_names() if n not in CONTROL_ENGINE_NAMES])
    def test_omega_under_600_binders_returns_an_outcome(self, name):
        term = T(OMEGA)
        for i in reversed(range(600)):
            term = Lam(f"v{i}", term)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            outcome = evaluate(term, name, CORPUS_FUEL)[0]
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(outcome, (Normal, FuelExhausted, Stuck))


def spy_repeats(monkeypatch, module):
    """The trees that `module.same_tree` finds repeated, in call order."""
    found = []
    same_tree = module.same_tree

    def spy(a, b):
        same = same_tree(a, b)
        if same:
            found.append(a)
        return same

    monkeypatch.setattr(module, "same_tree", spy)
    return found


# The rows whose guard runs repeat exactly: every stepping row but the
# environment machines.  Their runs grow renaming chains instead, and
# tests/test_envmachine.py checks their period jump.
CYCLE_ROWS = tuple(
    n for n, e in ENGINES.items() if e.step is not None and not isinstance(e.load(Var("x")), envmachine.ECommand)
)
# Its states repeat every 3 betas, after one to three betas that do not.
PERIOD_3_TERM = r"(\x.x x) (\x.x) (\x.x x) ((\x.x) ((\x.x) (\x.x x)))"


class TestCycleJump:
    """An untraced run of a row in CYCLE_ROWS jumps whole periods once a
    state repeats after a beta; a run that steps every transition is the
    reference."""

    @pytest.fixture
    def repeats(self, monkeypatch):
        return spy_repeats(monkeypatch, fuel)

    def test_covered_rows(self):
        assert CYCLE_ROWS == (
            "wh-os", "krivine", "head-os", "head-abs", "head-proj", "head-os-derived",
            "head-coalesced", "head-debruijn", "control-krivine", "control-proj",
        )

    @pytest.mark.parametrize(
        "cls",
        [
            obj
            for module in (syntax, weakhead, headsimple, projection, control)
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, syntax.Node) and obj is not syntax.Node
            if obj.__module__ == module.__name__
        ],
    )
    def test_match_args_are_the_compared_fields(self, cls):
        # same_tree compares a node's __match_args__ and nothing else, and
        # so does Node's == (test_syntax.TestNode): no state overrides it.
        assert (cls.__eq__, cls.__hash__) == (syntax.Node.__eq__, syntax.Node.__hash__)

    def test_same_state_compares_deeper_than_the_recursion_limit(self):
        a, b, c = Var("x"), Var("x"), Var("y")
        for _ in range(5_000):
            a, b, c = Lam("x", a), Lam("x", b), Lam("x", c)
        pair = weakhead.PCommand(a, weakhead.TOP)
        assert syntax.same_tree(pair, weakhead.PCommand(b, weakhead.TOP))
        assert not syntax.same_tree(pair, weakhead.PCommand(c, weakhead.TOP))
        assert not syntax.same_tree(pair, weakhead.PCommand(a, weakhead.PStuck(1)))

    @pytest.mark.parametrize("name", CYCLE_ROWS)
    def test_untraced_matches_traced_on_guard_terms(self, corpus120, repeats, monkeypatch, name):
        guards = [corpus120[i] for i in GUARD_INDICES]
        applied = [form for t in guards for form in (t, App(t, Var("y")), App(t, Var("x")))]
        # Small budgets end before the first repeat or a few periods after it.
        for term in applied:
            for budget in range(1, 13):
                assert evaluate(term, name, budget)[0] == evaluate(term, name, budget, trace=True)[0]
        # A traced guard run at CORPUS_FUEL renders up to 10^5 states, so the
        # reference there is the untraced run with no repeat found: it
        # steps every transition, as a traced run does, minus the renders.
        jumped = []
        for term in applied:
            repeats.clear()
            jumped.append(evaluate(term, name, CORPUS_FUEL)[0])
            assert repeats, (name, term)
        monkeypatch.setattr(fuel, "same_tree", lambda a, b: False)
        assert jumped == [evaluate(term, name, CORPUS_FUEL)[0] for term in applied]

    @pytest.mark.parametrize("name", CYCLE_ROWS)
    def test_work_cap_inside_a_period(self, repeats, monkeypatch, name):
        row = ENGINES[name]
        steps = collections.Counter()

        def counted(state):
            steps["calls"] += 1
            return row.step(state)

        monkeypatch.setitem(engines.ENGINES, name, dataclasses.replace(row, step=counted))
        cut_inside = 0
        for term in (T(GUARD_TERM), T(PERIOD_3_TERM)):
            for cap in range(1, 301):
                monkeypatch.setattr(engines, "MAX_TOTAL_WORK", cap)
                repeats.clear()
                steps.clear()
                untraced = evaluate(term, name, CORPUS_FUEL)[0]
                untraced_steps = steps["calls"]
                traced, trace = evaluate(term, name, CORPUS_FUEL, trace=True)
                assert untraced == traced
                assert isinstance(untraced, FuelExhausted) and untraced.reason == "work budget"
                # A whole period was skipped, and the run stopped on a state
                # other than the one that repeats.
                skipped = untraced_steps < sum(e.phase == "reduce" for e in trace.events)
                if skipped and untraced.last_state != row.render(repeats[-1]):
                    cut_inside += 1
        assert cut_inside


# The big-step rows, whose evaluator loops let the meter skip periods.
BIGSTEP_ROWS = tuple(n for n, e in ENGINES.items() if e.bigstep is not None)


class TestBigstepCycleJump:
    """Called without a log, a big-step evaluator lets the meter skip whole
    periods of a loop whose term repeats; the same call with `log=[]`
    contracts every redex and is the reference."""

    @staticmethod
    def run(name, term, meter, log):
        try:
            result = ENGINES[name].bigstep(term, meter, log)
        except OutOfFuel as exc:
            result = exc.kind
        return result, meter.betas, meter.work

    def logged(self, name, term, meter):
        log = []
        outcome = self.run(name, term, meter, log)
        # The log holds every contraction, the one that ran out included.
        assert len(log) == meter.betas
        return outcome

    @pytest.fixture
    def repeats(self, monkeypatch):
        return spy_repeats(monkeypatch, fuel)

    def test_covered_rows(self):
        assert BIGSTEP_ROWS == ("wh-bigstep", "head-bigstep", "sestoft")

    @pytest.mark.parametrize("name", BIGSTEP_ROWS)
    def test_jumped_matches_logged_on_guard_terms(self, corpus120, repeats, name):
        guards = [corpus120[i] for i in GUARD_INDICES]
        applied = [form for t in guards for form in (t, App(t, Var("y")), App(t, Var("x")))]
        for term in applied:
            for budget in (*range(1, 13), CORPUS_FUEL):
                repeats.clear()
                jumped = self.run(name, term, FuelMeter(budget, engines.MAX_TOTAL_WORK), None)
                assert jumped == self.logged(name, term, FuelMeter(budget, engines.MAX_TOTAL_WORK))
            # The run at CORPUS_FUEL found a repeat.
            assert repeats, (name, term)

    @pytest.mark.parametrize("name", BIGSTEP_ROWS)
    def test_work_cap_inside_a_period(self, repeats, monkeypatch, name):
        measured = []

        def recorded(t):
            measured.append(t)
            return term_metrics(t)

        for module in (weakhead, headsimple):
            monkeypatch.setattr(module, "term_metrics", recorded)
        cut_inside = 0
        for term in (T(GUARD_TERM), T(PERIOD_3_TERM)):
            for cap in range(1, 301):
                repeats.clear()
                measured.clear()
                jumped = self.run(name, term, FuelMeter(CORPUS_FUEL, cap), None)
                contracted = len(measured)
                assert jumped == self.logged(name, term, FuelMeter(CORPUS_FUEL, cap))
                assert jumped[0] == "work"
                # A whole period was skipped, and the run stopped on a term
                # other than the one that repeats.
                if contracted < jumped[1] and not syntax.same_tree(measured[contracted - 1], repeats[-1]):
                    cut_inside += 1
        assert cut_inside


class TestReadbackDriver:
    """The one readback driver refuses a term that still holds a Proj or an
    Index: such a term means the run reached an illegal state."""

    # (engine, its readback step, an illegal state, the one rule applied
    # before the driver finds the leftover atom)
    ILLEGAL = (
        ("head-proj", projection.proj_readback_step, weakhead.PCommand(Proj(5), weakhead.PStuck(1)), "lambda"),
        ("head-os-derived", projection.derived_readback_step, projection.TopTerm(1, Index(5)), "name"),
    )

    @pytest.mark.parametrize("engine, step_fn, state, rule", ILLEGAL)
    def test_driver_rejects_a_leftover_atom(self, engine, step_fn, state, rule):
        events = []
        with pytest.raises(IllegalStateError):
            _machine_readback(step_fn, state, lambda *event: events.append(event), None)
        assert [r for r, _ in events] == [rule]

    @pytest.mark.parametrize(
        "engine, state",
        [
            ("head-proj", weakhead.PCommand(Proj(5), weakhead.PStuck(1))),
            ("head-coalesced", weakhead.PCommand(Proj(5), weakhead.PStuck(1))),
            ("head-os-derived", projection.TopTerm(1, Index(5))),
            ("head-debruijn", projection.TopTerm(1, Index(5))),
        ]
        + [(engine, envmachine.ECommand(Proj(5), None, weakhead.PStuck(1))) for engine in ("env-krivine", "env-head")],
    )
    def test_engine_readback_rejects_a_leftover_atom(self, engine, state):
        with pytest.raises(IllegalStateError):
            get_engine(engine).readback(state, lambda rule, s: None, None)

    def test_a_big_step_result_goes_through_the_driver(self, monkeypatch):
        illegal = dataclasses.replace(ENGINES["sestoft"], bigstep=lambda t, meter, log: Proj(0))
        monkeypatch.setitem(ENGINES, "sestoft", illegal)
        outcome, _ = evaluate(T(r"\x.x"), "sestoft", 10)
        assert outcome == Stuck("readback failed: projection or index survived readback: car(tp)", "car(tp)")

    def test_every_row_sets_exactly_one_of_step_and_bigstep(self):
        for engine in ENGINES.values():
            assert (engine.step is None) != (engine.bigstep is None), engine.name

    def test_legal_state_reads_back_and_emits_done(self):
        events = []
        state = weakhead.PCommand(Proj(0), weakhead.PStuck(1))
        result = _machine_readback(projection.proj_readback_step, state, lambda *event: events.append(event), None)
        assert result == T(r"\x.x")
        assert [(rule, print_state(s)) for rule, s in events] == [("lambda", r"<\x.x || tp>"), ("done", r"\x.x")]

    # Every row reads back at least two of these; control-krivine is stuck
    # on the closed ones.
    PROBES = (r"\x.(\y.y) x", r"x (\y.y) z", r"\f x.f (f x)", r"y ((\x.\z.x) (\w.w))")

    @pytest.mark.parametrize("name", ENGINES)
    def test_readback_events_are_the_rows_render(self, monkeypatch, name):
        row = ENGINES[name]
        passed = []

        def readback(state, emit, budget):
            def spy(rule, s):
                passed.append((rule, s))
                emit(rule, s)

            return row.readback(state, spy, budget)

        monkeypatch.setitem(ENGINES, name, dataclasses.replace(row, readback=readback))
        read = 0
        for probe in self.PROBES:
            passed.clear()
            _, trace = evaluate(T(probe), name, 100, trace=True)
            events = [(e.rule, e.state) for e in trace.events if e.phase == "readback"]
            assert events == [(rule, row.render(s)) for rule, s in passed], (name, probe)
            read += bool(events)
        assert read >= 2


class TestCoalescedRows:
    """Coalescing only changes how states print: each coalesced row is its
    base row with another name, description and render."""

    @pytest.mark.parametrize("coalesced, base", [("head-coalesced", "head-proj"), ("head-debruijn", "head-os-derived")])
    def test_a_coalesced_row_is_its_base_row_reprinted(self, coalesced, base):
        assert ENGINES[coalesced].render is not print_state
        reprinted = dataclasses.replace(
            ENGINES[coalesced], name=base, description=ENGINES[base].description, render=print_state
        )
        assert reprinted == ENGINES[base]


def nest(n, free=()):
    """Item 1's closed nest \\x0 ... x(n-1). x0 x(n-1), applied to `free`."""
    t = App(Var("x0"), Var(f"x{n - 1}"))
    for i in reversed(range(n)):
        t = Lam(f"x{i}", t)
    for name in free:
        t = App(t, Var(name))
    return t


# The rows whose untraced readback is one pass (syntax.bind_atoms).
ONE_PASS_ROWS = (
    "head-proj", "head-coalesced", "head-os-derived", "head-debruijn",
    "env-krivine", "env-head", "control-krivine", "control-proj",
)


class TestOnePassReadback:
    """Untraced, the projection machine's and the index form's readbacks
    name every binder against one name set and bind every atom in one
    walk; a traced run steps every move and is the reference, down to the
    spelling of each binder."""

    @staticmethod
    def assert_untraced_is_traced(terms, fuel):
        read = 0
        for term in terms:
            for name in ONE_PASS_ROWS:
                untraced = evaluate(term, name, fuel)[0]
                assert untraced == evaluate(term, name, fuel, trace=True)[0], (name, term)
                read += isinstance(untraced, Normal)
        return read

    def test_the_rows_read_back_in_one_pass(self):
        for name in ONE_PASS_ROWS:
            readback = ENGINES[name].readback
            if name.startswith(("env", "control")):
                assert readback in (engines._env_readback, engines._control_readback)
                readback = engines._proj_readback
            assert readback.keywords["whole"] in (projection.proj_readback, projection.derived_readback), name

    def test_corpus_applied_to_free_names(self, corpus120):
        terms = [form for t in corpus120 for form in (t, App(t, Var("y")), App(App(t, Var("y")), Var("x")))]
        assert self.assert_untraced_is_traced(terms, TRACE_FUEL) > 2_000

    def test_every_small_closed_term_applied_to_x_and_y(self):
        # Binders drawn from {x, y} meet the free x and y, so readback and
        # forcing rename to avoid capture.
        terms = [App(App(t, Var("x")), Var("y")) for size in range(1, 8) for t in closed_terms(size)]
        assert len(terms) == 1_056
        assert self.assert_untraced_is_traced(terms, 100) > 7_000

    def test_deep_binders_avoid_the_names_chosen_below_them(self):
        # Past 26 binders the canonical names repeat with a digit, so the
        # free x pushes depth 0's binder past x1, which depth 26 took.
        terms = [nest(n, free) for n in (27, 30, 60) for free in ((), ("x",), ("x", "x1"))]
        outcome = evaluate(nest(30, ("x",)), "head-proj", 100)[0]
        assert (outcome.result.binder, outcome.result.body.binder) == ("x2", "y")
        self.assert_untraced_is_traced(terms, 100)

    @pytest.mark.parametrize("name", ["head-proj", "head-os-derived"])
    def test_a_leftover_atom_is_reported_untraced(self, name):
        state = ENGINES[name].load(Var("x"))
        illegal = weakhead.PCommand(Proj(5), weakhead.PStuck(1)) if name == "head-proj" else projection.TopTerm(1, Index(5))
        with pytest.raises(IllegalStateError, match="survived readback"):
            ENGINES[name].readback(illegal, None, None)
        assert ENGINES[name].readback(state, None, None) == Var("x")

    def test_item_1_nest_reads_back_in_one_walk(self, monkeypatch):
        # Each readback move walked the whole term once, about 2.8 s a row
        # at this size; untraced, no move is taken and one walk binds all.
        def no_move(*args):
            raise AssertionError("an untraced readback took a move")

        walks = []
        bind_atoms = projection.bind_atoms
        monkeypatch.setattr(projection, "replace_atom", no_move)
        monkeypatch.setattr(projection, "bind_atoms", lambda *args: walks.append(args) or bind_atoms(*args))
        term = nest(2_000)
        for name in ONE_PASS_ROWS:
            if name == "control-krivine":  # stuck on a closed lambda
                continue
            walks.clear()
            outcome = evaluate(term, name, CORPUS_FUEL)[0]
            assert isinstance(outcome, Normal) and alpha_eq(outcome.result, term), name
            # env-krivine stops at the outer lambda, and forcing names it.
            assert [depth for _, depth, _ in walks] == [0 if name == "env-krivine" else 2_000], name


class TestCaptureRenaming:
    """The corpus is closed, so no run on it takes the renaming branch of
    subst.  Applied to the free variables y and x, which its binder names
    capture, the weak-head and head engines do rename, and each group must
    still agree."""

    def test_applied_corpus_groups_agree(self, corpus120, monkeypatch):
        renames = []

        def counting_fresh(avoid, hint="x"):
            renames.append(hint)
            return fresh(avoid, hint)

        monkeypatch.setattr(syntax, "fresh", counting_fresh)
        names = WH_ENGINE_NAMES + HEAD_ENGINE_NAMES
        assert len(names) == 13
        disagreements = []
        for term in corpus120:
            report = compare(App(App(term, Var("y")), Var("x")), names, 1000)
            if not report.all_agree:
                disagreements.append((term, report.group_agreement))
        assert disagreements == []
        assert len(renames) > 100


class TestAdversarialNaming:
    """The generated corpus never shadows binders; these terms do, and
    they also leave variables free, which stresses renaming in readback
    and forcing."""

    NAMES = ("x", "x1", "y", "k0")

    @staticmethod
    def _gen(rng, depth, names):
        from headlab.syntax import App, Lam, Var
        roll = rng.random()
        if depth <= 0 or roll < 0.28:
            return Var(rng.choice(names))
        if roll < 0.6:
            return Lam(rng.choice(names), TestAdversarialNaming._gen(rng, depth - 1, names))
        return App(
            TestAdversarialNaming._gen(rng, depth - 1, names),
            TestAdversarialNaming._gen(rng, depth - 1, names),
        )

    @pytest.mark.parametrize("close_over", [True, False])
    def test_all_engines_agree(self, close_over):
        import random
        from headlab.engines import HEAD_ENGINE_NAMES, WH_ENGINE_NAMES
        from headlab.syntax import Lam as MkLam

        rng = random.Random(77 if close_over else 78)
        for _ in range(100):
            term = self._gen(rng, rng.randrange(3, 7), self.NAMES)
            if close_over:
                for name in sorted(free_vars(term)):
                    term = MkLam(name, term)
            for group in (HEAD_ENGINE_NAMES, WH_ENGINE_NAMES):
                outcomes = [evaluate(term, e, 250)[0] for e in group]
                if all(isinstance(o, Normal) for o in outcomes):
                    first = outcomes[0].result
                    assert all(alpha_eq(first, o.result) for o in outcomes[1:]), term
                else:
                    assert all(isinstance(o, FuelExhausted) for o in outcomes), term


class TestNormalFormSoundness:
    def test_head_results_are_head_normal(self, corpus120):
        from headlab.syntax import NormalFormClass, classify
        ok = {NormalFormClass.NEUTRAL, NormalFormClass.WHNF_AND_HNF}
        for term in corpus120:
            for name in ("head-os", "head-proj", "sestoft"):
                outcome, _ = evaluate(term, name, 200)
                if isinstance(outcome, Normal):
                    assert classify(outcome.result) in ok


class TestGeneration:
    def test_minimal_size_is_lambda_headed(self):
        term = gen_term(GenConfig(max_size=1, seed=4))
        assert isinstance(term, Lam)
        assert term_metrics(term)[0] == 2

    def test_deterministic_in_seed(self):
        a = list(gen_terms(GenConfig(max_size=25, seed=99), 50))
        b = list(gen_terms(GenConfig(max_size=25, seed=99), 50))
        assert a == b
        c = list(gen_terms(GenConfig(max_size=25, seed=100), 50))
        assert a != c

    def test_closed_and_within_bound(self, corpus1000):
        for term in corpus1000:
            assert free_vars(term) == set()
            assert term_metrics(term)[0] <= 30


class TestCompare:
    def test_head_group_unanimous(self):
        report = compare(T(r"\x.(\y.y) x"), list(engine_names()), 100)
        assert report.group_agreement["head"] is True
        assert report.group_agreement["weak-head"] is True
        assert report.cross_strategy_difference is True

    def test_trivial_term_everywhere(self):
        report = compare(T("x"), ["wh-os", "krivine", "head-os", "head-proj"], 10)
        assert report.all_agree
        assert report.cross_strategy_difference is False
        for result in report.results:
            assert isinstance(result.outcome, Normal)
            assert result.outcome.result == T("x")

    def test_divergent_term_agrees_by_exhaustion(self):
        report = compare(T(OMEGA), ["wh-os", "krivine", "head-os", "head-abs"], 60)
        assert report.all_agree
        for result in report.results:
            assert isinstance(result.outcome, FuelExhausted)

    def test_a_normalizing_group_agrees_on_betas(self):
        # Results equal up to alpha are not enough: an engine that counts a
        # non-beta transition as a beta disagrees with its group.
        x, y = T(r"\x.x"), T(r"\y.y")
        assert _group_agrees([Normal(x, 4, 2), Normal(y, 9, 2), Normal(x, 2, 2)])
        assert not _group_agrees([Normal(x, 4, 2), Normal(y, 4, 3)])
        assert not _group_agrees([Normal(x, 4, 2), Normal(x, 4, 2), Normal(x, 5, 1)])
        assert not _group_agrees([Normal(x, 4, 2), Normal(T("x"), 4, 2)])
        # Runs that stop without a normal form still agree on any betas.
        assert _group_agrees([FuelExhausted("x", 5), FuelExhausted("y", 7, "work budget")])
        assert not _group_agrees([Normal(x, 4, 2), FuelExhausted("x", 2)])


def pairwise_verdicts(report):
    """The group verdicts and the cross-strategy difference of a report,
    recomputed with pairwise alpha_eq."""
    verdicts = {}
    for strategy in ("weak-head", "head"):
        outcomes = [r.outcome for r in report.results if r.strategy == strategy]
        if all(isinstance(o, Normal) for o in outcomes):
            verdicts[strategy] = all(
                o.betas == outcomes[0].betas and alpha_eq(outcomes[0].result, o.result) for o in outcomes[1:]
            )
        else:
            verdicts[strategy] = all(isinstance(o, FuelExhausted) for o in outcomes)
    firsts = [
        next((r.outcome.result for r in report.results if r.strategy == s and isinstance(r.outcome, Normal)), None)
        for s in ("weak-head", "head")
    ]
    cross = None not in firsts and not alpha_eq(*firsts)
    return verdicts, cross


class TestAlphaKeys:
    """`compare` checks a group by one alpha-key per result; pairwise
    alpha_eq is the reference."""

    def test_keys_give_the_pairwise_verdicts(self, corpus120):
        crosses = 0
        for term in corpus120:
            for form in (term, App(term, Var("y"))):
                report = compare(form, engine_names(), TRACE_FUEL)
                assert (report.group_agreement, report.cross_strategy_difference) == pairwise_verdicts(report), form
                crosses += report.cross_strategy_difference
        assert crosses > 0

    def test_free_names_tell_results_apart(self):
        assert not _group_agrees([Normal(T("x y"), 1, 0), Normal(T("x z"), 1, 0)])
        assert not _group_agrees([Normal(T(r"\a.a y"), 1, 0), Normal(T(r"\a.a z"), 1, 0)])
        assert _group_agrees([Normal(T(r"\a.a y"), 1, 0), Normal(T(r"\b.b y"), 1, 0)])

    def test_each_result_is_walked_once_per_check(self, monkeypatch):
        walked = []
        nameless, alpha_eq = engines._nameless, engines.alpha_eq
        monkeypatch.setattr(engines, "_nameless", lambda t, env: walked.append(t) or nameless(t, env))
        monkeypatch.setattr(engines, "alpha_eq", lambda a, b: walked.extend((a, b)) or alpha_eq(a, b))
        report = compare(T(r"\x.(\y.y) x"), engine_names(), 100)
        normals = [r for r in report.results if isinstance(r.outcome, Normal) and r.strategy != "control"]
        # One walk per result for its group, and two for the cross check.
        assert len(normals) == 13 and len(walked) == 15


class TestControlLoadCache:
    """The control rows load through a one-entry cache keyed by the term
    object; a miss must load afresh, so every outcome is the one a freshly
    parsed term gets."""

    SOURCES = (r"x (\y.y) z", r"(\f x.f (f x)) (\y.y) w", r"y ((\x.\z.x) (\w.w))")

    def uncached(self, monkeypatch):
        """The outcome of each control row on each source, loaded with no
        cache."""
        with monkeypatch.context() as patch:
            for name in CONTROL_ENGINE_NAMES:
                load = lambda t: control.control_load(control.embed_term(t))  # noqa: E731
                patch.setitem(ENGINES, name, dataclasses.replace(ENGINES[name], load=load))
            return {
                (name, i): evaluate(T(src), name, 100)[0]
                for name in CONTROL_ENGINE_NAMES
                for i, src in enumerate(self.SOURCES)
            }

    def test_an_equal_term_object_loads_afresh(self):
        first, second = T(self.SOURCES[0]), T(self.SOURCES[0])
        assert engines._control_load(first) is engines._control_load(first)
        assert engines._control_load(second) == engines._control_load(first)
        assert engines._control_load(second) is not engines._control_load(first)

    def test_another_term_in_between(self, monkeypatch):
        wanted = self.uncached(monkeypatch)
        terms = [T(src) for src in self.SOURCES]
        for name in CONTROL_ENGINE_NAMES:
            for i, term in enumerate(terms):
                evaluate(terms[i - 1], "control-krivine", 100)
                assert evaluate(term, name, 100)[0] == wanted[name, i], (name, i)
                assert evaluate(T(self.SOURCES[i]), name, 100)[0] == wanted[name, i], (name, i)

    def test_threads_alternating_terms(self, monkeypatch):
        import threading

        wanted = self.uncached(monkeypatch)
        terms = [T(src) for src in self.SOURCES]
        wrong = []

        def work(order):
            for _ in range(60):
                for i in order:
                    for name in CONTROL_ENGINE_NAMES:
                        if evaluate(terms[i], name, 100)[0] != wanted[name, i]:
                            wrong.append((name, i))

        orders = ((0, 1, 2), (2, 1, 0), (1, 2, 0), (0, 2, 1))  # more threads than cores
        threads = [threading.Thread(target=work, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the cache's reads and writes
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def run_cli(args, stdin=None, monkeypatch=None, capsys=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestCli:
    def test_eval_result_on_stdout(self, tmp_path, capsys):
        src = tmp_path / "t.lam"
        src.write_text(r"\x.(\y.y) x")
        code = main(["eval", "--engine", "head-os", str(src)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.strip() == r"\x.x"

    def test_eval_stdin(self, monkeypatch, capsys):
        code, out, _ = run_cli(["eval", "--engine", "krivine", "-"],
                               stdin=r"(\x.x) z", monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert out.strip() == "z"

    def test_eval_stdin_nest_deeper_than_the_recursion_limit(self, monkeypatch, capsys):
        # The parser takes any depth; krivine reaches a lambda nest's normal
        # form in one halt, and the printer loops over a binder prefix.
        depth = 20_000
        code, out, _ = run_cli(["eval", "--engine", "krivine", "-"],
                               stdin="\\x." * depth + "x", monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert out.strip() == "\\" + " ".join(["x"] * depth) + ".x"

    def test_eval_trace_text(self, tmp_path, capsys):
        src = tmp_path / "t.lam"
        src.write_text(r"\x.(\y.y) x")
        code = main(["eval", "--engine", "head-proj", "--trace", str(src)])
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == r"load load <\x.(\y.y) x || tp>"
        assert lines[-1] == r"\x.x"

    def test_eval_trace_json(self, tmp_path, capsys):
        src = tmp_path / "t.lam"
        src.write_text(r"(\x.x) y")
        code = main(["eval", "--engine", "krivine", "--trace", "--format", "json", str(src)])
        out, _ = capsys.readouterr()
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        *events, summary = records
        assert all(set(e) == {"step", "rule", "state", "phase"} for e in events)
        assert [e["phase"] for e in events][0] == "load"
        assert summary["outcome"] == "Normal"
        assert summary["result"] == "y"

    @pytest.mark.parametrize(
        "source, expected",
        [
            (
                r"x ((\y.y) z)",
                [
                    r"load load <x (case[(y . k0).<y || k0>] z) || tp>",
                    r"reduce push <x || (case[(y . k0).<y || k0>] z) . tp>",
                    r"readback pop <x ((\y.y) z) || tp>",
                    r"readback done x ((\y.y) z)",
                    r"x ((\y.y) z)",
                ],
            ),
            (
                r"x (\y.y) z",
                [
                    r"load load <x case[(y . k0).<y || k0>] z || tp>",
                    r"reduce push <x case[(y . k0).<y || k0>] || z . tp>",
                    r"reduce push <x || case[(y . k0).<y || k0>] . z . tp>",
                    r"readback pop <x (\y.y) || z . tp>",
                    r"readback pop <x (\y.y) z || tp>",
                    r"readback done x (\y.y) z",
                    r"x (\y.y) z",
                ],
            ),
        ],
    )
    def test_eval_trace_control_krivine_readback(self, source, expected, tmp_path, capsys):
        # A neutral weak-head normal form: control-krivine halts on the
        # variable and reads its stacked arguments back on.
        src = tmp_path / "t.lam"
        src.write_text(source)
        code = main(["eval", "--engine", "control-krivine", "--trace", str(src)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.splitlines() == expected

    def test_eval_fuel_exhausted_exit_code(self, tmp_path, capsys):
        src = tmp_path / "omega.lam"
        src.write_text(OMEGA)
        code = main(["eval", "--engine", "krivine", "--fuel", "30", str(src)])
        _, err = capsys.readouterr()
        assert code == 2
        assert err == "fuel exhausted after 30 betas (beta budget)\n"

    def test_bigstep_rows_at_the_default_fuel(self, monkeypatch, capsys):
        # Ω's contractum has 9 nodes, so the 500,000 work cap stops every
        # big-step row at beta 55,556, before the 100,000-beta budget.
        omega = r"(\x.x x) (\x.x x)"
        code, _, err = run_cli(["eval", "--engine", "sestoft", "-"], omega, monkeypatch, capsys)
        assert code == 2
        assert err == "fuel exhausted after 55556 betas (work budget)\n"
        report = compare(T(omega), BIGSTEP_ROWS)
        assert [r.outcome for r in report.results] == [FuelExhausted("<abandoned>", 55_556, "work budget")] * 3

    def test_eval_stuck_exit_code(self, tmp_path, capsys):
        src = tmp_path / "id.lam"
        src.write_text(r"\x.x")
        code = main(["eval", "--engine", "control-krivine", str(src)])
        _, err = capsys.readouterr()
        assert code == 3
        assert err == "stuck: pattern-match on the empty top-level context\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "bad.lam"
        src.write_text("((")
        code = main(["eval", "--engine", "krivine", str(src)])
        _, err = capsys.readouterr()
        assert code == 1
        assert "parse error" in err

    @pytest.mark.parametrize("command", [["eval", "--engine", "krivine"], ["compare"]])
    def test_invalid_utf8_exit_code(self, command, tmp_path, capsys):
        src = tmp_path / "bad.lam"
        src.write_bytes(b"\xff")
        code = main([*command, str(src)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_unknown_engine_exit_code(self, tmp_path, capsys):
        src = tmp_path / "x.lam"
        src.write_text("x")
        code = main(["eval", "--engine", "nope", str(src)])
        assert code == 1

    @pytest.mark.parametrize("command", [["eval", "--engine", "krivine"], ["compare"]])
    def test_nonpositive_fuel_exit_code(self, command, tmp_path, capsys):
        src = tmp_path / "x.lam"
        src.write_text("x")
        code = main([*command, "--fuel", "0", str(src)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "error: fuel must be positive, not 0\n"

    @pytest.mark.parametrize("command", [["eval", "--engine", "krivine"], ["compare"]])
    def test_malformed_fuel_env_exit_code(self, command, monkeypatch, capsys):
        monkeypatch.setenv("HEADLAB_FUEL", "abc")
        code, out, err = run_cli([*command, "-"], stdin="x", monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1
        assert out == ""
        assert err == "error: HEADLAB_FUEL must be an integer, not 'abc'\n"

    def test_classify(self, tmp_path, capsys):
        src = tmp_path / "t.lam"
        src.write_text(r"\x.(\z.z) x")
        assert main(["classify", str(src)]) == 0
        out, _ = capsys.readouterr()
        assert out.strip() == "Whnf"

    def test_classify_values(self, tmp_path, capsys):
        cases = {
            r"x y": "Neutral",
            r"(\x.x) y": "Reducible",
            r"\x.x y": "WhnfAndHnf",
        }
        for src_text, expected in cases.items():
            src = tmp_path / "c.lam"
            src.write_text(src_text)
            main(["classify", str(src)])
            out, _ = capsys.readouterr()
            assert out.strip() == expected

    def test_gen_deterministic(self, capsys):
        assert main(["gen", "--size", "12", "--seed", "5", "--count", "4"]) == 0
        first, _ = capsys.readouterr()
        main(["gen", "--size", "12", "--seed", "5", "--count", "4"])
        second, _ = capsys.readouterr()
        assert first == second
        assert len(first.strip().splitlines()) == 4
        for line in first.strip().splitlines():
            assert free_vars(parse_term(line)) == set()

    @pytest.mark.parametrize("flags, message", [
        (["--size", "0"], "error: --size must be at least 1, not 0\n"),
        (["--size", "-3"], "error: --size must be at least 1, not -3\n"),
        (["--size", "12", "--count", "-2"], "error: --count must not be negative, not -2\n"),
    ])
    def test_gen_rejects_bad_size_and_count(self, flags, message, capsys):
        code = main(["gen", "--seed", "5", *flags])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == message

    def test_gen_accepts_smallest_size_and_zero_count(self, capsys):
        assert main(["gen", "--size", "1", "--seed", "5"]) == 0
        out, _ = capsys.readouterr()
        assert len(out.splitlines()) == 1
        assert free_vars(parse_term(out)) == set()
        assert main(["gen", "--size", "12", "--seed", "5", "--count", "0"]) == 0
        out, err = capsys.readouterr()
        assert out == err == ""

    def test_engines_lists_all(self, capsys):
        assert main(["engines"]) == 0
        out, _ = capsys.readouterr()
        for name in engine_names():
            assert name in out

    def test_compare_agreement(self, tmp_path, capsys):
        src = tmp_path / "t.lam"
        src.write_text(r"\x.(\y.y) x")
        code = main(["compare", "--engines", "all", "--fuel", "200", str(src)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "weak-head group: agree" in out
        assert "head group: agree" in out
        assert "note:" in out

    def test_compare_exhaustion_exit(self, tmp_path, capsys):
        src = tmp_path / "omega.lam"
        src.write_text(OMEGA)
        code = main(["compare", "--engines", "wh-os,krivine", "--fuel", "40", str(src)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "engines, message",
        [("nope", "unknown engine 'nope'"), ("krivine,krivine", "engine 'krivine' is listed twice")],
    )
    def test_compare_rejects_a_bad_engine_list(self, tmp_path, capsys, engines, message):
        src = tmp_path / "t.lam"
        src.write_text("x")
        code = main(["compare", "--engines", engines, str(src)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_compare_subset_selection(self, tmp_path, capsys):
        src = tmp_path / "t.lam"
        src.write_text("x")
        code = main(["compare", "--engines", "all-wh", "--fuel", "10", str(src)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "krivine" in out and "head-os" not in out


@pytest.mark.parametrize(
    "module",
    sorted(m.name for m in pkgutil.iter_modules(headlab.__path__) if m.name != "__main__"),
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"headlab.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
