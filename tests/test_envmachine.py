"""Environment machines: rule instances, forcing, persistence, and
agreement with their substitution-based twins."""

import dataclasses

import pytest

from headlab import engines, envmachine, fuel
from headlab.envmachine import (
    Binding,
    Closure,
    ECommand,
    EPush,
    ForceBudgetExceeded,
    env_head_halt,
    env_head_step,
    env_krivine_halt,
    env_krivine_load,
    env_krivine_step,
    env_lookups,
    force,
)
from headlab.engines import FuelExhausted, evaluate, Normal
from headlab.parse import parse_term
from headlab.syntax import App, Lam, Proj, Var, alpha_eq, nodes
from headlab.weakhead import PStuck
from conftest import CORPUS_FUEL
from helpers import GUARD_INDICES, GUARD_TERM, TRACE_FUEL, closed_terms, force_per_binder


def T(src):
    return parse_term(src)


def run(step_fn, state, limit=5000):
    rules = []
    for _ in range(limit):
        nxt = step_fn(state)
        if nxt is None:
            return state, rules
        rule, state = nxt
        rules.append(rule)
    raise AssertionError("machine did not halt")


class TestKrivineRules:
    def test_push_captures_environment(self):
        state = env_krivine_load(T(r"(\x.x) y"))
        rule, nxt = env_krivine_step(state)
        assert rule == "push"
        assert nxt == ECommand(T(r"\x.x"), None, EPush(Closure(Var("y"), None), PStuck(0)))

    def test_bind_extends_environment(self):
        state = ECommand(T(r"\x.x"), None, EPush(Closure(Var("y"), None), PStuck(0)))
        rule, nxt = env_krivine_step(state)
        assert rule == "bind"
        assert nxt == ECommand(Var("x"), Binding("x", Closure(Var("y"), None), None), PStuck(0))

    def test_lookup_jumps_to_closure(self):
        bound = Binding("x", Closure(T(r"\z.z"), None), None)
        state = ECommand(Var("x"), bound, PStuck(0))
        rule, nxt = env_krivine_step(state)
        assert rule == "lookup"
        assert nxt == ECommand(T(r"\z.z"), None, PStuck(0))
        # Terminal lambda on the empty stack; forcing recovers the term the
        # substitution machine would have produced for (\x.x)(\z.z).
        assert env_krivine_halt(nxt) == ("normal", "")
        assert force(Closure(nxt.term, nxt.env)) == T(r"\z.z")

    def test_unbound_variable_signals_open_program(self):
        state = ECommand(Var("q"), None, PStuck(0))
        assert env_krivine_step(state) is None
        kind, reason = env_krivine_halt(state)
        assert kind == "open" and "q" in reason
        # The harness still recovers the neutral term, like the
        # substitution machine's readback does for open programs.
        outcome, _ = evaluate(T("q w"), "env-krivine", 10)
        assert isinstance(outcome, Normal)
        assert outcome.result == T("q w")


class TestHeadRules:
    def test_projection_binding(self):
        state = env_krivine_load(T(r"\x.(\y.y) x"))
        rule, nxt = env_head_step(state)
        assert rule == "project"
        assert nxt == ECommand(
            T(r"(\y.y) x"),
            Binding("x", Closure(Proj(0), None), None),
            PStuck(1),
        )

    def test_full_run_forces_to_identity(self):
        outcome, _ = evaluate(T(r"\x.(\y.y) x"), "env-head", 100)
        assert isinstance(outcome, Normal)
        assert alpha_eq(outcome.result, T(r"\x.x"))

    def test_projection_head_is_terminal(self):
        sigma = Binding("x", Closure(Var("y"), None), None)
        state = ECommand(Proj(0), sigma, PStuck(1))
        assert env_head_step(state) is None
        assert env_head_halt(state) == ("normal", "")


class TestForce:
    def test_lookup(self):
        env = Binding("x", Closure(Var("y"), None), None)
        assert force(Closure(Var("x"), env)) == Var("y")

    def test_identity_closure(self):
        assert force(Closure(T(r"\x.x"), None)) == T(r"\x.x")

    def test_application_of_bindings(self):
        env = Binding("x", Closure(T(r"\y.y"), None), Binding("z", Closure(Var("w"), None), None))
        assert force(Closure(T("x z"), env)) == T(r"(\y.y) w")

    def test_binder_shadows_environment(self):
        env = Binding("x", Closure(Var("y"), None), None)
        assert force(Closure(T(r"\x.x x"), env)) == T(r"\x.x x")

    def test_capture_avoided_when_binding_mentions_binder_name(self):
        # z is bound to the free variable x outside; forcing under \x must
        # rename the binder, not capture.
        env = Binding("z", Closure(Var("x"), None), None)
        forced = force(Closure(T(r"\x.x z"), env))
        assert isinstance(forced, Lam)
        assert forced.binder != "x"
        assert forced == Lam(forced.binder, App(Var(forced.binder), Var("x")))


def nodes_charged(force_fn, closure):
    """The least budget under which `force_fn` forces `closure`."""
    lo, hi = 0, 1
    while True:
        try:
            force_fn(closure, hi)
            break
        except ForceBudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:  # force_fn raises at lo and succeeds at hi
        mid = (lo + hi) // 2
        try:
            force_fn(closure, mid)
            hi = mid
        except ForceBudgetExceeded:
            lo = mid
    return hi


class TestForceOracle:
    """`force` names each binder from name sets built bottom-up and renames
    the markers in one final walk; the earlier form, which walked the
    forced body at every binder, is the oracle for its terms and budget."""

    @staticmethod
    def check(monkeypatch, terms):
        forced = []

        def checked(closure, max_nodes=None):
            expected = force_per_binder(closure)
            assert force(closure) == expected
            forced.append(closure)
            return force(closure, max_nodes)

        monkeypatch.setattr(envmachine, "force", checked)
        for term in terms:
            for name in ENV_ENGINES:
                evaluate(term, name, 100)
        monkeypatch.undo()
        # The budget counts what it counted: the same least budget, on
        # the closures with the most binders.
        forced.sort(key=lambda c: -sum(type(n) is Lam for n in nodes(c.term)))
        for closure in forced[:200]:
            assert nodes_charged(force, closure) == nodes_charged(force_per_binder, closure)
        return forced

    def test_corpus_applied_to_free_names(self, corpus120, monkeypatch):
        terms = [form for t in corpus120 for form in (t, App(t, Var("y")), App(App(t, Var("y")), Var("x")))]
        assert len(self.check(monkeypatch, terms)) > 500

    def test_every_small_closed_term_applied_to_x_and_y(self, monkeypatch):
        terms = [App(App(t, Var("x")), Var("y")) for size in range(1, 8) for t in closed_terms(size)]
        assert len(self.check(monkeypatch, terms)) > 2_000

    def test_binders_that_capture(self):
        # Each binder meets a forced name it would capture, and inner binders
        # take names the outer ones must then avoid.
        env = Binding("a", Closure(T("x x1 y"), None), Binding("b", Closure(T(r"\x.x"), None), None))
        for src in (r"\x.a x", r"\x.\x1.a x x1", r"\x y.b (\x.a x y)", r"\y.\y.a y", r"\x.x (\x.x a)"):
            closure = Closure(T(src), env)
            assert force(closure) == force_per_binder(closure), src
            assert nodes_charged(force, closure) == nodes_charged(force_per_binder, closure), src


def renaming_chain(links):
    """An environment binding x0 to a closure of x1, x1 to one of x2, and so
    on: forcing x0 takes `links` lookups and ends on the unbound x<links>."""
    env = None
    for i in reversed(range(links)):
        env = Binding(f"x{i}", Closure(Var(f"x{i + 1}"), env), env)
    return env


class TestForceChains:
    def test_forces_a_chain_longer_than_the_recursion_limit(self):
        # 40,000 links against the 30,000 frames of tests/conftest.py: one
        # frame per link would raise RecursionError.
        env = renaming_chain(40_000)
        assert force(Closure(Var("x0"), env)) == Var("x40000")
        assert force(Closure(Var("x1"), env), max_nodes=40_000) == Var("x40000")

    def test_budget_counts_every_link(self):
        env = renaming_chain(40_000)
        force(Closure(Var("x0"), env))  # every link's chain memo is filled
        with pytest.raises(ForceBudgetExceeded):
            force(Closure(Var("x0"), env), max_nodes=10)
        # One node per variable on the path: x0 .. x40000.
        assert force(Closure(Var("x0"), env), max_nodes=40_001) == Var("x40000")
        with pytest.raises(ForceBudgetExceeded):
            force(Closure(Var("x0"), env), max_nodes=40_000)


ENV_ENGINES = ("env-krivine", "env-head")


def stepped_lookups(state, step_fn):
    """The states after each of the lookups `step_fn` makes from `state`."""
    states = []
    while (nxt := step_fn(state)) is not None and nxt[0] == "lookup":
        state = nxt[1]
        states.append(state)
    return states


class TestChainJump:
    """An untraced run takes each lookup chain in one jump; a traced run
    steps every lookup and is the reference."""

    @pytest.mark.parametrize("name", ENV_ENGINES)
    def test_untraced_matches_traced_on_corpus(self, corpus120, name):
        guards = {corpus120[i] for i in GUARD_INDICES}
        for term in corpus120:
            for applied in (term, App(term, Var("y")), App(term, Var("x"))):
                # A traced guard run renders all of its 500k states, so
                # the guard terms get the traced check at TRACE_FUEL here
                # and the full-fuel check against the stepping row below.
                budget = TRACE_FUEL if term in guards else CORPUS_FUEL
                assert evaluate(applied, name, budget)[0] == evaluate(applied, name, budget, trace=True)[0]

    @pytest.mark.parametrize("name", ENV_ENGINES)
    def test_guard_terms_match_the_stepping_row(self, corpus120, monkeypatch, name):
        # With a chain jump that takes no lookup, the untraced loop steps
        # every lookup, as a traced run does, minus the renders.  The meter
        # checks every period it would skip with `same_tree`, an exact
        # repeat as well as a grown renaming chain (TestPeriodJump); the
        # patched comparison passes none, so the reference steps every
        # period too.
        jumped = [evaluate(corpus120[i], name, CORPUS_FUEL)[0] for i in GUARD_INDICES]
        monkeypatch.setattr(envmachine, "env_lookups", lambda state, limit: (0, state))
        monkeypatch.setattr(fuel, "same_tree", lambda a, b: False)
        stepped = [evaluate(corpus120[i], name, CORPUS_FUEL)[0] for i in GUARD_INDICES]
        assert jumped == stepped
        assert all(isinstance(o, FuelExhausted) and o.reason == "work budget" for o in stepped)

    @pytest.mark.parametrize("name", ENV_ENGINES)
    def test_work_cap_inside_a_chain(self, monkeypatch, name):
        jumps = []

        def spy(state, limit):
            n, state = env_lookups(state, limit)
            jumps.append((n, limit, state))
            return n, state

        monkeypatch.setattr(envmachine, "env_lookups", spy)
        term, cut_inside = T(GUARD_TERM), None
        for cap in range(1, 401):
            monkeypatch.setattr(engines, "MAX_TOTAL_WORK", cap)
            jumps.clear()
            untraced = evaluate(term, name, CORPUS_FUEL)[0]
            assert untraced == evaluate(term, name, CORPUS_FUEL, trace=True)[0]
            assert isinstance(untraced, FuelExhausted) and untraced.reason == "work budget"
            n, limit, last = jumps[-1]
            if n == limit and env_lookups(last, 1)[0]:
                cut_inside = cap
        # Some caps do fall inside a chain: the jump stopped on a bound variable.
        assert cut_inside

    def test_only_untraced_env_runs_jump(self, monkeypatch):
        calls = []

        def spy(state, limit):
            calls.append(limit)
            return env_lookups(state, limit)

        monkeypatch.setattr(envmachine, "env_lookups", spy)
        for name in engines.ENGINES:
            for trace in (False, True):
                calls.clear()
                evaluate(T(GUARD_TERM), name, 20, trace=trace)
                assert bool(calls) == (name in ENV_ENGINES and not trace), (name, trace)

    @pytest.mark.parametrize("step_fn", [env_krivine_step, env_head_step])
    def test_env_lookups_equals_single_lookups(self, corpus120, step_fn):
        for term in [T(GUARD_TERM)] + [corpus120[i] for i in GUARD_INDICES]:
            state, chains = env_krivine_load(term), 0
            for _ in range(3_000):
                run = stepped_lookups(state, step_fn)
                if run:
                    chains += 1
                    for k in range(1, len(run) + 1):
                        assert env_lookups(state, k) == (k, run[k - 1])
                    assert env_lookups(state, len(run) + 5) == (len(run), run[-1])
                    # From inside the chain, now with every memo filled.
                    for j, mid in enumerate(run):
                        assert env_lookups(mid, 10**6) == (len(run) - 1 - j, run[-1])
                else:
                    assert env_lookups(state, 5) == (0, state)
                nxt = step_fn(state)
                if nxt is None:
                    break
                state = nxt[1]
            assert chains

    def test_chain_ending_on_an_unbound_variable(self):
        env = Binding("x", Closure(Var("y"), Binding("y", Closure(Var("z"), None), None)), None)
        state = ECommand(Var("x"), env, PStuck(0))
        end = ECommand(Var("z"), None, PStuck(0))
        assert env_lookups(state, 10) == (2, end)
        assert env_lookups(state, 1) == (1, ECommand(Var("y"), env.value.env, PStuck(0)))
        assert env_krivine_step(end) is None and env_lookups(end, 10) == (0, end)


def jumps_seen(monkeypatch):
    """The (betas before, betas after) of every jump the fuel meter makes."""
    seen = []
    jump = fuel.FuelMeter._jump

    def spy(meter, *args):
        before = meter.betas
        result = jump(meter, *args)
        seen.append((before, meter.betas))
        return result

    monkeypatch.setattr(fuel.FuelMeter, "_jump", spy)
    return seen


def skipped(seen) -> bool:
    return any(after > before for before, after in seen)


def no_period_jump(monkeypatch):
    """Switch off every period jump: the meter checks each with `same_tree`
    first.  The chain jump stays, so a reference run costs about its betas
    (TestChainJump checks the chain jump against single lookups)."""
    monkeypatch.setattr(fuel, "same_tree", lambda a, b: False)


# A guard-hitting corpus term whose env runs grow in a shape the period
# template does not cover, so they step to the work cap.
UNCOVERED = 482


class TestPeriodJump:
    """An untraced env run whose periods only add links to renaming chains
    skips whole periods once it has checked the template on two of them;
    the same run with the period jump switched off is the reference."""

    @staticmethod
    def guard_forms(corpus120):
        guards = [corpus120[i] for i in GUARD_INDICES]
        return [form for t in guards for form in (t, App(t, Var("y")), App(t, Var("x")))]

    @pytest.mark.parametrize("name", ENV_ENGINES)
    def test_guard_terms_match_the_stepping_run(self, corpus120, monkeypatch, name):
        runs = [(t, budget) for t in self.guard_forms(corpus120) for budget in (*range(1, 13), CORPUS_FUEL)]
        jumped = [evaluate(t, name, budget)[0] for t, budget in runs]
        no_period_jump(monkeypatch)
        assert jumped == [evaluate(t, name, budget)[0] for t, budget in runs]

    def test_every_corpus_guard_run_jumps(self, corpus120, monkeypatch):
        seen = jumps_seen(monkeypatch)
        for name in ENV_ENGINES:
            for i in GUARD_INDICES:
                seen.clear()
                outcome = evaluate(corpus120[i], name, CORPUS_FUEL)[0]
                assert isinstance(outcome, FuelExhausted) and outcome.reason == "work budget"
                assert skipped(seen), (name, i)

    @pytest.mark.parametrize("name", ENV_ENGINES)
    def test_work_cap_sweep(self, corpus120, monkeypatch, name):
        # GUARD_TERM's period is one beta, corpus term 81's two.
        terms = (T(GUARD_TERM), corpus120[81])
        caps = (*range(1, 400), *range(400, 20_000, 97))
        seen = jumps_seen(monkeypatch)
        jumped, inside = [], 0
        for term in terms:
            for cap in caps:
                monkeypatch.setattr(engines, "MAX_TOTAL_WORK", cap)
                seen.clear()
                outcome = evaluate(term, name, CORPUS_FUEL)[0]
                assert isinstance(outcome, FuelExhausted) and outcome.reason == "work budget"
                jumped.append(outcome)
                # The run stepped on past the end of its skip, so the cap
                # fell inside a later period.
                if skipped(seen) and outcome.betas > seen[-1][1]:
                    inside += 1
        assert inside
        no_period_jump(monkeypatch)
        stepped = []
        for term in terms:
            for cap in caps:
                monkeypatch.setattr(engines, "MAX_TOTAL_WORK", cap)
                stepped.append(evaluate(term, name, CORPUS_FUEL)[0])
        assert jumped == stepped

    @pytest.mark.parametrize("name", ENV_ENGINES)
    def test_a_run_the_template_does_not_cover(self, corpus1000, monkeypatch, name):
        seen = jumps_seen(monkeypatch)
        jumped = evaluate(corpus1000[UNCOVERED], name, CORPUS_FUEL)[0]
        assert isinstance(jumped, FuelExhausted) and jumped.reason == "work budget"
        assert not skipped(seen)
        no_period_jump(monkeypatch)
        assert jumped == evaluate(corpus1000[UNCOVERED], name, CORPUS_FUEL)[0]


def closures(state) -> dict:
    """Every closure reachable from `state`, by id, each visited once."""
    seen, todo = {}, [state]
    while todo:
        node = todo.pop()
        if node is None or id(node) in seen or not hasattr(type(node), "__match_args__"):
            continue
        seen[id(node)] = node
        todo += [getattr(node, f) for f in type(node).__match_args__]
    return {i: n for i, n in seen.items() if type(n) is Closure}


def twin(c: Closure, copies: dict) -> Closure:
    """A copy of `c` and of every closure its environment holds, with no
    chain memo filled."""
    if id(c) not in copies:
        env, bindings = c.env, []
        while env is not None:
            bindings.append(env)
            env = env.rest
        for b in reversed(bindings):
            env = Binding(b.name, twin(b.value, copies), env)
        copies[id(c)] = Closure(c.term, env)
    return copies[id(c)]


class TestStackedChainMemo:
    """A period jump stacks renaming links on a closure; each link's chain
    memo is filled as it is built, so the first lookup after the jump does
    not walk the links again."""

    @staticmethod
    def jumped():
        """An Ω state after a bind, and that state grown by 1,000 periods."""
        state, binds = env_krivine_load(T(OMEGA)), []
        while len(binds) < 4:
            rule, state = env_krivine_step(state)
            if rule == "bind":
                binds.append(state)
        stack, _ = envmachine.period_template(binds[2], binds[3], 10**6)
        return binds[3], stack(binds[3], 1_000)

    def test_every_stacked_link_has_its_chain(self):
        before, grown = self.jumped()
        old = closures(before)
        links = [c for i, c in closures(grown).items() if i not in old and c._chain is not None]
        assert len(links) >= 1_000
        for link in links:
            hops, end = envmachine._chain_of(twin(link, {}))
            assert link._chain[0] == hops and link._chain[1] == end

    def test_the_first_lookup_after_a_jump_takes_one_step(self, monkeypatch):
        _, grown = self.jumped()
        calls = []
        lookup = envmachine.env_lookup
        monkeypatch.setattr(envmachine, "env_lookup", lambda env, name: calls.append(name) or lookup(env, name))
        while not isinstance(grown.term, Var):
            grown = env_krivine_step(grown)[1]
        calls.clear()
        hops, _ = env_lookups(grown, 10**6)
        assert hops > 1_000 and len(calls) == 1


# Ω grows one renaming link per beta under both env rows.
OMEGA = r"(\x.x x) (\x.x x)"


def omega_work(n: int) -> int:
    """The work both env rows have charged on Ω at its n-th beta.  The first
    beta costs a push, a bind and the state's one node; the n-th a push,
    n - 1 lookups down the chain, a bind and the node."""
    return 3 + (n - 1) * n // 2 + 3 * (n - 1)


def omega_stop(cap: int) -> int:
    """The beta at which the work cap `cap` stops both env rows on Ω.  After
    the last beta N whose work fits, the next period's push and N lookups
    take N + 1 more: if they fit, its bind is beta N + 1 and passes the cap."""
    n = 1
    while omega_work(n + 1) <= cap:
        n += 1
    return n + 1 if omega_work(n) + n + 1 <= cap else n


class TestOmegaFamily:
    """Ω's work per beta grows by one each beta, so where a work cap or a
    beta budget stops it has a closed form, which pins the arithmetic of
    the period jump (ROADMAP item 16)."""

    def test_the_default_cap_stops_omega_at_beta_997(self):
        assert omega_stop(500_000) == 997

    @pytest.mark.parametrize("name", ENV_ENGINES)
    def test_work_cap_and_fuel_stop_at_the_predicted_beta(self, monkeypatch, name):
        term = T(OMEGA)
        for cap in (*range(3, 2_001), 500_000):
            monkeypatch.setattr(engines, "MAX_TOTAL_WORK", cap)
            stop = omega_stop(cap)
            outcome = evaluate(term, name, CORPUS_FUEL)[0]
            assert isinstance(outcome, FuelExhausted)
            assert (outcome.betas, outcome.reason) == (stop, "work budget"), cap
            # A beta budget below the stop beta ends the run first.
            for budget in {1, stop // 2, stop - 1} & set(range(1, stop)):
                outcome = evaluate(term, name, budget)[0]
                assert (outcome.betas, outcome.reason) == (budget, "beta budget")

    @pytest.mark.parametrize("name", ENV_ENGINES)
    def test_the_jump_fires_under_a_large_cap(self, monkeypatch, name):
        seen = jumps_seen(monkeypatch)
        outcome = evaluate(T(OMEGA), name, CORPUS_FUEL)[0]
        assert (outcome.betas, outcome.reason) == (997, "work budget")
        assert skipped(seen)


class TestPersistence:
    def test_extension_never_mutates_shared_tails(self):
        base = Binding("x", Closure(Var("a"), None), None)
        one = Binding("y", Closure(Var("b"), None), base)
        two = Binding("y", Closure(Var("c"), None), base)
        stale = Closure(Var("y"), one)
        assert force(Closure(Var("y"), two)) == Var("c")
        assert force(stale) == Var("b")
        assert force(Closure(Var("x"), one)) == Var("a")


class TestStateValues:
    """The Node constructors of the state classes build the same values
    the dataclasses they replaced did."""

    @staticmethod
    def _build():
        env = Binding("x", Closure(Var("y"), None), None)
        return ECommand(App(Var("x"), Var("z")), env, EPush(Closure(Proj(0), env), PStuck(1)))

    def test_repr_eq_hash_and_match_args(self):
        state = self._build()
        assert repr(state) == (
            "ECommand(term=App(fun=Var(name='x'), arg=Var(name='z')), "
            "env=Binding(name='x', value=Closure(term=Var(name='y'), env=None), rest=None), "
            "coterm=EPush(arg=Closure(term=Proj(depth=0), env=Binding(name='x', "
            "value=Closure(term=Var(name='y'), env=None), rest=None)), rest=PStuck(depth=1)))"
        )
        assert [cls.__match_args__ for cls in (Closure, Binding, EPush, ECommand)] == [
            ("term", "env"), ("name", "value", "rest"), ("arg", "rest"), ("term", "env", "coterm"),
        ]
        other = self._build()
        assert state == other and hash(state) == hash(other)
        assert hash(state) == hash((state.term, state.env, state.coterm))
        assert hash(state.env) == hash(("x", state.env.value, None))
        assert hash(state.coterm) == hash((state.coterm.arg, PStuck(1)))
        assert hash(state.coterm.arg) == hash((Proj(0), state.env))
        assert state != ECommand(state.term, None, state.coterm)

    def test_frozen(self):
        state = self._build()
        for node, name in (
            (state, "term"), (state, "env"), (state.env, "name"), (state.env, "rest"),
            (state.env.value, "term"), (state.coterm, "arg"), (state.coterm, "rest"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)

    def test_chain_memo_is_invisible(self):
        env = renaming_chain(3)
        filled, fresh = Closure(Var("x0"), env), Closure(Var("x0"), env)
        env_lookups(ECommand(Var("y"), Binding("y", filled, None), PStuck(0)), 10)
        assert filled._chain == (3, env.rest.rest.value) and fresh._chain is None
        assert filled == fresh and hash(filled) == hash(fresh) == hash((Var("x0"), env))
        assert repr(filled) == repr(fresh) == f"Closure(term=Var(name='x0'), env={env!r})"
        assert Closure.__match_args__ == ("term", "env")
        assert [name for name in Closure.__slots__ if name not in Closure.__match_args__] == ["_chain"]
        for name in ("term", "env", "_chain"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(filled, name, None)


class TestAgainstSubstitutionTwins:
    def test_krivine_twin(self, corpus300):
        env_out = [evaluate(t, "env-krivine", 400)[0] for t in corpus300]
        for term, mine in zip(corpus300, env_out):
            twin, _ = evaluate(term, "krivine", 400)
            if isinstance(mine, Normal) and isinstance(twin, Normal):
                assert alpha_eq(mine.result, twin.result)
            else:
                assert type(mine).__name__ == type(twin).__name__

    def test_head_twin(self, corpus300):
        for term in corpus300:
            mine, _ = evaluate(term, "env-head", 400)
            twin, _ = evaluate(term, "head-coalesced", 400)
            if isinstance(mine, Normal) and isinstance(twin, Normal):
                assert alpha_eq(mine.result, twin.result)
            else:
                assert type(mine).__name__ == type(twin).__name__

    def test_push_and_beta_counts_match_twins(self, corpus120):
        from headlab.projection import proj_step
        from headlab.weakhead import krivine_load, krivine_step

        for term in corpus120:
            try:
                env_state, env_rules = run(env_krivine_step, env_krivine_load(term))
                sub_state, sub_rules = run(krivine_step, krivine_load(term))
            except AssertionError:
                continue
            assert env_rules.count("push") == sub_rules.count("push")
            assert env_rules.count("bind") == sub_rules.count("beta")

            try:
                env_state, env_rules = run(env_head_step, env_krivine_load(term))
                sub_state, sub_rules = run(proj_step, krivine_load(term))
            except AssertionError:
                continue
            assert env_rules.count("push") == sub_rules.count("push")
            assert env_rules.count("bind") == sub_rules.count("beta")
            assert env_rules.count("project") == sub_rules.count("project")
