"""Environment machines: rule instances, forcing, persistence, and
agreement with their substitution-based twins."""

import dataclasses

import pytest

from headlab import engines, fuel
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
from headlab.syntax import App, Lam, Proj, Var, alpha_eq
from headlab.weakhead import PStuck
from conftest import CORPUS_FUEL
from helpers import GUARD_INDICES, GUARD_TERM, TRACE_FUEL


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
        # Without `chain` the untraced loop steps every lookup, as a traced
        # run does, minus the renders.  A row without `chain` also watches
        # for a repeated state; the patched comparison finds none, which
        # spares the reference a comparison through the environment at
        # every beta (ECommand measures every state as (1, 1)).
        jumped = [evaluate(corpus120[i], name, CORPUS_FUEL)[0] for i in GUARD_INDICES]
        monkeypatch.setitem(engines.ENGINES, name, dataclasses.replace(engines.ENGINES[name], chain=None))
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

        monkeypatch.setitem(engines.ENGINES, name, dataclasses.replace(engines.ENGINES[name], chain=spy))
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
