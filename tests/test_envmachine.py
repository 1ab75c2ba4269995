"""Environment machines: rule instances, forcing, persistence, and
agreement with their substitution-based twins."""

import dataclasses

import pytest

from headlab.envmachine import (
    Binding,
    Closure,
    ECommand,
    EPush,
    EStuck,
    env_head_halt,
    env_head_step,
    env_krivine_halt,
    env_krivine_load,
    env_krivine_step,
    force,
)
from headlab.engines import evaluate, Normal
from headlab.parse import parse_term
from headlab.syntax import App, Lam, Proj, Var, alpha_eq


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
        assert nxt == ECommand(T(r"\x.x"), None, EPush(Closure(Var("y"), None), EStuck(0)))

    def test_bind_extends_environment(self):
        state = ECommand(T(r"\x.x"), None, EPush(Closure(Var("y"), None), EStuck(0)))
        rule, nxt = env_krivine_step(state)
        assert rule == "bind"
        assert nxt == ECommand(Var("x"), Binding("x", Closure(Var("y"), None), None), EStuck(0))

    def test_lookup_jumps_to_closure(self):
        bound = Binding("x", Closure(T(r"\z.z"), None), None)
        state = ECommand(Var("x"), bound, EStuck(0))
        rule, nxt = env_krivine_step(state)
        assert rule == "lookup"
        assert nxt == ECommand(T(r"\z.z"), None, EStuck(0))
        # Terminal lambda on the empty stack; forcing recovers the term the
        # substitution machine would have produced for (\x.x)(\z.z).
        assert env_krivine_halt(nxt) == ("normal", "")
        assert force(Closure(nxt.term, nxt.env)) == T(r"\z.z")

    def test_unbound_variable_signals_open_program(self):
        state = ECommand(Var("q"), None, EStuck(0))
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
            EStuck(1),
        )

    def test_full_run_forces_to_identity(self):
        outcome, _ = evaluate(T(r"\x.(\y.y) x"), "env-head", 100)
        assert isinstance(outcome, Normal)
        assert alpha_eq(outcome.result, T(r"\x.x"))

    def test_projection_head_is_terminal(self):
        sigma = Binding("x", Closure(Var("y"), None), None)
        state = ECommand(Proj(0), sigma, EStuck(1))
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
    """The hand-written constructors of the state classes build the same
    values the generated ones did."""

    @staticmethod
    def _build():
        env = Binding("x", Closure(Var("y"), None), None)
        return ECommand(App(Var("x"), Var("z")), env, EPush(Closure(Proj(0), env), EStuck(1)))

    def test_repr_eq_hash_and_match_args(self):
        state = self._build()
        assert repr(state) == (
            "ECommand(term=App(fun=Var(name='x'), arg=Var(name='z')), "
            "env=Binding(name='x', value=Closure(term=Var(name='y'), env=None), rest=None), "
            "coterm=EPush(arg=Closure(term=Proj(depth=0), env=Binding(name='x', "
            "value=Closure(term=Var(name='y'), env=None), rest=None)), rest=EStuck(depth=1)))"
        )
        assert [cls.__match_args__ for cls in (Closure, Binding, EPush, ECommand)] == [
            ("term", "env"), ("name", "value", "rest"), ("arg", "rest"), ("term", "env", "coterm"),
        ]
        other = self._build()
        assert state == other and hash(state) == hash(other)
        assert hash(state) == hash((state.term, state.env, state.coterm))
        assert hash(state.env) == hash(("x", state.env.value, None))
        assert hash(state.coterm) == hash((state.coterm.arg, EStuck(1)))
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
