"""Weak-head artifacts: small-step, Krivine machine, big-step, and the
equivalences between them."""

import dataclasses
import random

import pytest

from headlab.fuel import FuelMeter, OutOfFuel
from headlab.parse import parse_term
from headlab.syntax import (
    App,
    Lam,
    NormalFormClass,
    Var,
    alpha_eq,
    classify,
)
from headlab.weakhead import (
    TOP,
    PCommand,
    PPush,
    PStuck,
    bigstep_wh,
    decompose_wh,
    krivine_load,
    krivine_readback_step,
    krivine_step,
    krivine_terminal,
    plug,
    step_wh_os,
)
from helpers import peel, read_back


def T(src):
    return parse_term(src)


def all_splits(t):
    """Oracle: every (context, subterm) pair with plug(context, subterm) == t,
    walking only down the function spine."""
    yield (), t
    if isinstance(t, App):
        for ctx, sub in all_splits(t.fun):
            yield (t.arg,) + ctx, sub


class TestDecompose:
    def test_neutral_is_not_reducible(self):
        assert decompose_wh(T(r"x ((\x.x) y)")) is NormalFormClass.NEUTRAL

    def test_empty_context(self):
        ctx, redex = decompose_wh(T(r"(\x.x) y"))
        assert ctx == ()
        assert redex == T(r"(\x.x) y")

    def test_context_around_redex(self):
        term = T(r"((\y.y)(\z.z)) w")
        ctx, redex = decompose_wh(term)
        assert plug(ctx, redex) == term
        # Oracle: among all spine splits, exactly one exposes a redex.
        redexes = [
            (c, s) for c, s in all_splits(term)
            if isinstance(s, App) and isinstance(s.fun, Lam)
        ]
        assert redexes == [(ctx, redex)]

    def test_decomposition_unique_on_corpus(self, corpus120):
        for term in corpus120:
            outcome = decompose_wh(term)
            redexes = [
                (c, s) for c, s in all_splits(term)
                if isinstance(s, App) and isinstance(s.fun, Lam)
            ]
            if isinstance(outcome, NormalFormClass):
                assert redexes == []
            else:
                assert len(redexes) == 1
                assert redexes[0] == outcome
                assert plug(*outcome) == term


class TestSmallStep:
    def test_single_beta(self):
        assert step_wh_os(T(r"(\x.x) y")) == Var("y")

    def test_omega_steps_to_itself(self):
        omega = T(r"(\y.y y)(\y.y y)")
        assert alpha_eq(step_wh_os(omega), omega)

    def test_whnf_has_no_step(self):
        assert step_wh_os(T(r"\x.((\y.y y)(\y.y y)) x")) is None

    def test_reducible_classification_matches_step(self, corpus300):
        for term in corpus300:
            has_step = step_wh_os(term) is not None
            assert has_step == (classify(term) is NormalFormClass.REDUCIBLE)


class TestKrivine:
    def test_load(self):
        assert krivine_load(Var("x")) == PCommand(Var("x"), TOP)

    def test_push_rule(self):
        rule, nxt = krivine_step(krivine_load(T(r"(\x.x) y")))
        assert rule == "push"
        assert nxt == PCommand(Lam("x", Var("x")), PPush(Var("y"), TOP))

    def test_beta_rule(self):
        rule, nxt = krivine_step(PCommand(Lam("x", Var("x")), PPush(Var("y"), TOP)))
        assert rule == "beta"
        assert nxt == PCommand(Var("y"), TOP)

    def test_terminal_states(self):
        lam_on_top = PCommand(Lam("x", Var("x")), TOP)
        assert krivine_step(lam_on_top) is None
        assert krivine_terminal(lam_on_top)
        var_on_stack = PCommand(Var("x"), PPush(Var("y"), TOP))
        assert krivine_step(var_on_stack) is None
        assert krivine_terminal(var_on_stack)

    def test_at_most_one_rule_applies(self):
        # Enumerate small states and check rule selection is a function of
        # the state shape: App always pushes, Lam+push always contracts,
        # everything else halts.
        terms = [Var("x"), T(r"\x.x"), T("x y"), T(r"(\x.x) z")]
        stacks = [TOP, PPush(Var("z"), TOP), PPush(T(r"\w.w"), PPush(Var("q"), TOP))]
        for term in terms:
            for stack in stacks:
                state = PCommand(term, stack)
                applicable = []
                if isinstance(term, App):
                    applicable.append("push")
                if isinstance(term, Lam) and isinstance(stack, PPush):
                    applicable.append("beta")
                assert len(applicable) <= 1
                stepped = krivine_step(state)
                assert (stepped[0] if stepped else None) == (applicable[0] if applicable else None)

    def test_readback_examples(self):
        assert read_back(krivine_readback_step, PCommand(Lam("x", Var("x")), TOP)) == T(r"\x.x")
        assert read_back(krivine_readback_step, PCommand(Var("x"), PPush(Var("y"), TOP))) == T("x y")
        deep = PCommand(Var("x"), PPush(Var("y"), PPush(Var("z"), TOP)))
        assert read_back(krivine_readback_step, deep) == T("x y z")

    def test_readback_inverts_decomposition(self, corpus120):
        # Running any command's readback must equal plugging its stack
        # around its term.
        rng = random.Random(2)
        for term in corpus120:
            state = krivine_load(term)
            for _ in range(rng.randrange(6)):
                nxt = krivine_step(state)
                if nxt is None:
                    break
                state = nxt[1]
            args = []
            stack = state.coterm
            while isinstance(stack, PPush):
                args.append(stack.arg)
                stack = stack.rest
            assert read_back(krivine_readback_step, state) == plug(tuple(reversed(args)), state.term)


def run_krivine(term, max_betas):
    state = krivine_load(term)
    betas = 0
    while True:
        nxt = krivine_step(state)
        if nxt is None:
            return read_back(krivine_readback_step, state), betas
        rule, state = nxt
        if rule == "beta":
            betas += 1
            if betas > max_betas:
                return None, betas


def run_smallstep(term, max_betas):
    betas = 0
    while True:
        nxt = step_wh_os(term)
        if nxt is None:
            return term, betas
        term = nxt
        betas += 1
        if betas > max_betas:
            return None, betas


class TestStateValues:
    """The measures a call stack caches take no part in its value."""

    def test_repr_eq_hash_and_match_args(self):
        stack = PPush(Var("y"), PPush(T(r"\w.w"), TOP))
        # The same stack reached by two pushes of the machine.
        _, pushed = krivine_step(PCommand(T("x y"), PPush(T(r"\w.w"), PStuck(0))))
        state = PCommand(Var("x"), stack)
        assert pushed == state and hash(pushed) == hash(state)
        assert pushed.coterm is not stack and pushed.coterm.rest is not stack.rest
        assert repr(stack) == (
            "PPush(arg=Var(name='y'), rest=PPush(arg=Lam(binder='w', body=Var(name='w')), "
            "rest=PStuck(depth=0)))"
        )
        assert repr(state) == f"PCommand(term=Var(name='x'), coterm={stack!r})"
        assert (PPush.__match_args__, PCommand.__match_args__) == (("arg", "rest"), ("term", "coterm"))
        assert [f.name for f in dataclasses.fields(PPush) if f.compare] == ["arg", "rest"]
        assert hash(stack) == hash((Var("y"), stack.rest))
        assert hash(state) == hash((Var("x"), stack))
        assert state != PCommand(Var("x"), PPush(Var("y"), TOP))

    def test_frozen(self):
        state = PCommand(Var("x"), PPush(Var("y"), TOP))
        for node, name in (
            (state, "term"), (state, "coterm"),
            (state.coterm, "arg"), (state.coterm, "rest"), (state.coterm, "size"),
            (state.coterm, "frames"), (state.coterm, "height"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)


class TestBigStep:
    def test_variable(self):
        assert bigstep_wh(Var("x"), FuelMeter(10)) == Var("x")

    def test_one_beta(self):
        assert bigstep_wh(T(r"(\x.x)(\y.y)"), FuelMeter(10)) == T(r"\y.y")

    def test_neutral_argument_left_alone(self):
        term = T(r"x ((\x.x) y)")
        result = bigstep_wh(term, FuelMeter(10))
        assert result == term
        # Cross-check against the small-step closure.
        assert run_smallstep(term, 10)[0] == term

    def test_fuel_exhaustion(self):
        with pytest.raises(OutOfFuel):
            bigstep_wh(T(r"(\y.y y)(\y.y y)"), FuelMeter(25))


class TestEquivalences:
    def test_machine_agrees_with_smallstep(self, corpus300):
        for term in corpus300:
            os_result, _ = run_smallstep(term, 300)
            machine_result, _ = run_krivine(term, 300)
            if os_result is None or machine_result is None:
                assert os_result is None and machine_result is None
            else:
                assert alpha_eq(os_result, machine_result)

    def test_machine_agrees_with_bigstep(self, corpus300):
        for term in corpus300:
            machine_result, _ = run_krivine(term, 300)
            try:
                big_result = bigstep_wh(term, FuelMeter(300))
            except OutOfFuel:
                big_result = None
            if machine_result is None or big_result is None:
                assert machine_result is None and big_result is None
            else:
                assert alpha_eq(machine_result, big_result)

    def test_beta_counts_match(self, corpus120):
        for term in corpus120:
            os_result, os_betas = run_smallstep(term, 200)
            machine_result, machine_betas = run_krivine(term, 200)
            assert os_betas == machine_betas
            meter = FuelMeter(200)
            try:
                bigstep_wh(term, meter)
                big_betas = meter.betas
            except OutOfFuel:
                big_betas = None
            if os_result is not None:
                assert big_betas == os_betas

    def test_fuel_monotonicity(self, corpus120):
        rng = random.Random(9)
        for term in corpus120:
            result_small, betas = run_smallstep(term, 150)
            if result_small is None:
                continue
            larger = 150 + rng.randrange(1, 200)
            result_large, _ = run_smallstep(term, larger)
            assert alpha_eq(result_small, result_large)

    def test_open_terms_agree_too(self, corpus120):
        rng = random.Random(13)
        for closed in corpus120:
            term, _ = peel(closed, rng)
            a, _ = run_smallstep(term, 150)
            b, _ = run_krivine(term, 150)
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert alpha_eq(a, b)
