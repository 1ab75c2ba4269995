"""Plain head reduction: small-step, the binder-frame machine, and the two
big-step evaluators with their beta-order agreement."""

from headlab import engines
from headlab.fuel import FuelMeter, OutOfFuel
from headlab.headsimple import (
    HStuck,
    abs_load,
    abs_machine_step,
    abs_readback_step,
    abs_terminal,
    bigstep_h,
    bigstep_sestoft,
    decompose_head,
    step_head_os,
)
from headlab.parse import parse_term
from headlab.weakhead import PCommand, PPush
from headlab.syntax import (
    App,
    Lam,
    NormalFormClass,
    Var,
    alpha_eq,
    classify,
)
from headlab.weakhead import step_wh_os
from helpers import read_back


def T(src):
    return parse_term(src)


def head_redex_positions(t):
    """Oracle: all paths of shape binder*, then function edges, landing on a
    lambda applied to an argument.  The head redex is the unique such spot."""
    found = []

    def through_binders(t, path):
        if isinstance(t, Lam):
            through_binders(t.body, path + ("lam",))
        else:
            through_spine(t, path)

    def through_spine(t, path):
        if isinstance(t, App):
            if isinstance(t.fun, Lam):
                found.append((path, t))
            through_spine(t.fun, path + ("fun",))

    through_binders(t, ())
    return found


class TestSmallStep:
    def test_worked_example(self):
        assert step_head_os(T(r"\x.(\y.y) x")) == T(r"\x.x")

    def test_redex_under_binder_with_spine(self):
        got = step_head_os(T(r"\w.(\x.x) y z"))
        assert got == T(r"\w.y z")

    def test_inner_argument_redex_is_not_head(self):
        assert step_head_os(T(r"\x.x (\y.(\z.z) w)")) is None

    def test_agrees_with_bruteforce_decomposition(self, corpus300):
        for term in corpus300:
            spots = head_redex_positions(term)
            stepped = step_head_os(term)
            if stepped is None:
                assert spots == []
            else:
                assert len(spots) == 1
                # Rebuild by contracting at the found spot and compare.
                path, redex = spots[0]
                lam = redex.fun
                from headlab.syntax import subst
                replacement = subst(lam.body, lam.binder, redex.arg)

                def rebuild(t, path):
                    if not path:
                        assert t is redex
                        return replacement
                    if path[0] == "lam":
                        return Lam(t.binder, rebuild(t.body, path[1:]))
                    return App(rebuild(t.fun, path[1:]), t.arg)

                assert stepped == rebuild(term, path)

    def test_decompose_head_rebuilds(self, corpus120):
        for term in corpus120:
            assert decompose_head(term).rebuild() == term

    def test_step_exists_iff_not_hnf(self, corpus300):
        hnf_classes = {NormalFormClass.NEUTRAL, NormalFormClass.WHNF_AND_HNF}
        for term in corpus300:
            has_step = step_head_os(term) is not None
            assert has_step == (classify(term) not in hnf_classes)
            # Weak-head reducibility singles out exactly the Reducible class.
            assert (step_wh_os(term) is not None) == (
                classify(term) is NormalFormClass.REDUCIBLE
            )


class TestAbsMachine:
    def test_descend_rule(self):
        rule, nxt = abs_machine_step(abs_load(T(r"\x.(\y.y) x")))
        assert (rule, nxt) == ("descend", PCommand(T(r"(\y.y) x"), HStuck(("x",))))

    def test_push_rule(self):
        rule, nxt = abs_machine_step(PCommand(T(r"(\y.y) x"), HStuck(("x",))))
        assert (rule, nxt) == ("push", PCommand(T(r"\y.y"), PPush(Var("x"), HStuck(("x",)))))

    def test_beta_then_full_run_matches_smallstep(self):
        rule, nxt = abs_machine_step(PCommand(T(r"\y.y"), PPush(Var("x"), HStuck(("x",)))))
        assert (rule, nxt) == ("beta", PCommand(Var("x"), HStuck(("x",))))
        assert abs_terminal(nxt)
        assert read_back(abs_readback_step, nxt) == T(r"\x.x")
        assert step_head_os(T(r"\x.(\y.y) x")) == T(r"\x.x")

    def test_readback_examples(self):
        assert read_back(abs_readback_step, PCommand(Var("x"), HStuck(("x",)))) == T(r"\x.x")
        state = PCommand(Var("x"), PPush(Var("y"), HStuck(("x",))))
        assert read_back(abs_readback_step, state) == T(r"\x.x y")
        assert step_head_os(T(r"\x.x y")) is None
        assert read_back(abs_readback_step, PCommand(T("v w"), HStuck(()))) == T("v w")

    def test_shadowed_binders_survive(self):
        # Descending under two binders with the same name must read back
        # to an alpha-equal term.
        term = T(r"\x.\x.x")
        state = abs_load(term)
        while True:
            nxt = abs_machine_step(state)
            if nxt is None:
                break
            state = nxt[1]
        assert alpha_eq(read_back(abs_readback_step, state), term)

    def test_agrees_with_smallstep_closure(self, corpus300):
        for term in corpus300:
            current = term
            for _ in range(200):
                nxt = step_head_os(current)
                if nxt is None:
                    break
                current = nxt
            else:
                continue
            state = abs_load(term)
            for _ in range(4000):
                stepped = abs_machine_step(state)
                if stepped is None:
                    break
                state = stepped[1]
            else:
                continue
            assert alpha_eq(read_back(abs_readback_step, state), current)


class TestBigStep:
    def test_worked_example(self):
        assert bigstep_h(T(r"\x.(\y.y) x"), FuelMeter(10, engines.MAX_TOTAL_WORK)) == T(r"\x.x")

    def test_variable(self):
        assert bigstep_h(Var("x"), FuelMeter(10, engines.MAX_TOTAL_WORK)) == Var("x")

    def test_nested_descents(self):
        got = bigstep_h(T(r"\a.\b.(\c.c) b"), FuelMeter(10, engines.MAX_TOTAL_WORK))
        assert got == T(r"\a.\b.b")

    def test_sestoft_variable(self):
        assert bigstep_sestoft(Var("x"), FuelMeter(10, engines.MAX_TOTAL_WORK)) == Var("x")

    def test_sestoft_worked_example(self):
        assert bigstep_sestoft(T(r"\x.(\y.y) x"), FuelMeter(10, engines.MAX_TOTAL_WORK)) == T(r"\x.x")

    def test_sestoft_beta_then_descend(self):
        got = bigstep_sestoft(T(r"(\x.x)(\y.(\z.z) y)"), FuelMeter(10, engines.MAX_TOTAL_WORK))
        assert got == T(r"\y.y")

    def test_results_are_head_normal(self, corpus120):
        hnf_classes = {NormalFormClass.NEUTRAL, NormalFormClass.WHNF_AND_HNF}
        for term in corpus120:
            try:
                result = bigstep_h(term, FuelMeter(300, engines.MAX_TOTAL_WORK))
            except OutOfFuel:
                continue
            assert classify(result) in hnf_classes


class TestHeadBigstepAgreement:
    def test_both_agree_or_both_exhaust(self, corpus300):
        for term in corpus300:
            try:
                a = bigstep_h(term, FuelMeter(250, engines.MAX_TOTAL_WORK))
            except OutOfFuel:
                a = None
            try:
                b = bigstep_sestoft(term, FuelMeter(250, engines.MAX_TOTAL_WORK))
            except OutOfFuel:
                b = None
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert alpha_eq(a, b)

    def test_identical_beta_logs(self, corpus300):
        for term in corpus300:
            log_a, log_b = [], []
            try:
                bigstep_h(term, FuelMeter(250, engines.MAX_TOTAL_WORK), log_a)
                ok_a = True
            except OutOfFuel:
                ok_a = False
            try:
                bigstep_sestoft(term, FuelMeter(250, engines.MAX_TOTAL_WORK), log_b)
                ok_b = True
            except OutOfFuel:
                ok_b = False
            if ok_a and ok_b:
                assert log_a == log_b
            else:
                # Both ran out after the same contractions.
                assert log_a[:250] == log_b[:250]

    def test_beta_log_matches_smallstep_redexes(self, corpus120):
        # The logged redex sequence is exactly the head redexes the
        # small-step relation contracts, in order.
        for term in corpus120:
            log = []
            try:
                bigstep_h(term, FuelMeter(200, engines.MAX_TOTAL_WORK), log)
            except OutOfFuel:
                continue
            current = term
            for logged in log:
                decomp = decompose_head(current)
                assert decomp.focus == logged
                nxt = step_head_os(current)
                assert nxt is not None
                current = nxt
            assert step_head_os(current) is None
