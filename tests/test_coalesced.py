"""Coalesced projection machine, lockstep with the chain-style machine,
and the counted-prefix small-step semantics."""

from headlab.coalesced import (
    DTopTerm,
    QCommand,
    as_projection_command,
    coalesced_load,
    coalesced_readback_step,
    coalesced_step,
    coalesced_terminal,
    debruijn_load,
    debruijn_readback_step,
    debruijn_step,
    is_legal_dtop,
)
from headlab.headsimple import step_head_os
from headlab.parse import parse_term
from headlab.projection import (
    PPush,
    PStuck,
    proj_load,
    proj_readback_step,
    proj_step,
)
from headlab.syntax import App, Index, Lam, Proj, Var, alpha_eq
from helpers import read_back


def T(src):
    return parse_term(src)


class TestCoalescedMachine:
    def test_worked_example_trace(self):
        state = coalesced_load(T(r"\x.(\y.y) x"))
        rule1, s1 = coalesced_step(state)
        assert (rule1, s1) == ("project", QCommand(App(Lam("y", Var("y")), Proj(0)), PStuck(1)))
        rule2, s2 = coalesced_step(s1)
        assert rule2 == "push"
        rule3, s3 = coalesced_step(s2)
        assert (rule3, s3) == ("beta", QCommand(Proj(0), PStuck(1)))
        assert coalesced_terminal(s3)
        assert read_back(coalesced_readback_step, s3) == T(r"\x.x")

    def test_plain_beta_identical_to_krivine(self):
        state = QCommand(T(r"\x.x"), PPush(Var("y"), PStuck(0)))
        rule, nxt = coalesced_step(state)
        assert (rule, nxt) == ("beta", QCommand(Var("y"), PStuck(0)))

    def test_readback_offsets(self):
        assert read_back(coalesced_readback_step, QCommand(Var("x"), PStuck(0))) == Var("x")
        # Offset 0 is the first binder projected away, the outermost one;
        # the oracle is the machine's own run on the expected head normal
        # form, which terminates exactly at the state being read back.
        expected = T(r"\a.\b.a")
        assert step_head_os(expected) is None
        state = coalesced_load(expected)
        while True:
            nxt = coalesced_step(state)
            if nxt is None:
                break
            state = nxt[1]
        assert state == QCommand(Proj(0), PStuck(2))
        assert alpha_eq(read_back(coalesced_readback_step, QCommand(Proj(0), PStuck(2))), expected)
        assert alpha_eq(read_back(coalesced_readback_step, QCommand(Proj(1), PStuck(2))), T(r"\a.\b.b"))


class TestLockstepWithChainMachine:
    def test_rule_for_rule_and_state_for_state(self, corpus300):
        # Interpreting offsets as projection chains, the two machines make
        # the same transitions with the same labels the whole way down,
        # and their readbacks move together as well.
        for term in corpus300:
            q = coalesced_load(term)
            p = proj_load(term)
            for _ in range(250):
                assert as_projection_command(q) == p
                q_next = coalesced_step(q)
                p_next = proj_step(p)
                if q_next is None or p_next is None:
                    assert (q_next is None) and (p_next is None)
                    break
                assert q_next[0] == p_next[0]
                q, p = q_next[1], p_next[1]
            else:
                continue
            while True:
                q_rule, q_out = coalesced_readback_step(q)
                p_rule, p_out = proj_readback_step(p)
                assert q_rule == p_rule
                if q_rule == "done":
                    assert q_out == p_out
                    break
                q, p = q_out, p_out
                assert as_projection_command(q) == p


class TestCountedPrefixSemantics:
    def test_absorb_then_beta(self):
        t0 = debruijn_load(T(r"\x.(\y.y) x"))
        rule1, t1 = debruijn_step(t0)
        assert (rule1, t1) == ("absorb", DTopTerm(1, App(Lam("y", Var("y")), Index(0))))
        rule2, t2 = debruijn_step(t1)
        assert (rule2, t2) == ("beta", DTopTerm(1, Index(0)))
        assert debruijn_step(t2) is None

    def test_readbacks(self):
        assert read_back(debruijn_readback_step, DTopTerm(1, Index(0))) == T(r"\x.x")
        assert read_back(debruijn_readback_step, DTopTerm(0, T("v w"))) == T("v w")
        # Index 1 names the binder absorbed second (the inner one); the
        # stated round trip pins the convention.
        assert alpha_eq(read_back(debruijn_readback_step, DTopTerm(2, App(Index(1), Index(0)))), T(r"\a.\b.b a"))

    def test_roundtrip_through_absorption(self):
        t = debruijn_load(T(r"\a.\b.a b"))
        while isinstance(t.body, Lam):
            rule, t = debruijn_step(t)
            assert rule == "absorb"
        assert t == DTopTerm(2, App(Index(0), Index(1)))
        assert alpha_eq(read_back(debruijn_readback_step, t), T(r"\a.\b.a b"))

    def test_legality(self):
        assert is_legal_dtop(DTopTerm(1, Index(0)))
        assert not is_legal_dtop(DTopTerm(0, Index(0)))

    def test_agrees_with_plain_head_reduction(self, corpus300):
        for term in corpus300:
            current = term
            for _ in range(200):
                nxt = step_head_os(current)
                if nxt is None:
                    break
                current = nxt
            else:
                continue
            top = debruijn_load(term)
            betas = 0
            while betas <= 220:
                nxt = debruijn_step(top)
                if nxt is None:
                    break
                rule, top = nxt
                if rule == "beta":
                    betas += 1
            assert is_legal_dtop(top)
            assert alpha_eq(read_back(debruijn_readback_step, top), current)
