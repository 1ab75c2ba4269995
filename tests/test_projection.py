"""Projection machine, index-form small-step semantics, and the star/hash
translations between the index form and plain head reduction."""

import random

from headlab.headsimple import step_head_os
from headlab.parse import parse_term
from headlab.projection import (
    PCommand,
    PPush,
    PStuck,
    TopTerm,
    derived_readback_step,
    derived_step,
    is_legal_proj,
    is_legal_top,
    proj_load,
    proj_readback_step,
    proj_step,
    proj_terminal,
    translate_hash,
    translate_star,
)
from headlab.syntax import App, Index, Lam, Proj, Var, alpha_eq, replace_atom
from helpers import gen_top_term, read_back


def T(src):
    return parse_term(src)


class TestMachineTrace:
    def test_worked_example_states_and_rules(self):
        # \x.(\y.y) x runs through three reductions and two readback moves
        # down to \x.x.
        state = proj_load(T(r"\x.(\y.y) x"))
        rule1, s1 = proj_step(state)
        assert (rule1, s1) == ("project", PCommand(App(Lam("y", Var("y")), Proj(0)), PStuck(1)))
        rule2, s2 = proj_step(s1)
        assert (rule2, s2) == ("push", PCommand(Lam("y", Var("y")), PPush(Proj(0), PStuck(1))))
        rule3, s3 = proj_step(s2)
        assert (rule3, s3) == ("beta", PCommand(Proj(0), PStuck(1)))
        assert proj_terminal(s3)
        rb1, s4 = proj_readback_step(s3)
        assert (rb1, s4) == ("lambda", PCommand(Lam("x", Var("x")), PStuck(0)))
        rb2, final = proj_readback_step(s4)
        assert (rb2, final) == ("done", Lam("x", Var("x")))

    def test_terminal_shapes(self):
        assert proj_terminal(PCommand(Var("x"), PStuck(0)))
        assert proj_terminal(PCommand(Proj(3), PPush(Var("y"), PStuck(4))))
        assert not proj_terminal(PCommand(T(r"\x.x"), PStuck(0)))


class TestReadback:
    def test_worked_trace_tail(self):
        assert read_back(proj_readback_step, PCommand(Proj(0), PStuck(1))) == T(r"\x.x")

    def test_identity_on_plain_state(self):
        assert read_back(proj_readback_step, PCommand(Var("x"), PStuck(0))) == Var("x")

    def test_two_binder_state(self):
        # <car(cdr tp) || car tp . cdr(cdr tp)> names two binders; the
        # oracle is head reduction itself: the result must be the head
        # normal form \a.\b.b a (offset 0 is the outermost binder).
        state = PCommand(Proj(1), PPush(Proj(0), PStuck(2)))
        result = read_back(proj_readback_step, state)
        expected = T(r"\a.\b.b a")
        assert step_head_os(expected) is None
        assert alpha_eq(result, expected)

    def test_readback_avoids_capture_by_inner_binders(self):
        # The focused term already binds x over a projection; the fresh
        # binder must dodge it.
        state = PCommand(Lam("x", App(Proj(0), Var("x"))), PStuck(1))
        result = read_back(proj_readback_step, state)
        assert alpha_eq(result, T(r"\a.\x.a x"))

    def test_single_readback_step_inverts_projection_step(self, corpus120):
        # Wherever the machine just projected, one readback step undoes it
        # up to the binder name.
        for term in corpus120[:60]:
            state = proj_load(term)
            for _ in range(60):
                nxt = proj_step(state)
                if nxt is None:
                    break
                rule, stepped = nxt
                if rule == "project":
                    back_rule, back = proj_readback_step(stepped)
                    assert back_rule == "lambda"
                    assert isinstance(back.term, Lam) and isinstance(state.term, Lam)
                    assert back.coterm == state.coterm
                    assert alpha_eq(back.term, state.term)
                state = stepped


class TestReplaceProjection:
    def test_exact_depth(self):
        assert replace_atom(Proj(0), Proj(0), "x") == Var("x")

    def test_depth_mismatch(self):
        assert replace_atom(Proj(1), Proj(0), "x") == Proj(1)

    def test_all_occurrences_under_binders(self):
        term = App(Proj(0), Lam("y", Proj(0)))
        got = replace_atom(term, Proj(0), "x")
        # Oracle: an independent structural fold.
        def fold(t):
            if t == Proj(0):
                return Var("x")
            if isinstance(t, App):
                return App(fold(t.fun), fold(t.arg))
            if isinstance(t, Lam):
                return Lam(t.binder, fold(t.body))
            return t
        assert got == fold(term) == App(Var("x"), Lam("y", Var("x")))


class TestLegality:
    def test_examples(self):
        assert is_legal_proj(PCommand(Proj(0), PStuck(1)))
        assert not is_legal_proj(PCommand(Proj(0), PStuck(0)))
        assert is_legal_proj(PCommand(Var("x"), PPush(Proj(1), PStuck(2))))

    def test_preserved_along_runs(self, corpus120):
        for term in corpus120:
            state = proj_load(term)
            for _ in range(80):
                assert is_legal_proj(state)
                nxt = proj_step(state)
                if nxt is None:
                    break
                state = nxt[1]


class TestDerivedSmallStep:
    def test_worked_example(self):
        t0 = TopTerm(0, T(r"\x.(\y.y) x"))
        rule1, t1 = derived_step(t0)
        assert (rule1, t1) == ("absorb", TopTerm(1, App(Lam("y", Var("y")), Index(0))))
        rule2, t2 = derived_step(t1)
        assert (rule2, t2) == ("beta", TopTerm(1, Index(0)))
        assert derived_step(t2) is None

    def test_readback_of_single_index(self):
        assert read_back(derived_readback_step, TopTerm(1, Index(0))) == T(r"\x.x")

    def test_readback_plain_body(self):
        assert read_back(derived_readback_step, TopTerm(0, T("x y"))) == T("x y")

    def test_readback_two_binders(self):
        # Index 0 is the binder absorbed first, so a body using index 1 at
        # the head reads back with the inner binder applied: the oracle is
        # hashing the expected answer, which is its own absorption fixpoint.
        assert translate_hash(T(r"\a.\b.b a")) == TopTerm(2, App(Index(1), Index(0)))
        assert alpha_eq(read_back(derived_readback_step, TopTerm(2, App(Index(1), Index(0)))), T(r"\a.\b.b a"))
        assert alpha_eq(read_back(derived_readback_step, TopTerm(2, App(Index(0), Index(1)))), T(r"\a.\b.a b"))

    def test_legality(self):
        assert is_legal_top(TopTerm(1, Index(0)))
        assert not is_legal_top(TopTerm(0, Index(0)))
        assert not is_legal_top(TopTerm(1, App(Index(1), Index(0))))

    def test_legality_preserved(self):
        rng = random.Random(23)
        for _ in range(200):
            t = gen_top_term(rng, rng.randrange(4), 8)
            assert is_legal_top(t)
            nxt = derived_step(t)
            if nxt is not None:
                assert is_legal_top(nxt[1])


class TestStarHash:
    def test_star_examples(self):
        assert translate_star(TopTerm(1, Index(0))) == T(r"\x.x")
        assert translate_star(TopTerm(0, T("v w"))) == T("v w")
        assert alpha_eq(translate_star(TopTerm(2, Index(0))), T(r"\a.\b.a"))

    def test_hash_examples(self):
        assert translate_hash(T(r"\x.x")) == TopTerm(1, Index(0))
        assert translate_hash(T("x y")) == TopTerm(0, T("x y"))
        assert translate_hash(T(r"\x.\y.x")) == TopTerm(2, Index(0))

    def test_hash_then_star_is_identity(self, corpus300):
        for term in corpus300:
            assert translate_star(translate_hash(term)) == term

    def test_star_then_hash_reached_by_absorptions(self):
        rng = random.Random(31)
        for _ in range(120):
            t = gen_top_term(rng, rng.randrange(4), 7)
            expected = translate_hash(translate_star(t))
            walked = t
            while isinstance(walked.body, Lam):
                rule, walked = derived_step(walked)
                assert rule == "absorb"
            assert walked == expected

    def test_derived_step_maps_to_at_most_one_head_step(self):
        rng = random.Random(37)
        checked_beta = 0
        for _ in range(300):
            t = gen_top_term(rng, rng.randrange(3), 8)
            nxt = derived_step(t)
            if nxt is None:
                continue
            rule, stepped = nxt
            if rule == "absorb":
                assert alpha_eq(translate_star(stepped), translate_star(t))
            else:
                image = step_head_os(translate_star(t))
                assert image is not None
                assert alpha_eq(image, translate_star(stepped))
                checked_beta += 1
        assert checked_beta >= 30


class TestAgainstProjectionMachine:
    def test_endpoints_agree(self, corpus300):
        # Run the index-form semantics and the projection machine to their
        # ends and compare readbacks.
        for term in corpus300:
            top = TopTerm(0, term)
            betas = 0
            while betas <= 200:
                nxt = derived_step(top)
                if nxt is None:
                    break
                rule, top = nxt
                if rule == "beta":
                    betas += 1
            else:
                continue
            if betas > 200:
                continue

            state = proj_load(term)
            fuel = 0
            while fuel <= 3000:
                nxt = proj_step(state)
                if nxt is None:
                    break
                state = nxt[1]
                fuel += 1
            assert alpha_eq(read_back(derived_readback_step, top), read_back(proj_readback_step, state))
