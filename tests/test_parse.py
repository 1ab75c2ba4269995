"""Concrete syntax: parsing, printing, and state rendering."""

import random
import sys

import pytest

from headlab.parse import ParseError, SourceSpan, parse_term
from headlab.pretty import print_state, print_term
from headlab.envmachine import Binding, Closure, ECommand, EPush
from headlab.projection import TopTerm
from headlab.syntax import App, Index, Lam, Proj, Var
from headlab.weakhead import TOP, PCommand, PPush, PStuck
from helpers import peel


class TestParse:
    def test_identity(self):
        assert parse_term(r"\x.x") == Lam("x", Var("x"))

    def test_omega(self):
        omega_half = Lam("y", App(Var("y"), Var("y")))
        assert parse_term(r"(\y.y y)(\y.y y)") == App(omega_half, omega_half)

    def test_application_left_associative(self):
        assert parse_term("f a b") == App(App(Var("f"), Var("a")), Var("b"))

    def test_multi_binder_sugar(self):
        assert parse_term(r"\x y.x y") == parse_term(r"\x.\y.x y")

    def test_unicode_lambda(self):
        assert parse_term("λx.x") == Lam("x", Var("x"))

    def test_body_extends_right(self):
        assert parse_term(r"\x.x y") == Lam("x", App(Var("x"), Var("y")))

    def test_trailing_lambda_argument(self):
        assert parse_term(r"x \y.y") == App(Var("x"), Lam("y", Var("y")))

    def test_comments_and_whitespace(self):
        src = "-- leading note\n\\x.  x -- trailing\n"
        assert parse_term(src) == Lam("x", Var("x"))

    def test_primed_identifiers(self):
        assert parse_term("x' y'") == App(Var("x'"), Var("y'"))

    # Each malformed input with its error message and span.
    MALFORMED = {
        "": ("expected a term", (0, 0)),
        "(": ("expected a term", (1, 1)),
        ")": ("expected a term", (0, 1)),
        r"\.x": ("expected an identifier", (1, 2)),
        r"\x": ("expected '.' after binders", (2, 2)),
        "x)": ("unexpected trailing input", (1, 2)),
        "(x": ("expected ')'", (2, 2)),
        "x . y": ("unexpected trailing input", (2, 3)),
        "?": ("unexpected character '?'", (0, 1)),
    }

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_malformed_input_raises(self, bad):
        message, (start, end) = self.MALFORMED[bad]
        with pytest.raises(ParseError) as err:
            parse_term(bad)
        assert (err.value.message, err.value.span) == (message, SourceSpan(start, end))
        assert str(err.value) == f"{message} (at {start}..{end})"

    @pytest.mark.parametrize("word", ["tp", "car", "cdr", "pick", "drop"])
    def test_reserved_machine_tokens_rejected(self, word):
        message = f"{word!r} is a reserved machine token"
        for src, start in ((word, 0), (f"\\{word}.{word}", 1)):
            with pytest.raises(ParseError) as err:
                parse_term(src)
            assert (err.value.message, err.value.span) == (message, SourceSpan(start, start + len(word)))

    def test_error_spans_point_into_input(self):
        with pytest.raises(ParseError) as err:
            parse_term("x (y")
        assert 0 <= err.value.span.start <= err.value.span.end <= 4

    def test_never_crashes_on_junk(self):
        rng = random.Random(3)
        alphabet = "\\xy().- \n'λ_0?\t\x0b"
        for _ in range(500):
            src = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
            try:
                term = parse_term(src)
            except ParseError:
                continue
            assert parse_term(print_term(term)) == term


class TestDeepInput:
    """Any nesting depth parses: the parser keeps its open groups in a list,
    not on the call stack.  The shapes are checked with loops, because
    node `==` recurses."""

    DEPTH = 100_000

    @pytest.fixture(autouse=True)
    def low_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        yield
        sys.setrecursionlimit(limit)

    def test_lambda_nest(self):
        nest = parse_term("\\x." * self.DEPTH + "x")
        term = nest
        for _ in range(self.DEPTH):
            assert type(term) is Lam and term.binder == "x"
            term = term.body
        assert term == Var("x")
        printed = print_term(nest)
        assert print_term(parse_term(printed)) == printed

    def test_spine(self):
        term = parse_term(" ".join(["x"] * self.DEPTH))
        for _ in range(self.DEPTH - 1):
            assert type(term) is App and term.arg == Var("x")
            term = term.fun
        assert term == Var("x")

    def test_paren_nest(self):
        assert parse_term("(" * self.DEPTH + "x" + ")" * self.DEPTH) == Var("x")

    def test_argument_nest(self):
        term = parse_term("f (" * self.DEPTH + "x" + ")" * self.DEPTH)
        for _ in range(self.DEPTH):
            assert type(term) is App and term.fun == Var("f")
            term = term.arg
        assert term == Var("x")

    def test_unclosed_paren_nest(self):
        with pytest.raises(ParseError) as err:
            parse_term("(" * self.DEPTH + "x")
        assert (err.value.message, err.value.span) == ("expected ')'", SourceSpan(self.DEPTH + 1, self.DEPTH + 1))


class TestPrint:
    def test_identity(self):
        assert print_term(Lam("x", Var("x"))) == r"\x.x"

    def test_no_redundant_parens(self):
        assert print_term(parse_term("f a b")) == "f a b"

    def test_required_parens(self):
        assert print_term(parse_term("f (a b)")) == "f (a b)"

    def test_lambda_in_function_position(self):
        assert print_term(parse_term(r"(\x.x) y")) == r"(\x.x) y"

    def test_multi_binder_contraction(self):
        assert print_term(parse_term(r"\x.\y.x y")) == r"\x y.x y"

    def test_round_trip_on_corpus(self, corpus1000):
        rng = random.Random(5)
        for closed in corpus1000:
            assert parse_term(print_term(closed)) == closed
            opened, _ = peel(closed, rng)
            assert parse_term(print_term(opened)) == opened


class TestPrintState:
    def test_krivine_empty_stack(self):
        state = PCommand(Lam("x", Var("x")), TOP)
        assert print_state(state) == r"<\x.x || tp>"

    def test_projection_state(self):
        state = PCommand(App(Lam("y", Var("y")), Proj(0)), PStuck(1))
        assert print_state(state) == r"<(\y.y) car(tp) || cdr(tp)>"

    def test_projection_push(self):
        state = PCommand(Lam("y", Var("y")), PPush(Proj(0), PStuck(1)))
        assert print_state(state) == r"<\y.y || car(tp) . cdr(tp)>"

    def test_coalesced_state(self):
        # The coalesced rendering prints an offset as one count: pick/drop
        # for a projection, \^n. for an anonymous binder prefix.
        assert print_state(PCommand(Proj(0), PStuck(1)), coalesced=True) == "<pick 0 tp || drop 1 tp>"
        state = PCommand(Proj(0), PPush(Proj(1), PStuck(2)))
        assert print_state(state, coalesced=True) == "<pick 0 tp || (pick 1 tp) . drop 2 tp>"
        assert print_state(TopTerm(2, App(Index(1), Lam("y", Index(0)))), coalesced=True) == r"\^2.#1 (\y.#0)"
        assert print_state(TopTerm(0, Var("v")), coalesced=True) == r"\^0.v"
        state = ECommand(
            App(Proj(0), Var("x")),
            Binding("x", Closure(Proj(1), None), None),
            EPush(Closure(Proj(0), None), PStuck(2)),
        )
        assert print_state(state, coalesced=True) == (
            "<(pick 0 tp) x || [x -> (pick 1 tp, [])] || (pick 0 tp, []) . drop 2 tp>"
        )
        assert print_state(state) == "<car(tp) x || [x -> (car(cdr(tp)), [])] || (car(tp), []) . cdr(cdr(tp))>"
