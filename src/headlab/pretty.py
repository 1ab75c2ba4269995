"""Printing for terms and machine states.

Term output is ASCII and re-parseable; parsing a printed term gives back
the identical structure.  Machine states render in the notation of their
engine: projection chains as car/cdr around tp, binder frames as
Abs(x, S), environments as binding lists.  The coalesced rendering
prints counts in place of chains: a projection offset as pick/drop, an
anonymous binder prefix as \\^n.  The control syntax shares the term
syntax's Var and Proj leaves, so one term printer prints both, and one
command printer prints the commands of both.  One co-term printer prints
the call stacks of the stack, control and environment machines.
"""

from __future__ import annotations

from typing import Union

from . import control, envmachine, headsimple, projection, weakhead
from .syntax import App, Index, Lam, Proj, Term, Var, split_stack, strip_binders

__all__ = ["print_term", "print_state"]

# Printing positions, by how tightly the surrounding syntax binds.
_TOP, _FUN, _ARG = 0, 1, 2


def _cdr_chain(depth: int) -> str:
    text = "tp"
    for _ in range(depth):
        text = f"cdr({text})"
    return text


def _term(t: Union[Term, control.CTerm], pos: int, proj_style: str) -> str:
    match t:
        case Var(name):
            return name
        case Index(value):
            return f"#{value}"
        case Proj(depth):
            if proj_style == "pick":
                text = f"pick {depth} tp"
                return f"({text})" if pos > _TOP else text
            return f"car({_cdr_chain(depth)})"
        case Lam():
            binders, body = strip_binders(t)
            text = f"\\{' '.join(binders)}.{_term(body, _TOP, proj_style)}"
            return f"({text})" if pos > _TOP else text
        case App(fun, arg) | control.CApp(fun, arg):
            text = f"{_term(fun, _FUN, proj_style)} {_term(arg, _ARG, proj_style)}"
            return f"({text})" if pos > _FUN else text
        case control.Mu(covar, body):
            text = f"mu {covar}.{_command(body, proj_style)}"
            return f"({text})" if pos > _TOP else text
        case control.Case(binder, cobinder, body):
            return f"case[({binder} . {cobinder}).{_command(body, proj_style)}]"
    raise TypeError(f"not a term: {t!r}")


def print_term(t: Term) -> str:
    return _term(t, _TOP, "car")


def _coterm(e: Union[weakhead.PCoTerm, control.CCoTerm, envmachine.ECoTerm], style: str) -> str:
    args, tail = split_stack(e, (weakhead.PPush, control.CPush, envmachine.EPush))
    if isinstance(tail, headsimple.HStuck):
        text = "tp"
        for name in reversed(tail.binders):
            text = f"Abs({name}, {text})"
    elif isinstance(tail, control.CoVar):
        text = tail.name
    elif style == "pick":
        text = f"drop {tail.depth} tp"
    else:
        text = _cdr_chain(tail.depth)
    shown = [_closure(a, 1, style) if type(a) is envmachine.Closure else _term(a, _ARG, style) for a in args]
    return " . ".join([*shown, text])


def _command(c: Union[weakhead.PCommand, control.CCommand], style: str) -> str:
    return f"<{_term(c.term, _TOP, style)} || {_coterm(c.coterm, style)}>"


def _env(env: envmachine.Env, depth: int, style: str) -> str:
    if env is None:
        return "[]"
    if depth <= 0:
        return "[..]"
    parts = []
    while env is not None:
        parts.append(f"{env.name} -> {_closure(env.value, depth - 1, style)}")
        env = env.rest
    return "[" + ", ".join(parts) + "]"


def _closure(c: envmachine.Closure, depth: int, style: str) -> str:
    return f"({_term(c.term, _TOP, style)}, {_env(c.env, depth, style)})"


State = Union[
    Term,
    weakhead.PCommand,
    control.CCommand,
    envmachine.ECommand,
    projection.TopTerm,
]


def print_state(state: State, coalesced: bool = False) -> str:
    """Engine-tagged rendering of any machine state or small-step form;
    `coalesced` selects the counted rendering of head-coalesced,
    head-debruijn and env-head."""
    style = "pick" if coalesced else "car"
    match state:
        case weakhead.PCommand() | control.CCommand():
            return _command(state, style)
        case envmachine.ECommand():
            term = _term(state.term, _TOP, style)
            return f"<{term} || {_env(state.env, 2, style)} || {_coterm(state.coterm, style)}>"
        case projection.TopTerm():
            prefix = f"\\^{state.binders}." if coalesced else "\\." * state.binders
            return prefix + print_term(state.body)
        case _:
            return print_term(state)
